import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from ttlearn import cli, penalties

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_cli_digests():
    return load_tool("cli_digests")


def test_against_reports_only_the_commands_that_differ():
    tool = load_cli_digests()
    theirs = [
        (1, ["synth"], ["exit 0", "result none", "stdout aa"]),
        (2, ["metrics", "a.tns"], ["exit 0", "result r1", "stderr e"]),
    ]
    ours = [theirs[0], (2, ["metrics", "a.tns"], ["exit 1", "result r1", "stderr f"])]
    report, differ = tool.differences(ours, theirs)
    assert differ == 1
    assert report == [
        "[02] ttlearn metrics a.tns",
        "  - exit 0",
        "  - stderr e",
        "  + exit 1",
        "  + stderr f",
    ]
    assert tool.differences(theirs, theirs) == ([], 0)


def test_against_reports_each_differing_result_field():
    tool = load_cli_digests()
    old = {
        "task": "complete",
        "trace": {"initial_objective": 2.0, "entries": [{"objective": 1.0, "feasible": True}] * 2},
        "ranks": [1, 2],
    }
    new = {
        "task": "classify",
        "trace": {
            "initial_objective": 2.0 - 2**-50,
            "entries": [{"objective": 1.0 + 2**-52, "feasible": True},
                        {"objective": 1.0 + 2**-50, "feasible": False}],
        },
        "ranks": [1, 2, 3],
        "added": None,
    }
    old = {**old, "removed": {"nested": 1.0}}
    theirs = [(1, ["complete"], ["exit 0", "result r1", "stdout s"], old),
              (2, ["metrics"], ["exit 0", "result r3", "stdout s"], old)]
    ours = [(1, ["complete"], ["exit 0", "result r2", "stdout s"], new),
            (2, ["metrics"], ["exit 0", "result r3", "stdout t"], old)]
    report, differ = tool.differences(ours, theirs)
    assert differ == 2
    assert report == [
        "[01] ttlearn complete",
        "  - result r1",
        "  + result r2",
        "  ~ task DIFF",
        # signed: + where the new value is the larger
        "  ~ trace.initial_objective -4.4e-16",
        "  ~ trace.entries[*].objective +8.9e-16",
        "  ~ trace.entries[*].feasible DIFF",
        "  ~ ranks DIFF",
        "  ~ removed REMOVED",
        "  ~ added ADDED",
        # a differing command with equal results gets no field lines
        "[02] ttlearn metrics",
        "  - stdout s",
        "  + stdout t",
    ]
    # a path keeps the difference of largest magnitude, with its sign
    assert tool.field_differences({"e": [1.0 + 2**-52, 1.0 - 2**-50]}, {"e": [1.0, 1.0]}) == {
        "e[*]": -(2**-50)
    }


def test_against_compares_fields_only_when_both_trees_wrote_a_result():
    tool = load_cli_digests()
    theirs = [(1, ["complete"], ["exit 0", "result r1"], {"task": "complete"})]
    ours = [(1, ["complete"], ["exit 1", "result none"], None)]
    report, differ = tool.differences(ours, theirs)
    assert differ == 1
    assert report == [
        "[01] ttlearn complete",
        "  - exit 0",
        "  - result r1",
        "  + exit 1",
        "  + result none",
    ]


def test_against_rejects_a_tree_without_ttlearn(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        load_cli_digests().main(["--against", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "no ttlearn package" in capsys.readouterr().err


def test_a_command_past_the_timeout_is_reported_and_the_run_goes_on(tmp_path, monkeypatch):
    package = tmp_path / "src" / "ttlearn"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import sys, time\n"
        "if 'hang' in sys.argv:\n"
        "    print('started', flush=True)\n"
        "    time.sleep(60)\n"
        "sys.exit(3)\n"
    )
    tool = load_cli_digests()
    monkeypatch.setattr(tool, "COMMANDS", [["hang"], ["quick"]])
    monkeypatch.setattr(tool, "COMMAND_TIMEOUT_S", 1)
    (first, _, hung, result), (second, _, quick, _) = tool.digests(tmp_path / "src")
    assert (first, second) == (1, 2)
    assert hung[:2] == ["exit timeout", "result none"]
    assert "stdout " + tool.sha256(b"started\n") in hung
    assert result is None
    assert quick[0] == "exit 3"


def test_stated_command_counts_match_the_command_list():
    tool = load_cli_digests()
    readme = (ROOT / "README.md").read_text()
    stated = [
        re.search(r"fixed set of (\d+) ttlearn CLI commands", tool.__doc__),
        re.search(r"cli_digests\.py \[--src DIR\]` runs a fixed set of (\d+)\s+CLI", readme),
    ]
    assert all(stated)
    assert [int(match.group(1)) for match in stated] == [len(tool.COMMANDS)] * 2


def test_readme_solver_flags_match_the_parser():
    readme = (ROOT / "README.md").read_text()
    stated = re.search(r"Solver flags \(shared by `complete` and `classify`\): `([^`]*)`", readme)
    assert stated
    parser = cli._Parser(add_help=False)
    cli._add_solver_flags(parser)
    added = [option for action in parser._actions for option in action.option_strings]
    assert stated.group(1).split() == [option for option in added if option != "--config"]


def test_svd_census_lines_sum_to_totals_that_match_an_independent_count(
    tmp_path, monkeypatch, capsys
):
    real_svd, seen = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        seen.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    # installed first, so the census wraps this counter
    monkeypatch.setattr(np.linalg, "svd", counted)
    results = tmp_path / "r.json"
    argv = ["complete", "--synthetic", "--dims", "6x6x2", "--rank", "1", "--box-c", "0.3",
            "--rho", "4", "--max-outer", "4", "--transform", "data", "--results", str(results)]
    assert load_tool("svd_census").main(argv) == 0
    assert results.is_file()
    assert np.linalg.svd is counted
    lines = capsys.readouterr().out.splitlines()
    header, *rows, total = lines
    assert header.split() == ["calls", "slices", "caller", "shape"]
    parsed = [
        (int(calls), int(slices), caller) for calls, slices, caller, *_ in map(str.split, rows)
    ]
    # the data transform's own SVD is charged apart from the solver's
    assert {caller for *_, caller in parsed} == {
        "penalties._factorize", "transforms.data_driven_transform"
    }
    calls, slices, name = total.split()
    assert name == "total"
    assert int(calls) == sum(row[0] for row in parsed) == len(seen)
    assert int(slices) == sum(row[1] for row in parsed) == sum(
        int(np.prod(shape[:-2])) for shape in seen
    )


def test_svd_census_charges_split_blocks_inside_ttlearn(tmp_path, monkeypatch, capsys):
    # pinned digest command [45]: every slice_svd of its (5, 32, 32) batches is
    # split into blocks of 3 and 2 slices, the second on a pool thread
    real_svd, seen = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        seen.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(penalties, "_usable_cpus", lambda: 2)
    argv = ["complete", "--synthetic", "--dims", "32x32x5", "--rank", "2", "--sr", "0.5",
            "--seed", "3", "--max-outer", "8", "--results", str(tmp_path / "r.json")]
    assert load_tool("svd_census").main(argv) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    parsed = [(int(calls), int(slices), caller, shape)
              for calls, slices, caller, shape in (row.split(None, 3) for row in rows)]
    assert {(caller, shape) for *_, caller, shape in parsed} == {
        ("penalties._svd_block", "(3, 32, 32)"), ("penalties._svd_block", "(2, 32, 32)")
    }
    calls, slices, name = total.split()
    assert int(calls) == sum(row[0] for row in parsed) == len(seen)
    assert int(slices) == sum(row[1] for row in parsed) == sum(
        int(np.prod(shape[:-2])) for shape in seen
    )


def test_svd_census_charges_unsplit_full_svds_to_the_one_factorization_site(
    tmp_path, monkeypatch, capsys
):
    # pinned digest command [46] on one CPU: x0's slice_svd and every full SVD
    # svt falls back to are whole (4, 72, 72) calls, all made by _factorize
    real_svd, seen = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        seen.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(penalties, "_usable_cpus", lambda: 1)
    argv = ["complete", "--synthetic", "--dims", "72x72x4", "--rank", "2", "--sr", "0.5",
            "--seed", "3", "--max-outer", "8", "--results", str(tmp_path / "r.json")]
    assert load_tool("svd_census").main(argv) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    parsed = [(int(calls), int(slices), caller, shape)
              for calls, slices, caller, shape in (row.split(None, 3) for row in rows)]
    assert parsed == [(9, 36, "penalties._factorize", "(4, 72, 72)")]
    calls, slices, name = total.split()
    assert int(calls) == sum(row[0] for row in parsed) == len(seen)
    assert int(slices) == sum(row[1] for row in parsed) == sum(
        int(np.prod(shape[:-2])) for shape in seen
    )
