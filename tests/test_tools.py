import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"


def load_cli_digests():
    spec = importlib.util.spec_from_file_location("cli_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_against_rejects_a_tree_without_ttlearn(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        load_cli_digests().main(["--against", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "no ttlearn package" in capsys.readouterr().err
