#!/usr/bin/env python3
"""Digests of a fixed set of 50 ttlearn CLI commands, for byte-identity checks.

    python3 tools/cli_digests.py [--src DIR] > digests.txt
    python3 tools/cli_digests.py [--src DIR] --against OTHER_SRC

Runs every command of ``COMMANDS`` in order as ``python -m ttlearn.cli``,
with ttlearn imported from ``DIR`` (default: this checkout's ``src``), in
one fresh temporary directory. For each command it prints the exit code
(``timeout`` for a command killed after ``COMMAND_TIMEOUT_S`` seconds),
the SHA-256 of the result JSON without its top-level ``timing`` key (key
order kept), of every file the command wrote or changed, and of standard
output and standard error. In standard error the source location of a
warning is replaced by ``<source>`` and the source line Python echoes
below it is dropped, so moving a ``warnings.warn`` call changes no digest.

With ``--against OTHER_SRC`` it runs the commands against both trees, each
in its own fresh directory, prints only the commands whose lines differ
(``-`` lines from ``OTHER_SRC``, ``+`` lines from ``DIR``) and exits 1 if
any does, 0 if the two trees give byte-identical results, files and
messages. Under a command whose ``result`` line differs and for which both
trees wrote a result JSON, one ``~`` line per differing JSON path (list
indices shown as ``[*]``) gives the largest relative difference at that
path with its sign, ``+`` when the ``DIR`` value is the larger (as in
``+8.9e-16``), ``DIFF`` for a non-numeric change, or ``ADDED`` or
``REMOVED`` for a path that only the ``DIR`` or only the ``OTHER_SRC``
result has.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = {
    "paths": {
        "observed": "inst_observed.tns",
        "mask": "inst_mask.tns",
        "truth": "inst_truth.tns",
    },
    "lambda": 2.0,
    "beta": 2.0,
    "rho": 4.0,
    "tol_inner": 1e-3,
}
INSTANCE = ["--observed", "inst_observed.tns", "--mask", "inst_mask.tns"]
CLASSIFY_FILES = [
    "--train-samples", "cls_train_samples.tns", "--train-labels", "cls_train_labels.txt",
    "--test-samples", "cls_test_samples.tns", "--test-labels", "cls_test_labels.txt",
]
SMALL = ["complete", "--synthetic", "--dims", "6x6x2"]
COMMANDS = [
    ["synth", "--task", "complete", "--dims", "12x12x4", "--rank", "2", "--sr", "0.5",
     "--sigma", "0.01", "--seed", "7", "--out-prefix", "inst"],
    ["synth", "--task", "classify", "--dims", "5x5x3", "--rank", "1", "--n-train", "120",
     "--n-test", "60", "--seed", "2", "--out-prefix", "cls"],
    ["complete", *INSTANCE, "--truth", "inst_truth.tns", "--lambda", "2", "--beta", "2",
     "--rho", "4", "--tol-inner", "1e-3", "--output", "rec.tns"],
    ["complete", *INSTANCE, "--truth", "inst_truth.tns", "--penalty", "scad", "--gamma", "3.7",
     "--lambda", "2", "--beta", "2", "--transform", "data", "--output", "rec_scad.tns"],
    ["complete", *INSTANCE, "--penalty", "scad", "--gamma", "3.7", "--lambda", "4",
     "--beta", "2", "--rho", "6", "--transform", "data"],
    ["complete", "--synthetic", "--dims", "8x8x2", "--rank", "1", "--sr", "0.7", "--sigma", "0",
     "--seed", "1", "--lambda-grid", "1,2", "--beta-grid", "1,2", "--rho", "4",
     "--tol-inner", "1e-3", "--max-outer", "30"],
    ["classify", *CLASSIFY_FILES, "--transform", "data", "--lambda", "0.2", "--beta", "0.5",
     "--rho", "0.2", "--tol-inner", "1e-3", "--max-outer", "60", "--output", "coeff.tns"],
    ["classify", "--synthetic", "--dims", "4x4x2", "--rank", "1", "--n-train", "100",
     "--n-test", "40", "--seed", "4", "--penalty", "log", "--gamma", "1", "--lambda", "0.2",
     "--beta", "0.5", "--rho", "0.2", "--tol-inner", "1e-3", "--max-outer", "50"],
    ["classify", "--synthetic", "--dims", "4x4x2", "--rank", "1", "--n-train", "60",
     "--n-test", "20", "--seed", "1", "--max-outer", "20"],
    ["complete", "--config", "cfg.json", "--max-outer", "20"],
    [*SMALL, "--tau", "2.0"],
    [*SMALL, "--lambda", "0"],
    [*SMALL, "--penalty", "scad", "--gamma", "1"],
    [*SMALL, "--xi", "0.7"],
    [*SMALL, "--lambda-grid", "0,1", "--max-outer", "5"],
    ["tsvd", "--input", "rec.tns", "--pilot", "inst_truth.tns"],
    ["metrics", "rec.tns", "inst_truth.tns"],
    ["tsvd", "--input", "inst_truth.tns", "--transform", "identity"],
    ["tsvd", "--input", "inst_truth.tns", "--transform", "fourier"],
    ["synth", "--task", "classify", "--dims", "4x4x2", "--rank", "1", "--n-train", "40",
     "--n-test", "10", "--transform", "identity", "--seed", "5", "--out-prefix", "clsid"],
    ["classify", "--synthetic", "--dims", "3x3x2", "--rank", "1", "--n-train", "40",
     "--n-test", "10", "--seed", "0", "--transform", "data", "--rho", "0.2",
     "--tol-inner", "1e-3", "--max-outer", "10"],
    [*SMALL, "--beta", "nan"],
    [*SMALL, "--lambda", "inf"],
    # 15x5x1 test samples hold as many entries as the 5x5x3 cls_ ones
    ["synth", "--task", "classify", "--dims", "15x5x1", "--rank", "1", "--n-train", "10",
     "--n-test", "20", "--seed", "3", "--out-prefix", "odd"],
    ["classify", *CLASSIFY_FILES[:4], "--test-samples", "odd_test_samples.tns",
     "--test-labels", "odd_test_labels.txt", "--rho", "0.2", "--max-outer", "5"],
    [*SMALL, "--rank", "0", "--rho", "1", "--max-outer", "5"],
    ["complete", "--synthetic", "--dims", "2x2x8", "--rank", "1", "--transform", "data",
     "--max-outer", "5", "--rho", "4"],
    # default tol_inner with rho above the descent threshold
    ["complete", "--synthetic", "--dims", "12x12x3", "--rank", "1", "--sr", "0.6",
     "--seed", "0", "--lambda", "2", "--beta", "2", "--rho", "4"],
    # a box far inside the observed peak: the solve starts from the projected
    # observation and every subproblem falls back from the exact move to ADMM
    ["complete", "--synthetic", "--dims", "12x12x3", "--rank", "1", "--box-c", "0.3",
     "--rho", "4", "--lambda", "2", "--beta", "2"],
    # a log penalty with gamma < 1, whose smooth part is convex only with s2'(0) = 0
    ["complete", "--synthetic", "--dims", "12x12x3", "--rank", "1", "--lambda", "2",
     "--beta", "2", "--rho", "4", "--penalty", "log", "--gamma", "0.5", "--max-outer", "40"],
    # a box at 0.9 of the observed peak: moves below rho that bind it are
    # retried at twice the weight
    ["complete", "--synthetic", "--dims", "10x10x3", "--rank", "1", "--sr", "0.6", "--seed", "1",
     "--lambda", "2", "--beta", "2", "--rho", "4", "--box-c", "3.5944134363242597",
     "--max-outer", "30"],
    # rho * x overflows in the exact move's center, whose SVD could loop forever
    [*SMALL, "--max-outer", "1", "--rho", "1e308"],
    # a subnormal rho, whose 1/rho overflows, is rejected before any solve
    [*SMALL, "--max-outer", "3", "--rho", "1e-320"],
    # moves below rho that bind the box are kept at their projected move
    ["complete", "--synthetic", "--dims", "40x40x4", "--rank", "3", "--sr", "0.6", "--seed", "0",
     "--lambda", "8", "--beta", "2", "--rho", "3", "--tol-inner", "3e-4"],
    # --max-inner is not an option: exit 1. This instance's exhausted step (a box
    # at half the observed peak, two inner steps) is kept by tests/test_solver.py::
    # TestPMMSolve::test_a_step_whose_max_inner_runs_out_is_exhausted_with_no_margin
    ["complete", "--synthetic", "--dims", "10x11x1", "--rank", "1", "--sr", "0.6", "--seed", "10",
     "--lambda", "2", "--beta", "1", "--rho", "3.125", "--box-c", "2.472175341773691",
     "--max-inner", "2", "--tol-inner", "3e-4", "--max-outer", "30"],
    # the outer stop tolerance and the pilot's cap are not options
    [*SMALL, "--tol-outer", "1e-3"],
    [*SMALL, "--pilot-max-outer", "5"],
    # noise near the float range overflows inside the step at rho: exit 2, unwarned
    [*SMALL, "--sigma", "1e307", "--rho", "5", "--max-outer", "3"],
    # slices of side 80 above the truncation gate: a binding move kept below rho
    # updates the Ritz factors its truncated svt left instead of factorizing anew
    ["complete", "--synthetic", "--dims", "80x80x3", "--rank", "3", "--sr", "0.6", "--seed", "2",
     "--lambda", "8", "--beta", "2", "--rho", "3", "--tol-inner", "3e-4"],
    # noise of scale 1e160 on the damped path: the solve ends, and the final
    # norm and metrics overflow to inf or nan without a warning
    [*SMALL, "--sigma", "1e160", "--rho", "1", "--max-outer", "3"],
    # tsvd counts ranks at tensor_ops.RANK_TOL: --tol is not an option
    ["tsvd", "--input", "inst_truth.tns", "--tol", "1e-6"],
    # test samples without their labels: exit 1 before any solve
    ["classify", *CLASSIFY_FILES[:6], "--max-outer", "5"],
    # a descent-checked logistic fit over 40 steps: most run at rho_t < rho, and
    # some keep a trial only after doubling its weight
    ["classify", "--synthetic", "--dims", "4x4x2", "--rank", "1", "--n-train", "100",
     "--n-test", "40", "--seed", "4", "--lambda", "0.05", "--beta", "0.5", "--rho", "2",
     "--tol-inner", "1e-3", "--max-outer", "40"],
    # a zero in --dims: exit 1 before any file is written
    ["synth", "--task", "complete", "--dims", "3x0x2", "--out-prefix", "bad"],
    # slices of side 32, between the split and truncation gates: every slice_svd
    # splits its 5 slices into one block per CPU
    ["complete", "--synthetic", "--dims", "32x32x5", "--rank", "2", "--sr", "0.5", "--seed", "3",
     "--max-outer", "8"],
    # slices of side 72, above the truncation gate: x0's slice_svd and every
    # full SVD of svt split when the BLAS thread count can be set
    ["complete", "--synthetic", "--dims", "72x72x4", "--rank", "2", "--sr", "0.5", "--seed", "3",
     "--max-outer", "8"],
    # complete-small's MCP solve: a step kept inside the box at its first trial
    # halves the next weight only when its measured curvature allows it
    ["complete", "--synthetic", "--dims", "30x30x10", "--rank", "2", "--sr", "0.4", "--sigma",
     "0.01", "--seed", "0", "--lambda", "4", "--gamma", "2.7", "--beta", "1", "--rho", "6",
     "--tol-inner", "3e-4"],
    # objectives that overflow on the damped path, which has no monotone check:
    # exit 2, where the initial objective ([48], [50]) or a step's ([49]) used
    # to be written as Infinity
    ["complete", "--synthetic", "--dims", "8x8x4", "--seed", "1", "--max-outer", "1",
     "--lambda", "1e-300", "--beta", "1e-300", "--rho", "0.5", "--box-c", "0.5",
     "--transform", "identity", "--sigma", "1e200"],
    ["classify", "--synthetic", "--dims", "5x5x3", "--seed", "3", "--max-outer", "5",
     "--beta", "1.7e308", "--rho", "1e-12", "--box-c", "1e12", "--n-train", "2", "--n-test",
     "10", "--rank", "2"],
    ["complete", "--synthetic", "--dims", "4x5x2", "--seed", "2", "--max-outer", "5",
     "--beta", "1.7e308", "--rho", "0.5", "--box-c", "1e150", "--penalty", "mcp",
     "--sigma", "0.01", "--sr", "0.3"],
]
# seconds before a command is killed and reported as ``exit timeout``; the
# slowest pinned command takes a few seconds
COMMAND_TIMEOUT_S = 120
_WARNING = re.compile(r"^.*\.py:\d+: (\w*Warning: .*)$")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def normalize_stderr(text: str) -> str:
    """Replace each warning's source location and drop the source line echoed below it."""
    lines, echoed = [], False
    for line in text.splitlines():
        match = _WARNING.match(line)
        if match:
            lines.append(f"<source>: {match.group(1)}")
            echoed = True
        elif echoed and line.startswith("  "):
            echoed = False
        else:
            lines.append(line)
            echoed = False
    return "\n".join(lines)


def snapshot(work: Path) -> dict[str, str]:
    return {p.name: sha256(p.read_bytes()) for p in sorted(work.iterdir()) if p.is_file()}


def load_result(path: Path) -> dict | None:
    """The result JSON without its top-level ``timing`` key, or ``None`` if not written."""
    if not path.exists():
        return None
    result = json.loads(path.read_text())
    result.pop("timing", None)
    return result


def result_digest(result: dict | None) -> str:
    return "none" if result is None else sha256(json.dumps(result).encode())


def run_all(src: Path, work: Path):
    """Yield ``(index, argv, lines, result)`` for every command, run in ``work``."""
    (work / "cfg.json").write_text(json.dumps(CONFIG))
    env = dict(os.environ, PYTHONPATH=str(src))
    for index, argv in enumerate(COMMANDS, 1):
        results = f"result{index:02d}.json"
        before = snapshot(work)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "ttlearn.cli", *argv, "--results", results],
                cwd=work, env=env, capture_output=True, timeout=COMMAND_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as expired:
            done = subprocess.CompletedProcess(
                expired.cmd, "timeout", expired.stdout or b"", expired.stderr or b""
            )
        after = snapshot(work)
        result = load_result(work / results)
        lines = [f"exit {done.returncode}", f"result {result_digest(result)}"]
        lines += [
            f"file {name} {digest}" for name, digest in after.items()
            if name != results and before.get(name) != digest
        ]
        lines.append(f"stdout {sha256(done.stdout)}")
        stderr = normalize_stderr(done.stderr.decode())
        lines.append(f"stderr {sha256(stderr.encode())}")
        yield index, argv, lines, result


def digests(src: Path) -> list[tuple[int, list[str], list[str], dict | None]]:
    """Every command's ``(index, argv, lines, result)``, run in a fresh temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return list(run_all(src, Path(tmp)))


def header(index: int, command: list[str]) -> str:
    return f"[{index:02d}] ttlearn {' '.join(command)}"


def _finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def field_differences(new, old, path: str = "", found: dict | None = None) -> dict:
    """Largest signed relative difference per JSON path of two results, ``"DIFF"`` if not numeric.

    A difference is positive when ``new`` is the larger value; the one of
    largest magnitude at a path is kept.

    A key that only ``new`` has is ``"ADDED"``, one that only ``old`` has
    ``"REMOVED"``. List indices collapse to ``[*]``; equal values and paths
    are left out.
    """
    found = {} if found is None else found
    if isinstance(new, dict) and isinstance(old, dict):
        for key in dict.fromkeys([*old, *new]):
            child = f"{path}.{key}" if path else key
            if key in new and key in old:
                field_differences(new[key], old[key], child, found)
            else:
                found[child] = "ADDED" if key in new else "REMOVED"
    elif isinstance(new, list) and isinstance(old, list):
        if len(new) != len(old):
            found[path] = "DIFF"
        for a, b in zip(new, old):
            field_differences(a, b, f"{path}[*]", found)
    elif _finite_number(new) and _finite_number(old):
        if new != old:
            rel = (new - old) / max(abs(new), abs(old))
            previous = found.setdefault(path, rel)
            if not isinstance(previous, str) and abs(rel) > abs(previous):
                found[path] = rel
    elif json.dumps(new) != json.dumps(old):
        found[path] = "DIFF"
    return found


def differences(ours, theirs) -> tuple[list[str], int]:
    """Report lines for the commands whose lines differ, and how many do.

    Both arguments are :func:`digests` results for the same ``COMMANDS``;
    a differing command is printed with its ``theirs``-only lines as ``-``
    and its ``ours``-only lines as ``+``. Entries that carry their result
    JSON as a fourth item add one ``~`` line per field that differs when
    both results exist.
    """
    report, differ = [], 0
    for (index, command, new, *new_json), (_, _, old, *old_json) in zip(ours, theirs, strict=True):
        if new == old:
            continue
        differ += 1
        report.append(header(index, command))
        report += [f"  - {line}" for line in old if line not in new]
        report += [f"  + {line}" for line in new if line not in old]
        if new_json and old_json and None not in (new_json[0], old_json[0]):
            for path, diff in field_differences(new_json[0], old_json[0]).items():
                report.append(f"  ~ {path} {diff}" if isinstance(diff, str) else f"  ~ {path} {diff:+.1e}")
    return report, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory that holds the ttlearn package (default: ./src)")
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="also run against this ttlearn source directory and print "
                             "only the commands that differ; exit 1 if any does")
    args = parser.parse_args(argv)
    trees = [args.src.resolve()]
    if args.against is not None:
        trees.append(args.against.resolve())
    for src in trees:
        if not (src / "ttlearn" / "cli.py").is_file():
            parser.error(f"no ttlearn package under {src}")
    if args.against is None:
        for index, command, lines, _ in digests(trees[0]):
            print(header(index, command))
            for line in lines:
                print(f"  {line}")
        return 0
    ours, theirs = digests(trees[0]), digests(trees[1])
    report, differ = differences(ours, theirs)
    for line in report:
        print(line)
    print(f"{differ} of {len(ours)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
