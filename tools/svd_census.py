#!/usr/bin/env python3
"""Census of the SVDs one ttlearn CLI command makes, by caller and batch shape.

    python3 tools/svd_census.py [--src DIR] COMMAND [ARGS ...]

    python3 tools/svd_census.py complete --synthetic --dims 12x12x3 --rank 1 --rho 4

Runs ``ttlearn.cli.main`` on ``COMMAND ARGS`` in this process, with ttlearn
imported from ``DIR`` (default: this checkout's ``src``) and
``numpy.linalg.svd`` wrapped. Each call is charged to the innermost stack
frame inside the ttlearn package, as ``module.function``, and to the shape
of its input. A call factorizes one matrix per entry of the leading
dimensions, so a ``(10, 100, 100)`` batch is 10 slices, as the benchmark
counts them. The command's own standard output goes to standard error; the
census is printed to standard output, one line per (caller, shape) with its
calls and slices, then the totals. The tool exits with the command's code.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np


def slices(shape: tuple[int, ...]) -> int:
    """Matrices one SVD call on ``shape`` factorizes."""
    return math.prod(shape[:-2])


def innermost_caller(frame, package: Path) -> str:
    """``module.function`` of the innermost frame, from ``frame`` outward, in ``package``."""
    while frame is not None:
        path = Path(frame.f_code.co_filename)
        if path.parent == package:
            return f"{path.stem}.{frame.f_code.co_name}"
        frame = frame.f_back
    return "<outside ttlearn>"


def census(argv: list[str], src: Path) -> tuple[int, Counter, Counter]:
    """Run one CLI command; returns its exit code and the calls and slices per (caller, shape)."""
    sys.path.insert(0, str(src))
    import ttlearn.cli

    package = Path(ttlearn.cli.__file__).resolve().parent
    calls, counted = Counter(), Counter()
    real_svd = np.linalg.svd

    def wrapped(a, *args, **kwargs):
        shape = np.shape(a)
        key = (innermost_caller(sys._getframe(1), package), shape)
        calls[key] += 1
        counted[key] += slices(shape)
        return real_svd(a, *args, **kwargs)

    np.linalg.svd = wrapped
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = ttlearn.cli.main(argv)
    finally:
        np.linalg.svd = real_svd
    return code, calls, counted


def report(calls: Counter, counted: Counter) -> list[str]:
    """One line per (caller, shape), most slices first, then the totals line."""
    rows = [
        (calls[key], counted[key], key[0], str(key[1]))
        for key in sorted(calls, key=lambda k: (-counted[k], k[0], k[1]))
    ]
    rows.append((sum(calls.values()), sum(counted.values()), "total", ""))
    lines = [f"{'calls':>7} {'slices':>8}  caller  shape"]
    lines += [f"{n:7d} {s:8d}  {caller}  {shape}".rstrip() for n, s, caller, shape in rows]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory that holds the ttlearn package (default: ./src)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="ttlearn subcommand and its arguments")
    args = parser.parse_args(argv)
    if not args.command:
        parser.error("no ttlearn command given")
    if not (args.src / "ttlearn" / "cli.py").is_file():
        parser.error(f"no ttlearn package under {args.src}")
    code, calls, counted = census(args.command, args.src.resolve())
    for line in report(calls, counted):
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
