#!/usr/bin/env python3
"""ttlearn benchmark: run one workload, check every solve, print its metrics.

    python3 perfbench/run.py --workload complete-small --seed 1 --seconds 20 --trace 0

Paths are resolved against the checkout root, the parent of this directory,
and ttlearn is imported from its ``src/``. A run first generates the
workload's instances with ``ttlearn synth`` in a fresh interpreter
(``SETUP_REPEATS`` times, for ``setup_s``), then repeats passes over the
workload's solves until ``--seconds`` would be exceeded; a pass that
starts always finishes. ``--seed`` only sets which solve a pass starts
with: the instances are fixed so that results repeat exactly.

``wall_norm_s`` is the pass wall time scaled to the speed of the baseline
machine. On a shared 2-vCPU VM other tenants slowed whole minutes of work
by up to 70 %, longer than a run lasts, so raw pass times moved by a third
between runs of the same code. Before the first pass and after every pass
the run times ``CALIB_SAMPLES`` samples of a fixed NumPy-only kernel, a
batched SVD of the workload's slice shape; each pass is divided by the
median of the samples on both sides of it and multiplied by the kernel's
time on the baseline machine, ``CALIB_REF_S``. The metric is the
median over passes. The kernel runs no ttlearn code, so a change to
ttlearn moves the metric by the change in its own time. Raw pass and
sample times are kept in the report.

With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json, or its per-layer metrics when
tracing. Scratch files go to ``.bench_work/``, the full report and the
spans to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import tracing
from workloads import INSTANCE_SEEDS, WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
CALIB_SAMPLES = 3
CALIB_REF_S = 0.13
# bound before the SVD counters are installed, so calibration is not counted
_SVD = np.linalg.svd
SETUP_SCRIPT = (
    "import json, sys\n"
    "from ttlearn.cli import main\n"
    "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


def setup(wl, work: Path, src: Path) -> list[float]:
    """Import ttlearn in a fresh interpreter and write every instance; one time per repeat."""
    argvs = [wl.synth_argv(seed, str(work / f"seed{seed}")) for seed in INSTANCE_SEEDS]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, json.dumps(argvs)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise BenchError(f"ttlearn synth failed:\n{done.stderr}")
    return times


def calibrate(wl) -> list[float]:
    """Time ``CALIB_SAMPLES`` samples of the workload's calibration kernel."""
    n1, n2, n3 = wl.dims
    batch = np.random.default_rng(0).standard_normal((n3, n1, n2))
    times = []
    for _ in range(CALIB_SAMPLES):
        started = time.perf_counter()
        for _ in range(wl.calib_reps):
            _SVD(batch, full_matrices=False)
        times.append(time.perf_counter() - started)
    return times


def import_ttlearn(src: Path):
    sys.path.insert(0, str(src))
    import ttlearn
    import ttlearn.cli
    import ttlearn.tasks
    import ttlearn.tensor_io

    if Path(ttlearn.__file__).resolve().parent != (src / "ttlearn").resolve():
        raise BenchError(f"imported ttlearn from {ttlearn.__file__}, not from {src}")
    return ttlearn


def solve_items(wl, work: Path, seed: int) -> list[tuple]:
    """``(solve_id, solve, instance prefix, output stem)`` per solve, rotated by ``seed``."""
    items = [
        (f"seed{s}/{solve.label}", solve, str(work / f"seed{s}"),
         str(work / f"seed{s}-{solve.label}"))
        for s in INSTANCE_SEEDS
        for solve in wl.solves
    ]
    shift = seed % len(items)
    return items[shift:] + items[:shift]


@dataclass
class Pass:
    traced: bool
    wall_s: float
    svd_slices: int
    outcomes: list[Outcome]
    spans: list = field(default_factory=list)


def run_pass(ttl, tracer: tracing.Tracer, wl, items, layers=None) -> Pass:
    """Time every solve of ``items`` back to back, then check their outputs.

    With ``layers`` (patch targets from :func:`tracing.layer_targets`) the
    pass is traced: the wrappers are installed for it alone.
    """
    traced = layers is not None
    tracer.svd_slices = 0
    raws = []
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(tracing.patched(layers))
            stack.enter_context(tracer.record())
        for _, solve, prefix, stem in items:
            started = time.perf_counter()
            try:
                raw = solve.call(ttl, wl, prefix, stem)
            except Exception as exc:  # a failed solve is counted, not fatal
                traceback.print_exc()
                raw = exc
            raws.append((time.perf_counter() - started, raw))
    done = Pass(traced, sum(s for s, _ in raws), tracer.svd_slices, [],
                tracer.spans if traced else [])
    for (solve_id, solve, prefix, stem), (seconds, raw) in zip(items, raws):
        outcome = Outcome(solve_id, seconds)
        if isinstance(raw, Exception):
            outcome.error = f"{type(raw).__name__}: {raw}"
        else:
            try:
                solve.check(ttl, prefix, stem, raw, outcome)
            except Exception as exc:  # malformed output fails the solve
                outcome.error = f"output check raised {type(exc).__name__}: {exc}"
        done.outcomes.append(outcome)
    return done


def source_digest(root: Path) -> str:
    """Digest of the program and benchmark sources, so stored digests follow code changes."""
    h = hashlib.sha256()
    for path in sorted([*root.glob("src/**/*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_digests(outcomes: list[Outcome], store: Path, key: str) -> None:
    """Fail every solve whose result differs from the first one seen for its instance.

    The first digest per instance is kept in ``store`` under ``key``, so later
    runs of the same code are held to it as well.
    """
    known = json.loads(store.read_text()) if store.exists() else {}
    reference = known.setdefault(key, {})
    for outcome in outcomes:
        if not outcome.digest:
            continue
        if reference.setdefault(outcome.solve_id, outcome.digest) != outcome.digest:
            outcome.error = outcome.error or "result differs from an earlier solve of this instance"
    partial = store.with_suffix(".tmp")
    partial.write_text(json.dumps(known, indent=1))
    os.replace(partial, store)


def _median(values):
    values = [v for v in values if v == v]
    return statistics.median(values) if values else None


def normalized_walls(passes: list[Pass], calib: list[list[float]]) -> list[float]:
    """Pass ``i`` ran between calibration points ``i`` and ``i + 1``; scale it by their median."""
    return [p.wall_s * CALIB_REF_S / statistics.median(before + after)
            for p, before, after in zip(passes, calib, calib[1:])]


def end_to_end(passes: list[Pass], setup_times: list[float], calib: list[list[float]]) -> dict:
    timed = [p for p in passes if not p.traced]
    outcomes = [o for p in timed for o in p.outcomes]
    flags = [c for o in outcomes for c in o.converged]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_norm_s": statistics.median(normalized_walls(timed, calib)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "svd_slices": statistics.median_low(p.svd_slices for p in timed),
        "rel_error": _median(o.rel_error for o in outcomes),
        "test_accuracy": _median(o.test_accuracy for o in outcomes),
        "converged_frac": sum(flags) / len(flags) if flags else None,
    }


def per_layer(passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.traced]
    rows = [tracing.layer_metrics(p.spans) for p in traced]
    values = {}
    for name, first in rows[0].items():
        # counts stay whole numbers
        middle = statistics.median_low if isinstance(first, int) else statistics.median
        values[name] = middle(row[name] for row in rows)
    traced_wall = min(p.wall_s for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - min(p.wall_s for p in passes if not p.traced)
    return values


def blas_threads() -> dict:
    """Thread count of every loaded OpenBLAS, asked through its own API."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def environment(root: Path, digest: str) -> dict:
    import scipy

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    commit = None
    if (root / ".git").exists():
        commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps[k].get("openblas configuration", deps[k].get("name"))
                 for k in ("blas", "lapack")},
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k)
                       for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "load": "one process: setup in fresh interpreters, then every solve in this one",
        "git_commit": commit,
        "source_digest": digest,
        "instance_seeds": list(INSTANCE_SEEDS),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    src = ROOT / "src"
    if not (src / "ttlearn" / "__init__.py").is_file():
        raise BenchError(f"no ttlearn sources under {src}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.chdir(ROOT)
    work = Path(".bench_work") / wl.name
    out = Path(".bench_out")
    work.mkdir(parents=True, exist_ok=True)
    out.mkdir(exist_ok=True)

    setup_times = setup(wl, work, src)
    tracer = tracing.Tracer()
    with contextlib.ExitStack() as stack:
        stack.enter_context(tracing.patched(tracing.svd_targets(tracer)))
        ttl = import_ttlearn(src)
        layers = tracing.layer_targets(tracer)
        # first-call costs (BLAS threads, LAPACK workspaces) stay out of the timings
        ttl.svt(np.random.default_rng(0).standard_normal(wl.dims), 1.0,
                ttl.dct_transform(wl.dims[2]))

        items = solve_items(wl, work, args.seed)
        passes: list[Pass] = []
        deadline = time.perf_counter() + args.seconds
        calib = [calibrate(wl)]
        while True:
            started = time.perf_counter()
            if args.trace:
                # alternate which side of the pair runs first
                lead = len(passes) // 2 % 2 == 0
                for traced in (lead, not lead):
                    passes.append(run_pass(ttl, tracer, wl, items, layers if traced else None))
            else:
                passes.append(run_pass(ttl, tracer, wl, items))
            calib.append(calibrate(wl))
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break

    digest = source_digest(ROOT)
    outcomes = [o for p in passes for o in p.outcomes]
    check_digests(outcomes, out / "digests.json", f"{wl.name}:{digest}")
    failed = sum(o.error is not None for o in outcomes)
    values = per_layer(passes) if args.trace else end_to_end(passes, setup_times, calib)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    env = environment(ROOT, digest) | {
        "order_seed": args.seed,
        "setup_repeats": SETUP_REPEATS,
        "passes": sum(not p.traced for p in passes),
        "traced_passes": sum(p.traced for p in passes),
    }

    tag = f"{wl.name}-trace{args.trace}"
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": env,
        "setup_s": setup_times,
        "calibration_s": calib,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "svd_slices": p.svd_slices,
                    "outcomes": [asdict(o) for o in p.outcomes]} for p in passes],
        "metrics": values,
    }
    (out / f"report-{tag}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        spans = [[s[:4] for s in p.spans] for p in passes if p.traced]
        (out / f"spans-{wl.name}.json").write_text(json.dumps({"passes": spans}))

    for o in outcomes:
        if o.error:
            print(f"FAILED {o.solve_id}: {o.error}")
    raw = statistics.median(p.wall_s for p in passes if not p.traced)
    print(f"{wl.name}: {len(passes)} passes, {len(outcomes)} solves, {failed} failed, "
          f"error_rate {failed / len(outcomes):.4g}, raw untraced pass median {raw:.4g} s")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']!s:>24} {m['unit']}")
    print("environment: " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
