"""Outside-in instruments for the ttlearn benchmark.

Every measurement here is taken by timing calls into ttlearn's public
functions from the benchmark's own code; ttlearn itself is not edited.
Wrappers are installed on the module attribute a caller looks the name up
in (``ttlearn.solver.svt``, not ``ttlearn.penalties.svt``), because a
``from x import name`` binding in the caller keeps pointing at the
original function otherwise.

A span is ``[name, start_ns, end_ns, parent_index, attrs]``. Spans of one
pass are kept in memory in start order (a parent always precedes its
children) and written out when the benchmark ends.
"""
from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

SVD = "linalg.svd"


def svd_work(shape, full_matrices=True, compute_uv=True) -> tuple[int, float]:
    """Matrices factorized and computed flops of one dense SVD call on ``shape``.

    The flop counts are the Golub-Reinsch figures of Golub & Van Loan
    (Matrix Computations, table "SVD cost") for an M x k matrix, M >= k:
    singular values only 4Mk^2 - 4k^3/3; thin U and V 14Mk^2 + 8k^3; full U
    and V 4M^2k + 8Mk^2 + 9k^3. They are computed from shapes, not measured.
    """
    slices = int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
    big, small = max(shape[-2:]), min(shape[-2:])
    if not compute_uv:
        per = 4 * big * small**2 - 4 * small**3 / 3
    elif full_matrices:
        per = 4 * big**2 * small + 8 * big * small**2 + 9 * small**3
    else:
        per = 14 * big * small**2 + 8 * small**3
    return slices, float(slices * per)


def _dense_svd_work(args, kwargs):
    a = args[0] if args else kwargs["a"]
    full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
    uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
    return svd_work(np.shape(a), full, uv)


def _sparse_svd_work(args, kwargs):
    # scipy.sparse.linalg.svds factorizes one matrix; its iterative cost has
    # no closed form, so it adds a slice but no computed flops
    return 1, 0.0


class Tracer:
    """Span recorder plus an always-on count of SVD work.

    ``recording`` gates the spans; the SVD counters run whenever the SVD
    wrappers are installed, so an untraced run still reports ``svd_slices``.
    """

    def __init__(self):
        self.recording = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.svd_slices = 0

    @contextmanager
    def record(self):
        """Record spans into a fresh list for the duration of the block."""
        self.spans, self._stack, self.recording = [], [], True
        try:
            yield self.spans
        finally:
            self.recording = False

    def _call(self, name, fn, args, kwargs, attrs, annotate):
        index = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, attrs]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()
        if annotate is not None:
            span[4] = annotate(args, kwargs, result)
        return result

    def wrap(self, name, fn, annotate=None):
        """Span-recording stand-in for ``fn``; ``annotate(args, kwargs, result)`` adds attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs, None, annotate)

        return traced

    def wrap_svd(self, fn, work):
        """Counting stand-in for an SVD entry point; ``work(args, kwargs) -> (slices, flop)``."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            slices, flop = work(args, kwargs)
            self.svd_slices += slices
            if not self.recording:
                return fn(*args, **kwargs)
            return self._call(SVD, fn, args, kwargs, {"slices": slices, "flop": flop}, None)

        return counted


@contextmanager
def patched(targets):
    """Set ``(owner, attr, replacement)`` triples and restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def svd_targets(tracer: Tracer) -> list:
    """Every SVD entry point ttlearn could reach, wrapped for counting.

    Install these before ``import ttlearn`` so that a module binding an SVD
    by name at import time binds the counting wrapper.
    """
    import numpy.linalg
    import scipy.linalg
    import scipy.sparse.linalg

    return [
        (numpy.linalg, "svd", tracer.wrap_svd(numpy.linalg.svd, _dense_svd_work)),
        (scipy.linalg, "svd", tracer.wrap_svd(scipy.linalg.svd, _dense_svd_work)),
        (scipy.sparse.linalg, "svds", tracer.wrap_svd(scipy.sparse.linalg.svds, _sparse_svd_work)),
    ]


def _solve_counts(args, kwargs, result):
    trace = result[1]
    return {
        "outer": len(trace.entries),
        "inner": sum(e.inner_iterations for e in trace.entries),
    }


def _kkt_parts(args, kwargs, result):
    return {"eta_e": result.eta_e, "eta_p": result.eta_p}


def _admm_tol(args, kwargs, result):
    cfg = args[6] if len(args) > 6 else kwargs["admm_cfg"]
    return {"tol_inner": cfg.tol_inner}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def layer_targets(tracer: Tracer) -> list:
    """Span wrappers for every ttlearn layer, keyed by the caller's lookup site."""
    from ttlearn import cli, losses, penalties, solver, tasks, tensor_io, tensor_ops

    def at(owner, attr, name, annotate=None):
        return owner, attr, tracer.wrap(name, getattr(owner, attr), annotate)

    targets = [
        # solver imports the penalty functions by name and calls its own
        at(solver, "svt", "penalties.svt"),
        at(solver, "dc_smooth_grad", "penalties.dc_smooth_grad"),
        at(solver, "penalty_value", "penalties.penalty_value"),
        at(solver, "kkt_residuals", "solver.kkt_residuals", _kkt_parts),
        at(solver, "admm_subproblem", "solver.admm_subproblem", _admm_tol),
        at(solver, "objective_value", "solver.objective_value"),
        # tasks calls solver.pmm_solve through the module
        at(solver, "pmm_solve", "solver.pmm_solve", _solve_counts),
    ]
    # penalties imports the transforms by name; tensor_ops and tasks use the module's own
    for owner in (tensor_ops, penalties):
        targets += [
            at(owner, "apply_transform", "tensor_ops.transform"),
            at(owner, "inverse_transform", "tensor_ops.transform"),
        ]
    for cls in (losses.CompletionLoss, losses.LogisticLoss):
        targets += [at(cls, "grad", "losses.grad"), at(cls, "value", "losses.value")]
    targets += [
        at(tasks, "run_completion", "tasks.run"),
        at(tasks, "run_classification", "tasks.run"),
        at(tasks, "data_driven_transform", "transforms.data_driven_transform"),
        at(cli, "main", "cli.main"),
    ]
    targets += [
        at(tasks, name, "tasks.metrics") for name in ("psnr", "ssim", "predict", "test_accuracy")
    ]
    # cli imports the TNS1 functions by name; the benchmark calls tensor_io's own
    for owner in (cli, tensor_io):
        targets += [
            at(owner, "read_tensor", "tensor_io.read", _file_bytes),
            at(owner, "write_tensor", "tensor_io.write", _file_bytes),
        ]
    return targets


def covered_ns(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [
        span[2] - span[1] - covered_ns(children[i], span[1], span[2])
        for i, span in enumerate(spans)
    ]


COUNTED = (
    "penalties.svt",
    "penalties.dc_smooth_grad",
    "penalties.penalty_value",
    "tensor_ops.transform",
    "solver.kkt_residuals",
    "solver.objective_value",
    "losses.grad",
    "losses.value",
)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by metric name."""
    calls = defaultdict(int)
    total = defaultdict(int)
    own = defaultdict(int)
    attrs = defaultdict(list)
    for span, self_ns in zip(spans, self_times_ns(spans)):
        name = span[0]
        calls[name] += 1
        total[name] += span[2] - span[1]
        own[name] += self_ns
        if span[4]:
            attrs[name].append(span[4])

    def sec(ns):
        return ns / 1e9

    m = {
        "linalg.svd.calls": calls[SVD],
        "linalg.svd.slices": sum(a["slices"] for a in attrs[SVD]),
        "linalg.svd.s": sec(total[SVD]),
        "linalg.svd.gflop": sum(a["flop"] for a in attrs[SVD]) / 1e9,
    }
    for name in COUNTED:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = sec(total[name])
    m["penalties.svt.self_s"] = sec(own["penalties.svt"])
    m["solver.kkt_residuals.self_s"] = sec(own["solver.kkt_residuals"])

    # a KKT check needs eta_d only when the two SVD-free parts already pass;
    # spans of calls that raised carry no attrs
    needed = 0
    for span in spans:
        if span[0] == "solver.kkt_residuals" and span[4] and spans[span[3]][4]:
            tol = spans[span[3]][4]["tol_inner"]
            needed += span[4]["eta_e"] <= tol and span[4]["eta_p"] <= tol
    m["solver.kkt_residuals.eta_d_needed_ratio"] = needed / max(calls["solver.kkt_residuals"], 1)

    m["solver.admm_subproblem.self_s"] = sec(own["solver.admm_subproblem"])
    m["solver.pmm_solve.s"] = sec(total["solver.pmm_solve"])
    m["solver.outer_iters"] = sum(a["outer"] for a in attrs["solver.pmm_solve"])
    m["solver.inner_iters"] = sum(a["inner"] for a in attrs["solver.pmm_solve"])

    # the pilot is every solve a task driver runs before deriving its transform
    pilot_ns = pilot_outer = 0
    kids = defaultdict(list)
    for span in spans:
        if span[3] >= 0 and spans[span[3]][0] == "tasks.run":
            kids[span[3]].append(span)
    for group in kids.values():
        derived = [s[1] for s in group if s[0] == "transforms.data_driven_transform"]
        for s in group:
            if s[0] == "solver.pmm_solve" and derived and s[1] < derived[0]:
                pilot_ns += s[2] - s[1]
                pilot_outer += s[4]["outer"] if s[4] else 0
    m["tasks.pilot.s"] = sec(pilot_ns)
    m["tasks.pilot.outer_iters"] = pilot_outer
    m["transforms.data_driven_transform.s"] = sec(total["transforms.data_driven_transform"])
    m["tasks.metrics.s"] = sec(total["tasks.metrics"])

    for op in ("read", "write"):
        m[f"tensor_io.{op}.s"] = sec(total[f"tensor_io.{op}"])
        m[f"tensor_io.{op}.bytes"] = sum(a["bytes"] for a in attrs[f"tensor_io.{op}"])
    # cli.main calls only the task driver and the TNS1 functions among traced layers
    m["cli.overhead_s"] = sec(own["cli.main"])
    return m
