"""Tests of the benchmark's own instruments: SVD counting, span self time,
lookup-site patching, the digest check, and the per-layer report."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import run
import tracing
from workloads import WORKLOADS, Outcome

import ttlearn
from ttlearn import penalties, solver

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_counting_wrapper_reports_k_times_n3_slices_after_k_svt_calls():
    tracer = tracing.Tracer()
    x = np.random.default_rng(0).standard_normal((6, 5, 4))
    u = ttlearn.dct_transform(4)
    with tracing.patched(tracing.svd_targets(tracer)):
        for _ in range(3):
            ttlearn.svt(x, 0.5, u)
    assert tracer.svd_slices == 3 * 4
    assert tracer.spans == []  # counting runs without recording spans


def test_svd_wrappers_are_removed_on_exit():
    original = np.linalg.svd
    with tracing.patched(tracing.svd_targets(tracing.Tracer())):
        assert np.linalg.svd is not original
    assert np.linalg.svd is original


@pytest.mark.parametrize(
    "shape, full, uv, slices, flop",
    [
        ((3, 8, 5), False, True, 3, 3 * (14 * 8 * 25 + 8 * 125)),
        ((5, 8), True, True, 1, 4 * 64 * 5 + 8 * 8 * 25 + 9 * 125),
        ((2, 4, 4), True, False, 2, 2 * (4 * 64 - 4 * 64 / 3)),
    ],
)
def test_svd_work_counts_slices_and_flops_from_shapes(shape, full, uv, slices, flop):
    assert tracing.svd_work(shape, full, uv) == (slices, pytest.approx(flop))


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("a.child", 20, 30, 1),
        _span("b", 50, 70, 0),
        _span("c", 60, 90, 0),  # overlaps b: covered once
        _span("d", 95, 120, 0),  # runs past its parent: clipped
    ]
    assert tracing.self_times_ns(spans) == [100 - 30 - 40 - 5, 20, 10, 20, 30, 25]


def test_layer_metrics_on_a_synthetic_call_tree():
    s = 1_000_000_000
    spans = [
        _span("tasks.run", 0, 10 * s, -1),
        _span("solver.pmm_solve", 0, 4 * s, 0, {"outer": 3, "inner": 7}),
        _span("solver.admm_subproblem", 1 * s, 3 * s, 1, {"tol_inner": 1e-3}),
        _span("penalties.svt", 1 * s, 2 * s, 2),
        _span(tracing.SVD, 1 * s, s + s // 2, 3, {"slices": 4, "flop": 2e9}),
        _span("solver.kkt_residuals", 2 * s, 3 * s, 2, {"eta_e": 1e-4, "eta_p": 1e-4}),
        _span("solver.kkt_residuals", 2 * s, 3 * s, 2, {"eta_e": 1e-2, "eta_p": 1e-4}),
        _span("transforms.data_driven_transform", 5 * s, 6 * s, 0),
        _span("solver.pmm_solve", 6 * s, 9 * s, 0, {"outer": 2, "inner": 4}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["linalg.svd.calls"] == 1 and m["linalg.svd.slices"] == 4
    assert m["linalg.svd.gflop"] == 2.0
    assert m["penalties.svt.s"] == 1.0 and m["penalties.svt.self_s"] == 0.5
    assert m["solver.admm_subproblem.self_s"] == 0.0
    assert m["solver.kkt_residuals.eta_d_needed_ratio"] == 0.5
    assert (m["solver.outer_iters"], m["solver.inner_iters"]) == (5, 11)
    # only the solve before the transform is derived is the pilot
    assert (m["tasks.pilot.s"], m["tasks.pilot.outer_iters"]) == (4.0, 3)


def test_layer_wrappers_sit_where_callers_look_names_up():
    tracer = tracing.Tracer()
    original = penalties.svt
    with tracing.patched(tracing.layer_targets(tracer)):
        assert solver.svt is not original
        x = np.random.default_rng(1).standard_normal((5, 5, 3))
        u = ttlearn.dct_transform(3)
        with tracer.record() as spans:
            solver.kkt_residuals(x, x, x, x, x, x, ttlearn.Penalty("mcp", 1.0, 2.7), u,
                                 solver.PMMConfig(rho=2.0, beta=1.0, box_c=10.0))
    assert solver.svt is original
    names = [s[0] for s in spans]
    assert names[:2] == ["solver.kkt_residuals", "penalties.svt"]
    assert names.count("tensor_ops.transform") == 2
    assert all(s[3] == 1 for s in spans if s[0] == "tensor_ops.transform")


def test_digest_check_fails_a_changed_result_within_and_across_runs(tmp_path):
    store = tmp_path / "digests.json"
    first = [Outcome("seed0/mcp", 1.0, digest="aa"), Outcome("seed0/mcp", 1.0, digest="bb")]
    run.check_digests(first, store, "w:code")
    assert first[0].error is None and first[1].error is not None
    later = [Outcome("seed0/mcp", 1.0, digest="bb")]
    run.check_digests(later, store, "w:code")
    assert later[0].error is not None
    other_code = [Outcome("seed0/mcp", 1.0, digest="bb")]
    run.check_digests(other_code, store, "w:changed-code")
    assert other_code[0].error is None


def _tiny(wl):
    """The same workload on a much smaller instance, so a test can trace it quickly."""
    if wl.task == "classify":
        synth = ("--dims", "4x4x2", "--rank", "1", "--n-train", "120", "--n-test", "40")
        return dataclasses.replace(wl, synth=synth, dims=(4, 4, 2))
    synth = ("--dims", "8x8x3", "--rank", "1", "--sr", "0.6", "--sigma", "0.01",
             "--transform", "dct")
    return dataclasses.replace(wl, synth=synth, dims=(8, 8, 3))


def _traced_passes(wl, work):
    src = run.ROOT / "src"
    run.setup(wl, work, src)
    tracer = tracing.Tracer()
    with tracing.patched(tracing.svd_targets(tracer)):
        ttl = run.import_ttlearn(src)
        items = run.solve_items(wl, work, 0)
        return [
            run.run_pass(ttl, tracer, wl, items),
            run.run_pass(ttl, tracer, wl, items, tracing.layer_targets(tracer)),
        ]


# layers a completion workload does not run: it calls the task driver directly
NOT_IN_COMPLETION = {
    "tasks.pilot.s",
    "tasks.pilot.outer_iters",
    "transforms.data_driven_transform.s",
    "cli.overhead_s",
}


def test_complete_large_runs_the_completion_path_of_complete_small():
    small, large = WORKLOADS["complete-small"], WORKLOADS["complete-large"]
    assert large.task == small.task
    assert {type(s) for s in large.solves} == {type(s) for s in small.solves}


# complete-large shares its layers with complete-small (see above); its own
# settings (MCP lambda 12, rho 3) stop with a descent violation on instances
# this small, so it is not run at test scale
@pytest.mark.parametrize("name", ["complete-small", "classify-cli"])
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    wl = _tiny(WORKLOADS[name])
    passes = _traced_passes(wl, tmp_path)
    assert all(o.digest for p in passes for o in p.outcomes)  # every solve returned
    values = run.per_layer(passes)
    skipped = NOT_IN_COMPLETION if wl.task == "complete" else set()
    for metric in SPEC["per_layer"]:
        key = metric["name"]
        assert isinstance(values[key], (int, float)), key
        if key in skipped:
            assert values[key] == 0, key
        elif key not in ("trace.overhead_s", "solver.kkt_residuals.eta_d_needed_ratio"):
            assert values[key] > 0, key
    e2e = run.end_to_end(passes, [0.5], [run.calibrate(wl) for _ in range(len(passes) + 1)])
    assert {m["name"] for m in SPEC["end_to_end"]} == set(e2e)
    assert all(v is not None and v > 0 for v in e2e.values())


def test_each_pass_is_scaled_by_the_calibration_on_both_sides_of_it():
    passes = [run.Pass(False, wall_s=wall, svd_slices=0, outcomes=[]) for wall in (2.0, 3.0)]
    ref = run.CALIB_REF_S
    # the host runs twice as slow around the second pass, so its 3 s count as 1.5 s
    calib = [[ref, ref], [ref, 3 * ref], [2 * ref, 2 * ref]]
    assert run.normalized_walls(passes, calib) == pytest.approx([2.0, 1.5])


def test_calibration_runs_no_counted_svd():
    wl = _tiny(WORKLOADS["complete-small"])
    tracer = tracing.Tracer()
    with tracing.patched(tracing.svd_targets(tracer)):
        times = run.calibrate(dataclasses.replace(wl, calib_reps=2))
    assert len(times) == run.CALIB_SAMPLES and all(t > 0 for t in times)
    assert tracer.svd_slices == 0


@dataclasses.dataclass(frozen=True)
class _FailingSolve:
    """Stand-in solve that does some traced work, then fails like a diverging solver."""

    label: str = "fails"

    def call(self, ttl, wl, prefix, stem):
        ttl.solver.svt(np.ones(wl.dims), 0.1, ttl.dct_transform(wl.dims[2]))
        raise ttl.SolverError("objective increased")

    def check(self, *args):
        raise AssertionError("a failed solve is not checked")


def test_a_failed_solve_is_counted_and_keeps_its_spans(tmp_path):
    wl = dataclasses.replace(_tiny(WORKLOADS["complete-small"]), solves=(_FailingSolve(),))
    passes = _traced_passes(wl, tmp_path)
    errors = [o.error for p in passes for o in p.outcomes]
    assert errors == ["SolverError: objective increased"] * 2
    values = run.per_layer(passes)
    assert values["penalties.svt.calls"] == 1 and values["linalg.svd.slices"] == 3
