import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ttlearn
from ttlearn import solver, tasks
from ttlearn.cli import main
from ttlearn.tensor_io import read_tensor, write_tensor
from ttlearn.transforms import dct_transform


def run_cli(args):
    return main(args)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_unknown_flag_exits_one(capsys):
    assert run_cli(["complete", "--nonsense"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_command_exits_one(capsys):
    assert run_cli(["frobnicate"]) == 1


def test_missing_inputs_exits_one(capsys):
    assert run_cli(["complete"]) == 1
    assert "--observed" in capsys.readouterr().err


def test_metrics_on_missing_file_exits_one(tmp_path, capsys):
    assert run_cli(["metrics", str(tmp_path / "a.tns"), str(tmp_path / "b.tns")]) == 1


def test_tsvd_zero_tensor(tmp_path):
    src = tmp_path / "zero.tns"
    write_tensor(src, np.zeros((3, 3, 2)))
    out = tmp_path / "out.json"
    assert run_cli(["tsvd", "--input", str(src), "--transform", "dct", "--results", str(out)]) == 0
    result = load_json(out)
    assert result["multi_rank"] == [0, 0]
    assert np.allclose(result["singular_values"], 0.0)


def test_tsvd_with_pilot_transform(tmp_path):
    rng = np.random.default_rng(0)
    src = tmp_path / "x.tns"
    write_tensor(src, rng.standard_normal((4, 4, 3)))
    pilot = tmp_path / "pilot.tns"
    write_tensor(pilot, rng.standard_normal((4, 4, 3)))
    out = tmp_path / "out.json"
    assert run_cli(["tsvd", "--input", str(src), "--pilot", str(pilot), "--results", str(out)]) == 0
    assert load_json(out)["transform"] == "data"


def test_tsvd_factorizes_its_input_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 4, 3))
    x[:, :, 1] = 0.0
    src = tmp_path / "x.tns"
    write_tensor(src, x)
    real_svd, shapes = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    out = tmp_path / "out.json"
    assert run_cli(["tsvd", "--input", str(src), "--transform", "identity",
                    "--results", str(out)]) == 0
    assert shapes == [(3, 5, 4)]
    assert load_json(out)["multi_rank"] == [4, 0, 4]


def test_metrics_matches_in_process(tmp_path):
    rng = np.random.default_rng(1)
    truth = rng.standard_normal((5, 5, 2))
    recovered = truth + 0.05 * rng.standard_normal((5, 5, 2))
    a, b = tmp_path / "rec.tns", tmp_path / "truth.tns"
    write_tensor(a, recovered)
    write_tensor(b, truth)
    out = tmp_path / "m.json"
    assert run_cli(["metrics", str(a), str(b), "--results", str(out)]) == 0
    result = load_json(out)
    assert result["psnr"] == pytest.approx(tasks.psnr(recovered, truth), abs=1e-9)
    assert result["ssim"] == pytest.approx(tasks.ssim(recovered, truth), abs=1e-9)


def test_synth_complete_solve_metrics_pipeline(tmp_path):
    prefix = str(tmp_path / "inst")
    manifest_path = tmp_path / "manifest.json"
    assert run_cli([
        "synth", "--task", "complete", "--dims", "12x12x3", "--rank", "1",
        "--sr", "0.6", "--sigma", "0.01", "--seed", "7",
        "--out-prefix", prefix, "--results", str(manifest_path),
    ]) == 0
    manifest = load_json(manifest_path)
    files = manifest["files"]

    recovered_path = tmp_path / "recovered.tns"
    results_path = tmp_path / "results.json"
    assert run_cli([
        "complete", "--observed", files["observed"], "--mask", files["mask"],
        "--truth", files["truth"], "--output", str(recovered_path),
        "--results", str(results_path),
        "--lambda", "2.0", "--beta", "2.0", "--rho", "4.0", "--tol-inner", "1e-3",
    ]) == 0
    results = load_json(results_path)
    assert results["config"]["lambda"] == 2.0
    assert results["trace"]["outer_iterations"] >= 1

    metrics_path = tmp_path / "metrics.json"
    assert run_cli(["metrics", str(recovered_path), files["truth"], "--results", str(metrics_path)]) == 0
    cross = load_json(metrics_path)

    # CLI metrics agree with in-process evaluation of the written tensors
    recovered = read_tensor(recovered_path)
    truth = read_tensor(files["truth"])
    assert cross["psnr"] == pytest.approx(tasks.psnr(recovered, truth), abs=1e-9)
    assert cross["psnr"] == pytest.approx(results["metrics"]["psnr"], abs=1e-9)


def test_complete_synthetic_deterministic_json(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = [
        "complete", "--synthetic", "--dims", "10x10x2", "--rank", "1",
        "--sr", "0.6", "--sigma", "0.0", "--seed", "3",
        "--lambda", "2.0", "--beta", "2.0", "--rho", "4.0", "--tol-inner", "1e-3",
        "--max-outer", "40",
    ]
    assert run_cli(args + ["--results", str(out1)]) == 0
    assert run_cli(args + ["--results", str(out2)]) == 0
    r1, r2 = load_json(out1), load_json(out2)
    r1.pop("timing")
    r2.pop("timing")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_complete_at_default_tol_inner_keeps_descent(tmp_path):
    # every solver flag but lambda, beta and rho at its default: the inexact
    # subproblem solves must still pass the descent check (no exit 2)
    out = tmp_path / "r.json"
    assert run_cli([
        "complete", "--synthetic", "--dims", "12x12x3", "--rank", "1", "--sr", "0.6",
        "--seed", "0", "--lambda", "2", "--beta", "2", "--rho", "4", "--results", str(out),
    ]) == 0
    trace = load_json(out)["trace"]
    assert trace["descent_checked"] and trace["converged"]


def test_complete_from_an_infeasible_observation_starts_in_the_box(tmp_path):
    # box_c 0.3 is far below the observed peak: the solve starts from the
    # projected observation, so its first descent check compares feasible points
    out = tmp_path / "r.json"
    assert run_cli([
        "complete", "--synthetic", "--dims", "12x12x3", "--rank", "1", "--box-c", "0.3",
        "--rho", "4", "--lambda", "2", "--beta", "2", "--results", str(out),
    ]) == 0
    trace = load_json(out)["trace"]
    assert trace["descent_checked"]
    assert all(entry["feasible"] for entry in trace["entries"])
    assert any(entry["inner_iterations"] > 1 for entry in trace["entries"])


def test_complete_grid_sweep(tmp_path):
    out = tmp_path / "grid.json"
    assert run_cli([
        "complete", "--synthetic", "--dims", "8x8x2", "--rank", "1",
        "--sr", "0.7", "--sigma", "0.0", "--seed", "1",
        "--lambda-grid", "1.0,2.0", "--beta-grid", "1.0,2.0",
        "--rho", "4.0", "--tol-inner", "1e-3", "--max-outer", "30",
        "--results", str(out),
    ]) == 0
    grid = load_json(out)["grid"]
    assert len(grid) == 4
    assert {(g["lambda"], g["beta"]) for g in grid} == {(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)}


def test_synth_classify_files_round_trip(tmp_path):
    prefix = str(tmp_path / "cls")
    manifest_path = tmp_path / "manifest.json"
    assert run_cli([
        "synth", "--task", "classify", "--dims", "4x4x2", "--rank", "1",
        "--n-train", "30", "--n-test", "10", "--seed", "5",
        "--out-prefix", prefix, "--results", str(manifest_path),
    ]) == 0
    files = load_json(manifest_path)["files"]

    # stack layout: n3 of the stack file equals per-sample n3 times sample count
    stack = read_tensor(files["train_samples"])
    assert stack.shape == (4, 4, 2 * 30)
    labels = [int(line) for line in open(files["train_labels"]) if line.strip()]
    assert len(labels) == 30
    assert set(labels) <= {0, 1}

    # consistency with the in-process generator
    problem = tasks.synth_logistic((4, 4, 2), 1, 30, 10, dct_transform(2), seed=5)
    np.testing.assert_array_equal(stack[:, :, :2], problem.train_samples[0])
    np.testing.assert_array_equal(labels, problem.train_labels)


def test_classify_from_files(tmp_path, recwarn):
    prefix = str(tmp_path / "cls")
    manifest_path = tmp_path / "manifest.json"
    assert run_cli([
        "synth", "--task", "classify", "--dims", "4x4x2", "--rank", "1",
        "--n-train", "120", "--n-test", "40", "--seed", "2",
        "--out-prefix", prefix, "--results", str(manifest_path),
    ]) == 0
    files = load_json(manifest_path)["files"]
    out = tmp_path / "res.json"
    coeff_path = tmp_path / "coeff.tns"
    assert run_cli([
        "classify",
        "--train-samples", files["train_samples"], "--train-labels", files["train_labels"],
        "--test-samples", files["test_samples"], "--test-labels", files["test_labels"],
        "--lambda", "0.2", "--beta", "0.5", "--rho", "0.2", "--tol-inner", "1e-3",
        "--max-outer", "60", "--output", str(coeff_path), "--results", str(out),
    ]) == 0
    results = load_json(out)
    assert 0.0 <= results["metrics"]["test_accuracy"] <= 1.0
    assert read_tensor(coeff_path).shape == (4, 4, 2)


def test_classify_synthetic(tmp_path, recwarn):
    out = tmp_path / "res.json"
    assert run_cli([
        "classify", "--synthetic", "--dims", "4x4x2", "--rank", "1",
        "--n-train", "100", "--n-test", "40", "--seed", "4",
        "--lambda", "0.2", "--beta", "0.5", "--rho", "0.2", "--tol-inner", "1e-3",
        "--max-outer", "50", "--results", str(out),
    ]) == 0
    results = load_json(out)
    assert results["config"]["rho"] == 0.2
    assert "test_accuracy" in results["metrics"]


@pytest.mark.parametrize("via_config", [False, True], ids=["test-samples-flag", "test-labels-path"])
def test_classify_with_half_a_test_pair_exits_one_before_writing(
    via_config, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    write_tensor("train.tns", rng.standard_normal((3, 3, 8)))
    write_tensor("test.tns", rng.standard_normal((3, 3, 8)))
    Path("labels.txt").write_text("0\n1\n0\n1\n")
    outputs = {"output": "coeff.tns", "results": "out.json"}
    if via_config:
        paths = {"train_samples": "train.tns", "train_labels": "labels.txt",
                 "test_labels": "labels.txt", **outputs}
        Path("cfg.json").write_text(json.dumps({"paths": paths}))
        argv = ["classify", "--config", "cfg.json"]
    else:
        argv = ["classify", "--train-samples", "train.tns", "--train-labels", "labels.txt",
                "--test-samples", "test.tns", "--output", "coeff.tns", "--results", "out.json"]
    before = sorted(os.listdir())
    assert run_cli(argv) == 1
    assert "needs both --test-samples and --test-labels" in capsys.readouterr().err
    assert sorted(os.listdir()) == before


def test_labels_stack_mismatch_exits_one(tmp_path, capsys):
    stack_path = tmp_path / "s.tns"
    write_tensor(stack_path, np.zeros((2, 2, 5)))  # 5 slices not divisible by 2 labels
    labels_path = tmp_path / "l.txt"
    labels_path.write_text("0\n1\n")
    assert run_cli([
        "classify", "--train-samples", str(stack_path), "--train-labels", str(labels_path),
    ]) == 1
    assert "not divisible" in capsys.readouterr().err


@pytest.mark.parametrize("dims, message", [
    ("3xx", "bad --dims value '3xx'; expected like 30x30x10"),
    # a parsed --dims is checked by the config's dims rule, like every other flag
    ("3x0x2", "config field 'dims': must be three positive integers"),
    ("3x3", "config field 'dims': must be three positive integers"),
], ids=["3xx", "3x0x2", "3x3"])
def test_bad_dims_argument(tmp_path, capsys, dims, message):
    prefix = str(tmp_path / "x")
    assert run_cli(["synth", "--task", "complete", "--dims", dims, "--out-prefix", prefix]) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_numerical_divergence_exits_two(tmp_path, monkeypatch, capsys):
    from ttlearn import cli
    from ttlearn.solver import NumericalDivergenceError

    def explode(*args, **kwargs):
        raise NumericalDivergenceError("blew up", None)

    monkeypatch.setattr(cli.tasks, "run_completion", explode)
    assert run_cli([
        "complete", "--synthetic", "--dims", "4x4x2", "--rank", "1", "--seed", "0",
    ]) == 2
    assert "divergence" in capsys.readouterr().err


@pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB", ""], ids=["numpy", "bare"])
@pytest.mark.parametrize("command", [
    ["complete", "--synthetic", "--max-outer", "1", "--results"],
    ["synth", "--task", "complete", "--out-prefix"],
], ids=["complete", "synth"])
def test_an_allocation_failure_exits_one_with_one_error_line(
    command, message, tmp_path, monkeypatch, capsys
):
    # stands in for an instance too large to allocate, which is not allocated here
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(tasks, "build_transform", exhausted)
    assert run_cli([*command, str(tmp_path / "x"), "--dims", "99999x99999x99999"]) == 1
    assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"
    assert list(tmp_path.iterdir()) == []


def test_config_file_supplies_paths_and_params(tmp_path):
    rng = np.random.default_rng(8)
    truth = rng.standard_normal((6, 6, 2))
    mask = rng.random((6, 6, 2)) < 0.7
    mask.flat[0] = True
    observed = np.where(mask, truth, 0.0)
    obs_path, mask_path = tmp_path / "obs.tns", tmp_path / "mask.tns"
    write_tensor(obs_path, observed)
    write_tensor(mask_path, mask.astype(float))
    results_path = tmp_path / "res.json"
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "lambda": 2.0, "beta": 1.0, "rho": 4.0, "tol_inner": 1e-3, "max_outer": 30,
        "paths": {
            "observed": str(obs_path), "mask": str(mask_path), "results": str(results_path),
        },
    }))
    assert run_cli(["complete", "--config", str(config_path)]) == 0
    results = load_json(results_path)
    assert results["config"]["lambda"] == 2.0
    assert results["config"]["rho"] == 4.0


def test_config_file_rejects_unknown_path_key(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"paths": {"sideways": "x.tns"}}))
    assert run_cli(["complete", "--config", str(config_path), "--synthetic"]) == 1
    assert "paths.sideways" in capsys.readouterr().err


def run_cli_process(args, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(ttlearn.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "ttlearn.cli", *args],
        capture_output=True, text=True, env=env, **kwargs,
    )


def test_mistyped_config_value_exits_one_without_traceback(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"paths": ["observed"]}))
    proc = run_cli_process(["complete", "--config", str(config_path), "--synthetic"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "config field 'paths'" in proc.stderr


def test_oversized_tns_header_exits_one_without_traceback(tmp_path):
    path = tmp_path / "big.tns"
    path.write_bytes(b"TNS1" + struct.pack("<III", 100_000, 100_000, 1))
    proc = run_cli_process(["metrics", str(path), str(path)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "truncated payload" in proc.stderr


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_oversized_tns_header_from_a_pipe_exits_one_without_traceback(tmp_path):
    # like `ttlearn metrics <(cat big.tns) big.tns`: a pipe reports no size
    path = tmp_path / "big.tns"
    path.write_bytes(b"TNS1" + struct.pack("<III", 100_000, 100_000, 1))
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, path.read_bytes())
        os.close(write_fd)
        proc = run_cli_process(["metrics", f"/dev/fd/{read_fd}", str(path)], pass_fds=(read_fd,))
    finally:
        os.close(read_fd)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "truncated payload (byte offset 16)" in proc.stderr


@pytest.mark.parametrize(
    "grid,named",
    [
        (["--lambda-grid", "0,1"], "config field 'lambda': must be positive"),
        (["--lambda-grid", "a"], "argument --lambda-grid"),
        (["--lambda-grid", "1,,2"], "argument --lambda-grid"),
        (["--beta-grid", "1,-1"], "config field 'beta': must be nonnegative"),
        (["--beta-grid", "1,x"], "argument --beta-grid"),
    ],
)
def test_bad_grid_value_names_the_field(grid, named):
    proc = run_cli_process(["complete", "--synthetic", "--dims", "6x6x2", "--max-outer", "2", *grid])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert named in proc.stderr


@pytest.mark.parametrize(
    "flag,value,named",
    [
        ("--beta", "nan", "beta"),
        ("--beta", "inf", "beta"),
        ("--lambda", "inf", "lambda"),
        ("--rho", "inf", "rho"),
    ],
)
def test_non_finite_parameter_exits_one_before_solving(flag, value, named, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("solve started")

    monkeypatch.setattr(solver, "pmm_solve", never)
    args = ["complete", "--synthetic", "--dims", "6x6x2", "--max-outer", "5", flag, value]
    assert run_cli(args) == 1
    assert f"config field '{named}': must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [("--eta", "5"), ("--tau", "1"), ("--xi", "0.7"), ("--tol-outer", "1e-3"),
     ("--pilot-max-outer", "10"), ("--max-inner", "2")],
)
def test_removed_solver_flag_exits_one_naming_it(flag, value):
    # the inner ADMM's weight, dual step and iteration cap, the subproblems'
    # inexactness xi and the outer stop tolerance are fixed by the solver, and the
    # pilot solve runs under the main solve's settings: none of them is an option
    proc = run_cli_process(["complete", "--synthetic", "--dims", "6x6x2", flag, value])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"unrecognized arguments: {flag} {value}" in proc.stderr


@pytest.mark.parametrize(
    "args,named",
    [
        (["--lambda", "1e155"], "config field 'lambda': must be below 1.341e+154 for mcp"),
        (["--penalty", "scad", "--gamma", "3.7", "--lambda", "1e155"],
         "config field 'lambda': must be below 1.341e+154 for scad"),
        (["--lambda-grid", "1,1e155"], "config field 'lambda': must be below 1.341e+154 for mcp"),
        (["--penalty", "log", "--gamma", "1e155"],
         "config field 'gamma': must keep gamma**2 and lam/gamma**2 finite for log"),
        (["--penalty", "log", "--gamma", "1e-300", "--lambda", "1e10"],
         "config field 'gamma': must keep gamma**2 and lam/gamma**2 finite for log"),
        (["--gamma", "1e-320"], "config field 'gamma': must keep 1/gamma finite for mcp"),
        (["--lambda", "1e154", "--beta", "1e200"],
         "config field 'beta': must keep beta*lambda*k0 finite"),
        (["--penalty", "convex", "--lambda", "1e300", "--beta", "1e10"],
         "config field 'beta': must keep beta*lambda*k0 finite"),
        (["--lambda-grid", "1,1e150", "--beta", "1e200"],
         "config field 'beta': must keep beta*lambda*k0 finite"),
    ],
)
def test_overflowing_penalty_parameter_exits_one_without_traceback(args, named, tmp_path):
    # the penalty's closed forms or the solver's weight beta*lam*k0 would overflow a
    # float: rejected before any solve
    out = tmp_path / "out.json"
    proc = run_cli_process(
        ["complete", "--synthetic", "--dims", "6x6x2", "--max-outer", "3", *args,
         "--results", str(out)]
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert named in proc.stderr
    assert not out.exists()


def test_mcp_gamma_near_its_limit_solves_without_overflow_warnings():
    # 1/gamma is finite, but x/gamma overflows for singular values above
    # about 1.8, in the branch of np.where that s2 and s2' discard there
    proc = run_cli_process(["complete", "--synthetic", "--dims", "6x6x2", "--max-outer", "3",
                            "--gamma", "1e-308"])
    assert proc.returncode == 0
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("extra", [[], ["--beta", "1e10"]], ids=["default-beta", "beta-1e10"])
def test_overflowing_exact_move_exits_two_instead_of_hanging(extra, tmp_path):
    # rho * x overflows in the exact move's center v; an SVD of its infinite
    # entries can loop inside LAPACK, so the timeout turns a hang into a failure
    out = tmp_path / "out.json"
    proc = run_cli_process(
        ["complete", "--synthetic", "--dims", "6x6x2", "--max-outer", "1", "--rho", "1e308",
         *extra, "--results", str(out)],
        timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "numerical divergence: iterate contains non-finite entries" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("rho", ["1e200", "1e300", "1e307"])
def test_overflowing_multiplier_exits_two_without_warnings(rho, tmp_path):
    # v is finite, but the exact move's multiplier rho (v - y*) carries rho
    # times v's rounding, whose square overflows the residuals' norm_z: the
    # run used to exit 0 as converged after an overflow warning
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ttlearn.cli", "complete",
         "--synthetic", "--dims", "6x6x2", "--max-outer", "3", "--rho", rho,
         "--results", str(out)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(ttlearn.__file__).parents[1])),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert "numerical divergence: the subproblem's multiplier overflows" in proc.stderr
    assert not out.exists()


def test_overflowing_exact_move_exits_two_without_warnings(tmp_path):
    # rho * x overflows in the exact move's center v, which the solve reports
    # as divergence; the overflow's warning used to end in a traceback here
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ttlearn.cli", "complete",
         "--synthetic", "--dims", "6x6x2", "--max-outer", "1", "--rho", "1e308",
         "--results", str(out)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(ttlearn.__file__).parents[1])),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert "numerical divergence: iterate contains non-finite entries" in proc.stderr
    assert not out.exists()


def test_overflowing_damped_admm_exits_two(tmp_path):
    # observations near the float range: below the descent threshold the
    # damped ADMM's multiplier overflows and the m-update's SVD fails with
    # LinAlgError, a ValueError the run used to report as an input error (exit 1)
    rng = np.random.default_rng(0)
    y = rng.standard_normal((6, 6, 2)) * 1e307
    mask = rng.random((6, 6, 2)) < 0.6
    write_tensor(tmp_path / "obs.tns", np.where(mask, y, 0.0))
    write_tensor(tmp_path / "mask.tns", mask.astype(float))
    out = tmp_path / "out.json"
    proc = run_cli_process(
        ["complete", "--observed", str(tmp_path / "obs.tns"), "--mask", str(tmp_path / "mask.tns"),
         "--rho", "1", "--max-outer", "3", "--results", str(out)],
        timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "overflow encountered" not in proc.stderr
    # only the "descent is not guaranteed" warning comes first; the run ends on the divergence
    assert proc.stderr.splitlines()[-1].startswith("numerical divergence")
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["1e160", "1e200", "1e307"])
def test_overflowing_data_above_the_threshold_exits_two_without_warnings(sigma, tmp_path):
    # noise near the float range overflows fro_norm inside the step at rho; the
    # solve silences overflow once and its checks report it, where the warning
    # used to end in a traceback under -W error
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ttlearn.cli", "complete",
         "--synthetic", "--dims", "6x6x2", "--sigma", sigma, "--rho", "5", "--max-outer", "3",
         "--results", str(out)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(ttlearn.__file__).parents[1])),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stderr.startswith("numerical divergence")
    assert not out.exists()


# runs the CLI with two usable CPUs and fails unless an SVD was split across them
SPLIT_CLI = (
    "import sys; from ttlearn import penalties; penalties._usable_cpus = lambda: 2; "
    "from ttlearn.cli import main; code = main(sys.argv[1:]); "
    "assert penalties._pool is not None; sys.exit(code)"
)


@pytest.mark.parametrize("extra", [["--rho", "1e300"], ["--sigma", "1e307", "--rho", "5"]],
                         ids=["multiplier", "data"])
def test_overflowing_split_solve_exits_two_without_warnings(extra, tmp_path):
    # x0's 32x32 slices are factorized on two threads before the solve
    # diverges; the pool's threads run only the SVD, outside pmm_solve's errstate
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", SPLIT_CLI, "complete",
         "--synthetic", "--dims", "32x32x5", "--max-outer", "3", *extra, "--results", str(out)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(ttlearn.__file__).parents[1])),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stderr.startswith("numerical divergence")
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["1e100", "1e160"])
def test_overflowing_data_on_the_damped_path_reports_its_metrics_without_warnings(
    sigma, tmp_path
):
    # the damped solve ends, and the reported final norm, PSNR and SSIM
    # overflow to inf or nan; they used to warn on their way there
    out = tmp_path / "out.json"
    proc = run_cli_process(
        ["complete", "--synthetic", "--dims", "6x6x2", "--sigma", sigma, "--rho", "1",
         "--max-outer", "3", "--results", str(out)],
        timeout=60,
    )
    assert proc.returncode == 0
    for message in ("overflow encountered", "divide by zero", "invalid value"):
        assert message not in proc.stderr
    # only the "descent is not guaranteed" warning is left
    assert proc.stderr.count("Warning") == 1
    assert set(json.loads(out.read_text())["metrics"]) == {"psnr", "ssim", "relative_error"}


def test_subnormal_rho_exits_one_before_solving(tmp_path, monkeypatch, capsys):
    # 1/rho overflows in the KKT residuals; the run used to exit 0 with a garbage fit
    def never(*args, **kwargs):
        raise AssertionError("solver must not run")

    monkeypatch.setattr(solver, "pmm_solve", never)
    out = tmp_path / "out.json"
    args = ["complete", "--synthetic", "--dims", "6x6x2", "--max-outer", "3", "--rho", "1e-320",
            "--results", str(out)]
    assert run_cli(args) == 1
    assert "error: config field 'rho': must keep 1/rho finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["complete", "--synthetic", "--dims", "6x6x2", "--penalty", "convex", "--gamma", "nan",
          "--results", "out.json", "--output", "rec.tns"], "config field 'gamma': must be finite"),
        (["complete", "--synthetic", "--dims", "6x6x2", "--penalty", "convex", "--gamma", "inf",
          "--results", "out.json"], "config field 'gamma': must be finite"),
        (["synth", "--task", "complete", "--dims", "6x6x2", "--sigma", "nan",
          "--out-prefix", "inst"],
         "config field 'sigma': must be finite and nonnegative"),
        # tsvd counts ranks at tensor_ops.RANK_TOL: --tol is not an option
        (["tsvd", "--input", "x.tns", "--tol", "1e-6", "--results", "out.json"],
         "ttlearn: unrecognized arguments: --tol 1e-6"),
    ],
    ids=["gamma-nan", "gamma-inf", "synth-sigma-nan", "tsvd-tol"],
)
def test_non_finite_input_exits_one_before_writing(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_tensor("x.tns", np.ones((3, 3, 2)))
    assert run_cli(argv) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["x.tns"]


def written(path, tensor) -> str:
    write_tensor(path, tensor)
    return str(path)


def complete_with_truth(tmp_path, truth):
    observed = np.random.default_rng(0).standard_normal((4, 4, 2))
    return [
        "complete", "--observed", written(tmp_path / "obs.tns", observed),
        "--mask", written(tmp_path / "mask.tns", np.ones((4, 4, 2))),
        "--truth", written(tmp_path / "truth.tns", truth),
    ]


def classify_with_test_shape(tmp_path, test_shape):
    rng = np.random.default_rng(0)
    (tmp_path / "labels.txt").write_text("0\n1\n0\n1\n")
    files = []
    for name, (n1, n2, n3) in (("train", (4, 4, 2)), ("test", test_shape)):
        stack = written(tmp_path / f"{name}.tns", rng.standard_normal((n1, n2, 4 * n3)))
        files += [f"--{name}-samples", stack, f"--{name}-labels", str(tmp_path / "labels.txt")]
    return ["classify", *files, "--rho", "1"]


def constant_slice_truth():
    truth = np.random.default_rng(1).standard_normal((4, 4, 2))
    truth[:, :, 1] = 3.0
    return truth


@pytest.mark.parametrize(
    "argv,message",
    [
        (lambda tmp: ["complete", "--synthetic", "--dims", "6x6x2", "--rank", "0", "--rho", "1"],
         "truth tensor is constant; PSNR undefined"),
        (lambda tmp: complete_with_truth(tmp, np.ones((4, 4, 3))),
         "shape mismatch: (4, 4, 2) vs (4, 4, 3)"),
        (lambda tmp: complete_with_truth(tmp, constant_slice_truth()),
         "truth slice 1 is constant; SSIM undefined"),
        (lambda tmp: classify_with_test_shape(tmp, (8, 2, 2)),
         "shape mismatch: (4, 4, 2) vs (8, 2, 2)"),
    ],
    ids=["constant-truth", "truth-shape", "constant-truth-slice", "test-sample-shape"],
)
def test_rejected_metric_inputs_exit_one_before_solving(argv, message, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("solve started")

    monkeypatch.setattr(solver, "pmm_solve", never)
    assert run_cli([*argv(tmp_path), "--max-outer", "5"]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_runtime_imports_no_scipy():
    code = (
        "import sys, ttlearn, ttlearn.cli, ttlearn.tasks; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ttlearn.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_zero_test_count_means_no_test_split(tmp_path, recwarn):
    prefix = str(tmp_path / "cls")
    manifest_path = tmp_path / "manifest.json"
    assert run_cli([
        "synth", "--task", "classify", "--dims", "3x3x2", "--rank", "1",
        "--n-train", "30", "--n-test", "0", "--out-prefix", prefix,
        "--results", str(manifest_path),
    ]) == 0
    assert set(load_json(manifest_path)["files"]) == {"coeff", "train_samples", "train_labels"}
    assert sorted(p.name for p in tmp_path.glob("cls_*")) == [
        "cls_coeff.tns", "cls_train_labels.txt", "cls_train_samples.tns",
    ]

    out = tmp_path / "res.json"
    assert run_cli([
        "classify", "--synthetic", "--dims", "3x3x2", "--rank", "1", "--n-train", "30",
        "--n-test", "0", "--lambda", "0.2", "--beta", "0.5", "--rho", "0.2",
        "--tol-inner", "1e-3", "--max-outer", "2", "--results", str(out),
    ]) == 0
    text = out.read_text()
    assert "NaN" not in text
    assert "metrics" not in json.loads(text)


SOLVE_KEYS = ["transform", "final_objective", "final_norm", "multi_rank", "trace"]
CONFIG_KEYS = [
    "task", "penalty", "gamma", "transform", "beta", "rho", "box_c", "max_outer",
    "tol_inner", "sr", "sigma", "seed", "n_train", "n_test", "rank", "dims", "paths",
    "lambda",
]
TRACE_KEYS = [
    "initial_objective", "outer_iterations", "converged", "descent_checked",
    "descent_margin", "entries",
]
ENTRY_KEYS = [
    "objective", "step_norm", "rel_step", "inner_iterations", "kkt_residual", "feasible",
    "rho", "trials", "exhausted",
]


@pytest.mark.parametrize(
    "args,top_keys",
    [
        (
            ["complete", "--synthetic", "--dims", "6x6x2", "--rank", "1", "--seed", "0",
             "--max-outer", "3"],
            ["task", "config", "box_c", *SOLVE_KEYS, "metrics", "timing"],
        ),
        (
            ["classify", "--synthetic", "--dims", "3x3x2", "--rank", "1", "--n-train", "40",
             "--n-test", "10", "--seed", "0", "--transform", "data", "--lambda", "0.2",
             "--beta", "0.5", "--rho", "0.2", "--tol-inner", "1e-3", "--max-outer", "3"],
            ["task", "config", "box_c", "pilot", *SOLVE_KEYS, "metrics", "timing"],
        ),
    ],
)
def test_result_json_key_order(args, top_keys, tmp_path, recwarn):
    out = tmp_path / "res.json"
    assert run_cli(args + ["--results", str(out)]) == 0
    result = load_json(out)  # json keeps the file's key order
    assert list(result) == top_keys
    assert list(result["config"]) == CONFIG_KEYS
    solves = [result]
    if "pilot" in result:
        assert list(result["pilot"]) == SOLVE_KEYS
        solves.append(result["pilot"])
    for solve in solves:
        assert list(solve["trace"]) == TRACE_KEYS
        assert solve["trace"]["entries"]
        assert all(list(entry) == ENTRY_KEYS for entry in solve["trace"]["entries"])
