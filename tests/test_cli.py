import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ttlearn
from ttlearn import tasks
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


def test_labels_stack_mismatch_exits_one(tmp_path, capsys):
    stack_path = tmp_path / "s.tns"
    write_tensor(stack_path, np.zeros((2, 2, 5)))  # 5 slices not divisible by 2 labels
    labels_path = tmp_path / "l.txt"
    labels_path.write_text("0\n1\n")
    assert run_cli([
        "classify", "--train-samples", str(stack_path), "--train-labels", str(labels_path),
    ]) == 1
    assert "not divisible" in capsys.readouterr().err


def test_bad_dims_argument(capsys):
    assert run_cli(["synth", "--task", "complete", "--dims", "3xx", "--out-prefix", "/tmp/x"]) == 1


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


def test_mistyped_config_value_exits_one_without_traceback(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"paths": ["observed"]}))
    env = dict(os.environ, PYTHONPATH=str(Path(ttlearn.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ttlearn.cli", "complete", "--config", str(config_path),
         "--synthetic"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "config field 'paths'" in proc.stderr


SOLVE_KEYS = ["transform", "final_objective", "final_norm", "multi_rank", "trace"]
CONFIG_KEYS = [
    "task", "penalty", "gamma", "transform", "beta", "rho", "xi", "box_c", "eta", "tau",
    "max_outer", "tol_outer", "max_inner", "tol_inner", "sr", "sigma", "seed", "n_train",
    "n_test", "rank", "dims", "pilot_max_outer", "paths", "lambda",
]
TRACE_KEYS = [
    "initial_objective", "outer_iterations", "converged", "descent_checked",
    "descent_margin", "entries",
]
ENTRY_KEYS = ["objective", "step_norm", "rel_step", "inner_iterations", "kkt_residual", "feasible"]


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
