"""Command-line entry points: complete, classify, synth, tsvd, metrics.

Results are emitted as JSON (stdout or ``--results``); tensors travel as TNS1
files. A stack of n equally-shaped samples is exchanged as one TNS1 file with
the samples concatenated along the third dimension, so the per-sample slice
count is the file's n3 divided by the number of label lines. Diagnostics go
to standard error. Exit codes: 0 success, 1 usage or input error, 2 numerical
divergence.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields, replace

import numpy as np

from . import tasks, tensor_ops as top
from .config import TASKS, TRANSFORMS, ExperimentConfig, config_from_dict, load_config
from .penalties import KINDS as PENALTY_KINDS
from .solver import SolverError
from .tensor_io import read_tensor, write_tensor
from .transforms import data_driven_transform


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(f"{self.prog}: {message}")


def _add_solver_flags(p: _Parser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--penalty", choices=PENALTY_KINDS)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--box-c", dest="box_c", type=float)
    p.add_argument("--transform", choices=TRANSFORMS)
    p.add_argument("--max-outer", dest="max_outer", type=int)
    p.add_argument("--tol-inner", dest="tol_inner", type=float)
    p.add_argument("--seed", type=int)


def _add_synth_flags(p: _Parser, task: str) -> None:
    p.add_argument("--dims", help="tensor dimensions, e.g. 30x30x10")
    p.add_argument("--rank", type=int)
    if task in ("complete", "synth"):
        p.add_argument("--sr", type=float)
        p.add_argument("--sigma", type=float)
    if task in ("classify", "synth"):
        p.add_argument("--n-train", dest="n_train", type=int)
        p.add_argument("--n-test", dest="n_test", type=int)


def _number_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="ttlearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", parents=[], help="recover a tensor from partial noisy observations")
    _add_solver_flags(p)
    _add_synth_flags(p, "complete")
    p.add_argument("--synthetic", action="store_true", help="generate the instance instead of reading files")
    p.add_argument("--observed", help="TNS1 file with observed values (zeros off-mask)")
    p.add_argument("--mask", help="TNS1 file with 0/1 mask")
    p.add_argument("--truth", help="TNS1 ground truth for metrics (optional)")
    p.add_argument("--output", help="TNS1 path for the recovered tensor")
    p.add_argument("--results", help="path for the results JSON (default: stdout)")
    p.add_argument("--lambda-grid", dest="lam_grid", type=_number_list, help="comma-separated lambda sweep")
    p.add_argument("--beta-grid", dest="beta_grid", type=_number_list, help="comma-separated beta sweep")

    p = sub.add_parser("classify", help="fit a low-rank logistic-regression coefficient tensor")
    _add_solver_flags(p)
    _add_synth_flags(p, "classify")
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--train-samples", dest="train_samples", help="TNS1 sample stack")
    p.add_argument("--train-labels", dest="train_labels", help="one 0/1 label per line")
    p.add_argument("--test-samples", dest="test_samples")
    p.add_argument("--test-labels", dest="test_labels")
    p.add_argument("--output", help="TNS1 path for the coefficient tensor")
    p.add_argument("--results", help="path for the results JSON (default: stdout)")

    p = sub.add_parser("synth", help="emit synthetic problem files")
    p.add_argument("--task", choices=TASKS, required=True)
    _add_synth_flags(p, "synth")
    p.add_argument("--transform", choices=tasks.FIXED_TRANSFORMS,
                   help="transform defining the generator's low multi-rank")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-prefix", dest="out_prefix", required=True)
    p.add_argument("--results", help="path for the manifest JSON (default: stdout)")

    p = sub.add_parser("tsvd", help="per-slice singular values and multi-rank of a tensor file")
    p.add_argument("--input", required=True)
    p.add_argument("--transform", choices=tasks.FIXED_TRANSFORMS, default="dct")
    p.add_argument("--pilot", help="derive a data-driven transform from this TNS1 file instead")
    p.add_argument("--results", help="path for the JSON output (default: stdout)")

    p = sub.add_parser("metrics", help="PSNR/SSIM between two tensor files")
    p.add_argument("recovered")
    p.add_argument("truth")
    p.add_argument("--results", help="path for the JSON output (default: stdout)")

    return parser


def _parse_dims(text: str) -> tuple[int, ...]:
    """``30x30x10`` -> ``(30, 30, 10)``; the config's ``dims`` rule checks the values."""
    try:
        return tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise UsageError(f"bad --dims value {text!r}; expected like 30x30x10") from None


def _build_config(args, task: str) -> ExperimentConfig:
    # a flag's dest is the name of the config field it sets
    overrides = {"task": task}
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = _parse_dims(value) if f.name == "dims" else value
    if getattr(args, "config", None):
        cfg = load_config(args.config, **overrides)
    else:
        cfg = config_from_dict({}, **overrides)
    # file locations from the config's paths block back any flag left unset
    for key, value in cfg.paths.items():
        if getattr(args, key, None) in (None, False):
            setattr(args, key, value)
    return cfg


def _driver_kwargs(cfg: ExperimentConfig) -> dict:
    """Keyword arguments shared by ``tasks.run_completion`` and ``tasks.run_classification``."""
    return dict(
        transform_kind=cfg.transform,
        rho=cfg.rho,
        box_c=cfg.box_c,
        admm_cfg=cfg.build_admm(),
        max_outer=cfg.max_outer,
    )


def _emit(result: dict, path: str | None) -> None:
    text = json.dumps(result, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _synthetic_instance(cfg: ExperimentConfig):
    """``cfg``'s seeded instance: ``(truth, observed, mask)`` or a ClassificationProblem."""
    # the data-driven transform cannot define a generator; fall back to DCT
    kind = cfg.transform if cfg.transform in tasks.FIXED_TRANSFORMS else "dct"
    transform = tasks.build_transform(kind, cfg.dims[2])
    if cfg.task == "complete":
        return tasks.synth_completion(cfg.dims, cfg.rank, cfg.sr, cfg.sigma, transform, cfg.seed)
    return tasks.synth_logistic(cfg.dims, cfg.rank, cfg.n_train, cfg.n_test, transform, cfg.seed)


def _solved(cfg: ExperimentConfig, info: dict, output: str | None = None, tensor=None) -> dict:
    """Result JSON of a solve: ``cfg``'s echo, ``output`` once ``tensor`` is written, ``info``."""
    result = {"task": cfg.task, "config": cfg.echo()}
    if output:
        write_tensor(output, tensor)
        result["output"] = output
    result.update(info)
    return result


def _read_sample_stack(samples_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    stacked = read_tensor(samples_path)
    with open(labels_path) as fh:
        labels = [int(line) for line in fh if line.strip()]
    n = len(labels)
    if n == 0:
        raise UsageError(f"no labels in {labels_path}")
    if stacked.shape[2] % n:
        raise UsageError(
            f"stack n3={stacked.shape[2]} in {samples_path} is not divisible by {n} labels"
        )
    # a view that undoes _write_sample_stack, which concatenates the samples' frontal slices
    samples = np.moveaxis(stacked.reshape(*stacked.shape[:2], -1, n, order="F"), 3, 0)
    return samples, np.asarray(labels)


def _write_sample_stack(samples_path: str, labels_path: str, samples, labels) -> None:
    write_tensor(samples_path, np.concatenate(list(samples), axis=2))
    with open(labels_path, "w") as fh:
        fh.writelines(f"{int(label)}\n" for label in labels)


def _run_complete(args) -> dict:
    cfg = _build_config(args, "complete")
    truth = None
    if args.synthetic:
        truth, y_obs, mask = _synthetic_instance(cfg)
    else:
        if not args.observed or not args.mask:
            raise UsageError("complete needs --observed and --mask, or --synthetic")
        y_obs = read_tensor(args.observed)
        mask = read_tensor(args.mask) != 0
        if args.truth:
            truth = read_tensor(args.truth)

    common = dict(_driver_kwargs(cfg), ground_truth=truth)
    pen = cfg.build_penalty()

    if args.lam_grid or args.beta_grid:
        grid = [
            (lam, beta)
            for lam in args.lam_grid or [float(cfg.lam)]
            for beta in args.beta_grid or [float(cfg.beta)]
        ]
        # each grid point is checked as the config field it replaces, before any solve
        for lam, beta in grid:
            replace(cfg, lam=lam, beta=beta)
        sweep = []
        for lam, beta in grid:
            _, info = tasks.run_completion(y_obs, mask, replace(pen, lam=lam), beta, **common)
            entry = {"lambda": lam, "beta": beta, "final_objective": info["final_objective"]}
            if "metrics" in info:
                entry["metrics"] = info["metrics"]
            sweep.append(entry)
        if args.output:
            print("note: --output is ignored in grid mode", file=sys.stderr)
        return _solved(cfg, {"grid": sweep})

    recovered, info = tasks.run_completion(y_obs, mask, pen, cfg.beta, **common)
    return _solved(cfg, info, args.output, recovered)


def _run_classify(args) -> dict:
    cfg = _build_config(args, "classify")
    if args.synthetic:
        problem = _synthetic_instance(cfg)
        train_samples, train_labels = problem.train_samples, problem.train_labels
        test_samples, test_labels = problem.test_samples, problem.test_labels
    else:
        if not args.train_samples or not args.train_labels:
            raise UsageError("classify needs --train-samples and --train-labels, or --synthetic")
        if bool(args.test_samples) != bool(args.test_labels):
            raise UsageError("classify needs both --test-samples and --test-labels, or neither")
        train_samples, train_labels = _read_sample_stack(args.train_samples, args.train_labels)
        test_samples = test_labels = None
        if args.test_samples:
            test_samples, test_labels = _read_sample_stack(args.test_samples, args.test_labels)

    coeff, info = tasks.run_classification(
        train_samples, train_labels, cfg.build_penalty(), cfg.beta,
        test_samples=test_samples, test_labels=test_labels, **_driver_kwargs(cfg),
    )
    return _solved(cfg, info, args.output, coeff)


def _run_synth(args) -> dict:
    cfg = _build_config(args, args.task)
    prefix = args.out_prefix
    manifest = {"task": args.task, "seed": cfg.seed, "dims": list(cfg.dims), "rank": cfg.rank}

    if args.task == "complete":
        truth, y_obs, mask = _synthetic_instance(cfg)
        files = {
            "truth": f"{prefix}_truth.tns",
            "observed": f"{prefix}_observed.tns",
            "mask": f"{prefix}_mask.tns",
        }
        write_tensor(files["truth"], truth)
        write_tensor(files["observed"], y_obs)
        write_tensor(files["mask"], mask.astype(float))
        manifest.update({"sr": cfg.sr, "sigma": cfg.sigma, "files": files})
    else:
        problem = _synthetic_instance(cfg)
        files = {
            "coeff": f"{prefix}_coeff.tns",
            "train_samples": f"{prefix}_train_samples.tns",
            "train_labels": f"{prefix}_train_labels.txt",
        }
        write_tensor(files["coeff"], problem.coeff_truth)
        _write_sample_stack(
            files["train_samples"], files["train_labels"],
            problem.train_samples, problem.train_labels,
        )
        # n_test = 0 means no test split: no test files are written or listed
        if cfg.n_test:
            files["test_samples"] = f"{prefix}_test_samples.tns"
            files["test_labels"] = f"{prefix}_test_labels.txt"
            _write_sample_stack(
                files["test_samples"], files["test_labels"],
                problem.test_samples, problem.test_labels,
            )
        manifest.update({"n_train": cfg.n_train, "n_test": cfg.n_test, "files": files})
    return manifest


def _run_tsvd(args) -> dict:
    x = read_tensor(args.input)
    if args.pilot:
        transform = data_driven_transform(read_tensor(args.pilot))
    else:
        transform = tasks.build_transform(args.transform, x.shape[2])
    sigma = top.transformed_singular_values(x, transform)
    return {
        "input": args.input,
        "transform": transform.kind,
        "tol": top.RANK_TOL,
        "singular_values": sigma.tolist(),
        "multi_rank": top.rank_counts(sigma).tolist(),
    }


def _run_metrics(args) -> dict:
    recovered = read_tensor(args.recovered)
    truth = read_tensor(args.truth)
    return {
        "recovered": args.recovered,
        "truth": args.truth,
        "psnr": tasks.psnr(recovered, truth),
        "ssim": tasks.ssim(recovered, truth),
    }


_COMMANDS = {
    "complete": _run_complete,
    "classify": _run_classify,
    "synth": _run_synth,
    "tsvd": _run_tsvd,
    "metrics": _run_metrics,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.perf_counter()
        result = _COMMANDS[args.command](args)
        result["timing"] = {"wall_time_s": time.perf_counter() - started}
        _emit(result, getattr(args, "results", None))
    except SolverError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
