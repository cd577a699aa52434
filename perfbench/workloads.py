"""The benchmark's workloads: fixed instances, the timed solve call, the output check.

Each workload's instances come from ``ttlearn synth`` with the seeds in
``INSTANCE_SEEDS``; the solver only ever sees those generated files. The
seed list is the same in every run, so everything a solve returns except
its timing repeats exactly, and the digest check below can catch
nondeterminism.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

INSTANCE_SEEDS = (0,)
# completion: an unobserved entry counts as recovered within this share of RMS(truth)
HELDOUT_TOL = 0.1


@dataclass
class Outcome:
    """What the check made of one solve; ``error`` is set when the solve failed."""

    solve_id: str
    seconds: float
    error: str | None = None
    rel_error: float = math.nan
    test_accuracy: float = math.nan
    converged: list[bool] = field(default_factory=list)
    digest: str = ""


def _digest(result: dict, tensor_path: str) -> str:
    h = hashlib.sha256(json.dumps(result, sort_keys=True).encode())
    with open(tensor_path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


@dataclass(frozen=True)
class CompletionSolve:
    """One ``tasks.run_completion`` call; the check bounds its relative error.

    The timed call reads the instance files, solves and writes the
    recovered tensor to ``<stem>.tns``.
    """

    label: str
    penalty: str
    lam: float
    beta: float
    max_rel_error: float
    gamma: float = 0.0

    def call(self, ttl, wl: "Workload", prefix: str, stem: str) -> dict:
        read = ttl.tensor_io.read_tensor
        truth = read(f"{prefix}_truth.tns")
        y_obs = read(f"{prefix}_observed.tns")
        mask = read(f"{prefix}_mask.tns") != 0
        pen = ttl.Penalty(self.penalty, lam=self.lam, gamma=self.gamma)
        recovered, info = ttl.tasks.run_completion(
            y_obs, mask, pen, self.beta, transform_kind="dct", rho=wl.rho,
            admm_cfg=ttl.ADMMConfig(tol_inner=wl.tol_inner), ground_truth=truth,
        )
        ttl.tensor_io.write_tensor(f"{stem}.tns", recovered)
        return info

    def check(self, ttl, prefix: str, stem: str, info: dict, outcome: Outcome) -> None:
        read = ttl.tensor_io.read_tensor
        truth = read(f"{prefix}_truth.tns")
        heldout = read(f"{prefix}_mask.tns") == 0
        recovered = read(f"{stem}.tns")
        outcome.rel_error = info["metrics"]["relative_error"]
        tol = HELDOUT_TOL * np.sqrt(np.mean(truth**2))
        outcome.test_accuracy = float(np.mean(np.abs(recovered - truth)[heldout] <= tol))
        outcome.converged = [info["trace"]["converged"]]
        outcome.digest = _digest(info, f"{stem}.tns")
        if not outcome.rel_error <= self.max_rel_error:
            outcome.error = f"relative error {outcome.rel_error:.4g} above {self.max_rel_error}"


@dataclass(frozen=True)
class ClassifySolve:
    """One in-process ``ttlearn.cli.main(["classify", ...])`` call with a test-accuracy floor.

    The call writes the coefficient tensor to ``<stem>.tns`` and the result
    JSON to ``<stem>.json``.
    """

    label: str
    flags: tuple[str, ...]
    min_accuracy: float

    def call(self, ttl, wl: "Workload", prefix: str, stem: str) -> int:
        return ttl.cli.main([
            "classify",
            "--train-samples", f"{prefix}_train_samples.tns",
            "--train-labels", f"{prefix}_train_labels.txt",
            "--test-samples", f"{prefix}_test_samples.tns",
            "--test-labels", f"{prefix}_test_labels.txt",
            *self.flags,
            "--output", f"{stem}.tns",
            "--results", f"{stem}.json",
        ])

    def check(self, ttl, prefix: str, stem: str, code: int, outcome: Outcome) -> None:
        if code != 0:
            outcome.error = f"ttlearn classify exited with {code}"
            return
        with open(f"{stem}.json") as fh:
            result = json.load(fh)
        result.pop("timing")
        outcome.test_accuracy = result["metrics"]["test_accuracy"]
        read = ttl.tensor_io.read_tensor
        coeff, truth = read(f"{stem}.tns"), read(f"{prefix}_coeff.tns")
        outcome.rel_error = float(np.linalg.norm(coeff - truth) / np.linalg.norm(truth))
        outcome.converged = [result["pilot"]["trace"]["converged"], result["trace"]["converged"]]
        outcome.digest = _digest(result, f"{stem}.tns")
        if not outcome.test_accuracy >= self.min_accuracy:
            outcome.error = f"test accuracy {outcome.test_accuracy:.4g} below {self.min_accuracy}"


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # the ``ttlearn synth --task`` value
    synth: tuple[str, ...]  # synth flags other than --task, --seed and --out-prefix
    solves: tuple
    dims: tuple[int, int, int]
    # host-speed calibration: one sample factorizes a random batch of the
    # workload's slices ``calib_reps`` times, about run.CALIB_REF_S seconds
    # on the baseline machine
    calib_reps: int
    rho: float = 0.0  # completion only; classify passes its own flags
    tol_inner: float = 0.0

    def synth_argv(self, seed: int, prefix: str) -> list[str]:
        return ["synth", "--task", self.task, *self.synth, "--seed", str(seed),
                "--out-prefix", prefix, "--results", f"{prefix}_manifest.json"]


# The criterion-8 operating point: tol_inner 3e-4 is the acceptance suite's
# stated setting. At the CLI default 3e-3 some larger solves stop with a
# descent violation; that gap belongs to the solver and is not avoided here
# by re-picking seeds or parameters.
WORKLOADS = {
    wl.name: wl
    for wl in (
        # Small slices (10 of 30x30), ~8 inner steps per outer step: per-call
        # overhead and the eta_d SVD of kkt_residuals dominate. The convex
        # solve covers the branch of dc_smooth_grad that makes no SVD.
        Workload(
            name="complete-small",
            task="complete",
            synth=("--dims", "30x30x10", "--rank", "2", "--sr", "0.4", "--sigma", "0.01",
                   "--transform", "dct"),
            solves=(
                CompletionSolve("mcp", "mcp", lam=4.0, gamma=2.7, beta=1.0, max_rel_error=0.05),
                CompletionSolve("convex", "convex", lam=2.0, beta=2.0, max_rel_error=0.3),
            ),
            rho=6.0,
            tol_inner=3e-4,
            dims=(30, 30, 10),
            calib_reps=100,
        ),
        # Large slices (10 of 100x100, rank 5): the batched SVD is ~86 % of
        # the time, so a truncated SVT or slice parallelism shows here.
        Workload(
            name="complete-large",
            task="complete",
            synth=("--dims", "100x100x10", "--rank", "5", "--sr", "0.6", "--sigma", "0.01",
                   "--transform", "dct"),
            solves=(
                CompletionSolve("mcp", "mcp", lam=12.0, gamma=2.7, beta=2.0, max_rel_error=0.02),
            ),
            rho=3.0,
            tol_inner=3e-4,
            dims=(100, 100, 10),
            calib_reps=6,
        ),
        # Tiny slices (3 of 10x10), ~37 inner steps per outer step: Python
        # and NumPy call overhead outweighs the SVD. The only workload that
        # runs config, cli, the data-driven transform and the logistic loss;
        # one call makes the DCT pilot solve and the main solve.
        Workload(
            name="classify-cli",
            task="classify",
            synth=("--dims", "10x10x3", "--rank", "1", "--n-train", "500", "--n-test", "200"),
            solves=(
                ClassifySolve(
                    "mcp-data",
                    ("--penalty", "mcp", "--lambda", "0.2", "--beta", "0.5", "--rho", "0.15",
                     "--tol-inner", "1e-3", "--transform", "data"),
                    min_accuracy=0.8,
                ),
            ),
            dims=(10, 10, 3),
            calib_reps=2000,
        ),
    )
}
