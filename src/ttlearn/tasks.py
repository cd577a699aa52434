"""Experiment pipelines: synthetic data, masking and noise, quality metrics,
and end-to-end drivers for noisy completion and binary classification."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solver, tensor_ops as top
from .losses import CompletionLoss, LogisticLoss, expit, margins
from .penalties import Penalty
from .transforms import (
    OrthogonalTransform,
    data_driven_transform,
    dct_transform,
    identity_transform,
)

SSIM_K1 = 0.01
SSIM_K2 = 0.03

# the drivers' defaults of rho and of the classification box radius (config echoes them)
TASK_RHO = {"complete": 10.0, "classify": 100.0}
CLASSIFY_BOX_C = 10.0
# transforms fixed by n3 alone; the "data" transform comes from a pilot solve
FIXED_TRANSFORMS = {"identity": identity_transform, "dct": dct_transform}
# the numbers reported after a solve (final_norm and the completion metrics)
# overflow for data near the float range; the result shows the inf or nan
POST_SOLVE_ERRSTATE = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


def make_mask(dims: tuple[int, int, int], sr: float, seed) -> np.ndarray:
    """Boolean mask with exactly round(sr·N) observed entries, uniform without replacement."""
    if not 0 < sr <= 1:
        raise ValueError("sampling ratio must lie in (0, 1]")
    size = int(np.prod(dims))
    n_obs = int(round(sr * size))
    if n_obs < 1:
        raise ValueError("sampling ratio keeps no entries")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(size, size=n_obs, replace=False)
    mask = np.zeros(size, dtype=bool)
    mask[chosen] = True
    return mask.reshape(dims)


def add_gaussian_noise(x: np.ndarray, sigma: float, seed) -> np.ndarray:
    if not 0 <= sigma < np.inf:
        raise ValueError("sigma must be finite and nonnegative")
    x = np.asarray(x, dtype=float)
    if sigma == 0:
        return x.copy()
    rng = np.random.default_rng(seed)
    return x + sigma * rng.standard_normal(x.shape)


def _metric_inputs(recovered, truth, metric: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Float arrays and ``truth``'s value range; raises unless ``metric`` (PSNR/SSIM) is defined.

    Shapes must agree and ``truth`` must vary, for SSIM within every frontal slice.
    """
    recovered = np.asarray(recovered, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if recovered.shape != truth.shape:
        raise ValueError(f"shape mismatch: {recovered.shape} vs {truth.shape}")
    value_range = float(truth.max() - truth.min())
    if value_range == 0:
        raise ValueError(f"truth tensor is constant; {metric} undefined")
    if metric == "SSIM":
        constant = np.flatnonzero(truth.max(axis=(0, 1)) == truth.min(axis=(0, 1)))
        if constant.size:
            raise ValueError(f"truth slice {constant[0]} is constant; SSIM undefined")
    return recovered, truth, value_range


def psnr(recovered: np.ndarray, truth: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; the peak range is taken from ``truth``."""
    recovered, truth, value_range = _metric_inputs(recovered, truth, "PSNR")
    err = float(np.sum((recovered - truth) ** 2))
    if err == 0:
        return float("inf")
    return float(10 * np.log10(truth.size * value_range**2 / err))


def ssim(recovered: np.ndarray, truth: np.ndarray) -> float:
    """Mean structural similarity over frontal slices, global per-slice statistics.

    The stabilizing constants use the conventional factors 0.01 and 0.03 of
    the value range of ``truth`` (so the measure is not symmetric in its
    arguments with respect to that range).
    """
    recovered, truth, value_range = _metric_inputs(recovered, truth, "SSIM")
    c1 = (SSIM_K1 * value_range) ** 2
    c2 = (SSIM_K2 * value_range) ** 2
    scores = []
    for k in range(truth.shape[2]):
        a = truth[:, :, k]
        b = recovered[:, :, k]
        mu_a, mu_b = a.mean(), b.mean()
        var_a = ((a - mu_a) ** 2).mean()
        var_b = ((b - mu_b) ** 2).mean()
        cov = ((a - mu_a) * (b - mu_b)).mean()
        scores.append(
            (2 * mu_a * mu_b + c1)
            * (2 * cov + c2)
            / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
        )
    return float(np.mean(scores))


def synth_low_multirank(
    dims: tuple[int, int, int], r: int, u: OrthogonalTransform, seed
) -> np.ndarray:
    """Random tensor whose every transformed slice has rank exactly ``r``."""
    n1, n2, n3 = dims
    if not 0 <= r <= min(n1, n2):
        raise ValueError(f"rank {r} out of range for dims {dims}")
    if r == 0:
        return np.zeros(dims)
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((n3, n1, r))
    right = rng.standard_normal((n3, n2, r))
    slices = left @ right.transpose(0, 2, 1)
    return top.inverse_transform(np.moveaxis(slices, 0, 2), u)


def synth_completion(
    dims: tuple[int, int, int],
    r: int,
    sr: float,
    sigma: float,
    u: OrthogonalTransform,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full synthetic completion instance: (ground truth, observed, mask).

    Child streams 0, 1 and 2 of ``seed`` draw the truth, the full-tensor noise and the mask.
    """
    truth_seed, noise_seed, mask_seed = np.random.SeedSequence(seed).spawn(3)
    truth = synth_low_multirank(dims, r, u, truth_seed)
    noisy = add_gaussian_noise(truth, sigma, noise_seed)
    mask = make_mask(truth.shape, sr, mask_seed)
    return truth, np.where(mask, noisy, 0.0), mask


@dataclass
class ClassificationProblem:
    """Synthetic binary-classification instance with train and test splits."""

    coeff_truth: np.ndarray
    train_samples: np.ndarray
    train_labels: np.ndarray
    test_samples: np.ndarray
    test_labels: np.ndarray


def _draw_samples(rng, dims, count, coeff):
    samples = rng.standard_normal((count,) + tuple(dims))
    probs = expit(margins(samples, coeff))
    labels = (rng.random(count) < probs).astype(int)
    return samples, labels


def synth_logistic(
    dims: tuple[int, int, int],
    r: int,
    n_train: int,
    n_test: int,
    u: OrthogonalTransform,
    seed,
) -> ClassificationProblem:
    """Gaussian sample tensors with Bernoulli labels from a low-multirank coefficient.

    The coefficient tensor is rescaled to Frobenius norm 5 (left at zero when
    ``r`` is 0). If the training labels are unbalanced beyond [0.3, 0.7] the
    draw is repeated once.
    """
    if n_train < 1 or n_test < 0:
        raise ValueError("need at least one training sample and nonnegative test count")
    coeff_seed, data_seed, retry_seed = np.random.SeedSequence(seed).spawn(3)
    coeff = synth_low_multirank(dims, r, u, coeff_seed)
    norm = top.fro_norm(coeff)
    if norm > 0:
        coeff = coeff * (5.0 / norm)
    rng = np.random.default_rng(data_seed)
    train_samples, train_labels = _draw_samples(rng, dims, n_train, coeff)
    if not 0.3 <= train_labels.mean() <= 0.7:
        rng = np.random.default_rng(retry_seed)
        train_samples, train_labels = _draw_samples(rng, dims, n_train, coeff)
    test_samples, test_labels = _draw_samples(rng, dims, n_test, coeff)
    return ClassificationProblem(coeff, train_samples, train_labels, test_samples, test_labels)


def predict(x_hat: np.ndarray, test_samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class-1 probabilities and hard labels (1 iff probability exceeds 0.5)."""
    probs = expit(margins(test_samples, x_hat))
    return probs, (probs > 0.5).astype(int)


def test_accuracy(pred_labels, true_labels) -> float:
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape:
        raise ValueError("label vectors differ in length")
    return float(1.0 - np.mean(np.abs(pred - true)))


def build_transform(kind: str, n3: int) -> OrthogonalTransform:
    if kind not in FIXED_TRANSFORMS:
        raise ValueError(f"unknown transform kind {kind!r}")
    return FIXED_TRANSFORMS[kind](n3)


def _solve(loss, pen, transform, pmm_cfg, admm_cfg, x0):
    x, trace = solver.pmm_solve(loss, pen, transform, pmm_cfg, admm_cfg, x0)
    with np.errstate(**POST_SOLVE_ERRSTATE):
        final_norm = top.fro_norm(x)
    return x, {
        "transform": transform.kind,
        "final_objective": trace.objectives()[-1],
        "final_norm": final_norm,
        "multi_rank": trace.multi_rank,
        "trace": trace.to_dict(),
    }


def _run(
    task: str, loss, x0: np.ndarray, pen: Penalty, transform_kind: str,
    admm_cfg: solver.ADMMConfig | None, **pmm_args,
) -> tuple[np.ndarray, dict]:
    """Shared driver of both tasks: the optional pilot stage, then the main solve.

    Both solves start from ``x0`` under ``PMMConfig(**pmm_args)``; the pilot
    runs under the DCT and its estimate defines the ``data`` transform.
    """
    pmm_cfg = solver.PMMConfig(**pmm_args)
    admm_cfg = admm_cfg or solver.ADMMConfig()
    n3 = x0.shape[2]

    info: dict = {"task": task, "box_c": pmm_cfg.box_c}
    if transform_kind == "data":
        pilot, info["pilot"] = _solve(loss, pen, dct_transform(n3), pmm_cfg, admm_cfg, x0)
        transform = data_driven_transform(pilot)
    else:
        transform = build_transform(transform_kind, n3)

    x, solve_info = _solve(loss, pen, transform, pmm_cfg, admm_cfg, x0)
    info.update(solve_info)
    return x, info


def run_completion(
    y_obs: np.ndarray,
    mask: np.ndarray,
    pen: Penalty,
    beta: float,
    transform_kind: str = "dct",
    rho: float = TASK_RHO["complete"],
    box_c: float | None = None,
    admm_cfg: solver.ADMMConfig | None = None,
    max_outer: int = solver.PMMConfig.max_outer,
    ground_truth: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Recover a tensor from noisy partial observations.

    ``box_c`` defaults to 1.05 times the largest observed magnitude; ``data``
    takes the transform from a DCT pilot solve under the same settings. Returns the
    recovered tensor and a JSON-ready info dict (metrics included when ``ground_truth``
    is given; a truth the metrics reject raises ``ValueError`` before the solve).
    """
    loss = CompletionLoss(y_obs, mask)
    if ground_truth is not None:
        for metric in ("PSNR", "SSIM"):
            _metric_inputs(loss.y_obs, ground_truth, metric)
    if box_c is None:
        observed_peak = top.inf_norm(loss.y_obs)
        if observed_peak == 0:
            raise ValueError("all observed entries are zero; set box_c explicitly")
        box_c = 1.05 * observed_peak
    recovered, info = _run(
        "complete", loss, loss.y_obs.copy(), pen, transform_kind, admm_cfg,
        rho=rho, beta=beta, box_c=box_c, max_outer=max_outer,
    )
    if ground_truth is not None:
        with np.errstate(**POST_SOLVE_ERRSTATE):
            info["metrics"] = {
                "psnr": psnr(recovered, ground_truth),
                "ssim": ssim(recovered, ground_truth),
                "relative_error": (top.fro_norm(recovered - ground_truth)
                                   / top.fro_norm(ground_truth)),
            }
    return recovered, info


def run_classification(
    train_samples: np.ndarray,
    train_labels: np.ndarray,
    pen: Penalty,
    beta: float,
    transform_kind: str = "dct",
    rho: float = TASK_RHO["classify"],
    box_c: float = CLASSIFY_BOX_C,
    admm_cfg: solver.ADMMConfig | None = None,
    max_outer: int = solver.PMMConfig.max_outer,
    test_samples: np.ndarray | None = None,
    test_labels: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Fit the coefficient tensor of a binary classifier by regularized logistic loss.

    Starts from the zero tensor; the ``data`` transform works as in
    :func:`run_completion`. Returns the coefficient estimate and a
    JSON-ready info dict; test accuracy is reported when a nonempty test split
    is given. A test split needs both its samples and its labels, of one
    length and with the training samples' shape; each is checked before the
    solve and raises ``ValueError``.
    """
    loss = LogisticLoss(train_samples, train_labels)
    if (test_samples is None) != (test_labels is None):
        raise ValueError("a test split needs both its samples and its labels")
    if test_labels is not None:
        n_test = len(margins(test_samples, np.zeros(loss.shape)))
        if n_test != len(test_labels):
            raise ValueError(f"{n_test} test samples but {len(test_labels)} test labels")
    tested = test_labels is not None and len(test_labels)
    coeff, info = _run(
        "classify", loss, np.zeros(loss.shape), pen, transform_kind, admm_cfg,
        rho=rho, beta=beta, box_c=box_c, max_outer=max_outer,
    )
    if tested:
        _, labels = predict(coeff, test_samples)
        info["metrics"] = {"test_accuracy": test_accuracy(labels, np.asarray(test_labels))}
    return coeff, info
