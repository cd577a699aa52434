"""Experiment pipelines: synthetic data, masking and noise, quality metrics,
and end-to-end drivers for noisy completion and binary classification."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from . import solver, tensor_ops as top
from .losses import CompletionLoss, LogisticLoss
from .penalties import Penalty
from .transforms import (
    OrthogonalTransform,
    data_driven_transform,
    dct_transform,
    identity_transform,
)

SSIM_K1 = 0.01
SSIM_K2 = 0.03


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
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    x = np.asarray(x, dtype=float)
    if sigma == 0:
        return x.copy()
    rng = np.random.default_rng(seed)
    return x + sigma * rng.standard_normal(x.shape)


def psnr(recovered: np.ndarray, truth: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; the peak range is taken from ``truth``."""
    recovered = np.asarray(recovered, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if recovered.shape != truth.shape:
        raise ValueError(f"shape mismatch: {recovered.shape} vs {truth.shape}")
    value_range = float(truth.max() - truth.min())
    if value_range == 0:
        raise ValueError("truth tensor is constant; PSNR undefined")
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
    recovered = np.asarray(recovered, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if recovered.shape != truth.shape:
        raise ValueError(f"shape mismatch: {recovered.shape} vs {truth.shape}")
    value_range = float(truth.max() - truth.min())
    if value_range == 0:
        raise ValueError("truth tensor is constant; SSIM undefined")
    c1 = (SSIM_K1 * value_range) ** 2
    c2 = (SSIM_K2 * value_range) ** 2
    scores = []
    for k in range(truth.shape[2]):
        a = truth[:, :, k]
        b = recovered[:, :, k]
        if a.max() == a.min():
            raise ValueError(f"truth slice {k} is constant; SSIM undefined")
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


@dataclass
class CompletionProblem:
    """Synthetic noisy-completion instance: ground truth plus sampling parameters."""

    ground_truth: np.ndarray
    sr: float
    sigma_noise: float
    seed: int

    def observe(self) -> tuple[np.ndarray, np.ndarray]:
        """Noisy observed tensor (zeros off-mask) and the mask.

        Noise is added to the full tensor first, then the mask is drawn.
        Child streams 1 and 2 of the seed are used (stream 0 is reserved for
        generating the ground truth, see :func:`synth_completion`).
        """
        _, noise_seed, mask_seed = np.random.SeedSequence(self.seed).spawn(3)
        noisy = add_gaussian_noise(self.ground_truth, self.sigma_noise, noise_seed)
        mask = make_mask(self.ground_truth.shape, self.sr, mask_seed)
        return np.where(mask, noisy, 0.0), mask


def synth_completion(
    dims: tuple[int, int, int],
    r: int,
    sr: float,
    sigma: float,
    u: OrthogonalTransform,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full synthetic completion instance: (ground truth, observed, mask)."""
    truth_seed = np.random.SeedSequence(seed).spawn(3)[0]
    truth = synth_low_multirank(dims, r, u, truth_seed)
    y_obs, mask = CompletionProblem(truth, sr, sigma, seed).observe()
    return truth, y_obs, mask


@dataclass
class ClassificationProblem:
    """Synthetic binary-classification instance with train and test splits."""

    coeff_truth: np.ndarray
    train_samples: np.ndarray
    train_labels: np.ndarray
    test_samples: np.ndarray
    test_labels: np.ndarray
    seed: int


def _draw_samples(rng, dims, count, coeff):
    samples = rng.standard_normal((count,) + tuple(dims))
    probs = expit(samples.reshape(count, -1) @ coeff.ravel())
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
    return ClassificationProblem(
        coeff_truth=coeff,
        train_samples=train_samples,
        train_labels=train_labels,
        test_samples=test_samples,
        test_labels=test_labels,
        seed=seed if isinstance(seed, int) else -1,
    )


def predict(x_hat: np.ndarray, test_samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class-1 probabilities and hard labels (1 iff probability exceeds 0.5)."""
    x_hat = np.asarray(x_hat, dtype=float)
    stack = np.asarray(test_samples, dtype=float)
    margins = stack.reshape(stack.shape[0], -1) @ x_hat.ravel()
    probs = expit(margins)
    return probs, (probs > 0.5).astype(int)


def test_accuracy(pred_labels, true_labels) -> float:
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape:
        raise ValueError("label vectors differ in length")
    return float(1.0 - np.mean(np.abs(pred - true)))


def build_transform(kind: str, n3: int) -> OrthogonalTransform:
    if kind == "identity":
        return identity_transform(n3)
    if kind == "dct":
        return dct_transform(n3)
    raise ValueError(f"unknown transform kind {kind!r}")


def _solve(loss, pen, transform, pmm_cfg, admm_cfg, x0):
    x, trace = solver.pmm_solve(loss, pen, transform, pmm_cfg, admm_cfg, x0)
    return x, {
        "transform": transform.kind,
        "final_objective": trace.objectives()[-1],
        "final_norm": top.fro_norm(x),
        "multi_rank": top.multi_rank(x, transform).tolist(),
        "trace": trace.to_dict(),
    }


def _run(
    task: str, loss, x0: np.ndarray, pen: Penalty, transform_kind: str,
    admm_cfg: solver.ADMMConfig | None, pilot_max_outer: int | None, **pmm_args,
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
        pilot_cfg = pmm_cfg
        if pilot_max_outer is not None:
            pilot_cfg = replace(pmm_cfg, max_outer=pilot_max_outer)
        pilot, info["pilot"] = _solve(loss, pen, dct_transform(n3), pilot_cfg, admm_cfg, x0)
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
    rho: float = 10.0,
    xi: float = 0.1,
    box_c: float | None = None,
    admm_cfg: solver.ADMMConfig | None = None,
    max_outer: int = 100,
    tol_outer: float = 5e-4,
    ground_truth: np.ndarray | None = None,
    pilot_max_outer: int | None = None,
) -> tuple[np.ndarray, dict]:
    """Recover a tensor from noisy partial observations.

    ``box_c`` defaults to 1.05 times the largest observed magnitude. The
    ``data`` transform runs a pilot solve under the DCT first and derives the
    transform from the pilot estimate; ``pilot_max_outer`` caps the pilot's
    outer iterations (full stopping rule when None). Returns the recovered
    tensor and a JSON-ready info dict (metrics included when ``ground_truth``
    is given).
    """
    loss = CompletionLoss(y_obs, mask)
    if box_c is None:
        observed_peak = top.inf_norm(loss.y_obs)
        if observed_peak == 0:
            raise ValueError("all observed entries are zero; set box_c explicitly")
        box_c = 1.05 * observed_peak
    recovered, info = _run(
        "complete", loss, loss.y_obs.copy(), pen, transform_kind, admm_cfg, pilot_max_outer,
        rho=rho, beta=beta, box_c=box_c, xi=xi, max_outer=max_outer, tol_outer=tol_outer,
    )
    if ground_truth is not None:
        truth_norm = top.fro_norm(ground_truth)
        info["metrics"] = {
            "psnr": psnr(recovered, ground_truth),
            "ssim": ssim(recovered, ground_truth),
            "relative_error": top.fro_norm(recovered - ground_truth) / truth_norm
            if truth_norm > 0
            else float("nan"),
        }
    return recovered, info


def run_classification(
    train_samples: np.ndarray,
    train_labels: np.ndarray,
    pen: Penalty,
    beta: float,
    transform_kind: str = "dct",
    rho: float = 100.0,
    xi: float = 0.1,
    box_c: float = 10.0,
    admm_cfg: solver.ADMMConfig | None = None,
    max_outer: int = 100,
    tol_outer: float = 5e-4,
    test_samples: np.ndarray | None = None,
    test_labels: np.ndarray | None = None,
    pilot_max_outer: int | None = None,
) -> tuple[np.ndarray, dict]:
    """Fit the coefficient tensor of a binary classifier by regularized logistic loss.

    Starts from the zero tensor; the ``data`` transform and ``pilot_max_outer``
    work as in :func:`run_completion`. Returns the coefficient estimate and a
    JSON-ready info dict; test accuracy is reported when a test split is given.
    """
    loss = LogisticLoss(train_samples, train_labels)
    coeff, info = _run(
        "classify", loss, np.zeros(loss.shape), pen, transform_kind, admm_cfg, pilot_max_outer,
        rho=rho, beta=beta, box_c=box_c, xi=xi, max_outer=max_outer, tol_outer=tol_outer,
    )
    if test_samples is not None and test_labels is not None:
        _, labels = predict(coeff, test_samples)
        info["metrics"] = {"test_accuracy": test_accuracy(labels, np.asarray(test_labels))}
    return coeff, info
