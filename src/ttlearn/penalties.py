"""Folded-concave spectral penalties and their difference-of-convex calculus.

The scalar family g(x) is applied to the singular values of every transformed
frontal slice. Each kind splits as g = s1 - s2 with s1(x) = lam*x and s2
convex differentiable; the solver linearizes s2 and keeps the nuclear-norm
part s1, whose proximal map is singular-value thresholding (:func:`svt`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transforms import OrthogonalTransform
from .tensor_ops import (
    _slices_first,
    _slices_last,
    apply_transform,
    inverse_transform,
    transformed_singular_values,
)

KINDS = ("mcp", "scad", "log", "convex")


class ParameterError(ValueError):
    """Out-of-range constructor argument ``name``; reads "<name> <reason>" by default."""

    def __init__(self, name: str, reason: str, message: str | None = None):
        super().__init__(message or f"{name} {reason}")
        self.name, self.reason = name, reason


@dataclass(frozen=True)
class Penalty:
    """Scalar penalty family: one of ``mcp``, ``scad``, ``log``, ``convex``.

    ``lam`` scales the penalty; ``gamma`` controls the concavity (unused by
    ``convex``, which is plain ``lam*x`` and turns the model into the convex
    transformed-nuclear-norm baseline).
    """

    kind: str
    lam: float
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            message = f"unknown penalty kind {self.kind!r}; expected one of {KINDS}"
            raise ParameterError("kind", f"must be one of {KINDS}", message)
        if not self.lam > 0:
            raise ParameterError("lam", "must be positive")
        if self.kind in ("mcp", "log") and not self.gamma > 0:
            raise ParameterError("gamma", f"must be positive for {self.kind}")
        if self.kind == "scad" and not self.gamma > 1:
            raise ParameterError("gamma", "must exceed 1 for scad")

    @property
    def k0(self) -> float:
        """Slope factor: the derivative at 0+ equals lam*k0 and bounds g' everywhere."""
        return 1.0 / self.gamma if self.kind == "log" else 1.0

    @property
    def mu(self) -> float:
        """Weak-convexity modulus: the Lipschitz constant of s2'."""
        if self.kind == "mcp":
            return 1.0 / self.gamma
        if self.kind == "scad":
            return 1.0 / (self.gamma - 1.0)
        if self.kind == "log":
            return self.lam / self.gamma**2
        return 0.0

    def _domain(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("penalty functions are defined for x >= 0")
        return x

    def g(self, x) -> np.ndarray:
        x = self._domain(x)
        lam, gamma = self.lam, self.gamma
        if self.kind == "convex":
            return lam * x
        if self.kind == "mcp":
            return np.where(x <= gamma * lam, lam * x - x**2 / (2 * gamma), 0.5 * gamma * lam**2)
        if self.kind == "scad":
            return np.select(
                [x < lam, x < gamma * lam],
                [lam * x, (-(x**2) + 2 * gamma * lam * x - lam**2) / (2 * (gamma - 1))],
                default=lam**2 * (gamma + 1) / 2,
            )
        return lam * np.log1p(x / gamma)

    def g_prime(self, x) -> np.ndarray:
        x = self._domain(x)
        lam, gamma = self.lam, self.gamma
        if self.kind == "convex":
            return np.full_like(x, lam)
        if self.kind == "mcp":
            return np.where(x <= gamma * lam, lam - x / gamma, 0.0)
        if self.kind == "scad":
            return np.select(
                [x < lam, x < gamma * lam],
                [np.full_like(x, lam), (gamma * lam - x) / (gamma - 1)],
                default=0.0,
            )
        return lam / (x + gamma)

    def s1(self, x) -> np.ndarray:
        return self.lam * self._domain(x)

    def s2(self, x) -> np.ndarray:
        x = self._domain(x)
        lam, gamma = self.lam, self.gamma
        if self.kind == "convex":
            return np.zeros_like(x)
        if self.kind == "mcp":
            return np.where(x <= gamma * lam, x**2 / (2 * gamma), lam * x - gamma * lam**2 / 2)
        if self.kind == "scad":
            return np.select(
                [x < lam, x < gamma * lam],
                [np.zeros_like(x), (x - lam) ** 2 / (2 * (gamma - 1))],
                default=lam * x - (gamma + 1) * lam**2 / 2,
            )
        return lam * x - lam * np.log1p(x / gamma)

    def s2_prime(self, x) -> np.ndarray:
        x = self._domain(x)
        lam, gamma = self.lam, self.gamma
        if self.kind == "convex":
            return np.zeros_like(x)
        if self.kind == "mcp":
            return np.where(x <= gamma * lam, x / gamma, lam)
        if self.kind == "scad":
            return np.select(
                [x < lam, x < gamma * lam],
                [np.zeros_like(x), (x - lam) / (gamma - 1)],
                default=lam,
            )
        return lam - lam / (x + gamma)


def penalty_value(x: np.ndarray, u: OrthogonalTransform, pen: Penalty) -> float:
    """Sum of g over all transformed-slice singular values."""
    return float(pen.g(transformed_singular_values(x, u)).sum())


def dc_smooth_value(x: np.ndarray, u: OrthogonalTransform, pen: Penalty) -> float:
    """Sum of the smooth DC part s2 over all transformed-slice singular values."""
    return float(pen.s2(transformed_singular_values(x, u)).sum())


def _spectral_rebuild(x: np.ndarray, u: OrthogonalTransform, f) -> np.ndarray:
    """Rebuild ``x`` with ``f`` applied to every transformed-slice singular value."""
    batch = _slices_first(apply_transform(x, u))
    left, sigma, right_h = np.linalg.svd(batch, full_matrices=False)
    core = (left * f(sigma)[:, None, :]) @ right_h
    return inverse_transform(_slices_last(core), u)


def dc_smooth_grad(x: np.ndarray, u: OrthogonalTransform, pen: Penalty) -> np.ndarray:
    """Gradient of :func:`dc_smooth_value`.

    Spectral calculus: with the slice-wise SVD in the transformed domain, the
    gradient reassembles the factors around diag(s2'(sigma)).
    """
    x = np.asarray(x, dtype=float)
    if pen.kind == "convex":
        return np.zeros_like(x)
    return _spectral_rebuild(x, u, pen.s2_prime)


def svt(a: np.ndarray, tau: float, u: OrthogonalTransform) -> np.ndarray:
    """Singular-value thresholding under the transform.

    Proximal map of ``tau`` times the transformed nuclear norm: every
    transformed-slice singular value is shrunk by ``tau`` and floored at 0.
    """
    a = np.asarray(a, dtype=float)
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    if tau == 0:
        return a.copy()
    return _spectral_rebuild(a, u, lambda sigma: np.maximum(sigma - tau, 0.0))
