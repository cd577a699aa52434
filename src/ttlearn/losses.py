"""Differentiable data-fit terms: masked least squares and logistic regression."""
from __future__ import annotations

import numpy as np

from .tensor_ops import as_tensor3


def expit(t):
    """Logistic sigmoid ``1/(1 + e^{-t})``; exactly 0 where ``e^{-t}`` overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


def margins(samples, x) -> np.ndarray:
    """Inner products ``<Z_i, x>`` of every tensor ``Z_i`` of the stack ``samples`` with ``x``."""
    samples = np.asarray(samples, dtype=float)
    x = np.asarray(x, dtype=float)
    if samples.shape[1:] != x.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {samples.shape[1:]}")
    return samples.reshape(samples.shape[0], x.size) @ x.ravel()


class CompletionLoss:
    """Masked least squares ``(1/2p)·||P_Ω(x - y)||_F²``.

    ``p`` is the sampling fraction |Ω|/(n1·n2·n3); the 1/p scaling makes the
    loss an unbiased estimate of the full squared error. Off-mask values of
    ``y_obs`` are ignored (stored as zeros). ``y_obs`` and ``mask`` are
    stored C-ordered, the layout of the iterates they meet on every call.
    The masked residual is ``x·mask + o`` with one float array ``o`` built
    once, ``-y`` on the mask and ``+0.0`` off it: ``x + (-y)`` is ``x - y``
    exactly, and adding ``+0.0`` turns an off-mask ``-0.0`` product into
    ``+0.0``. So for finite ``x`` the residual is
    ``np.where(mask, x - y, 0.0)`` bit for bit, without the branch.
    """

    def __init__(self, y_obs: np.ndarray, mask: np.ndarray):
        y = as_tensor3(y_obs)
        mask = np.asarray(mask, dtype=bool, order="C")
        if mask.shape != y.shape:
            raise ValueError(f"mask shape {mask.shape} does not match tensor {y.shape}")
        n_obs = int(mask.sum())
        if n_obs == 0:
            raise ValueError("mask has no observed entries")
        self.mask = mask
        self.y_obs = np.zeros(y.shape)
        np.copyto(self.y_obs, y, where=mask)
        self._offset = np.where(mask, -self.y_obs, 0.0)
        self.p = n_obs / mask.size
        self.shape = y.shape

    def _residual(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self.shape:
            raise ValueError(f"shape mismatch: {x.shape} vs {self.shape}")
        r = np.multiply(x, self.mask)
        r += self._offset
        return r

    def value(self, x: np.ndarray) -> float:
        r = self._residual(x)
        return float(np.sum(r * r) / (2 * self.p))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self._residual(x) / self.p

    def lipschitz_constant(self) -> float:
        return 1.0 / self.p


class LogisticLoss:
    """Binary logistic loss ``(1/n)·Σ [log(1 + exp<Z_i, x>) - y_i <Z_i, x>]``.

    ``samples`` is a stack of n tensors sharing one shape; ``labels`` take
    values in {0, 1}. Evaluation is overflow-safe for large inner products
    (log-sum-exp form). The stack is stored C-ordered, so that the
    ``(n, n1*n2*n3)`` matrix every value and gradient multiplies by is a view
    of it rather than a fresh copy.
    """

    def __init__(self, samples, labels):
        stack = np.array(samples, dtype=float, order="C")
        if stack.ndim != 4 or not stack.shape[0]:
            raise ValueError("samples must be a nonempty collection of third-order tensors")
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.shape[0] != stack.shape[0]:
            raise ValueError("labels must be one value per sample")
        if not np.all(np.isin(labels, (0, 1))):
            raise ValueError("labels must be 0 or 1")
        if not np.all(np.isfinite(stack)):
            raise ValueError("samples contain non-finite entries")
        self.samples = stack
        self.labels = labels.astype(float)
        self.n = stack.shape[0]
        self.shape = stack.shape[1:]
        # the Hessian is Z^T D Z / n with 0 <= D <= 1/4 (Böhning 1992), so
        # sigma_max(Z)^2/(4n) bounds it; the factor 1 + 1e-12 lets the computed
        # sigma_max fall up to 5e-13 relative (about 2 000 ulps) short
        sigma_max = float(np.linalg.norm(self.samples.reshape(self.n, -1), 2))
        self._lipschitz = sigma_max**2 * (1 + 1e-12) / (4 * self.n)

    def value(self, x: np.ndarray) -> float:
        m = margins(self.samples, x)
        return float(np.mean(np.logaddexp(0.0, m) - self.labels * m))

    def grad(self, x: np.ndarray) -> np.ndarray:
        weights = expit(margins(self.samples, x)) - self.labels
        return (weights @ self.samples.reshape(self.n, -1)).reshape(self.shape) / self.n

    def lipschitz_constant(self) -> float:
        return self._lipschitz
