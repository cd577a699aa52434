"""Dense third-order tensor algebra under an orthogonal mode-3 transform.

A tensor is an ``(n1, n2, n3)`` float array whose frontal slices are the
``(:, :, k)`` planes. Applying the transform mixes each tube ``x[i, j, :]``
with the transform matrix; slice-wise matrix algebra in that domain defines
the product, transpose, SVD, and spectral norms below. All functions are
pure and leave their inputs untouched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .transforms import OrthogonalTransform


def _check_order(arr: np.ndarray) -> None:
    if arr.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={arr.ndim}")


def as_tensor3(x) -> np.ndarray:
    """Validate ``x`` as a finite third-order float array."""
    arr = np.asarray(x, dtype=float)
    _check_order(arr)
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite entries")
    return arr


def unfold3(x: np.ndarray) -> np.ndarray:
    """Mode-3 unfolding: row k is frontal slice k flattened column-major."""
    x = np.asarray(x, dtype=float)
    n1, n2, n3 = x.shape
    return np.ascontiguousarray(x.reshape(n1 * n2, n3, order="F").T)


def fold3(m: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`unfold3` for the given ``(n1, n2, n3)``."""
    m = np.asarray(m, dtype=float)
    n1, n2, n3 = dims
    if m.shape != (n3, n1 * n2):
        raise ValueError(f"matrix shape {m.shape} does not fold into {dims}")
    return m.T.reshape(n1, n2, n3, order="F").copy()


def _check_transform(x: np.ndarray, u: OrthogonalTransform) -> None:
    _check_order(x)
    if u.size != x.shape[2]:
        raise ValueError(f"transform size {u.size} does not match n3={x.shape[2]}")


def _mix_tubes(x: np.ndarray, mixer: np.ndarray) -> np.ndarray:
    # One GEMM on the (n1*n2, n3) unfolding. np.dot on this reshape is the
    # product np.tensordot forms, so results match it bit for bit.
    n1, n2, n3 = x.shape
    return np.dot(x.reshape(n1 * n2, n3), mixer).reshape(n1, n2, n3)


def apply_transform(x: np.ndarray, u: OrthogonalTransform) -> np.ndarray:
    """Mix tubes with the transform matrix (fold3 of U times the unfolding).

    The mode-3 product is one matrix product ``X_(3) U^T`` on the tube-major
    ``(n1*n2, n3)`` unfolding.
    """
    x = np.asarray(x, dtype=float)
    _check_transform(x, u)
    return _mix_tubes(x, u.matrix.T)


def inverse_transform(xhat: np.ndarray, u: OrthogonalTransform) -> np.ndarray:
    """Undo :func:`apply_transform` (mix tubes with the transpose)."""
    xhat = np.asarray(xhat, dtype=float)
    _check_transform(xhat, u)
    return _mix_tubes(xhat, u.matrix)


def _slices_first(xhat: np.ndarray) -> np.ndarray:
    # (n1, n2, n3) -> (n3, n1, n2) view for batched linear algebra
    return xhat.transpose(2, 0, 1)


def _slices_last(batch: np.ndarray) -> np.ndarray:
    return batch.transpose(1, 2, 0)


def t_product(a: np.ndarray, b: np.ndarray, u: OrthogonalTransform) -> np.ndarray:
    """Tensor-tensor product: slice-wise matrix products in the transformed domain."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_order(a)
    _check_order(b)
    if a.shape[2] != b.shape[2]:
        raise ValueError(f"third dimensions differ: {a.shape[2]} vs {b.shape[2]}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} vs {b.shape}")
    ahat = _slices_first(apply_transform(a, u))
    bhat = _slices_first(apply_transform(b, u))
    return inverse_transform(_slices_last(ahat @ bhat), u)


def t_transpose(x: np.ndarray, u: OrthogonalTransform) -> np.ndarray:
    """Slice-wise transpose in the transformed domain.

    For a real transform this commutes with the tube mixing, so no transform
    application is needed.
    """
    x = np.asarray(x, dtype=float)
    _check_transform(x, u)
    return x.transpose(1, 0, 2).copy()


def t_identity(n: int, n3: int, u: OrthogonalTransform) -> np.ndarray:
    """Identity element of :func:`t_product`: every transformed slice is I_n."""
    ihat = np.broadcast_to(np.eye(n)[:, :, None], (n, n, n3))
    return inverse_transform(np.ascontiguousarray(ihat), u)


@dataclass(frozen=True)
class TSVDFactors:
    """Transformed-domain SVD ``x = u_tensor * sigma * v_tensorᵀ`` (t-products).

    ``sigma[k]`` holds the descending singular values of transformed slice k;
    ``u_tensor`` and ``v_tensor`` live in the original domain and have
    orthogonal slices after applying ``transform``.
    """

    u_tensor: np.ndarray
    sigma: np.ndarray
    v_tensor: np.ndarray
    transform: OrthogonalTransform

    def sigma_tensor(self) -> np.ndarray:
        """Diagonal middle factor as a full tensor in the original domain."""
        n1 = self.u_tensor.shape[0]
        n2 = self.v_tensor.shape[0]
        n3, m = self.sigma.shape
        shat = np.zeros((n3, n1, n2))
        shat[:, np.arange(m), np.arange(m)] = self.sigma
        return inverse_transform(_slices_last(shat), self.transform)

    def reconstruct(self) -> np.ndarray:
        uhat = _slices_first(apply_transform(self.u_tensor, self.transform))
        vhat = _slices_first(apply_transform(self.v_tensor, self.transform))
        m = self.sigma.shape[1]
        core = (uhat[:, :, :m] * self.sigma[:, None, :]) @ vhat.transpose(0, 2, 1)[:, :m, :]
        return inverse_transform(_slices_last(core), self.transform)


def t_svd(x: np.ndarray, u: OrthogonalTransform) -> TSVDFactors:
    """Full transformed-domain SVD with per-slice descending singular values."""
    batch = _slices_first(apply_transform(x, u))
    left, sigma, right_h = np.linalg.svd(batch, full_matrices=True)
    u_tensor = inverse_transform(_slices_last(left), u)
    v_tensor = inverse_transform(_slices_last(right_h.transpose(0, 2, 1)), u)
    return TSVDFactors(u_tensor=u_tensor, sigma=sigma, v_tensor=v_tensor, transform=u)


def transformed_singular_values(x: np.ndarray, u: OrthogonalTransform) -> np.ndarray:
    """Per-slice singular values in the transformed domain, shape ``(n3, min(n1, n2))``."""
    return np.linalg.svd(_slices_first(apply_transform(x, u)), compute_uv=False)


def tensor_nuclear_norm(x: np.ndarray, u: OrthogonalTransform) -> float:
    """Sum of all transformed-slice singular values."""
    return float(transformed_singular_values(x, u).sum())


def spectral_norm(x: np.ndarray, u: OrthogonalTransform) -> float:
    """Largest singular value over all transformed slices."""
    return float(transformed_singular_values(x, u).max())


RANK_TOL = 1e-10


def rank_counts(sigma: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Per row of ``sigma``, the count of values above ``tol`` times the largest of all rows."""
    return (sigma > tol * sigma.max()).sum(axis=1)


def multi_rank(x: np.ndarray, u: OrthogonalTransform, tol: float = RANK_TOL) -> np.ndarray:
    """Per-slice ranks: counts of singular values above ``tol`` times the largest one."""
    if not 0 <= tol < np.inf:
        raise ValueError("tol must be finite and nonnegative")
    return rank_counts(transformed_singular_values(x, u), tol)


def project_box(x: np.ndarray, c: float) -> np.ndarray:
    """Entrywise clamp onto ``[-c, c]``."""
    if c <= 0:
        raise ValueError("box radius c must be positive")
    return np.clip(x, -c, c)


def fro_norm(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    return math.sqrt((x * x).sum())


def inf_norm(x: np.ndarray) -> float:
    # np.max(np.abs(x)) without the temporary; abs() turns the -0.0 that
    # max(-0.0, 0.0) may return into 0.0
    x = np.asarray(x)
    return abs(float(max(x.max(), -x.min())))


def inner_prod(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.sum(x * y))
