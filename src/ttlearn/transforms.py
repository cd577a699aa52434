"""Orthogonal mode-3 transforms: identity, orthonormal DCT-II, and data-driven."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHOGONALITY_RTOL = 1e-10


def validate_orthogonal(matrix: np.ndarray) -> bool:
    """True iff ``U Uᵀ`` and ``Uᵀ U`` are within ``1e-10·√n`` of the identity."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    n = matrix.shape[0]
    tol = ORTHOGONALITY_RTOL * np.sqrt(n)
    eye = np.eye(n)
    return (
        np.linalg.norm(matrix @ matrix.T - eye) <= tol
        and np.linalg.norm(matrix.T @ matrix - eye) <= tol
    )


@dataclass(frozen=True)
class OrthogonalTransform:
    """Real orthogonal matrix mixing the tubes (mode-3 fibers) of a tensor.

    The matrix rows define the transformed domain in which all slice-wise
    spectral operations (products, SVD, thresholding) are carried out.
    """

    matrix: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        matrix = np.ascontiguousarray(np.asarray(self.matrix, dtype=float))
        if not validate_orthogonal(matrix):
            raise ValueError("transform matrix is not orthogonal")
        object.__setattr__(self, "matrix", matrix)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def identity_transform(n3: int) -> OrthogonalTransform:
    """Degenerate transform; slice-wise operations reduce to plain matrix algebra."""
    if n3 < 1:
        raise ValueError("n3 must be >= 1")
    return OrthogonalTransform(np.eye(n3), kind="identity")


def dct_transform(n3: int) -> OrthogonalTransform:
    """Orthonormal DCT-II matrix with entries a_k·cos(π(2m+1)k / (2·n3)).

    The scale factors a_0 = √(1/n3) and a_k = √(2/n3) for k ≥ 1 make the
    matrix exactly orthogonal.
    """
    if n3 < 1:
        raise ValueError("n3 must be >= 1")
    k = np.arange(n3)[:, None]
    m = np.arange(n3)[None, :]
    mat = np.cos(np.pi * (2 * m + 1) * k / (2 * n3))
    mat[0, :] *= np.sqrt(1.0 / n3)
    mat[1:, :] *= np.sqrt(2.0 / n3)
    return OrthogonalTransform(mat, kind="dct")


def data_driven_transform(pilot: np.ndarray) -> OrthogonalTransform:
    """Build the transform from a pilot estimate of the target tensor.

    The rows are the left singular vectors of the pilot's mode-3 unfolding,
    ordered by descending singular value. SVD sign ambiguity is removed by
    making each row's largest-magnitude entry nonnegative, so the result is
    deterministic given the pilot.
    """
    pilot = np.asarray(pilot, dtype=float)
    if pilot.ndim != 3:
        raise ValueError("pilot must be a third-order tensor")
    if not np.any(pilot):
        raise ValueError("pilot tensor is zero; no transform can be derived")
    n1, n2, n3 = pilot.shape
    unfolding = pilot.reshape(n1 * n2, n3, order="F").T
    # the thin U is n3×n3 unless n1·n2 < n3; the (n1·n2)² right factor is never needed
    left, _, _ = np.linalg.svd(unfolding, full_matrices=n1 * n2 < n3)
    rows = left.T.copy()
    peak = np.argmax(np.abs(rows), axis=1)
    signs = np.sign(rows[np.arange(n3), peak])
    signs[signs == 0] = 1.0
    rows *= signs[:, None]
    return OrthogonalTransform(rows, kind="data")
