"""Folded-concave spectral penalties and their difference-of-convex calculus.

The scalar family g(x) is applied to the singular values of every transformed
frontal slice. g is s1 - s2 with s1(x) = lam*k0*x, its tangent at 0; each kind
states only its convex differentiable s2, so s2'(0) = 0, and mcp and scad share
one (see Penalty). The solver linearizes s2 and keeps the nuclear-norm part s1,
whose prox is thresholding (svt).

Every full SVD of a batch of slices, slice_svd's and svt's, goes through
_factorize. It factorizes a batch of slices of side 16 or more as one block
per usable CPU, the first on the calling thread and the others on a thread
pool made on the first such call. While a split runs, NumPy's bundled
OpenBLAS runs one thread in the whole process, and the count it had is
restored when the last split ends. The factors are bit for bit one whole
call's, on any number of CPUs, for slices up to 100x100; at 200x200 OpenBLAS's
own result depends on its thread count, so they move at rounding level.
"""
from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .transforms import OrthogonalTransform
from .tensor_ops import (
    _check_transform,
    _slices_first,
    _slices_last,
    apply_transform,
    inverse_transform,
    transformed_singular_values,
)

KINDS = ("mcp", "scad", "log", "convex")
# the least float whose square overflows; Python's float ** raises OverflowError there
SQUARE_LIMIT = 2.0**512


class ParameterError(ValueError):
    """Out-of-range constructor argument ``name``; reads "<name> <reason>" by default."""

    def __init__(self, name: str, reason: str, message: str | None = None):
        super().__init__(message or f"{name} {reason}")
        self.name, self.reason = name, reason


def require_finite(**values: float) -> None:
    """Raise a ParameterError for the first of ``values`` that is NaN or infinite."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise ParameterError(name, "must be finite")


@dataclass(frozen=True)
class Penalty:
    """Scalar penalty family: one of ``mcp``, ``scad``, ``log``, ``convex``.

    ``lam`` scales the penalty and the finite ``gamma`` its concavity: positive
    for ``mcp`` and ``log`` (``lam*log1p(x/gamma)``), above 1 for ``scad``, and
    unused by ``convex`` (plain ``lam*x``, the transformed-nuclear-norm baseline).
    mcp and scad are one clipped ramp with shift ``s`` (0 for mcp, 1 for scad):
    s2' rises with slope ``mu = 1/(gamma - s)`` from 0 at ``s*lam`` to ``lam`` at
    the knee ``gamma*lam`` and stays there, and s2 is its integral from 0.
    The closed forms need a finite ``lam**2`` (mcp, scad), a finite
    ``1/gamma`` (mcp), or a finite ``gamma**2`` and ``lam/gamma**2`` (log).
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
        require_finite(lam=self.lam, gamma=self.gamma)
        # s2 squares lam (mcp, scad) and mu squares gamma (log)
        if self.kind in ("mcp", "scad") and not self.lam < SQUARE_LIMIT:
            raise ParameterError("lam", f"must be below {SQUARE_LIMIT:.4g} for {self.kind}")
        # mcp's s2 and s2' divide by gamma: its mu = 1/gamma overflows for a subnormal gamma
        if self.kind == "mcp" and not np.isfinite(self.mu):
            raise ParameterError("gamma", "must keep 1/gamma finite for mcp")
        # a finite mu = lam/gamma**2 also bounds slope = lam/gamma, the solver's threshold
        if self.kind == "log" and not (
            self.gamma < SQUARE_LIMIT and self.gamma**2 > 0 and np.isfinite(self.mu)
        ):
            raise ParameterError("gamma", "must keep gamma**2 and lam/gamma**2 finite for log")

    @property
    def k0(self) -> float:
        """Slope factor: the derivative at 0+ equals lam*k0 and bounds g' everywhere."""
        return 1.0 / self.gamma if self.kind == "log" else 1.0

    @property
    def slope(self) -> float:
        """``lam*k0``, the slope of s1 and so the nuclear-norm weight, rounded as s2' is at 0."""
        return self.lam / self.gamma if self.kind == "log" else self.lam

    @property
    def mu(self) -> float:
        """Weak-convexity modulus: the Lipschitz constant of s2'."""
        if self.kind == "log":
            return self.lam / self.gamma**2
        return 0.0 if self.kind == "convex" else 1.0 / (self.gamma - self._shift)

    @property
    def _shift(self) -> float:
        """Where the ramp s2' of mcp (0) and scad (1) leaves 0, in units of lam."""
        return 1.0 if self.kind == "scad" else 0.0

    def _domain(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("penalty functions are defined for x >= 0")
        return x

    def g(self, x) -> np.ndarray:
        return self.s1(x) - self.s2(x)

    def g_prime(self, x) -> np.ndarray:
        return self.slope - self.s2_prime(x)

    def s1(self, x) -> np.ndarray:
        return self.slope * self._domain(x)

    def s2(self, x) -> np.ndarray:
        x = self._domain(x)
        lam, gamma, shift = self.lam, self.gamma, self._shift
        if self.kind == "convex":
            return np.zeros_like(x)
        if self.kind == "log":
            return self.slope * x - lam * np.log1p(x / gamma)
        tail = lam * x - (gamma + shift) * lam**2 / 2
        return np.where(x <= gamma * lam, self._rise(x) ** 2 / (2 * (gamma - shift)), tail)

    def s2_prime(self, x) -> np.ndarray:
        x = self._domain(x)
        lam, gamma = self.lam, self.gamma
        if self.kind == "convex":
            return np.zeros_like(x)
        if self.kind == "log":
            return self.slope - lam / (x + gamma)
        return np.where(x <= gamma * lam, self._rise(x) / (gamma - self._shift), lam)

    def _rise(self, x: np.ndarray) -> np.ndarray:
        # np.where evaluates both branches: clip the ramp at the knee gamma*lam,
        # so that neither kind's discarded quadratic branch can overflow
        return np.maximum(np.minimum(x, self.gamma * self.lam) - self._shift * self.lam, 0.0)


# A batch of at least two slices whose shorter side is at least SPLIT_MIN_SIDE
# is factorized as one contiguous block of slices per usable CPU, each block
# at one OpenBLAS thread. Below the gate a block costs less than handing it to
# a thread. Without a way to set OpenBLAS's thread count, batches from
# TRUNCATED_MIN_SIDE on take one call, as OpenBLAS already threads each slice.
SPLIT_MIN_SIDE = 16
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
# guarded by _pool_lock: the splits in flight, and the OpenBLAS thread count
# the first of them replaced with 1 (None when it set nothing)
_in_flight = 0
_saved_threads: int | None = None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """The getter and setter of the thread count of NumPy's bundled OpenBLAS, or ``()``.

    Found once, on the first batch that could split, in the library that
    holds NumPy's LAPACK calls. The per-thread ``openblas_set_num_threads_local``
    is not used: in NumPy's build it moves the global count too.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return ()
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _svd_block(block: np.ndarray):
    # the one task the pool runs: only the SVD, because NumPy's errstate is
    # per thread, and in ttlearn, so that a census charges its calls here
    return np.linalg.svd(block, full_matrices=False)


def _factorize(batch: np.ndarray):
    """Thin SVD ``(U, S, Vh)`` of a ``(n3, n1, n2)`` batch: one call, or a block per CPU.

    The batch takes one whole call when it would make one block, or when
    its shorter side is at least ``TRUNCATED_MIN_SIDE`` and OpenBLAS's
    thread count cannot be set. Otherwise the first block runs on this
    thread and the others on the pool. While any split is in flight
    OpenBLAS runs one thread, in the whole process: the first split to
    start saves the count and sets 1, and the last to finish restores it.
    Each slice gets the same LAPACK call on the same input as in one whole
    call. A failed block raises only after every block has finished.
    """
    global _pool, _in_flight, _saved_threads
    n3, n1, n2 = batch.shape
    side = min(n1, n2)
    blocks = min(n3, _usable_cpus()) if side >= SPLIT_MIN_SIDE else 1
    blas = _openblas_threads() if blocks > 1 else ()
    if blocks == 1 or side >= TRUNCATED_MIN_SIDE and not blas:
        return np.linalg.svd(batch, full_matrices=False)
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_usable_cpus() - 1, thread_name_prefix="ttlearn-svd")
        if _in_flight == 0 and blas and (count := blas[0]()) != 1:
            _saved_threads = count
            blas[1](1)
        _in_flight += 1
    try:
        first, *rest = np.array_split(batch, blocks)
        pending = [_pool.submit(_svd_block, block) for block in rest]
        try:
            parts = [_svd_block(first)]
        finally:
            wait(pending)
        parts += [future.result() for future in pending]
    finally:
        with _pool_lock:
            _in_flight -= 1
            if _in_flight == 0:
                _restore_threads()
    return tuple(np.concatenate(factor) for factor in zip(*parts))


def _restore_threads() -> None:
    # called under _pool_lock, or in a forked child, once no split is in flight
    global _saved_threads
    if _saved_threads is not None:
        _openblas_threads()[1](_saved_threads)
        _saved_threads = None


def _forget_pool() -> None:
    # a forked child has none of its parent's threads, nor their splits
    global _pool, _in_flight
    _pool, _in_flight = None, 0
    _restore_threads()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def slice_svd(x: np.ndarray, u: OrthogonalTransform):
    """Thin SVD ``(U, S, Vh)`` of every transformed frontal slice: the one spectral kernel.

    A batch of two or more slices of side ``SPLIT_MIN_SIDE`` or more is
    split across the CPUs at one OpenBLAS thread per block (see
    :func:`_factorize`), with the same bits as one call.
    """
    return _factorize(_slices_first(apply_transform(x, u)))


def slice_svd_update(factors, e: np.ndarray, u: OrthogonalTransform):
    """Thin SVD factors of ``m + e`` from ``factors`` of ``m``, or ``None``.

    ``factors`` is laid out like :func:`slice_svd`'s, or holds only the top
    triplets (the truncated path of :func:`svt`), and ``e`` touches few rows
    ``R`` and columns ``C``. The transform mixes tubes only, so every
    transformed slice of ``e`` lives on ``R x C``. With the ``r`` leading
    triplets that carry nonzero singular values, one batched QR each gives
    ``[U_r, I_R] = Q_L R_L`` and ``[V_r, I_C] = Q_R R_R``, and each slice of
    ``m + e`` is ``Q_L K Q_R^T`` with the small core
    ``K = R_L[:, :r] S_r R_R[:, :r]^T + Q_L[R]^T e_RC Q_R[C]``; the SVD of
    ``K`` rotated back by ``Q_L`` and ``Q_R`` is a thin SVD of the slice
    (Brand, *Linear Algebra Appl.* 2006). The values beyond the core's width
    are zero and left out, as on the truncated path. Returns ``None`` when
    the core's width ``r + max(|R|, |C|)`` exceeds a quarter of the shorter
    slice side, the rule by which :class:`SubspaceHint` drops a basis.
    """
    left, sigma, right_h = factors
    n1, n2, n3 = e.shape
    touched = e != 0
    rows = np.flatnonzero(touched.any(axis=(1, 2)))
    cols = np.flatnonzero(touched.any(axis=(0, 2)))
    # each slice's values descend, so its nonzero triplets lead
    r = int((sigma > 0).sum(axis=1).max())
    if 4 * (r + max(rows.size, cols.size)) > min(n1, n2):
        return None

    def orthonormalize(basis, lines, n):
        unit = np.broadcast_to(np.eye(n)[:, lines], (n3, n, lines.size))
        return np.linalg.qr(np.concatenate([basis[:, :, :r], unit], axis=2))

    q_left, r_left = orthonormalize(left, rows, n1)
    q_right, r_right = orthonormalize(right_h.swapaxes(1, 2), cols, n2)
    block = _slices_first(apply_transform(e[np.ix_(rows, cols)], u))
    core = (r_left[:, :, :r] * sigma[:, None, :r]) @ r_right[:, :, :r].swapaxes(1, 2)
    core += q_left[:, rows].swapaxes(1, 2) @ block @ q_right[:, cols]
    small_left, values, small_right_h = np.linalg.svd(core, full_matrices=False)
    return q_left @ small_left, values, small_right_h @ q_right.swapaxes(1, 2)


def spectral_map(factors, f, u: OrthogonalTransform) -> np.ndarray:
    """The tensor whose transformed slices are ``U @ diag(f(S)) @ Vh`` for ``factors``."""
    left, sigma, right_h = factors
    return inverse_transform(_slices_last((left * f(sigma)[:, None, :]) @ right_h), u)


def penalty_value(x: np.ndarray, u: OrthogonalTransform, pen: Penalty, factors=None) -> float:
    """Sum of g over all transformed-slice singular values (of ``factors``, if given)."""
    sigma = transformed_singular_values(x, u) if factors is None else factors[1]
    return float(pen.g(sigma).sum())


def dc_smooth_value(x: np.ndarray, u: OrthogonalTransform, pen: Penalty) -> float:
    """Sum of the smooth DC part s2 over all transformed-slice singular values."""
    return float(pen.s2(transformed_singular_values(x, u)).sum())


def dc_smooth_grad(x: np.ndarray, u: OrthogonalTransform, pen: Penalty, factors=None) -> np.ndarray:
    """Gradient of :func:`dc_smooth_value`.

    Spectral calculus: with the slice-wise SVD in the transformed domain, the
    gradient reassembles the factors around diag(s2'(sigma)). ``factors``,
    if given, is :func:`slice_svd` of ``x``.
    """
    x = np.asarray(x, dtype=float)
    _check_transform(x, u)
    if pen.kind == "convex":
        return np.zeros_like(x)
    return spectral_map(slice_svd(x, u) if factors is None else factors, pen.s2_prime, u)


# Truncated SVT (see :func:`svt`). Slices whose shorter side is below
# TRUNCATED_MIN_SIDE, or whose predicted subspace width exceeds a quarter of
# it, always take the full SVD; both depend only on the input's shape and rank.
# Neither value is tuned: both were timed only at their edges, where the
# truncated call still beats the full SVD.
TRUNCATED_MIN_SIDE = 64
SUBSPACE_OVERSAMPLE = 10
MAX_POWER_STEPS = 20
RITZ_RESIDUAL_TOL = 1e-10


def _deflation_bound(sigma: np.ndarray, tau: float, fro2: np.ndarray) -> np.ndarray:
    """Per slice, a bound on ``||A (I - V_r V_r^T)||_2^2`` for the triplets kept above ``tau``.

    ``sigma`` (n3, w) holds the values of ``w`` exact singular or Ritz
    triplets ``A v_i = s_i u_i`` with orthonormal ``u`` and ``v``, and
    ``fro2`` each slice's ``||A||_F^2``. Removing the kept triplets leaves
    the dropped ones, whose rows lie in ``span(V)`` with norm the largest
    dropped value, and ``A (I - V V^T)``, whose rows are orthogonal to it and
    whose squared Frobenius norm is ``||A||_F^2 - sum(s_i^2)``. Two blocks
    with orthogonal row spaces have ``||X + Y||_2^2 <= ||X||_2^2 + ||Y||_2^2``.
    """
    dropped = np.where(sigma > tau, 0.0, sigma).max(axis=1)
    return dropped**2 + fro2 - (sigma**2).sum(axis=1)


class SubspaceHint:
    """The right singular subspace one :func:`svt` call site hands to its next call.

    ``basis`` is ``None`` or an ``(n3, n2, k)`` stack holding, for every
    transformed slice, the top ``k`` right singular vectors of the matrix
    last thresholded here: ``k = r + SUBSPACE_OVERSAMPLE``, where ``r`` is
    the largest number of singular values any slice kept, and at most the
    width of the previous basis. A call clears it when ``k`` exceeds a
    quarter of the shorter slice side, or when :func:`_deflation_bound` of
    that basis on the matrix just thresholded exceeds ``tau^2``, since the
    next call's certificate would then most likely fail too. ``steps`` is
    the number of power steps the last accepted truncated call needed; the
    next call factorizes its projection first after that many, so that most
    calls make one small SVD. ``factors`` is ``(U, (S - tau)+, Vh)`` of the
    last call's result, laid out like :func:`slice_svd`'s, or ``None`` after
    a call with ``tau == 0``; on the truncated path it holds only the kept
    subspace's triplets, so the result's other singular values are 0. A
    solve creates one hint per call site, so repeated solves make the same
    calls and return the same bits.
    """

    def __init__(self):
        self.basis: np.ndarray | None = None
        self.steps = 1
        self.factors = None

    def _remember(self, factors, tau: float, side: int, fro2) -> None:
        # factors: (left, sigma, right_h) with sigma (n3, m) and right_h (n3, m, n2)
        _, sigma, right_h = factors
        width = min(int((sigma > tau).sum(axis=1).max()) + SUBSPACE_OVERSAMPLE, right_h.shape[1])
        bound = _deflation_bound(sigma[:, :width], tau, fro2)
        if 4 * width <= side and np.all(bound <= tau * tau):
            self.basis = np.ascontiguousarray(right_h[:, :width].swapaxes(1, 2))
        else:
            self.basis = None


def _truncated_svt(batch: np.ndarray, tau: float, basis: np.ndarray, fro2, steps: int):
    """Certified thresholding of ``batch`` from a warm right subspace, or ``None``.

    Subspace iteration (Halko, Martinsson & Tropp, SIAM Rev. 2011): with
    ``A V = Q R`` for the current right basis ``V`` and ``R = L S W^T``, the
    Rayleigh-Ritz triplets ``(s_i, Q l_i, V w_i)`` satisfy ``A v_i = s_i u_i``
    exactly, and their residual ``A^T u_i - s_i v_i = (A^T Q - V R^T) l_i``
    costs no product beyond the step's own ``A^T Q``. The first ``steps - 1``
    power steps skip the SVD of ``R``; from then on every step makes it and
    tests the certificate on every slice:

    - some Ritz value is at or below ``tau`` (Cai, Candes & Shen, SIAM J.
      Optim. 2010); otherwise the rank outgrew the subspace and the call
      gives up;
    - every kept triplet's residual is at most ``RITZ_RESIDUAL_TOL`` times
      the slice's Frobenius norm; otherwise the call takes another step;
    - :func:`_deflation_bound` is at most ``tau^2``, so no singular value
      above ``tau`` lies outside the kept triplets, whatever ``V`` was;
      otherwise the call gives up, as more steps would not shrink the part
      of ``A`` outside ``span(V)``.

    When all three hold, write ``A = U_r S_r V_r^T + B``. ``B^T U_r`` is the
    kept residuals and ``B V_r = 0``, so removing ``E = U_r U_r^T B``
    leaves two blocks orthogonal on both sides, the second of norm at most
    ``||B||_2 <= tau``; ``svt`` of ``A - E`` is exactly the returned
    ``U_r (S_r - tau) V_r^T``. ``svt`` is 1-Lipschitz in the Frobenius norm,
    so the result is within ``||E||_F``, the root-sum-square of the ``r``
    kept residuals, of the full ``svt``.

    Returns ``(factors, steps)``: the Ritz triplets as factors
    ``(Q L, S, W^T V^T)``, laid out like a thin SVD for :func:`spectral_map`,
    and the number of power steps taken; or ``None`` when the call gives up
    or after ``MAX_POWER_STEPS``.
    """
    batch_t = batch.swapaxes(1, 2)
    floor = RITZ_RESIDUAL_TOL * np.sqrt(fro2)
    right = basis
    for step in range(1, MAX_POWER_STEPS + 1):
        left, r = np.linalg.qr(batch @ right)
        back = batch_t @ left
        if step >= steps:
            small_left, sigma, small_right_h = np.linalg.svd(r, full_matrices=False)
            if np.any(sigma[:, -1] > tau):
                return None
            kept = sigma > tau
            off = back - right @ r.swapaxes(1, 2)
            residuals = np.linalg.norm(off @ small_left, axis=1)
            if np.all(np.where(kept, residuals, 0.0).max(axis=1) <= floor):
                if np.any(_deflation_bound(sigma, tau, fro2) > tau * tau):
                    return None
                return (left @ small_left, sigma, small_right_h @ right.swapaxes(1, 2)), step
        right, _ = np.linalg.qr(back)
    return None


def svt(
    a: np.ndarray,
    tau: float,
    u: OrthogonalTransform,
    *,
    hint: SubspaceHint | None = None,
    factors=None,
) -> np.ndarray:
    """Singular-value thresholding under the transform.

    Proximal map of ``tau`` times the transformed nuclear norm: every
    transformed-slice singular value is shrunk by ``tau`` and floored at 0.

    Without ``hint``, or when a slice's shorter side is below
    ``TRUNCATED_MIN_SIDE``, every slice gets a full thin SVD. Otherwise the
    call only needs the few singular triplets above ``tau``: it runs QR-only
    power steps from ``hint.basis``, the previous call's top right singular
    subspace, and accepts the Rayleigh-Ritz triplets of the small ``k x k``
    projection once the certificate of :func:`_truncated_svt` holds on every
    slice. It checks that the kept triplets have converged and, with a
    deterministic bound on the rest of the slice, that no singular value
    above ``tau`` was missed, so an accepted result is within the
    root-sum-square of the kept residuals, ``sqrt(r) * RITZ_RESIDUAL_TOL``
    times the slice's Frobenius norm at most, of the full one. When the hint
    is empty or does not fit, or the certificate fails, the call falls back
    to the full SVD of :func:`_factorize`, split across the CPUs as in
    :func:`slice_svd`. Either way the call leaves its own subspace in the
    hint. Every factorization goes through ``numpy.linalg.svd``. Any given
    hint also receives the factors of the result (see :class:`SubspaceHint`).

    ``factors``, if given, is a thin SVD ``(U, S, Vh)`` of ``a``'s
    transformed slices, values descending per slice, laid out like
    :func:`slice_svd`'s (trailing zero values may be left out). The call
    thresholds it instead of factorizing, and a hint learns from it as from
    a full SVD.
    """
    a = np.asarray(a, dtype=float)
    _check_transform(a, u)
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    if tau == 0:
        if hint is not None:
            hint.factors = None
        return a.copy()

    side = min(a.shape[:2])
    if hint is not None and side >= TRUNCATED_MIN_SIDE:
        batch = np.ascontiguousarray(_slices_first(apply_transform(a, u)))
        fro2 = np.einsum("sij,sij->s", batch, batch)
        if factors is None:
            found = None
            if hint.basis is not None and hint.basis.shape[:2] == (batch.shape[0], batch.shape[2]):
                found = _truncated_svt(batch, tau, hint.basis, fro2, hint.steps)
            if found is None:
                factors = _factorize(batch)
            else:
                factors, hint.steps = found
        hint._remember(factors, tau, side, fro2)
    elif factors is None:
        factors = slice_svd(a, u)
    left, sigma, right_h = factors
    shrunk = (left, np.maximum(sigma - tau, 0.0), right_h)
    if hint is not None:
        hint.factors = shrunk
    return spectral_map(shrunk, lambda s: s, u)
