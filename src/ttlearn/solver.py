"""Outer proximal majorization-minimization loop with a two-block ADMM inner solver.

The target problem is

    min_x  loss(x) + beta * penalty_value(x)   subject to  |x|_inf <= c.

Each outer step linearizes, at the current iterate ``x_t``, the smooth loss
and the smooth part of the DC-split penalty, adds a proximal quadratic
``(rho/2)||x - x_t||²``, and keeps the transformed-nuclear-norm term exactly.
The resulting convex subproblem,

    min_y  (rho/2)||y - v||² + beta*lam*k0*||y||_*   subject to  |y|_inf <= c,

with ``v = x_t - (grad f(x_t) - beta * grad S2(x_t)) / rho``, is split as
``x = m`` and solved by ADMM with closed-form updates: singular-value
thresholding for ``m``, a box projection for ``x``, and a scaled dual ascent
for ``z``. The inner loop stops on a relative KKT residual; the outer loop
stops on the relative step norm.

When ``rho`` clears the descent threshold ``L/(1 - 2*xi)``, for the loss
gradient's Lipschitz constant ``L`` and the admissible inexactness
xi = :data:`XI` = 0.1, each subproblem starts with the exact move: without
the box its minimizer is one thresholding, ``y* = svt(v, beta*lam*k0/rho)``,
so when ``|y*|_inf <= c`` it is the answer, with multiplier
``z* = rho (v - y*)``. When the box binds, the projected move
``(m, x, z) = (y*, project_box(y*), z*)``, the first iterate of Dykstra's
algorithm for the prox of the sum, has ``eta_d`` and ``eta_p`` zero up to
rounding and ``eta_e`` equal to the box's relative move; it is the answer
when that meets ``tol_inner``. Either way the move counts as one inner
iteration, so with ``max_inner > 1`` a descent-checked trace entry with
``inner_iterations == 1`` is an exact step or an accepted projected move.
Otherwise ADMM follows from the projected move, unless the box moves ``y*``
by more than the last outer step moved the iterate; then the previous
subproblem's solution is the nearer start and ADMM warm-starts from it. The
solve starts from ``x0`` projected onto the box.

Above the threshold each step backtracks its own proximal weight
``rho_t <= rho`` (Beck & Teboulle, 2009), and the next step starts lower
only where the kept step's measured curvature allows it (Scheinberg,
Goldfarb & Bai, 2014); below it ``rho`` stays fixed and every step is one
damped ADMM solve. :func:`pmm_solve` gives the rules.
"""
from __future__ import annotations

import warnings
from dataclasses import KW_ONLY, asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .penalties import (
    ParameterError,
    Penalty,
    SubspaceHint,
    dc_smooth_grad,
    penalty_value,
    require_finite,
    slice_svd,
    slice_svd_update,
    svt,
)
from .tensor_ops import as_tensor3, fro_norm, inf_norm, project_box, rank_counts
from .transforms import OrthogonalTransform

# The inner ADMM's weight eta and dual step tau are constants: every documented
# solve runs them, and a solve with rho below the descent threshold ends where
# this damped ADMM leaves it. Two-block ADMM converges for any eta > 0 and tau
# in (0, (1 + sqrt 5)/2), so tau must stay below the golden ratio.
ADMM_ETA = 10.0
ADMM_TAU = 1.618
# The admissible inexactness xi of the subproblem solves is a constant for the
# same reason: every documented solve runs 0.1. The descent rule accepts a
# subproblem output when its model gain is at most (xi - 1/2) rho ||Delta||^2,
# which certifies descent only for 0 < xi < 1/2 and rho above L/(1 - 2 xi).
XI = 0.1
DESCENT_SLACK = 1e-9
FEASIBILITY_SLACK = 1e-12


class SolverError(RuntimeError):
    """Base class for solver failures; carries the trace collected so far."""

    def __init__(self, message: str, trace: "SolveTrace | None" = None):
        super().__init__(message)
        self.trace = trace


class NumericalDivergenceError(SolverError):
    pass


class DescentViolationError(SolverError):
    pass


@dataclass(frozen=True)
class PMMConfig:
    """Outer-loop parameters.

    ``rho`` weights the proximal quadratic, ``beta`` the penalty, ``box_c``
    the infinity-norm constraint; the fields after ``box_c`` are keyword-only.
    ``rho`` must keep ``1/rho`` finite. Monotone descent is guaranteed only
    when ``rho`` exceeds L/(1 - 2*xi), with the subproblems' admissible
    inexactness xi = 0.1 (:data:`XI`) and the loss gradient's Lipschitz
    constant L; the solver warns and skips the descent assertion otherwise,
    and keeps ``rho`` fixed. Above the threshold ``rho`` is the first step
    weight ``rho_0`` and the ceiling of the backtracked ``rho_t`` (see
    :func:`pmm_solve`); :meth:`descent_margin` is the margin of a step
    certified at ``rho`` by the descent rule.
    """

    rho: float
    beta: float
    box_c: float
    _: KW_ONLY
    max_outer: int = 100
    tol_outer: float = 5e-4

    def __post_init__(self):
        if not self.rho > 0:
            raise ParameterError("rho", "must be positive")
        if self.beta < 0:
            raise ParameterError("beta", "must be nonnegative")
        if not self.box_c > 0:
            raise ParameterError("box_c", "must be positive")
        if self.max_outer < 0:
            raise ParameterError("max_outer", "must be nonnegative")
        if not self.tol_outer > 0:
            raise ParameterError("tol_outer", "must be positive")
        require_finite(rho=self.rho, beta=self.beta)
        # the KKT residuals divide by rho, which overflows for a subnormal rho
        if not np.isfinite(1 / self.rho):
            raise ParameterError("rho", "must keep 1/rho finite")

    def rho_threshold(self, lipschitz: float) -> float:
        return lipschitz / (1 - 2 * XI)

    def descent_margin(self, lipschitz: float) -> float:
        return ((1 - 2 * XI) * self.rho - lipschitz) / 2


@dataclass(frozen=True)
class ADMMConfig:
    """Inner stopping rule: ``max_inner`` steps or a relative KKT residual of ``tol_inner``."""

    max_inner: int = 100
    tol_inner: float = 3e-3

    def __post_init__(self):
        if self.max_inner < 1:
            raise ParameterError("max_inner", "must be at least 1")
        if not self.tol_inner > 0:
            raise ParameterError("tol_inner", "must be positive")


@dataclass(frozen=True)
class KKTResiduals:
    """Relative KKT residuals of the inner subproblem (all Frobenius-based)."""

    eta_e: float
    eta_d: float
    eta_p: float

    @property
    def eta_res(self) -> float:
        return max(self.eta_e, self.eta_d, self.eta_p)


@dataclass
class TraceEntry:
    """Record of one outer iteration, built whole by its step; ``objective`` is at the new iterate.

    ``rho`` is the accepted step weight ``rho_t`` and ``trials`` the number of
    weights tried, each with its own exact move (one ADMM solve below the
    descent threshold, where ``rho_t`` is ``--rho``). ``inner_iterations``
    counts those of the accepted trial, one for an exact step or a kept
    projected move. ``exhausted`` says that ``max_inner`` ran out before the
    descent rule held.
    """

    objective: float
    step_norm: float
    rel_step: float
    inner_iterations: int
    kkt_residual: float
    feasible: bool
    rho: float
    trials: int
    exhausted: bool


@dataclass
class SolveTrace:
    """Record of one solve.

    ``descent_margin`` is the least ``a`` with
    ``F(x_{t+1}) + a ||x_{t+1} - x_t||^2 <= F(x_t)`` that every recorded step
    meets (``rho/2`` before any step; 0 when not descent-checked):
    :func:`pmm_solve` derives it for exact steps and steps at ``rho`` and
    measures it for projected moves kept below ``rho``. ``multi_rank`` is
    the final iterate's per-slice rank, counted from the factors the solve
    holds; :meth:`to_dict` leaves it out.
    """

    initial_objective: float
    entries: list[TraceEntry] = field(default_factory=list)
    converged: bool = False
    descent_checked: bool = False
    descent_margin: float = 0.0
    multi_rank: list[int] = field(default_factory=list)

    def objectives(self) -> list[float]:
        return [self.initial_objective] + [e.objective for e in self.entries]

    def to_dict(self) -> dict:
        return {
            "initial_objective": self.initial_objective,
            "outer_iterations": len(self.entries),
            "converged": self.converged,
            "descent_checked": self.descent_checked,
            "descent_margin": self.descent_margin,
            "entries": [asdict(e) for e in self.entries],
        }


def objective_value(
    x: np.ndarray,
    loss,
    pen: Penalty,
    u: OrthogonalTransform,
    cfg: PMMConfig,
    factors=None,
    loss_value: float | None = None,
) -> tuple[float, bool]:
    """Objective ``loss(x) + beta * penalty`` and the box-feasibility flag; see penalty_value.

    ``loss_value`` is ``loss.value(x)`` when the caller has it already.
    """
    if loss_value is None:
        loss_value = loss.value(x)
    value = loss_value + cfg.beta * penalty_value(x, u, pen, factors)
    return value, inf_norm(x) <= cfg.box_c + FEASIBILITY_SLACK


class SubproblemTerms(NamedTuple):
    """The parts of :func:`kkt_residuals` fixed by one outer step's ``x_t``.

    ``slope`` is ``grad f(x_t) - beta * grad S2(x_t)``; the three norms are
    ``||x_t||``, ``||grad f(x_t)||`` and ``beta * ||grad S2(x_t)||``. The
    last two over ``rho`` are, with ``||x_t||``, the constant summands of
    ``eta_p``'s denominator. None depends on ``rho``, so every trial weight
    of an outer step shares them.
    """

    slope: np.ndarray
    norm_xt: float
    norm_grad_f: float
    norm_grad_s2: float


def subproblem_terms(
    xt: np.ndarray, grad_f_xt: np.ndarray, grad_s2_xt: np.ndarray, cfg: PMMConfig
) -> SubproblemTerms:
    """The :class:`SubproblemTerms` of the subproblems at ``xt`` (``cfg`` gives ``beta``)."""
    return SubproblemTerms(
        slope=grad_f_xt - cfg.beta * grad_s2_xt,
        norm_xt=fro_norm(xt),
        norm_grad_f=fro_norm(grad_f_xt),
        norm_grad_s2=cfg.beta * fro_norm(grad_s2_xt),
    )


def kkt_residuals(
    x: np.ndarray,
    m: np.ndarray,
    z: np.ndarray,
    xt: np.ndarray,
    grad_f_xt: np.ndarray,
    grad_s2_xt: np.ndarray,
    pen: Penalty,
    u: OrthogonalTransform,
    cfg: PMMConfig,
    *,
    subgradient: np.ndarray | None = None,
    terms: SubproblemTerms | None = None,
) -> KKTResiduals:
    """Relative KKT residuals of the split subproblem at ``(x, m, z)``.

    ``eta_d`` is ``||m - svt(m + z, beta*lam*k0)||`` over ``1 + ||m|| + ||z||``
    (``lam*k0`` is ``pen.slope``), which takes an SVD. Given a ``subgradient``
    ``w`` with ``m = svt(m + w, beta*lam*k0)``, it is ``||w - z||`` over the same
    denominator instead: ``svt`` is nonexpansive, so that bounds the exact
    value from above without an SVD. ``terms`` are the subproblem's
    :func:`subproblem_terms`, computed here when not given; an inner loop
    passes them so that it computes them once. When ``x is m`` (an exact
    move inside the box) ``eta_e`` is 0.0, and when ``subgradient is z``
    ``eta_d`` is 0.0, the values the zero differences give, without forming
    them.
    """
    if terms is None:
        terms = subproblem_terms(xt, grad_f_xt, grad_s2_xt, cfg)
    norm_m = fro_norm(m)
    norm_z = fro_norm(z)
    eta_e = 0.0 if x is m else fro_norm(m - x) / (1 + norm_m + fro_norm(x))
    rho = cfg.rho
    stationarity_point = xt - (terms.slope + z) / rho
    numerator = fro_norm(x - project_box(stationarity_point, cfg.box_c))
    denominator = (1 + norm_z / rho + terms.norm_xt + terms.norm_grad_f / rho
                   + terms.norm_grad_s2 / rho)
    eta_p = numerator / denominator
    if subgradient is z:
        eta_d = 0.0
    else:
        gap = m - svt(m + z, cfg.beta * pen.slope, u) if subgradient is None else subgradient - z
        eta_d = fro_norm(gap) / (1 + norm_m + norm_z)
    return KKTResiduals(eta_e=eta_e, eta_d=eta_d, eta_p=eta_p)


def admm_subproblem(
    xt: np.ndarray,
    grad_f_xt: np.ndarray,
    grad_s2_xt: np.ndarray,
    pen: Penalty,
    u: OrthogonalTransform,
    pmm_cfg: PMMConfig,
    admm_cfg: ADMMConfig,
    warm: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    *,
    hint: SubspaceHint | None = None,
    exact: bool = False,
    warm_error: float = 0.0,
    terms: SubproblemTerms | None = None,
    factors=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, KKTResiduals, int]:
    """Solve one outer subproblem by two-block ADMM with ``ADMM_ETA`` and ``ADMM_TAU``.

    ADMM starts from a given ``warm = (m, x, z)``, by default zeros for ``m``
    and ``z`` with ``x = xt``. Returns the final ``(x, m, z)``, the last KKT
    residuals, and the iteration count.
    The ``m``-update's ``svt``, with subspace hint ``hint``, is the only SVD
    of an iteration: its subgradient bounds ``eta_d`` (see
    :func:`kkt_residuals`), so a stop also meets the exact residual. Every
    stop test shares one :func:`subproblem_terms` of ``xt``: ``terms`` when
    given, else computed once here.

    With ``exact``, it starts from the exact move instead, its first iteration:
    ``y* = svt(v, beta*lam*k0/rho)`` with the same hint, and ``z* = rho (v - y*)``,
    a subgradient with ``y* = svt(y* + z*, beta*lam*k0)``. When ``y*`` lies in
    the box the call returns ``(y*, y*, z*)``, one object for both primal
    blocks, after that one iteration. Otherwise the move is
    ``(project_box(y*), y*, z*)``: its ``eta_d`` and ``eta_p`` are zero up to
    rounding and ``eta_e`` is the box's relative move, so the call returns it
    after the one iteration when that meets ``tol_inner`` (or ``max_inner`` is
    1). Otherwise ADMM continues from the move, whose error is at least the
    box's move ``||y* - project_box(y*)||``, unless ``warm`` is given and that
    move exceeds ``warm_error``, an estimate of the warm start's distance from
    the answer; then it continues from ``warm``. After one iteration, with
    infinite residuals, it returns a ``v`` with non-finite entries
    (``rho * xt`` overflowed) as all three blocks, before the move's ``svt``,
    and a finite ``v`` whose ``z*`` has an overflowing Frobenius norm (``rho``
    near the float range times the rounding of ``v - y*``) as ``(v, y*, z*)``,
    before :func:`kkt_residuals` squares ``z*``; :func:`pmm_solve` raises
    :class:`NumericalDivergenceError` on both. A direct call outside it may
    warn on these overflows, and returns the same values.

    ``factors``, when given, are thin SVD factors of ``xt``'s transformed
    slices, values descending (:func:`~ttlearn.penalties.slice_svd`'s, or
    the truncated ones :func:`~ttlearn.penalties.svt` leaves). When
    ``grad_f_xt`` has no nonzero entry, ``v = xt + beta * grad S2(xt) / rho``
    is a spectral function of ``xt`` and keeps its singular vectors (Lewis,
    *Math. Oper. Res.* 1996), so the exact move's ``svt`` takes the factors
    ``(U, sigma + beta * s2'(sigma) / rho, V^T)`` instead of an SVD of ``v``;
    the values stay descending since ``s2'`` is nondecreasing.
    """
    rho, beta, c = pmm_cfg.rho, pmm_cfg.beta, pmm_cfg.box_c
    # constant part of the x-update numerator; a rho * xt that overflows leaves a
    # non-finite v, which the exact branch returns for the caller to report
    drift = rho * xt - grad_f_xt + beta * grad_s2_xt
    if terms is None:
        terms = subproblem_terms(xt, grad_f_xt, grad_s2_xt, pmm_cfg)
    first = 1
    if exact:
        v = drift / rho
        if not np.all(np.isfinite(v)):
            # an SVD of non-finite entries need not return; the caller checks the iterate
            return v, v, v, KKTResiduals(np.inf, np.inf, np.inf), 1
        v_factors = None
        if factors is not None and not np.any(grad_f_xt):
            left, sigma, right_h = factors
            v_factors = (left, sigma + beta * pen.s2_prime(sigma) / rho, right_h)
        m = svt(v, beta * pen.slope / rho, u, hint=hint, factors=v_factors)
        z = rho * (v - m)
        if not np.isfinite(fro_norm(z)):
            # rho times the rounding of v - y*: the residuals' norm_z would overflow
            return v, m, z, KKTResiduals(np.inf, np.inf, np.inf), 1
        slack = inf_norm(m) <= c
        # (y*, z*) fixes the x-update at project_box(y*)
        x = m if slack else project_box(m, c)
        residuals = kkt_residuals(
            x, m, z, xt, grad_f_xt, grad_s2_xt, pen, u, pmm_cfg, subgradient=z, terms=terms
        )
        if slack or admm_cfg.max_inner == 1 or residuals.eta_res <= admm_cfg.tol_inner:
            return x, m, z, residuals, 1
        first = 2
    if not exact or (warm is not None and fro_norm(x - m) > warm_error):
        start = warm or (np.zeros_like(xt), xt, np.zeros_like(xt))
        m, x, z = (np.asarray(w, dtype=float) for w in start)

    eta, tau = ADMM_ETA, ADMM_TAU
    threshold = beta * pen.slope / eta
    for iterations in range(first, admm_cfg.max_inner + 1):
        m = svt(x + z / eta, threshold, u, hint=hint)
        # the m-update's optimality condition: m = svt(m + w, beta * lam * k0)
        w = z + eta * (x - m)
        x = project_box((drift + eta * m - z) / (rho + eta), c)
        z = z + tau * eta * (x - m)
        residuals = kkt_residuals(
            x, m, z, xt, grad_f_xt, grad_s2_xt, pen, u, pmm_cfg, subgradient=w, terms=terms
        )
        if residuals.eta_res <= admm_cfg.tol_inner:
            break
    return x, m, z, residuals, iterations


class _Step(NamedTuple):
    """One step of :func:`pmm_solve`: the new iterate, the margin ``a_t`` it meets, its entry."""

    x: np.ndarray
    m: np.ndarray
    z: np.ndarray
    factors: tuple
    loss: float
    margin: float
    entry: TraceEntry


# once per solve, not around each kernel call: an errstate costs about a microsecond
@np.errstate(over="ignore")
def pmm_solve(
    loss,
    pen: Penalty,
    u: OrthogonalTransform,
    pmm_cfg: PMMConfig,
    admm_cfg: ADMMConfig,
    x0: np.ndarray,
) -> tuple[np.ndarray, SolveTrace]:
    """Run the outer loop from ``x0``; returns the final iterate and its trace.

    The loop starts from ``x0`` projected onto the box, so that the first
    descent check compares two feasible points. Gradients of the loss and
    of the smooth penalty part are evaluated once per outer iteration, and
    the :func:`subproblem_terms` that every trial's inner stop tests and the
    descent rule share; the inner solver is warm-started across iterations
    and keeps one :class:`~ttlearn.penalties.SubspaceHint` for the solve.
    Every exact move is handed the iterate's factors, which replace the
    move's SVD when ``grad f(x_t)`` is zero (see :func:`admm_subproblem`):
    at the start of a completion from its observation.

    A step takes one of three paths, each with its own rule and margin, and
    builds its whole :class:`TraceEntry` in ``record``: ``damped_step`` below
    the descent threshold, where ``rho`` stays fixed; above it,
    ``trial_step`` at ``rho_t < rho`` and ``step_at_rho``. Each step's
    ``rho_t`` is seeded at ``rho_0 = rho``; a rejected trial retries at
    ``min(2 rho_t, rho)``. The next step starts at ``rho_t/2`` when the step
    kept its first trial inside the box and its measured curvature
    ``c_t = 2(f(x_{t+1}) - f(x_t) - <grad f(x_t), Delta>)/||Delta||^2`` (0 for
    ``Delta = 0``) is at most ``rho_t/2``: the kept step passes the halved
    weight's own local check, so that weight is not bound to fail at once.
    Otherwise it starts at ``rho_t``. Above the threshold no step may raise the
    objective (beyond 1e-9), and ``descent_margin`` is the least ``a_t`` in
    ``F(x_{t+1}) + a_t ||x_{t+1} - x_t||^2 <= F(x_t)``. With ``Delta = y - x_t``
    and ``gain = <slope, Delta> + weight * (||y||_* - ||x_t||_*)``,
    ``Phi_t(y) - F(x_t) = gain + (rho_t/2)||Delta||^2``, and the convex ``S2``
    lies above its linearization, so ``F(y) <= F(x_t) + gain + (c/2)||Delta||^2``
    whenever ``f(y) <= f(x_t) + <grad f(x_t), Delta> + (c/2)||Delta||^2``.

    Every new iterate is factorized once, for its nuclear norm, its objective
    and the next smooth-part gradient: an exact move reuses the factors its
    ``svt`` left in the hint (truncated factors omit zero singular values,
    which add nothing to the gradient as ``s2'(0) = 0``), and a projected
    move, which differs from ``y*`` where the box clips it, updates them with
    :func:`~ttlearn.penalties.slice_svd_update`; ADMM's outputs, and a
    projected move whose update is refused, get
    :func:`~ttlearn.penalties.slice_svd`. A non-finite iterate, a
    multiplier ``z*`` whose norm overflows (``rho`` near the float range times
    the rounding of ``v - y*``) or an SVD of :func:`admm_subproblem` that
    fails (``LinAlgError``) raises :class:`NumericalDivergenceError`, and so
    does a non-finite objective, initial or after any step, on every path.
    Overflow warns nowhere in the solve: those checks report it.
    """
    x = project_box(as_tensor3(x0), pmm_cfg.box_c)

    lipschitz = loss.lipschitz_constant()
    threshold = pmm_cfg.rho_threshold(lipschitz)
    descent_ok = pmm_cfg.rho > threshold
    if not descent_ok:
        warnings.warn(f"rho={pmm_cfg.rho:g} does not exceed L/(1-2*xi)={threshold:g}; "
                      "descent is not guaranteed", RuntimeWarning)

    factors = slice_svd(x, u)
    loss_x = loss.value(x)
    objective, _ = objective_value(x, loss, pen, u, pmm_cfg, factors, loss_value=loss_x)
    trace = SolveTrace(
        initial_objective=objective,
        descent_checked=descent_ok,
        # no step records a margin above rho/2
        descent_margin=pmm_cfg.rho / 2 if descent_ok else 0.0,
    )
    if not np.isfinite(objective):
        raise NumericalDivergenceError("the initial objective is not finite", trace)
    warm = None
    hint = SubspaceHint()
    weight = pmm_cfg.beta * pen.slope
    # consecutive subproblems differ by about one outer step: the warm start's error
    step_norm = np.inf
    rho_t = pmm_cfg.rho

    def subproblem(cfg, budget, start, exact):
        try:
            out = admm_subproblem(x, grad_f, grad_s2, pen, u, cfg, budget, start, hint=hint,
                                  exact=exact, warm_error=step_norm, terms=terms, factors=factors)
        except np.linalg.LinAlgError as exc:
            raise NumericalDivergenceError(f"the subproblem's SVD failed: {exc}", trace) from exc
        if not np.all(np.isfinite(out[0])):
            raise NumericalDivergenceError("iterate contains non-finite entries", trace)
        if not np.isfinite(out[3].eta_res):
            raise NumericalDivergenceError("the subproblem's multiplier overflows", trace)
        return out

    def factorize(x_new, m, exact_move):
        # an exact move returns m itself, whose factors svt left in the hint, or
        # project_box(m), which updates them where the box clips few rows and
        # columns; ADMM's outputs, dense changes of m, are not tried
        if exact_move and hint.factors is not None:
            if x_new is m:
                return hint.factors
            updated = slice_svd_update(hint.factors, x_new - m, u)
            if updated is not None:
                return updated
        return slice_svd(x_new, u)

    def gain(delta, new_factors):
        return np.vdot(terms.slope, delta) + weight * (new_factors[1].sum() - nuclear)

    def record(x_new, m, z, new_factors, loss_new, norm, residuals, inner, margin, exhausted=False):
        new_objective, feasible = objective_value(x_new, loss, pen, u, pmm_cfg, new_factors,
                                                  loss_value=loss_new)
        if terms.norm_xt > 0:
            rel_step = norm / terms.norm_xt
        else:
            rel_step = 0.0 if norm == 0 else float("inf")
        entry = TraceEntry(
            objective=new_objective, step_norm=norm, rel_step=rel_step, inner_iterations=inner,
            kkt_residual=residuals.eta_res, feasible=feasible, rho=rho_t, trials=trials,
            exhausted=exhausted)
        return _Step(x_new, m, z, new_factors, loss_new, margin, entry)

    def damped_step():
        """One damped ADMM solve at the fixed ``rho``; nothing certifies it, so its margin is 0."""
        x_new, m, z, residuals, inner = subproblem(pmm_cfg, admm_cfg, warm, False)
        return record(x_new, m, z, slice_svd(x_new, u), loss.value(x_new),
                      fro_norm(x_new - x), residuals, inner, 0.0)

    def trial_step(rho_t):
        """The exact move of :func:`admm_subproblem` alone at ``rho_t < rho``, or ``None``.

        A kept trial meets the local check (Beck & Teboulle, 2009)
        ``f(y) <= f(x_t) + <grad f(x_t), Delta> + (rho_t/2)||Delta||^2``, so
        ``c = rho_t``. An exact move inside the box minimizes the strongly
        convex model ``gain + (rho_t/2)||Delta||^2``, 0 at ``x_t``, so
        ``gain <= -rho_t ||Delta||^2`` and ``a_t = rho_t/2``; a truncated
        ``svt`` is only near the exact move, so that bound is checked (plus
        1e-9). A move that binds the box returns ``y = project_box(y*)``, which
        no bound covers: it is kept when it meets the inner stop test, the
        local check and ``F(y) + (rho_t/2)||Delta||^2 <= F(x_t)`` (plus 1e-9),
        so its ``a_t = rho_t/2`` is measured; a failed cheap test costs no SVD.
        """
        cfg_t = replace(pmm_cfg, rho=rho_t)
        one_move = replace(admm_cfg, max_inner=1)
        x_new, m, z, residuals, inner = subproblem(cfg_t, one_move, warm, True)
        inside = x_new is m
        # a binding move must meet the inner stop test that accepts it at rho
        if not (inside or residuals.eta_res <= admm_cfg.tol_inner):
            return None
        delta = x_new - x
        norm = fro_norm(delta)
        loss_new = loss.value(x_new)
        if not loss_new <= loss_x + np.vdot(grad_f, delta) + rho_t / 2 * norm**2:
            return None
        new_factors = factorize(x_new, m, exact_move=True)
        if inside and not gain(delta, new_factors) <= -rho_t * norm**2 + DESCENT_SLACK:
            return None
        step = record(x_new, m, z, new_factors, loss_new, norm, residuals, inner, rho_t / 2)
        measured = step.entry.objective + rho_t / 2 * norm**2 <= objective + DESCENT_SLACK
        return step if inside or measured else None

    def step_at_rho():
        """The exact move, then ADMM where the box binds, under the descent rule.

        An output is accepted when ``gain <= (xi - 1/2) rho ||Delta||^2``
        (plus 1e-9, ``xi`` = :data:`XI`), i.e.
        ``Phi_t(y) - F(x_t) <= xi * rho * ||Delta||^2``; otherwise ADMM
        resumes where it stopped, within what is left of ``max_inner``. With
        ``c = L`` the rule gives ``a_t = ((1 - 2 xi) rho - L)/2``
        (:meth:`PMMConfig.descent_margin`), and an exact move that meets
        ``gain <= -rho ||Delta||^2`` gets ``rho/2`` as in ``trial_step``. A
        step whose ``max_inner`` runs out first is ``exhausted``: only the
        monotone assertion holds, and ``a_t = 0``.
        """
        budget, start, inner = admm_cfg, warm, 0
        while True:
            x_new, m, z, residuals, steps = subproblem(pmm_cfg, budget, start, inner == 0)
            inner += steps
            delta = x_new - x
            norm = fro_norm(delta)
            # only the first call's one iteration is the exact move
            new_factors = factorize(x_new, m, exact_move=inner == 1)
            step_gain = gain(delta, new_factors)
            if step_gain <= (XI - 0.5) * pmm_cfg.rho * norm**2 + DESCENT_SLACK:
                break
            if inner >= admm_cfg.max_inner:
                return record(x_new, m, z, new_factors, loss.value(x_new), norm, residuals,
                              inner, 0.0, exhausted=True)
            budget = replace(admm_cfg, max_inner=admm_cfg.max_inner - inner)
            start = (m, x_new, z)
        exact = x_new is m and step_gain <= -pmm_cfg.rho * norm**2 + DESCENT_SLACK
        margin = pmm_cfg.rho / 2 if exact else pmm_cfg.descent_margin(lipschitz)
        return record(x_new, m, z, new_factors, loss.value(x_new), norm, residuals, inner, margin)

    for _ in range(pmm_cfg.max_outer):
        grad_f = loss.grad(x)
        grad_s2 = dc_smooth_grad(x, u, pen, factors)
        terms = subproblem_terms(x, grad_f, grad_s2, pmm_cfg)
        nuclear = factors[1].sum()
        trials = 1
        while descent_ok and rho_t < pmm_cfg.rho:
            step = trial_step(rho_t)
            if step is not None:
                break
            rho_t = min(2 * rho_t, pmm_cfg.rho)
            trials += 1
        else:
            step = step_at_rho() if descent_ok else damped_step()

        if not np.isfinite(step.entry.objective):
            raise NumericalDivergenceError("the objective is not finite", trace)
        if descent_ok and step.entry.objective > objective + DESCENT_SLACK:
            increase = step.entry.objective - objective
            raise DescentViolationError(f"objective increased by {increase:.3e}", trace)
        trace.descent_margin = min(trace.descent_margin, step.margin)
        trace.entries.append(step.entry)
        # an exact move kept inside the box at the first trial (a damped step
        # never returns m itself) that passes the halved weight's local check,
        # i.e. its curvature c_t is at most rho_t/2: the next step tries half
        # the weight
        if trials == 1 and step.x is step.m:
            linear = loss_x + np.vdot(grad_f, step.x - x)
            if step.loss <= linear + rho_t / 4 * step.entry.step_norm**2:
                rho_t /= 2
        x, factors, loss_x, objective = step.x, step.factors, step.loss, step.entry.objective
        warm, step_norm = (step.m, step.x, step.z), step.entry.step_norm
        if step.entry.rel_step <= pmm_cfg.tol_outer:
            trace.converged = True
            break
    trace.multi_rank = rank_counts(factors[1]).tolist()
    return x, trace
