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

Above the threshold the proximal weight is local: each step has its own
``rho_t``, seeded at ``rho`` and never above it. Below ``rho`` a trial is
the exact move alone. Its loss must meet the quadratic upper model with
weight ``rho_t`` (Beck & Teboulle, 2009). A move inside the box must also
gain on its model what an exact move provably does. A move that binds the
box is kept at its projected move when that meets ``tol_inner`` and its
measured objective has fallen by ``(rho_t/2)||Delta||^2``. Otherwise
``rho_t`` doubles. At ``rho_t = rho`` a step takes the path above. A step
whose first trial is kept inside the box halves the next step's ``rho_t``.
Below the threshold ``rho`` stays fixed and every step is one ADMM solve.
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
    """Record of one outer iteration; ``objective`` is taken at the new iterate.

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
    """The parts of :func:`kkt_residuals` fixed by one subproblem's ``x_t``.

    ``slope`` is ``grad f(x_t) - beta * grad S2(x_t)``; the three norms are
    ``||x_t||``, ``||grad f(x_t)|| / rho`` and ``beta * ||grad S2(x_t)|| / rho``,
    the constant summands of ``eta_p``'s denominator.
    """

    slope: np.ndarray
    norm_xt: float
    grad_f_term: float
    grad_s2_term: float


def subproblem_terms(
    xt: np.ndarray, grad_f_xt: np.ndarray, grad_s2_xt: np.ndarray, cfg: PMMConfig
) -> SubproblemTerms:
    """The :class:`SubproblemTerms` of the subproblem at ``xt``."""
    return SubproblemTerms(
        slope=grad_f_xt - cfg.beta * grad_s2_xt,
        norm_xt=fro_norm(xt),
        grad_f_term=fro_norm(grad_f_xt) / cfg.rho,
        grad_s2_term=cfg.beta * fro_norm(grad_s2_xt) / cfg.rho,
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
    passes them so that it computes them once.
    """
    if terms is None:
        terms = subproblem_terms(xt, grad_f_xt, grad_s2_xt, cfg)
    norm_m = fro_norm(m)
    norm_x = fro_norm(x)
    norm_z = fro_norm(z)
    eta_e = fro_norm(m - x) / (1 + norm_m + norm_x)
    rho = cfg.rho
    stationarity_point = xt - (terms.slope + z) / rho
    numerator = fro_norm(x - project_box(stationarity_point, cfg.box_c))
    denominator = 1 + norm_z / rho + terms.norm_xt + terms.grad_f_term + terms.grad_s2_term
    eta_p = numerator / denominator
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
    the answer; then it continues from ``warm``. A ``v`` with non-finite
    entries (``rho * xt`` overflowed) is returned as is, as all three blocks
    with infinite residuals after one iteration, without the move's ``svt``:
    like any non-finite iterate, the caller reports it (:func:`pmm_solve`
    raises :class:`NumericalDivergenceError`). A finite ``v`` whose ``z*``
    has a Frobenius norm that overflows (``rho`` near the float range times
    the rounding of ``v - y*``) comes back as ``(v, y*, z*)`` with infinite
    residuals, before :func:`kkt_residuals` squares ``z*``.
    """
    rho, beta, c = pmm_cfg.rho, pmm_cfg.beta, pmm_cfg.box_c
    # constant part of the x-update numerator
    drift = rho * xt - grad_f_xt + beta * grad_s2_xt
    if terms is None:
        terms = subproblem_terms(xt, grad_f_xt, grad_s2_xt, pmm_cfg)
    first = 1
    if exact:
        v = drift / rho
        if not np.all(np.isfinite(v)):
            # an SVD of non-finite entries need not return; the caller checks the iterate
            return v, v, v, KKTResiduals(np.inf, np.inf, np.inf), 1
        m = svt(v, beta * pen.slope / rho, u, hint=hint)
        z = rho * (v - m)
        with np.errstate(over="ignore"):
            overflow = not np.isfinite(fro_norm(z))
        if overflow:
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
        m, x, z = (np.asarray(w, dtype=float).copy() for w in start)

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
    the :func:`subproblem_terms` that every inner stop test and the descent
    rule share once per trial; the inner solver is warm-started across
    iterations and keeps one :class:`~ttlearn.penalties.SubspaceHint` for the
    solve.

    Below the descent threshold every step is one damped ADMM solve at the
    fixed ``rho``. Above it, each step has its own weight ``rho_t``, seeded
    at ``rho_0 = rho`` and never above ``rho``. A trial at ``rho_t < rho`` is
    the exact move of :func:`admm_subproblem` alone (``max_inner`` 1). Every
    kept trial meets the local check
    ``f(y) <= f(x_t) + <grad f(x_t), y - x_t> + (rho_t/2)||y - x_t||^2``
    (Beck & Teboulle, 2009). A move inside the box is kept when it also
    meets ``gain <= -rho_t ||y - x_t||^2`` (plus 1e-9 slack; see below). A
    move that binds the box returns the projected move
    ``y = project_box(y*)``; it is kept when it meets the inner stop test
    ``eta_res <= tol_inner``, the local check, and
    ``F(y) + (rho_t/2)||y - x_t||^2 <= F(x_t)`` (plus 1e-9), with ``F(y)``
    from one :func:`~ttlearn.penalties.slice_svd` of ``y``. The two cheap
    tests come first, so a trial that fails them makes no SVD; a kept
    trial's factors and ``F(y)`` are the new iterate's. Otherwise ``rho_t``
    becomes ``min(2 rho_t, rho)`` and the step tries again. At ``rho_t = rho`` a step
    starts with the exact move and ADMM continues where the box binds; an
    output ``y`` is accepted only when
    ``Phi_t(y) - F(x_t) <= xi * rho * ||y - x_t||^2`` (plus 1e-9 slack, with
    ``xi`` = :data:`XI` = 0.1),
    otherwise ADMM resumes where it stopped, within what is left of
    ``max_inner``. The next step starts at ``rho_t/2`` when this step kept
    its first trial inside the box, else at ``rho_t``. Every step is then
    asserted to not increase the objective (beyond the same slack).

    ``descent_margin`` is the least margin ``a_t`` in
    ``F(x_{t+1}) + a_t ||x_{t+1} - x_t||^2 <= F(x_t)`` that a recorded step
    provably meets. With ``Delta = y - x_t`` and ``gain`` as below,
    ``F(y) <= F(x_t) + gain + (c/2)||Delta||^2`` whenever
    ``f(y) <= f(x_t) + <grad f(x_t), Delta> + (c/2)||Delta||^2``, because
    ``S2`` is convex, so its linearization at ``x_t`` minorizes it. An exact
    step minimizes
    the ``rho_t``-strongly convex model ``gain + (rho_t/2)||Delta||^2``, whose
    value at ``x_t`` is 0, so ``gain <= -rho_t ||Delta||^2``; with ``c = rho_t``
    from the local check, or ``c = L <= rho`` at ``rho_t = rho``, it meets
    ``a_t = rho_t/2``. A truncated ``svt`` is only near the exact move, so
    the solve checks that bound on the gain and records ``rho_t/2`` only for
    an exact step that meets it. No such bound covers a projected move below
    ``rho``: its margin ``a_t = rho_t/2`` is measured, not derived, by the
    test on ``F(y)`` that keeps it. Any other step at ``rho`` meets the descent
    rule ``gain <= (xi - 1/2) rho ||Delta||^2`` and ``c = L``, so
    ``a_t = ((1 - 2 xi) rho - L)/2`` (:meth:`PMMConfig.descent_margin`),
    unless ``max_inner`` ran out first (``exhausted``); then only the
    monotone assertion holds and ``a_t = 0``.

    Every new iterate is factorized once, for its nuclear norm, its objective
    and the next smooth-part gradient: an exact step reuses the factors its
    ``svt`` left in the hint (truncated factors omit zero singular values,
    which add nothing to the gradient as ``s2'(0) = 0``); any other iterate
    gets :func:`~ttlearn.penalties.slice_svd`. Its loss value serves both
    the local check and the objective. A failed trial's arrays and factors
    are dropped before the next trial's SVD.
    A multiplier ``z*`` whose norm overflows (``rho`` near the float range
    times the rounding of ``v - y*``) raises
    :class:`NumericalDivergenceError` before any residual is formed.
    """
    x = project_box(as_tensor3(x0), pmm_cfg.box_c)

    lipschitz = loss.lipschitz_constant()
    descent_ok = pmm_cfg.rho > pmm_cfg.rho_threshold(lipschitz)
    if not descent_ok:
        warnings.warn(
            f"rho={pmm_cfg.rho:g} does not exceed L/(1-2*xi)="
            f"{pmm_cfg.rho_threshold(lipschitz):g}; descent is not guaranteed",
            RuntimeWarning,
        )

    factors = slice_svd(x, u)
    loss_x = loss.value(x)
    objective, _ = objective_value(x, loss, pen, u, pmm_cfg, factors, loss_value=loss_x)
    trace = SolveTrace(
        initial_objective=objective,
        descent_checked=descent_ok,
        # no step records a margin above rho/2
        descent_margin=pmm_cfg.rho / 2 if descent_ok else 0.0,
    )
    warm = None
    hint = SubspaceHint()
    weight = pmm_cfg.beta * pen.slope
    # consecutive subproblems differ by about one outer step: the warm start's error
    step_norm = np.inf
    rho_t = pmm_cfg.rho

    for _ in range(pmm_cfg.max_outer):
        grad_f = loss.grad(x)
        grad_s2 = dc_smooth_grad(x, u, pen, factors)
        nuclear = factors[1].sum()
        trials = inner = 0
        exhausted = False
        while True:
            local = descent_ok and rho_t < pmm_cfg.rho
            if inner == 0:
                trials += 1
                cfg_t = replace(pmm_cfg, rho=rho_t) if local else pmm_cfg
                terms = subproblem_terms(x, grad_f, grad_s2, cfg_t)
                budget = replace(admm_cfg, max_inner=1) if local else admm_cfg
            x_new, m, z, residuals, steps = admm_subproblem(
                x, grad_f, grad_s2, pen, u, cfg_t, budget, warm,
                hint=hint, exact=descent_ok and inner == 0, warm_error=step_norm, terms=terms,
            )
            if not np.all(np.isfinite(x_new)):
                raise NumericalDivergenceError("iterate contains non-finite entries", trace)
            if not np.isfinite(residuals.eta_res):
                raise NumericalDivergenceError("the subproblem's multiplier overflows", trace)
            delta = x_new - x
            if local:
                inside = x_new is m
                # a binding move must meet the inner stop test that accepts it at rho
                kept = inside or residuals.eta_res <= admm_cfg.tol_inner
                if kept:
                    loss_new = loss.value(x_new)
                    square = fro_norm(delta) ** 2
                    kept = loss_new <= loss_x + np.vdot(grad_f, delta) + rho_t / 2 * square
                if kept:
                    reuse = inside and hint.factors is not None
                    factors = hint.factors if reuse else slice_svd(x_new, u)
                if kept and inside:
                    gain = np.vdot(terms.slope, delta) + weight * (factors[1].sum() - nuclear)
                    # an exact svt gives gain <= -rho_t ||Delta||^2; a truncated one may not
                    kept = gain <= -rho_t * square + DESCENT_SLACK
                if kept:
                    new_objective, feasible = objective_value(
                        x_new, loss, pen, u, pmm_cfg, factors, loss_value=loss_new
                    )
                    # no bound covers a projected move: its margin is measured
                    kept = inside or new_objective + rho_t / 2 * square <= objective + DESCENT_SLACK
                if not kept:
                    # free the failed trial's arrays before the next trial's SVD
                    x_new = m = z = delta = factors = None
                    rho_t = min(2 * rho_t, pmm_cfg.rho)
                    continue
            inner += steps
            warm = (m, x_new, z)
            step_norm = fro_norm(delta)
            if local:
                break
            # only an exact step returns m itself, whose factors svt left in the hint
            if x_new is m and hint.factors is not None:
                factors = hint.factors
            else:
                factors = slice_svd(x_new, u)
            if not descent_ok:
                break
            # Phi_t(y) - F(x_t) is (rho/2)||y - x_t||^2 plus the gain
            # <slope, y - x_t> + weight * (||y||_* - ||x_t||_*)
            gain = np.vdot(terms.slope, delta) + weight * (factors[1].sum() - nuclear)
            if gain <= (XI - 0.5) * pmm_cfg.rho * step_norm**2 + DESCENT_SLACK:
                break
            if inner >= admm_cfg.max_inner:
                exhausted = True
                break
            budget = replace(admm_cfg, max_inner=admm_cfg.max_inner - inner)
        if not local:
            loss_new = loss.value(x_new)
            new_objective, feasible = objective_value(
                x_new, loss, pen, u, pmm_cfg, factors, loss_value=loss_new
            )

        norm_x = fro_norm(x)
        if norm_x > 0:
            rel_step = step_norm / norm_x
        else:
            rel_step = 0.0 if step_norm == 0 else float("inf")

        if descent_ok:
            if new_objective > objective + DESCENT_SLACK:
                raise DescentViolationError(
                    f"objective increased by {new_objective - objective:.3e}", trace
                )
            if local or (x_new is m and gain <= -rho_t * step_norm**2 + DESCENT_SLACK):
                margin = rho_t / 2
            else:
                margin = 0.0 if exhausted else pmm_cfg.descent_margin(lipschitz)
            trace.descent_margin = min(trace.descent_margin, margin)
        trace.entries.append(
            TraceEntry(
                objective=new_objective,
                step_norm=step_norm,
                rel_step=rel_step,
                inner_iterations=inner,
                kkt_residual=residuals.eta_res,
                feasible=feasible,
                rho=rho_t,
                trials=trials,
                exhausted=exhausted,
            )
        )
        # a first trial kept inside the box: the next step tries half the weight
        if descent_ok and trials == 1 and x_new is m:
            rho_t /= 2
        x, objective, loss_x = x_new, new_objective, loss_new
        if rel_step <= pmm_cfg.tol_outer:
            trace.converged = True
            break
    trace.multi_rank = rank_counts(factors[1]).tolist()
    return x, trace
