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

When ``rho`` clears the descent threshold, each subproblem starts with the
exact move: without the box its minimizer is one thresholding,
``y* = svt(v, beta*lam*k0/rho)``, so when ``|y*|_inf <= c`` it is the answer,
with multiplier ``z* = rho (v - y*)``. When the box binds, the projected move
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
"""
from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, replace
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
    the infinity-norm constraint, ``xi`` the admissible inexactness of the
    subproblem solves (must lie in (0, 1/2)). Monotone descent is guaranteed
    only when ``rho`` exceeds L/(1 - 2*xi) for the loss gradient's Lipschitz
    constant L; the solver warns and skips the descent assertion otherwise.
    """

    rho: float
    beta: float
    box_c: float
    xi: float = 0.1
    max_outer: int = 100
    tol_outer: float = 5e-4

    def __post_init__(self):
        if not self.rho > 0:
            raise ParameterError("rho", "must be positive")
        if self.beta < 0:
            raise ParameterError("beta", "must be nonnegative")
        if not self.box_c > 0:
            raise ParameterError("box_c", "must be positive")
        if not 0 < self.xi < 0.5:
            raise ParameterError("xi", "must lie in (0, 1/2)")
        if self.max_outer < 0:
            raise ParameterError("max_outer", "must be nonnegative")
        if not self.tol_outer > 0:
            raise ParameterError("tol_outer", "must be positive")
        require_finite(rho=self.rho, beta=self.beta)

    def rho_threshold(self, lipschitz: float) -> float:
        return lipschitz / (1 - 2 * self.xi)

    def descent_margin(self, lipschitz: float) -> float:
        return ((1 - 2 * self.xi) * self.rho - lipschitz) / 2


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
    """Record of one outer iteration; ``objective`` is taken at the new iterate."""

    objective: float
    step_norm: float
    rel_step: float
    inner_iterations: int
    kkt_residual: float
    feasible: bool


@dataclass
class SolveTrace:
    """Record of one solve.

    ``multi_rank`` is the final iterate's per-slice rank, counted from the
    factors the solve holds; :meth:`to_dict` leaves it out.
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
) -> tuple[float, bool]:
    """Objective ``loss(x) + beta * penalty`` and the box-feasibility flag; see penalty_value."""
    value = loss.value(x) + cfg.beta * penalty_value(x, u, pen, factors)
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
    the answer; then it continues from ``warm``.
    """
    rho, beta, c = pmm_cfg.rho, pmm_cfg.beta, pmm_cfg.box_c
    # constant part of the x-update numerator
    drift = rho * xt - grad_f_xt + beta * grad_s2_xt
    if terms is None:
        terms = subproblem_terms(xt, grad_f_xt, grad_s2_xt, pmm_cfg)
    first = 1
    if exact:
        v = drift / rho
        m = svt(v, beta * pen.slope / rho, u, hint=hint)
        z = rho * (v - m)
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
    of the smooth penalty part, and the :func:`subproblem_terms` that every
    inner stop test and the descent rule share, are evaluated once per outer
    iteration; the inner solver is warm-started across iterations and keeps
    one :class:`~ttlearn.penalties.SubspaceHint` for the solve.
    When ``rho`` clears the descent threshold, each subproblem starts with
    the exact move of :func:`admm_subproblem`, and an output ``y`` is
    accepted only when ``Phi_t(y) - F(x_t) <= xi * rho * ||y - x_t||^2``
    (plus 1e-9 slack), which by majorization gives the sufficient-descent
    inequality with ``descent_margin``; otherwise ADMM resumes where it
    stopped, within what is left of ``max_inner``. Every step is then
    asserted to not increase the objective (beyond the same slack). Every
    new iterate is factorized once, for its nuclear norm, its objective and
    the next smooth-part gradient: an exact step reuses the factors its
    ``svt`` left in the hint (truncated factors omit zero singular values,
    which add nothing to the gradient as ``s2'(0) = 0``); any other iterate
    gets :func:`~ttlearn.penalties.slice_svd`.
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
    objective, _ = objective_value(x, loss, pen, u, pmm_cfg, factors)
    trace = SolveTrace(
        initial_objective=objective,
        descent_checked=descent_ok,
        descent_margin=pmm_cfg.descent_margin(lipschitz) if descent_ok else 0.0,
    )
    warm = None
    hint = SubspaceHint()
    weight = pmm_cfg.beta * pen.slope
    # consecutive subproblems differ by about one outer step: the warm start's error
    step_norm = np.inf

    for _ in range(pmm_cfg.max_outer):
        grad_f = loss.grad(x)
        grad_s2 = dc_smooth_grad(x, u, pen, factors)
        # Phi_t(y) - F(x_t) is (rho/2)||y - x_t||^2 plus the gain
        # <slope, y - x_t> + weight * (||y||_* - ||x_t||_*)
        terms = subproblem_terms(x, grad_f, grad_s2, pmm_cfg)
        nuclear = factors[1].sum()
        budget, inner, exact = admm_cfg, 0, descent_ok
        while True:
            x_new, m, z, residuals, steps = admm_subproblem(
                x, grad_f, grad_s2, pen, u, pmm_cfg, budget, warm,
                hint=hint, exact=exact, warm_error=step_norm, terms=terms,
            )
            inner += steps
            warm = (m, x_new, z)
            if not np.all(np.isfinite(x_new)):
                raise NumericalDivergenceError("iterate contains non-finite entries", trace)
            step_norm = fro_norm(x_new - x)
            # only an exact step returns m itself, whose factors svt left in the hint
            if x_new is m and hint.factors is not None:
                factors = hint.factors
            else:
                factors = slice_svd(x_new, u)
            gain = np.vdot(terms.slope, x_new - x) + weight * (factors[1].sum() - nuclear)
            bound = (pmm_cfg.xi - 0.5) * pmm_cfg.rho * step_norm**2 + DESCENT_SLACK
            if not descent_ok or inner >= admm_cfg.max_inner or gain <= bound:
                break
            budget, exact = replace(admm_cfg, max_inner=admm_cfg.max_inner - inner), False

        norm_x = fro_norm(x)
        if norm_x > 0:
            rel_step = step_norm / norm_x
        else:
            rel_step = 0.0 if step_norm == 0 else float("inf")

        new_objective, feasible = objective_value(x_new, loss, pen, u, pmm_cfg, factors)
        if descent_ok and new_objective > objective + DESCENT_SLACK:
            raise DescentViolationError(
                f"objective increased by {new_objective - objective:.3e}", trace
            )
        trace.entries.append(
            TraceEntry(
                objective=new_objective,
                step_norm=step_norm,
                rel_step=rel_step,
                inner_iterations=inner,
                kkt_residual=residuals.eta_res,
                feasible=feasible,
            )
        )
        x, objective = x_new, new_objective
        if rel_step <= pmm_cfg.tol_outer:
            trace.converged = True
            break
    trace.multi_rank = rank_counts(factors[1]).tolist()
    return x, trace
