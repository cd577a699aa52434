"""Outer proximal majorization-minimization loop with a two-block ADMM inner solver.

The target problem is

    min_x  loss(x) + beta * penalty_value(x)   subject to  |x|_inf <= c.

Each outer step linearizes, at the current iterate ``x_t``, the smooth loss
and the smooth part of the DC-split penalty, adds a proximal quadratic
``(rho/2)||x - x_t||²``, and keeps the transformed-nuclear-norm term exactly.
The resulting convex subproblem is split as ``x = m`` and solved by ADMM with
closed-form updates: singular-value thresholding for ``m``, a box projection
for ``x``, and a scaled dual ascent for ``z``. The inner loop stops on a
relative KKT residual; the outer loop stops on the relative step norm.
"""
from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .penalties import ParameterError, Penalty, dc_smooth_grad, penalty_value, svt
from .tensor_ops import fro_norm, inf_norm, project_box
from .transforms import OrthogonalTransform

GOLDEN_STEP_LIMIT = (1 + np.sqrt(5)) / 2
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

    def rho_threshold(self, lipschitz: float) -> float:
        return lipschitz / (1 - 2 * self.xi)

    def descent_margin(self, lipschitz: float) -> float:
        return ((1 - 2 * self.xi) * self.rho - lipschitz) / 2


@dataclass(frozen=True)
class ADMMConfig:
    """Inner-loop parameters: augmented-Lagrangian weight, dual step scale, limits."""

    eta: float = 10.0
    tau: float = 1.618
    max_inner: int = 100
    tol_inner: float = 3e-3

    def __post_init__(self):
        if not self.eta > 0:
            raise ParameterError("eta", "must be positive")
        if not 0 < self.tau < GOLDEN_STEP_LIMIT:
            raise ParameterError("tau", f"must lie in (0, {GOLDEN_STEP_LIMIT:.9f})")
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
    initial_objective: float
    entries: list[TraceEntry] = field(default_factory=list)
    converged: bool = False
    descent_checked: bool = False
    descent_margin: float = 0.0

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
) -> tuple[float, bool]:
    """Objective ``loss(x) + beta * penalty`` and the box-feasibility flag."""
    value = loss.value(x) + cfg.beta * penalty_value(x, u, pen)
    return value, inf_norm(x) <= cfg.box_c + FEASIBILITY_SLACK


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
) -> KKTResiduals:
    """Relative KKT residuals of the split subproblem at ``(x, m, z)``."""
    norm_m = fro_norm(m)
    norm_x = fro_norm(x)
    norm_z = fro_norm(z)
    eta_e = fro_norm(m - x) / (1 + norm_m + norm_x)
    eta_d = fro_norm(m - svt(m + z, cfg.beta * pen.lam, u)) / (1 + norm_m + norm_z)
    rho = cfg.rho
    stationarity_point = xt - (grad_f_xt - cfg.beta * grad_s2_xt + z) / rho
    numerator = fro_norm(x - project_box(stationarity_point, cfg.box_c))
    denominator = (
        1
        + norm_z / rho
        + fro_norm(xt)
        + fro_norm(grad_f_xt) / rho
        + cfg.beta * fro_norm(grad_s2_xt) / rho
    )
    return KKTResiduals(eta_e=eta_e, eta_d=eta_d, eta_p=numerator / denominator)


def admm_subproblem(
    xt: np.ndarray,
    grad_f_xt: np.ndarray,
    grad_s2_xt: np.ndarray,
    pen: Penalty,
    u: OrthogonalTransform,
    pmm_cfg: PMMConfig,
    admm_cfg: ADMMConfig,
    warm: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, KKTResiduals, int]:
    """Solve one outer subproblem by two-block ADMM.

    ``warm`` carries ``(m, x, z)`` from the previous outer iteration; the
    default start is zeros for ``m`` and ``z`` with ``x = xt``. Returns the
    final ``(x, m, z)``, the last KKT residuals, and the iteration count.
    """
    rho, beta, c = pmm_cfg.rho, pmm_cfg.beta, pmm_cfg.box_c
    eta, tau = admm_cfg.eta, admm_cfg.tau
    if warm is None:
        m = np.zeros_like(xt)
        x = xt.copy()
        z = np.zeros_like(xt)
    else:
        m, x, z = (np.asarray(w, dtype=float).copy() for w in warm)

    # constant part of the x-update numerator
    drift = rho * xt - grad_f_xt + beta * grad_s2_xt
    threshold = beta * pen.lam / eta
    for iterations in range(1, admm_cfg.max_inner + 1):
        m = svt(x + z / eta, threshold, u)
        x = project_box((drift + eta * m - z) / (rho + eta), c)
        z = z + tau * eta * (x - m)
        residuals = kkt_residuals(x, m, z, xt, grad_f_xt, grad_s2_xt, pen, u, pmm_cfg)
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

    Gradients of the loss and of the smooth penalty part are evaluated once
    per outer iteration; the inner solver is warm-started across iterations.
    When ``rho`` clears the descent threshold, every step is asserted to not
    increase the objective (beyond 1e-9 slack).
    """
    x = np.array(x0, dtype=float)
    if x.ndim != 3:
        raise ValueError("x0 must be a third-order tensor")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 contains non-finite entries")

    lipschitz = loss.lipschitz_constant()
    descent_ok = pmm_cfg.rho > pmm_cfg.rho_threshold(lipschitz)
    if not descent_ok:
        warnings.warn(
            f"rho={pmm_cfg.rho:g} does not exceed L/(1-2*xi)="
            f"{pmm_cfg.rho_threshold(lipschitz):g}; descent is not guaranteed",
            RuntimeWarning,
        )

    objective, _ = objective_value(x, loss, pen, u, pmm_cfg)
    trace = SolveTrace(
        initial_objective=objective,
        descent_checked=descent_ok,
        descent_margin=pmm_cfg.descent_margin(lipschitz) if descent_ok else 0.0,
    )
    warm = (np.zeros_like(x), x.copy(), np.zeros_like(x))

    for _ in range(pmm_cfg.max_outer):
        grad_f = loss.grad(x)
        grad_s2 = dc_smooth_grad(x, u, pen)
        x_new, m, z, residuals, inner = admm_subproblem(
            x, grad_f, grad_s2, pen, u, pmm_cfg, admm_cfg, warm
        )
        if not np.all(np.isfinite(x_new)):
            raise NumericalDivergenceError("iterate contains non-finite entries", trace)

        step_norm = fro_norm(x_new - x)
        norm_x = fro_norm(x)
        if norm_x > 0:
            rel_step = step_norm / norm_x
        else:
            rel_step = 0.0 if step_norm == 0 else float("inf")

        new_objective, feasible = objective_value(x_new, loss, pen, u, pmm_cfg)
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
        warm = (m, x_new, z)
        x = x_new
        objective = new_objective
        if rel_step <= pmm_cfg.tol_outer:
            trace.converged = True
            break
    return x, trace
