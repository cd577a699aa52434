import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ttlearn.tensor_ops as top
from ttlearn import penalties, solver
from ttlearn.losses import CompletionLoss, LogisticLoss
from ttlearn.penalties import (
    KINDS,
    TRUNCATED_MIN_SIDE,
    Penalty,
    dc_smooth_grad,
    dc_smooth_value,
    svt,
)
from ttlearn.solver import (
    DESCENT_SLACK,
    ADMMConfig,
    DescentViolationError,
    NumericalDivergenceError,
    PMMConfig,
    admm_subproblem,
    kkt_residuals,
    objective_value,
    pmm_solve,
    subproblem_terms,
)
from ttlearn.tasks import run_completion, synth_completion, synth_logistic
from ttlearn.transforms import dct_transform, identity_transform

MCP = Penalty("mcp", lam=1.0, gamma=2.7)


def full_mask_loss(y):
    return CompletionLoss(y, np.ones(y.shape, dtype=bool))


class TestConfigs:
    def test_pmm_ranges(self):
        PMMConfig(rho=1.0, beta=0.0, box_c=1.0)
        with pytest.raises(ValueError):
            PMMConfig(rho=0.0, beta=1.0, box_c=1.0)
        with pytest.raises(ValueError):
            PMMConfig(rho=1.0, beta=-1.0, box_c=1.0)
        with pytest.raises(ValueError):
            PMMConfig(rho=1.0, beta=1.0, box_c=0.0)
        with pytest.raises(ValueError):
            PMMConfig(rho=1.0, beta=1.0, box_c=1.0, tol_outer=0.0)
        with pytest.raises(ValueError, match="must keep 1/rho finite"):
            PMMConfig(rho=1e-320, beta=1.0, box_c=1.0)
        PMMConfig(rho=1e-300, beta=1.0, box_c=1.0)

    def test_xi_is_a_constant_and_the_loop_fields_are_keyword_only(self):
        assert 0 < solver.XI < 0.5
        with pytest.raises(TypeError):
            PMMConfig(rho=1.0, beta=1.0, box_c=1.0, xi=0.1)
        # an old positional xi would have set max_outer
        with pytest.raises(TypeError):
            PMMConfig(1.0, 1.0, 1.0, 0.1)

    def test_admm_ranges(self):
        ADMMConfig(max_inner=1)
        with pytest.raises(ValueError):
            ADMMConfig(max_inner=0)

    def test_descent_threshold(self):
        cfg = PMMConfig(rho=10.0, beta=1.0, box_c=1.0)
        assert cfg.rho_threshold(2.0) == pytest.approx(2.0 / (1 - 2 * solver.XI))
        assert cfg.descent_margin(2.0) == pytest.approx(((1 - 2 * solver.XI) * 10 - 2.0) / 2)


class TestObjective:
    def test_zero_beta_least_squares_at_truth(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((3, 3, 2))
        cfg = PMMConfig(rho=5.0, beta=0.0, box_c=10.0)
        value, feasible = objective_value(y, full_mask_loss(y), MCP, dct_transform(2), cfg)
        assert value == pytest.approx(0.0)
        assert feasible

    def test_zero_tensor_logistic(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((10, 2, 2, 2))
        loss = LogisticLoss(samples, rng.integers(0, 2, 10))
        cfg = PMMConfig(rho=5.0, beta=0.0, box_c=1.0)
        value, _ = objective_value(np.zeros((2, 2, 2)), loss, MCP, dct_transform(2), cfg)
        assert value == pytest.approx(np.log(2.0))

    def test_composition_matches_parts(self):
        from ttlearn.penalties import penalty_value

        rng = np.random.default_rng(2)
        y = rng.standard_normal((3, 3, 2))
        x = rng.standard_normal((3, 3, 2))
        loss = full_mask_loss(y)
        u = dct_transform(2)
        cfg = PMMConfig(rho=5.0, beta=0.7, box_c=100.0)
        value, feasible = objective_value(x, loss, MCP, u, cfg)
        assert value == pytest.approx(loss.value(x) + 0.7 * penalty_value(x, u, MCP))
        assert feasible

    def test_infeasible_flag(self):
        y = np.full((2, 2, 1), 3.0)
        cfg = PMMConfig(rho=5.0, beta=0.0, box_c=1.0)
        _, feasible = objective_value(y, full_mask_loss(y), MCP, identity_transform(1), cfg)
        assert not feasible


class TestKKTResiduals:
    def test_all_zero_inputs(self):
        z = np.zeros((2, 2, 1))
        cfg = PMMConfig(rho=2.0, beta=1.0, box_c=1.0)
        res = kkt_residuals(z, z, z, z, z, z, MCP, identity_transform(1), cfg)
        assert res.eta_e == res.eta_d == res.eta_p == res.eta_res == 0.0

    def test_equal_primal_blocks_zero_eta_e(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 2, 1))
        z = np.zeros_like(x)
        cfg = PMMConfig(rho=2.0, beta=1.0, box_c=10.0)
        res = kkt_residuals(x, x.copy(), z, x, z, z, MCP, identity_transform(1), cfg)
        assert res.eta_e == 0.0

    def test_hand_computed_instance(self):
        # literal transcription of the three residual formulas on fixed numbers
        u = identity_transform(1)
        cfg = PMMConfig(rho=2.0, beta=0.5, box_c=1.5)
        x = np.array([[0.4, -0.2], [0.1, 0.9]]).reshape(2, 2, 1)
        m = np.array([[0.3, -0.1], [0.2, 0.8]]).reshape(2, 2, 1)
        z = np.array([[0.05, 0.0], [-0.1, 0.2]]).reshape(2, 2, 1)
        xt = np.array([[0.5, -0.3], [0.0, 1.0]]).reshape(2, 2, 1)
        gf = np.array([[0.2, 0.1], [-0.3, 0.4]]).reshape(2, 2, 1)
        gs = np.array([[0.0, 0.05], [0.1, -0.05]]).reshape(2, 2, 1)

        fro = top.fro_norm
        eta_e = fro(m - x) / (1 + fro(m) + fro(x))
        eta_d = fro(m - svt(m + z, cfg.beta * MCP.lam, u)) / (1 + fro(m) + fro(z))
        inner = xt - (gf - cfg.beta * gs + z) / cfg.rho
        eta_p = fro(x - np.clip(inner, -cfg.box_c, cfg.box_c)) / (
            1
            + fro(z) / cfg.rho
            + fro(xt)
            + fro(gf) / cfg.rho
            + cfg.beta * fro(gs) / cfg.rho
        )
        res = kkt_residuals(x, m, z, xt, gf, gs, MCP, u, cfg)
        assert res.eta_e == pytest.approx(eta_e, abs=1e-12)
        assert res.eta_d == pytest.approx(eta_d, abs=1e-12)
        assert res.eta_p == pytest.approx(eta_p, abs=1e-12)
        assert res.eta_res == max(eta_e, eta_d, eta_p)


class TestADMMSubproblem:
    def test_zero_fixed_point(self):
        z = np.zeros((3, 3, 2))
        cfg = PMMConfig(rho=2.0, beta=1.0, box_c=1.0)
        x, m, zz, res, iters = admm_subproblem(
            z, z, z, MCP, dct_transform(2), cfg, ADMMConfig()
        )
        np.testing.assert_array_equal(x, z)
        np.testing.assert_array_equal(m, z)
        assert res.eta_res == 0.0
        assert iters == 1

    def test_beta_zero_reduces_to_projected_step(self):
        rng = np.random.default_rng(4)
        u = dct_transform(2)
        xt = rng.standard_normal((3, 3, 2))
        gf = rng.standard_normal((3, 3, 2))
        cfg = PMMConfig(rho=2.0, beta=0.0, box_c=5.0)
        x, m, z, res, _ = admm_subproblem(
            xt, gf, np.zeros_like(xt), MCP, u, cfg, ADMMConfig(tol_inner=1e-8, max_inner=500)
        )
        assert top.fro_norm(x - m) <= 1e-6
        # exact solution of the beta=0 subproblem is a clipped gradient step
        expected = np.clip(xt - gf / cfg.rho, -5.0, 5.0)
        np.testing.assert_allclose(x, expected, atol=1e-6)

    def test_beta_zero_primal_residual_within_default_budget(self):
        rng = np.random.default_rng(13)
        u = dct_transform(2)
        xt = rng.standard_normal((4, 4, 2))
        gf = rng.standard_normal((4, 4, 2))
        cfg = PMMConfig(rho=2.0, beta=0.0, box_c=5.0)
        # force the full 100 iterations and check the split has closed
        x, m, _, _, iters = admm_subproblem(
            xt, gf, np.zeros_like(xt), MCP, u, cfg, ADMMConfig(tol_inner=1e-15, max_inner=100)
        )
        assert iters == 100
        assert top.fro_norm(x - m) <= 1e-6

    def test_solves_subproblem_against_probes(self):
        # ADMM output should nearly minimize the convex subproblem objective
        rng = np.random.default_rng(5)
        u = dct_transform(2)
        xt = rng.standard_normal((4, 3, 2))
        gf = 0.3 * rng.standard_normal((4, 3, 2))
        gs2 = dc_smooth_grad(xt, u, MCP)
        cfg = PMMConfig(rho=3.0, beta=0.8, box_c=2.0)
        x, m, z, res, _ = admm_subproblem(
            xt, gf, gs2, MCP, u, cfg, ADMMConfig(tol_inner=1e-9, max_inner=2000)
        )

        def subproblem_objective(v):
            lin = gf - cfg.beta * gs2
            return (
                cfg.beta * MCP.lam * top.tensor_nuclear_norm(v, u)
                + top.inner_prod(lin, v - xt)
                + 0.5 * cfg.rho * top.fro_norm(v - xt) ** 2
            )

        base = subproblem_objective(x)
        assert top.inf_norm(x) <= 2.0 + 1e-12
        for _ in range(200):
            probe = np.clip(x + 0.2 * rng.standard_normal(x.shape), -2.0, 2.0)
            assert base <= subproblem_objective(probe) + 1e-6

    def test_warm_start_is_used(self):
        rng = np.random.default_rng(6)
        u = dct_transform(2)
        xt = rng.standard_normal((3, 3, 2))
        gf = 0.1 * rng.standard_normal((3, 3, 2))
        gs2 = np.zeros_like(xt)
        cfg = PMMConfig(rho=2.0, beta=0.5, box_c=3.0)
        admm = ADMMConfig(tol_inner=1e-7, max_inner=1000)
        x1, m1, z1, _, iters_cold = admm_subproblem(xt, gf, gs2, MCP, u, cfg, admm)
        _, _, _, _, iters_warm = admm_subproblem(xt, gf, gs2, MCP, u, cfg, admm, warm=(m1, x1, z1))
        assert iters_warm <= iters_cold


def reference_admm_subproblem(
    xt, grad_f_xt, grad_s2_xt, pen, u, pmm_cfg, admm_cfg, warm=None, *,
    hint=None, exact=False, warm_error=0.0, terms=None, factors=None,
):
    """The ADMM inner loop written out, with the dual-residual bound inline.

    ``terms`` is accepted and ignored: each ``kkt_residuals`` call here
    computes the subproblem's terms itself. ``factors`` of ``xt`` replace
    the exact move's SVD when ``grad_f_xt`` is zero, as in the solver.
    """
    rho, beta, c = pmm_cfg.rho, pmm_cfg.beta, pmm_cfg.box_c
    eta, tau = solver.ADMM_ETA, solver.ADMM_TAU
    drift = rho * xt - grad_f_xt + beta * grad_s2_xt
    iterations = 0
    if exact:
        # the unconstrained minimizer and its multiplier; in the box, the answer
        v = drift / rho
        v_factors = None
        if factors is not None and not np.any(grad_f_xt):
            # v = xt + beta * grad S2(xt) / rho has xt's singular vectors
            left, sigma, right_h = factors
            v_factors = (left, sigma + beta * pen.s2_prime(sigma) / rho, right_h)
        m = svt(v, beta * pen.slope / rho, u, hint=hint, factors=v_factors)
        z = rho * (v - m)
        x = m if top.inf_norm(m) <= c else top.project_box(m, c)
        iterations = 1
        # z is m's own subgradient, so eta_d is 0
        residuals = dataclasses.replace(
            kkt_residuals(x, m, z, xt, grad_f_xt, grad_s2_xt, pen, u, pmm_cfg, subgradient=z),
            eta_d=0.0,
        )
        if x is m or admm_cfg.max_inner == 1 or residuals.eta_res <= admm_cfg.tol_inner:
            return x, m, z, residuals, iterations
        if warm is not None and top.fro_norm(x - m) > warm_error:
            m, x, z = (np.asarray(w, dtype=float).copy() for w in warm)
    elif warm is None:
        m = np.zeros_like(xt)
        x = xt.copy()
        z = np.zeros_like(xt)
    else:
        m, x, z = (np.asarray(w, dtype=float).copy() for w in warm)
    threshold = beta * pen.slope / eta
    for iterations in range(iterations + 1, admm_cfg.max_inner + 1):
        m = svt(x + z / eta, threshold, u, hint=hint)
        w = z + eta * (x - m)
        x = top.project_box((drift + eta * m - z) / (rho + eta), c)
        z = z + tau * eta * (x - m)
        # m = svt(m + w, beta*lam) and svt is nonexpansive, so ||w - z|| bounds
        # ||m - svt(m + z, beta*lam)||; kkt_residuals gives only eta_e and eta_p
        # here (subgradient=z zeroes its eta_d without an SVD)
        eta_d = top.fro_norm(w - z) / (1 + top.fro_norm(m) + top.fro_norm(z))
        residuals = dataclasses.replace(
            kkt_residuals(x, m, z, xt, grad_f_xt, grad_s2_xt, pen, u, pmm_cfg, subgradient=z),
            eta_d=eta_d,
        )
        if residuals.eta_res <= admm_cfg.tol_inner:
            break
    return x, m, z, residuals, iterations


# log's gamma lies on both sides of 1: s2'(0) = 0 must hold whatever gamma is
GAMMAS = {"mcp": [2.7], "scad": [3.7], "log": [0.25, 0.5, 1.0, 2.0, 4.0], "convex": [0.0]}
KIND_GAMMA = st.sampled_from(KINDS).flatmap(
    lambda kind: st.tuples(st.just(kind), st.sampled_from(GAMMAS[kind]))
)


def drawn_penalty(kind_gamma, lam):
    kind, gamma = kind_gamma
    return Penalty(kind, lam=lam, gamma=gamma)


# random small subproblems, all below svt's size gate
SUBPROBLEMS = dict(
    n1=st.integers(1, 6),
    n2=st.integers(1, 6),
    n3=st.integers(1, 3),
    transform=st.sampled_from([identity_transform, dct_transform]),
    kind_gamma=KIND_GAMMA,
    lam=st.floats(0.05, 2.0),
    beta=st.floats(0.0, 2.0),
    rho=st.floats(0.5, 10.0),
    box_c=st.floats(0.2, 3.0),
    tol_inner=st.sampled_from([1e-6, 3e-4, 3e-3, 5e-2, 0.5]),
    max_inner=st.integers(1, 5),
    warm=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


def subproblem_args(
    n1, n2, n3, transform, kind_gamma, lam, beta, rho, box_c, tol_inner, max_inner, warm, seed
):
    """Positional arguments of :func:`admm_subproblem` for one drawn subproblem."""
    rng = np.random.default_rng(seed)
    shape = (n1, n2, n3)
    xt, gf, gs2 = (rng.standard_normal(shape) for _ in range(3))
    start = tuple(rng.standard_normal(shape) for _ in range(3)) if warm else None
    pen = drawn_penalty(kind_gamma, lam)
    return (
        xt, gf, gs2, pen, transform(n3),
        PMMConfig(rho=rho, beta=beta, box_c=box_c),
        ADMMConfig(max_inner=max_inner, tol_inner=tol_inner), start,
    )


class TestSubgradientKKTCheck:
    """The inner stop test bounds eta_d by the m-update's own subgradient."""

    @given(**SUBPROBLEMS)
    def test_matches_reference_loop(self, **drawn):
        args = subproblem_args(**drawn)
        x, m, z, res, iters = admm_subproblem(*args)
        ref_x, ref_m, ref_z, ref_res, ref_iters = reference_admm_subproblem(*args)
        assert np.array_equal(x, ref_x)
        assert np.array_equal(m, ref_m)
        assert np.array_equal(z, ref_z)
        assert iters == ref_iters
        assert res.eta_res == ref_res.eta_res
        assert res == ref_res

    @given(**SUBPROBLEMS, warm_error=st.sampled_from([0.0, 0.1, np.inf]))
    def test_exact_start_matches_reference_loop(self, warm_error, **drawn):
        # slack and binding moves, accepted or continued by ADMM, on either start
        args = subproblem_args(**drawn)
        out = admm_subproblem(*args, exact=True, warm_error=warm_error)
        ref = reference_admm_subproblem(*args, exact=True, warm_error=warm_error)
        assert all(np.array_equal(a, b) for a, b in zip(out[:3], ref[:3]))
        assert out[3:] == ref[3:]

    @given(**SUBPROBLEMS)
    def test_returned_residuals_match_a_standalone_call_with_the_subgradient(self, **drawn):
        # one step from a known start: the subgradient is z0 + eta*(x0 - m)
        xt, gf, gs2, pen, u, cfg, admm, warm = subproblem_args(**drawn)
        m0, x0, z0 = warm or (np.zeros_like(xt), xt, np.zeros_like(xt))
        one_step = dataclasses.replace(admm, max_inner=1)
        x, m, z, res, _ = admm_subproblem(xt, gf, gs2, pen, u, cfg, one_step, warm)
        w = z0 + solver.ADMM_ETA * (x0 - m)
        assert kkt_residuals(x, m, z, xt, gf, gs2, pen, u, cfg, subgradient=w) == res

    @given(**SUBPROBLEMS)
    def test_returned_eta_d_bounds_the_exact_one(self, **drawn):
        args = subproblem_args(**drawn)
        x, m, z, res, _ = admm_subproblem(*args)
        xt, gf, gs2, pen, u, cfg = args[:6]
        exact = kkt_residuals(x, m, z, xt, gf, gs2, pen, u, cfg)
        assert (res.eta_e, res.eta_p) == (exact.eta_e, exact.eta_p)
        assert np.isfinite(res.eta_d)
        assert res.eta_d >= exact.eta_d - 1e-12

    def test_one_svt_per_inner_iteration(self, monkeypatch):
        real_svt, calls = solver.svt, []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("hint"))
            return real_svt(*args, **kwargs)

        monkeypatch.setattr(solver, "svt", counted)
        rng = np.random.default_rng(8)
        u = dct_transform(3)
        xt, gf, gs2 = (rng.standard_normal((5, 4, 3)) for _ in range(3))
        cfg = PMMConfig(rho=3.0, beta=1.0, box_c=0.8)
        hint = penalties.SubspaceHint()
        for tol_inner in (1e-8, 3e-3, 0.5):
            calls.clear()
            admm = ADMMConfig(tol_inner=tol_inner, max_inner=30)
            *_, iters = admm_subproblem(xt, gf, gs2, MCP, u, cfg, admm, hint=hint)
            assert len(calls) == iters
            assert all(h is hint for h in calls)

    def test_pmm_trace_matches_reference_loop(self, monkeypatch):
        rng = np.random.default_rng(21)
        u = dct_transform(3)
        y = rng.standard_normal((6, 6, 3))
        mask = rng.random(y.shape) < 0.6
        loss = CompletionLoss(np.where(mask, y, 0.0), mask)
        cfg = PMMConfig(rho=6.0, beta=1.0, box_c=3.0, max_outer=15)
        admm = ADMMConfig(tol_inner=3e-4, max_inner=20)
        x0 = loss.y_obs.copy()
        x, trace = pmm_solve(loss, MCP, u, cfg, admm, x0)
        monkeypatch.setattr(solver, "admm_subproblem", reference_admm_subproblem)
        ref_x, ref_trace = pmm_solve(loss, MCP, u, cfg, admm, x0)
        assert np.array_equal(x, ref_x)
        assert trace.to_dict() == ref_trace.to_dict()


class TestSubproblemTerms:
    """The x_t-only parts of the KKT test are computed once per subproblem."""

    @given(**SUBPROBLEMS)
    def test_precomputed_terms_give_the_same_bits(self, **drawn):
        xt, gf, gs2, pen, u, cfg, _, _ = subproblem_args(**drawn)
        rng = np.random.default_rng(drawn["seed"] + 1)
        x, m, z, w = (rng.standard_normal(xt.shape) for _ in range(4))
        terms = subproblem_terms(xt, gf, gs2, cfg)
        for subgradient in (None, w):
            plain = kkt_residuals(x, m, z, xt, gf, gs2, pen, u, cfg, subgradient=subgradient)
            given_terms = kkt_residuals(
                x, m, z, xt, gf, gs2, pen, u, cfg, subgradient=subgradient, terms=terms
            )
            assert given_terms == plain

    @pytest.mark.parametrize("box_c, exact, max_inner", [
        (1e3, True, 30),  # the exact move, box slack
        (0.3, True, 30),  # the exact move, then ADMM
        (0.3, True, 1),  # the exact move, no ADMM budget left
        (0.3, False, 30),  # ADMM only
        (0.3, False, 1),
    ])
    def test_built_once_per_call(self, monkeypatch, box_c, exact, max_inner):
        calls = self.count_calls(monkeypatch)
        rng = np.random.default_rng(33)
        xt, gf, gs2 = (rng.standard_normal((5, 4, 3)) for _ in range(3))
        args = (xt, gf, gs2, MCP, dct_transform(3), PMMConfig(rho=3.0, beta=1.0, box_c=box_c),
                ADMMConfig(tol_inner=1e-8, max_inner=max_inner))
        out = admm_subproblem(*args, exact=exact)
        assert (out[-1] == 1) == (box_c > 1 or max_inner == 1)
        assert len(calls) == 1
        # given terms, the call builds none and returns the same bits
        given = admm_subproblem(*args, exact=exact, terms=subproblem_terms(*args[:3], args[5]))
        assert len(calls) == 1
        assert all(np.array_equal(a, b) for a, b in zip(given[:3], out[:3]))
        assert given[3:] == out[3:]

    def test_built_once_per_outer_step(self, monkeypatch):
        # pmm_solve hands its own terms to every admm_subproblem call of the step
        calls = self.count_calls(monkeypatch)
        admm_calls = []
        real_admm = solver.admm_subproblem

        def recorded(*args, **kwargs):
            admm_calls.append(kwargs["terms"])
            return real_admm(*args, **kwargs)

        monkeypatch.setattr(solver, "admm_subproblem", recorded)
        rng = np.random.default_rng(34)
        y = rng.standard_normal((6, 6, 3))
        mask = rng.random(y.shape) < 0.6
        loss = CompletionLoss(np.where(mask, y, 0.0), mask)
        cfg = PMMConfig(rho=6.0, beta=1.0, box_c=0.5, max_outer=15)
        _, trace = pmm_solve(loss, MCP, dct_transform(3), cfg, ADMMConfig(tol_inner=3e-3), y)
        assert len(calls) == len(trace.entries)
        assert [id(t) for t in admm_calls] == [id(t) for t in calls]

    @staticmethod
    def count_calls(monkeypatch):
        real_terms, built = solver.subproblem_terms, []

        def counted(*args, **kwargs):
            built.append(real_terms(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(solver, "subproblem_terms", counted)
        return built


class TestFirstMoveFromHeldFactors:
    """From its observation a completion's first ``v`` has ``x0``'s singular vectors."""

    @staticmethod
    def first_step(dims, box_fraction, monkeypatch):
        # one outer step from the observation (at the default box its exact move
        # stays inside); returns the solve, the SVD inputs, and each svt's SVD count
        u = dct_transform(dims[2])
        _, y_obs, mask = synth_completion(dims, 1, 0.6, 0.01, u, seed=0)
        loss = CompletionLoss(y_obs, mask)
        pen = Penalty("mcp", lam=4.0, gamma=2.7)
        peak = top.inf_norm(y_obs)
        cfg = PMMConfig(rho=4.0, beta=2.0, box_c=box_fraction * peak, max_outer=1)
        real_svd, real_svt, inputs, per_svt = np.linalg.svd, solver.svt, [], []

        def counted_svd(a, *args, **kwargs):
            inputs.append(np.array(a))
            return real_svd(a, *args, **kwargs)

        def counted_svt(*args, **kwargs):
            before = len(inputs)
            out = real_svt(*args, **kwargs)
            per_svt.append(len(inputs) - before)
            return out

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(solver, "svt", counted_svt)
        x, trace = pmm_solve(loss, pen, u, cfg, ADMMConfig(tol_inner=3e-4), y_obs)
        monkeypatch.undo()
        return (y_obs, loss, pen, u, cfg), x, trace, inputs, per_svt

    @pytest.mark.parametrize("dims", [(12, 12, 3), (TRUNCATED_MIN_SIDE, TRUNCATED_MIN_SIDE, 2)])
    def test_the_default_box_factorizes_x0_alone(self, dims, monkeypatch):
        (y_obs, loss, pen, u, cfg), x, trace, inputs, per_svt = self.first_step(
            dims, 1.05, monkeypatch
        )
        assert not np.any(loss.grad(y_obs))
        [entry] = trace.entries
        assert (entry.inner_iterations, entry.trials, entry.rho) == (1, 1, cfg.rho)
        # x0's is the solve's only SVD, in one call or split into one call per
        # block of slices (in either order); the move's svt makes none
        assert per_svt == [0]
        slices = top.apply_transform(y_obs, u).transpose(2, 0, 1)
        blocks = np.array_split(slices, len(inputs))
        assert sorted((a.shape, a.tobytes()) for a in inputs) == sorted(
            (b.shape, b.tobytes()) for b in blocks
        )
        v = y_obs + cfg.beta * dc_smooth_grad(y_obs, u, pen) / cfg.rho
        fresh = svt(v, cfg.beta * pen.slope / cfg.rho, u)
        assert top.fro_norm(x - fresh) <= 1e-12 * top.fro_norm(v)

    def test_a_box_below_the_observed_peak_factorizes_the_first_move(self, monkeypatch):
        # the box clips x0, so grad f(x0) is nonzero and v has vectors of its own
        (y_obs, loss, pen, u, cfg), _, _, _, per_svt = self.first_step(
            (12, 12, 3), 0.9, monkeypatch
        )
        assert np.any(loss.grad(top.project_box(y_obs, cfg.box_c)))
        assert per_svt[0] == 1


class TestAliasedKKTInputs:
    """An exact move's blocks alias (x is m, its subgradient is z): the residuals keep their bits."""

    @given(**SUBPROBLEMS, scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_aliased_blocks_give_the_residuals_of_copies(self, scale, **drawn):
        xt, gf, gs2, pen, u, cfg, _, _ = subproblem_args(**drawn)
        rng = np.random.default_rng(drawn["seed"] + 2)
        m, z = (scale * rng.standard_normal(xt.shape) for _ in range(2))
        args = (xt, gf, gs2, pen, u, cfg)
        aliased = kkt_residuals(m, m, z, *args, subgradient=z)
        assert aliased == kkt_residuals(m.copy(), m, z, *args, subgradient=z.copy())
        assert aliased.eta_e == aliased.eta_d == 0.0
        # a projected move: x is a new array, only the subgradient aliases z
        x = top.project_box(m, cfg.box_c)
        projected = kkt_residuals(x, m, z, *args, subgradient=z)
        assert projected == kkt_residuals(x, m, z, *args, subgradient=z.copy())


class TestExactMove:
    """With ``exact``, a subproblem whose unconstrained minimizer lies in the box takes one svt."""

    @given(**{k: SUBPROBLEMS[k] for k in ("n1", "n2", "n3", "transform", "kind_gamma", "lam",
                                         "beta", "rho", "seed")})
    def test_exact_step_meets_kkt_and_the_model_decrease(
        self, n1, n2, n3, transform, kind_gamma, lam, beta, rho, seed
    ):
        # y* minimizes the rho-strongly convex model Phi_t, so
        # Phi_t(y*) <= Phi_t(x_t) - (rho/2)||y* - x_t||^2 = F(x_t) - (rho/2)||y* - x_t||^2
        rng = np.random.default_rng(seed)
        shape = (n1, n2, n3)
        y = rng.standard_normal(shape)
        mask = rng.random(shape) < 0.7
        mask.flat[0] = True
        loss = CompletionLoss(np.where(mask, y, 0.0), mask)
        xt = rng.standard_normal(shape)
        u, pen = transform(n3), drawn_penalty(kind_gamma, lam)
        cfg = PMMConfig(rho=rho, beta=beta, box_c=1e3)
        gf, gs2 = loss.grad(xt), dc_smooth_grad(xt, u, pen)
        x, m, z, res, iters = admm_subproblem(
            xt, gf, gs2, pen, u, cfg, ADMMConfig(), exact=True
        )
        assert x is m and iters == 1
        assert res.eta_res <= 1e-12
        delta = x - xt
        model = (
            loss.value(xt) + np.vdot(gf, delta) + 0.5 * rho * top.fro_norm(delta) ** 2
            + beta * (pen.slope * top.tensor_nuclear_norm(x, u) - dc_smooth_value(xt, u, pen)
                      - np.vdot(gs2, delta))
        )
        start, _ = objective_value(xt, loss, pen, u, cfg)
        assert model <= start - 0.5 * rho * top.fro_norm(delta) ** 2 + DESCENT_SLACK

    @staticmethod
    def binding_subproblem():
        rng = np.random.default_rng(31)
        xt, gf, gs2 = (rng.standard_normal((5, 4, 3)) for _ in range(3))
        warm = tuple(rng.standard_normal((5, 4, 3)) for _ in range(3))
        cfg = PMMConfig(rho=3.0, beta=1.0, box_c=0.3)
        return (xt, gf, gs2, MCP, dct_transform(3), cfg), warm

    def test_box_binding_fallback_starts_from_the_projected_exact_move(self):
        args, _ = self.binding_subproblem()
        xt, gf, gs2, pen, u, cfg = args
        v = xt - (gf - cfg.beta * gs2) / cfg.rho
        ystar = svt(v, cfg.beta * pen.lam / cfg.rho, u)
        assert top.inf_norm(ystar) > cfg.box_c
        # with no ADMM budget left the call returns its start
        x0, m0, z0, res, iters = admm_subproblem(*args, ADMMConfig(max_inner=1), exact=True)
        assert iters == 1
        np.testing.assert_allclose(m0, ystar, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(x0, top.project_box(m0, cfg.box_c))
        np.testing.assert_allclose(z0, cfg.rho * (v - ystar), rtol=0, atol=1e-12)
        assert res == kkt_residuals(x0, m0, z0, *args, subgradient=z0)
        # the box's move fails the default stop test, so with budget left ADMM
        # runs plain from there, as before the move was tested: one svt more
        # than ADMM alone
        assert res.eta_res > ADMMConfig().tol_inner
        for steps in (1, 3, 30):
            *out, iters = admm_subproblem(*args, ADMMConfig(max_inner=steps + 1), exact=True)
            *ref, ref_iters = admm_subproblem(
                *args, ADMMConfig(max_inner=steps), warm=(m0, x0, z0)
            )
            assert iters == ref_iters + 1
            for a, b in zip(out, ref):
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b

    def test_binding_move_within_tol_inner_is_accepted_after_one_iteration(self):
        # a box just inside y*'s peak: the projected move (project_box(y*), y*, z*)
        # is the first Dykstra iterate, with eta_d and eta_p 0 up to rounding
        # and eta_e the box's small relative move
        args, warm = self.binding_subproblem()
        xt, gf, gs2, pen, u, cfg = args
        v = xt - (gf - cfg.beta * gs2) / cfg.rho
        ystar = svt(v, cfg.beta * pen.lam / cfg.rho, u)
        cfg = dataclasses.replace(cfg, box_c=0.999 * top.inf_norm(ystar))
        args = (*args[:5], cfg)
        admm = ADMMConfig(max_inner=30)
        x, m, z, res, iters = admm_subproblem(*args, admm, warm=warm, exact=True)
        assert iters == 1 and x is not m
        np.testing.assert_allclose(m, ystar, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(x, top.project_box(m, cfg.box_c))
        np.testing.assert_allclose(z, cfg.rho * (v - ystar), rtol=0, atol=1e-12)
        assert res.eta_d == 0 and res.eta_p <= 1e-15
        assert 0 < res.eta_e == res.eta_res <= admm.tol_inner
        # the same bits as the call with no ADMM budget
        *first, first_iters = admm_subproblem(*args, ADMMConfig(max_inner=1), exact=True)
        assert first_iters == 1 and first[3] == res
        assert all(np.array_equal(a, b) for a, b in zip(first[:3], (x, m, z)))
        # the SVD-free residual does not understate the exact one
        exact = kkt_residuals(x, m, z, *args)
        assert (exact.eta_e, exact.eta_p) == (res.eta_e, res.eta_p)
        assert res.eta_res >= exact.eta_res

    def test_fallback_keeps_a_warm_start_nearer_than_the_box_move(self):
        args, warm = self.binding_subproblem()
        x0, m0, z0, _, _ = admm_subproblem(*args, ADMMConfig(max_inner=1), exact=True)
        move = top.fro_norm(x0 - m0)
        assert move > 0
        admm = ADMMConfig(max_inner=10)
        for warm_error, start in ((move, (m0, x0, z0)), (0.99 * move, warm)):
            *out, iters = admm_subproblem(
                *args, admm, warm=warm, exact=True, warm_error=warm_error
            )
            *ref, ref_iters = admm_subproblem(*args, ADMMConfig(max_inner=9), warm=start)
            assert iters == ref_iters + 1
            assert all(np.array_equal(a, b) for a, b in zip(out[:3], ref[:3]))

    def test_zero_threshold_step_takes_a_fresh_factorization(self, monkeypatch):
        # beta = 0: svt returns a copy and leaves no factors in the hint, so
        # pmm_solve factorizes every exact iterate itself
        rng = np.random.default_rng(32)
        y = rng.standard_normal((4, 4, 2))
        loss = full_mask_loss(y)
        cfg = PMMConfig(rho=5.0, beta=0.0, box_c=5.0, max_outer=10)
        real_slice_svd, factored = solver.slice_svd, []

        def recorded(x, u):
            factored.append(x.copy())
            return real_slice_svd(x, u)

        monkeypatch.setattr(solver, "slice_svd", recorded)
        x, trace = pmm_solve(loss, MCP, dct_transform(2), cfg, ADMMConfig(), np.zeros_like(y))
        assert trace.entries and all(e.inner_iterations == 1 for e in trace.entries)
        assert len(factored) == len(trace.entries) + 1
        np.testing.assert_array_equal(factored[-1], x)
        for objective, xi in zip(trace.objectives(), factored):
            assert objective == loss.value(xi)


def rank_one_slices_completion():
    """A 12x12x3 completion whose DCT slices have rank 1, 60 % observed."""
    rng = np.random.default_rng(13)
    u = dct_transform(3)
    truth_hat = np.zeros((12, 12, 3))
    for k in range(3):
        truth_hat[:, :, k] = rng.standard_normal((12, 1)) @ rng.standard_normal((1, 12))
    truth = top.inverse_transform(truth_hat, u)
    mask = rng.random((12, 12, 3)) < 0.6
    mask.flat[0] = True
    return CompletionLoss(np.where(mask, truth, 0.0), mask), truth, u


class TestPMMSolve:
    def test_beta_zero_full_mask_recovers_target(self):
        rng = np.random.default_rng(7)
        y = 0.5 * rng.standard_normal((4, 4, 2))
        loss = full_mask_loss(y)
        cfg = PMMConfig(rho=5.0, beta=0.0, box_c=2.0, max_outer=200, tol_outer=1e-6)
        x, trace = pmm_solve(loss, MCP, dct_transform(2), cfg, ADMMConfig(tol_inner=1e-6), np.zeros_like(y))
        assert top.fro_norm(x - y) <= 1e-3
        assert trace.converged

    def test_max_outer_zero_returns_x0(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((3, 3, 2))
        cfg = PMMConfig(rho=5.0, beta=1.0, box_c=5.0, max_outer=0)
        x0 = rng.standard_normal((3, 3, 2))
        x, trace = pmm_solve(full_mask_loss(y), MCP, dct_transform(2), cfg, ADMMConfig(), x0)
        np.testing.assert_array_equal(x, x0)
        assert trace.entries == []
        assert not trace.converged
        assert trace.multi_rank == top.multi_rank(x0, dct_transform(2)).tolist()

    def test_objective_monotone_and_feasible(self):
        rng = np.random.default_rng(9)
        u = dct_transform(3)
        y = rng.standard_normal((6, 6, 3))
        mask = rng.random((6, 6, 3)) < 0.6
        mask.flat[0] = True
        loss = CompletionLoss(np.where(mask, y, 0.0), mask)
        cfg = PMMConfig(rho=3 * loss.lipschitz_constant(), beta=0.5, box_c=top.inf_norm(y))
        x, trace = pmm_solve(loss, MCP, u, cfg, ADMMConfig(tol_inner=1e-4), loss.y_obs.copy())
        objs = trace.objectives()
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
        assert all(e.feasible for e in trace.entries)
        assert top.inf_norm(x) <= cfg.box_c + 1e-12

    def test_convex_penalty_trajectory(self):
        # convex baseline: monotone objective, final multi-rank no higher than start
        rng = np.random.default_rng(10)
        u = dct_transform(3)
        truth_hat = np.zeros((8, 8, 3))
        for k in range(3):
            a = rng.standard_normal((8, 2))
            truth_hat[:, :, k] = a @ a.T[:2].reshape(2, 8)
        truth = top.inverse_transform(truth_hat, u)
        mask = rng.random((8, 8, 3)) < 0.7
        mask.flat[0] = True
        loss = CompletionLoss(np.where(mask, truth, 0.0), mask)
        pen = Penalty("convex", lam=1.0)
        cfg = PMMConfig(rho=2 * loss.lipschitz_constant(), beta=1.0, box_c=1.05 * top.inf_norm(truth))
        x0 = loss.y_obs.copy()
        x, trace = pmm_solve(loss, pen, u, cfg, ADMMConfig(tol_inner=1e-4), x0)
        objs = trace.objectives()
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
        assert np.all(top.multi_rank(x, u, tol=1e-6) <= top.multi_rank(x0, u, tol=1e-6))

    def test_warns_when_rho_below_threshold(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((3, 3, 2))
        loss = full_mask_loss(y)  # L = 1
        cfg = PMMConfig(rho=0.5, beta=0.1, box_c=5.0, max_outer=2)
        with pytest.warns(RuntimeWarning, match="descent is not guaranteed"):
            _, trace = pmm_solve(loss, MCP, dct_transform(2), cfg, ADMMConfig(), np.zeros_like(y))
        assert not trace.descent_checked

    def test_step_norms_plateau_near_convergence(self):
        loss, truth, u = rank_one_slices_completion()
        # the box binds from the first step on, so every step runs at rho:
        # TestLocalStepWeight::test_the_stop_lies_within_a_few_tol_of_the_limit
        # covers this data with a slack box, where rho_t moves
        cfg = PMMConfig(rho=4.0, beta=2.0, box_c=0.9 * top.inf_norm(truth))
        pen = Penalty("mcp", lam=2.0, gamma=2.7)
        x, trace = pmm_solve(loss, pen, u, cfg, ADMMConfig(tol_inner=1e-4), loss.y_obs.copy())
        assert trace.converged
        assert all(e.rho == cfg.rho for e in trace.entries)
        # the run stops at the first step under tol, so the ten steps before it
        # can each sit near tol*||x||; a factor-2 allowance covers slow decay
        tail = sum(e.step_norm for e in trace.entries[-10:])
        assert tail <= 2 * 10 * cfg.tol_outer * top.fro_norm(x)

    def test_determinism(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal((5, 5, 2))
        mask = rng.random((5, 5, 2)) < 0.5
        mask.flat[0] = True
        loss = CompletionLoss(np.where(mask, y, 0.0), mask)
        cfg = PMMConfig(rho=3 * loss.lipschitz_constant(), beta=0.4, box_c=5.0, max_outer=20)
        runs = []
        for _ in range(2):
            x, trace = pmm_solve(loss, MCP, dct_transform(2), cfg, ADMMConfig(), loss.y_obs.copy())
            runs.append((x, trace.to_dict()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_divergence_error_carries_trace(self):
        class BadLoss:
            shape = (2, 2, 1)

            def value(self, x):
                return 0.0

            def grad(self, x):
                return np.full((2, 2, 1), np.nan)

            def lipschitz_constant(self):
                return 1.0

        cfg = PMMConfig(rho=10.0, beta=0.0, box_c=1.0, max_outer=3)
        with pytest.raises(NumericalDivergenceError) as excinfo:
            pmm_solve(BadLoss(), MCP, identity_transform(1), cfg, ADMMConfig(), np.zeros((2, 2, 1)))
        assert excinfo.value.trace is not None

    def test_overflowing_exact_move_raises_before_its_svt(self, monkeypatch):
        # rho * x overflows in the exact move's center v, and an SVD of infinite
        # entries can loop inside LAPACK: the solve must stop before that SVD
        _, y_obs, mask = synth_completion((6, 6, 2), 2, 0.4, 0.01, dct_transform(2), 0)
        loss = CompletionLoss(y_obs, mask)
        cfg = PMMConfig(rho=1e308, beta=1.0, box_c=1.05 * top.inf_norm(y_obs), max_outer=3)
        real_svd, shapes = np.linalg.svd, []

        def finite_only(a, *args, **kwargs):
            shapes.append(np.shape(a))
            assert np.all(np.isfinite(a)), "SVD of non-finite entries"
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", finite_only)
        with np.errstate(over="ignore"), pytest.raises(NumericalDivergenceError) as excinfo:
            pmm_solve(loss, MCP, dct_transform(2), cfg, ADMMConfig(), y_obs.copy())
        trace = excinfo.value.trace
        assert trace is not None and trace.descent_checked and trace.entries == []
        # the starting point's factorization only: the move's svt never ran
        assert shapes == [(2, 6, 6)]

    def test_descent_violation_error_carries_the_accepted_entries(self, monkeypatch):
        rng = np.random.default_rng(15)
        y = rng.standard_normal((3, 3, 2))
        loss = full_mask_loss(y)
        cfg = PMMConfig(rho=10.0, beta=0.5, box_c=5.0, max_outer=5)
        real_subproblem, starts = solver.admm_subproblem, []
        rhos, inner_budgets, exact = [], [], []

        def worse_second_step(xt, *args, **kwargs):
            x, m, z, residuals, inner = real_subproblem(xt, *args, **kwargs)
            if not starts or starts[-1] is not xt:
                starts.append(xt)
            if len(starts) == 2:
                # every re-entry of the second subproblem returns the worse
                # iterate, moving every entry away from the full observation y
                rhos.append(args[4].rho)
                inner_budgets.append(args[5].max_inner)
                exact.append(kwargs["exact"])
                x = xt + 1.0
            return x, m, z, residuals, inner

        monkeypatch.setattr(solver, "admm_subproblem", worse_second_step)
        with pytest.raises(DescentViolationError, match="objective increased by") as excinfo:
            pmm_solve(loss, MCP, dct_transform(2), cfg, ADMMConfig(), np.zeros_like(y))
        trace = excinfo.value.trace
        assert trace.descent_checked
        assert len(starts) == 2 and len(trace.entries) == 1
        # the first step kept its exact move inside the box, so the second
        # tries rho/2 first: one exact move, which comes back off m, as a
        # binding move does, and fails; the step goes on at rho
        assert (rhos[0], inner_budgets[0], exact[0]) == (cfg.rho / 2, 1, True)
        assert trace.entries[0].rho == cfg.rho and trace.entries[0].trials == 1
        assert all(rho == cfg.rho for rho in rhos[1:])
        at_rho, exact = inner_budgets[1:], exact[1:]
        # at rho the descent rule re-entered ADMM until max_inner ran out
        assert len(at_rho) > 1 and at_rho[0] == ADMMConfig().max_inner
        assert all(b > a for a, b in zip(at_rho[1:], at_rho))
        # the first entry makes the exact move; every re-entry runs ADMM from where it stopped
        assert exact[0] and not any(exact[1:])
        assert trace.entries[0].objective < trace.initial_objective

    def test_descent_rule_resumes_admm_within_the_remaining_budget(self, monkeypatch):
        # a box-binding completion whose first ADMM returns the descent rule
        # rejects: pmm_solve re-enters ADMM with what is left of max_inner
        u = dct_transform(3)
        _, y_obs, mask = synth_completion((20, 20, 3), 2, 0.6, 0.01, u, seed=0)
        loss = CompletionLoss(y_obs, mask)
        pen = Penalty("mcp", lam=12.0, gamma=2.7)
        cfg = PMMConfig(rho=3.0, beta=2.0, box_c=0.5)
        admm = ADMMConfig(tol_inner=3e-4)
        real_subproblem, steps = solver.admm_subproblem, []

        def recorded(xt, *args, **kwargs):
            out = real_subproblem(xt, *args, **kwargs)
            if not steps or steps[-1][0] is not xt:
                steps.append((xt, []))
            steps[-1][1].append((kwargs["exact"], args[5].max_inner, out[-1]))
            return out

        monkeypatch.setattr(solver, "admm_subproblem", recorded)
        _, trace = pmm_solve(loss, pen, u, cfg, admm, y_obs)
        assert trace.descent_checked and trace.converged
        assert len(steps) == len(trace.entries)
        resumed = 0
        for (_, calls), entry in zip(steps, trace.entries):
            assert calls[0][:2] == (True, admm.max_inner)
            taken = calls[0][2]
            for exact, budget, inner in calls[1:]:
                assert not exact and budget == admm.max_inner - taken
                taken += inner
            resumed += len(calls) - 1
            assert entry.inner_iterations == taken
        assert resumed > 0
        a = trace.descent_margin
        objectives = trace.objectives()
        for t, entry in enumerate(trace.entries):
            assert objectives[t + 1] + a * entry.step_norm**2 <= objectives[t] + DESCENT_SLACK

    def test_a_step_whose_max_inner_runs_out_is_exhausted_with_no_margin(self):
        # a box at half the observed peak and a budget of two inner steps: the
        # second step's exact move binds, and one ADMM step after it does not
        # meet the descent rule before max_inner runs out
        u = dct_transform(1)
        _, y_obs, mask = synth_completion((10, 11, 1), 1, 0.6, 0.01, u, 10)
        loss = CompletionLoss(y_obs, mask)
        pen = Penalty("mcp", lam=2.0, gamma=2.7)
        # rho is 1.5 times the descent threshold L/(1 - 2 xi)
        assert loss.lipschitz_constant() / (1 - 2 * solver.XI) * 1.5 == 3.125
        cfg = PMMConfig(rho=3.125, beta=1.0, box_c=0.5 * top.inf_norm(y_obs), max_outer=30)
        _, trace = pmm_solve(loss, pen, u, cfg, ADMMConfig(tol_inner=3e-4, max_inner=2), y_obs)
        assert trace.descent_checked
        entry = trace.entries[1]
        assert entry.exhausted and entry.rho == cfg.rho
        assert (entry.trials, entry.inner_iterations) == (1, 2)
        # an exhausted step meets only the monotone assertion, so no margin is certified
        assert trace.descent_margin == 0.0
        objectives = trace.objectives()
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))

    @pytest.mark.parametrize("path", ["trial", "exhausted", "damped"])
    def test_every_entry_states_its_step_relative_to_the_step_start(self, monkeypatch, path):
        # each step path builds its own entry: rel_step is step_norm over the
        # ||x_t|| of that step's subproblem_terms (0 or inf when ||x_t|| is 0)
        real_terms, norms = solver.subproblem_terms, []

        def recorded(xt, *args):
            terms = real_terms(xt, *args)
            norms.append(terms.norm_xt)
            return terms

        monkeypatch.setattr(solver, "subproblem_terms", recorded)
        if path == "trial":
            # a slack box: kept trials run below rho
            loss, truth, u = rank_one_slices_completion()
            cfg = PMMConfig(rho=4.0, beta=2.0, box_c=1.05 * top.inf_norm(truth))
            pen, admm = Penalty("mcp", lam=2.0, gamma=2.7), ADMMConfig(tol_inner=1e-4)
            x0 = loss.y_obs
        elif path == "exhausted":
            # the instance of test_a_step_whose_max_inner_runs_out_is_exhausted_with_no_margin
            u = dct_transform(1)
            _, x0, mask = synth_completion((10, 11, 1), 1, 0.6, 0.01, u, 10)
            loss, pen = CompletionLoss(x0, mask), Penalty("mcp", lam=2.0, gamma=2.7)
            cfg = PMMConfig(rho=3.125, beta=1.0, box_c=0.5 * top.inf_norm(x0), max_outer=30)
            admm = ADMMConfig(tol_inner=3e-4, max_inner=2)
        else:
            u = dct_transform(2)
            problem = synth_logistic((5, 5, 2), 1, 120, 10, u, seed=0)
            loss = LogisticLoss(problem.train_samples, problem.train_labels)
            cfg = PMMConfig(rho=0.15, beta=0.5, box_c=10.0, max_outer=40)
            pen, admm = Penalty("mcp", lam=0.2, gamma=2.7), ADMMConfig(tol_inner=1e-3)
            x0 = np.zeros(loss.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, trace = pmm_solve(loss, pen, u, cfg, admm, x0)
        assert len(norms) == len(trace.entries) > 1
        for norm_xt, entry in zip(norms, trace.entries):
            if norm_xt > 0:
                assert entry.rel_step == entry.step_norm / norm_xt
            else:
                assert entry.rel_step == (0.0 if entry.step_norm == 0 else np.inf)
            assert not entry.exhausted or entry.inner_iterations == admm.max_inner
        if path == "trial":
            assert trace.descent_checked and any(e.rho < cfg.rho for e in trace.entries)
        elif path == "exhausted":
            assert trace.descent_checked and any(e.exhausted for e in trace.entries)
        else:
            # the logistic fit starts at zero, so its first entry takes the zero-norm rule
            assert not trace.descent_checked and norms[0] == 0
            assert all((e.rho, e.trials) == (cfg.rho, 1) for e in trace.entries)

    def test_a_failed_svd_inside_the_subproblem_is_numerical_divergence(self, monkeypatch):
        # LAPACK's LinAlgError is a ValueError, which the CLI reports as an input error
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(solver, "svt", fails)
        loss = full_mask_loss(np.random.default_rng(16).standard_normal((3, 3, 2)))
        for rho in (0.5, 10.0):  # the damped path and the exact move
            cfg = PMMConfig(rho=rho, beta=0.5, box_c=5.0, max_outer=3)
            with warnings.catch_warnings(), pytest.raises(NumericalDivergenceError) as excinfo:
                warnings.simplefilter("ignore", RuntimeWarning)
                pmm_solve(loss, MCP, dct_transform(2), cfg, ADMMConfig(), np.zeros((3, 3, 2)))
            assert "SVD did not converge" in str(excinfo.value)
            assert excinfo.value.trace is not None and excinfo.value.trace.entries == []

    def test_binding_steps_accepted_at_the_projected_move_cost_one_svt(self, monkeypatch):
        # a box just inside the observed peak binds at most steps; where the
        # projected exact move meets tol_inner and the descent rule, the step
        # makes one svt (the move) and no slice_svd: the box clips one entry
        # of a rank-1 move, so the core is 2 wide, a quarter of the side 8,
        # and the move's factors update to the new iterate's
        u = dct_transform(2)
        _, y_obs, mask = synth_completion((8, 8, 2), 1, 0.6, 0.01, u, seed=2)
        loss = CompletionLoss(y_obs, mask)
        pen = Penalty("mcp", lam=2.0, gamma=2.7)
        cfg = PMMConfig(rho=4.0, beta=2.0, box_c=0.95 * top.inf_norm(y_obs), max_outer=30)
        real_subproblem, real_svt = solver.admm_subproblem, solver.svt
        real_slice_svd, steps = solver.slice_svd, []
        real_update = solver.slice_svd_update

        def recorded(xt, *args, **kwargs):
            if not steps or steps[-1]["xt"] is not xt:
                steps.append({"xt": xt, "calls": [], "svt": 0, "slice_svd": 0, "updated": []})
            out = real_subproblem(xt, *args, **kwargs)
            steps[-1]["calls"].append((kwargs["exact"], out[0] is out[1], out[-1]))
            return out

        def counted(name, real):
            def call(*args, **kwargs):
                if steps:  # x0's factorization precedes every step
                    steps[-1][name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(solver, "admm_subproblem", recorded)
        monkeypatch.setattr(solver, "svt", counted("svt", real_svt))
        monkeypatch.setattr(solver, "slice_svd", counted("slice_svd", real_slice_svd))

        def update(*args):
            out = real_update(*args)
            steps[-1]["updated"].append(out is not None)
            return out

        monkeypatch.setattr(solver, "slice_svd_update", update)
        _, trace = pmm_solve(loss, pen, u, cfg, ADMMConfig(), y_obs)
        assert trace.descent_checked and len(steps) == len(trace.entries)
        accepted = 0
        for step, entry in zip(steps, trace.entries):
            # one exact call that returned the projected x, not m itself
            if step["calls"] == [(True, False, 1)]:
                accepted += 1
                assert entry.inner_iterations == 1
                assert step["updated"] == [True]
                assert (step["svt"], step["slice_svd"]) == (1, 0)
        assert accepted > 10
        a, objectives = trace.descent_margin, trace.objectives()
        for t, entry in enumerate(trace.entries):
            assert objectives[t + 1] + a * entry.step_norm**2 <= objectives[t] + DESCENT_SLACK

    # 60 examples draw enough log penalties with gamma < 1 to reach a step
    # that a split with s2'(0) < 0 fails
    @settings(max_examples=60)
    @given(
        dims=st.tuples(st.integers(2, 10), st.integers(2, 10), st.integers(1, 4)),
        rank=st.integers(1, 2),
        sr=st.floats(0.3, 0.9),
        kind_gamma=KIND_GAMMA,
        lam=st.floats(0.5, 4.0),
        beta=st.floats(0.5, 3.0),
        rho_over_threshold=st.floats(1.05, 4.0),
        tol_inner=st.sampled_from([3e-4, 1e-3, 3e-3]),
        seed=st.integers(0, 2**16),
    )
    def test_every_step_meets_the_sufficient_descent_inequality(
        self, dims, rank, sr, kind_gamma, lam, beta, rho_over_threshold, tol_inner, seed
    ):
        # criterion 7 on random small completions run by run_completion. A box
        # at 1.05 times the observed peak often cuts the truth, so some draws
        # bind it: their trials below rho and projected moves are checked too
        u = dct_transform(dims[2])
        _, y_obs, mask = synth_completion(dims, rank, sr, 0.01, u, seed)
        assume(mask.any() and top.inf_norm(y_obs) > 0)
        threshold = CompletionLoss(y_obs, mask).lipschitz_constant() / (1 - 2 * solver.XI)
        pen = drawn_penalty(kind_gamma, lam)
        _, info = run_completion(
            y_obs, mask, pen, beta, rho=rho_over_threshold * threshold,
            box_c=1.05 * top.inf_norm(y_obs), admm_cfg=ADMMConfig(tol_inner=tol_inner),
            max_outer=40,
        )
        trace = info["trace"]
        assert trace["descent_checked"]
        a = trace["descent_margin"]
        objectives = [trace["initial_objective"]] + [e["objective"] for e in trace["entries"]]
        for t, entry in enumerate(trace["entries"]):
            assert objectives[t + 1] + a * entry["step_norm"] ** 2 - objectives[t] <= 1e-9

    def test_one_factorization_per_iterate(self, monkeypatch):
        # outside svt, x0 and every iterate that ADMM returns are factorized
        # exactly once: the factors give its objective and the next
        # smooth-part gradient. An exact step makes no SVD outside svt: it
        # reuses its svt's factors. Box 3.0 is slack at every step, 2.7 binds
        # at every step.
        rng = np.random.default_rng(14)
        u = dct_transform(3)
        y = rng.standard_normal((6, 6, 3))
        mask = rng.random(y.shape) < 0.6
        loss = CompletionLoss(np.where(mask, y, 0.0), mask)
        real_svd, real_svt, real_objective = np.linalg.svd, solver.svt, solver.objective_value
        in_svt, outside, iterates = [False], [], []

        def counted_svd(a, *args, **kwargs):
            if not in_svt[0]:
                outside.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        def marked_svt(*args, **kwargs):
            in_svt[0] = True
            try:
                return real_svt(*args, **kwargs)
            finally:
                in_svt[0] = False

        def recorded_objective(x, *args, **kwargs):
            iterates.append(x.copy())
            return real_objective(x, *args, **kwargs)

        for box_c, exact_steps in ((3.0, True), (2.7, False)):
            cfg = PMMConfig(rho=6.0, beta=1.0, box_c=box_c, max_outer=15)
            outside.clear()
            iterates.clear()
            monkeypatch.setattr(np.linalg, "svd", counted_svd)
            monkeypatch.setattr(solver, "svt", marked_svt)
            monkeypatch.setattr(solver, "objective_value", recorded_objective)
            _, trace = pmm_solve(loss, MCP, u, cfg, ADMMConfig(tol_inner=3e-4), loss.y_obs.copy())
            monkeypatch.undo()
            outer = len(trace.entries)
            assert outer > 1
            exact = sum(e.inner_iterations == 1 for e in trace.entries)
            assert exact == (outer if exact_steps else 0)
            assert outside == [(3, 6, 6)] * (outer - exact + 1)
            assert len(iterates) == outer + 1
            for x, objective in zip(iterates, trace.objectives()):
                sigma = top.transformed_singular_values(x, u)
                expected = loss.value(x) + cfg.beta * float(MCP.g(sigma).sum())
                assert objective == pytest.approx(expected, rel=1e-12, abs=0)

    def test_x0_validation(self):
        cfg = PMMConfig(rho=10.0, beta=0.0, box_c=1.0)
        loss = full_mask_loss(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError, match="third-order"):
            pmm_solve(loss, MCP, identity_transform(1), cfg, ADMMConfig(), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            pmm_solve(loss, MCP, identity_transform(1), cfg, ADMMConfig(), np.full((2, 2, 1), np.inf))


def fixed_rho_solve(loss, pen, u, cfg, admm, x0):
    """The fixed-rho loop, written out: one damped ADMM solve per outer step.

    Returns the final iterate and the objectives, initial one first.
    """
    x = top.project_box(x0, cfg.box_c)
    factors = penalties.slice_svd(x, u)
    objectives = [objective_value(x, loss, pen, u, cfg, factors)[0]]
    warm, hint = None, penalties.SubspaceHint()
    for _ in range(cfg.max_outer):
        grad_f, grad_s2 = loss.grad(x), dc_smooth_grad(x, u, pen, factors)
        x_new, m, z, _, _ = admm_subproblem(x, grad_f, grad_s2, pen, u, cfg, admm, warm, hint=hint)
        warm = (m, x_new, z)
        factors = penalties.slice_svd(x_new, u)
        objectives.append(objective_value(x_new, loss, pen, u, cfg, factors)[0])
        step, norm_x = top.fro_norm(x_new - x), top.fro_norm(x)
        x = x_new
        if step <= cfg.tol_outer * norm_x:
            break
    return x, objectives


def recorded_trials(monkeypatch):
    """Wrap ``solver.admm_subproblem``; returns one list of trials per outer step.

    Each trial is ``(xt, grad_f, rho_t, output)``, ``output`` being the call's
    ``(x, m, z, residuals, iterations)``; a step's last trial is the kept one.
    """
    real_subproblem, steps = solver.admm_subproblem, []

    def recorded(xt, grad_f, *args, **kwargs):
        out = real_subproblem(xt, grad_f, *args, **kwargs)
        if not steps or steps[-1][0][0] is not xt:
            steps.append([])
        steps[-1].append((xt, grad_f, args[3].rho, out))
        return out

    monkeypatch.setattr(solver, "admm_subproblem", recorded)
    return steps


class TestLocalStepWeight:
    """Above the descent threshold each step backtracks its own weight rho_t <= rho."""

    # the box runs from far inside the observed peak to just outside it, so
    # most draws bind it at some step: those steps go back up to rho
    @settings(max_examples=40)
    @given(
        dims=st.tuples(st.integers(2, 10), st.integers(2, 10), st.integers(1, 4)),
        rank=st.integers(1, 2),
        sr=st.floats(0.3, 0.9),
        kind_gamma=KIND_GAMMA,
        lam=st.floats(0.5, 4.0),
        beta=st.floats(0.5, 3.0),
        rho_over_threshold=st.floats(1.05, 4.0),
        box_fraction=st.floats(0.3, 1.05),
        tol_inner=st.sampled_from([3e-4, 1e-3, 3e-3]),
        seed=st.integers(0, 2**16),
    )
    def test_every_step_meets_the_recorded_margin_with_a_binding_box(
        self, dims, rank, sr, kind_gamma, lam, beta, rho_over_threshold, box_fraction,
        tol_inner, seed,
    ):
        u = dct_transform(dims[2])
        _, y_obs, mask = synth_completion(dims, rank, sr, 0.01, u, seed)
        assume(mask.any() and top.inf_norm(y_obs) > 0)
        loss = CompletionLoss(y_obs, mask)
        rho = rho_over_threshold * loss.lipschitz_constant() / (1 - 2 * solver.XI)
        cfg = PMMConfig(rho=rho, beta=beta, box_c=box_fraction * top.inf_norm(y_obs),
                        max_outer=40)
        pen = drawn_penalty(kind_gamma, lam)
        _, trace = pmm_solve(loss, pen, u, cfg, ADMMConfig(tol_inner=tol_inner), y_obs)
        assert trace.descent_checked
        a, objectives = trace.descent_margin, trace.objectives()
        assert a > 0 or any(e.exhausted for e in trace.entries)
        for t, entry in enumerate(trace.entries):
            assert objectives[t + 1] + a * entry.step_norm**2 <= objectives[t] + 1e-9
            assert 0 < entry.rho <= rho and entry.trials >= 1

    @pytest.mark.parametrize("task", ["complete", "classify"])
    def test_below_the_threshold_rho_stays_fixed_as_in_the_fixed_rho_loop(self, task):
        # the classify-cli regime: rho below L/(1 - 2 xi), where pmm_solve
        # keeps the fixed-rho damped ADMM of old bit for bit
        u = dct_transform(2)
        if task == "complete":
            _, y_obs, mask = synth_completion((6, 6, 2), 1, 0.6, 0.01, u, seed=3)
            loss, x0 = CompletionLoss(y_obs, mask), y_obs
            cfg = PMMConfig(rho=1.0, beta=1.0, box_c=3.0, max_outer=40)
            pen, admm = MCP, ADMMConfig(tol_inner=3e-4)
        else:
            problem = synth_logistic((5, 5, 2), 1, 120, 10, u, seed=0)
            loss = LogisticLoss(problem.train_samples, problem.train_labels)
            x0 = np.zeros(loss.shape)
            cfg = PMMConfig(rho=0.15, beta=0.5, box_c=10.0, max_outer=40)
            pen, admm = Penalty("mcp", lam=0.2, gamma=2.7), ADMMConfig(tol_inner=1e-3)
        assert cfg.rho < cfg.rho_threshold(loss.lipschitz_constant())
        with pytest.warns(RuntimeWarning, match="descent is not guaranteed"):
            x, trace = pmm_solve(loss, pen, u, cfg, admm, x0)
            ref_x, ref_objectives = fixed_rho_solve(loss, pen, u, cfg, admm, x0)
        assert len(trace.entries) > 5
        assert all((e.rho, e.trials, e.exhausted) == (cfg.rho, 1, False) for e in trace.entries)
        assert trace.objectives() == ref_objectives
        assert np.array_equal(x, ref_x)

    def test_a_binding_move_below_rho_is_retried_at_twice_the_weight(self, monkeypatch):
        # a box just inside the observed peak: a step kept inside the box at its
        # first trial halves the next step's rho_t when its measured curvature
        # c_t is at most rho_t/2, and a trial below rho whose move binds the
        # box (comes back off m) and fails a check is retried at min(2 rho_t, rho)
        u = dct_transform(2)
        _, y_obs, mask = synth_completion((8, 8, 2), 1, 0.6, 0.01, u, seed=2)
        loss = CompletionLoss(y_obs, mask)
        pen = Penalty("mcp", lam=2.0, gamma=2.7)
        cfg = PMMConfig(rho=4.0, beta=2.0, box_c=0.95 * top.inf_norm(y_obs), max_outer=30)
        real_subproblem, steps = solver.admm_subproblem, []

        def recorded(xt, *args, **kwargs):
            if not steps or steps[-1][0] is not xt:
                steps.append((xt, []))
            out = real_subproblem(xt, *args, **kwargs)
            steps[-1][1].append((args[4].rho, args[5].max_inner, kwargs["exact"], out[0] is out[1]))
            return out

        monkeypatch.setattr(solver, "admm_subproblem", recorded)
        x, trace = pmm_solve(loss, pen, u, cfg, ADMMConfig(), y_obs)
        assert trace.descent_checked and len(steps) == len(trace.entries)
        iterates = [xt for xt, _ in steps] + [x]
        retried, held, rho_t = 0, [], cfg.rho
        for t, ((_, calls), entry) in enumerate(zip(steps, trace.entries)):
            trials = [call for call in calls if call[2]]
            assert trials[0][0] == rho_t and len(trials) == entry.trials
            for (rho, budget, _, inside), after in zip(trials, trials[1:]):
                # every trial below rho is the exact move alone
                assert rho < cfg.rho and budget == 1
                assert after[0] == min(2 * rho, cfg.rho)
                retried += not inside
            assert trials[-1][0] == entry.rho
            kept_first_inside = calls == [(rho_t, 1 if rho_t < cfg.rho else 100, True, True)]
            xt, x_new = iterates[t], iterates[t + 1]
            delta = x_new - xt
            square = top.fro_norm(delta) ** 2
            linear = loss.value(xt) + np.vdot(loss.grad(xt), delta)
            c = 2 * (loss.value(x_new) - linear) / square if square > 0 else 0.0
            if kept_first_inside and c > entry.rho / 2:
                held.append(t)
            rho_t = entry.rho / 2 if kept_first_inside and c <= entry.rho / 2 else entry.rho
        assert retried > 0
        # the curvature gate keeps rho_t after a first trial kept inside the box
        assert held

    @settings(max_examples=40)
    @given(
        dims=st.tuples(st.integers(2, 10), st.integers(2, 10), st.integers(1, 4)),
        rank=st.integers(1, 2),
        sr=st.floats(0.3, 0.9),
        kind_gamma=KIND_GAMMA,
        lam=st.floats(0.5, 4.0),
        beta=st.floats(0.5, 3.0),
        rho_over_threshold=st.floats(1.05, 4.0),
        box_fraction=st.floats(0.3, 1.05),
        tol_inner=st.sampled_from([3e-4, 1e-3, 3e-3]),
        seed=st.integers(0, 2**16),
    )
    def test_every_binding_move_kept_below_rho_meets_its_three_checks(
        self, dims, rank, sr, kind_gamma, lam, beta, rho_over_threshold, box_fraction,
        tol_inner, seed,
    ):
        u = dct_transform(dims[2])
        _, y_obs, mask = synth_completion(dims, rank, sr, 0.01, u, seed)
        assume(mask.any() and top.inf_norm(y_obs) > 0)
        loss = CompletionLoss(y_obs, mask)
        rho = rho_over_threshold * loss.lipschitz_constant() / (1 - 2 * solver.XI)
        cfg = PMMConfig(rho=rho, beta=beta, box_c=box_fraction * top.inf_norm(y_obs),
                        max_outer=40)
        with pytest.MonkeyPatch.context() as monkeypatch:
            steps = recorded_trials(monkeypatch)
            _, trace = pmm_solve(loss, drawn_penalty(kind_gamma, lam), u, cfg,
                                 ADMMConfig(tol_inner=tol_inner), y_obs)
        assert len(steps) == len(trace.entries)
        objectives = trace.objectives()
        for t, (trials, entry) in enumerate(zip(steps, trace.entries)):
            xt, grad_f, rho_t, (y, m, _, residuals, _) = trials[-1]
            if rho_t == rho or y is m:
                continue
            # the inner stop test, the local check and the measured margin rho_t/2
            assert entry.rho == rho_t < rho
            assert residuals.eta_res <= tol_inner
            delta = y - xt
            square = top.fro_norm(delta) ** 2
            assert loss.value(y) <= loss.value(xt) + np.vdot(grad_f, delta) + rho_t / 2 * square
            assert objectives[t + 1] + rho_t / 2 * entry.step_norm**2 <= objectives[t] + 1e-9

    def test_a_binding_trial_that_fails_a_cheap_check_costs_no_slice_svd(self, monkeypatch):
        # criterion 8's MCP solve at seed 3: its binding trials below rho fail the
        # local check, so only the measured check of a kept move pays a
        # factorization. complete-small's instance (seed 0) makes only one such
        # trial, as a kept step halves the next weight only when its curvature
        # allows it; seed 3 makes four
        u = dct_transform(10)
        _, y_obs, mask = synth_completion((30, 30, 10), 2, 0.4, 0.01, u, seed=3)
        loss = CompletionLoss(y_obs, mask)
        cfg = PMMConfig(rho=6.0, beta=1.0, box_c=1.05 * top.inf_norm(y_obs))
        admm = ADMMConfig(tol_inner=3e-4)
        real_subproblem, real_slice_svd, events = solver.admm_subproblem, solver.slice_svd, []

        def recorded(xt, grad_f, *args, **kwargs):
            out = real_subproblem(xt, grad_f, *args, **kwargs)
            y, m, _, residuals, _ = out
            rho_t = args[3].rho
            fails = False
            if rho_t < cfg.rho and y is not m:
                delta = y - xt
                square = top.fro_norm(delta) ** 2
                model = loss.value(xt) + np.vdot(grad_f, delta) + rho_t / 2 * square
                fails = residuals.eta_res > admm.tol_inner or loss.value(y) > model
            events.append("failed" if fails else "trial")
            return out

        def counted(*args, **kwargs):
            events.append("slice_svd")
            return real_slice_svd(*args, **kwargs)

        monkeypatch.setattr(solver, "admm_subproblem", recorded)
        monkeypatch.setattr(solver, "slice_svd", counted)
        _, trace = pmm_solve(loss, Penalty("mcp", lam=4.0, gamma=2.7), u, cfg, admm, y_obs)
        assert trace.converged
        failed = [i for i, event in enumerate(events) if event == "failed"]
        assert len(failed) >= 2
        # a failed trial is never the step's last: the next trial follows it at once
        assert all(events[i + 1] in ("trial", "failed") for i in failed)

    def test_binding_moves_below_rho_are_kept_on_a_40x40x4_completion(self, monkeypatch):
        # the pinned 40x40x4 command of tools/cli_digests.py: moves that bind the
        # box below rho are kept at their projected move when their measured
        # objective meets the margin rho_t/2
        u = dct_transform(4)
        _, y_obs, mask = synth_completion((40, 40, 4), 3, 0.6, 0.01, u, seed=0)
        loss = CompletionLoss(y_obs, mask)
        cfg = PMMConfig(rho=3.0, beta=2.0, box_c=1.05 * top.inf_norm(y_obs))
        steps = recorded_trials(monkeypatch)
        _, trace = pmm_solve(loss, Penalty("mcp", lam=8.0, gamma=2.7), u, cfg,
                             ADMMConfig(tol_inner=3e-4), y_obs)
        assert trace.converged and len(steps) == len(trace.entries)
        kept = [entry for trials, entry in zip(steps, trace.entries)
                if trials[-1][2] < cfg.rho and trials[-1][3][0] is not trials[-1][3][1]]
        assert kept and all(entry.rho < cfg.rho and entry.inner_iterations == 1 for entry in kept)
        a, objectives = trace.descent_margin, trace.objectives()
        for t, entry in enumerate(trace.entries):
            assert objectives[t + 1] + a * entry.step_norm**2 <= objectives[t] + DESCENT_SLACK

    def test_the_stop_lies_within_a_few_tol_of_the_limit(self):
        # TestPMMSolve::test_step_norms_plateau_near_convergence with a slack
        # box: the steps at rho_t decay geometrically, so the last ten are not
        # a plateau, but the iterate at the stop lies within a few tol of
        # where a far longer run ends
        loss, truth, u = rank_one_slices_completion()
        cfg = PMMConfig(rho=4.0, beta=2.0, box_c=1.05 * top.inf_norm(truth))
        pen, admm = Penalty("mcp", lam=2.0, gamma=2.7), ADMMConfig(tol_inner=1e-4)
        x, trace = pmm_solve(loss, pen, u, cfg, admm, loss.y_obs.copy())
        assert trace.converged and len({e.rho for e in trace.entries}) > 2
        limit, long_trace = pmm_solve(
            loss, pen, u, dataclasses.replace(cfg, tol_outer=1e-12, max_outer=1000), admm,
            loss.y_obs.copy(),
        )
        assert long_trace.converged
        assert top.fro_norm(x - limit) <= 4 * cfg.tol_outer * top.fro_norm(limit)
        # the prox-gradient residual rho_t||Delta|| over rho plateaus as the
        # step itself does at a fixed rho
        tail = sum(e.rho / cfg.rho * e.step_norm for e in trace.entries[-10:])
        assert tail <= 2 * 10 * cfg.tol_outer * top.fro_norm(x)

    @pytest.mark.parametrize("scale", [0.5, 1.5])
    @pytest.mark.parametrize("kind", ["mcp", "convex"])
    def test_an_inexact_move_keeps_no_margin_it_does_not_meet(self, kind, scale, monkeypatch):
        # every exact move thresholds at scale times its weight, as a far-off
        # truncated svt might, while ADMM's own svt calls stay exact: the loss
        # meets its local check, but only the gain test keeps the margin rho_t/2
        # from a step that does not meet it
        u = dct_transform(2)
        _, y_obs, mask = synth_completion((8, 8, 2), 2, 0.6, 0.01, u, seed=0)
        loss = CompletionLoss(y_obs, mask)
        pen = Penalty("mcp", lam=2.0, gamma=2.7) if kind == "mcp" else Penalty("convex", lam=2.0)
        cfg = PMMConfig(rho=4.0, beta=2.0, box_c=10.0, max_outer=40)
        admm_threshold = cfg.beta * pen.slope / solver.ADMM_ETA

        def off(a, tau, u, hint=None, factors=None):
            tau = tau if tau == admm_threshold else scale * tau
            return svt(a, tau, u, hint=hint, factors=factors)

        monkeypatch.setattr(solver, "svt", off)
        _, trace = pmm_solve(loss, pen, u, cfg, ADMMConfig(tol_inner=3e-4), y_obs)
        assert len(trace.entries) > 20
        a, objectives = trace.descent_margin, trace.objectives()
        for t, entry in enumerate(trace.entries):
            assert objectives[t + 1] + a * entry.step_norm**2 <= objectives[t] + 1e-9


class TestTruncatedSVTInSolve:
    """A completion above the size gate, where the inner solver's ``svt`` calls go truncated."""

    @pytest.fixture(scope="class")
    def problem(self):
        u = dct_transform(2)
        dims = (TRUNCATED_MIN_SIDE, TRUNCATED_MIN_SIDE, 2)
        _, y_obs, mask = synth_completion(dims, 2, 0.6, 0.01, u, seed=0)
        loss = CompletionLoss(y_obs, mask)
        pen = Penalty("mcp", lam=12.0, gamma=2.7)
        cfg = PMMConfig(rho=6.0, beta=2.0, box_c=10.0, max_outer=60)
        return loss, pen, u, cfg, ADMMConfig(tol_inner=3e-4)

    def test_same_iteration_counts_as_without_the_hints(self, problem, monkeypatch):
        # a box well inside the data binds at every step, so ADMM runs after the exact move
        loss, pen, u, cfg, admm = problem
        cfg = dataclasses.replace(cfg, box_c=4.0)
        accepted = []
        truncated = penalties._truncated_svt

        def counting(*args):
            out = truncated(*args)
            accepted.append(out is not None)
            return out

        monkeypatch.setattr(penalties, "_truncated_svt", counting)
        x, trace = pmm_solve(loss, pen, u, cfg, admm, loss.y_obs.copy())
        assert trace.converged and sum(accepted) > 100
        assert all(e.inner_iterations > 1 for e in trace.entries)
        monkeypatch.setattr(
            solver, "svt", lambda a, tau, u, hint=None, factors=None: svt(a, tau, u, factors=factors)
        )
        ref_x, ref_trace = pmm_solve(loss, pen, u, cfg, admm, loss.y_obs.copy())
        assert [e.inner_iterations for e in trace.entries] == [
            e.inner_iterations for e in ref_trace.entries
        ]
        assert top.fro_norm(x - ref_x) <= 1e-8 * top.fro_norm(ref_x)

    def test_log_penalty_hands_the_exact_factors_on(self, problem, monkeypatch):
        # s2'(0) = 0 for log too, so the zero singular values that truncated
        # factors omit add nothing to the smooth-part gradient: every exact
        # step reuses its svt's factors, and the only slice_svd is x0's. The
        # run matches one whose svt leaves no factors behind.
        loss, _, u, cfg, admm = problem
        pen = Penalty("log", lam=12.0, gamma=2.0)
        cfg = dataclasses.replace(cfg, max_outer=20)
        real_slice_svd, factorized = solver.slice_svd, []

        def counted(x, u):
            factorized.append(x)
            return real_slice_svd(x, u)

        monkeypatch.setattr(solver, "slice_svd", counted)
        x, trace = pmm_solve(loss, pen, u, cfg, admm, loss.y_obs.copy())
        assert all(e.inner_iterations == 1 for e in trace.entries)
        assert len(trace.entries) > 10 and len(factorized) == 1

        def forgetful(a, tau, u, hint=None, factors=None):
            out = svt(a, tau, u, hint=hint, factors=factors)
            if hint is not None:
                hint.factors = None
            return out

        monkeypatch.setattr(solver, "svt", forgetful)
        ref_x, ref_trace = pmm_solve(loss, pen, u, cfg, admm, loss.y_obs.copy())
        np.testing.assert_allclose(trace.objectives(), ref_trace.objectives(), rtol=1e-10, atol=0)
        assert top.fro_norm(x - ref_x) <= 1e-10 * top.fro_norm(ref_x)

    def test_log_penalty_below_gamma_one_meets_the_descent_inequality(self, problem):
        # with gamma < 1 the smooth part is convex only because s2'(0) = 0
        loss, _, u, cfg, admm = problem
        pen = Penalty("log", lam=12.0, gamma=0.5)
        _, trace = pmm_solve(loss, pen, u, cfg, admm, loss.y_obs.copy())
        assert trace.descent_checked and trace.entries
        a, objectives = trace.descent_margin, trace.objectives()
        for t, entry in enumerate(trace.entries):
            assert objectives[t + 1] + a * entry.step_norm**2 - objectives[t] <= 1e-9

    @pytest.mark.parametrize("kind, gamma, box_c", [("mcp", 2.7, 4.0), ("log", 2.0, 10.0)])
    def test_trace_multi_rank_matches_a_fresh_count(self, problem, kind, gamma, box_c):
        # ADMM returns (box 4 binds) and exact steps with truncated factors (log)
        loss, _, u, cfg, admm = problem
        pen = Penalty(kind, lam=12.0, gamma=gamma)
        cfg = dataclasses.replace(cfg, box_c=box_c, max_outer=20)
        x, trace = pmm_solve(loss, pen, u, cfg, admm, loss.y_obs.copy())
        assert trace.multi_rank == top.multi_rank(x, u).tolist()
        assert "multi_rank" not in trace.to_dict()

    def test_repeated_solves_are_identical(self, problem):
        loss, pen, u, cfg, admm = problem
        x, trace = pmm_solve(loss, pen, u, cfg, admm, loss.y_obs.copy())
        again_x, again_trace = pmm_solve(loss, pen, u, cfg, admm, loss.y_obs.copy())
        assert np.array_equal(x, again_x)
        assert trace.to_dict() == again_trace.to_dict()
