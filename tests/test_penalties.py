import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ttlearn.tensor_ops as top
from ttlearn import penalties
from ttlearn.losses import CompletionLoss
from ttlearn.penalties import (
    SPLIT_MIN_SIDE,
    SUBSPACE_OVERSAMPLE,
    TRUNCATED_MIN_SIDE,
    Penalty,
    SubspaceHint,
    dc_smooth_grad,
    dc_smooth_value,
    penalty_value,
    svt,
)
from ttlearn.solver import ADMMConfig, PMMConfig, pmm_solve
from ttlearn.tasks import synth_completion
from ttlearn.transforms import dct_transform, identity_transform

ALL_KINDS = [
    Penalty("mcp", lam=1.0, gamma=2.7),
    Penalty("scad", lam=1.0, gamma=3.0),
    Penalty("log", lam=1.0, gamma=2.0),
    Penalty("convex", lam=1.0),
]


def reference_g(pen, x):
    """Closed form of g for each kind, written out independently of the DC split."""
    lam, gamma = pen.lam, pen.gamma
    if pen.kind == "convex":
        return lam * x
    if pen.kind == "mcp":
        return np.where(x <= gamma * lam, lam * x - x**2 / (2 * gamma), 0.5 * gamma * lam**2)
    if pen.kind == "scad":
        return np.select(
            [x < lam, x < gamma * lam],
            [lam * x, (-(x**2) + 2 * gamma * lam * x - lam**2) / (2 * (gamma - 1))],
            default=lam**2 * (gamma + 1) / 2,
        )
    return lam * np.log1p(x / gamma)


def spectrum_tensor(slices_sigma, rng, transform):
    """Tensor whose transformed slices have prescribed singular values."""
    n3 = len(slices_sigma)
    m = len(slices_sigma[0])
    xhat = np.zeros((m, m, n3))
    for k, sig in enumerate(slices_sigma):
        q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
        q2, _ = np.linalg.qr(rng.standard_normal((m, m)))
        xhat[:, :, k] = q1 @ np.diag(sig) @ q2.T
    return top.inverse_transform(xhat, transform)


class TestParamValidation:
    def test_lam_positive(self):
        with pytest.raises(ValueError):
            Penalty("mcp", lam=0.0, gamma=1.0)

    def test_gamma_ranges(self):
        with pytest.raises(ValueError):
            Penalty("mcp", lam=1.0, gamma=0.0)
        with pytest.raises(ValueError):
            Penalty("log", lam=1.0, gamma=-1.0)
        with pytest.raises(ValueError):
            Penalty("scad", lam=1.0, gamma=1.0)
        Penalty("scad", lam=1.0, gamma=1.01)

    @pytest.mark.parametrize("kind", ["mcp", "scad", "log", "convex"])
    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_gamma_must_be_finite(self, kind, gamma):
        with pytest.raises(penalties.ParameterError) as excinfo:
            Penalty(kind, lam=1.0, gamma=gamma)
        assert excinfo.value.name == "gamma"

    @pytest.mark.parametrize(
        "kind,lam,gamma,name",
        [
            ("mcp", penalties.SQUARE_LIMIT, 2.7, "lam"),
            ("mcp", 1e155, 1e-3, "lam"),
            ("scad", penalties.SQUARE_LIMIT, 3.7, "lam"),
            ("log", 1.0, penalties.SQUARE_LIMIT, "gamma"),
            ("log", 1e10, 1e-300, "gamma"),  # lam/gamma overflows
            ("log", 1.0, 1e-170, "gamma"),  # gamma**2 underflows to 0
            ("mcp", 1.0, 1e-320, "gamma"),  # subnormal: 1/gamma overflows
            ("mcp", 1.0, 5e-324, "gamma"),
        ],
    )
    def test_overflowing_closed_forms_rejected(self, kind, lam, gamma, name):
        # s2 squares lam and mu squares gamma on Python floats, where ** raises
        with pytest.raises(penalties.ParameterError) as excinfo:
            Penalty(kind, lam=lam, gamma=gamma)
        assert excinfo.value.name == name

    @pytest.mark.parametrize(
        "kind,lam,gamma",
        [
            ("mcp", np.nextafter(penalties.SQUARE_LIMIT, 0), 2.7),
            ("scad", np.nextafter(penalties.SQUARE_LIMIT, 0), 3.7),
            ("log", 1.0, np.nextafter(penalties.SQUARE_LIMIT, 0)),
            ("log", 1.0, 1e-150),
            ("mcp", 1.0, 1e-300),
            ("convex", 1e300, 0.0),
        ],
    )
    def test_largest_accepted_parameters_evaluate(self, kind, lam, gamma):
        pen = Penalty(kind, lam=float(lam), gamma=float(gamma))
        x = np.array([0.0, 1.0])
        assert np.isfinite(pen.slope) and np.isfinite(pen.mu)
        for values in (pen.s2(x), pen.s2_prime(x), pen.g(x)):
            assert np.all(np.isfinite(values))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            Penalty("lasso", lam=1.0)

    def test_domain_error(self):
        pen = Penalty("mcp", lam=1.0, gamma=2.0)
        for fn in (pen.g, pen.g_prime, pen.s1, pen.s2, pen.s2_prime):
            with pytest.raises(ValueError):
                fn(-0.5)


class TestScalarValues:
    @pytest.mark.parametrize("pen", ALL_KINDS)
    def test_zero_maps_to_zero(self, pen):
        assert pen.g(0.0) == 0.0
        assert pen.s2(0.0) == 0.0

    def test_mcp_tail_value(self):
        pen = Penalty("mcp", lam=1.0, gamma=2.7)
        for x in (2.7, 3.0, 100.0):
            assert pen.g(x) == pytest.approx(1.35)

    def test_scad_tail_value(self):
        pen = Penalty("scad", lam=1.0, gamma=3.0)
        for x in (3.0, 5.0, 100.0):
            assert pen.g(x) == pytest.approx(2.0)

    def test_log_value(self):
        pen = Penalty("log", lam=2.0, gamma=2.0)
        assert pen.g(2.0) == pytest.approx(2.0 * np.log(2.0))

    @pytest.mark.parametrize("pen", ALL_KINDS)
    def test_branch_continuity(self, pen):
        if pen.kind == "convex":
            return
        knots = [pen.gamma * pen.lam]
        if pen.kind == "scad":
            knots.append(pen.lam)
        eps = 1e-9
        for knot in knots:
            for fn in (pen.g, pen.s2):
                assert abs(float(fn(knot + eps)) - float(fn(max(knot - eps, 0.0)))) <= 1e-6

    def test_mcp_derivative_at_knee(self):
        pen = Penalty("mcp", lam=1.0, gamma=2.0)
        assert pen.g_prime(2.0) == pytest.approx(0.0)

    def test_log_derivative_at_zero(self):
        pen = Penalty("log", lam=1.0, gamma=2.0)
        assert pen.g_prime(0.0) == pytest.approx(0.5)
        assert pen.lam * pen.k0 == pytest.approx(0.5)

    @pytest.mark.parametrize("pen", ALL_KINDS)
    def test_derivative_bounded_by_lam_k0(self, pen):
        grid = np.linspace(0.0, 20.0, 10_000)
        assert np.all(pen.g_prime(grid) <= pen.lam * pen.k0 + 1e-12)

    @pytest.mark.parametrize("pen", ALL_KINDS)
    def test_derivative_at_zero_is_lam_k0(self, pen):
        assert pen.g_prime(0.0) == pytest.approx(pen.lam * pen.k0)

    @pytest.mark.parametrize(
        "pen",
        [
            Penalty("mcp", lam=1.0, gamma=2.7),
            Penalty("scad", lam=1.0, gamma=3.7),
            Penalty("scad", lam=1.0, gamma=float(np.nextafter(1.0, 2.0))),
            Penalty("log", lam=1.0, gamma=2.0),
            Penalty("convex", lam=1.0),
        ],
        ids=["mcp", "scad", "scad-gamma-next-to-1", "log", "convex"],
    )
    def test_huge_values_evaluate_without_overflow(self, pen):
        # np.where evaluates both branches: the one it discards must not overflow
        x = np.array([0.0, 1.0, 1e200, 1e300])
        with np.errstate(all="raise"):
            for fn in (pen.s2, pen.s2_prime, pen.g, pen.g_prime):
                assert np.all(np.isfinite(fn(x)))


class TestDCSplit:
    def test_mcp_s2_inside(self):
        pen = Penalty("mcp", lam=1.0, gamma=2.0)
        assert pen.s2(1.0) == pytest.approx(0.25)

    def test_scad_s2_first_branch(self):
        pen = Penalty("scad", lam=1.0, gamma=3.0)
        assert pen.s2(0.5) == 0.0
        assert pen.s2_prime(0.5) == 0.0

    def test_s2_prime_at_zero(self):
        # s1 is the tangent of g at 0, whatever the kind
        logs = [Penalty("log", lam=1.5, gamma=gamma) for gamma in (0.5, 3.0)]
        for pen in ALL_KINDS + logs:
            assert pen.s2_prime(0.0) == 0
            assert pen.g_prime(0.0) == pen.slope

    @pytest.mark.parametrize("pen", ALL_KINDS)
    def test_g_equals_s1_minus_s2(self, pen):
        grid = np.linspace(0.0, 15.0, 4001)
        # g is derived as s1 - s2; the closed forms check that split
        np.testing.assert_allclose(pen.g(grid), reference_g(pen, grid), atol=1e-12)

    @pytest.mark.parametrize("pen", ALL_KINDS)
    def test_g_monotone_and_concave(self, pen):
        grid = np.linspace(0.0, 15.0, 2001)
        vals = pen.g(grid)
        assert np.all(np.diff(vals) >= -1e-12)
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-10)

    @pytest.mark.parametrize("pen", ALL_KINDS)
    def test_g_over_x_nonincreasing(self, pen):
        grid = np.linspace(0.05, 15.0, 2001)
        ratio = pen.g(grid) / grid
        assert np.all(np.diff(ratio) <= 1e-12)

    @pytest.mark.parametrize("pen", ALL_KINDS)
    def test_s2_prime_nondecreasing_and_lipschitz(self, pen):
        grid = np.linspace(0.0, 15.0, 2001)
        deriv = pen.s2_prime(grid)
        assert np.all(np.diff(deriv) >= -1e-12)
        rng = np.random.default_rng(0)
        xs = 10 * rng.random(500)
        ys = 10 * rng.random(500)
        gap = np.abs(pen.s2_prime(xs) - pen.s2_prime(ys))
        assert np.all(gap <= pen.mu * np.abs(xs - ys) + 1e-12)


class TestDerivedConstants:
    def test_mu_values(self):
        assert Penalty("mcp", lam=1.0, gamma=2.7).mu == pytest.approx(1 / 2.7)
        assert Penalty("scad", lam=1.0, gamma=3.0).mu == pytest.approx(0.5)
        assert Penalty("log", lam=2.0, gamma=4.0).mu == pytest.approx(2.0 / 16.0)
        assert Penalty("convex", lam=1.0).mu == 0.0

    def test_k0_values(self):
        assert Penalty("mcp", lam=1.0, gamma=2.0).k0 == 1.0
        assert Penalty("scad", lam=1.0, gamma=3.0).k0 == 1.0
        assert Penalty("log", lam=1.0, gamma=2.5).k0 == pytest.approx(0.4)
        assert Penalty("convex", lam=3.0).k0 == 1.0

    @pytest.mark.parametrize("pen", ALL_KINDS + [Penalty("log", lam=3.0, gamma=0.7)])
    def test_slope_is_lam_k0(self, pen):
        assert pen.slope == pytest.approx(pen.lam * pen.k0, rel=1e-15)
        if pen.k0 == 1:
            assert pen.slope == pen.lam


class TestTensorPenalty:
    def test_zero_tensor(self):
        u = dct_transform(2)
        for pen in ALL_KINDS:
            assert penalty_value(np.zeros((3, 3, 2)), u, pen) == 0.0
            assert dc_smooth_value(np.zeros((3, 3, 2)), u, pen) == 0.0

    def test_convex_kind_is_scaled_nuclear_norm(self):
        rng = np.random.default_rng(1)
        u = dct_transform(3)
        pen = Penalty("convex", lam=2.0)
        for _ in range(10):
            x = rng.standard_normal((4, 3, 3))
            expected = 2.0 * top.tensor_nuclear_norm(x, u)
            assert penalty_value(x, u, pen) == pytest.approx(expected, rel=1e-12)
            assert dc_smooth_value(x, u, pen) == 0.0

    def test_matches_scalar_sum_over_tsvd_sigma(self):
        rng = np.random.default_rng(2)
        u = dct_transform(3)
        pen = Penalty("mcp", lam=0.8, gamma=2.7)
        x = rng.standard_normal((5, 4, 3))
        sigma = top.t_svd(x, u).sigma
        assert penalty_value(x, u, pen) == pytest.approx(float(pen.g(sigma).sum()), rel=1e-10)

    @pytest.mark.parametrize("pen", ALL_KINDS)
    def test_dc_identity_on_tensors(self, pen):
        rng = np.random.default_rng(3)
        u = identity_transform(4)
        for _ in range(100):
            x = rng.standard_normal((3, 3, 4))
            lhs = penalty_value(x, u, pen) + dc_smooth_value(x, u, pen)
            rhs = pen.lam * pen.k0 * top.tensor_nuclear_norm(x, u)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("pen", ALL_KINDS + [Penalty("log", lam=1.0, gamma=0.5)])
    def test_smooth_part_is_midpoint_convex(self, pen):
        # a spectral function is convex when the even extension of s2 is
        # (Lewis 1995), which needs s2'(0) >= 0; small spectra probe that end
        rng = np.random.default_rng(9)
        u = dct_transform(2)
        for scale in (1e-3, 1.0, 10.0):
            for _ in range(50):
                x, y = scale * rng.standard_normal((2, 4, 3, 2))
                mid = dc_smooth_value((x + y) / 2, u, pen)
                ends = (dc_smooth_value(x, u, pen) + dc_smooth_value(y, u, pen)) / 2
                assert mid <= ends + 1e-12 * max(1.0, abs(ends))

    def test_lemma_nuclear_norm_bound(self):
        # lam*k0*||X||_* <= penalty + (mu/2)*||X||_F^2 for matrices as n3=1 tensors
        rng = np.random.default_rng(4)
        u = identity_transform(1)
        for pen in ALL_KINDS:
            for _ in range(200):
                x = 3 * rng.standard_normal((5, 4, 1))
                lhs = pen.lam * pen.k0 * top.tensor_nuclear_norm(x, u)
                rhs = penalty_value(x, u, pen) + 0.5 * pen.mu * top.fro_norm(x) ** 2
                assert lhs <= rhs + 1e-8

    def test_lemma_weak_convexity_midpoint(self):
        rng = np.random.default_rng(5)
        u = dct_transform(2)
        for pen in ALL_KINDS:
            for _ in range(200):
                x = rng.standard_normal((4, 3, 2))
                y = rng.standard_normal((4, 3, 2))
                def gamma_tilde(t):
                    return penalty_value(t, u, pen) + 0.5 * pen.mu * top.fro_norm(t) ** 2
                mid = gamma_tilde((x + y) / 2)
                assert mid <= (gamma_tilde(x) + gamma_tilde(y)) / 2 + 1e-9


class TestSmoothGradient:
    def test_convex_gradient_is_zero(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3, 2))
        grad = dc_smooth_grad(x, dct_transform(2), Penalty("convex", lam=1.0))
        np.testing.assert_array_equal(grad, np.zeros_like(x))

    def test_diagonal_case_matches_scalar_derivative(self):
        # both singular values beyond the mcp knee, so s2' = lam there
        x = np.diag([5.0, 2.0]).reshape(2, 2, 1)
        pen = Penalty("mcp", lam=1.0, gamma=2.0)
        grad = dc_smooth_grad(x, identity_transform(1), pen)
        np.testing.assert_allclose(grad[:, :, 0], np.diag([1.0, 1.0]), atol=1e-12)

    @pytest.mark.parametrize(
        "pen",
        [
            Penalty("mcp", lam=1.0, gamma=2.7),
            Penalty("scad", lam=1.0, gamma=3.0),
            Penalty("log", lam=1.0, gamma=2.0),
        ],
    )
    def test_finite_difference_match(self, pen):
        rng = np.random.default_rng(7)
        u = dct_transform(4)
        # well-separated singular values keep finite differences reliable
        sigmas = [np.sort(0.5 + 4 * rng.random(5))[::-1] + np.arange(5) * 0.3 for _ in range(4)]
        x = spectrum_tensor(sigmas, rng, u)
        grad = dc_smooth_grad(x, u, pen)
        step = 1e-6
        fd = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            bump = np.zeros_like(x)
            bump[idx] = step
            fd[idx] = (
                dc_smooth_value(x + bump, u, pen) - dc_smooth_value(x - bump, u, pen)
            ) / (2 * step)
        assert top.fro_norm(grad - fd) <= 1e-5 * max(top.fro_norm(fd), 1.0)


class TestSVT:
    def test_large_threshold_kills_everything(self):
        rng = np.random.default_rng(8)
        u = dct_transform(3)
        x = rng.standard_normal((4, 3, 3))
        big = top.spectral_norm(x, u) + 1.0
        np.testing.assert_allclose(svt(x, big, u), np.zeros_like(x), atol=1e-12)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 3, 2))
        np.testing.assert_array_equal(svt(x, 0.0, dct_transform(2)), x)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            svt(np.zeros((2, 2, 1)), -1.0, identity_transform(1))

    def test_diagonal_matrix_case(self):
        a = np.diag([3.0, 1.0, 0.5]).reshape(3, 3, 1)
        out = svt(a, 1.0, identity_transform(1))
        np.testing.assert_allclose(out[:, :, 0], np.diag([2.0, 0.0, 0.0]), atol=1e-12)

    def test_matches_per_slice_svt_oracle(self):
        rng = np.random.default_rng(10)
        u = dct_transform(4)
        a = rng.standard_normal((6, 5, 4))
        tau = 0.7
        ahat = top.apply_transform(a, u)
        out_hat = np.zeros_like(ahat)
        for k in range(4):
            w, s, vh = np.linalg.svd(ahat[:, :, k], full_matrices=False)
            out_hat[:, :, k] = (w * np.maximum(s - tau, 0.0)) @ vh
        expected = top.inverse_transform(out_hat, u)
        np.testing.assert_allclose(svt(a, tau, u), expected, atol=1e-12)

    def test_prox_objective_beats_random_probes(self):
        rng = np.random.default_rng(11)
        u = dct_transform(3)
        a = rng.standard_normal((5, 4, 3))
        tau = 0.5

        def prox_objective(m):
            return 0.5 * top.fro_norm(m - a) ** 2 + tau * top.tensor_nuclear_norm(m, u)

        out = svt(a, tau, u)
        best = prox_objective(out)
        for _ in range(300):
            probe = out + 0.3 * rng.standard_normal(out.shape)
            assert best <= prox_objective(probe) + 1e-8

    def test_nonexpansive(self):
        rng = np.random.default_rng(12)
        u = dct_transform(2)
        for _ in range(100):
            a = rng.standard_normal((4, 3, 2))
            b = rng.standard_normal((4, 3, 2))
            lhs = top.fro_norm(svt(a, 0.8, u) - svt(b, 0.8, u))
            assert lhs <= top.fro_norm(a - b) + 1e-10


def low_rank_stack(rng, shape, sigmas, noise, transform):
    """Tensor whose transformed slices are rank ``len(sigmas)`` with those singular values, plus noise."""
    n1, n2, n3 = shape
    xhat = noise * rng.standard_normal(shape)
    for k in range(n3):
        q1, _ = np.linalg.qr(rng.standard_normal((n1, len(sigmas))))
        q2, _ = np.linalg.qr(rng.standard_normal((n2, len(sigmas))))
        xhat[:, :, k] += (q1 * sigmas) @ q2.T
    return top.inverse_transform(xhat, transform)


def assert_matches_full_svt(out, a, tau, u):
    # the certificate bounds the deviation by residuals relative to ||a||_F
    assert top.fro_norm(out - svt(a, tau, u)) <= 1e-9 * top.fro_norm(a)


side = st.integers(TRUNCATED_MIN_SIDE, TRUNCATED_MIN_SIDE + 16)
slices = st.integers(1, 3)
transforms = st.sampled_from([identity_transform, dct_transform])
seeds = st.integers(0, 2**32 - 1)
TAU = 2.0  # above the noise floor (spectral norm below 0.4), below every signal value


def spectrum(rng, rank):
    return np.sort(rng.uniform(5.0, 50.0, rank))[::-1]


class TestTruncatedSVT:
    """The hinted kernel above the size gate against the full-SVD ``svt``."""

    @settings(max_examples=25)
    @given(n1=side, n2=side, n3=slices, transform=transforms, rank=st.integers(1, 6),
           drift=st.floats(0.0, 0.05), seed=seeds)
    def test_warm_hint_from_a_nearby_stack(self, n1, n2, n3, transform, rank, drift, seed):
        rng = np.random.default_rng(seed)
        u = transform(n3)
        a = low_rank_stack(rng, (n1, n2, n3), spectrum(rng, rank), 0.02, u)
        hint = SubspaceHint()
        np.testing.assert_array_equal(svt(a, TAU, u, hint=hint), svt(a, TAU, u))
        assert hint.basis.shape == (n3, n2, rank + SUBSPACE_OVERSAMPLE)
        b = a + drift * rng.standard_normal(a.shape)
        assert_matches_full_svt(svt(b, TAU, u, hint=hint), b, TAU, u)

    @settings(max_examples=25)
    @given(n1=side, n2=side, n3=slices, transform=transforms, rank=st.integers(1, 6),
           other_rank=st.integers(1, 6), seed=seeds)
    def test_stale_hint_from_an_unrelated_stack(
        self, n1, n2, n3, transform, rank, other_rank, seed
    ):
        rng = np.random.default_rng(seed)
        u = transform(n3)
        hint = SubspaceHint()
        svt(low_rank_stack(rng, (n1, n2, n3), spectrum(rng, other_rank), 0.02, u), TAU, u,
            hint=hint)
        b = low_rank_stack(rng, (n1, n2, n3), spectrum(rng, rank), 0.02, u)
        assert_matches_full_svt(svt(b, TAU, u, hint=hint), b, TAU, u)

    @settings(max_examples=25)
    @given(n=side, n3=slices, transform=transforms, rank=st.integers(2, 14), seed=seeds)
    def test_rank_growing_past_the_hint(self, n, n3, transform, rank, seed):
        rng = np.random.default_rng(seed)
        u = transform(n3)
        hint = SubspaceHint()
        svt(low_rank_stack(rng, (n, n, n3), spectrum(rng, 1), 0.02, u), TAU, u, hint=hint)
        width = 1 + SUBSPACE_OVERSAMPLE
        assert hint.basis.shape[2] == width
        b = low_rank_stack(rng, (n, n, n3), spectrum(rng, rank), 0.02, u)
        assert_matches_full_svt(svt(b, TAU, u, hint=hint), b, TAU, u)
        if rank >= width:
            # the call fell back to the full SVD, whose rank + oversampling
            # is wider than a quarter of these slices, so the hint is cleared
            assert hint.basis is None

    @settings(max_examples=10)
    @given(n3=slices, transform=transforms, margin=st.floats(1e-6, 1.0), seed=seeds)
    def test_threshold_above_the_top_singular_value(self, n3, transform, margin, seed):
        rng = np.random.default_rng(seed)
        u = transform(n3)
        shape = (TRUNCATED_MIN_SIDE, TRUNCATED_MIN_SIDE + 3, n3)
        hint = SubspaceHint()
        svt(low_rank_stack(rng, shape, spectrum(rng, 3), 0.02, u), TAU, u, hint=hint)
        b = low_rank_stack(rng, shape, spectrum(rng, 3), 0.02, u)
        tau = top.spectral_norm(b, u) * (1 + margin)
        np.testing.assert_array_equal(svt(b, tau, u, hint=hint), np.zeros_like(b))

    def test_zero_input(self):
        rng = np.random.default_rng(3)
        u = dct_transform(2)
        shape = (TRUNCATED_MIN_SIDE, TRUNCATED_MIN_SIDE, 2)
        hint = SubspaceHint()
        svt(low_rank_stack(rng, shape, spectrum(rng, 4), 0.02, u), TAU, u, hint=hint)
        np.testing.assert_array_equal(svt(np.zeros(shape), TAU, u, hint=hint), np.zeros(shape))

    @settings(max_examples=15)
    @given(n1=side, n2=side, n3=slices, transform=transforms, top_copies=st.integers(2, 4),
           low_copies=st.integers(0, 2), seed=seeds)
    def test_repeated_singular_values(self, n1, n2, n3, transform, top_copies, low_copies, seed):
        rng = np.random.default_rng(seed)
        u = transform(n3)
        sigmas = np.array([20.0] * top_copies + [7.0] * low_copies)
        a = low_rank_stack(rng, (n1, n2, n3), sigmas, 0.0, u)
        hint = SubspaceHint()
        svt(a, TAU, u, hint=hint)
        b = low_rank_stack(rng, (n1, n2, n3), sigmas, 0.0, u) if seed % 2 else a
        assert_matches_full_svt(svt(b, TAU, u, hint=hint), b, TAU, u)

    def test_warm_call_factorizes_only_the_small_projection(self, monkeypatch):
        rng = np.random.default_rng(4)
        u = dct_transform(3)
        shape = (TRUNCATED_MIN_SIDE + 6, TRUNCATED_MIN_SIDE, 3)
        a = low_rank_stack(rng, shape, spectrum(rng, 4), 0.02, u)
        hint = SubspaceHint()
        svt(a, TAU, u, hint=hint)
        shapes = []
        real_svd = np.linalg.svd

        def spy(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return real_svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        width = 4 + SUBSPACE_OVERSAMPLE
        results = []
        for _ in range(3):
            shapes.clear()
            steps = hint.steps
            b = a + 0.01 * rng.standard_normal(shape)
            results.append((svt(b, TAU, u, hint=hint), b))
            # one factorization per power step from the remembered count on
            assert shapes == [(3, width, width)] * (hint.steps - steps + 1)
        assert shapes == [(3, width, width)]
        monkeypatch.undo()
        for out, b in results:
            assert_matches_full_svt(out, b, TAU, u)

    def test_singular_value_outside_the_hint_is_not_missed(self):
        # the hint spans e1 and e3..e12; the second matrix adds 5 along e2,
        # which no power step from that basis can reach
        n = TRUNCATED_MIN_SIDE
        u = identity_transform(1)
        diagonal = np.zeros(n)
        diagonal[0], diagonal[2:12] = 10.0, 1.0
        hint = SubspaceHint()
        svt(np.diag(diagonal)[:, :, None], TAU, u, hint=hint)
        assert hint.basis is not None
        diagonal[1] = 5.0
        out = svt(np.diag(diagonal)[:, :, None], TAU, u, hint=hint)
        assert out[1, 1, 0] == pytest.approx(5.0 - TAU)
        assert_matches_full_svt(out, np.diag(diagonal)[:, :, None], TAU, u)

    @settings(max_examples=25)
    @given(n1=side, n2=side, n3=slices, transform=transforms, rank=st.integers(1, 6),
           strength=st.floats(TAU + 0.1, 40.0), seed=seeds)
    def test_direction_orthogonal_to_the_hint(self, n1, n2, n3, transform, rank, strength, seed):
        rng = np.random.default_rng(seed)
        u = transform(n3)
        a = low_rank_stack(rng, (n1, n2, n3), spectrum(rng, rank), 0.02, u)
        hint = SubspaceHint()
        svt(a, TAU, u, hint=hint)
        # add, in every transformed slice, a rank-one term whose right vector
        # is orthogonal to the remembered basis V and whose left vector is
        # orthogonal to A V: the first power step does not see it
        ahat = top.apply_transform(a, u)
        for k in range(n3):
            basis = hint.basis[k]
            image, _ = np.linalg.qr(ahat[:, :, k] @ basis)
            y = rng.standard_normal(n2)
            y -= basis @ (basis.T @ y)
            x = rng.standard_normal(n1)
            x -= image @ (image.T @ x)
            ahat[:, :, k] += strength * np.outer(x / np.linalg.norm(x), y / np.linalg.norm(y))
        b = top.inverse_transform(ahat, u)
        assert_matches_full_svt(svt(b, TAU, u, hint=hint), b, TAU, u)

    def test_noise_above_the_bound_leaves_no_hint(self):
        # noise of spectral norm near 1.3 < TAU keeps the width at 12, but
        # its Frobenius norm outside the subspace, near 4.7, fails the bound
        rng = np.random.default_rng(7)
        u = dct_transform(2)
        shape = (TRUNCATED_MIN_SIDE, TRUNCATED_MIN_SIDE, 2)
        hint = SubspaceHint()
        svt(low_rank_stack(rng, shape, spectrum(rng, 2), 0.08, u), TAU, u, hint=hint)
        assert hint.basis is None
        svt(low_rank_stack(rng, shape, spectrum(rng, 2), 0.02, u), TAU, u, hint=hint)
        assert hint.basis is not None

    def test_below_the_gate_the_hint_is_unused(self):
        rng = np.random.default_rng(5)
        u = dct_transform(2)
        shape = (TRUNCATED_MIN_SIDE - 1, 80, 2)
        a = low_rank_stack(rng, shape, spectrum(rng, 2), 0.02, u)
        hint = SubspaceHint()
        for b in (a, a + 0.01 * rng.standard_normal(shape)):
            np.testing.assert_array_equal(svt(b, TAU, u, hint=hint), svt(b, TAU, u))
            assert hint.basis is None

    @pytest.mark.parametrize("side", [TRUNCATED_MIN_SIDE - 1, TRUNCATED_MIN_SIDE])
    def test_hint_keeps_the_factors_of_the_result(self, side):
        # below the gate (full SVD) and above it (full, then truncated): the
        # shrunk factors rebuild the returned tensor bit for bit; tau 0 clears them
        rng = np.random.default_rng(9)
        u = dct_transform(2)
        shape = (side, side, 2)
        a = low_rank_stack(rng, shape, spectrum(rng, 2), 0.02, u)
        hint = SubspaceHint()
        for b in (a, a + 0.01 * rng.standard_normal(shape)):
            out = svt(b, TAU, u, hint=hint)
            left, shrunk, right_h = hint.factors
            rebuilt = penalties.spectral_map(hint.factors, lambda s: s, u)
            np.testing.assert_array_equal(rebuilt, out)
            assert np.all(shrunk >= 0) and shrunk.shape == (2, left.shape[2])
            assert right_h.shape == (2, left.shape[2], side)
        assert (left.shape[2] < side) == (side >= TRUNCATED_MIN_SIDE)
        np.testing.assert_array_equal(svt(a, 0.0, u, hint=hint), a)
        assert hint.factors is None

    def test_failed_certificate_falls_back_to_the_full_svd(self, monkeypatch):
        rng = np.random.default_rng(6)
        u = dct_transform(2)
        shape = (TRUNCATED_MIN_SIDE, TRUNCATED_MIN_SIDE, 2)
        hint = SubspaceHint()
        svt(low_rank_stack(rng, shape, spectrum(rng, 2), 0.02, u), TAU, u, hint=hint)
        b = low_rank_stack(rng, shape, spectrum(rng, 2), 0.02, u)
        monkeypatch.setattr(penalties, "MAX_POWER_STEPS", 0)
        np.testing.assert_array_equal(svt(b, TAU, u, hint=hint), svt(b, TAU, u))


def assert_factorizes(factors, x, u):
    """``factors`` is a thin SVD of every transformed slice of ``x``, zero values left out."""
    left, sigma, right_h = factors
    scale = top.fro_norm(x)
    rebuilt = penalties.spectral_map(factors, lambda s: s, u)
    assert top.fro_norm(rebuilt - x) <= 1e-12 * scale
    eye = np.eye(sigma.shape[1])
    for gram in (left.swapaxes(1, 2) @ left, right_h @ right_h.swapaxes(1, 2)):
        np.testing.assert_allclose(gram, np.broadcast_to(eye, gram.shape), atol=1e-12)
    exact = penalties.slice_svd(x, u)[1]
    width = sigma.shape[1]
    top_value = max(exact.max(), 1.0)
    np.testing.assert_allclose(sigma, exact[:, :width], rtol=0, atol=1e-12 * top_value)
    assert np.all(exact[:, width:] <= 1e-12 * top_value)


class TestSliceSVDUpdate:
    """:func:`penalties.slice_svd_update` of ``svt`` factors against ``slice_svd`` of the sum."""

    @staticmethod
    def thresholded(shape, transform, seed, calls=1):
        # svt's result and the factors it leaves in the hint: full below
        # TRUNCATED_MIN_SIDE and on a first call, Ritz triplets on a warm one
        rng = np.random.default_rng(seed)
        u = transform(shape[2])
        a = low_rank_stack(rng, shape, spectrum(rng, 3), 0.02, u)
        hint = SubspaceHint()
        for _ in range(calls):
            m = svt(a, TAU, u, hint=hint)
            a = a + 0.001 * rng.standard_normal(shape)
        return m, hint.factors, u

    @pytest.mark.parametrize("transform", [identity_transform, dct_transform])
    @pytest.mark.parametrize("shape, calls", [((40, 48, 3), 1), ((64, 70, 3), 1), ((64, 70, 3), 2)])
    def test_one_clipped_entry(self, transform, shape, calls):
        m, factors, u = self.thresholded(shape, transform, 1, calls)
        truncated = factors[1].shape[1] < min(shape[:2])
        assert truncated == (calls == 2)
        peak = np.sort(np.abs(m), axis=None)
        x = top.project_box(m, (peak[-1] + peak[-2]) / 2)
        e = x - m
        assert np.count_nonzero(e) == 1
        assert_factorizes(penalties.slice_svd_update(factors, e, u), x, u)

    @pytest.mark.parametrize("calls", [1, 2])
    def test_several_entries_sharing_rows_and_columns(self, calls):
        m, factors, u = self.thresholded((64, 72, 3), dct_transform, 2, calls)
        e = np.zeros_like(m)
        e[3, [4, 11], 0] = [0.5, -0.25]
        e[[3, 20], 11, 1] = [-1.0, 0.75]
        e[20, 4, 2] = 2.0
        assert_factorizes(penalties.slice_svd_update(factors, e, u), m + e, u)

    def test_zero_change_keeps_the_nonzero_triplets(self):
        m, factors, u = self.thresholded((40, 40, 2), dct_transform, 3)
        updated = penalties.slice_svd_update(factors, np.zeros_like(m), u)
        assert updated[1].shape == (2, 3)
        assert_factorizes(updated, m, u)

    def test_zero_tensor_plus_a_change(self):
        u = dct_transform(3)
        m = np.zeros((40, 40, 3))
        factors = penalties.slice_svd(m, u)
        e = np.zeros_like(m)
        e[5, 7, 1], e[5, 9, 2] = 3.0, -1.5
        updated = penalties.slice_svd_update(factors, e, u)
        # one row: each slice has rank 1 at most
        assert updated[1].shape == (3, 1)
        assert_factorizes(updated, e, u)

    def test_a_change_on_too_many_rows_is_refused(self):
        # rank 3 plus 8 rows is 11, above a quarter of the 40 side
        m, factors, u = self.thresholded((40, 40, 2), dct_transform, 4)
        e = np.zeros_like(m)
        e[np.arange(8), 0, 0] = 1.0
        assert penalties.slice_svd_update(factors, e, u) is None
        e[7, 0, 0] = 0.0
        assert_factorizes(penalties.slice_svd_update(factors, e, u), m + e, u)


def blas_count():
    """OpenBLAS's thread count, or None when NumPy's BLAS exports no way to set it."""
    found = penalties._openblas_threads()
    return found[0]() if found else None


class TestSplitSVD:
    """A batch of side 16 or more is factorized a block of slices per CPU, with one call's bits."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Force 2 usable CPUs and record the slice count of every block factorized."""
        monkeypatch.setattr(penalties, "_usable_cpus", lambda: 2)
        real, seen = penalties._svd_block, []

        def recorded(block):
            seen.append(len(block))
            return real(block)

        monkeypatch.setattr(penalties, "_svd_block", recorded)
        return seen

    @pytest.fixture
    def blas(self):
        """OpenBLAS's ``(get, set)`` of its thread count, restored after the test."""
        found = penalties._openblas_threads()
        if not found:
            pytest.skip("NumPy's BLAS exports no thread-count setter")
        before = found[0]()
        yield found
        found[1](before)

    @pytest.mark.parametrize("n3", [1, 2, 5, 10])
    @pytest.mark.parametrize("side", [10, SPLIT_MIN_SIDE, 32, TRUNCATED_MIN_SIDE - 1,
                                      TRUNCATED_MIN_SIDE, 72, 100])
    def test_factors_equal_one_whole_call(self, blocks, n3, side):
        rng = np.random.default_rng(side + n3)
        u = dct_transform(n3)
        x = rng.standard_normal((side + 3, side, n3))
        whole = np.linalg.svd(top._slices_first(top.apply_transform(x, u)), full_matrices=False)
        for got, want in zip(penalties.slice_svd(x, u), whole):
            assert np.array_equal(got, want)
        # from TRUNCATED_MIN_SIDE on a batch splits only at one BLAS thread per block
        below = side < TRUNCATED_MIN_SIDE or bool(penalties._openblas_threads())
        split = n3 >= 2 and side >= SPLIT_MIN_SIDE and below
        assert blocks == ([(n3 + 1) // 2, n3 // 2] if split else [])

    @pytest.mark.parametrize("count", [1, 3])
    def test_blocks_run_at_one_thread_and_every_call_restores_the_count(
        self, blocks, blas, monkeypatch, count
    ):
        get, put = blas
        put(count)
        real, inside = penalties._svd_block, []

        def recorded(block):
            inside.append(get())
            return real(block)

        monkeypatch.setattr(penalties, "_svd_block", recorded)
        u = dct_transform(4)
        _, y_obs, mask = synth_completion((72, 72, 4), 2, 0.5, 0.01, u, seed=3)
        pen = Penalty("mcp", lam=4.0, gamma=2.7)
        cfg = PMMConfig(rho=4.0, beta=2.0, box_c=1.05 * top.inf_norm(y_obs), max_outer=8)
        calls = [
            lambda: penalties.slice_svd(y_obs, u),
            lambda: svt(y_obs, 1.0, u, hint=SubspaceHint()),
            lambda: pmm_solve(CompletionLoss(y_obs, mask), pen, u, cfg,
                              ADMMConfig(tol_inner=3e-4), y_obs),
        ]
        for call in calls:
            split = len(blocks)
            call()
            assert len(blocks) > split
            assert get() == count
        assert inside == [1] * len(blocks)

    def test_overlapping_splits_set_and_restore_the_count_once(self, blocks, blas, monkeypatch):
        # the first split's own block waits until a second split has returned,
        # so the second starts and ends inside the first
        get, put = blas
        put(2)
        log, entered, second_done = [], threading.Event(), threading.Event()

        def recorded_put(count):
            log.append((count, penalties._in_flight, second_done.is_set()))
            put(count)

        monkeypatch.setattr(penalties, "_openblas", (get, recorded_put))
        real = penalties._svd_block

        def held(block):
            if threading.current_thread().name == "held":
                entered.set()
                assert second_done.wait(timeout=60)
            return real(block)

        monkeypatch.setattr(penalties, "_svd_block", held)
        u = dct_transform(4)
        x = np.random.default_rng(7).standard_normal((32, 32, 4))
        whole = penalties.slice_svd(x, u)
        log.clear()
        results = []
        first = threading.Thread(
            target=lambda: results.append(penalties.slice_svd(x, u)), name="held"
        )
        first.start()
        try:
            assert entered.wait(timeout=60)
            results.append(penalties.slice_svd(x, u))
            between = get()
        finally:
            second_done.set()
            first.join(timeout=60)
        assert not first.is_alive()
        assert between == 1
        assert log == [(1, 0, False), (2, 0, True)]
        assert get() == 2
        for factors in results:
            assert all(np.array_equal(a, b) for a, b in zip(factors, whole))

    def test_without_a_thread_setter_slices_from_64_take_one_call(self, blocks, monkeypatch):
        monkeypatch.setattr(penalties, "_openblas", ())
        rng = np.random.default_rng(8)
        u = dct_transform(4)
        for side in (TRUNCATED_MIN_SIDE - 1, TRUNCATED_MIN_SIDE, 100):
            x = rng.standard_normal((side, side, 4))
            penalties.slice_svd(x, u)
            svt(x, 1.0, u, hint=SubspaceHint())
        # side 63: slice_svd and svt's own slice_svd; from 64 on neither splits
        assert blocks == [2, 2, 2, 2]

    def test_results_do_not_depend_on_the_cpu_count(self, monkeypatch):
        rng = np.random.default_rng(3)
        u = dct_transform(5)
        x = rng.standard_normal((32, 40, 5))
        pen = Penalty("mcp", lam=1.0, gamma=2.7)
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(penalties, "_usable_cpus", lambda: cpus)
            results.append([*penalties.slice_svd(x, u), svt(x, 2.0, u),
                            svt(x, 2.0, u, hint=SubspaceHint()), dc_smooth_grad(x, u, pen)])
        for one, two in zip(*results):
            assert np.array_equal(one, two)

    @pytest.mark.parametrize("bad", [0, 4], ids=["this-thread", "pool"])
    def test_a_failed_block_raises_after_every_block_finished(self, blocks, monkeypatch, bad):
        # the pool's block sleeps, so a caller that did not wait for it would raise first
        real, finished = penalties._svd_block, []

        def slow(block):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.2)
            try:
                return real(block)
            finally:
                finished.append(len(block))

        monkeypatch.setattr(penalties, "_svd_block", slow)
        x = np.random.default_rng(4).standard_normal((32, 32, 5))
        x[0, 0, bad] = np.nan
        before = blas_count()
        with pytest.raises(np.linalg.LinAlgError):
            penalties.slice_svd(x, identity_transform(5))
        assert sorted(finished) == [2, 3]
        assert blas_count() == before

    def test_one_cpu_makes_no_pool(self, monkeypatch):
        monkeypatch.setattr(penalties, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(penalties, "_pool", None)
        rng = np.random.default_rng(5)
        u = dct_transform(5)
        x = rng.standard_normal((32, 32, 5))
        penalties.slice_svd(x, u)
        svt(x, 1.0, u, hint=SubspaceHint())
        assert penalties._pool is None

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        # more calling threads than CPUs race to make the pool on their first
        # split; making it yields the interpreter lock, so without the pool's
        # own lock the others would see no pool and make theirs
        monkeypatch.setattr(penalties, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(penalties, "_pool", None)
        made = []

        class Counted(penalties.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                time.sleep(0.05)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(penalties, "ThreadPoolExecutor", Counted)
        # every change of OpenBLAS's thread count, with the splits then in flight
        found, log = penalties._openblas_threads(), []
        if found:
            get, put = found
            before = get()
            put(2)

            def recorded_put(count):
                log.append((count, penalties._in_flight))
                put(count)

            monkeypatch.setattr(penalties, "_openblas", (get, recorded_put))
        u = dct_transform(5)
        x = np.random.default_rng(6).standard_normal((32, 32, 5))
        whole = np.linalg.svd(top._slices_first(top.apply_transform(x, u)), full_matrices=False)
        equal, start = [], threading.Barrier(8)

        def call():
            start.wait(timeout=60)
            for _ in range(20):
                factors = penalties.slice_svd(x, u)
                equal.extend(np.array_equal(a, b) for a, b in zip(factors, whole))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            after = blas_count()
        finally:
            sys.setswitchinterval(interval)
            if found:
                put(before)
        assert not any(thread.is_alive() for thread in threads)
        assert len(equal) == 8 * 20 * 3 and all(equal)
        assert len(made) == 1
        made[0].shutdown()
        # each time splits overlap, the first saves the count and sets 1 and
        # the last restores it, once, when none is left in flight
        if found:
            assert log and log == [(1, 0), (2, 0)] * (len(log) // 2)
            assert after == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_child_forked_during_a_split_restores_the_saved_count(self, blas):
        # the child has none of the split's threads: it clears the split in
        # flight, restores the count the split saved, and splits on a pool of its own
        script = (
            "import os, threading, numpy as np\n"
            "from ttlearn import penalties\n"
            "from ttlearn.transforms import dct_transform\n"
            "penalties._usable_cpus = lambda: 2\n"
            "get, put = penalties._openblas_threads()\n"
            "put(3)\n"
            "entered, release, real = threading.Event(), threading.Event(), penalties._svd_block\n"
            "def held(block):\n"
            "    if threading.current_thread().name == 'held':\n"
            "        entered.set()\n"
            "        release.wait(60)\n"
            "    return real(block)\n"
            "penalties._svd_block = held\n"
            "x, u = np.ones((32, 32, 4)), dct_transform(4)\n"
            "thread = threading.Thread(target=penalties.slice_svd, args=(x, u), name='held')\n"
            "thread.start()\n"
            "assert entered.wait(60) and get() == 1 and penalties._in_flight == 1\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    ok = (get(), penalties._in_flight, penalties._pool) == (3, 0, None)\n"
            "    penalties.slice_svd(x, u)\n"
            "    ok = ok and penalties._pool is not None and get() == 3\n"
            "    os._exit(0 if ok else 1)\n"
            "release.set()\n"
            "thread.join(60)\n"
            "assert os.waitpid(pid, 0)[1] == 0 and get() == 3\n"
        )
        src = os.path.dirname(os.path.dirname(penalties.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_splits_on_a_pool_of_its_own(self):
        # the parent's pool threads do not exist in a forked child, whose
        # split would otherwise wait for them forever
        script = (
            "import os, numpy as np\n"
            "from ttlearn import penalties\n"
            "from ttlearn.transforms import dct_transform\n"
            "penalties._usable_cpus = lambda: 2\n"
            "x, u = np.ones((32, 32, 4)), dct_transform(4)\n"
            "penalties.slice_svd(x, u)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    penalties.slice_svd(x, u)\n"
            "    os._exit(0)\n"
            "assert os.waitpid(pid, 0)[1] == 0\n"
        )
        src = os.path.dirname(os.path.dirname(penalties.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
