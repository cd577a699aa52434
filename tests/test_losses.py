import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit as scipy_expit

from ttlearn.cli import _read_sample_stack, _write_sample_stack
from ttlearn.losses import CompletionLoss, LogisticLoss, expit
from ttlearn.tensor_io import read_tensor, write_tensor
from ttlearn.tensor_ops import fro_norm


def finite_difference_grad(fn, x, step=1e-6):
    fd = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        bump = np.zeros_like(x)
        bump[idx] = step
        fd[idx] = (fn(x + bump) - fn(x - bump)) / (2 * step)
    return fd


class TestCompletionLoss:
    def test_construction_validates(self):
        with pytest.raises(ValueError, match="mask shape"):
            CompletionLoss(np.zeros((2, 2, 2)), np.zeros((2, 2, 3), dtype=bool))
        with pytest.raises(ValueError, match="no observed"):
            CompletionLoss(np.zeros((2, 2, 2)), np.zeros((2, 2, 2), dtype=bool))

    def test_off_mask_values_dropped(self):
        y = np.ones((2, 2, 1))
        mask = np.zeros((2, 2, 1), dtype=bool)
        mask[0, 0, 0] = True
        loss = CompletionLoss(y, mask)
        assert loss.y_obs[1, 1, 0] == 0.0
        assert loss.p == pytest.approx(0.25)

    def test_value_zero_at_observations(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((3, 3, 2))
        mask = rng.random((3, 3, 2)) < 0.5
        mask[0, 0, 0] = True
        loss = CompletionLoss(np.where(mask, y, 0.0), mask)
        x = np.where(mask, y, 123.0)  # off-mask values are irrelevant
        assert loss.value(x) == pytest.approx(0.0)

    def test_full_mask_unit_residual(self):
        y = np.zeros((2, 2, 1))
        loss = CompletionLoss(y, np.ones((2, 2, 1), dtype=bool))
        assert loss.value(np.ones((2, 2, 1))) == pytest.approx(2.0)

    def test_half_mask_scaling(self):
        # one residual of size 2 with p = 1/2 gives (1/(2p)) * 4 = 4
        y = np.zeros((1, 2, 1))
        mask = np.array([[True, False]]).reshape(1, 2, 1)
        loss = CompletionLoss(y, mask)
        x = np.array([[2.0, 0.0]]).reshape(1, 2, 1)
        assert loss.value(x) == pytest.approx(4.0)

    def test_grad_examples(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((3, 2, 2))
        loss = CompletionLoss(y, np.ones((3, 2, 2), dtype=bool))
        np.testing.assert_allclose(loss.grad(y), np.zeros_like(y), atol=1e-14)
        x = rng.standard_normal((3, 2, 2))
        np.testing.assert_allclose(loss.grad(x), x - y, atol=1e-14)

    def test_misshaped_iterate_rejected(self):
        loss = CompletionLoss(np.zeros((2, 2, 2)), np.ones((2, 2, 2), dtype=bool))
        for method in (loss.value, loss.grad):
            with pytest.raises(ValueError, match="shape mismatch"):
                method(np.zeros((2, 2, 3)))

    def test_grad_zero_off_mask(self):
        rng = np.random.default_rng(2)
        mask = rng.random((4, 4, 3)) < 0.5
        mask.flat[0] = True
        loss = CompletionLoss(np.zeros((4, 4, 3)), mask)
        g = loss.grad(rng.standard_normal((4, 4, 3)))
        assert np.all(g[~mask] == 0.0)

    @given(
        data=arrays(np.float64, (3, 2, 4), elements=st.floats(allow_nan=False, allow_infinity=False)),
        x=arrays(np.float64, (3, 2, 4), elements=st.floats(allow_nan=False, allow_infinity=False)),
        mask=arrays(np.bool_, (3, 2, 4)),
    )
    # observed zeros met by -0.0, and negative unobserved entries
    @example(
        data=np.zeros((3, 2, 4)),
        x=np.where(np.arange(24).reshape(3, 2, 4) % 2 == 0, -0.0, -1.5),
        mask=np.arange(24).reshape(3, 2, 4) % 2 == 0,
    )
    def test_value_and_grad_match_the_where_formula_bit_for_bit(self, data, x, mask):
        mask = mask.copy()
        mask.flat[0] = True
        loss = CompletionLoss(data, mask)
        # huge draws overflow alike in both formulas
        with np.errstate(over="ignore"):
            r = np.where(mask, x - loss.y_obs, 0.0)
            expected_value, expected = float(np.sum(r * r) / (2 * loss.p)), r / loss.p
            value, grad = loss.value(x), loss.grad(x)
        assert value == expected_value
        assert np.array_equal(grad, expected)
        # unobserved entries are +0.0 whatever the sign of x - y there
        assert np.array_equal(np.signbit(grad), np.signbit(expected))
        assert not np.signbit(grad[~mask]).any()

    def test_grad_finite_difference(self):
        rng = np.random.default_rng(3)
        mask = rng.random((4, 4, 3)) < 0.5
        mask.flat[:2] = True
        y = np.where(mask, rng.standard_normal((4, 4, 3)), 0.0)
        loss = CompletionLoss(y, mask)
        x = rng.standard_normal((4, 4, 3))
        fd = finite_difference_grad(loss.value, x)
        assert fro_norm(loss.grad(x) - fd) <= 1e-7 * max(fro_norm(fd), 1.0)

    def test_lipschitz_values(self):
        full = CompletionLoss(np.zeros((2, 2, 1)), np.ones((2, 2, 1), dtype=bool))
        assert full.lipschitz_constant() == 1.0
        mask = np.zeros((2, 2, 1), dtype=bool)
        mask[0, 0, 0] = True
        quarter = CompletionLoss(np.zeros((2, 2, 1)), mask)
        assert quarter.lipschitz_constant() == 4.0

    def test_lipschitz_bound_on_samples(self):
        rng = np.random.default_rng(4)
        mask = rng.random((3, 3, 2)) < 0.6
        mask.flat[0] = True
        loss = CompletionLoss(np.zeros((3, 3, 2)), mask)
        lip = loss.lipschitz_constant()
        for _ in range(200):
            a = rng.standard_normal((3, 3, 2))
            b = rng.standard_normal((3, 3, 2))
            assert fro_norm(loss.grad(a) - loss.grad(b)) <= lip * fro_norm(a - b) + 1e-12

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(5)
        mask = rng.random((3, 3, 2)) < 0.5
        mask.flat[0] = True
        loss = CompletionLoss(np.where(mask, rng.standard_normal((3, 3, 2)), 0.0), mask)
        for _ in range(100):
            a = rng.standard_normal((3, 3, 2))
            b = rng.standard_normal((3, 3, 2))
            assert loss.value((a + b) / 2) <= (loss.value(a) + loss.value(b)) / 2 + 1e-10


class TestExpit:
    def test_agrees_with_scipy(self):
        t = np.concatenate([np.linspace(-800.0, 800.0, 160_001), [-np.inf, np.inf]])
        np.testing.assert_allclose(expit(t), scipy_expit(t), rtol=1e-15, atol=0.0)

    def test_saturates_exactly_without_warnings_and_propagates_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(np.array([-np.inf, -800.0, 800.0, np.inf, np.nan]))
        assert got[:4].tolist() == [0.0, 0.0, 1.0, 1.0]
        assert np.isnan(got[4])


class TestLogisticLoss:
    def make_loss(self, rng, n=20, shape=(3, 3, 2)):
        samples = rng.standard_normal((n,) + shape)
        labels = rng.integers(0, 2, size=n)
        return LogisticLoss(samples, labels)

    def test_construction_validates(self):
        with pytest.raises(ValueError, match="labels"):
            LogisticLoss(np.zeros((2, 1, 1, 1)), np.array([0, 2]))
        with pytest.raises(ValueError, match="one value per sample"):
            LogisticLoss(np.zeros((2, 1, 1, 1)), np.array([0]))
        with pytest.raises(ValueError, match="third-order"):
            LogisticLoss(np.zeros((2, 1, 1)), np.array([0, 1]))
        for empty in ([], np.zeros((0, 3, 3, 2))):
            with pytest.raises(ValueError, match="nonempty collection of third-order"):
                LogisticLoss(empty, np.array([], dtype=int))
        with pytest.raises(ValueError, match="non-finite"):
            LogisticLoss(np.array([np.nan, 0.0]).reshape(2, 1, 1, 1), np.array([0, 1]))

    def test_value_at_zero_is_log_two(self):
        rng = np.random.default_rng(6)
        loss = self.make_loss(rng)
        assert loss.value(np.zeros((3, 3, 2))) == pytest.approx(np.log(2.0))

    def test_saturated_correct_prediction(self):
        z = np.ones((1, 2, 2, 1))
        loss = LogisticLoss(z, np.array([1]))
        x = 50.0 * np.ones((2, 2, 1))
        assert loss.value(x) == pytest.approx(0.0, abs=1e-12)

    def test_overflow_safe_for_huge_margins(self):
        z = np.ones((1, 2, 2, 1))
        loss = LogisticLoss(z, np.array([0]))
        x = 500.0 * np.ones((2, 2, 1))
        value = loss.value(x)
        assert np.isfinite(value) and value == pytest.approx(2000.0)

    def test_matches_naive_sum_oracle(self):
        rng = np.random.default_rng(7)
        loss = self.make_loss(rng)
        x = 0.3 * rng.standard_normal((3, 3, 2))
        naive = 0.0
        for z, y in zip(loss.samples, loss.labels):
            margin = float(np.sum(z * x))
            naive += np.log(1 + np.exp(margin)) - y * margin
        assert loss.value(x) == pytest.approx(naive / loss.n, rel=1e-12)

    def test_grad_at_zero(self):
        rng = np.random.default_rng(8)
        loss = self.make_loss(rng)
        expected = np.tensordot(0.5 - loss.labels, loss.samples, axes=([0], [0])) / loss.n
        np.testing.assert_allclose(loss.grad(np.zeros((3, 3, 2))), expected, atol=1e-14)

    def test_grad_near_zero_when_saturated_correct(self):
        rng = np.random.default_rng(9)
        samples = rng.standard_normal((5, 2, 2, 1))
        x = rng.standard_normal((2, 2, 1))
        margins = samples.reshape(5, -1) @ x.ravel()
        labels = (margins > 0).astype(int)
        loss = LogisticLoss(samples, labels)
        assert fro_norm(loss.grad(1000.0 * x)) <= 1e-10

    def test_grad_finite_difference(self):
        rng = np.random.default_rng(10)
        loss = self.make_loss(rng)
        x = 0.4 * rng.standard_normal((3, 3, 2))
        fd = finite_difference_grad(loss.value, x)
        assert fro_norm(loss.grad(x) - fd) <= 1e-5 * max(fro_norm(fd), 1.0)

    def test_lipschitz_single_sample(self):
        z = np.full((1, 2, 2, 1), 1.0)  # ||Z||_F = 2
        loss = LogisticLoss(z, np.array([1]))
        assert loss.lipschitz_constant() == pytest.approx(1.0)

    def test_lipschitz_scales_quadratically(self):
        rng = np.random.default_rng(11)
        samples = rng.standard_normal((10, 2, 2, 2))
        labels = rng.integers(0, 2, size=10)
        base = LogisticLoss(samples, labels).lipschitz_constant()
        doubled = LogisticLoss(2 * samples, labels).lipschitz_constant()
        assert doubled == pytest.approx(4 * base)

    def test_lipschitz_bound_on_samples(self):
        rng = np.random.default_rng(12)
        loss = self.make_loss(rng)
        lip = loss.lipschitz_constant()
        for _ in range(200):
            a = rng.standard_normal((3, 3, 2))
            b = rng.standard_normal((3, 3, 2))
            assert fro_norm(loss.grad(a) - loss.grad(b)) <= lip * fro_norm(a - b) + 1e-12

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(13)
        loss = self.make_loss(rng)
        for _ in range(100):
            a = rng.standard_normal((3, 3, 2))
            b = rng.standard_normal((3, 3, 2))
            assert loss.value((a + b) / 2) <= (loss.value(a) + loss.value(b)) / 2 + 1e-10

    def test_value_nonnegative(self):
        rng = np.random.default_rng(14)
        loss = self.make_loss(rng)
        for _ in range(100):
            assert loss.value(rng.standard_normal((3, 3, 2))) >= 0.0

    def test_shape_mismatch(self):
        rng = np.random.default_rng(15)
        loss = self.make_loss(rng)
        with pytest.raises(ValueError, match="shape mismatch"):
            loss.value(np.zeros((2, 2, 2)))


class TestStorageLayout:
    """Losses store their data C-ordered whatever the input's layout; results do not move."""

    def test_completion_stores_file_inputs_c_ordered(self, tmp_path):
        rng = np.random.default_rng(16)
        shape = (5, 4, 3)
        mask = rng.random(shape) < 0.6
        mask.flat[0] = True
        write_tensor(tmp_path / "y.tns", np.where(mask, rng.standard_normal(shape), 0.0))
        write_tensor(tmp_path / "mask.tns", mask.astype(float))
        y_f, mask_f = read_tensor(tmp_path / "y.tns"), read_tensor(tmp_path / "mask.tns")
        assert y_f.flags.f_contiguous and not y_f.flags.c_contiguous
        loss = CompletionLoss(y_f, mask_f)
        assert loss.y_obs.flags.c_contiguous and loss.mask.flags.c_contiguous
        np.testing.assert_array_equal(loss.y_obs, np.where(mask, y_f, 0.0))
        np.testing.assert_array_equal(loss.mask, mask)
        reference = CompletionLoss(np.ascontiguousarray(y_f), np.ascontiguousarray(mask_f))
        for _ in range(5):
            x = rng.standard_normal(shape)
            assert loss.value(x) == reference.value(x)
            assert np.array_equal(loss.grad(x), reference.grad(x))

    @pytest.fixture
    def cli_stack(self, tmp_path):
        rng = np.random.default_rng(17)
        samples = rng.standard_normal((40, 4, 3, 2))
        labels = rng.integers(0, 2, size=40)
        paths = str(tmp_path / "samples.tns"), str(tmp_path / "labels.txt")
        _write_sample_stack(*paths, samples, labels)
        return _read_sample_stack(*paths)

    def test_logistic_stores_the_cli_stack_c_ordered(self, cli_stack):
        samples, labels = cli_stack
        assert not samples.flags.c_contiguous
        loss = LogisticLoss(samples, labels)
        assert loss.samples.flags.c_contiguous
        np.testing.assert_array_equal(loss.samples, samples)
        # the matrix every value and gradient multiplies by is a view, not a copy
        assert np.shares_memory(loss.samples.reshape(loss.n, -1), loss.samples)

    def test_logistic_results_match_a_c_ordered_copy_bit_for_bit(self, cli_stack):
        samples, labels = cli_stack
        loss = LogisticLoss(samples, labels)
        reference = LogisticLoss(np.ascontiguousarray(samples), labels)
        rng = np.random.default_rng(18)
        for _ in range(5):
            x = rng.standard_normal(loss.shape)
            assert loss.value(x) == reference.value(x)
            assert np.array_equal(loss.grad(x), reference.grad(x))

    def test_logistic_lipschitz_bound_is_spectral_in_any_layout(self, cli_stack):
        # sigma_max(Z)^2/(4n), not ||Z||_F^2/(4n); it reaches the solve trace
        # through the descent threshold and margin, so its bits must not
        # follow the given stack's memory order
        samples, labels = cli_stack
        loss = LogisticLoss(samples, labels)
        reference = LogisticLoss(np.ascontiguousarray(samples), labels)
        assert loss.lipschitz_constant() == reference.lipschitz_constant()
        z = samples.reshape(loss.n, -1)
        spectral = np.linalg.eigvalsh(z.T @ z)[-1] / (4 * loss.n)
        assert loss.lipschitz_constant() == pytest.approx(spectral, rel=1e-11)
        assert loss.lipschitz_constant() < float(np.sum(samples * samples)) / (4 * loss.n)
