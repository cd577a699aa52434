import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import expit

import ttlearn.tensor_ops as top
from ttlearn import tasks
from ttlearn.penalties import Penalty
from ttlearn.solver import ADMMConfig
from ttlearn.transforms import dct_transform, identity_transform


class TestMask:
    def test_full_ratio(self):
        assert tasks.make_mask((3, 3, 2), 1.0, 0).all()

    def test_exact_count(self):
        mask = tasks.make_mask((10, 10, 1), 0.5, 7)
        assert mask.sum() == 50

    def test_rounding(self):
        mask = tasks.make_mask((3, 3, 1), 0.5, 7)  # round(4.5) -> 4
        assert mask.sum() == round(0.5 * 9)

    def test_deterministic_and_seed_sensitive(self):
        a = tasks.make_mask((8, 8, 2), 0.3, 42)
        b = tasks.make_mask((8, 8, 2), 0.3, 42)
        c = tasks.make_mask((8, 8, 2), 0.3, 43)
        np.testing.assert_array_equal(a, b)
        assert (a != c).any()

    def test_bad_ratio(self):
        for dims, sr, message in [
            ((2, 2, 2), 0.0, "must lie in"),
            ((2, 2, 2), -0.1, "must lie in"),
            ((2, 2, 2), 1.5, "must lie in"),
            # round(0.4 * 1) is 0: a ratio in range that keeps nothing
            ((1, 1, 1), 0.4, "keeps no entries"),
        ]:
            with pytest.raises(ValueError, match=message):
                tasks.make_mask(dims, sr, 0)


class TestNoise:
    def test_sigma_zero_exact(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4, 2))
        out = tasks.add_gaussian_noise(x, 0.0, 5)
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_sample_std(self):
        x = np.zeros((50, 50, 40))  # 1e5 entries
        out = tasks.add_gaussian_noise(x, 2.0, 1)
        assert 0.95 <= out.std() / 2.0 <= 1.05

    def test_deterministic(self):
        x = np.zeros((3, 3, 3))
        np.testing.assert_array_equal(
            tasks.add_gaussian_noise(x, 1.0, 9), tasks.add_gaussian_noise(x, 1.0, 9)
        )

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            tasks.add_gaussian_noise(np.zeros((1, 1, 1)), -0.1, 0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            tasks.add_gaussian_noise(np.zeros((1, 1, 1)), sigma, 0)


class TestPSNR:
    def test_perfect_recovery_is_infinite(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 4, 2))
        assert tasks.psnr(x.copy(), x) == np.inf

    def test_uniform_residual(self):
        truth = np.zeros((5, 5, 4))
        truth[0, 0, 0] = 1.0  # range 1
        recovered = truth + 0.1
        assert tasks.psnr(recovered, truth) == pytest.approx(20.0)

    def test_doubling_residual_drops_by_six_db(self):
        rng = np.random.default_rng(2)
        truth = rng.standard_normal((4, 4, 3))
        delta = rng.standard_normal((4, 4, 3))
        drop = tasks.psnr(truth + delta, truth) - tasks.psnr(truth + 2 * delta, truth)
        assert drop == pytest.approx(20 * np.log10(2), rel=1e-9)

    def test_constant_truth_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            tasks.psnr(np.zeros((2, 2, 1)), np.ones((2, 2, 1)))


class TestSSIM:
    def test_identical_tensors(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 5, 3))
        assert tasks.ssim(x.copy(), x) == pytest.approx(1.0)

    def test_negated_zero_mean_slices(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 8, 2))
        x -= x.mean(axis=(0, 1), keepdims=True)
        assert tasks.ssim(-x, x) < 0.1

    def test_matches_scalar_formula_oracle(self):
        rng = np.random.default_rng(5)
        truth = rng.standard_normal((4, 4, 2))
        recovered = truth + 0.3 * rng.standard_normal((4, 4, 2))
        value_range = truth.max() - truth.min()
        c1 = (0.01 * value_range) ** 2
        c2 = (0.03 * value_range) ** 2
        scores = []
        for k in range(2):
            a, b = truth[:, :, k], recovered[:, :, k]
            mu_a, mu_b = a.mean(), b.mean()
            va, vb = a.var(), b.var()
            cov = ((a - mu_a) * (b - mu_b)).mean()
            scores.append(
                (2 * mu_a * mu_b + c1) * (2 * cov + c2) / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2))
            )
        assert tasks.ssim(recovered, truth) == pytest.approx(np.mean(scores), abs=1e-12)

    def test_constant_slice_rejected(self):
        truth = np.ones((3, 3, 2))
        truth[:, :, 1] = np.arange(9).reshape(3, 3)
        with pytest.raises(ValueError, match="slice 0"):
            tasks.ssim(truth.copy(), truth)


class TestSynthLowMultirank:
    def test_rank_zero_gives_zero_tensor(self):
        u = dct_transform(3)
        np.testing.assert_array_equal(tasks.synth_low_multirank((4, 4, 3), 0, u, 0), 0.0)

    def test_certified_multirank(self):
        u = dct_transform(10)
        x = tasks.synth_low_multirank((30, 30, 10), 2, u, 3)
        np.testing.assert_array_equal(top.multi_rank(x, u), np.full(10, 2))

    def test_full_rank(self):
        u = identity_transform(2)
        x = tasks.synth_low_multirank((5, 6, 2), 5, u, 4)
        np.testing.assert_array_equal(top.multi_rank(x, u), [5, 5])

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            tasks.synth_low_multirank((3, 3, 2), 4, identity_transform(2), 0)

    def test_deterministic(self):
        u = dct_transform(2)
        np.testing.assert_array_equal(
            tasks.synth_low_multirank((4, 4, 2), 2, u, 11),
            tasks.synth_low_multirank((4, 4, 2), 2, u, 11),
        )


class TestSynthCompletion:
    def test_observation_consistency(self):
        u = dct_transform(4)
        truth, y_obs, mask = tasks.synth_completion((6, 6, 4), 1, 0.5, 0.0, u, seed=5)
        assert mask.sum() == round(0.5 * 6 * 6 * 4)
        np.testing.assert_array_equal(y_obs[~mask], 0.0)
        np.testing.assert_array_equal(y_obs[mask], truth[mask])  # sigma = 0


def test_build_transform_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown transform kind 'fourier'"):
        tasks.build_transform("fourier", 3)


class TestSynthLogistic:
    def test_rank_zero_balanced_labels(self):
        u = dct_transform(2)
        problem = tasks.synth_logistic((4, 4, 2), 0, 2000, 10, u, seed=0)
        np.testing.assert_array_equal(problem.coeff_truth, 0.0)
        assert 0.45 <= problem.train_labels.mean() <= 0.55

    def test_coefficient_normalized(self):
        u = dct_transform(3)
        problem = tasks.synth_logistic((5, 5, 3), 1, 50, 10, u, seed=1)
        assert top.fro_norm(problem.coeff_truth) == pytest.approx(5.0)
        np.testing.assert_array_equal(top.multi_rank(problem.coeff_truth, u), [1, 1, 1])

    def test_label_mean_close_to_monte_carlo_expectation(self):
        # net label frequency should sit near 1/2 by symmetry of margins
        u = dct_transform(2)
        problem = tasks.synth_logistic((4, 4, 2), 1, 4000, 10, u, seed=2)
        assert abs(problem.train_labels.mean() - 0.5) <= 3 * 0.5 / np.sqrt(4000) + 0.02

    def test_shapes_and_determinism(self):
        u = dct_transform(2)
        a = tasks.synth_logistic((3, 3, 2), 1, 20, 10, u, seed=3)
        b = tasks.synth_logistic((3, 3, 2), 1, 20, 10, u, seed=3)
        assert a.train_samples.shape == (20, 3, 3, 2)
        assert a.test_samples.shape == (10, 3, 3, 2)
        np.testing.assert_array_equal(a.train_samples, b.train_samples)
        np.testing.assert_array_equal(a.test_labels, b.test_labels)

    def test_bayes_rule_accuracy_on_noisy_labels(self):
        # ||W||_F = 5 makes the margins N(0, 25), so the Bayes rule 1{<W, Z> > 0}
        # agrees with a Bernoulli(expit(<W, Z>)) label with probability
        # E[expit(5|g|)], g ~ N(0, 1): the ceiling on noisy-label accuracy
        expected, _ = integrate.quad(lambda g: 2 * expit(5 * g) * stats.norm.pdf(g), 0, np.inf)
        assert expected == pytest.approx(0.8945, abs=1e-4)
        n_test = 20000
        problem = tasks.synth_logistic((10, 10, 3), 1, 50, n_test, dct_transform(3), seed=0)
        _, bayes_labels = tasks.predict(problem.coeff_truth, problem.test_samples)
        accuracy = tasks.test_accuracy(bayes_labels, problem.test_labels)
        std_err = np.sqrt(expected * (1 - expected) / n_test)
        assert abs(accuracy - expected) <= 3 * std_err

    def test_unbalanced_first_draw_is_replaced_by_the_retry_stream(self):
        # seed 0 with 8 training samples draws 2 of 8 positive labels first
        dims, u = (3, 3, 2), dct_transform(2)
        problem = tasks.synth_logistic(dims, 1, 8, 4, u, seed=0)
        _, data_seed, retry_seed = np.random.SeedSequence(0).spawn(3)
        first_rng = np.random.default_rng(data_seed)
        _, first_labels = tasks._draw_samples(first_rng, dims, 8, problem.coeff_truth)
        assert first_labels.mean() == 0.25
        rng = np.random.default_rng(retry_seed)
        train_samples, train_labels = tasks._draw_samples(rng, dims, 8, problem.coeff_truth)
        test_samples, test_labels = tasks._draw_samples(rng, dims, 4, problem.coeff_truth)
        np.testing.assert_array_equal(problem.train_samples, train_samples)
        np.testing.assert_array_equal(problem.train_labels, train_labels)
        np.testing.assert_array_equal(problem.test_samples, test_samples)
        np.testing.assert_array_equal(problem.test_labels, test_labels)
        again = tasks.synth_logistic(dims, 1, 8, 4, u, seed=0)
        np.testing.assert_array_equal(again.train_samples, problem.train_samples)
        np.testing.assert_array_equal(again.test_labels, problem.test_labels)

    @pytest.mark.parametrize("n_train, n_test", [(0, 10), (10, -1)])
    def test_sample_counts_validated(self, n_train, n_test):
        with pytest.raises(ValueError, match="at least one training sample"):
            tasks.synth_logistic((3, 3, 2), 1, n_train, n_test, dct_transform(2), seed=0)

    def test_balance_guard(self):
        u = dct_transform(2)
        for seed in range(8):
            problem = tasks.synth_logistic((4, 4, 2), 1, 300, 50, u, seed=seed)
            assert 0.25 <= problem.train_labels.mean() <= 0.75


class TestPredictAccuracy:
    def test_zero_coefficient_gives_half_probs_label_zero(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((7, 3, 3, 2))
        probs, labels = tasks.predict(np.zeros((3, 3, 2)), samples)
        np.testing.assert_array_equal(probs, 0.5)
        np.testing.assert_array_equal(labels, 0)  # ties resolve to 0

    def test_saturated_positive(self):
        samples = np.ones((3, 2, 2, 1))
        probs, labels = tasks.predict(np.full((2, 2, 1), 50.0), samples)
        np.testing.assert_array_equal(labels, 1)
        assert np.all(probs > 0.999)

    def test_matches_sigmoid_oracle(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((10, 2, 2, 2))
        x = rng.standard_normal((2, 2, 2))
        probs, _ = tasks.predict(x, samples)
        for z, p in zip(samples, probs):
            margin = float(np.sum(z * x))
            assert p == pytest.approx(1 / (1 + np.exp(-margin)), rel=1e-12)

    def test_misshaped_stack_rejected(self):
        # 8x2x2 samples hold as many entries as a 4x4x2 coefficient, but not the same ones
        with pytest.raises(ValueError, match="shape mismatch"):
            tasks.predict(np.zeros((4, 4, 2)), np.zeros((5, 8, 2, 2)))

    def test_accuracy_values(self):
        assert tasks.test_accuracy([1, 0, 1], [1, 0, 1]) == 1.0
        assert tasks.test_accuracy([1, 0, 1], [0, 1, 0]) == 0.0
        assert tasks.test_accuracy([1, 0, 1, 0], [1, 0, 0, 1]) == 0.5

    def test_accuracy_length_mismatch(self):
        with pytest.raises(ValueError):
            tasks.test_accuracy([1, 0], [1])


class TestRunCompletion:
    def test_small_instance_recovers(self):
        u = dct_transform(3)
        truth, y_obs, mask = tasks.synth_completion((12, 12, 3), 1, 0.6, 0.01, u, seed=0)
        pen = Penalty("mcp", lam=2.0, gamma=2.7)
        recovered, info = tasks.run_completion(
            y_obs, mask, pen, beta=2.0, rho=4.0,
            admm_cfg=ADMMConfig(tol_inner=1e-3), ground_truth=truth,
        )
        assert info["metrics"]["relative_error"] <= 0.15
        assert info["metrics"]["psnr"] > 15
        assert info["trace"]["outer_iterations"] >= 1
        assert recovered.shape == truth.shape

    def test_data_transform_two_stage(self):
        u = dct_transform(3)
        truth, y_obs, mask = tasks.synth_completion((10, 10, 3), 1, 0.7, 0.0, u, seed=1)
        pen = Penalty("mcp", lam=2.0, gamma=2.7)
        recovered, info = tasks.run_completion(
            y_obs, mask, pen, beta=2.0, rho=4.0, transform_kind="data",
            admm_cfg=ADMMConfig(tol_inner=1e-4),
            ground_truth=truth,
        )
        assert info["transform"] == "data"
        assert "pilot" in info and info["pilot"]["transform"] == "dct"
        assert info["metrics"]["relative_error"] <= 0.2

    @pytest.mark.parametrize(
        "dims,rank,sr,seed",
        # criterion 8's generator (seeds 0-9) and the complete-large benchmark instance
        [pytest.param((30, 30, 10), 2, 0.4, seed, id=f"criterion8-seed{seed}")
         for seed in range(10)]
        + [pytest.param((100, 100, 10), 5, 0.6, 0, id="complete-large")],
    )
    def test_box_default_is_twice_the_observed_peak_and_holds_the_truth(
        self, dims, rank, sr, seed, monkeypatch
    ):
        # the largest entries often go unobserved: 1.05 times the observed
        # peak cut the truth on 6 of these 10 seeds and on complete-large
        truth, y_obs, mask = tasks.synth_completion(dims, rank, sr, 0.01, dct_transform(dims[2]),
                                                    seed)
        solved = {}

        def no_solve(task, loss, x0, pen, transform_kind, admm_cfg, **pmm_args):
            solved.update(pmm_args)
            return x0, {}

        monkeypatch.setattr(tasks, "_run", no_solve)
        tasks.run_completion(y_obs, mask, Penalty("convex", lam=1.0), beta=1.0)
        assert tasks.COMPLETE_BOX_FACTOR == 2.0
        assert solved["box_c"] == tasks.COMPLETE_BOX_FACTOR * top.inf_norm(y_obs)
        assert top.inf_norm(truth) <= solved["box_c"]

    def test_box_default_requires_nonzero_observation(self):
        mask = np.zeros((2, 2, 1), dtype=bool)
        mask[0, 0, 0] = True
        with pytest.raises(ValueError, match="box_c"):
            tasks.run_completion(np.zeros((2, 2, 1)), mask, Penalty("convex", lam=1.0), beta=1.0)


class TestRunClassification:
    def test_synthetic_instance_learns(self):
        u = dct_transform(2)
        problem = tasks.synth_logistic((6, 6, 2), 1, 300, 100, u, seed=0)
        pen = Penalty("mcp", lam=0.2, gamma=2.7)
        with pytest.warns(RuntimeWarning):
            coeff, info = tasks.run_classification(
                problem.train_samples, problem.train_labels, pen, beta=0.5,
                rho=0.15, admm_cfg=ADMMConfig(tol_inner=1e-3),
                test_samples=problem.test_samples, test_labels=problem.test_labels,
            )
        assert info["metrics"]["test_accuracy"] >= 0.7
        assert coeff.shape == (6, 6, 2)
        assert top.inf_norm(coeff) <= 10.0 + 1e-12

    def test_data_transform_pilot_is_capped(self):
        # the pilot runs under the main solve's settings, so max_outer caps both
        problem = tasks.synth_logistic((4, 4, 3), 1, 80, 1, dct_transform(3), seed=1)
        pen = Penalty("mcp", lam=0.2, gamma=2.7)
        with pytest.warns(RuntimeWarning):
            _, info = tasks.run_classification(
                problem.train_samples, problem.train_labels, pen, beta=0.5,
                rho=0.15, transform_kind="data", admm_cfg=ADMMConfig(tol_inner=1e-3),
                max_outer=2,
            )
        assert info["pilot"]["transform"] == "dct"
        assert info["pilot"]["trace"]["outer_iterations"] == 2
        assert info["trace"]["outer_iterations"] == 2
        assert info["transform"] == "data"

    def test_empty_test_split_reports_no_metrics(self):
        # n_test = 0 is in range and means "no test split"
        problem = tasks.synth_logistic((3, 3, 2), 1, 30, 0, dct_transform(2), seed=0)
        assert problem.test_samples.shape == (0, 3, 3, 2)
        assert problem.test_labels.shape == (0,)
        probs, labels = tasks.predict(problem.coeff_truth, problem.test_samples)
        assert probs.shape == labels.shape == (0,)
        with pytest.warns(RuntimeWarning):
            _, info = tasks.run_classification(
                problem.train_samples, problem.train_labels, Penalty("mcp", lam=0.2, gamma=2.7),
                beta=0.5, rho=0.15, admm_cfg=ADMMConfig(tol_inner=1e-3), max_outer=2,
                test_samples=problem.test_samples, test_labels=problem.test_labels,
            )
        assert "metrics" not in info

    @staticmethod
    def forbid_solve(monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("the test split is checked before any solve")

        monkeypatch.setattr(tasks.solver, "pmm_solve", solve)

    @pytest.mark.parametrize("half", ["test_samples", "test_labels"])
    def test_half_test_split_rejected_before_the_solve(self, monkeypatch, half):
        # a half split would report no metrics, silently
        problem = tasks.synth_logistic((3, 3, 2), 1, 60, 10, dct_transform(2), seed=0)
        split = {"test_samples": problem.test_samples, "test_labels": problem.test_labels}
        del split[half]
        self.forbid_solve(monkeypatch)
        with pytest.raises(ValueError, match="needs both its samples and its labels"):
            tasks.run_classification(
                problem.train_samples, problem.train_labels, Penalty("mcp", lam=0.2, gamma=2.7),
                beta=0.5, **split,
            )

    def test_test_split_length_mismatch_rejected_before_the_solve(self, monkeypatch):
        # test_accuracy would catch it, but only after the whole solve
        problem = tasks.synth_logistic((3, 3, 2), 1, 60, 10, dct_transform(2), seed=0)
        self.forbid_solve(monkeypatch)
        with pytest.raises(ValueError, match="10 test samples but 9 test labels"):
            tasks.run_classification(
                problem.train_samples, problem.train_labels, Penalty("mcp", lam=0.2, gamma=2.7),
                beta=0.5, test_samples=problem.test_samples, test_labels=problem.test_labels[:9],
            )

    def test_zero_pilot_rejected(self):
        # a pilot of zero outer steps is the zero starting point
        problem = tasks.synth_logistic((3, 3, 2), 1, 20, 1, dct_transform(2), seed=0)
        with pytest.raises(ValueError, match="pilot tensor is zero"):
            tasks.run_classification(
                problem.train_samples, problem.train_labels, Penalty("convex", lam=1.0),
                beta=1.0, transform_kind="data", max_outer=0,
            )
