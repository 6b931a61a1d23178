"""Gaussian naive Bayes: fitting, posteriors, and prediction."""

import math

import numpy as np
import pytest

from conftest import matrix
from cardiolearn.bayes import (
    GaussianNBModel,
    fit_gaussian_nb,
    posterior_from_log_joint,
)
from cardiolearn.errors import DimensionMismatch, SingleClassDataset
from cardiolearn.rng import SplitMix64


def linear_space_posteriors(model: GaussianNBModel, x) -> list:
    """Direct density-product oracle, no log-space shortcuts."""
    densities = []
    for c in (0, 1):
        p = float(model.priors[c])
        for j, value in enumerate(x):
            var = float(model.variances[c][j])
            mean = float(model.means[c][j])
            p *= math.exp(-((value - mean) ** 2) / (2.0 * var)) / math.sqrt(
                2.0 * math.pi * var
            )
        densities.append(p)
    total = densities[0] + densities[1]
    return [d / total for d in densities]


def posterior_of(model: GaussianNBModel, x) -> np.ndarray:
    """Two-class posterior of one feature row, through the batch method."""
    return model.posterior(np.asarray(x, dtype=float)[None])[0]


def two_gaussian_model(mean0=0.0, mean1=2.0, var=1.0, prior1=0.5) -> GaussianNBModel:
    return GaussianNBModel(
        priors=np.array([1.0 - prior1, prior1]),
        means=np.array([[mean0], [mean1]]),
        variances=np.array([[var], [var]]),
        var_floor=1e-9,
    )


class TestFit:
    def test_population_moments(self):
        m = matrix([[0.0], [2.0], [10.0]], [0, 0, 1])
        model = fit_gaussian_nb(m)
        assert model.means[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert model.variances[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_priors_are_class_frequencies(self):
        m = matrix([[0.0], [1.0], [2.0], [3.0]], [1, 1, 1, 0])
        model = fit_gaussian_nb(m)
        assert model.priors.tolist() == pytest.approx([0.25, 0.75])

    def test_moments_match_numpy_oracle(self):
        gen = np.random.default_rng(0)
        for _ in range(25):
            n = int(gen.integers(4, 21))
            d = int(gen.integers(1, 4))
            values = gen.normal(0, 2, (n, d))
            labels = np.array([0, 1] + list(gen.integers(0, 2, n - 2)))
            model = fit_gaussian_nb(matrix(values, labels))
            for c in (0, 1):
                rows = values[labels == c]
                assert np.allclose(model.means[c], rows.mean(axis=0), atol=1e-12)
                assert np.allclose(
                    model.variances[c],
                    np.maximum(rows.var(axis=0), model.var_floor),
                    atol=1e-12,
                )

    def test_variance_floor_from_largest_overall_variance(self):
        values = np.array([[0.0, 5.0], [0.0, 5.0], [0.0, -5.0], [0.0, -5.0]])
        model = fit_gaussian_nb(matrix(values, [0, 0, 1, 1]))
        # first column is constant per class; floored by 1e-9 * max variance
        assert model.var_floor == pytest.approx(1e-9 * 25.0)
        assert model.variances[0, 0] == model.var_floor
        assert model.variances[1, 0] == model.var_floor

    def test_all_constant_features_use_absolute_floor(self):
        values = np.zeros((4, 2))
        model = fit_gaussian_nb(matrix(values, [0, 0, 1, 1]))
        assert model.var_floor == pytest.approx(1e-9)
        probs = posterior_of(model, np.zeros(2))
        assert np.all(np.isfinite(probs))

    def test_single_class_rejected(self):
        m = matrix([[0.0], [1.0]], [1, 1])
        with pytest.raises(SingleClassDataset):
            fit_gaussian_nb(m)


class TestPosteriors:
    def test_midpoint_is_even_odds(self):
        model = two_gaussian_model()
        probs = posterior_of(model, np.array([1.0]))
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        assert probs[1] == pytest.approx(0.5, abs=1e-12)

    def test_class_zero_center(self):
        model = two_gaussian_model()
        probs = posterior_of(model, np.array([0.0]))
        expected = math.exp(2.0) / (1.0 + math.exp(2.0))
        assert probs[0] == pytest.approx(expected, abs=1e-9)
        assert probs[0] == pytest.approx(0.88080, abs=1e-5)

    def test_posteriors_sum_to_one(self):
        gen = SplitMix64(100)
        for _ in range(1000):
            mean0 = 4.0 * gen.uniform() - 2.0
            mean1 = 4.0 * gen.uniform() - 2.0
            var0 = 0.1 + 3.0 * gen.uniform()
            var1 = 0.1 + 3.0 * gen.uniform()
            prior1 = 0.05 + 0.9 * gen.uniform()
            model = GaussianNBModel(
                priors=np.array([1.0 - prior1, prior1]),
                means=np.array([[mean0], [mean1]]),
                variances=np.array([[var0], [var1]]),
                var_floor=1e-9,
            )
            x = np.array([8.0 * gen.uniform() - 4.0])
            assert abs(float(posterior_of(model, x).sum()) - 1.0) < 1e-9

    def test_matches_density_product_oracle(self):
        gen = np.random.default_rng(7)
        for _ in range(50):
            n = int(gen.integers(4, 21))
            d = int(gen.integers(1, 4))
            values = gen.normal(0, 1.5, (n, d))
            labels = np.array([0, 1] + list(gen.integers(0, 2, n - 2)))
            model = fit_gaussian_nb(matrix(values, labels))
            for _ in range(5):
                x = gen.normal(0, 1.5, d)
                expected = linear_space_posteriors(model, x)
                got = posterior_of(model, x)
                assert abs(got[0] - expected[0]) < 1e-9
                assert abs(got[1] - expected[1]) < 1e-9

    def test_extreme_inputs_stay_finite(self):
        model = two_gaussian_model()
        for x in (-1e6, 1e6):
            probs = posterior_of(model, np.array([x]))
            assert np.all(np.isfinite(probs))
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_shift_invariance_of_posteriors(self):
        gen = np.random.default_rng(17)
        values = gen.normal(0, 1, (30, 3))
        labels = np.array([0] * 15 + [1] * 15)
        model = fit_gaussian_nb(matrix(values, labels))
        shifted = fit_gaussian_nb(matrix(values + 10.0, labels))
        for _ in range(20):
            x = gen.normal(0, 1, 3)
            a = posterior_of(model, x)
            b = posterior_of(shifted, x + 10.0)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_training_row_permutation_leaves_posteriors_unchanged(self):
        gen = np.random.default_rng(23)
        values = gen.normal(0, 1, (24, 2))
        labels = np.array([0] * 12 + [1] * 12)
        perm = gen.permutation(24)
        model = fit_gaussian_nb(matrix(values, labels))
        permuted = fit_gaussian_nb(matrix(values[perm], labels[perm]))
        for _ in range(20):
            x = gen.normal(0, 1, 2)
            assert np.max(np.abs(posterior_of(model, x) - posterior_of(permuted, x))) < 1e-12

    def test_posterior_from_log_joint_normalizes(self):
        probs = posterior_from_log_joint(np.array([-1000.0, -1001.0]))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs[0] == pytest.approx(math.e / (1.0 + math.e), abs=1e-12)


class TestPredict:
    def test_argmax(self):
        model = two_gaussian_model()
        probs = model.predict_proba(np.array([[-1.0], [3.0]]))
        assert probs[0] < 0.5 < probs[1]

    def test_predict_proba_is_positive_class_posterior(self):
        model = two_gaussian_model()
        rows = np.array([[0.4], [1.7]])
        assert model.predict_proba(rows).tolist() == model.posterior(rows)[:, 1].tolist()

    def test_dimension_mismatch(self):
        model = two_gaussian_model()
        with pytest.raises(DimensionMismatch):
            model.predict_proba(np.array([[1.0, 2.0]]))

    def test_priors_shift_decision_boundary(self):
        skewed = two_gaussian_model(prior1=0.9)
        assert skewed.predict_proba(np.array([[0.9]]))[0] > 0.5
        probs = posterior_of(skewed, np.array([1.0]))
        assert probs[1] > 0.5
