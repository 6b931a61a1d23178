"""The shared model contract: `predict_proba(X)` over an (n, d) batch.

Every family must score a batch exactly as it scores each row alone, and
reject anything that is not a 2-d matrix of the model's width.
"""

import numpy as np
import pytest

from conftest import matrix
from cardiolearn.errors import DimensionMismatch
from cardiolearn.evaluation import RunConfig
from cardiolearn.training import Algorithm, fit_algorithm

FAST_PARAMS = {
    Algorithm.NB: {},
    Algorithm.GB: {"n_rounds": 40},
    Algorithm.XGB: {"n_rounds": 40, "max_depth": 4},
    Algorithm.RNN: {"max_epochs": 2, "hidden_size": 5},
}
N_FEATURES = 11


@pytest.fixture(scope="module")
def fitted():
    gen = np.random.default_rng(41)
    values = gen.normal(0.0, 1.0, (150, N_FEATURES))
    labels = (values[:, 0] - 0.7 * values[:, 3] + 0.5 * gen.normal(0.0, 1.0, 150) > 0)
    m = matrix(values, labels.astype(int))
    return {
        algorithm: fit_algorithm(RunConfig(algorithm, params=params), m, seed=7)[0]
        for algorithm, params in FAST_PARAMS.items()
    }


def scoring_rows():
    gen = np.random.default_rng(43)
    rows = gen.normal(0.0, 1.5, (257, N_FEATURES))
    rows[:5] = 0.0
    rows[5:9] *= 40.0  # saturating margins and log densities
    return rows


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_batch_equals_rows_scored_alone(fitted, algorithm):
    model = fitted[algorithm]
    X = scoring_rows()
    batch = model.predict_proba(X)
    alone = np.concatenate([model.predict_proba(X[i:i + 1]) for i in range(len(X))])
    assert batch.dtype == np.float64 and batch.shape == (len(X),)
    assert batch.tobytes() == alone.tobytes()
    assert np.all((batch >= 0.0) & (batch <= 1.0))


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_zero_rows_give_an_empty_float_array(fitted, algorithm):
    probs = fitted[algorithm].predict_proba(np.empty((0, N_FEATURES)))
    assert probs.dtype == np.float64 and probs.shape == (0,)


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_one_dimensional_input_rejected(fitted, algorithm):
    with pytest.raises(DimensionMismatch):
        fitted[algorithm].predict_proba(np.zeros(N_FEATURES))


@pytest.mark.parametrize("algorithm", [Algorithm.NB, Algorithm.GB, Algorithm.XGB],
                         ids=lambda a: a.value)
def test_wrong_column_count_rejected(fitted, algorithm):
    model = fitted[algorithm]
    for width in (N_FEATURES - 1, N_FEATURES + 1):
        with pytest.raises(DimensionMismatch):
            model.predict_proba(np.zeros((3, width)))
