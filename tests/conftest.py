"""Shared builders for the test suite."""

import numpy as np
import pytest

from cardiolearn.boosting import PROB_CLAMP
from cardiolearn.dataset import SCHEMA, Dataset, FeatureKind
from cardiolearn.pipeline import prepare_matrices
from cardiolearn.preprocess import FeatureMatrix
from cardiolearn.rng import derive_seed
from cardiolearn.training import fit_algorithm

# Plausible defaults for every schema column; tests override what they probe.
BASE_VALUES = {
    "Age": 54.0,
    "Sex": "M",
    "ChestPainType": "ASY",
    "RestingBP": 130.0,
    "Cholesterol": 240.0,
    "FastingBS": 0.0,
    "RestingECG": "Normal",
    "MaxHR": 150.0,
    "ExerciseAngina": "N",
    "Oldpeak": 1.0,
    "ST_Slope": "Flat",
}


def make_dataset(rows) -> Dataset:
    """rows: iterable of (overrides dict, label) pairs. Each row's cells are
    BASE_VALUES with its overrides, numeric ones as floats; the rows are
    turned into columns."""
    rows = list(rows)
    columns = []
    for spec in SCHEMA:
        cells = [overrides.get(spec.name, BASE_VALUES[spec.name]) for overrides, _ in rows]
        columns.append(list(map(float, cells)) if spec.kind is FeatureKind.NUMERIC else cells)
    return Dataset(columns, [label for _, label in rows])


def spread_dataset(n_neg: int, n_pos: int) -> Dataset:
    """Distinct-content records so content-keyed ordering is unambiguous."""
    rows = []
    for i in range(n_neg):
        rows.append(({"Age": 40 + i, "MaxHR": 150 + i}, 0))
    for i in range(n_pos):
        rows.append(({"Age": 60 + i, "MaxHR": 120 + i, "Oldpeak": 2.0}, 1))
    return make_dataset(rows)


def matrix(values, labels, names=None) -> FeatureMatrix:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if names is None:
        names = tuple(f"f{i}" for i in range(arr.shape[1]))
    return FeatureMatrix(
        values=arr,
        labels=np.asarray(labels, dtype=np.int64),
        column_names=tuple(names),
    )


def clamp_probability(p: float) -> float:
    return min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)


def log_loss(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy with probabilities clamped away from 0/1."""
    p = np.clip(np.asarray(probabilities, dtype=float), PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.asarray(labels, dtype=float)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def fit_in_memory(data: Dataset, config):
    """The preprocessor, test matrix and model `pipeline.run_training` fits
    for (data, config), made again in memory rather than read from its bundle."""
    _, fp, train_m, test_m = prepare_matrices(data, config)
    model, _ = fit_algorithm(config, train_m, derive_seed(config.seed, 2))
    return fp, test_m, model


@pytest.fixture
def tiny_matrix() -> FeatureMatrix:
    return matrix(
        [[-2.0, 0.5], [-1.5, -0.3], [-1.0, 0.1], [1.0, -0.4], [1.5, 0.2], [2.0, -0.1]],
        [0, 0, 0, 1, 1, 1],
    )
