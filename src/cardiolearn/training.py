"""Uniform fitting front-end for the four model families.

Every fitted model exposes one batch method, `predict_proba(X)`: given an
(n, d) matrix of encoded feature rows it returns an (n,) float64 array of
positive-class probabilities, bit-equal to scoring each row alone; any
other shape raises DimensionMismatch. Evaluation, persistence, and the CLI
never branch on the family. Hyperparameters arrive as a plain name/value
mapping that is validated against the family's known names (and as finite
numbers) before any work starts.

The recurrent network needs a validation partition for early stopping; it
is carved out of the supplied training matrix (stratified, one fifth) so
the held-out test partition is never consulted during fitting. Seeds for
that inner split and for weight init derive from the model seed through
fixed, documented streams.
"""

import enum
import numbers
import sys
from dataclasses import dataclass, field
from typing import Mapping, Tuple

from .bayes import fit_gaussian_nb
from .boosting import BoostConfig, BoostMode, fit_boosted
from .dataset import class_shuffles, complement_split, quota_indices
from .errors import BadHyperparameter, EmptyPartition
from .preprocess import FeatureMatrix
from .rng import derive_seed
from .rnn import RNNModel, RNNTrainConfig, train_rnn

_INNER_VAL_FRACTION = 0.2


class Algorithm(enum.Enum):
    NB = "nb"
    GB = "gb"
    XGB = "xgb"
    RNN = "rnn"


ALGORITHM_LABELS = {
    Algorithm.NB: "NaiveBayes",
    Algorithm.GB: "GradientBoosting",
    Algorithm.XGB: "XGBoost",
    Algorithm.RNN: "RNN",
}

# accepted hyperparameter names and their defaults, per family
PARAM_DEFAULTS = {
    Algorithm.NB: {},
    Algorithm.GB: {
        "n_rounds": 200,
        "learning_rate": 0.1,
        "max_depth": 3,
        "min_child_weight": 1.0,
    },
    Algorithm.XGB: {
        "n_rounds": 200,
        "learning_rate": 0.1,
        "max_depth": 3,
        "reg_lambda": 1.0,
        "gamma": 0.0,
        "min_child_weight": 1.0,
    },
    Algorithm.RNN: {
        "learning_rate": 0.001,
        "rms_decay": 0.9,
        "epsilon": 1e-8,
        "max_epochs": 200,
        "patience": 10,
        "batch_size": 32,
        "hidden_size": 16,
        "init_scale": 0.1,
    },
}

_INT_PARAMS = {"n_rounds", "max_depth", "max_epochs", "patience", "batch_size", "hidden_size"}


@dataclass(frozen=True)
class ModelSpec:
    algorithm: Algorithm
    params: Mapping = field(default_factory=dict)


def resolve_params(algorithm: Algorithm, overrides: Mapping) -> dict:
    """Defaults overlaid with overrides; unknown names, non-numbers, bools
    and non-finite values are rejected."""
    defaults = PARAM_DEFAULTS[algorithm]
    resolved = dict(defaults)
    for name, value in overrides.items():
        if name not in defaults:
            raise BadHyperparameter(
                f"unknown hyperparameter {name!r} for algorithm {algorithm.value!r}"
            )
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not abs(value) <= sys.float_info.max):
            raise BadHyperparameter(
                f"hyperparameter {name!r} must be a finite number, got {value!r}"
            )
        if name in _INT_PARAMS:
            if float(value) != int(value):
                raise BadHyperparameter(f"hyperparameter {name!r} must be an integer, got {value!r}")
            value = int(value)
        else:
            value = float(value)
        resolved[name] = value
    return resolved


def parse_algorithm(token: str) -> Algorithm:
    for algorithm in Algorithm:
        if algorithm.value == token:
            return algorithm
    raise BadHyperparameter(f"unknown algorithm {token!r} (expected nb, gb, xgb, or rnn)")


def stratified_matrix_split(m: FeatureMatrix, val_fraction: float,
                            seed: int) -> Tuple[FeatureMatrix, FeatureMatrix]:
    """Split matrix rows into (train, validation) preserving class balance.

    Positional row indices are shuffled per class and each class contributes
    round(count * val_fraction) validation rows. If the quotas are all zero
    the first shuffled row of the largest class is promoted so the
    validation side is never empty.
    """
    if m.n_rows < 2:
        raise EmptyPartition("need at least 2 rows to carve out a validation set")
    shuffled = class_shuffles(m.labels, seed)
    val_indices = quota_indices(shuffled, val_fraction)
    if not val_indices:
        val_indices = [max(shuffled, key=len)[0]]  # equal sizes: class 0 wins
    train_rows, val_rows = map(list, complement_split(m.n_rows, val_indices))
    if not train_rows:
        raise EmptyPartition("validation split consumed every row")
    return (
        FeatureMatrix(m.values[train_rows], m.labels[train_rows], m.column_names),
        FeatureMatrix(m.values[val_rows], m.labels[val_rows], m.column_names),
    )


def fit_algorithm(spec: ModelSpec, m: FeatureMatrix, seed: int):
    """Fit one model family on an encoded matrix; returns the fitted model."""
    params = resolve_params(spec.algorithm, spec.params)
    if spec.algorithm is Algorithm.NB:
        return fit_gaussian_nb(m)
    if spec.algorithm in (Algorithm.GB, Algorithm.XGB):
        mode = BoostMode.FIRST_ORDER if spec.algorithm is Algorithm.GB else BoostMode.SECOND_ORDER
        return fit_boosted(m, BoostConfig(mode=mode, **params))
    inner_train, inner_val = stratified_matrix_split(
        m, _INNER_VAL_FRACTION, derive_seed(seed, 1)
    )
    config = RNNTrainConfig(seed=derive_seed(seed, 2), **params)
    trained, history = train_rnn(inner_train, inner_val, config)
    return RNNModel(params=trained, history=history)
