"""Uniform fitting front-end for the four model families.

Every fitted model exposes one batch method, `predict_proba(X)`: given an
(n, d) matrix of encoded feature rows it returns an (n,) float64 array of
positive-class probabilities, bit-equal to scoring each row alone; any
other shape raises DimensionMismatch. Evaluation, persistence, and the CLI
never branch on the family. Hyperparameters arrive as a plain name/value
mapping and are checked, before any work starts, by building the family's
config (`BoostConfig`, `RNNTrainConfig`), whose fields own every name,
default, type and range.

The recurrent network needs a validation partition for early stopping; it
is carved out of the supplied training matrix (stratified, one fifth) so
the held-out test partition is never consulted during fitting. Seeds for
that inner split and for weight init derive from the model seed through
fixed, documented streams.
"""

import enum
from dataclasses import dataclass, field, fields, replace
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

# per family: its config class and the fields a caller may not set, with
# their values (each RNN fit replaces the seed with one derived from its own)
FAMILY_CONFIGS = {
    Algorithm.GB: (BoostConfig, {"mode": BoostMode.FIRST_ORDER, "reg_lambda": 0.0, "gamma": 0.0}),
    Algorithm.XGB: (BoostConfig, {"mode": BoostMode.SECOND_ORDER}),
    Algorithm.RNN: (RNNTrainConfig, {"seed": 0}),
}

# accepted hyperparameter names and their defaults, per family
PARAM_DEFAULTS = {Algorithm.NB: {}} | {
    algorithm: {f.name: f.default for f in fields(config_class) if f.name not in fixed}
    for algorithm, (config_class, fixed) in FAMILY_CONFIGS.items()
}


@dataclass(frozen=True)
class ModelSpec:
    algorithm: Algorithm
    params: Mapping = field(default_factory=dict)


def family_config(algorithm: Algorithm, overrides: Mapping):
    """The family's config (None for NB): its defaults overlaid with known
    overrides, plus the fields a caller may not set; type- and range-checked."""
    defaults = PARAM_DEFAULTS[algorithm]
    for name in overrides:
        if name not in defaults:
            raise BadHyperparameter(
                f"unknown hyperparameter {name!r} for algorithm {algorithm.value!r}"
            )
    if algorithm is Algorithm.NB:
        return None
    config_class, fixed = FAMILY_CONFIGS[algorithm]
    return config_class.build({**defaults, **overrides}, **fixed)


def resolve_params(algorithm: Algorithm, overrides: Mapping) -> dict:
    """Every settable hyperparameter's value, as checked by `family_config`."""
    config = family_config(algorithm, overrides)
    return {name: getattr(config, name) for name in PARAM_DEFAULTS[algorithm]}


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
    config = family_config(spec.algorithm, spec.params)
    if spec.algorithm is Algorithm.NB:
        return fit_gaussian_nb(m)
    if spec.algorithm is not Algorithm.RNN:
        return fit_boosted(m, config)
    inner_train, inner_val = stratified_matrix_split(
        m, _INNER_VAL_FRACTION, derive_seed(seed, 1)
    )
    trained, history = train_rnn(inner_train, inner_val, replace(config, seed=derive_seed(seed, 2)))
    return RNNModel(params=trained, history=history)
