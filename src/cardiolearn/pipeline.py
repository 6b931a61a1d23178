"""End-to-end orchestration of the canonical training run.

The pipeline order is fixed: load, stratified split, fit preprocessor on
the training partition, transform both partitions, oversample the training
matrix only (when enabled), fit the model, evaluate on the untouched test
matrix, and assemble the persistence bundle. The run seed fans out through
fixed derived streams (split uses the seed itself, oversampling stream 1,
model fitting stream 2) so every stage is independently reproducible.
"""

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from . import preprocess
from .dataset import Dataset, stratified_split
from .errors import BadHyperparameter, FractionOutOfRange
from .evaluation import EvalReport, evaluate_model
from .hyperparams import Hyperparameters, hyperparameter
from .persistence import build_bundle
from .preprocess import FeatureMatrix, FittedPreprocessor, UnseenPolicy
from .rng import derive_seed
from .rnn import RNNModel, TrainHistory
from .training import (
    ALGORITHM_LABELS,
    Algorithm,
    ModelSpec,
    fit_algorithm,
    resolve_params,
)

COMPARE_ORDER = (Algorithm.RNN, Algorithm.NB, Algorithm.GB, Algorithm.XGB)


@dataclass(frozen=True)
class RunConfig(Hyperparameters):
    algorithm: Algorithm
    test_fraction: float = 0.2
    seed: int = hyperparameter(42, "[0, inf)")
    threshold: float = hyperparameter(0.5, "(0, 1)")
    smote_enabled: bool = True
    smote_k: int = hyperparameter(5, "[1, inf)")
    unseen_policy: UnseenPolicy = UnseenPolicy.ERROR
    params: Mapping = field(default_factory=dict)

    def validate(self) -> None:
        """Range-check everything before any data is touched."""
        if not 0.0 < self.test_fraction < 1.0:
            raise FractionOutOfRange(
                f"test_fraction must be in (0, 1), got {self.test_fraction}"
            )
        super().validate()
        resolve_params(self.algorithm, self.params)

    def train_config_record(self) -> dict:
        return {
            "algorithm": self.algorithm.value,
            "seed": self.seed,
            "test_fraction": self.test_fraction,
            "threshold": self.threshold,
            "smote_enabled": self.smote_enabled,
            "smote_k": self.smote_k,
            "unseen_policy": self.unseen_policy.value,
            "params": resolve_params(self.algorithm, self.params),
        }


@dataclass
class TrainOutcome:
    config: RunConfig
    preprocessor: FittedPreprocessor
    test_matrix: FeatureMatrix
    model: object
    report: EvalReport
    bundle: dict
    history: Optional[TrainHistory]


def prepare_matrices(data: Dataset, config: RunConfig):
    """Split, fit, transform, and oversample; shared by train and compare."""
    split = stratified_split(data, config.test_fraction, config.seed)
    fp = preprocess.fit(split.train, config.unseen_policy)
    train_m = preprocess.transform(fp, split.train)
    test_m = preprocess.transform(fp, split.test)
    if config.smote_enabled:
        train_m = preprocess.smote(
            train_m, k=config.smote_k, seed=derive_seed(config.seed, 1)
        )
    return split, fp, train_m, test_m


def run_training(data: Dataset, config: RunConfig) -> TrainOutcome:
    config.validate()
    _, fp, train_m, test_m = prepare_matrices(data, config)
    model = fit_algorithm(
        ModelSpec(config.algorithm, config.params), train_m,
        seed=derive_seed(config.seed, 2),
    )
    report = evaluate_model(
        model, test_m, config.threshold,
        model_id=ALGORITHM_LABELS[config.algorithm],
    )
    bundle = build_bundle(
        config.algorithm, fp, model, config.train_config_record(), report
    )
    history = model.history if isinstance(model, RNNModel) else None
    return TrainOutcome(
        config=config,
        preprocessor=fp,
        test_matrix=test_m,
        model=model,
        report=report,
        bundle=bundle,
        history=history,
    )


def run_compare(data: Dataset, config: RunConfig) -> Tuple[Tuple[str, EvalReport], ...]:
    """Train all four families on one shared split and preprocessor state;
    returns one (family label, test report) row per family in COMPARE_ORDER.

    Default hyperparameters apply to every family, so the comparison varies
    only the model. Any single failure propagates and aborts the whole
    table; partial tables are never produced.
    """
    config.validate()
    if config.params:
        raise BadHyperparameter(
            "compare runs every algorithm at its defaults; per-family overrides are not accepted"
        )
    _, _, train_m, test_m = prepare_matrices(data, config)
    rows = []
    for algorithm in COMPARE_ORDER:
        model = fit_algorithm(
            ModelSpec(algorithm, {}), train_m, seed=derive_seed(config.seed, 2)
        )
        report = evaluate_model(
            model, test_m, config.threshold, model_id=ALGORITHM_LABELS[algorithm]
        )
        rows.append((ALGORITHM_LABELS[algorithm], report))
    return tuple(rows)


def predict_probabilities(preprocessor: FittedPreprocessor, model,
                          data: Dataset) -> list:
    """Per-row positive-class probabilities (Python floats) for loaded records."""
    matrix = preprocess.transform(preprocessor, data)
    return model.predict_proba(matrix.values).tolist()
