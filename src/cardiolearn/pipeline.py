"""End-to-end orchestration of the canonical training run.

The pipeline order is fixed: load, stratified split, the run's
preprocessing step (`evaluation.encode_partitions`: fit the preprocessor on
the training partition, transform both partitions, oversample the training
matrix only when enabled), fit the model, evaluate on the untouched test
matrix, and assemble the persistence bundle. The run seed fans out through
fixed derived streams (split uses the seed itself, oversampling stream 1,
model fitting stream 2) so every stage is independently reproducible.
"""

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from . import preprocess
from .dataset import Dataset, stratified_split
from .errors import BadHyperparameter
from .evaluation import EvalReport, RunConfig, encode_partitions, evaluate_model
from .persistence import build_bundle
from .preprocess import FittedPreprocessor
from .rng import derive_seed
from .rnn import TrainHistory
from .training import ALGORITHM_LABELS, Algorithm, fit_algorithm

COMPARE_ORDER = (Algorithm.RNN, Algorithm.NB, Algorithm.GB, Algorithm.XGB)


@dataclass
class TrainOutcome:
    report: EvalReport
    bundle: dict
    history: Optional[TrainHistory]


def prepare_matrices(data: Dataset, config: RunConfig):
    """Split, then encode the partitions (oversampling on stream 1); shared by
    train, compare and preprocess."""
    split = stratified_split(data, config.test_fraction, config.seed)
    fp, train_m, test_m = encode_partitions(config, split.train, split.test, 1)
    return split, fp, train_m, test_m


def run_training(data: Dataset, config: RunConfig) -> TrainOutcome:
    _, fp, train_m, test_m = prepare_matrices(data, config)
    model, history = fit_algorithm(config, train_m, seed=derive_seed(config.seed, 2))
    report = evaluate_model(
        model, test_m, config.threshold,
        model_id=ALGORITHM_LABELS[config.algorithm],
    )
    bundle = build_bundle(
        config.algorithm, fp, model, config.train_config_record(), report
    )
    return TrainOutcome(report=report, bundle=bundle, history=history)


def run_compare(data: Dataset, config: RunConfig) -> Tuple[Tuple[str, EvalReport], ...]:
    """Train all four families on one shared split and preprocessor state;
    returns one (family label, test report) row per family in COMPARE_ORDER.

    Default hyperparameters apply to every family, so the comparison varies
    only the model. Any single failure propagates and aborts the whole
    table; partial tables are never produced.
    """
    if config.params:
        raise BadHyperparameter(
            "compare runs every algorithm at its defaults; per-family overrides are not accepted"
        )
    _, _, train_m, test_m = prepare_matrices(data, config)
    rows = []
    for algorithm in COMPARE_ORDER:
        model, _ = fit_algorithm(
            replace(config, algorithm=algorithm), train_m, seed=derive_seed(config.seed, 2)
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
