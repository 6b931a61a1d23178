"""Run settings, confusion-matrix metrics, cross-validation and grid search.

`RunConfig` is the one table of a run's settings, checked, its params
included, when it is constructed; `encode_partitions` is the one
preprocessing step of a run: fit the preprocessor on the training
side, transform both sides, oversample the training side only (when
enabled). A `train`, `compare` or `preprocess` run and every
cross-validation fold go through both.

Metrics with a zero denominator report None (never NaN, never a silent 0)
so a degenerate model cannot masquerade as a scoring one. The decision rule
is fixed and inclusive: label 1 iff probability >= threshold, for a
threshold inside THRESHOLD_INTERVAL.

Cross-validation fold i is encoded once per search (oversampling on seed
stream 2i), and every candidate fits its model to that fold on stream
2i+1. A candidate changes only `params`, which encoding never reads, so
the encoded folds, and each matrix's cached presort, are shared. Grid
search runs every candidate as the run's config with that candidate's
params, walking the full Cartesian product in a canonical order:
candidate lists iterate lexicographically with parameter names sorted
alphabetically, and metric ties keep the earliest candidate in that order.
"""

import enum
import itertools
from dataclasses import dataclass, field, fields, replace
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import preprocess
from .dataset import Dataset, kfold
from .errors import (
    EmptyGrid,
    EmptyPredictions,
    FractionOutOfRange,
    LengthMismatch,
)
from .hyperparams import Hyperparameters, check, hyperparameter
from .preprocess import FeatureMatrix, FittedPreprocessor, UnseenPolicy
from .rng import derive_seed
from .training import ALGORITHM_LABELS, Algorithm, fit_algorithm, resolve_params

METRIC_NAMES = ("accuracy", "precision", "recall", "f1")

THRESHOLD_INTERVAL = "(0, 1)"


@dataclass(frozen=True)
class RunConfig(Hyperparameters):
    """The one table of run settings: each one's name, default, type and range."""
    algorithm: Algorithm
    test_fraction: float = hyperparameter(0.2, "(0, 1)", FractionOutOfRange)
    seed: int = hyperparameter(42, "[0, inf)")
    threshold: float = hyperparameter(0.5, THRESHOLD_INTERVAL)
    smote_enabled: bool = True
    smote_k: int = hyperparameter(5, "[1, inf)")
    unseen_policy: UnseenPolicy = UnseenPolicy.ERROR
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Check every setting, turning an `unseen_policy` value into its
        member, and `params` against the algorithm's family."""
        super().__post_init__()
        check(self.smote_enabled, bool, "smote_enabled")
        if not isinstance(self.unseen_policy, UnseenPolicy):
            value = check(self.unseen_policy, tuple(u.value for u in UnseenPolicy),
                          "unseen_policy")
            object.__setattr__(self, "unseen_policy", UnseenPolicy(value))
        resolve_params(self.algorithm, self.params)

    def train_config_record(self) -> dict:
        """Every setting as a bundle stores it: enums by value, params resolved."""
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        record["params"] = resolve_params(self.algorithm, self.params)
        return {name: v.value if isinstance(v, enum.Enum) else v for name, v in record.items()}


def encode_partitions(
    config: RunConfig, train: Dataset, held_out: Dataset, smote_stream: int,
) -> Tuple[FittedPreprocessor, FeatureMatrix, FeatureMatrix]:
    """Fit the preprocessor on `train`, transform both partitions, and
    oversample the training matrix on seed stream `smote_stream` when enabled."""
    fp = preprocess.fit(train, config.unseen_policy)
    train_m = preprocess.transform(fp, train)
    held_out_m = preprocess.transform(fp, held_out)
    if config.smote_enabled:
        train_m = preprocess.smote(
            train_m, k=config.smote_k, seed=derive_seed(config.seed, smote_stream)
        )
    return fp, train_m, held_out_m


class SelectionMetric(enum.Enum):
    ACCURACY = "accuracy"
    F1 = "f1"


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class EvalReport:
    """Metrics are None when their denominator is zero (undefined)."""
    accuracy: Optional[float]
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]
    matrix: ConfusionMatrix
    model_id: str
    threshold: float

    def metric(self, name: str) -> Optional[float]:
        return getattr(self, name)


def confusion(predicted: Sequence[int], actual: Sequence[int]) -> ConfusionMatrix:
    """Count the 2x2 contingency table; positive class is 1, any other value negative."""
    if len(predicted) != len(actual):
        raise LengthMismatch(
            f"predicted has {len(predicted)} entries, actual has {len(actual)}"
        )
    if len(predicted) == 0:
        raise EmptyPredictions("cannot build a confusion matrix from zero samples")
    p = np.asarray(predicted) == 1
    a = np.asarray(actual) == 1
    return ConfusionMatrix(tp=int(np.sum(p & a)), fp=int(np.sum(p & ~a)),
                           fn=int(np.sum(~p & a)), tn=int(np.sum(~p & ~a)))


def _ratio(numerator: int, denominator: int) -> Optional[float]:
    if denominator == 0:
        return None
    return numerator / denominator


def metrics(cm: ConfusionMatrix, threshold: float, model_id: str) -> EvalReport:
    accuracy = _ratio(cm.tp + cm.tn, cm.total)
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    if precision is None or recall is None or precision + recall == 0.0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return EvalReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        matrix=cm,
        model_id=model_id,
        threshold=threshold,
    )


def check_threshold(threshold: float) -> float:
    """`threshold`, if it lies in THRESHOLD_INTERVAL."""
    return check(threshold, THRESHOLD_INTERVAL, "threshold")


def evaluate_model(model, m: FeatureMatrix, threshold: float = RunConfig.threshold,
                   model_id: str = "") -> EvalReport:
    """Score a fitted model on an encoded matrix; label 1 iff p >= threshold."""
    check_threshold(threshold)
    if not model_id:
        model_id = type(model).__name__
    predicted = (model.predict_proba(m.values) >= threshold).astype(int)
    return metrics(confusion(predicted, m.labels), threshold, model_id)


@dataclass(frozen=True)
class CVResult:
    """Each fold's report, and per metric the mean and population std
    across folds.

    A metric's mean and std are None when any fold left it undefined;
    averaging over only the defined folds would overstate the model.
    """
    fold_reports: Tuple[EvalReport, ...]
    means: dict
    stds: dict


def summarize_reports(reports: Sequence[EvalReport]) -> CVResult:
    """The `CVResult` of the fold reports, in fold order."""
    means = {}
    stds = {}
    for name in METRIC_NAMES:
        values = [r.metric(name) for r in reports]
        if any(v is None for v in values):
            means[name] = None
            stds[name] = None
        else:
            arr = np.array(values, dtype=float)
            means[name] = float(arr.mean())
            stds[name] = float(arr.std())
    return CVResult(fold_reports=tuple(reports), means=means, stds=stds)


def encode_folds(
    config: RunConfig, data: Dataset, k: int,
) -> Tuple[Tuple[FeatureMatrix, FeatureMatrix], ...]:
    """Stratified k folds of `data` drawn from `config`'s seed, as
    (training, validation) matrices; fold i encodes its partitions as a
    run does, oversampling on stream 2i."""
    folds = []
    for i, (train_idx, val_idx) in enumerate(kfold(data, k, config.seed)):
        _, train_m, val_m = encode_partitions(
            config, data.subset(train_idx), data.subset(val_idx), 2 * i)
        folds.append((train_m, val_m))
    return tuple(folds)


def cross_validate(
    config: RunConfig, folds: Sequence[Tuple[FeatureMatrix, FeatureMatrix]],
) -> CVResult:
    """Evaluate `config`'s model on encoded folds: fold i fits on its
    training matrix on stream 2i+1 and scores its validation matrix."""
    reports = [
        evaluate_model(
            fit_algorithm(config, train_m, seed=derive_seed(config.seed, 2 * i + 1))[0],
            val_m, config.threshold, model_id=ALGORITHM_LABELS[config.algorithm],
        )
        for i, (train_m, val_m) in enumerate(folds)
    ]
    return summarize_reports(reports)


@dataclass(frozen=True)
class GridSpec:
    grid: dict                      # hyperparameter name -> candidate list
    selection_metric: SelectionMetric = SelectionMetric.ACCURACY
    k: int = 5


@dataclass(frozen=True)
class GridCandidate:
    params: dict
    cv: CVResult


@dataclass(frozen=True)
class GridSearchResult:
    best_params: dict
    best_mean: Optional[float]
    candidates: Tuple[GridCandidate, ...]


def grid_candidates(grid: dict) -> List[dict]:
    """Materialize the Cartesian product in canonical order."""
    if not grid:
        raise EmptyGrid("hyperparameter grid has no entries")
    names = sorted(grid)
    for name in names:
        if len(grid[name]) == 0:
            raise EmptyGrid(f"candidate list for {name!r} is empty")
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(grid[name] for name in names))
    ]


def grid_search(spec: GridSpec, config: RunConfig, data: Dataset) -> GridSearchResult:
    """Exhaustive search over the grid, each candidate cross-validated as
    `config` with that candidate's params; ranked by mean selection metric.

    Every candidate is checked as it is built, before any fold is
    encoded; the k folds are then encoded once and shared by every
    candidate. Candidates whose metric is undefined in any fold rank
    below every defined candidate. Equal means keep the earliest
    canonical candidate.
    """
    candidates = [replace(config, params=params) for params in grid_candidates(spec.grid)]
    folds = encode_folds(config, data, spec.k)
    evaluated = [GridCandidate(params=c.params, cv=cross_validate(c, folds)) for c in candidates]
    means = [c.cv.means[spec.selection_metric.value] for c in evaluated]
    # max keeps the first of equal means; with no mean defined, candidate 0
    best = max((i for i, mean in enumerate(means) if mean is not None),
               key=means.__getitem__, default=0)
    return GridSearchResult(best_params=evaluated[best].params, best_mean=means[best],
                            candidates=tuple(evaluated))
