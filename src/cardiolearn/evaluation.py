"""Confusion-matrix metrics, cross-validated evaluation, and grid search.

Metrics with a zero denominator report None (never NaN, never a silent 0)
so a degenerate model cannot masquerade as a scoring one. The decision rule
is fixed and inclusive: label 1 iff probability >= threshold.

Cross-validation re-fits the preprocessor (and re-applies oversampling)
inside every fold on that fold's training portion only. Grid search walks
the full Cartesian product in a canonical order: candidate lists iterate
lexicographically with parameter names sorted alphabetically, and metric
ties keep the earliest candidate in that order.
"""

import enum
import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import preprocess
from .dataset import Dataset, csv_table, kfold
from .errors import (
    BadHyperparameter,
    EmptyGrid,
    EmptyPredictions,
    LengthMismatch,
)
from .preprocess import FeatureMatrix, UnseenPolicy
from .rng import derive_seed
from .training import ALGORITHM_LABELS, ModelSpec, fit_algorithm, resolve_params

METRIC_NAMES = ("accuracy", "precision", "recall", "f1")


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


def evaluate_model(model, m: FeatureMatrix, threshold: float = 0.5,
                   model_id: str = "") -> EvalReport:
    """Score a fitted model on an encoded matrix; label 1 iff p >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise BadHyperparameter(f"threshold must be in (0, 1), got {threshold}")
    if not model_id:
        model_id = type(model).__name__
    predicted = (model.predict_proba(m.values) >= threshold).astype(int)
    return metrics(confusion(predicted, m.labels), threshold, model_id)


@dataclass(frozen=True)
class CVSummary:
    """Per-metric mean and population std across folds.

    A metric's summary entries are None when any fold left it undefined;
    averaging over only the defined folds would overstate the model.
    """
    means: dict
    stds: dict


@dataclass(frozen=True)
class CVResult:
    fold_reports: Tuple[EvalReport, ...]
    summary: CVSummary


def summarize_reports(reports: Sequence[EvalReport]) -> CVSummary:
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
            stds[name] = float(np.sqrt(np.mean((arr - arr.mean()) ** 2)))
    return CVSummary(means=means, stds=stds)


def cross_validate(spec: ModelSpec, data: Dataset, k: int, seed: int,
                   threshold: float = 0.5, smote_enabled: bool = True,
                   smote_k: int = 5,
                   unseen_policy: UnseenPolicy = UnseenPolicy.ERROR) -> CVResult:
    """Stratified k-fold evaluation with per-fold preprocessing.

    Fold i re-fits the preprocessor on its training portion, transforms both
    portions, oversamples the training side only, fits the model with a
    fold-derived seed, and scores the validation portion.
    """
    resolve_params(spec.algorithm, spec.params)
    reports = []
    for i, (train_idx, val_idx) in enumerate(kfold(data, k, seed)):
        fold_train = data.subset(train_idx, source=f"{data.source}#fold{i}-train")
        fold_val = data.subset(val_idx, source=f"{data.source}#fold{i}-val")
        fp = preprocess.fit(fold_train, unseen_policy)
        train_m = preprocess.transform(fp, fold_train)
        val_m = preprocess.transform(fp, fold_val)
        if smote_enabled:
            train_m = preprocess.smote(train_m, k=smote_k, seed=derive_seed(seed, 2 * i))
        model = fit_algorithm(spec, train_m, seed=derive_seed(seed, 2 * i + 1))
        reports.append(
            evaluate_model(
                model, val_m, threshold,
                model_id=ALGORITHM_LABELS[spec.algorithm],
            )
        )
    return CVResult(
        fold_reports=tuple(reports),
        summary=summarize_reports(reports),
    )


@dataclass(frozen=True)
class GridSpec:
    grid: dict                      # hyperparameter name -> candidate list
    selection_metric: SelectionMetric
    k: int
    seed: int


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


def grid_search(spec: GridSpec, algorithm, data: Dataset,
                threshold: float = 0.5, smote_enabled: bool = True,
                smote_k: int = 5,
                unseen_policy: UnseenPolicy = UnseenPolicy.ERROR) -> GridSearchResult:
    """Exhaustive search over the grid, ranked by mean selection metric.

    Candidates whose metric is undefined in any fold rank below every
    defined candidate. Equal means keep the earliest canonical candidate.
    """
    candidates = grid_candidates(spec.grid)
    for params in candidates:
        resolve_params(algorithm, params)
    evaluated = []
    best_index = 0
    best_mean = None
    for index, params in enumerate(candidates):
        cv = cross_validate(
            ModelSpec(algorithm, params), data, spec.k, spec.seed,
            threshold=threshold, smote_enabled=smote_enabled, smote_k=smote_k,
            unseen_policy=unseen_policy,
        )
        evaluated.append(GridCandidate(params=params, cv=cv))
        mean = cv.summary.means[spec.selection_metric.value]
        if mean is not None and (best_mean is None or mean > best_mean):
            best_mean = mean
            best_index = index
    return GridSearchResult(
        best_params=evaluated[best_index].params,
        best_mean=best_mean,
        candidates=tuple(evaluated),
    )


def csv_value(value: Optional[float]) -> str:
    """CSV cell: full-precision repr, or NA when the value is undefined."""
    return "NA" if value is None else repr(value)


def format_params(params: dict) -> str:
    return ";".join(f"{name}={params[name]!r}" for name in sorted(params)) or "-"


def results_csv(result: GridSearchResult) -> str:
    """Fold-level results table: model_id,params,fold,accuracy,precision,recall,f1."""
    rows = []
    for candidate in result.candidates:
        params = format_params(candidate.params)
        for fold, report in enumerate(candidate.cv.fold_reports):
            cells = [report.model_id, params, str(fold)]
            cells.extend(csv_value(report.metric(n)) for n in METRIC_NAMES)
            rows.append(cells)
    return csv_table(("model_id", "params", "fold") + METRIC_NAMES, rows)
