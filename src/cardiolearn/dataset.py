"""Record schema, CSV ingestion, deterministic splits, and synthetic data.

The canonical table has eleven features plus a binary ``HeartDisease``
label. Two numeric columns (RestingBP, Cholesterol) use 0 as a missing-value
sentinel because a zero reading is physiologically impossible; FastingBS is
a 0/1 indicator, so 0 is a legitimate value there.
"""

import csv
import enum
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (
    BadEncoding,
    BadFraction,
    BadHyperparameter,
    DuplicateHeader,
    EmptyDataset,
    EmptyFile,
    FractionOutOfRange,
    KTooLarge,
    MissingColumn,
    SchemaMismatch,
    SingleClassDataset,
    UnparsableCell,
)
from .rng import SplitMix64

Cell = Union[float, str]

LABEL_COLUMN = "HeartDisease"


class FeatureKind(enum.Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: FeatureKind
    missing_sentinel: Optional[float] = None


SCHEMA = (
    FeatureSpec("Age", FeatureKind.NUMERIC),
    FeatureSpec("Sex", FeatureKind.CATEGORICAL),
    FeatureSpec("ChestPainType", FeatureKind.CATEGORICAL),
    FeatureSpec("RestingBP", FeatureKind.NUMERIC, missing_sentinel=0.0),
    FeatureSpec("Cholesterol", FeatureKind.NUMERIC, missing_sentinel=0.0),
    FeatureSpec("FastingBS", FeatureKind.NUMERIC),
    FeatureSpec("RestingECG", FeatureKind.CATEGORICAL),
    FeatureSpec("MaxHR", FeatureKind.NUMERIC),
    FeatureSpec("ExerciseAngina", FeatureKind.CATEGORICAL),
    FeatureSpec("Oldpeak", FeatureKind.NUMERIC),
    FeatureSpec("ST_Slope", FeatureKind.CATEGORICAL),
)

FEATURE_NAMES = tuple(spec.name for spec in SCHEMA)
NUMERIC_FEATURES = tuple(s.name for s in SCHEMA if s.kind is FeatureKind.NUMERIC)
CATEGORICAL_FEATURES = tuple(s.name for s in SCHEMA if s.kind is FeatureKind.CATEGORICAL)


@dataclass(frozen=True)
class RawRecord:
    values: tuple
    label: int

    def __post_init__(self):
        if len(self.values) != len(SCHEMA):
            raise SchemaMismatch(
                f"record has {len(self.values)} cells, schema has {len(SCHEMA)}"
            )
        for spec, cell in zip(SCHEMA, self.values):
            if spec.kind is FeatureKind.NUMERIC:
                if not isinstance(cell, float) or not math.isfinite(cell):
                    raise SchemaMismatch(f"{spec.name}: numeric cell must be finite, got {cell!r}")
            else:
                if not isinstance(cell, str) or not cell:
                    raise SchemaMismatch(f"{spec.name}: categorical cell must be a non-empty token")
        if self.label not in (0, 1):
            raise SchemaMismatch(f"label must be 0 or 1, got {self.label!r}")


@dataclass(frozen=True)
class Dataset:
    records: tuple
    source: str = "memory"

    def __len__(self):
        return len(self.records)

    @property
    def labels(self) -> list:
        return [r.label for r in self.records]

    def class_counts(self) -> tuple:
        labels = self.labels
        return labels.count(0), labels.count(1)

    def subset(self, indices, source: str) -> "Dataset":
        return Dataset(tuple(self.records[i] for i in indices), source=source)


@dataclass(frozen=True)
class SplitResult:
    train: Dataset
    test: Dataset
    train_indices: tuple
    test_indices: tuple


@dataclass(frozen=True)
class NumericSummary:
    count: int
    missing: int
    minimum: Optional[float]
    maximum: Optional[float]
    mean: Optional[float]
    std: Optional[float]


@dataclass(frozen=True)
class SummaryReport:
    n_records: int
    numeric: dict
    categorical: dict
    positives: int
    negatives: int

    @property
    def positive_fraction(self) -> float:
        return self.positives / self.n_records


def _round_half_up(x: float) -> int:
    # fixed rounding mode so per-class quotas agree across platforms
    return math.floor(x + 0.5)


def _format_cell(value: Cell) -> str:
    if isinstance(value, str):
        return value
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def record_key(record: RawRecord) -> str:
    """Content key used to make shuffles independent of input row order."""
    return ",".join(_format_cell(v) for v in record.values) + f",{record.label}"


def _parse_features(row_index, raw_cells, positions):
    if len(raw_cells) > len(positions):  # the header has exactly one column per position
        raise SchemaMismatch(
            f"row {row_index} has {len(raw_cells)} cells but the header has {len(positions)}"
        )
    values = []
    for spec in SCHEMA:
        pos = positions[spec.name]
        if pos >= len(raw_cells):
            raise UnparsableCell(row_index, spec.name, "<missing cell>")
        token = raw_cells[pos].strip()
        if spec.kind is FeatureKind.NUMERIC:
            try:
                value = float(token)
            except ValueError:
                raise UnparsableCell(row_index, spec.name, token) from None
            if not math.isfinite(value):
                raise UnparsableCell(row_index, spec.name, token)
            values.append(value)
        else:
            if not token:
                raise UnparsableCell(row_index, spec.name, token)
            values.append(token)
    return tuple(values)


def _parse_row(row_index, raw_cells, positions):
    values = _parse_features(row_index, raw_cells, positions)
    label_pos = positions[LABEL_COLUMN]
    if label_pos >= len(raw_cells):
        raise UnparsableCell(row_index, LABEL_COLUMN, "<missing cell>")
    label_token = raw_cells[label_pos].strip()
    try:
        label_value = float(label_token)
    except ValueError:
        raise UnparsableCell(row_index, LABEL_COLUMN, label_token) from None
    if label_value not in (0.0, 1.0):
        raise UnparsableCell(row_index, LABEL_COLUMN, label_token)
    return RawRecord(values, int(label_value))


def _read_rows(path):
    # utf-8-sig drops a leading byte-order mark, so the first header name stays clean
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except UnicodeDecodeError as exc:
        raise BadEncoding(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise EmptyFile(f"{path}: no content")
    return rows


def _header_positions(rows, expected):
    header = [cell.strip() for cell in rows[0]]
    seen = set()
    for name in header:
        if name in seen:
            raise DuplicateHeader(name)
        seen.add(name)
    for name in expected:
        if name not in seen:
            raise MissingColumn(name)
    extra = seen - set(expected)
    if extra:
        raise SchemaMismatch(f"unexpected column(s): {sorted(extra)}")
    return {name: header.index(name) for name in expected}


def load_csv(path) -> Dataset:
    """Load a labeled dataset.

    The header must contain exactly the eleven feature columns plus
    ``HeartDisease`` (case-sensitive names, any order). Row order is
    preserved. Row indices in errors are 0-based over data rows.
    """
    rows = _read_rows(path)
    positions = _header_positions(rows, FEATURE_NAMES + (LABEL_COLUMN,))
    records = tuple(
        _parse_row(i, raw, positions) for i, raw in enumerate(rows[1:])
    )
    return Dataset(records, source=str(path))


def load_unlabeled_csv(path) -> Dataset:
    """Load feature rows for inference.

    The header must contain exactly the eleven feature columns; the label
    column must be absent. Records carry a placeholder label 0, which no
    transform or prediction step reads.
    """
    rows = _read_rows(path)
    positions = _header_positions(rows, FEATURE_NAMES)
    records = tuple(
        RawRecord(_parse_features(i, raw, positions), 0)
        for i, raw in enumerate(rows[1:])
    )
    return Dataset(records, source=str(path))


def write_csv(data: Dataset, path) -> None:
    """Write a dataset in canonical column order.

    Numeric cells use the shortest decimal form that parses back to the
    identical double, so load_csv(write_csv(d)) reproduces d exactly.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(FEATURE_NAMES) + [LABEL_COLUMN])
        for record in data.records:
            writer.writerow(
                [_format_cell(v) for v in record.values] + [str(record.label)]
            )


def csv_table(header, rows) -> str:
    """Header line plus one line per row, cells joined by commas as given.

    Cells are already-formatted strings and are written without quoting, so
    each caller owns its cell formatting; the text ends with a newline.
    """
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def summarize(data: Dataset) -> SummaryReport:
    """Per-column statistics and label balance.

    Numeric stats (count/min/max/mean/population std) cover non-sentinel
    values only; the sentinel occurrences are reported as ``missing``.
    """
    if len(data) == 0:
        raise EmptyDataset("cannot summarize an empty dataset")
    numeric = {}
    categorical = {}
    for col, spec in enumerate(SCHEMA):
        column = [r.values[col] for r in data.records]
        if spec.kind is FeatureKind.NUMERIC:
            if spec.missing_sentinel is None:
                present = column
                missing = 0
            else:
                present = [v for v in column if v != spec.missing_sentinel]
                missing = len(column) - len(present)
            if present:
                mean = sum(present) / len(present)
                var = sum((v - mean) ** 2 for v in present) / len(present)
                numeric[spec.name] = NumericSummary(
                    count=len(present),
                    missing=missing,
                    minimum=min(present),
                    maximum=max(present),
                    mean=mean,
                    std=math.sqrt(var),
                )
            else:
                numeric[spec.name] = NumericSummary(len(present), missing, None, None, None, None)
        else:
            hist = {}
            for token in column:
                hist[token] = hist.get(token, 0) + 1
            categorical[spec.name] = dict(sorted(hist.items()))
    positives = sum(data.labels)
    return SummaryReport(
        n_records=len(data),
        numeric=numeric,
        categorical=categorical,
        positives=positives,
        negatives=len(data) - positives,
    )


def class_shuffles(labels, seed: int, key=None) -> tuple:
    """Each class's row indices, class 0 first, shuffled by one SplitMix64(seed).

    The shuffle stream runs through class 0 and then class 1. With a ``key``
    (row index -> sortable), each class is first put in (key, index) order,
    so the shuffle does not depend on the order rows arrive in.
    """
    labels = np.asarray(labels)
    gen = SplitMix64(seed)
    shuffled = []
    for label in (0, 1):
        indices = np.flatnonzero(labels == label).tolist()
        if key is not None:
            indices.sort(key=key)  # stable over ascending indices: ties keep index order
        gen.shuffle(indices)
        shuffled.append(indices)
    return tuple(shuffled)


def quota_indices(shuffled, fraction: float) -> list:
    """The first round_half_up(count * fraction) indices of each class."""
    chosen = []
    for indices in shuffled:
        chosen.extend(indices[: _round_half_up(len(indices) * fraction)])
    return chosen


def complement_split(n: int, chosen) -> tuple:
    """(the indices below n not chosen, the chosen indices), both sorted."""
    chosen = set(chosen)
    return tuple(i for i in range(n) if i not in chosen), tuple(sorted(chosen))


def stratified_split(data: Dataset, test_fraction: float, seed: int) -> SplitResult:
    """Class-proportional train/test split, reproducible from the seed.

    Each class contributes round(class_count * test_fraction) test rows,
    chosen by shuffling a content-canonical ordering of that class.
    """
    if not 0.0 < test_fraction < 1.0:
        raise FractionOutOfRange(f"test_fraction must be in (0, 1), got {test_fraction}")
    records = data.records
    shuffled = class_shuffles(data.labels, seed, key=lambda i: record_key(records[i]))
    if not shuffled[0] or not shuffled[1]:
        raise SingleClassDataset("both label classes required before splitting")
    train_indices, test_indices = complement_split(
        len(data), quota_indices(shuffled, test_fraction)
    )
    return SplitResult(
        train=data.subset(train_indices, source=f"{data.source}#train"),
        test=data.subset(test_indices, source=f"{data.source}#test"),
        train_indices=train_indices,
        test_indices=test_indices,
    )


def kfold(data: Dataset, k: int, seed: int) -> list:
    """Stratified k-fold assignment; returns k (train_indices, val_indices) pairs.

    Per-class shuffled indices are dealt round-robin across folds, each class
    continuing where the previous one stopped, so fold sizes differ by at
    most one and every fold sees both classes.
    """
    if k < 2:
        raise BadHyperparameter(f"k must be at least 2, got {k}")
    if k > len(data):
        raise KTooLarge(f"k={k} exceeds record count {len(data)}")
    shuffled = class_shuffles(data.labels, seed)
    if not shuffled[0] or not shuffled[1]:
        raise SingleClassDataset("both label classes required for folding")
    if min(len(shuffled[0]), len(shuffled[1])) < k:
        raise SingleClassDataset(
            f"smallest class has fewer than k={k} records; every fold needs both classes"
        )
    dealt = shuffled[0] + shuffled[1]
    return [complement_split(len(data), dealt[i::k]) for i in range(k)]


# Constants for the synthetic generator: per class (negative, positive) the
# numeric columns are Gaussian and the categorical columns are drawn from
# fixed token tables. Class centers sit 2-4 standard deviations apart so the
# two classes are cleanly learnable by every model family.
_SYNTH_NUMERIC = {
    # name: (mean_neg, mean_pos, std)
    "Age": (45.0, 60.0, 7.0),
    "RestingBP": (120.0, 142.0, 9.0),
    "Cholesterol": (198.0, 262.0, 22.0),
    "MaxHR": (162.0, 124.0, 11.0),
    "Oldpeak": (0.2, 1.9, 0.45),
}
_SYNTH_INDICATOR = {"FastingBS": (0.12, 0.5)}  # P(value = 1) per class
_SYNTH_CATEGORICAL = {
    # name: (tokens, probs_neg, probs_pos)
    "Sex": (("F", "M"), (0.55, 0.45), (0.25, 0.75)),
    "ChestPainType": (
        ("ASY", "ATA", "NAP", "TA"),
        (0.12, 0.42, 0.36, 0.10),
        (0.68, 0.08, 0.14, 0.10),
    ),
    "RestingECG": (("LVH", "Normal", "ST"), (0.14, 0.72, 0.14), (0.30, 0.40, 0.30)),
    "ExerciseAngina": (("N", "Y"), (0.90, 0.10), (0.30, 0.70)),
    "ST_Slope": (("Down", "Flat", "Up"), (0.05, 0.18, 0.77), (0.28, 0.60, 0.12)),
}


def _draw_token(gen: SplitMix64, tokens, probs) -> str:
    u = gen.uniform()
    cumulative = 0.0
    for token, p in zip(tokens, probs):
        cumulative += p
        if u < cumulative:
            return token
    return tokens[-1]


def synth_generate(n: int, positive_fraction: float, seed: int) -> Dataset:
    """Schema-conformant synthetic dataset with separable classes.

    Exactly round(n * positive_fraction) records are positive. A single
    SplitMix64 stream drives the label shuffle and all feature draws, so the
    output is a pure function of (n, positive_fraction, seed).
    """
    if n < 2:
        raise BadHyperparameter(f"need at least 2 records, got {n}")
    if not 0.0 < positive_fraction < 1.0:
        raise BadFraction(f"positive_fraction must be in (0, 1), got {positive_fraction}")
    gen = SplitMix64(seed)
    n_pos = _round_half_up(n * positive_fraction)
    labels = [1] * n_pos + [0] * (n - n_pos)
    gen.shuffle(labels)
    records = []
    for label in labels:
        values = []
        for spec in SCHEMA:
            name = spec.name
            if name in _SYNTH_NUMERIC:
                mean_neg, mean_pos, std = _SYNTH_NUMERIC[name]
                values.append(gen.normal(mean_pos if label else mean_neg, std))
            elif name in _SYNTH_INDICATOR:
                p_one = _SYNTH_INDICATOR[name][label]
                values.append(1.0 if gen.uniform() < p_one else 0.0)
            else:
                tokens, probs_neg, probs_pos = _SYNTH_CATEGORICAL[name]
                values.append(_draw_token(gen, tokens, probs_pos if label else probs_neg))
        records.append(RawRecord(tuple(values), label))
    return Dataset(tuple(records), source=f"synthetic(n={n},seed={seed})")
