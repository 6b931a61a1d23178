"""Table schema, CSV ingestion, deterministic splits, and synthetic data.

The canonical table has eleven features plus a binary ``HeartDisease``
label. Two numeric columns (RestingBP, Cholesterol) use 0 as a missing-value
sentinel because a zero reading is physiologically impossible; FastingBS is
a 0/1 indicator, so 0 is a legitimate value there.

A `Dataset` holds the table a column at a time, from the CSV parser to the
feature matrix; build one from rows with ``Dataset(tuple(zip(*rows)), labels)``.
One rule per cell kind, `_first_bad`, decides which cells are valid: the CSV
parser applies it to each parsed column and words its error from where it
fails, and `Dataset` applies it to every other table it is given, so each
cell is checked once.
"""

import csv
import enum
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

import numpy as np

from .errors import (
    BadEncoding,
    BadHyperparameter,
    DuplicateHeader,
    EmptyDataset,
    EmptyFile,
    FractionOutOfRange,
    KTooLarge,
    MalformedCsv,
    MissingColumn,
    SchemaMismatch,
    SingleClassDataset,
    UnparsableCell,
)
from .rng import SplitMix64

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

# Largest numeric cell magnitude accepted: fitting sums n squared deviations of
# at most 2e100 each, which stays far below the float limit of 1.8e308.
CELL_LIMIT = 1e100


@dataclass(frozen=True)
class Dataset:
    """A labeled table a column at a time: `columns` holds one tuple of cells
    per `SCHEMA` feature, floats within ±CELL_LIMIT for a numeric one and
    non-empty strings for a categorical one, and `labels` one 0 or 1 per row.
    Every cell and label is checked when the dataset is made."""

    columns: tuple
    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(map(tuple, self.columns)))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.columns) != len(SCHEMA):
            raise SchemaMismatch(f"{len(self.columns)} columns, schema has {len(SCHEMA)}")
        for spec, column in zip(SCHEMA, self.columns):
            if len(column) != len(self.labels):
                raise SchemaMismatch(f"{spec.name}: {len(column)} cells, {len(self.labels)} labels")
            if _first_bad(spec.kind, column) < len(column):
                numeric = spec.kind is FeatureKind.NUMERIC
                want = f"a float in ±{CELL_LIMIT:g}" if numeric else "a non-empty token"
                raise SchemaMismatch(f"{spec.name}: every cell must be {want}")
        if _first_bad(LABEL_COLUMN, self.labels) < len(self.labels):
            raise SchemaMismatch("every label must be 0 or 1")

    @classmethod
    def _unchecked(cls, columns: tuple, labels: tuple) -> "Dataset":
        """The dataset of `columns` (a tuple of tuples) and `labels` (a tuple),
        built without `__post_init__`, for cells that already passed `_first_bad`."""
        data = object.__new__(cls)
        object.__setattr__(data, "columns", columns)
        object.__setattr__(data, "labels", labels)
        return data

    def __len__(self):
        return len(self.labels)

    def class_counts(self) -> tuple:
        return self.labels.count(0), self.labels.count(1)

    def subset(self, indices) -> "Dataset":
        """The rows at `indices`, in that order; built without `__post_init__`,
        since every cell and label was checked when this dataset was made."""
        indices = tuple(indices)
        # itemgetter of one index gives the cell itself, and of none fails
        pick = itemgetter(*indices) if len(indices) > 1 else lambda cells: tuple(
            cells[i] for i in indices
        )
        return Dataset._unchecked(tuple(map(pick, self.columns)), pick(self.labels))


def _first_bad(kind, cells) -> int:
    """Position of the first of `cells` that the rule of `kind` rejects, or
    len(cells) when it rejects none; `kind` is a FeatureKind, or LABEL_COLUMN
    for labels. A numeric cell must be a float (np.float64 too) within
    ±CELL_LIMIT, nan failing; a categorical cell a non-empty str; a label
    equal to 0 or 1."""
    if kind is FeatureKind.NUMERIC:
        if not all(issubclass(t, float) for t in set(map(type, cells))):
            cells = [cell if isinstance(cell, float) else math.nan for cell in cells]
        ok = np.abs(np.fromiter(cells, float, len(cells))) <= CELL_LIMIT  # false for nan
        return len(cells) if ok.all() else int(ok.argmin())
    if kind is FeatureKind.CATEGORICAL:
        if not all(issubclass(t, str) for t in set(map(type, cells))):
            cells = [cell if isinstance(cell, str) else "" for cell in cells]
        return len(cells) if all(cells) else cells.index("")
    ok = list(map((0, 1).__contains__, cells))  # by ==, so 1.0 and -0.0 pass
    return ok.index(False) if False in ok else len(ok)


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


def _number_texts(values) -> list:
    """The text write_csv writes for each number of `values`: with no
    fraction and magnitude below 1e16 an integer, and otherwise its repr,
    the shortest text that parses back to the same double. No two doubles
    share a text but -0.0 and 0.0, which both print as `0`."""
    return [str(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v) for v in values]


def _text_columns(data: Dataset) -> list:
    """Each feature column of `data` as the text write_csv writes, in schema
    order: a token as it is and a number as `_number_texts`. Each distinct
    number of a column is formatted once and its text gathered back by row
    (np.unique merges -0.0 with 0.0, which print alike)."""
    columns = list(data.columns)
    for col, spec in enumerate(SCHEMA):
        if spec.kind is FeatureKind.NUMERIC:
            cells = columns[col]
            values, inverse = np.unique(np.fromiter(cells, float, len(cells)), return_inverse=True)
            texts = np.array(_number_texts(values.tolist()), dtype=object)
            columns[col] = texts[inverse].tolist()
    return columns


def _content_keys(data: Dataset) -> list:
    """Each row's content key, in row order, used to make shuffles independent
    of input row order: the row's cells as write_csv writes them, then its
    label, joined by commas."""
    return list(map(",".join, zip(*_text_columns(data), map(str, data.labels))))


def _content_ranks(data: Dataset) -> list:
    """Each row's position, in row order, when the rows are sorted by
    (content key, row index), as `_content_keys` would sort them.

    A key is `A + "," + R`, with A the text of the first column, numeric,
    and R the rest. A numeric text holds no comma; inside it `+` and `-`
    come only first or right after `e`, and no text ends in `e`. So when
    one A is a proper prefix of another, the longer one goes on with a
    digit, `.` or `e`, all above `,`, and keys compare exactly as (A, R)
    pairs do, whatever the tokens in R hold. So rows are ranked by their A
    text first, each distinct value formatted once, and only rows whose
    first cell is shared build their full keys, to rank among themselves.
    """
    values, inverse, counts = np.unique(
        np.fromiter(data.columns[0], float, len(data)), return_inverse=True, return_counts=True
    )
    texts = _number_texts(values.tolist())
    lead = np.empty(len(texts), np.int64)
    lead[sorted(range(len(texts)), key=texts.__getitem__)] = np.arange(len(texts))
    tied = np.flatnonzero(counts[inverse] > 1)
    keys = _content_keys(data.subset(tied.tolist()))
    rest = np.zeros(len(data), np.int64)
    # a stable sort over ascending rows: equal keys keep row order
    rest[tied[sorted(range(len(keys)), key=keys.__getitem__)]] = np.arange(len(keys))
    ranks = np.empty(len(data), np.int64)
    ranks[np.lexsort((rest, lead[inverse]))] = np.arange(len(data))
    return ranks.tolist()


def _to_float(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        return math.nan  # which _first_bad rejects as a number and as a label


def _floats(tokens: list) -> list:
    try:
        return list(map(float, tokens))
    except ValueError:
        return list(map(_to_float, tokens))


# each header name's cell kind, in the order a row's cells are checked
_COLUMN_KINDS = {**{spec.name: spec.kind for spec in SCHEMA}, LABEL_COLUMN: LABEL_COLUMN}


def _parse_records(body, positions) -> Dataset:
    """The dataset of the data rows `body`, parsed and checked a column at a time.

    Each column's cells are stripped, parsed (an unparsable number becomes
    nan) and checked once by `_first_bad`. The error is the earliest row
    where any column fails, or the first row of another length than the
    header if that comes first: a longer row is a SchemaMismatch, and a
    shorter one is padded with empty cells, which fail, so a missing cell is
    an UnparsableCell reading `<missing cell>`. Within the failing row the
    error names the first failing column in `positions` order. `positions`
    maps each header name to its column, schema order first, then the label
    when the file has one; the label is 0 otherwise.
    """
    width = len(positions)
    # no row after the first ragged one can be the first bad row
    fits = list(map(width.__eq__, map(len, body)))
    end = fits.index(False) if False in fits else len(fits)
    rows = body[:end]
    if end < len(body) and len(body[end]) < width:
        rows.append(body[end] + [""] * (width - len(body[end])))
    columns = list(zip(*rows)) or [()] * width
    parsed, first_bad = {}, {}
    for name, pos in positions.items():
        kind = _COLUMN_KINDS[name]
        tokens = list(map(str.strip, columns[pos]))
        parsed[name] = tokens if kind is FeatureKind.CATEGORICAL else _floats(tokens)
        first_bad[name] = _first_bad(kind, parsed[name])
    del columns  # the transposed rows are not held while the dataset is built
    row = min(first_bad.values())
    if row < len(rows):
        name = next(name for name, bad in first_bad.items() if bad == row)
        cells = body[row]
        pos = positions[name]
        raise UnparsableCell(row, name, cells[pos].strip() if pos < len(cells) else "<missing cell>")
    if end < len(body):
        raise SchemaMismatch(f"row {end} has {len(body[end])} cells but the header has {width}")
    labels = map(int, parsed.pop(LABEL_COLUMN, [0] * end))
    return Dataset._unchecked(tuple(map(tuple, parsed.values())), tuple(labels))


def _read_rows(path):
    # utf-8-sig drops a leading byte-order mark, so the first header name stays clean
    rows = []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            for row in csv.reader(fh):
                if any(map(str.strip, row)):
                    rows.append(row)
    except UnicodeDecodeError as exc:
        raise BadEncoding(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        # e.g. a cell longer than csv.field_size_limit(); the failing row is
        # the one after the last kept, numbered as load_csv numbers data rows
        where = f"row {len(rows) - 1}" if rows else "header"
        raise MalformedCsv(f"{path}: {where}: {exc}") from None
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
    return _parse_records(rows[1:], positions)


def load_unlabeled_csv(path) -> Dataset:
    """Load feature rows for inference.

    The header must contain exactly the eleven feature columns; the label
    column must be absent. Every row carries a placeholder label 0, which no
    transform or prediction step reads.
    """
    rows = _read_rows(path)
    positions = _header_positions(rows, FEATURE_NAMES)
    return _parse_records(rows[1:], positions)


def write_csv(data: Dataset, path) -> None:
    """Write a dataset in canonical column order.

    Numeric cells use the split's content-key text (`_text_columns`), which
    parses back to the identical double with one exception: -0.0 is written
    as `0`. So load_csv(write_csv(d)) equals d, with +0.0 where d held -0.0.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(FEATURE_NAMES) + [LABEL_COLUMN])
        writer.writerows(zip(*_text_columns(data), map(str, data.labels)))


def summarize(data: Dataset) -> SummaryReport:
    """Per-column statistics and label balance.

    Numeric stats (count/min/max/mean/population std) cover non-sentinel
    values only; the sentinel occurrences are reported as ``missing``.
    The mean and std are NumPy's (pairwise sums), as `preprocess.fit` takes
    them; min and max are the builtins, which keep the first of equal
    values, so a column's signs of zero come through unchanged.
    """
    if len(data) == 0:
        raise EmptyDataset("cannot summarize an empty dataset")
    numeric = {}
    categorical = {}
    for spec, column in zip(SCHEMA, data.columns):
        if spec.kind is FeatureKind.NUMERIC:
            present = np.fromiter(column, float, len(column))
            if spec.missing_sentinel is not None:
                present = present[present != spec.missing_sentinel]
            missing = len(column) - len(present)
            if len(present):
                cells = present.tolist()
                numeric[spec.name] = NumericSummary(
                    count=len(cells),
                    missing=missing,
                    minimum=min(cells),
                    maximum=max(cells),
                    mean=float(present.mean()),
                    std=float(present.std()),
                )
            else:
                numeric[spec.name] = NumericSummary(len(present), missing, None, None, None, None)
        else:
            categorical[spec.name] = dict(sorted(Counter(column).items()))
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
    rest = np.ones(n, dtype=bool)
    rest[list(chosen)] = False
    return tuple(np.flatnonzero(rest).tolist()), tuple(np.flatnonzero(~rest).tolist())


def stratified_split(data: Dataset, test_fraction: float, seed: int) -> SplitResult:
    """Class-proportional train/test split, reproducible from the seed.

    Each class contributes round(class_count * test_fraction) test rows,
    chosen by shuffling that class in (content key, row index) order, so
    row order in the input never changes the partition. The order comes
    from `_content_ranks`, which sorts by the first cell's text, Age, and
    builds full keys only for rows whose Age is shared; it equals the
    order of the joined `_content_keys`.
    """
    if not 0.0 < test_fraction < 1.0:
        raise FractionOutOfRange(f"test_fraction must be in (0, 1), got {test_fraction}")
    ranks = _content_ranks(data)
    shuffled = class_shuffles(data.labels, seed, key=ranks.__getitem__)
    if not shuffled[0] or not shuffled[1]:
        raise SingleClassDataset("both label classes required before splitting")
    train_indices, test_indices = complement_split(
        len(data), quota_indices(shuffled, test_fraction)
    )
    return SplitResult(
        train=data.subset(train_indices),
        test=data.subset(test_indices),
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

    Exactly round(n * positive_fraction) rows are positive. A single
    SplitMix64 stream drives the label shuffle and all feature draws, so the
    output is a pure function of (n, positive_fraction, seed).
    """
    if n < 2:
        raise BadHyperparameter(f"need at least 2 records, got {n}")
    if not 0.0 < positive_fraction < 1.0:
        raise FractionOutOfRange(f"positive_fraction must be in (0, 1), got {positive_fraction}")
    gen = SplitMix64(seed)
    n_pos = _round_half_up(n * positive_fraction)
    labels = [1] * n_pos + [0] * (n - n_pos)
    gen.shuffle(labels)
    columns = [[] for _ in SCHEMA]
    for label in labels:  # row by row, each row's features in schema order
        for name, column in zip(FEATURE_NAMES, columns):
            if name in _SYNTH_NUMERIC:
                mean_neg, mean_pos, std = _SYNTH_NUMERIC[name]
                column.append(gen.normal(mean_pos if label else mean_neg, std))
            elif name in _SYNTH_INDICATOR:
                p_one = _SYNTH_INDICATOR[name][label]
                column.append(1.0 if gen.uniform() < p_one else 0.0)
            else:
                tokens, probs_neg, probs_pos = _SYNTH_CATEGORICAL[name]
                column.append(_draw_token(gen, tokens, probs_pos if label else probs_neg))
    return Dataset(columns, labels)
