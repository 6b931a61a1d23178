"""Feature transformations with strict fit-on-train / apply-everywhere rules.

Fitting learns, from the training partition only:

* a lexicographically sorted vocabulary per categorical column (label
  encoding maps token -> sorted position),
* an imputation table of per-column medians keyed by (Sex token, age
  decade), with whole-column medians as fallback,
* per-numeric-column mean and population standard deviation, computed on
  the imputed values.

Fit and transform read the dataset a column at a time and share one
imputation pass: a sentinel cell takes its cohort's median, or the global
median for a cohort the fit never saw. Transforming standardizes numeric
columns to (x - mean) / std (0 for a constant column, std = 0; a value that
overflows is an error) and encodes categories, unscaled, through a
token -> code table per column: the first unseen category in reading order
(row, then column) is reported.
"""

import enum
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from statistics import median

import numpy as np

from .dataset import (
    CATEGORICAL_FEATURES,
    FEATURE_NAMES,
    NUMERIC_FEATURES,
    Dataset,
    FeatureKind,
    SCHEMA,
    present_values,
)
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    KTooLarge,
    MinorityTooSmall,
    NonFiniteFeature,
    UnseenCategory,
)
from .rng import SplitMix64

_NUMERIC_COLUMNS = tuple(
    (col, spec) for col, spec in enumerate(SCHEMA) if spec.kind is FeatureKind.NUMERIC
)
_CATEGORICAL_COLUMNS = tuple((FEATURE_NAMES.index(name), name) for name in CATEGORICAL_FEATURES)
_AGE = FEATURE_NAMES.index("Age")
_SEX = FEATURE_NAMES.index("Sex")
# float64 scratch per block of the SMOTE neighbour search: a block of b rows
# holds two distance lanes of (b, m), the running total and the column being
# added, and np.partition's (b, m) copy. 2 MiB, about one L2 cache, so b
# shrinks as m grows; past about 87000 rows (2**18 / 3), where one row's
# three lanes exceed it, b stays 1
_NEIGHBOUR_FLOATS = 1 << 18
# a standardized numeric cell is an outlier when its |z| exceeds this
OUTLIER_Z = 3.0


class UnseenPolicy(enum.Enum):
    ERROR = "error"
    MAP_TO_MODE = "map_to_mode"


def feature_batch(X, n_features=None) -> np.ndarray:
    """X as the (n, d) float matrix every `predict_proba` takes; d must equal
    n_features when the model has a fixed width."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or (n_features is not None and X.shape[1] != n_features):
        width = "d" if n_features is None else n_features
        raise DimensionMismatch(f"expected an (n, {width}) feature matrix, got shape {X.shape}")
    return X


@dataclass(frozen=True)
class FeatureMatrix:
    values: np.ndarray
    labels: np.ndarray
    column_names: tuple

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-d matrix")
        if len(self.labels) != self.values.shape[0]:
            raise ValueError("labels length must match row count")
        if len(self.column_names) != self.values.shape[1]:
            raise ValueError("column_names length must match column count")
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise ValueError("matrix entries must be finite")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @cached_property
    def column_block(self) -> "ColumnBlock":
        """The root's ColumnBlock, read-only: each column stably sorted once,
        its `order` the (d, n) row positions in ascending (value, row) order,
        then shared by every tree fitted to this matrix."""
        order = np.ascontiguousarray(np.argsort(self.values, axis=0, kind="stable").T)
        block = ColumnBlock.of(order, np.take_along_axis(self.values.T, order, axis=1))
        for array in (order, block.sorted_values, block.cuts, block.thresholds):
            array.flags.writeable = False
        return block


@dataclass(frozen=True)
class ColumnBlock:
    """A node's m rows listed once per column in that column's (value, row)
    order, the column block of Chen & Guestrin (2016, section 4.1).

    Cut i of a column lies between its i-th and (i+1)-th sorted rows. `cuts`
    holds the flat positions, in the (d, m - 1) grid of all cuts, of those
    whose midpoint `thresholds` lies strictly above the left value and at
    most at the right one; that rules out every cut between equal values,
    and one whose midpoint collapses onto the left value.
    """
    order: np.ndarray          # (d, m) row positions
    sorted_values: np.ndarray  # (d, m) the values at those positions
    cuts: np.ndarray
    thresholds: np.ndarray

    @classmethod
    def of(cls, order: np.ndarray, sorted_values: np.ndarray) -> "ColumnBlock":
        lo, hi = sorted_values[:, :-1], sorted_values[:, 1:]
        with np.errstate(over="ignore"):  # an infinite midpoint is above hi
            mid = (lo + hi) / 2.0
        cuts = np.flatnonzero((lo < mid) & (mid <= hi))
        return cls(order, sorted_values, cuts, mid.ravel().take(cuts))


@dataclass(frozen=True)
class FittedPreprocessor:
    vocab: dict          # categorical feature -> sorted token tuple
    modes: dict          # categorical feature -> most frequent training token
    scale_stats: dict    # numeric feature -> (mean, population std)
    impute_table: dict   # (sex token, age decade) -> {numeric feature: median}
    global_medians: dict # numeric feature -> median over all training rows
    unseen_policy: UnseenPolicy


def _cohorts(columns: tuple, rows) -> list:
    """The (Sex token, age decade) imputation cohort of each of the rows."""
    sexes, ages = columns[_SEX], columns[_AGE]
    return [(sexes[row], int(math.floor(ages[row] / 10.0) * 10)) for row in rows]


def fit(train: Dataset, unseen_policy: UnseenPolicy = UnseenPolicy.ERROR) -> FittedPreprocessor:
    """Learn vocabularies, imputation medians, and scaling statistics."""
    if len(train) == 0:
        raise EmptyDataset("cannot fit a preprocessor on an empty dataset")
    columns = train.columns

    vocab = {}
    modes = {}
    for col, name in _CATEGORICAL_COLUMNS:
        counts = Counter(columns[col])
        vocab[name] = tuple(sorted(counts))
        modes[name] = min(counts, key=lambda t: (-counts[t], t))

    # each cohort's rows in row order, cohorts in order of first appearance
    cohort_rows = {}
    for row, cohort in enumerate(_cohorts(columns, range(len(train)))):
        cohort_rows.setdefault(cohort, []).append(row)

    # sentinel cells become missing before any median is taken
    global_medians = {}
    for col, spec in _NUMERIC_COLUMNS:
        values = present_values(columns[col], spec)
        global_medians[spec.name] = median(values) if values else 0.0
    impute_table = {}
    for cohort, rows in cohort_rows.items():
        impute_table[cohort] = medians = {}
        for col, spec in _NUMERIC_COLUMNS:
            values = present_values(map(columns[col].__getitem__, rows), spec)
            medians[spec.name] = median(values) if values else global_medians[spec.name]

    scale_stats = {}
    for name, column in _imputed_columns(columns, impute_table, global_medians).items():
        scale_stats[name] = (float(column.mean()), float(column.std()))
    return FittedPreprocessor(
        vocab=vocab,
        modes=modes,
        scale_stats=scale_stats,
        impute_table=impute_table,
        global_medians=global_medians,
        unseen_policy=unseen_policy,
    )


def _imputed_columns(columns: tuple, impute_table: dict, global_medians: dict) -> dict:
    """Numeric columns as float arrays, each sentinel cell replaced by its
    cohort's median (the global median for a cohort not in `impute_table`)."""
    imputed = {}
    for col, spec in _NUMERIC_COLUMNS:
        column = np.array(columns[col], dtype=float)
        if spec.missing_sentinel is not None:
            missing = np.flatnonzero(column == spec.missing_sentinel).tolist()
            for row, cohort in zip(missing, _cohorts(columns, missing)):
                column[row] = impute_table.get(cohort, global_medians)[spec.name]
        imputed[spec.name] = column
    return imputed


def transform(fp: FittedPreprocessor, data: Dataset) -> FeatureMatrix:
    """Encode, impute, and scale a dataset with previously fitted state."""
    columns = data.columns
    matrix = np.empty((len(data), len(SCHEMA)))
    unseen = []  # (row, column, name, token) of each column's first unseen token
    for col, name in _CATEGORICAL_COLUMNS:
        codes = {token: code for code, token in enumerate(fp.vocab[name])}
        encoded = list(map(codes.get, columns[col]))
        if None in encoded:
            if fp.unseen_policy is UnseenPolicy.ERROR:
                row = encoded.index(None)
                unseen.append((row, col, name, columns[col][row]))
                continue
            mode = codes[fp.modes[name]]
            encoded = [mode if code is None else code for code in encoded]
        matrix[:, col] = encoded
    if unseen:
        _, _, name, token = min(unseen)
        raise UnseenCategory(name, token)
    for name, column in _imputed_columns(columns, fp.impute_table, fp.global_medians).items():
        mean, std = fp.scale_stats[name]
        # a fitted std is 0 or at least sqrt(5e-324), so only a bundle's
        # stats can overflow on cells within CELL_LIMIT
        with np.errstate(over="ignore"):
            scaled = 0.0 if std == 0.0 else (column - mean) / std
        if not np.all(np.isfinite(scaled)):
            raise NonFiniteFeature(
                f"feature {name!r}: scaling by mean {mean!r} and std {std!r} overflows"
            )
        matrix[:, FEATURE_NAMES.index(name)] = scaled
    return FeatureMatrix(
        values=matrix,
        labels=np.array(data.labels, dtype=np.int64),
        column_names=FEATURE_NAMES,
    )


def flag_outliers(m: FeatureMatrix) -> int:
    """The number of standardized numeric cells with |value| > OUTLIER_Z.

    Counting is informational only; no row is ever dropped or altered.
    Encoded categorical columns are never counted.
    """
    numeric = [col for col, name in enumerate(m.column_names) if name in NUMERIC_FEATURES]
    return int(np.count_nonzero(np.abs(m.values[:, numeric]) > OUTLIER_Z))


def _squared_distances(block_columns: np.ndarray, columns: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from each block row to each row, (b, m).

    `block_columns` (d, b) and `columns` (d, m) hold the rows column by
    column, and `lanes` is (2, b, m) scratch; the result is lanes[0]. The
    columns' squared differences are added left to right, in schema order,
    so a pair's distance depends only on its two rows.
    """
    def square(j, lane):
        # row minus block row: x - y is exactly -(y - x) in IEEE
        # arithmetic, so the square is the same, and NumPy broadcasts this
        # form faster than block row minus row
        np.copyto(lane, columns[j])
        lane -= block_columns[j][:, None]
        return np.multiply(lane, lane, out=lane)

    total = square(0, lanes[0])
    for j in range(1, len(columns)):
        total += square(j, lanes[1])
    return total


def _nearest_neighbours(points: np.ndarray, k: int, n: int) -> np.ndarray:
    """Row positions of the k nearest other rows of each of the first n
    rows, shape (n, k).

    Each of those rows is ranked against all m rows. Distance is Euclidean
    over all columns, each squared distance summed left to right in schema
    order (`_squared_distances`); ties go to the lower row position. A row's
    neighbours depend only on its own distances, so they change neither
    with n nor with the block size. Distances are computed a block of rows
    at a time, as many rows as fit their two (block, m) lanes and partition
    copy in _NEIGHBOUR_FLOATS, so the search costs O(n * m * d) time and a
    fixed scratch budget. Only once a single row's three lanes exceed the
    budget, above about 87000 rows, does the one-row block's scratch of
    3 * m floats grow with m.
    """
    m = len(points)
    columns = np.ascontiguousarray(points.T)
    block = max(1, min(n, _NEIGHBOUR_FLOATS // (3 * m)))
    lanes = np.empty((2, block, m))
    neighbours = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, block):
        block_columns = columns[:, start:min(start + block, n)]
        b = block_columns.shape[1]
        distances = _squared_distances(block_columns, columns, lanes[:, :b])
        np.sqrt(distances, out=distances)
        # self sits at distance 0, so the k nearest others all lie at or
        # below each row's (k+1)-th smallest distance; copied out, so that
        # the partitioned (b, m) copy is freed before the next block
        cutoff = np.partition(distances, k, axis=1)[:, k].copy()
        rows, cols = np.nonzero(distances <= cutoff[:, None])
        others = cols != rows + start
        rows, cols = rows[others], cols[others]
        order = np.lexsort((cols, distances[rows, cols], rows))
        rows, cols = rows[order], cols[order]
        # every row keeps at least k candidates; take the first k of each
        first = np.searchsorted(rows, np.arange(b))
        neighbours[start:start + b] = cols[first[:, None] + np.arange(k)]
    return neighbours


def smote(m: FeatureMatrix, k: int, seed: int) -> FeatureMatrix:
    """Balance classes by interpolated synthetic minority rows.

    Each synthetic row is x + u * (nn - x) with x a minority row (cycled in
    row order), nn one of its k nearest minority neighbours, and u uniform
    in [0, 1); each row draws its neighbour slot, then its u, from one
    SplitMix64 stream. Neighbours are ranked by Euclidean distance over all
    columns, summed left to right in schema order, ties broken by row
    position. Only the q = min(needed, m) minority rows that synthetic rows
    start from are searched, each against all m minority rows: O(q * m * d)
    time in a fixed scratch budget, O(m) only past about 87000 minority
    rows, where one row's distances exceed it (see `_nearest_neighbours`).
    Original rows are preserved unchanged, in order, ahead of the synthetic
    block.
    """
    labels = m.labels
    counts = {0: int(np.sum(labels == 0)), 1: int(np.sum(labels == 1))}
    minority = 1 if counts[1] <= counts[0] else 0
    minority_count = counts[minority]
    majority_count = counts[1 - minority]
    if minority_count < 2:
        raise MinorityTooSmall(f"minority class has {minority_count} sample(s), need at least 2")
    if k < 1:
        raise KTooLarge("k must be at least 1")
    if k > minority_count - 1:
        raise KTooLarge(f"k={k} exceeds minority_count-1={minority_count - 1}")

    needed = majority_count - minority_count
    if needed == 0:
        return FeatureMatrix(m.values.copy(), m.labels.copy(), m.column_names)

    minority_rows = np.flatnonzero(labels == minority)
    points = m.values[minority_rows]
    neighbour_ids = _nearest_neighbours(points, k, min(needed, minority_count))

    gen = SplitMix64(seed)
    picks, u = zip(*[(gen.randint(k), gen.uniform()) for _ in range(needed)])
    sources = np.arange(needed) % minority_count
    nn = neighbour_ids[sources, np.array(picks)]
    synthetic = points[sources] + np.array(u)[:, None] * (points[nn] - points[sources])

    values = np.vstack([m.values, synthetic])
    new_labels = np.concatenate([labels, np.full(needed, minority, dtype=np.int64)])
    return FeatureMatrix(values=values, labels=new_labels, column_names=m.column_names)
