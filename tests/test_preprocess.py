"""Encoding, imputation, scaling, outlier flagging, and oversampling."""

import hashlib
import math
import statistics
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import make_dataset, matrix, spread_dataset
from cardiolearn.dataset import (
    FEATURE_NAMES,
    SCHEMA,
    Dataset,
    FeatureKind,
    stratified_split,
    synth_generate,
)
from cardiolearn.errors import (
    EmptyDataset,
    KTooLarge,
    MinorityTooSmall,
    UnscalableFeature,
    UnseenCategory,
)
from cardiolearn import preprocess
from cardiolearn.preprocess import (
    FeatureMatrix,
    FittedPreprocessor,
    UnseenPolicy,
    _nearest_neighbours,
    _squared_distances,
    fit,
    flag_outliers,
    smote,
    transform,
)
from cardiolearn.persistence import bundle_text, serialize_preprocessor
from cardiolearn.rng import SplitMix64

AGE = FEATURE_NAMES.index("Age")
SEX = FEATURE_NAMES.index("Sex")
CHOL = FEATURE_NAMES.index("Cholesterol")
OLDPEAK = FEATURE_NAMES.index("Oldpeak")


class TestFitVocabulary:
    def test_vocab_sorted_lexicographically(self):
        data = make_dataset([({"Sex": "M"}, 0), ({"Sex": "F"}, 1), ({"Sex": "M"}, 1)])
        fp = fit(data)
        assert fp.vocab["Sex"] == ("F", "M")

    def test_encoding_uses_vocab_rank(self):
        data = make_dataset([({"Sex": "M"}, 0), ({"Sex": "F"}, 1)])
        fp = fit(data)
        m = transform(fp, data)
        assert m.values[0, SEX] == 1.0  # M
        assert m.values[1, SEX] == 0.0  # F

    def test_mode_is_most_frequent_with_lexicographic_tie_break(self):
        data = make_dataset([
            ({"ChestPainType": "NAP"}, 0),
            ({"ChestPainType": "ATA"}, 1),
            ({"ChestPainType": "NAP"}, 1),
        ])
        assert fit(data).modes["ChestPainType"] == "NAP"
        tied = make_dataset([({"ChestPainType": "NAP"}, 0), ({"ChestPainType": "ATA"}, 1)])
        assert fit(tied).modes["ChestPainType"] == "ATA"

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataset):
            fit(make_dataset([]))


class TestImputation:
    def test_cohort_median_replaces_sentinel(self):
        # cohort (M, 50): cholesterol values 200 and 250, median 225
        data = make_dataset([
            ({"Age": 52, "Sex": "M", "Cholesterol": 200}, 0),
            ({"Age": 55, "Sex": "M", "Cholesterol": 0}, 1),
            ({"Age": 58, "Sex": "M", "Cholesterol": 250}, 1),
        ])
        fp = fit(data)
        assert fp.impute_table[("M", 50)]["Cholesterol"] == pytest.approx(225.0)
        m = transform(fp, data)
        mean, std = fp.scale_stats["Cholesterol"]
        assert m.values[1, CHOL] == pytest.approx((225.0 - mean) / std)

    def test_even_count_median_averages_central_pair(self):
        data = make_dataset([
            ({"Age": 51, "Cholesterol": 100}, 0),
            ({"Age": 52, "Cholesterol": 200}, 1),
            ({"Age": 53, "Cholesterol": 300}, 0),
            ({"Age": 54, "Cholesterol": 400}, 1),
        ])
        assert fit(data).impute_table[("M", 50)]["Cholesterol"] == pytest.approx(250.0)

    def test_cohort_with_no_observed_values_falls_back_to_global(self):
        data = make_dataset([
            ({"Age": 45, "Cholesterol": 210}, 0),
            ({"Age": 47, "Cholesterol": 230}, 1),
            ({"Age": 62, "Cholesterol": 0}, 1),  # cohort (M, 60) never observes Cholesterol
            ({"Age": 64, "Cholesterol": 0}, 0),
        ])
        fp = fit(data)
        assert fp.global_medians["Cholesterol"] == pytest.approx(220.0)
        assert fp.impute_table[("M", 60)]["Cholesterol"] == pytest.approx(220.0)

    def test_unseen_cohort_at_transform_uses_global_median(self):
        train = make_dataset([
            ({"Age": 45, "Cholesterol": 210}, 0),
            ({"Age": 47, "Cholesterol": 230}, 1),
        ])
        fp = fit(train)
        probe = make_dataset([({"Age": 75, "Cholesterol": 0}, 0)])
        m = transform(fp, probe)
        mean, std = fp.scale_stats["Cholesterol"]
        assert m.values[0, CHOL] == pytest.approx((220.0 - mean) / std)

    def test_non_sentinel_values_never_imputed(self):
        data = make_dataset([
            ({"Age": 50, "Cholesterol": 100}, 0),
            ({"Age": 51, "Cholesterol": 300}, 1),
        ])
        fp = fit(data)
        m = transform(fp, data)
        mean, std = fp.scale_stats["Cholesterol"]
        assert m.values[0, CHOL] == pytest.approx((100.0 - mean) / std)
        assert m.values[1, CHOL] == pytest.approx((300.0 - mean) / std)

    def test_sentinels_excluded_from_scale_stats_inputs(self):
        # after imputation the Cholesterol column is (200, 225, 250), not (200, 0, 250)
        data = make_dataset([
            ({"Age": 52, "Cholesterol": 200}, 0),
            ({"Age": 55, "Cholesterol": 0}, 1),
            ({"Age": 58, "Cholesterol": 250}, 1),
        ])
        mean, std = fit(data).scale_stats["Cholesterol"]
        assert mean == pytest.approx((200 + 225 + 250) / 3.0)
        assert std == pytest.approx(math.sqrt(((200 - 225) ** 2 + 0 + (250 - 225) ** 2) / 3.0))


def present_values(values, spec) -> list:
    """The values that are not the spec's missing sentinel, in order."""
    if spec.missing_sentinel is None:
        return list(values)
    return list(filter(spec.missing_sentinel.__ne__, values))


def _reference_fit(train, unseen_policy=UnseenPolicy.ERROR) -> FittedPreprocessor:
    """`fit` as it was before its medians moved to NumPy: cohorts gathered
    row by row, each median statistics.median of a Python list."""
    columns = train.columns
    vocab, modes = {}, {}
    for col, name in preprocess._CATEGORICAL_COLUMNS:
        counts = Counter(columns[col])
        vocab[name] = tuple(sorted(counts))
        modes[name] = min(counts, key=lambda t: (-counts[t], t))
    cohort_rows = {}
    for row, cohort in enumerate(preprocess._cohorts(columns, range(len(train)))):
        cohort_rows.setdefault(cohort, []).append(row)
    global_medians = {}
    for col, spec in preprocess._NUMERIC_COLUMNS:
        values = present_values(columns[col], spec)
        global_medians[spec.name] = statistics.median(values) if values else 0.0
    impute_table = {}
    for cohort, rows in cohort_rows.items():
        impute_table[cohort] = medians = {}
        for col, spec in preprocess._NUMERIC_COLUMNS:
            values = present_values(map(columns[col].__getitem__, rows), spec)
            medians[spec.name] = (
                statistics.median(values) if values else global_medians[spec.name]
            )
    scale_stats = {
        name: (float(column.mean()), float(column.std()))
        for name, column in preprocess._imputed_columns(
            columns, impute_table, global_medians
        ).items()
    }
    return FittedPreprocessor(vocab, modes, scale_stats, impute_table, global_medians,
                              unseen_policy)


class TestFitMatchesReference:
    """`fit` against `_reference_fit`: equal fields, the same repr (which
    tells -0.0 from 0.0 and shows the cohorts' order) and the same bundle
    bytes."""

    @staticmethod
    def _assert_same_fit(data):
        fp, want = fit(data), _reference_fit(data)
        assert fp == want
        assert repr(fp) == repr(want)
        assert bundle_text(serialize_preprocessor(fp)) == bundle_text(serialize_preprocessor(want))

    _AGES = (38.0, 45.5, 49.0, 50.0, 59.9, 60.0, 71.0, -0.0, 0.0, -5.0, 1e100, -1e100, 5e-324)

    def test_random_tables(self):
        """A fixed SplitMix64 sample of tables with few Sex tokens and Age
        decades, so cohorts repeat; sentinel cells are common, so some
        cohorts and sometimes a whole column hold only sentinels."""
        rng = SplitMix64(36)
        for _ in range(150):
            n = 1 + rng.randint(30)
            ages = self._AGES[rng.randint(len(self._AGES)):]
            columns = []
            for spec in SCHEMA:
                if spec.name == "Age":
                    column = [ages[rng.randint(len(ages))] for _ in range(n)]
                elif spec.kind is FeatureKind.CATEGORICAL:
                    column = [("F", "M", "X")[rng.randint(2 + (spec.name != "Sex"))]
                              for _ in range(n)]
                else:
                    cells = (0.0, 0.0, -0.0, 1.0, 2.5, 3.0, 120.0, -7.25)
                    column = [cells[rng.randint(len(cells))] for _ in range(n)]
                columns.append(column)
            self._assert_same_fit(Dataset(columns, [rng.randint(2) for _ in range(n)]))

    def test_sentinel_only_cohorts_and_column(self):
        self._assert_same_fit(make_dataset([
            ({"Age": 45, "Cholesterol": 0, "RestingBP": 0}, 0),
            ({"Age": 47, "Cholesterol": 0, "RestingBP": 0}, 1),
            ({"Age": 63, "Cholesterol": 0, "RestingBP": 0}, 1),
            ({"Age": 64, "Sex": "F", "Cholesterol": 230, "RestingBP": 0}, 0),
        ]))

    def test_signed_zero_middles_in_both_row_orders(self):
        signs = set()
        for cells in [(0.0, -0.0, 1.0), (-0.0, 0.0, 1.0), (0.0, -0.0), (-0.0, 0.0),
                      (-0.0, -0.0), (-0.0, 0.0, -0.0, 0.0, 1.0), (0.0, -0.0, -0.0, 1.0)]:
            data = make_dataset([({"Age": 50, "FastingBS": cell}, i % 2)
                                 for i, cell in enumerate(cells)])
            self._assert_same_fit(data)
            signs.add(math.copysign(1.0, fit(data).impute_table[("M", 50)]["FastingBS"]))
        assert signs == {-1.0, 1.0}

    def test_decade_of_a_huge_age_is_exact(self):
        # the decade is the int floor(age / 10) times 10; multiplying the
        # float floor by 10.0 instead would round 1e99 * 10 to 1e100
        decade = int(math.floor(1e100 / 10.0)) * 10
        assert decade != int(math.floor(1e100 / 10.0) * 10.0)
        data = make_dataset([({"Age": 1e100}, 0), ({"Age": -1e100}, 1), ({"Age": 99.9}, 1)])
        assert list(fit(data).impute_table) == [("M", decade), ("M", -decade), ("M", 90)]
        self._assert_same_fit(data)


class TestScaling:
    def test_population_std_and_scaled_values(self):
        data = make_dataset([({"Oldpeak": 1}, 0), ({"Oldpeak": 2}, 1), ({"Oldpeak": 3}, 1)])
        fp = fit(data)
        mean, std = fp.scale_stats["Oldpeak"]
        assert mean == pytest.approx(2.0, abs=1e-12)
        assert std == pytest.approx(0.81650, abs=1e-5)
        m = transform(fp, data)
        expected = [-1.22474, 0.0, 1.22474]
        for row, want in enumerate(expected):
            assert m.values[row, OLDPEAK] == pytest.approx(want, abs=1e-5)

    def test_scaled_column_has_zero_mean_unit_std(self):
        data = spread_dataset(n_neg=9, n_pos=7)
        fp = fit(data)
        m = transform(fp, data)
        col = m.values[:, AGE]
        assert abs(col.mean()) < 1e-9
        assert abs(col.std() - 1.0) < 1e-9

    def test_constant_column_maps_to_zero(self):
        data = make_dataset([({"Oldpeak": 5}, 0), ({"Oldpeak": 5}, 1)])
        fp = fit(data)
        assert fp.scale_stats["Oldpeak"][1] == 0.0
        probe = make_dataset([({"Oldpeak": 5}, 0), ({"Oldpeak": 7}, 1)])
        m = transform(fp, probe)
        assert m.values[0, OLDPEAK] == 0.0
        assert m.values[1, OLDPEAK] == 0.0

    def test_cells_that_differ_with_a_std_of_zero_are_an_error(self):
        # the squared deviations of 0, 5e-324 and 1e-323 from their mean
        # underflow to 0, so scaling would write 0 for every cell
        data = make_dataset([({"Oldpeak": (0.0, 5e-324, 1e-323)[i % 3]}, i % 2)
                             for i in range(40)])
        with pytest.raises(UnscalableFeature, match="'Oldpeak'") as info:
            fit(data)
        assert info.value.code == "E_DATA"

    def test_categorical_codes_not_scaled(self):
        data = make_dataset([({"Sex": "M"}, 0), ({"Sex": "F"}, 1), ({"Sex": "M"}, 1)])
        m = transform(fit(data), data)
        assert sorted(set(m.values[:, SEX])) == [0.0, 1.0]


class TestTransform:
    def test_matrix_shape_and_labels(self):
        data = spread_dataset(n_neg=3, n_pos=2)
        m = transform(fit(data), data)
        assert m.values.shape == (5, 11)
        assert m.column_names == FEATURE_NAMES
        assert m.labels.tolist() == [0, 0, 0, 1, 1]

    def test_deterministic_replay(self):
        data = spread_dataset(n_neg=6, n_pos=5)
        fp = fit(data)
        a = transform(fp, data)
        b = transform(fp, data)
        assert np.array_equal(a.values, b.values)

    def test_unseen_category_error_policy(self):
        train = make_dataset([({"ST_Slope": "Up"}, 0), ({"ST_Slope": "Flat"}, 1)])
        fp = fit(train)
        probe = make_dataset([({"ST_Slope": "Down"}, 0)])
        with pytest.raises(UnseenCategory, match="ST_Slope"):
            transform(fp, probe)

    def test_first_unseen_cell_in_reading_order_is_reported(self):
        # row 0's ST_Slope comes before row 1's Sex, though Sex is the earlier column
        train = make_dataset([({"ST_Slope": "Up"}, 0), ({"ST_Slope": "Flat"}, 1)])
        probe = make_dataset([({"ST_Slope": "Down"}, 0), ({"Sex": "X"}, 1)])
        with pytest.raises(UnseenCategory) as caught:
            transform(fit(train), probe)
        assert (caught.value.feature, caught.value.token) == ("ST_Slope", "Down")

    def test_unseen_category_mode_policy(self):
        train = make_dataset([
            ({"ST_Slope": "Up"}, 0),
            ({"ST_Slope": "Up"}, 1),
            ({"ST_Slope": "Flat"}, 1),
        ])
        fp = fit(train, unseen_policy=UnseenPolicy.MAP_TO_MODE)
        probe = make_dataset([({"ST_Slope": "Down"}, 0)])
        m = transform(fp, probe)
        slope = FEATURE_NAMES.index("ST_Slope")
        assert m.values[0, slope] == fp.vocab["ST_Slope"].index("Up")

    def test_fit_state_ignores_other_partitions(self):
        data = spread_dataset(n_neg=10, n_pos=8)
        split = stratified_split(data, 0.25, seed=3)
        fp = fit(split.train)
        fp_again = fit(split.train)
        assert serialize_preprocessor(fp) == serialize_preprocessor(fp_again)
        # statistics must come from the training partition alone
        full_fp = fit(data)
        assert serialize_preprocessor(fp) != serialize_preprocessor(full_fp)


class TestFlagOutliers:
    def test_threshold_is_strict(self):
        m = matrix([[4.1], [-2.9], [3.0]], [0, 1, 0], names=("Age",))
        assert flag_outliers(m) == 1

    def test_all_zero_column_has_no_outliers(self):
        m = matrix([[0.0], [0.0], [0.0]], [0, 1, 0], names=("Age",))
        assert flag_outliers(m) == 0

    def test_categorical_columns_never_flagged(self):
        m = matrix([[9.0, 9.0]], [1], names=("Sex", "Age"))
        assert flag_outliers(m) == 1

    def test_rows_never_dropped(self):
        data = spread_dataset(n_neg=5, n_pos=5)
        m = transform(fit(data), data)
        before = m.values.copy()
        flag_outliers(m)
        assert np.array_equal(m.values, before)
        assert m.n_rows == 10


class TestSmote:
    def test_two_point_interpolation_lies_on_segment(self):
        m = matrix(
            [[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [6.0, 5.0], [7.0, 5.0]],
            [1, 1, 0, 0, 0],
        )
        out = smote(m, k=1, seed=9)
        assert out.n_rows == 6
        synth = out.values[5]
        # x + u(nn - x) with u in [0, 1): both coordinates equal, in [0, 1)
        assert synth[0] == pytest.approx(synth[1])
        assert 0.0 <= synth[0] < 1.0

    def test_balances_90_30_to_90_90(self):
        gen = np.random.default_rng(4)
        values = np.vstack([gen.normal(0, 1, (90, 3)), gen.normal(3, 1, (30, 3))])
        labels = np.array([0] * 90 + [1] * 30)
        out = smote(matrix(values, labels), k=5, seed=2)
        assert int(np.sum(out.labels == 0)) == 90
        assert int(np.sum(out.labels == 1)) == 90
        assert out.n_rows == 180

    def test_originals_preserved_in_order(self):
        gen = np.random.default_rng(8)
        values = gen.normal(0, 1, (12, 2))
        labels = np.array([0] * 8 + [1] * 4)
        m = matrix(values, labels)
        out = smote(m, k=2, seed=5)
        assert np.array_equal(out.values[:12], m.values)
        assert out.labels[:12].tolist() == labels.tolist()

    def test_balanced_input_returned_as_copy(self):
        m = matrix([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
        out = smote(m, k=1, seed=0)
        assert out.n_rows == 4
        assert np.array_equal(out.values, m.values)
        out.values[0, 0] = 99.0
        assert m.values[0, 0] == 0.0

    def test_minority_is_class_one_on_ties_and_when_smaller(self):
        values = np.arange(10, dtype=float).reshape(-1, 1)
        labels = np.array([0] * 6 + [1] * 4)
        out = smote(matrix(values, labels), k=3, seed=1)
        assert out.labels[10:].tolist() == [1, 1]

    def test_majority_class_zero_can_be_oversampled(self):
        values = np.arange(9, dtype=float).reshape(-1, 1)
        labels = np.array([0] * 3 + [1] * 6)
        out = smote(matrix(values, labels), k=2, seed=1)
        assert out.labels[9:].tolist() == [0, 0, 0]

    def test_synthetic_rows_between_source_and_some_neighbour(self):
        gen = np.random.default_rng(3)
        values = np.vstack([gen.normal(0, 1, (20, 4)), gen.normal(4, 1, (8, 4))])
        labels = np.array([0] * 20 + [1] * 8)
        m = matrix(values, labels)
        k = 3
        out = smote(m, k=k, seed=11)
        minority = values[20:]
        # independent neighbour recomputation with the same tie rule
        def knn(i):
            dists = [
                (float(np.linalg.norm(minority[i] - minority[j])), j)
                for j in range(len(minority)) if j != i
            ]
            return [j for _, j in sorted(dists)[:k]]
        eps = 1e-12
        for s, row in enumerate(out.values[28:]):
            x = minority[s % 8]
            candidates = knn(s % 8)
            ok = False
            for j in candidates:
                nn = minority[j]
                low = np.minimum(x, nn) - eps
                high = np.maximum(x, nn) + eps
                if np.all(row >= low) and np.all(row <= high):
                    ok = True
                    break
            assert ok, f"synthetic row {s} outside every candidate segment"

    def test_deterministic(self):
        gen = np.random.default_rng(12)
        values = gen.normal(0, 1, (15, 3))
        labels = np.array([0] * 10 + [1] * 5)
        m = matrix(values, labels)
        a = smote(m, k=3, seed=77)
        b = smote(m, k=3, seed=77)
        assert np.array_equal(a.values, b.values)
        c = smote(m, k=3, seed=78)
        assert not np.array_equal(a.values, c.values)

    def test_minority_too_small(self):
        m = matrix([[0.0], [1.0], [2.0]], [0, 0, 1])
        with pytest.raises(MinorityTooSmall):
            smote(m, k=1, seed=0)

    def test_k_bounds(self):
        m = matrix([[0.0], [1.0], [2.0], [3.0], [4.0]], [0, 0, 0, 1, 1])
        with pytest.raises(KTooLarge):
            smote(m, k=2, seed=0)  # minority_count-1 == 1
        with pytest.raises(KTooLarge):
            smote(m, k=0, seed=0)


def _sha256(array, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def _brute_force_neighbours(points, k):
    ids = []
    for i, x in enumerate(points):
        ranked = sorted(
            (math.sqrt(float(np.sum((x - y) * (x - y)))), j)
            for j, y in enumerate(points) if j != i
        )
        ids.append([j for _, j in ranked[:k]])
    return np.array(ids, dtype=np.int64)


def _integer_grid(seed, m, d, levels=3):
    return np.random.default_rng(seed).integers(0, levels, (m, d)).astype(np.float64)


def _duplicates_below(k, m=100, row=90):
    # k + 2 identical rows at positions 0..k+1, and row `row` identical to them
    points = _integer_grid(5, m, 3, levels=6) + 10.0
    points[: k + 2] = 0.0
    points[row] = 0.0
    return points


_TIE_CASES = [
    (_integer_grid(1, 150, 3), 4),
    (_integer_grid(2, 200, 11, levels=2), 12),
    (_integer_grid(3, 70, 1), 5),
    (_integer_grid(4, 130, 1, levels=4), 1),
    (_integer_grid(6, 20, 2), 19),
    (_integer_grid(7, 66, 1, levels=2), 65),
    (np.random.default_rng(8).normal(0.0, 1.0, (140, 7)), 6),
    (_duplicates_below(4), 4),
    (_duplicates_below(12, m=130, row=129), 12),
]
_TIE_CASE_IDS = [
    "grid-3d", "grid-11d-k12", "d1", "d1-k1", "k-m-minus-1", "d1-k-m-minus-1",
    "gaussian", "duplicates-below", "duplicates-below-last-row",
]


class TestNearestNeighbours:
    # little-endian bytes as produced by a full m x m x d distance search
    # ranked with a per-row sorted((distance, j)); the blocked search must
    # reproduce them exactly
    GOLDEN_NEIGHBOURS_SHA256 = "243cf63ff3afc5d16976262b170d5883c5c25558b7f57b22b11effc9d84bfa65"
    GOLDEN_SYNTHETIC_SHA256 = "5e45161415a28adf8e20708f14dba678a9e03c906d9332fe9ef973022685d813"
    # 6000 rows: the smallest relative gap between consecutive nearest
    # distances of a minority row is 1.1e-6 here, ten times below 400 rows'
    GOLDEN_6000_NEIGHBOURS_SHA256 = "ae5b26aec45087b4a7ad23e3001befb1c8bd1022070a52fbc85affecb2592d8a"
    GOLDEN_6000_SYNTHETIC_SHA256 = "54c4a85bb07675c4d7fb49ee270962fe0cc78373f027e2f492c979fd6d37d2f8"

    @pytest.mark.parametrize("generate, shape, leading, n_rows, digests", [
        ((400, 0.3, 7), (120, 11),
         [[34, 18, 89, 35, 16], [28, 57, 68, 56, 64], [19, 115, 94, 49, 42]], 560,
         (GOLDEN_NEIGHBOURS_SHA256, GOLDEN_SYNTHETIC_SHA256)),
        ((6000, 0.45, 3), (2700, 11),
         [[1316, 2009, 587, 135, 1466], [495, 1375, 2447, 1254, 209],
          [387, 1235, 1843, 1683, 1873]], 6600,
         (GOLDEN_6000_NEIGHBOURS_SHA256, GOLDEN_6000_SYNTHETIC_SHA256)),
    ], ids=["400-rows", "6000-rows"])
    def test_golden_neighbours_and_synthetic_rows(self, generate, shape, leading, n_rows, digests):
        n, positive_fraction, seed = generate
        data = synth_generate(n, positive_fraction, seed=seed)
        m = transform(fit(data), data)
        points = m.values[m.labels == 1]
        assert points.shape == shape
        neighbours = _nearest_neighbours(points, 5, len(points))
        assert neighbours[:3].tolist() == leading
        assert _sha256(neighbours, "<i8") == digests[0]
        out = smote(m, k=5, seed=3)
        assert out.n_rows == n_rows
        assert _sha256(out.values[m.n_rows:], "<f8") == digests[1]

    @pytest.mark.parametrize("points, k", _TIE_CASES, ids=_TIE_CASE_IDS)
    def test_matches_brute_force_on_ties(self, points, k):
        got = _nearest_neighbours(points, k, len(points))
        assert np.array_equal(got, _brute_force_neighbours(points, k))

    @pytest.mark.parametrize("points, k", _TIE_CASES, ids=_TIE_CASE_IDS)
    def test_leading_rows_match_full_search(self, points, k):
        m = len(points)
        full = _nearest_neighbours(points, k, m)
        for n in sorted({n for n in (1, 63, 64, 65, m - 1, m) if n <= m}):
            got = _nearest_neighbours(points, k, n)
            assert got.shape == (n, k)
            assert got.astype("<i8").tobytes() == full[:n].astype("<i8").tobytes(), n

    def test_smote_searches_only_source_rows(self, monkeypatch):
        searched = []
        kernel = preprocess._squared_distances

        def counting(block_columns, columns, lanes):
            searched.append(block_columns.shape[1])
            return kernel(block_columns, columns, lanes)

        monkeypatch.setattr(preprocess, "_squared_distances", counting)
        values = np.random.default_rng(9).normal(0.0, 1.0, (4100, 11))
        out = smote(matrix(values, [0] * 2100 + [1] * 2000), k=5, seed=1)
        assert out.n_rows == 4200
        assert sum(searched) == 100

    def test_smote_memory_bounded(self):
        gen = np.random.default_rng(9)
        values = gen.normal(0.0, 1.0, (4100, 11))
        m = matrix(values, [0] * 2100 + [1] * 2000)
        tracemalloc.start()
        try:
            out = smote(m, k=5, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.n_rows == 4200
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("d", [*range(1, 21), 64, 127, 128, 129, 200, 300])
    @pytest.mark.parametrize("kind", ["gaussian", "grid"])
    def test_distance_kernel_sums_left_to_right_bit_for_bit(self, kind, d):
        if kind == "gaussian":
            points = np.random.default_rng(d).normal(0.0, 1.0, (70, d))
        else:
            points = _integer_grid(d, 70, d, levels=4)
        block = points[5:18]
        diffs = points[None, :, :] - block[:, None, :]
        expected = diffs[..., 0] ** 2
        for j in range(1, d):
            expected = expected + diffs[..., j] ** 2
        columns = np.ascontiguousarray(points.T)
        lanes = np.empty((2, len(block), len(points)))
        got = _squared_distances(columns[:, 5:18], columns, lanes)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


_SYNTH_DATA = synth_generate(400, 0.3, seed=7)
_SYNTH_MATRIX = transform(fit(_SYNTH_DATA), _SYNTH_DATA)


def _block_budget(monkeypatch, rows, m, d):
    """Set the neighbour search's float budget to hold `rows` rows of m
    points of d columns: two distance lanes and the partition copy per row,
    whatever d."""
    monkeypatch.setattr(preprocess, "_NEIGHBOUR_FLOATS", rows * 3 * m)


class TestNeighbourBlocks:
    @pytest.mark.parametrize(
        "points, k",
        [*_TIE_CASES, (_SYNTH_MATRIX.values[_SYNTH_MATRIX.labels == 1], 5)],
        ids=[*_TIE_CASE_IDS, "synth-minority"],
    )
    def test_block_size_never_changes_a_neighbour(self, monkeypatch, points, k):
        m, d = points.shape
        whole = _nearest_neighbours(points, k, m)
        widths = []
        kernel = preprocess._squared_distances

        def recording(block_columns, columns, lanes):
            widths.append(block_columns.shape[1])
            return kernel(block_columns, columns, lanes)

        monkeypatch.setattr(preprocess, "_squared_distances", recording)
        for rows in (1, 2, 7, m):
            _block_budget(monkeypatch, rows, m, d)
            widths.clear()
            got = _nearest_neighbours(points, k, m)
            assert widths[0] == rows and sum(widths) == m, rows
            assert got.astype("<i8").tobytes() == whole.astype("<i8").tobytes(), rows

    def test_block_size_never_changes_a_synthetic_row(self, monkeypatch):
        m = _SYNTH_MATRIX
        points = m.values[m.labels == 1]
        whole = smote(m, k=5, seed=3).values.tobytes()
        for rows in (1, 2, 7, len(points)):
            _block_budget(monkeypatch, rows, *points.shape)
            assert smote(m, k=5, seed=3).values.tobytes() == whole, rows

    @pytest.mark.parametrize("m", [2000, 8000])
    def test_scratch_stays_in_budget_as_m_grows(self, m):
        n, k = 100, 5
        points = np.random.default_rng(m).normal(0.0, 1.0, (m, 11))
        tracemalloc.start()
        try:
            neighbours = _nearest_neighbours(points, k, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the column-major copy of the points is input-sized; NumPy's
        # iterator buffers and the candidate indices fit the allowance
        allowance = points.nbytes + 2**19
        bound = preprocess._NEIGHBOUR_FLOATS * 8 + neighbours.nbytes + allowance
        assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


class TestEndToEnd:
    def test_synth_pipeline_contracts(self):
        data = synth_generate(120, 0.4, seed=21)
        split = stratified_split(data, 0.2, seed=5)
        fp = fit(split.train)
        train_m = transform(fp, split.train)
        for name in ("Age", "RestingBP", "Cholesterol", "MaxHR", "Oldpeak"):
            col = train_m.values[:, FEATURE_NAMES.index(name)]
            assert abs(col.mean()) < 1e-9, name
            assert abs(col.std() - 1.0) < 1e-9, name
        balanced = smote(train_m, k=5, seed=3)
        assert int(np.sum(balanced.labels == 0)) == int(np.sum(balanced.labels == 1))
