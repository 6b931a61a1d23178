"""CSV ingestion, validation, summaries, splits, and the synthetic generator."""

import csv
import math

import numpy as np
import pytest

from conftest import make_dataset, spread_dataset
from cardiolearn import dataset
from cardiolearn.dataset import (
    CATEGORICAL_FEATURES,
    CELL_LIMIT,
    FEATURE_NAMES,
    LABEL_COLUMN,
    NUMERIC_FEATURES,
    SCHEMA,
    Dataset,
    _content_keys,
    class_shuffles,
    kfold,
    load_csv,
    load_unlabeled_csv,
    quota_indices,
    stratified_split,
    summarize,
    synth_generate,
    write_csv,
)
from cardiolearn.errors import (
    BadEncoding,
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
from cardiolearn.rng import SplitMix64

HEADER = ",".join(FEATURE_NAMES + (LABEL_COLUMN,))
ROW_A = "54,M,ASY,130,240,0,Normal,150,N,1.0,Flat,0"
ROW_B = "61,F,ATA,142,0,1,ST,122,Y,2.3,Down,1"


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def edited_row(row=ROW_A, keep=None, extra=(), **cells):
    """`row` with the named cells replaced, cut to its first `keep` cells,
    then `extra` cells appended."""
    parts = row.split(",")
    for name, text in cells.items():
        parts[(FEATURE_NAMES + (LABEL_COLUMN,)).index(name)] = text
    return ",".join(parts[:keep] + list(extra))


UNLABELED_A = edited_row(keep=len(FEATURE_NAMES))

# (labeled, data rows, the error: (row, column, content) of an UnparsableCell
# or the message of a SchemaMismatch)
_FIRST_BAD_ROW_CASES = {
    "short row after a bad cell": (
        True, [ROW_A, edited_row(Cholesterol="abc"), edited_row(keep=5)], (1, "Cholesterol", "abc")),
    "short row with a bad earlier cell": (
        True, [ROW_B, edited_row(RestingBP="1e999", keep=4)], (1, "RestingBP", "1e999")),
    "short row of good cells": (
        True, [ROW_A, edited_row(keep=7), edited_row(Age="x")], (1, "MaxHR", "<missing cell>")),
    "row without its label": (
        True, [edited_row(keep=11), edited_row(Age="x")], (0, LABEL_COLUMN, "<missing cell>")),
    "too many cells": (
        True, [ROW_A, edited_row(Age="x", extra=["1"])], "row 1 has 13 cells but the header has 12"),
    "too many cells after a bad cell": (
        True, [edited_row(Oldpeak="nan"), edited_row(extra=["1"])], (0, "Oldpeak", "nan")),
    "bad label after good features": (
        True, [ROW_A, edited_row(HeartDisease="0.5")], (1, LABEL_COLUMN, "0.5")),
    "bad feature before a bad label": (
        True, [edited_row(ST_Slope=" ", HeartDisease="2")], (0, "ST_Slope", "")),
    "bad label before a later row's bad feature": (
        True, [ROW_B, edited_row(HeartDisease="x"), edited_row(Age="x")], (1, LABEL_COLUMN, "x")),
    "later column in an earlier row": (
        True, [edited_row(Oldpeak="inf"), edited_row(Age="abc")], (0, "Oldpeak", "inf")),
    "unlabeled short row": (
        False, [UNLABELED_A, edited_row(keep=3), edited_row(Age="x", keep=11)], (1, "RestingBP", "<missing cell>")),
    "unlabeled row with a label cell": (
        False, [UNLABELED_A, ROW_A], "row 1 has 12 cells but the header has 11"),
}


_LABEL_VALUES = frozenset((0.0, 1.0))


def reference_load(path, labeled: bool) -> Dataset:
    """Row-by-row reference of `load_csv` (labeled) and `load_unlabeled_csv`:
    every check of a row runs before any check of a later row, and within a
    row the cell count, then each feature in schema order, then the label."""
    rows = dataset._read_rows(path)
    positions = dataset._header_positions(
        rows, FEATURE_NAMES + ((LABEL_COLUMN,) if labeled else ()))
    cells = {name: [] for name in positions}
    for row_index, raw_cells in enumerate(rows[1:]):
        if len(raw_cells) > len(positions):  # the header has exactly one column per position
            raise SchemaMismatch(
                f"row {row_index} has {len(raw_cells)} cells but the header has {len(positions)}"
            )
        for name, pos in positions.items():
            if pos >= len(raw_cells):
                raise UnparsableCell(row_index, name, "<missing cell>")
            token = raw_cells[pos].strip()
            if name in CATEGORICAL_FEATURES:
                if not token:
                    raise UnparsableCell(row_index, name, token)
                cells[name].append(token)
                continue
            try:
                value = float(token)
            except ValueError:
                raise UnparsableCell(row_index, name, token) from None
            if name == LABEL_COLUMN:
                if value not in _LABEL_VALUES:
                    raise UnparsableCell(row_index, name, token)
                value = int(value)
            elif not abs(value) <= CELL_LIMIT:  # also rejects nan and inf
                raise UnparsableCell(row_index, name, token)
            cells[name].append(value)
    labels = cells.pop(LABEL_COLUMN, [0] * (len(rows) - 1))
    return Dataset(list(cells.values()), labels)


def load_outcome(load, *args):
    """("ok", the dataset) of `load(*args)`, or its error's type, row,
    column, content and message."""
    try:
        return "ok", load(*args)
    except (SchemaMismatch, UnparsableCell) as exc:
        return (type(exc), getattr(exc, "row", None), getattr(exc, "column", None),
                getattr(exc, "content", None), str(exc))


class TestSchema:
    def test_column_order(self):
        assert FEATURE_NAMES == (
            "Age", "Sex", "ChestPainType", "RestingBP", "Cholesterol",
            "FastingBS", "RestingECG", "MaxHR", "ExerciseAngina",
            "Oldpeak", "ST_Slope",
        )
        assert LABEL_COLUMN == "HeartDisease"

    def test_kind_partition(self):
        assert set(NUMERIC_FEATURES) == {
            "Age", "RestingBP", "Cholesterol", "FastingBS", "MaxHR", "Oldpeak"
        }
        assert set(CATEGORICAL_FEATURES) == {
            "Sex", "ChestPainType", "RestingECG", "ExerciseAngina", "ST_Slope"
        }

    def test_missing_sentinels(self):
        sentinels = {s.name: s.missing_sentinel for s in SCHEMA}
        assert sentinels["RestingBP"] == 0.0
        assert sentinels["Cholesterol"] == 0.0
        # FastingBS is a real indicator; zero is data, not missingness
        assert sentinels["FastingBS"] is None
        assert sentinels["Age"] is None


def with_second_row(overrides=(), label=1) -> Dataset:
    """Two rows of base values, the second with `overrides` and `label`, so a
    check has to look past the first row."""
    return make_dataset([({}, 0), (dict(overrides), label)])


class TestDatasetChecks:
    def test_wrong_column_count(self):
        with pytest.raises(SchemaMismatch):
            Dataset([("54",)] * 3, [0])

    def test_ragged_columns(self):
        columns = list(with_second_row().columns)
        cholesterol = FEATURE_NAMES.index("Cholesterol")
        columns[cholesterol] = columns[cholesterol][:1]
        with pytest.raises(SchemaMismatch, match="Cholesterol"):
            Dataset(columns, [0, 1])

    def test_nonfinite_numeric(self):
        with pytest.raises(SchemaMismatch):
            with_second_row({"Age": float("nan")})
        with pytest.raises(SchemaMismatch):
            with_second_row({"Oldpeak": float("inf")})
        with pytest.raises(SchemaMismatch, match="MaxHR"):
            with_second_row({"MaxHR": -1.5e100})
        assert with_second_row({"MaxHR": -1e100}).columns[FEATURE_NAMES.index("MaxHR")][1] == -1e100

    def test_numeric_cells_are_floats(self):
        columns = list(with_second_row().columns)
        columns[0] = (54.0, 61)
        with pytest.raises(SchemaMismatch, match="Age"):
            Dataset(columns, [0, 1])
        columns[0] = (54.0, np.float64(61.0))
        assert Dataset(columns, [0, 1]).columns[0] == (54.0, 61.0)

    def test_empty_categorical_token(self):
        with pytest.raises(SchemaMismatch):
            with_second_row({"Sex": ""})

    def test_bad_label(self):
        with pytest.raises(SchemaMismatch):
            with_second_row(label=2)

    def test_cells_and_labels_held_as_tuples(self):
        data = with_second_row()
        assert type(data.columns) is tuple and type(data.labels) is tuple
        assert all(type(column) is tuple for column in data.columns)


class TestSubset:
    @pytest.mark.parametrize("indices", [(), (3,), (0, 1, 2, 3, 4), (4, 0, 2)],
                             ids=["no rows", "one row", "all rows", "reordered"])
    def test_picks_rows_in_order(self, indices):
        data = spread_dataset(n_neg=3, n_pos=2)
        part = data.subset(indices)
        assert len(part) == len(indices)
        assert part.labels == tuple(data.labels[i] for i in indices)
        assert part.columns == tuple(tuple(column[i] for i in indices) for column in data.columns)
        if indices == tuple(range(len(data))):
            assert part == data

    @pytest.mark.parametrize("indices", [(), (7,), (11, 0, 5, 5, 23, 2)],
                             ids=["no rows", "one row", "many rows"])
    def test_skips_the_cell_checks_and_equals_the_checked_dataset(self, indices, monkeypatch):
        data = synth_generate(24, 0.5, seed=8)
        calls = []

        def counted(check):
            def wrapper(kind, cells):
                calls.append(kind)
                return check(kind, cells)
            return wrapper

        monkeypatch.setattr(dataset, "_first_bad", counted(dataset._first_bad))
        part = data.subset(indices)
        assert calls == []
        columns = [[column[i] for i in indices] for column in data.columns]
        assert part == Dataset(columns, [data.labels[i] for i in indices])
        assert calls  # the direct construction still checks every column

    def test_one_row_test_side(self):
        # quotas round(3 * 0.2) = 1 and round(2 * 0.2) = 0
        data = spread_dataset(n_neg=3, n_pos=2)
        split = stratified_split(data, 0.2, seed=0)
        assert len(split.test) == 1 and len(split.train) == 4
        assert split.test == data.subset(split.test_indices)
        assert split.train == data.subset(split.train_indices)


class TestLoadCsv:
    def test_loads_rows_in_order(self, tmp_path):
        path = write_text(tmp_path / "d.csv", f"{HEADER}\n{ROW_A}\n{ROW_B}\n")
        data = load_csv(path)
        assert len(data) == 2
        assert data.columns[0] == (54.0, 61.0)
        assert data.columns[1] == ("M", "F")
        assert data.columns[4][1] == 0.0
        assert data.labels == (0, 1)

    def test_header_order_insensitive(self, tmp_path):
        cols = list(FEATURE_NAMES + (LABEL_COLUMN,))
        permuted = [cols[-1]] + cols[:-1]
        cells = ROW_A.split(",")
        row = ",".join([cells[-1]] + cells[:-1])
        path = write_text(tmp_path / "d.csv", ",".join(permuted) + "\n" + row + "\n")
        straight = load_csv(write_text(tmp_path / "s.csv", f"{HEADER}\n{ROW_A}\n"))
        assert load_csv(path) == straight

    def test_missing_column(self, tmp_path):
        cols = [c for c in FEATURE_NAMES if c != "Oldpeak"] + [LABEL_COLUMN]
        cells = [c for c, name in zip(ROW_A.split(","), FEATURE_NAMES + (LABEL_COLUMN,))
                 if name != "Oldpeak"]
        path = write_text(tmp_path / "d.csv", ",".join(cols) + "\n" + ",".join(cells) + "\n")
        with pytest.raises(MissingColumn, match="Oldpeak"):
            load_csv(path)

    def test_extra_column_rejected(self, tmp_path):
        path = write_text(tmp_path / "d.csv", HEADER + ",Extra\n" + ROW_A + ",1\n")
        with pytest.raises(SchemaMismatch, match="Extra"):
            load_csv(path)

    def test_duplicate_header(self, tmp_path):
        path = write_text(tmp_path / "d.csv", HEADER + ",Age\n" + ROW_A + ",5\n")
        with pytest.raises(DuplicateHeader):
            load_csv(path)

    def test_unparsable_numeric_cell(self, tmp_path):
        row = ROW_A.replace("54", "abc", 1)
        path = write_text(tmp_path / "d.csv", f"{HEADER}\n{row}\n")
        with pytest.raises(UnparsableCell) as exc:
            load_csv(path)
        message = str(exc.value)
        assert "Age" in message and "abc" in message

    @pytest.mark.parametrize("cell, column", [("1e101", "Cholesterol"), ("-1e160", "Oldpeak")])
    def test_numeric_cell_beyond_limit(self, tmp_path, cell, column):
        cells = ROW_B.split(",")
        cells[FEATURE_NAMES.index(column)] = cell
        path = write_text(tmp_path / "d.csv", f"{HEADER}\n{ROW_A}\n{','.join(cells)}\n")
        with pytest.raises(UnparsableCell) as exc:
            load_csv(path)
        assert (exc.value.row, exc.value.column, exc.value.content) == (1, column, cell)

    def test_label_must_be_binary(self, tmp_path):
        row = ROW_A[:-1] + "2"
        path = write_text(tmp_path / "d.csv", f"{HEADER}\n{row}\n")
        with pytest.raises(UnparsableCell, match=LABEL_COLUMN):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "")
        with pytest.raises(EmptyFile):
            load_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = write_text(tmp_path / "d.csv", f"{HEADER}\n\n{ROW_A}\n\n{ROW_B}\n")
        assert len(load_csv(path)) == 2

    def test_crlf_accepted(self, tmp_path):
        path = write_text(tmp_path / "d.csv", f"{HEADER}\r\n{ROW_A}\r\n")
        assert len(load_csv(path)) == 1

    def test_utf8_byte_order_mark_ignored(self, tmp_path):
        plain = load_csv(write_text(tmp_path / "plain.csv", f"{HEADER}\n{ROW_A}\n"))
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"{HEADER}\n{ROW_A}\n".encode("utf-8"))
        assert load_csv(str(path)) == plain
        unlabeled = tmp_path / "bom_unlabeled.csv"
        unlabeled.write_bytes(b"\xef\xbb\xbf" + ",".join(FEATURE_NAMES).encode("utf-8") + b"\n")
        assert len(load_unlabeled_csv(str(unlabeled))) == 0

    def test_non_utf8_bytes_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(f"{HEADER}\n{ROW_A}\n".replace("ASY", "ASÝ").encode("latin-1"))
        with pytest.raises(BadEncoding, match="not UTF-8"):
            load_csv(str(path))

    def test_whitespace_stripped(self, tmp_path):
        row = ROW_A.replace("M", " M ").replace("54", " 54")
        path = write_text(tmp_path / "d.csv", f"{HEADER}\n{row}\n")
        data = load_csv(path)
        assert data.columns[0] == (54.0,)
        assert data.columns[1] == ("M",)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "absent.csv")

    @pytest.mark.parametrize("labeled, rows, error", _FIRST_BAD_ROW_CASES.values(),
                             ids=_FIRST_BAD_ROW_CASES.keys())
    def test_first_bad_row_in_file_order_is_reported(self, tmp_path, labeled, rows, error):
        # every check of a row comes before any check of a later row; within
        # a row, the cell count, then the features in schema order, then the label
        header = HEADER if labeled else ",".join(FEATURE_NAMES)
        path = write_text(tmp_path / "d.csv", "\n".join([header, *rows]) + "\n")
        loader = load_csv if labeled else load_unlabeled_csv
        if isinstance(error, str):
            with pytest.raises(SchemaMismatch) as exc:
                loader(path)
            assert str(exc.value) == error
        else:
            with pytest.raises(UnparsableCell) as exc:
                loader(path)
            assert (exc.value.row, exc.value.column, exc.value.content) == error


    @pytest.mark.parametrize("labeled, rows, error", _FIRST_BAD_ROW_CASES.values(),
                             ids=_FIRST_BAD_ROW_CASES.keys())
    def test_reference_loader_gives_the_same_error(self, tmp_path, labeled, rows, error):
        header = HEADER if labeled else ",".join(FEATURE_NAMES)
        path = write_text(tmp_path / "d.csv", "\n".join([header, *rows]) + "\n")
        loader = load_csv if labeled else load_unlabeled_csv
        outcome = load_outcome(loader, path)
        assert outcome == load_outcome(reference_load, path, labeled)
        assert outcome[4] == error if isinstance(error, str) else outcome[1:4] == error

    _VALUE_FUZZ_CASES = 400
    _VALUE_MUTATIONS = ("category", "number", "drop cell", "add cell", "label")  # label last
    _NUMBER_TEXTS = (
        repr(CELL_LIMIT), repr(-CELL_LIMIT), repr(math.nextafter(CELL_LIMIT, math.inf)),
        repr(math.nextafter(-CELL_LIMIT, -math.inf)), "nan", "inf", "-0.0", "5e-324", "0",
    )
    _LABEL_TEXTS = ("0", "1", "2", "1.0", "-0")

    def test_value_mutations_load_as_the_reference_loads_them(self, tmp_path):
        """A fixed SplitMix64 sample of one to three value-level mutations of
        labeled and unlabeled files, one of them with its columns in reverse
        order: where the loader fails, the reference fails with the same type,
        row, column, content and message; where it succeeds, both give the
        same dataset."""
        data = synth_generate(10, 0.5, seed=4)
        path = tmp_path / "source.csv"
        write_csv(data, path)
        lines = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
        sources = {  # name -> (labeled, rows with the header first)
            "labeled": (True, lines),
            "unlabeled": (False, [cells[:-1] for cells in lines]),
            "labeled, reversed columns": (True, [cells[::-1] for cells in lines]),
        }
        names = sorted(sources)
        tokens = {name: sorted(set(column)) + ["", "  "]
                  for name, column in zip(FEATURE_NAMES, data.columns)
                  if name in CATEGORICAL_FEATURES}
        rng = SplitMix64(31)
        seen_kinds, seen_outcomes = set(), set()
        for _ in range(self._VALUE_FUZZ_CASES):
            name = names[rng.randint(len(names))]
            labeled, source = sources[name]
            header, rows = source[0], [list(cells) for cells in source[1:]]
            kinds = []
            for _ in range(1 + rng.randint(3)):
                kind = self._VALUE_MUTATIONS[rng.randint(len(self._VALUE_MUTATIONS) - (not labeled))]
                cells = rows[rng.randint(len(rows))]
                if kind == "drop cell":
                    del cells[rng.randint(len(cells))]
                elif kind == "add cell":
                    cells.insert(rng.randint(len(cells) + 1), ("1", "x", "")[rng.randint(3)])
                else:
                    if kind == "category":
                        column = CATEGORICAL_FEATURES[rng.randint(len(CATEGORICAL_FEATURES))]
                        texts = tokens[column]
                    elif kind == "number":
                        column = NUMERIC_FEATURES[rng.randint(len(NUMERIC_FEATURES))]
                        texts = self._NUMBER_TEXTS
                    else:
                        column, texts = LABEL_COLUMN, self._LABEL_TEXTS
                    at = header.index(column)
                    if at < len(cells):  # an earlier mutation may have dropped a cell
                        cells[at] = texts[rng.randint(len(texts))]
                kinds.append(kind)
            text = "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"
            path = write_text(tmp_path / "d.csv", text)
            loader = load_csv if labeled else load_unlabeled_csv
            outcome = load_outcome(loader, path)
            assert outcome == load_outcome(reference_load, path, labeled), (name, kinds, text)
            seen_kinds.update(kinds)
            seen_outcomes.add(outcome[0] if outcome[0] == "ok" else outcome[0].__name__)
        assert seen_kinds == set(self._VALUE_MUTATIONS)
        assert seen_outcomes == {"ok", "SchemaMismatch", "UnparsableCell"}

    def test_each_column_is_checked_once(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        write_csv(synth_generate(24, 0.5, seed=8), path)
        unlabeled = tmp_path / "u.csv"
        unlabeled.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in
                                     path.read_text(encoding="utf-8").splitlines()),
                             encoding="utf-8")
        calls = []

        def counted(check):
            def wrapper(kind, cells):
                calls.append(kind)
                return check(kind, cells)
            return wrapper

        monkeypatch.setattr(dataset, "_first_bad", counted(dataset._first_bad))
        data = load_csv(path)
        assert calls == [spec.kind for spec in SCHEMA] + [LABEL_COLUMN]
        calls.clear()
        assert len(load_unlabeled_csv(unlabeled)) == len(data)
        assert calls == [spec.kind for spec in SCHEMA]
        assert data == Dataset(data.columns, data.labels)  # the checked constructor agrees


class TestLoadUnlabeledCsv:
    def test_loads_features_with_placeholder_label(self, tmp_path):
        header = ",".join(FEATURE_NAMES)
        row = ",".join(ROW_A.split(",")[:-1])
        path = write_text(tmp_path / "u.csv", f"{header}\n{row}\n")
        data = load_unlabeled_csv(path)
        assert len(data) == 1
        assert data.labels == (0,)

    def test_label_column_rejected(self, tmp_path):
        path = write_text(tmp_path / "u.csv", f"{HEADER}\n{ROW_A}\n")
        with pytest.raises(SchemaMismatch, match=LABEL_COLUMN):
            load_unlabeled_csv(path)

    def test_zero_rows_ok(self, tmp_path):
        path = write_text(tmp_path / "u.csv", ",".join(FEATURE_NAMES) + "\n")
        assert len(load_unlabeled_csv(path)) == 0


class TestWriteCsv:
    def test_round_trip_exact(self, tmp_path):
        data = make_dataset([
            ({"Age": 54, "Oldpeak": 1.4}, 0),
            ({"Age": 61.5, "Oldpeak": 0.1, "Sex": "F"}, 1),
            ({"Cholesterol": 0, "Oldpeak": -2.5}, 1),
            ({"Oldpeak": 1e-3}, 0),
            ({"Oldpeak": -0.0}, 1),
        ])
        path = tmp_path / "out.csv"
        write_csv(data, path)
        loaded = load_csv(path)
        assert loaded == data
        # -0.0 is written as "0", so it reads back as +0.0, an equal value
        column = FEATURE_NAMES.index("Oldpeak")
        assert math.copysign(1, data.columns[column][-1]) == -1
        assert math.copysign(1, loaded.columns[column][-1]) == 1

    def test_canonical_column_order_and_lf(self, tmp_path):
        data = make_dataset([({}, 0)])
        path = tmp_path / "out.csv"
        write_csv(data, path)
        text = path.read_bytes().decode("utf-8")
        assert text.splitlines()[0] == HEADER
        assert "\r" not in text

    def test_integral_floats_written_without_point(self, tmp_path):
        data = make_dataset([({"Age": 54.0}, 0)])
        path = tmp_path / "out.csv"
        write_csv(data, path)
        first_cell = path.read_text(encoding="utf-8").splitlines()[1].split(",")[0]
        assert first_cell == "54"


class TestSummarize:
    def test_population_std(self):
        data = make_dataset([({"Age": 40}, 0), ({"Age": 50}, 1), ({"Age": 60}, 1)])
        stats = summarize(data).numeric["Age"]
        assert stats.mean == pytest.approx(50.0, abs=1e-12)
        assert stats.std == pytest.approx(8.16497, abs=1e-5)
        assert stats.count == 3
        assert stats.missing == 0
        assert stats.minimum == 40.0 and stats.maximum == 60.0

    def test_mean_adds_left_to_right(self):
        # correctly rounded, as Python 3.12's builtin sum gives, the total is 2.0
        ages = [1e16, 1.0, -1e16, 1.0]
        data = make_dataset([({"Age": age}, i % 2) for i, age in enumerate(ages)])
        assert math.fsum(ages) == 2.0
        assert summarize(data).numeric["Age"].mean == 0.25

    def test_positive_fraction(self):
        data = make_dataset([({}, 1), ({}, 1), ({}, 0), ({}, 1)])
        report = summarize(data)
        assert report.positives == 3
        assert report.negatives == 1
        assert report.positive_fraction == pytest.approx(0.75)

    def test_sentinel_counted_as_missing(self):
        data = make_dataset([
            ({"Cholesterol": 200}, 0),
            ({"Cholesterol": 0}, 1),
            ({"Cholesterol": 250}, 1),
        ])
        stats = summarize(data).numeric["Cholesterol"]
        assert stats.count == 2
        assert stats.missing == 1
        assert stats.mean == pytest.approx(225.0)

    def test_fasting_bs_zero_is_data(self):
        data = make_dataset([({"FastingBS": 0}, 0), ({"FastingBS": 1}, 1)])
        stats = summarize(data).numeric["FastingBS"]
        assert stats.count == 2
        assert stats.missing == 0

    def test_all_sentinel_column(self):
        data = make_dataset([({"RestingBP": 0}, 0), ({"RestingBP": 0}, 1)])
        stats = summarize(data).numeric["RestingBP"]
        assert stats.count == 0
        assert stats.missing == 2
        assert stats.mean is None and stats.std is None

    def test_categorical_histogram_sorted(self):
        data = make_dataset([({"Sex": "M"}, 0), ({"Sex": "F"}, 1), ({"Sex": "M"}, 1)])
        hist = summarize(data).categorical["Sex"]
        assert hist == {"F": 1, "M": 2}
        assert list(hist) == ["F", "M"]

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            summarize(make_dataset([]))


class TestStratifiedSplit:
    def test_quota_example(self):
        data = spread_dataset(n_neg=6, n_pos=4)
        split = stratified_split(data, 0.5, seed=3)
        assert split.test.class_counts() == (3, 2)
        assert split.train.class_counts() == (3, 2)

    def test_rounding_half_up(self):
        # 5 per class at fraction 0.3 gives quota round(1.5) = 2 per class
        data = spread_dataset(n_neg=5, n_pos=5)
        split = stratified_split(data, 0.3, seed=0)
        assert split.test.class_counts() == (2, 2)

    def test_partition_properties(self):
        data = spread_dataset(n_neg=13, n_pos=9)
        split = stratified_split(data, 0.25, seed=5)
        combined = sorted(split.train_indices + split.test_indices)
        assert combined == list(range(len(data)))
        assert not set(split.train_indices) & set(split.test_indices)

    def test_deterministic(self):
        data = spread_dataset(n_neg=10, n_pos=8)
        a = stratified_split(data, 0.2, seed=42)
        b = stratified_split(data, 0.2, seed=42)
        assert a.test_indices == b.test_indices
        assert a.train_indices == b.train_indices

    def test_seed_changes_selection(self):
        data = spread_dataset(n_neg=20, n_pos=20)
        a = stratified_split(data, 0.5, seed=1)
        b = stratified_split(data, 0.5, seed=2)
        assert a.test_indices != b.test_indices

    def test_row_order_does_not_change_membership(self):
        data = spread_dataset(n_neg=12, n_pos=10)
        reversed_data = data.subset(reversed(range(len(data))))
        keys_a = sorted(_content_keys(stratified_split(data, 0.25, seed=9).test))
        keys_b = sorted(_content_keys(stratified_split(reversed_data, 0.25, seed=9).test))
        assert keys_a == keys_b

    def test_keys_at_formatting_and_ordering_edges(self, tmp_path):
        texts = {
            -0.0: "0", 0.1: "0.1", 1e15 + 0.5: "1000000000000000.5",
            9999999999999998.0: "9999999999999998", 1e16: "1e+16", 5e-324: "5e-324",
            1e100: "1e+100", -7.0: "-7", -123456789.0: "-123456789",
        }
        # ',' sorts after ' ', '!' and '+', so these tokens order differently
        # as joined keys than as tuples of cells
        tokens = ("A", "A+", "A B", "A!", "A,B")
        rows = [
            ({"Age": age, "Oldpeak": oldpeak, "ChestPainType": token}, (i + j) % 2)
            for i, (age, oldpeak) in enumerate(zip(texts, reversed(list(texts))))
            for j, token in enumerate(tokens)
        ]
        rows += rows[:3]  # equal keys keep their row order
        data = make_dataset(rows)
        for value, text in texts.items():
            assert _content_keys(make_dataset([({"Age": value}, 0)]))[0].split(",")[0] == text
        keys = [_content_keys(make_dataset([row]))[0] for row in rows]
        assert _content_keys(data) == keys
        # write_csv writes the cells the keys join; "A,B" is quoted
        path = tmp_path / "edges.csv"
        write_csv(data, path)
        with open(path, encoding="utf-8", newline="") as fh:
            assert [",".join(row) for row in csv.reader(fh)][1:] == keys
        assert load_csv(path) == data
        for fraction, seed in ((0.25, 4), (0.5, 11)):
            shuffled = class_shuffles(data.labels, seed, key=keys.__getitem__)
            split = stratified_split(data, fraction, seed)
            assert split.test_indices == tuple(sorted(quota_indices(shuffled, fraction)))

    def test_fraction_bounds(self):
        data = spread_dataset(n_neg=4, n_pos=4)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(FractionOutOfRange):
                stratified_split(data, bad, seed=0)

    def test_single_class_rejected(self):
        data = make_dataset([({}, 1), ({"Age": 60}, 1)])
        with pytest.raises(SingleClassDataset):
            stratified_split(data, 0.5, seed=0)


class TestKFold:
    def test_equal_fold_sizes(self):
        data = spread_dataset(n_neg=3, n_pos=3)
        pairs = kfold(data, 3, seed=1)
        assert len(pairs) == 3
        for train, val in pairs:
            assert len(val) == 2
            assert len(train) == 4

    def test_folds_partition_dataset(self):
        data = spread_dataset(n_neg=11, n_pos=7)
        pairs = kfold(data, 4, seed=2)
        all_val = sorted(idx for _, val in pairs for idx in val)
        assert all_val == list(range(len(data)))
        for train, val in pairs:
            assert sorted(train + val) == list(range(len(data)))
            assert not set(train) & set(val)

    def test_every_fold_sees_both_classes(self):
        data = spread_dataset(n_neg=9, n_pos=5)
        for train, val in kfold(data, 5, seed=3):
            labels = {data.labels[i] for i in val}
            assert labels == {0, 1}

    def test_fold_sizes_differ_by_at_most_one(self):
        data = spread_dataset(n_neg=10, n_pos=7)
        sizes = [len(val) for _, val in kfold(data, 4, seed=0)]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        data = spread_dataset(n_neg=8, n_pos=8)
        assert kfold(data, 4, seed=7) == kfold(data, 4, seed=7)

    def test_small_class_rejected(self):
        data = make_dataset([
            ({"Age": 40}, 1), ({"Age": 41}, 1), ({"Age": 42}, 1), ({"Age": 43}, 0),
        ])
        with pytest.raises(SingleClassDataset):
            kfold(data, 3, seed=0)

    def test_k_exceeding_n(self):
        data = spread_dataset(n_neg=3, n_pos=3)
        with pytest.raises(KTooLarge):
            kfold(data, 7, seed=0)

    def test_k_below_two(self):
        data = spread_dataset(n_neg=3, n_pos=3)
        with pytest.raises(BadHyperparameter):
            kfold(data, 1, seed=0)


class TestSynthGenerate:
    def test_exact_positive_count(self):
        data = synth_generate(100, 0.3, seed=5)
        assert sum(data.labels) == 30

    def test_balanced_counts(self):
        data = synth_generate(100, 0.5, seed=7)
        assert data.class_counts() == (50, 50)

    def test_deterministic_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(synth_generate(60, 0.4, seed=3), a)
        write_csv(synth_generate(60, 0.4, seed=3), b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_content(self):
        a = synth_generate(40, 0.5, seed=1)
        b = synth_generate(40, 0.5, seed=2)
        assert a != b

    def test_schema_conformant_round_trip(self, tmp_path):
        data = synth_generate(30, 0.5, seed=11)
        path = tmp_path / "synth.csv"
        write_csv(data, path)
        assert load_csv(path) == data

    def test_classes_are_separated(self):
        data = synth_generate(200, 0.5, seed=13)
        by_label = {0: [], 1: []}
        for value, label in zip(data.columns[FEATURE_NAMES.index("Oldpeak")], data.labels):
            by_label[label].append(value)
        mean_neg = sum(by_label[0]) / len(by_label[0])
        mean_pos = sum(by_label[1]) / len(by_label[1])
        assert mean_pos - mean_neg > 1.0

    def test_argument_validation(self):
        with pytest.raises(BadHyperparameter):
            synth_generate(1, 0.5, seed=0)
        with pytest.raises(FractionOutOfRange):
            synth_generate(10, 0.0, seed=0)
        with pytest.raises(FractionOutOfRange):
            synth_generate(10, 1.0, seed=0)
