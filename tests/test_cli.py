"""Command-line interface: flows, file outputs, config files, exit codes."""

import hashlib
import json
import os
import reprlib
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import cardiolearn

from conftest import make_dataset
from cardiolearn import cli, dataset, evaluation
from cardiolearn.cli import main
from cardiolearn.dataset import synth_generate, write_csv
from cardiolearn.errors import (
    BadHyperparameter,
    FractionOutOfRange,
    SingleClassDataset,
    UnparsableCell,
    VersionMismatch,
)
from cardiolearn.persistence import FORMAT_VERSION, atomic_write_text, load_bundle
from cardiolearn.rng import SplitMix64


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(synth_generate(80, 0.5, seed=3), path)
    return str(path)


def unlabeled_from(labeled_path, out_path, n_rows=None):
    lines = Path(labeled_path).read_text(encoding="utf-8").splitlines()
    stripped = [",".join(line.split(",")[:-1]) for line in lines]
    if n_rows is not None:
        stripped = stripped[: 1 + n_rows]
    out_path.write_text("\n".join(stripped) + "\n", encoding="utf-8")
    return str(out_path)


def train_bundle(tmp_path, data_csv, algo="nb", extra=()):
    out = tmp_path / f"{algo}_model.json"
    code = main([
        "train", "--data", data_csv, "--algo", algo, "--out", str(out), *extra,
    ])
    assert code == 0
    return str(out)


_RNN_PARAMS = ("--param", "max_epochs=2", "--param", "hidden_size=4")


def _refuse_work(monkeypatch):
    """Make every load, fit and search the CLI can start fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the output paths were checked")

    for module, name in [(dataset, "load_csv"), (dataset, "load_unlabeled_csv"),
                         (cli, "load_bundle"), (cli, "prepare_matrices"),
                         (cli, "run_training"), (cli, "grid_search"), (cli, "run_compare")]:
        monkeypatch.setattr(module, name, refuse)


class TestErrorCodes:
    def test_exit_code_map(self):
        assert FractionOutOfRange("x").code == "E_CONFIG"
        assert SingleClassDataset("x").code == "E_DATA"
        assert UnparsableCell(0, "Age", "abc").code == "E_DATA"
        assert VersionMismatch("x").code == "E_VERSION"
        assert BadHyperparameter("x").code == "E_CONFIG"

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["summarize", "--data", str(tmp_path / "absent.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("E_IO FileNotFoundError:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("out", ["missing_dir/s.csv", "adir"],
                             ids=["missing directory", "existing directory"])
    def test_unwritable_out_names_the_requested_path(self, tmp_path, data_csv, capsys,
                                                     monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        before = set(tmp_path.rglob("*"))
        assert main(["summarize", "--data", data_csv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("E_IO ")
        assert repr(out) in err and ".tmp" not in err
        assert set(tmp_path.rglob("*")) == before

    # each command's arguments but --data, PATH standing for the unwritable
    # output path; cfg.json sets compare's --out to it
    @pytest.mark.parametrize("argv", [
        ["train", "--algo", "nb", "--out", "m2.json", "--report-csv", "PATH"],
        ["train", "--algo", "rnn", "--out", "m2.json", "--report-csv", "PATH", *_RNN_PARAMS],
        ["train", "--algo", "rnn", "--out", "m2.json", "--curves", "PATH", *_RNN_PARAMS],
        ["train", "--algo", "xgb", "--out", "PATH"],
        ["summarize", "--out", "PATH"],
        ["preprocess", "--out", "PATH"],
        ["evaluate", "--bundle", "m.json", "--out", "PATH"],
        ["predict", "--bundle", "m.json", "--out", "PATH"],
        ["gridsearch", "--algo", "xgb", "--grid", "grid.json", "--out", "PATH"],
        ["compare", "--out", "PATH"],
        ["compare", "--config", "cfg.json"],
        ["curves", "--out", "PATH"],
    ], ids=[
        "train nb --report-csv", "train rnn --report-csv", "train rnn --curves", "train --out",
        "summarize", "preprocess", "evaluate", "predict", "gridsearch", "compare",
        "compare config out", "curves",
    ])
    @pytest.mark.parametrize("path", ["nodir/r.csv", "adir"],
                             ids=["missing directory", "existing directory"])
    def test_unwritable_output_fails_before_any_file_is_written(
            self, tmp_path, data_csv, capsys, monkeypatch, argv, path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "cfg.json").write_text(json.dumps({"out": path}), encoding="utf-8")
        _refuse_work(monkeypatch)
        before = set(tmp_path.rglob("*"))
        code = main([argv[0], "--data", data_csv,
                     *(path if arg == "PATH" else arg for arg in argv[1:])])
        assert code == 2
        captured = capsys.readouterr()
        with pytest.raises(OSError) as raised:
            atomic_write_text(path, "")
        assert captured.err == f"E_IO {type(raised.value).__name__}: {raised.value}\n"
        assert repr(path) in captured.err
        assert captured.out == ""
        assert set(tmp_path.rglob("*")) == before

    def test_unwritable_derived_curves_path_fails_before_the_fit(
            self, tmp_path, data_csv, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m_curves.csv").mkdir()
        _refuse_work(monkeypatch)
        before = set(tmp_path.rglob("*"))
        assert main(["train", "--data", data_csv, "--algo", "rnn", "--out", "m.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("E_IO IsADirectoryError:") and "'m_curves.csv'" in err
        assert len(err.splitlines()) == 1
        assert set(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("argv, flags, path", [
        (["rnn", "--out", "clash.json", "--curves", "clash.json", *_RNN_PARAMS],
         "--out and --curves", "clash.json"),
        (["nb", "--out", "m.json", "--report-csv", "m.json"], "--out and --report-csv", "m.json"),
        (["rnn", "--out", "m.json", "--report-csv", "m_curves.csv", *_RNN_PARAMS],
         "--curves and --report-csv", "m_curves.csv"),
        (["nb", "--out", "./m.json", "--report-csv", "m.json"], "--out and --report-csv",
         "m.json"),
    ], ids=["out is curves", "out is report", "derived curves is report", "./m.json is m.json"])
    def test_two_outputs_naming_one_file_fail_before_any_work(
            self, tmp_path, data_csv, capsys, monkeypatch, argv, flags, path):
        monkeypatch.chdir(tmp_path)
        _refuse_work(monkeypatch)
        before = set(tmp_path.rglob("*"))
        assert main(["train", "--data", data_csv, "--algo", *argv]) == 4
        captured = capsys.readouterr()
        assert captured.err == f"E_CONFIG BadHyperparameter: {flags} name one file: {path}\n"
        assert captured.out == ""
        assert set(tmp_path.rglob("*")) == before

    def test_bad_fraction_is_config_error(self, data_csv, capsys):
        code = main(["preprocess", "--data", data_csv, "--test-fraction", "1.5"])
        assert code == 4
        assert capsys.readouterr().err.startswith("E_CONFIG FractionOutOfRange:")

    def test_unparsable_cell_is_data_error(self, tmp_path, capsys):
        base = tmp_path / "base.csv"
        write_csv(make_dataset([({}, 0), ({}, 1)]), base)
        lines = base.read_text(encoding="utf-8").splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text(
            lines[0] + "\n" + lines[1].replace("54", "abc", 1) + "\n" + lines[2] + "\n",
            encoding="utf-8",
        )
        code = main(["summarize", "--data", str(bad)])
        assert code == 6
        assert capsys.readouterr().err.startswith("E_DATA UnparsableCell:")

    @staticmethod
    def _csv_with_cells(source, path, cells):
        """A copy of the CSV at `source`, with {(data row, column name): text} replaced."""
        rows = [line.split(",") for line in Path(source).read_text(encoding="utf-8").splitlines()]
        for (row, column), text in cells.items():
            rows[1 + row][rows[0].index(column)] = text
        path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
        return str(path)

    def test_train_on_cell_beyond_limit_is_data_error(self, tmp_path, data_csv, capsys):
        huge = self._csv_with_cells(data_csv, tmp_path / "huge.csv", {(7, "Cholesterol"): "1e160"})
        out_path = tmp_path / "model.json"
        code = main(["train", "--data", huge, "--algo", "nb", "--out", str(out_path)])
        assert code == 6
        err = capsys.readouterr().err
        assert err.startswith("E_DATA UnparsableCell: row 7, column 'Cholesterol'")
        assert len(err.splitlines()) == 1
        assert not out_path.exists()

    def test_predict_on_cell_beyond_limit_is_data_error(self, tmp_path, data_csv, capsys):
        bundle_path = train_bundle(tmp_path, data_csv)
        unlabeled = unlabeled_from(data_csv, tmp_path / "unlabeled.csv", n_rows=5)
        huge = self._csv_with_cells(unlabeled, tmp_path / "huge.csv", {(2, "Cholesterol"): "1e160"})
        capsys.readouterr()
        out_path = tmp_path / "preds.csv"
        code = main(["predict", "--bundle", bundle_path, "--data", huge, "--out", str(out_path)])
        assert code == 6
        err = capsys.readouterr().err
        assert err.startswith("E_DATA UnparsableCell: row 2, column 'Cholesterol'")
        assert len(err.splitlines()) == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("algo", ["gb", "nb", "rnn", "xgb"])
    def test_cells_at_limit_train_and_predict(self, tmp_path, data_csv, capsys, algo):
        """Cells at exactly ±1e100 fit and score with no overflow (a RuntimeWarning
        fails the test) and no nan probability."""
        at_limit = {(3, "Cholesterol"): "1e100", (4, "MaxHR"): "-1e100",
                    (5, "RestingBP"): "1e100"}
        data = self._csv_with_cells(data_csv, tmp_path / "limit.csv", at_limit)
        bundle_path = train_bundle(tmp_path, data, algo, extra=self._QUICK_FIT[algo])
        unlabeled = unlabeled_from(data, tmp_path / "unlabeled.csv", n_rows=8)
        out_path = tmp_path / "preds.csv"
        code = main(["predict", "--bundle", bundle_path, "--data", unlabeled,
                     "--out", str(out_path)])
        assert code == 0 and capsys.readouterr().err == ""
        probabilities = [float(line.split(",")[1])
                         for line in out_path.read_text(encoding="utf-8").splitlines()[1:]]
        assert len(probabilities) == 8 and all(0.0 <= p <= 1.0 for p in probabilities)

    def test_single_class_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "single.csv"
        write_csv(make_dataset([({"Age": 40 + i}, 1) for i in range(6)]), path)
        code = main(["train", "--data", str(path), "--algo", "nb"])
        assert code == 6
        assert capsys.readouterr().err.startswith("E_DATA SingleClassDataset:")

    def test_schema_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "extra.csv"
        base = tmp_path / "base.csv"
        write_csv(make_dataset([({}, 0), ({}, 1)]), base)
        lines = base.read_text(encoding="utf-8").splitlines()
        path.write_text(
            lines[0] + ",Extra\n" + "\n".join(line + ",1" for line in lines[1:]) + "\n",
            encoding="utf-8",
        )
        code = main(["summarize", "--data", str(path)])
        assert code == 3
        assert capsys.readouterr().err.startswith("E_SCHEMA SchemaMismatch:")

    def test_version_mismatch_exit_code(self, tmp_path, data_csv, capsys):
        bundle_path = train_bundle(tmp_path, data_csv)
        doc = json.loads(Path(bundle_path).read_text(encoding="utf-8"))
        doc["format_version"] = FORMAT_VERSION + 1
        bumped = tmp_path / "bumped.json"
        bumped.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["evaluate", "--bundle", str(bumped), "--data", data_csv])
        assert code == 5
        assert capsys.readouterr().err.startswith("E_VERSION VersionMismatch:")

    def test_corrupt_bundle_exit_code(self, tmp_path, data_csv, capsys):
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{", encoding="utf-8")
        code = main(["evaluate", "--bundle", str(garbled), "--data", data_csv])
        assert code == 6
        assert capsys.readouterr().err.startswith("E_DATA CorruptBundle:")

    _QUICK_FIT = {"gb": ("--param", "n_rounds=5"), "xgb": ("--param", "n_rounds=5"),
                  "rnn": ("--param", "max_epochs=2"), "nb": ()}

    def _predict_with_edited_bundle(self, tmp_path, data_csv, edit, part="model",
                                    algo="gb", command="predict"):
        bundle_path = train_bundle(tmp_path, data_csv, algo, extra=self._QUICK_FIT[algo])
        doc = json.loads(Path(bundle_path).read_text(encoding="utf-8"))
        edit(doc[part])
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc), encoding="utf-8")
        if command == "predict":
            data = unlabeled_from(data_csv, tmp_path / "unlabeled.csv", n_rows=5)
        else:
            data = data_csv
        out_path = tmp_path / "preds.csv"
        code = main([command, "--bundle", str(edited), "--data", data,
                     "--out", str(out_path)])
        return code, out_path

    @staticmethod
    def _set_first_split_feature(model, feature):
        tree = next(t for t in model["trees"] if "feature" in t)
        tree["feature"] = feature

    def test_nan_base_score_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        def edit(model):
            model["base_score"] = float("nan")
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit)
        assert code == 6
        err = capsys.readouterr().err
        assert err.startswith("E_DATA CorruptBundle:")
        assert "NaN" in err and len(err.strip().splitlines()) == 1
        assert not out_path.exists()

    def test_out_of_range_split_feature_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        code, _ = self._predict_with_edited_bundle(
            tmp_path, data_csv, lambda model: self._set_first_split_feature(model, 99)
        )
        assert code == 6
        err = capsys.readouterr().err
        assert err.startswith("E_DATA CorruptBundle:")
        assert "99" in err and len(err.strip().splitlines()) == 1

    def test_negative_split_feature_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        code, out_path = self._predict_with_edited_bundle(
            tmp_path, data_csv, lambda model: self._set_first_split_feature(model, -1)
        )
        assert code == 6
        assert capsys.readouterr().err.startswith("E_DATA CorruptBundle:")
        assert not out_path.exists()

    def _assert_one_corrupt_bundle_line(self, code, out_path, capsys, *fragments):
        assert code == 6
        err = capsys.readouterr().err
        assert err.startswith("E_DATA CorruptBundle:")
        assert len(err.strip().splitlines()) == 1
        for fragment in fragments:
            assert fragment in err
        assert not out_path.exists()

    def test_string_split_threshold_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        def edit(model):
            next(t for t in model["trees"] if "feature" in t)["threshold"] = "x"
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit)
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "threshold")

    def test_string_base_score_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        def edit(model):
            model["base_score"] = "x"
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit)
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "base_score")

    def test_string_leaf_weight_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        def edit(model):
            node = model["trees"][0]
            while "weight" not in node:
                node = node["left"]
            node["weight"] = "0.5"
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit)
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "weight")

    def test_string_scale_std_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        def edit(preprocessor):
            preprocessor["scale_stats"]["Age"]["std"] = "9.5"
        code, out_path = self._predict_with_edited_bundle(
            tmp_path, data_csv, edit, part="preprocessor"
        )
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "Age std")

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_negative_scale_std_is_corrupt_bundle(self, tmp_path, data_csv, capsys, command):
        def edit(preprocessor):
            preprocessor["scale_stats"]["Age"]["std"] = -1.0
        code, out_path = self._predict_with_edited_bundle(
            tmp_path, data_csv, edit, part="preprocessor", algo="nb", command=command
        )
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "Age std", "[0, inf)")

    def test_bool_scale_mean_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        def edit(preprocessor):
            preprocessor["scale_stats"]["MaxHR"]["mean"] = True
        code, out_path = self._predict_with_edited_bundle(
            tmp_path, data_csv, edit, part="preprocessor"
        )
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "MaxHR mean")

    def test_mis_shaped_rnn_w_hh_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        def edit(model):
            assert model["W_hh"]["shape"] == [16, 16]
            model["W_hh"]["shape"] = [4, 64]
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit, algo="rnn")
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "W_hh", "[4, 64]")

    def test_rnn_hidden_size_disagreeing_with_arrays_is_corrupt_bundle(
            self, tmp_path, data_csv, capsys):
        def edit(model):
            model["hidden_size"] = 8
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit, algo="rnn")
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "W_xh", "[16, 1]")

    def test_rnn_hidden_size_out_of_range_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        # arrays that match hidden_size 0 still leave it outside training's range
        def edit(model):
            model["hidden_size"] = 0
            for name, shape in (("W_xh", [0, 1]), ("W_hh", [0, 0]), ("W_hy", [1, 0]),
                                ("b_h", [0])):
                model[name] = {"shape": shape, "data": []}
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit, algo="rnn")
        self._assert_one_corrupt_bundle_line(
            code, out_path, capsys, "rnn model: hidden_size must be in [1, 1024], got 0")

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_rnn_input_size_other_than_one_is_corrupt_bundle(
            self, tmp_path, data_csv, capsys, command):
        def edit(model):
            model["input_size"] = 2
            model["W_xh"] = {"shape": [16, 2], "data": model["W_xh"]["data"] * 2}
        code, out_path = self._predict_with_edited_bundle(
            tmp_path, data_csv, edit, algo="rnn", command=command
        )
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "input_size", "[1, 1]")

    def test_string_rnn_b_y_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        def edit(model):
            model["b_y"] = "x"
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit, algo="rnn")
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "b_y")

    def test_one_row_nb_means_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        def edit(model):
            model["means"] = model["means"][:1]
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit, algo="nb")
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "means")

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", "x"), ("n_rounds", "x"), ("max_depth", -1), ("reg_lambda", -5),
    ])
    def test_mistyped_or_out_of_range_xgb_hyperparameter_is_corrupt_bundle(
            self, tmp_path, data_csv, capsys, name, value):
        def edit(model):
            model[name] = value
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit, algo="xgb")
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, name)

    @pytest.mark.parametrize("algo, name, value", [
        ("rnn", "W_hy", None), ("nb", "means", None), ("nb", "priors", "0.5"), ("rnn", "b_h", True),
    ])
    def test_non_number_array_element_is_corrupt_bundle(
            self, tmp_path, data_csv, capsys, algo, name, value):
        def edit(model):
            array = model[name]["data"] if algo == "rnn" else model[name]
            if isinstance(array[0], list):
                array[0][0] = value
            else:
                array[0] = value
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit, algo=algo)
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, name, repr(value))

    @pytest.mark.parametrize("name, value", [
        ("priors", [-0.5, 1.5]), ("priors", [0.0, 1.0]), ("variances", -1.0), ("var_floor", "x"),
        ("var_floor", 0.0),
    ])
    def test_out_of_range_nb_value_is_corrupt_bundle(
            self, tmp_path, data_csv, capsys, name, value):
        def edit(model):
            if name == "variances":
                model[name][0][0] = value
            else:
                model[name] = value
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit, algo="nb")
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, name)

    @pytest.mark.parametrize("name, value, fragment", [
        ("variances", 1e308, "variances"),
        ("var_floor", 1e308, "var_floor"),
        ("variances", "below the floor", "variances"),
    ])
    def test_nb_variance_outside_floor_and_finite_density_is_corrupt_bundle(
            self, tmp_path, data_csv, capsys, name, value, fragment):
        def edit(model):
            if name == "var_floor":
                model[name] = value
                return
            for row in model[name]:
                row[:] = [model["var_floor"] / 2.0 if isinstance(value, str) else value] * len(row)
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit, algo="nb")
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, fragment)

    @pytest.mark.parametrize("field, value", [
        ("decade", "zz"), ("decade", None), ("decade", True), ("decade", 50.0), ("sex", 1),
        ("sex", None),
    ])
    def test_mistyped_impute_table_cohort_is_corrupt_bundle(
            self, tmp_path, data_csv, capsys, field, value):
        def edit(preprocessor):
            preprocessor["impute_table"][0][field] = value
        code, out_path = self._predict_with_edited_bundle(
            tmp_path, data_csv, edit, part="preprocessor", algo="nb"
        )
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, f"impute_table {field}")

    @pytest.mark.parametrize("command, stats", [
        ("predict", {"std": 5e-324}),
        ("evaluate", {"std": 5e-324}),
        ("predict", {"mean": 1.7e308, "std": 0.5}),
    ])
    def test_scaled_value_that_overflows_is_one_data_error(self, tmp_path, data_csv, capsys,
                                                           command, stats):
        def edit(preprocessor):
            preprocessor["scale_stats"]["Age"].update(stats)
        code, out_path = self._predict_with_edited_bundle(
            tmp_path, data_csv, edit, part="preprocessor", algo="nb", command=command
        )
        assert code == 6
        err = capsys.readouterr().err
        assert err.startswith("E_DATA NonFiniteFeature: feature 'Age'")
        assert repr(stats["std"]) in err and len(err.strip().splitlines()) == 1
        assert not out_path.exists()

    def test_non_list_trees_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        def edit(model):
            model["trees"] = {}
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit, algo="xgb")
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "trees")

    def test_gb_bundle_holding_second_order_mode_is_corrupt_bundle(
            self, tmp_path, data_csv, capsys):
        def edit(model):
            assert model["mode"] == "first_order"
            model["mode"] = "second_order"
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit)
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "mode", "second_order")

    @pytest.mark.parametrize("name, value", [
        ("reg_lambda", False), ("gamma", False), ("reg_lambda", 1.0), ("gamma", "0"),
    ])
    def test_gb_bundle_with_its_fixed_regularization_changed_is_corrupt_bundle(
            self, tmp_path, data_csv, capsys, name, value):
        def edit(model):
            assert model[name] == 0.0
            model[name] = value
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit)
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, name, repr(value))

    def test_gb_bundle_missing_its_mode_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        def edit(model):
            del model["mode"]
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit)
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "mode")

    @pytest.mark.parametrize("family", ["rnn", "zz"])
    def test_model_family_other_than_the_algorithm_is_corrupt_bundle(
            self, tmp_path, data_csv, capsys, family):
        def edit(model):
            model["family"] = family
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit, algo="nb")
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "family", repr(family))

    @pytest.mark.parametrize("algo", ["gb", "xgb"])
    def test_non_integer_n_features_is_corrupt_bundle(self, tmp_path, data_csv, capsys, algo):
        def edit(model):
            model["n_features"] = float(model["n_features"])
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit, algo=algo)
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "n_features", "11.0")

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_tree_deeper_than_max_depth_is_corrupt_bundle(self, tmp_path, data_csv, capsys,
                                                          command):
        def edit(model):
            assert model["max_depth"] == 3
            tree = {"weight": 0.0}
            for _ in range(10):
                tree = {"feature": 0, "threshold": 0.0, "left": tree, "right": {"weight": 0.0}}
            model["trees"][0] = tree
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit,
                                                          command=command)
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "max_depth")

    @pytest.mark.parametrize("algo", ["gb", "xgb"])
    def test_n_rounds_above_its_bound_is_corrupt_bundle(self, tmp_path, data_csv, capsys, algo):
        def edit(model):
            model["n_rounds"] = 10001
        code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit, algo=algo)
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "n_rounds", "[1, 10000]")

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_nb_means_far_from_every_row_are_one_data_error(self, tmp_path, data_csv, capsys,
                                                            command):
        def edit(model):
            model["means"] = [[1e200] * len(row) for row in model["means"]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a warning is a stderr line too
            code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit,
                                                              algo="nb", command=command)
        assert code == 6
        err = capsys.readouterr().err
        assert err.startswith("E_DATA NonFiniteFeature: row 0:")
        assert len(err.strip().splitlines()) == 1
        assert not out_path.exists()

    def test_boosted_margin_that_overflows_scores_without_a_warning(
            self, tmp_path, data_csv, capsys):
        def edit(model):
            def saturate(node):
                if "weight" in node:
                    node["weight"] = 1e308
                else:
                    saturate(node["left"])
                    saturate(node["right"])
            for tree in model["trees"]:
                saturate(tree)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a warning is a stderr line too
            code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit)
        assert code == 0 and capsys.readouterr().err == ""
        rows = out_path.read_text(encoding="utf-8").splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {repr(1.0 - 1e-12)}

    def test_rnn_output_that_is_not_a_number_is_one_data_error(self, tmp_path, data_csv, capsys):
        def edit(model):  # inf + -inf inside the recurrence
            model["W_xh"]["data"] = [1e308] * len(model["W_xh"]["data"])
            model["W_hh"]["data"] = [-1e308] * len(model["W_hh"]["data"])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a warning is a stderr line too
            code, out_path = self._predict_with_edited_bundle(tmp_path, data_csv, edit,
                                                              algo="rnn")
        assert code == 6
        err = capsys.readouterr().err
        assert err.startswith("E_DATA NonFiniteFeature: row ")
        assert len(err.strip().splitlines()) == 1
        assert not out_path.exists()

    def test_diverging_rnn_fit_is_one_config_error(self, tmp_path, data_csv, capsys):
        out_path = tmp_path / "model.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a warning is a stderr line too
            code = main(["train", "--data", data_csv, "--algo", "rnn", "--out", str(out_path),
                         "--param", "learning_rate=1e308", "--param", "max_epochs=3"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter: the fit diverged:")
        assert "learning_rate (1e+308)" in err and "init_scale" in err
        assert len(err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == [Path(data_csv)]

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_string_train_config_threshold_is_corrupt_bundle(
            self, tmp_path, data_csv, capsys, command):
        def edit(train_config):
            train_config["threshold"] = "x"
        code, out_path = self._predict_with_edited_bundle(
            tmp_path, data_csv, edit, part="train_config", command=command
        )
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "threshold")

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_out_of_range_train_config_threshold_is_corrupt_bundle(
            self, tmp_path, data_csv, capsys, command):
        def edit(train_config):
            train_config["threshold"] = 1.5
        code, out_path = self._predict_with_edited_bundle(
            tmp_path, data_csv, edit, part="train_config", command=command
        )
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "threshold", "(0, 1)")

    @pytest.mark.parametrize("path, value, fragment", [
        (("accuracy",), "high", "metrics_at_save accuracy must be a number"),
        (("f1",), 1.5, "metrics_at_save f1 must be in [0, 1]"),
        (("matrix", "tp"), -1, "metrics_at_save matrix tp must be in [0, inf)"),
        (("matrix", "fn"), 2.5, "metrics_at_save matrix fn must be an integer"),
        (("matrix", "tn"), True, "metrics_at_save matrix tn must be an integer"),
        (("threshold",), 7, "metrics_at_save threshold must be in (0, 1)"),
        (("model_id",), 3, "metrics_at_save model_id must be a string"),
    ])
    def test_mangled_metrics_at_save_is_corrupt_bundle(
            self, tmp_path, data_csv, capsys, path, value, fragment):
        def edit(report):
            for key in path[:-1]:
                report = report[key]
            report[path[-1]] = value
        code, out_path = self._predict_with_edited_bundle(
            tmp_path, data_csv, edit, part="metrics_at_save", algo="nb", command="evaluate"
        )
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, fragment)

    def test_undefined_metric_at_save_loads(self, tmp_path, data_csv, capsys):
        def edit(report):
            report["precision"] = None
        code, out_path = self._predict_with_edited_bundle(
            tmp_path, data_csv, edit, part="metrics_at_save", algo="nb", command="evaluate"
        )
        assert code == 0 and capsys.readouterr().err == ""
        assert out_path.exists()

    @pytest.mark.parametrize("field, value, fragment", [
        ("vocab", ["ASY", "NAP"], "vocab"),
        ("vocab", {"ChestPainType": "ASY"}, "vocab ChestPainType"),
        ("vocab", {"Sex": ["F", 1]}, "vocab Sex token"),
        ("modes", ["ASY"], "modes"),
        ("modes", {"Sex": 1}, "modes Sex"),
        ("global_medians", ["54"], "global_medians"),
        ("global_medians", {"Age": "54"}, "global_medians Age"),
        ("global_medians", {"Age": None}, "global_medians Age"),
        ("impute_table medians", [], "impute_table medians"),
        ("impute_table medians", {"Age": "54"}, "impute_table medians Age"),
        ("scale_stats", [], "scale_stats"),
    ])
    def test_mistyped_preprocessor_field_is_corrupt_bundle(
            self, tmp_path, data_csv, capsys, field, value, fragment):
        def edit(preprocessor):
            if field == "impute_table medians":
                preprocessor["impute_table"][0]["medians"] = value
            elif isinstance(value, dict):
                preprocessor[field].update(value)
            else:
                preprocessor[field] = value
        code, out_path = self._predict_with_edited_bundle(
            tmp_path, data_csv, edit, part="preprocessor", algo="nb", command="evaluate"
        )
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, fragment)

    _DELETE = object()
    _SWAPS = (None, True, "zz", [], {})

    @classmethod
    def _mutations(cls, doc, path=()):
        """(path, replacement) for each key or list element at any depth of
        `doc`: deleted (`_DELETE`), then swapped for each of `_SWAPS`."""
        children = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, child in children:
            for replacement in (cls._DELETE,) + cls._SWAPS:
                yield path + (key,), replacement
            if isinstance(child, (dict, list)):
                yield from cls._mutations(child, path + (key,))

    def test_mutated_preprocessor_fails_with_one_line(self, tmp_path, capsys):
        """Every structural mutation of an rnn bundle's preprocessor section
        either scores or fails with one `E_` line, never a traceback."""
        data = tmp_path / "data.csv"
        write_csv(synth_generate(30, 0.5, seed=8), data)
        bundle_path = train_bundle(tmp_path, str(data), "rnn", extra=(
            "--param", "max_epochs=1", "--param", "hidden_size=2", "--smote-k", "2",
            "--unseen-policy", "map_to_mode"))
        text = Path(bundle_path).read_text(encoding="utf-8")
        unlabeled = self._csv_with_cells(  # an unseen category and two missing readings
            unlabeled_from(str(data), tmp_path / "unlabeled.csv", n_rows=4), tmp_path / "probe.csv",
            {(0, "ChestPainType"): "XX", (1, "RestingBP"): "0", (1, "Cholesterol"): "0"})
        edited, out_path = tmp_path / "edited.json", tmp_path / "preds.csv"
        capsys.readouterr()
        runs = 0
        for path, replacement in self._mutations(json.loads(text)["preprocessor"]):
            doc = json.loads(text)
            parent = doc["preprocessor"]
            for key in path[:-1]:
                parent = parent[key]
            if replacement is self._DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = replacement
            edited.write_text(json.dumps(doc), encoding="utf-8")
            code = main(["predict", "--bundle", str(edited), "--data", unlabeled,
                         "--out", str(out_path)])
            err = capsys.readouterr().err
            if code != 0:
                assert err.startswith("E_") and len(err.splitlines()) == 1, (path, replacement)
            runs += 1
        assert runs > 300

    _EXTREMES = (1e200, -1e200, 1e308, 5e-324)

    @classmethod
    def _magnitudes(cls, doc, path=()):
        """(path, replacement) for each number or list at any depth of `doc`:
        every number in it set to each of `_EXTREMES`."""
        def is_number(value):
            return isinstance(value, (int, float)) and not isinstance(value, bool)

        def fill(value, extreme):
            if isinstance(value, list):
                return [fill(v, extreme) for v in value]
            return extreme if is_number(value) else value

        children = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, child in children:
            if is_number(child) or isinstance(child, list):
                for extreme in cls._EXTREMES:
                    yield path + (key,), fill(child, extreme)
            if isinstance(child, (dict, list)):
                yield from cls._magnitudes(child, path + (key,))

    _FUZZ_CASES = 400

    def test_mutated_bundles_configs_and_grids_fail_with_one_line(
            self, tmp_path, capsys, monkeypatch):
        """A fixed SplitMix64 sample of mutations of every section of all four
        families' bundles, of a config file and of a grid file either succeeds
        without `nan` in its output or fails with one `E_` line and exit code
        2-6; never a traceback or a warning. Bundle sections and the config also
        take extreme magnitudes, one number or a whole array at a time; the grid
        file takes them in its own test, so that this sample stays as drawn."""
        monkeypatch.chdir(tmp_path)
        write_csv(synth_generate(30, 0.5, seed=8), tmp_path / "data.csv")
        unlabeled = unlabeled_from("data.csv", tmp_path / "unlabeled.csv", n_rows=4)
        sources = {}  # name -> (document, its key that is mutated, command run on it)
        for algo in ("nb", "gb", "xgb", "rnn"):
            bundle_path = train_bundle(tmp_path, "data.csv", algo, self._QUICK_FIT[algo])
            bundle = json.loads(Path(bundle_path).read_text(encoding="utf-8"))
            for part in ("preprocessor", "model", "train_config"):
                sources[f"{algo} {part}"] = (bundle, part, [
                    "predict", "--bundle", "edited.json", "--data", unlabeled, "--out", "out.csv"])
        config = {"seed": 7, "smote_k": 3, "test_fraction": 0.3, "threshold": 0.4,
                  "smote_enabled": True, "unseen_policy": "map_to_mode", "params": {}}
        sources["config"] = ({"doc": config}, "doc", [
            "train", "--data", "data.csv", "--algo", "nb", "--config", "edited.json",
            "--out", "out.json"])
        grid = {"grid": {"n_rounds": [2], "learning_rate": [0.5]}, "k": 2, "seed": 1,
                "selection_metric": "f1"}
        sources["grid"] = ({"doc": grid}, "doc", [
            "gridsearch", "--data", "data.csv", "--algo", "gb", "--grid", "edited.json",
            "--out", "out.csv", "--unseen-policy", "map_to_mode"])
        cases = [(name, path, replacement)
                 for name, (doc, part, _) in sources.items()
                 for path, replacement in self._mutations(doc[part])]
        cases += [(name, path, replacement)
                  for name, (doc, part, _) in sources.items() if name != "grid"
                  for path, replacement in self._magnitudes(doc[part])]
        nb_means = sources["nb model"][0]["model"]["means"]
        huge_means = ("nb model", ("means",), [[1e200] * len(row) for row in nb_means])
        assert huge_means in cases
        rng = SplitMix64(12)
        sample = [huge_means] + [cases[rng.randint(len(cases))] for _ in range(self._FUZZ_CASES)]
        capsys.readouterr()
        for name, path, replacement in sample:
            document, part, argv = sources[name]
            doc = json.loads(json.dumps(document))
            parent = doc[part]
            for key in path[:-1]:
                parent = parent[key]
            if replacement is self._DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = replacement
            edited = doc if part != "doc" else doc["doc"]
            (tmp_path / "edited.json").write_text(json.dumps(edited), encoding="utf-8")
            for stale in ("out.csv", "out.json"):
                if (tmp_path / stale).exists():
                    os.remove(tmp_path / stale)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # a warning is a stderr line too
                code = main(argv)
            captured = capsys.readouterr()
            where = (name, path, reprlib.repr(replacement))
            assert code in (0, 2, 3, 4, 5, 6), where
            if code == 0:
                outputs = [captured.out] + [
                    (tmp_path / out).read_text(encoding="utf-8")
                    for out in ("out.csv", "out.json") if (tmp_path / out).exists()]
                assert captured.err == "" and not any("nan" in text for text in outputs), where
            else:
                assert captured.err.startswith("E_"), where
                assert len(captured.err.splitlines()) == 1, where

    _GRID_FUZZ_CASES = 96

    def test_grid_files_with_extreme_magnitudes_fail_with_one_line(
            self, tmp_path, capsys, monkeypatch):
        """A fixed SplitMix64 sample of gb, xgb and rnn grid files, each with one
        number set to one of `_EXTREMES`, either succeeds without `nan` in its
        output or fails with one `E_` line and exit code 2-6; never a traceback
        or a warning; unseen categories map to the mode, so that the valid
        cases fit. No extreme is a valid n_rounds, max_epochs or hidden_size,
        so no case starts a long fit."""
        monkeypatch.chdir(tmp_path)
        write_csv(synth_generate(30, 0.5, seed=8), tmp_path / "data.csv")
        grids = {
            "gb": {"n_rounds": [2], "learning_rate": [0.5], "max_depth": [2],
                   "min_child_weight": [1.0]},
            "xgb": {"n_rounds": [2], "max_depth": [2], "reg_lambda": [1.0], "gamma": [0.0]},
            "rnn": {"max_epochs": [2], "patience": [2], "batch_size": [16], "hidden_size": [3],
                    "learning_rate": [0.01], "rms_decay": [0.9], "epsilon": [1e-8],
                    "init_scale": [0.1]},
        }
        cases = [(algo, {"grid": grid, "k": 2, "seed": 1}, path, replacement)
                 for algo, grid in grids.items()
                 for path, replacement in self._magnitudes({"grid": grid, "k": 2, "seed": 1})]
        rng = SplitMix64(31)
        sample = [cases[rng.randint(len(cases))] for _ in range(self._GRID_FUZZ_CASES)]
        capsys.readouterr()
        codes = set()
        for algo, grid_doc, path, replacement in sample:
            doc = json.loads(json.dumps(grid_doc))
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = replacement
            (tmp_path / "grid.json").write_text(json.dumps(doc), encoding="utf-8")
            if (tmp_path / "out.csv").exists():
                os.remove(tmp_path / "out.csv")
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # a warning is a stderr line too
                code = main(["gridsearch", "--data", "data.csv", "--algo", algo,
                             "--grid", "grid.json", "--out", "out.csv",
                             "--unseen-policy", "map_to_mode"])
            captured = capsys.readouterr()
            codes.add(code)
            where = (algo, path, replacement)
            assert code in (0, 2, 3, 4, 5, 6), where
            if code == 0:
                out = (tmp_path / "out.csv").read_text(encoding="utf-8")
                assert captured.err == "" and "nan" not in captured.out + out, where
            else:
                assert captured.err.startswith("E_"), where
                assert len(captured.err.splitlines()) == 1, where
        assert codes == {0, 4}  # the sample fits some grids and rejects others

    _CSV_FUZZ_CASES = 320
    _CSV_MUTATIONS = ("truncate", "nul", "quote", "long field", "line ends", "non-utf8")

    @classmethod
    def _csv_mutation(cls, data: bytes, rng: SplitMix64):
        """(kind, mutated bytes): one byte-level mutation of `data` drawn from `rng`."""
        kind = cls._CSV_MUTATIONS[rng.randint(len(cls._CSV_MUTATIONS))]
        at = rng.randint(len(data) + 1)
        if kind == "truncate":
            return kind, data[:at]
        if kind == "line ends":
            lines = data.split(b"\n")
            return kind, lines[0] + b"".join(
                (b"\r\n", b"\r", b"\n\n", b"\n")[rng.randint(4)] + line for line in lines[1:])
        if kind == "long field":
            # 140000 characters is over the csv module's field limit
            inserted = (b"9", b"x", b",", b" ")[rng.randint(4)] * (40, 5000, 140_000)[rng.randint(3)]
        elif kind == "non-utf8":
            inserted = (b"\xff", b"\xc3", b"\xe9", b"\x80")[rng.randint(4)]
        else:
            inserted = {"nul": b"\x00", "quote": b'"'}[kind]
        return kind, data[:at] + inserted + data[at:]

    def test_mutated_csv_files_fail_with_one_line(self, tmp_path, capsys, monkeypatch):
        """A fixed SplitMix64 sample of one or two byte-level mutations of a
        labeled and an unlabeled file, each run through every command that
        reads that kind of file, either succeeds without `nan` in its output
        or fails with one `E_` line and exit code 2-6; never a traceback or a
        warning."""
        monkeypatch.chdir(tmp_path)
        write_csv(synth_generate(40, 0.5, seed=8), tmp_path / "data.csv")
        labeled = (tmp_path / "data.csv").read_bytes()
        unlabeled_from("data.csv", tmp_path / "unlabeled.csv", n_rows=8)
        unlabeled = (tmp_path / "unlabeled.csv").read_bytes()
        bundle = train_bundle(tmp_path, "data.csv")
        (tmp_path / "grid.json").write_text(json.dumps({"grid": {"n_rounds": [2]}, "k": 2}),
                                            encoding="utf-8")
        commands = {  # command -> (the file it reads, its other flags)
            "summarize": (labeled, []),
            "preprocess": (labeled, ["--out", "out.csv"]),
            "train": (labeled, ["--algo", "nb", "--out", "out.json"]),
            "evaluate": (labeled, ["--bundle", bundle, "--out", "out.csv"]),
            "gridsearch": (labeled, ["--algo", "gb", "--grid", "grid.json",
                                     "--unseen-policy", "map_to_mode", "--out", "out.csv"]),
            "compare": (labeled, ["--out", "out.csv"]),
            "curves": (labeled, ["--param", "max_epochs=2", "--out", "out.csv"]),
            "predict": (unlabeled, ["--bundle", bundle, "--out", "out.csv"]),
        }
        names = sorted(commands)
        rng = SplitMix64(23)
        seen_kinds, seen_outcomes = set(), set()
        capsys.readouterr()
        for _ in range(self._CSV_FUZZ_CASES):
            command = names[rng.randint(len(names))]
            data, flags = commands[command]
            kinds = []
            for _ in range(1 + rng.randint(2)):
                kind, data = self._csv_mutation(data, rng)
                kinds.append(kind)
            (tmp_path / "in.csv").write_bytes(data)
            for stale in ("out.csv", "out.json"):
                if (tmp_path / stale).exists():
                    os.remove(tmp_path / stale)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # a warning is a stderr line too
                code = main([command, "--data", "in.csv", *flags])
            captured = capsys.readouterr()
            where = (command, kinds, reprlib.repr(data))
            assert code in (0, 2, 3, 4, 5, 6), where
            if code == 0:
                outputs = [captured.out] + [
                    (tmp_path / out).read_text(encoding="utf-8")
                    for out in ("out.csv", "out.json") if (tmp_path / out).exists()]
                assert captured.err == "" and not any("nan" in text for text in outputs), where
            else:
                assert captured.err.startswith("E_"), where
                assert len(captured.err.splitlines()) == 1, where
            seen_kinds.update(kinds)
            seen_outcomes.add((command, code == 0))
        assert seen_kinds == set(self._CSV_MUTATIONS)
        assert {command for command, _ in seen_outcomes} == set(commands)
        assert {ok for _, ok in seen_outcomes} == {True, False}

    def test_deeply_nested_bundle_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        bundle_path = train_bundle(tmp_path, data_csv, "gb", extra=self._QUICK_FIT["gb"])
        doc = json.loads(Path(bundle_path).read_text(encoding="utf-8"))
        doc["model"]["trees"] = ["DEEP"]
        split = '{"feature": 0, "threshold": 0.0, "right": {"weight": 0.0}, "left": '
        deep = split * 3000 + '{"weight": 0.0}' + "}" * 3000
        edited = tmp_path / "deep.json"
        edited.write_text(json.dumps(doc).replace('"DEEP"', deep), encoding="utf-8")
        out_path = tmp_path / "report.csv"
        code = main(["evaluate", "--bundle", str(edited), "--data", data_csv,
                     "--out", str(out_path)])
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "not valid JSON")

    def _csv_with_trailing_cells(self, source, path):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
        lines[3] += ",999,junk"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def _assert_one_row_2_schema_line(self, code, capsys):
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("E_SCHEMA SchemaMismatch: row 2 ")
        assert len(err.strip().splitlines()) == 1

    def test_labeled_row_with_trailing_cells_is_rejected(self, tmp_path, data_csv, capsys):
        padded = self._csv_with_trailing_cells(data_csv, tmp_path / "padded.csv")
        self._assert_one_row_2_schema_line(main(["summarize", "--data", padded]), capsys)

    def test_unlabeled_row_with_trailing_cells_is_rejected(self, tmp_path, data_csv, capsys):
        bundle_path = train_bundle(tmp_path, data_csv)
        unlabeled = unlabeled_from(data_csv, tmp_path / "unlabeled.csv", n_rows=5)
        padded = self._csv_with_trailing_cells(unlabeled, tmp_path / "padded.csv")
        out_path = tmp_path / "preds.csv"
        code = main(["predict", "--bundle", bundle_path, "--data", padded,
                     "--out", str(out_path)])
        self._assert_one_row_2_schema_line(code, capsys)
        assert not out_path.exists()

    def test_over_long_integer_format_version_is_corrupt_bundle(self, tmp_path, data_csv, capsys):
        bundle_path = train_bundle(tmp_path, data_csv)
        text = Path(bundle_path).read_text(encoding="utf-8")
        assert text.count('"format_version": 1,') == 1
        huge = tmp_path / "huge.json"
        huge.write_text(
            text.replace('"format_version": 1,', '"format_version": ' + "1" * 5001 + ","),
            encoding="utf-8",
        )
        unlabeled = unlabeled_from(data_csv, tmp_path / "unlabeled.csv", n_rows=5)
        out_path = tmp_path / "preds.csv"
        code = main(["predict", "--bundle", str(huge), "--data", unlabeled, "--out", str(out_path)])
        self._assert_one_corrupt_bundle_line(code, out_path, capsys)

    def test_non_utf8_csv_is_data_error(self, tmp_path, data_csv, capsys):
        text = Path(data_csv).read_text(encoding="utf-8")
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(text.replace("ASY", "ASÝ", 1).encode("latin-1"))
        code = main(["summarize", "--data", str(latin1)])
        assert code == 6
        err = capsys.readouterr().err
        assert err.startswith("E_DATA BadEncoding:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["summarize", "train", "gridsearch", "predict"])
    def test_over_long_cell_is_one_data_line(self, tmp_path, data_csv, command, capsys):
        # the csv module refuses a field longer than its 131072-character limit
        out_path = tmp_path / "out.csv"
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"grid": {"n_rounds": [2]}}), encoding="utf-8")
        source = data_csv
        flags = {
            "summarize": [],
            "train": ["--algo", "nb", "--out", str(out_path)],
            "gridsearch": ["--algo", "gb", "--grid", str(grid_path), "--out", str(out_path)],
            "predict": ["--out", str(out_path)],
        }[command]
        if command == "predict":
            source = unlabeled_from(data_csv, tmp_path / "unlabeled.csv")
            flags += ["--bundle", train_bundle(tmp_path, data_csv)]
            capsys.readouterr()
        lines = Path(source).read_text(encoding="utf-8").splitlines()
        lines[3] = "1" * 200_000 + lines[3]
        long_csv = tmp_path / "long.csv"
        long_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = [command, "--data", str(long_csv), *flags]
        assert main(args) == 6
        err = capsys.readouterr().err
        assert err.startswith(f"E_DATA MalformedCsv: {long_csv}: row 2: field larger than")
        assert len(err.strip().splitlines()) == 1
        assert not out_path.exists()


class TestSummarize:
    def test_prints_counts_and_histograms(self, data_csv, capsys):
        assert main(["summarize", "--data", data_csv]) == 0
        out = capsys.readouterr().out
        assert "records: 80  positive: 40  negative: 40" in out
        assert "Age" in out and "Sex:" in out

    def test_optional_csv(self, tmp_path, data_csv, capsys):
        out_path = tmp_path / "summary.csv"
        assert main(["summarize", "--data", data_csv, "--out", str(out_path)]) == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "feature,count,missing,min,max,mean,std"
        assert len(lines) == 1 + 6  # six numeric columns


class TestPreprocess:
    def test_reports_balance_and_standardization(self, data_csv, capsys):
        assert main(["preprocess", "--data", data_csv, "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "train rows: 64  test rows: 16" in out
        assert "after  oversampling (neg, pos): (32, 32)" in out
        assert "(retained)" in out

    def test_matrix_export(self, tmp_path, data_csv):
        out_path = tmp_path / "matrix.csv"
        assert main(["preprocess", "--data", data_csv, "--out", str(out_path)]) == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0].endswith(",label")
        assert len(lines[0].split(",")) == 12
        assert len(lines) == 1 + 64  # balanced training matrix

    def test_no_smote_flag(self, data_csv, capsys):
        assert main(["preprocess", "--data", data_csv, "--no-smote"]) == 0
        out = capsys.readouterr().out
        before = [line for line in out.splitlines() if "before oversampling" in line][0]
        after = [line for line in out.splitlines() if "after  oversampling" in line][0]
        assert before.split(":")[1] == after.split(":")[1]


class TestTrain:
    def test_writes_bundle_and_report(self, tmp_path, data_csv, capsys):
        report_csv_path = tmp_path / "report.csv"
        bundle_path = train_bundle(
            tmp_path, data_csv, "xgb",
            extra=("--param", "n_rounds=10", "--report-csv", str(report_csv_path)),
        )
        out = capsys.readouterr().out
        assert "bundle written to" in out
        loaded = load_bundle(bundle_path)
        assert loaded.train_config["params"]["n_rounds"] == 10
        lines = report_csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model,threshold,accuracy,precision,recall,f1,tp,fp,fn,tn"
        assert lines[1].startswith("XGBoost,")

    def test_rnn_writes_default_curves_file(self, tmp_path, data_csv):
        out = tmp_path / "rnn.json"
        code = main([
            "train", "--data", data_csv, "--algo", "rnn", "--out", str(out),
            "--param", "max_epochs=3", "--param", "hidden_size=4",
        ])
        assert code == 0
        curves = tmp_path / "rnn_curves.csv"
        lines = curves.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 1 + 3

    def test_curves_flag_on_non_rnn_rejected(self, tmp_path, data_csv, capsys):
        code = main([
            "train", "--data", data_csv, "--algo", "gb",
            "--curves", str(tmp_path / "c.csv"),
        ])
        assert code == 4
        assert "rnn" in capsys.readouterr().err

    def test_unknown_param_rejected(self, data_csv, capsys):
        code = main(["train", "--data", data_csv, "--algo", "nb", "--param", "bogus=1"])
        assert code == 4
        assert "bogus" in capsys.readouterr().err

    def test_malformed_param_rejected(self, data_csv, capsys):
        code = main(["train", "--data", data_csv, "--algo", "gb", "--param", "n_rounds"])
        assert code == 4

    def test_non_integer_integral_param_rejected(self, data_csv, capsys):
        code = main(["train", "--data", data_csv, "--algo", "gb",
                     "--param", "n_rounds=2.5"])
        assert code == 4

    def test_oversized_hidden_size_rejected(self, tmp_path, data_csv, capsys):
        # checked by its error only: a fit at this size would draw 10^10 values
        out_path = tmp_path / "model.json"
        code = main(["train", "--data", data_csv, "--algo", "rnn",
                     "--param", "hidden_size=100000", "--out", str(out_path)])
        assert code == 4
        assert capsys.readouterr().err == (
            "E_CONFIG BadHyperparameter: hidden_size must be in [1, 1024], got 100000\n")
        assert not out_path.exists()

    def test_integer_param_keeps_every_digit(self, tmp_path, data_csv):
        out_path = tmp_path / "model.json"
        code = main(["train", "--data", data_csv, "--algo", "rnn", *_RNN_PARAMS,
                     "--param", "patience=9007199254740993", "--out", str(out_path)])
        assert code == 0
        assert load_bundle(str(out_path)).train_config["params"]["patience"] == 9007199254740993

    def test_max_depth_above_its_bound_rejected(self, tmp_path, data_csv, capsys):
        # checked by its error only: a deep enough fit overflows the stack
        out_path = tmp_path / "model.json"
        code = main(["train", "--data", data_csv, "--algo", "xgb",
                     "--param", "max_depth=257", "--out", str(out_path)])
        assert code == 4
        assert capsys.readouterr().err == (
            "E_CONFIG BadHyperparameter: max_depth must be in [1, 256], got 257\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("algo, name", [
        ("gb", "n_rounds"), ("xgb", "n_rounds"), ("rnn", "max_epochs"),
    ])
    @pytest.mark.parametrize("value", ["10001", "1e200"])
    def test_rounds_and_epochs_above_their_bound_rejected(
            self, tmp_path, data_csv, capsys, monkeypatch, algo, name, value):
        # checked by its error only: a fit this long would run for hours
        monkeypatch.setattr(cli, "run_training", lambda *args: pytest.fail("a fit began"))
        out_path = tmp_path / "model.json"
        code = main(["train", "--data", data_csv, "--algo", algo,
                     "--param", f"{name}={value}", "--out", str(out_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"E_CONFIG BadHyperparameter: {name} must be in [1, 10000], got ")
        assert len(err.splitlines()) == 1
        assert not out_path.exists()

    def test_huge_smote_k_is_one_config_error(self, tmp_path, data_csv, capsys):
        # smote_k stays unbounded: smote compares k with the minority count
        # before it allocates anything
        out_path = tmp_path / "model.json"
        code = main(["train", "--data", data_csv, "--algo", "nb",
                     "--smote-k", "1" + "0" * 30, "--out", str(out_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG KTooLarge: k=1000000000000000000000000000000 exceeds")
        assert len(err.splitlines()) == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_param_rejected(self, data_csv, capsys, value):
        code = main(["train", "--data", data_csv, "--algo", "gb",
                     "--param", f"n_rounds={value}"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:")
        assert "n_rounds" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("algo, extra", [("gb", ()), ("xgb", ("--param", "reg_lambda=0"))])
    def test_node_without_curvature_is_a_zero_leaf(self, tmp_path, capsys, algo, extra):
        """Rows saturate (p exactly 0 or 1, so h = 0); with lambda = 0 a node's
        H + lambda is then 0, and the node is a leaf of weight 0."""
        data = tmp_path / "data.csv"
        write_csv(synth_generate(80, 0.5, seed=1), data)
        bundle_path = train_bundle(tmp_path, str(data), algo, extra=(
            "--param", "learning_rate=1.0", "--param", "min_child_weight=0", *extra))
        out_path = tmp_path / "preds.csv"
        unlabeled = unlabeled_from(str(data), tmp_path / "unlabeled.csv")
        assert main(["predict", "--bundle", bundle_path, "--data", unlabeled,
                     "--out", str(out_path)]) == 0
        assert capsys.readouterr().err == ""
        assert "nan" not in out_path.read_text(encoding="utf-8")


class TestEvaluateAndPredict:
    def test_evaluate_bundle(self, tmp_path, data_csv, capsys):
        bundle_path = train_bundle(tmp_path, data_csv, "gb", extra=("--param", "n_rounds=10"))
        capsys.readouterr()
        report_path = tmp_path / "eval.csv"
        code = main([
            "evaluate", "--bundle", bundle_path, "--data", data_csv,
            "--out", str(report_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "GradientBoosting" in out
        lines = report_path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("model,threshold,")

    def test_predict_unlabeled(self, tmp_path, data_csv, capsys):
        bundle_path = train_bundle(tmp_path, data_csv)
        unlabeled = unlabeled_from(data_csv, tmp_path / "unlabeled.csv", n_rows=5)
        out_path = tmp_path / "preds.csv"
        code = main([
            "predict", "--bundle", bundle_path, "--data", unlabeled,
            "--out", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row_index,probability,label"
        assert len(lines) == 1 + 5
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == str(i)
            assert 0.0 <= float(cells[1]) <= 1.0
            assert cells[2] in ("0", "1")

    def test_predict_zero_rows(self, tmp_path, data_csv, capsys):
        bundle_path = train_bundle(tmp_path, data_csv)
        unlabeled = unlabeled_from(data_csv, tmp_path / "empty.csv", n_rows=0)
        out_path = tmp_path / "preds.csv"
        code = main([
            "predict", "--bundle", bundle_path, "--data", unlabeled,
            "--out", str(out_path),
        ])
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == "row_index,probability,label\n"
        assert "wrote 0 prediction(s)" in capsys.readouterr().out

    def test_predict_rejects_labeled_input(self, tmp_path, data_csv, capsys):
        bundle_path = train_bundle(tmp_path, data_csv)
        code = main(["predict", "--bundle", bundle_path, "--data", data_csv])
        assert code == 3
        assert capsys.readouterr().err.startswith("E_SCHEMA SchemaMismatch:")

    def test_predict_threshold_flag_changes_labels(self, tmp_path, data_csv):
        bundle_path = train_bundle(tmp_path, data_csv)
        unlabeled = unlabeled_from(data_csv, tmp_path / "u.csv", n_rows=8)
        low = tmp_path / "low.csv"
        high = tmp_path / "high.csv"
        assert main(["predict", "--bundle", bundle_path, "--data", unlabeled,
                     "--threshold", "0.001", "--out", str(low)]) == 0
        assert main(["predict", "--bundle", bundle_path, "--data", unlabeled,
                     "--threshold", "0.999", "--out", str(high)]) == 0
        low_labels = [line.split(",")[2] for line in low.read_text().splitlines()[1:]]
        high_labels = [line.split(",")[2] for line in high.read_text().splitlines()[1:]]
        assert low_labels.count("1") >= high_labels.count("1")


    @pytest.mark.parametrize("stored, flags, expected", [
        (0.999, (), 0.999),             # no flag: the bundle's stored threshold
        (0.999, ("--threshold", "0.001"), 0.001),
        (None, (), 0.5),                # no flag and none stored: RunConfig's default
    ])
    def test_predict_threshold_resolution(self, tmp_path, data_csv, stored, flags, expected):
        bundle_path = train_bundle(tmp_path, data_csv, "gb", extra=("--param", "n_rounds=5"))
        doc = json.loads(Path(bundle_path).read_text(encoding="utf-8"))
        if stored is None:
            del doc["train_config"]["threshold"]
        else:
            doc["train_config"]["threshold"] = stored
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc), encoding="utf-8")
        unlabeled = unlabeled_from(data_csv, tmp_path / "u.csv")
        out_path = tmp_path / "preds.csv"
        assert main(["predict", "--bundle", str(edited), "--data", unlabeled,
                     "--out", str(out_path), *flags]) == 0
        cells = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        rows = [(float(p), label) for _, p, label in cells]
        assert rows and all(label == ("1" if p >= expected else "0") for p, label in rows)
        assert any(label != ("1" if p >= 0.5 else "0") for p, label in rows) == (expected != 0.5)

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_out_of_range_threshold_flag_rejected(self, tmp_path, data_csv, capsys, command):
        bundle_path = train_bundle(tmp_path, data_csv)
        data = unlabeled_from(data_csv, tmp_path / "u.csv") if command == "predict" else data_csv
        out_path = tmp_path / "out.csv"
        code = main([command, "--bundle", bundle_path, "--data", data,
                     "--threshold", "1.5", "--out", str(out_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter: threshold must be in (0, 1), got 1.5")
        assert len(err.strip().splitlines()) == 1
        assert not out_path.exists()


class TestConfigFile:
    def test_config_overrides_flags(self, tmp_path, data_csv):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 7}), encoding="utf-8")
        out = tmp_path / "model.json"
        code = main([
            "train", "--data", data_csv, "--algo", "nb", "--seed", "42",
            "--config", str(config_path), "--out", str(out),
        ])
        assert code == 0
        assert load_bundle(str(out)).train_config["seed"] == 7

    def test_config_params_override_param_flags(self, tmp_path, data_csv):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"params": {"n_rounds": 4}}), encoding="utf-8")
        out = tmp_path / "model.json"
        code = main([
            "train", "--data", data_csv, "--algo", "gb",
            "--param", "n_rounds=9", "--param", "learning_rate=0.5",
            "--config", str(config_path), "--out", str(out),
        ])
        assert code == 0
        params = load_bundle(str(out)).train_config["params"]
        assert params["n_rounds"] == 4
        assert params["learning_rate"] == 0.5

    def test_unknown_config_key_rejected(self, tmp_path, data_csv, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"mystery": 1}), encoding="utf-8")
        code = main(["train", "--data", data_csv, "--algo", "nb",
                     "--config", str(config_path)])
        assert code == 4
        assert "mystery" in capsys.readouterr().err

    def test_inapplicable_config_key_rejected(self, tmp_path, data_csv, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"k": 3}), encoding="utf-8")
        code = main(["summarize", "--data", data_csv, "--config", str(config_path)])
        assert code == 4
        assert "does not apply" in capsys.readouterr().err

    def test_invalid_config_json_rejected(self, tmp_path, data_csv, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("{oops", encoding="utf-8")
        code = main(["train", "--data", data_csv, "--algo", "nb",
                     "--config", str(config_path)])
        assert code == 4

    def _preprocess_with_config(self, tmp_path, data_csv, doc):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        return main(["preprocess", "--data", data_csv, "--config", str(config_path)])

    # the required flags of each command; the config check runs before any file is read
    _REQUIRED = {
        "summarize": [], "preprocess": [], "compare": [], "curves": [],
        "train": ["--algo", "nb"], "gridsearch": ["--algo", "nb", "--grid", "grid.json"],
        "evaluate": ["--bundle", "model.json"], "predict": ["--bundle", "model.json"],
    }

    def _run_with_config(self, tmp_path, monkeypatch, command, doc):
        monkeypatch.chdir(tmp_path)  # relative default outputs land in tmp_path
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        return main([command, "--data", "data.csv", *self._REQUIRED[command],
                     "--config", str(config_path)])

    @pytest.mark.parametrize("command, key, value, fragment", [
        ("preprocess", "smote_enabled", "false", "smote_enabled"),
        ("preprocess", "smote_k", "abc", "smote_k"),
        ("preprocess", "smote_k", 2.7, "2.7"),
        ("preprocess", "smote_k", True, "smote_k"),
        ("preprocess", "seed", "abc", "seed"),
        ("preprocess", "test_fraction", "0.3", "test_fraction"),
        ("train", "algo", "bogus", "one of nb, gb, xgb, rnn"),
        ("train", "curves", 5, "curves"),
        ("train", "data", 5, "'data' must be a string"),
        ("train", "out", 5, "'out' must be a string"),
        ("train", "params", [], "params"),
        ("train", "report_csv", 5, "report_csv"),
        ("train", "seed", 1.5, "seed"),
        ("train", "smote_enabled", 1, "true or false"),
        ("train", "smote_k", "5", "smote_k"),
        ("train", "test_fraction", True, "test_fraction"),
        ("train", "threshold", "0.5", "threshold"),
        ("train", "unseen_policy", "bogus", "one of error, map_to_mode"),
        ("train", "unseen_policy", None, "unseen_policy"),
        ("gridsearch", "algo", None, "algo"),
        ("gridsearch", "data", 5, "data"),
        ("gridsearch", "grid", 5, "'grid' must be a string"),
        ("gridsearch", "k", "3", "'k' must be an integer"),
        ("gridsearch", "metric", "bogus", "one of accuracy, f1"),
        ("gridsearch", "out", None, "out"),
        ("gridsearch", "seed", True, "seed"),
        ("gridsearch", "smote_enabled", "yes", "smote_enabled"),
        ("gridsearch", "smote_k", 1.0, "smote_k"),
        ("gridsearch", "test_fraction", None, "test_fraction"),
        ("gridsearch", "threshold", [], "threshold"),
        ("gridsearch", "unseen_policy", 7, "unseen_policy"),
        ("evaluate", "bundle", 7, "'bundle' must be a string"),
        ("evaluate", "data", 5, "data"),
        ("evaluate", "out", 5, "out"),
        ("evaluate", "threshold", "x", "threshold"),
        ("predict", "bundle", 7, "'bundle' must be a string"),
        ("predict", "data", 5, "data"),
        ("predict", "out", 5, "out"),
        ("predict", "threshold", None, "threshold"),
        ("predict", "threshold", 10 ** 400, "must be a number"),
    ])
    def test_mistyped_config_value_rejected(self, tmp_path, data_csv, capsys, monkeypatch,
                                            command, key, value, fragment):
        before = set(os.listdir(tmp_path))
        assert self._run_with_config(tmp_path, monkeypatch, command, {key: value}) == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:")
        assert fragment in err and len(err.strip().splitlines()) == 1
        assert set(os.listdir(tmp_path)) == before | {"config.json"}

    # accepted config keys per command, as recorded before the keys were derived from the parser
    _ACCEPTED_KEYS = {
        "summarize": {"data", "out"},
        "preprocess": {"data", "out", "seed", "smote_enabled", "smote_k", "test_fraction",
                       "unseen_policy"},
        "train": {"algo", "curves", "data", "out", "params", "report_csv", "seed",
                  "smote_enabled", "smote_k", "test_fraction", "threshold", "unseen_policy"},
        "evaluate": {"bundle", "data", "out", "threshold"},
        "predict": {"bundle", "data", "out", "threshold"},
        "gridsearch": {"algo", "data", "grid", "k", "metric", "out", "seed", "smote_enabled",
                       "smote_k", "test_fraction", "threshold", "unseen_policy"},
        "compare": {"data", "out", "seed", "smote_enabled", "smote_k", "test_fraction",
                    "threshold", "unseen_policy"},
        "curves": {"data", "out", "params", "seed", "smote_enabled", "smote_k", "test_fraction",
                   "threshold", "unseen_policy"},
    }

    @pytest.mark.parametrize("command", sorted(_ACCEPTED_KEYS))
    def test_accepted_config_keys_pinned(self, tmp_path, capsys, monkeypatch, command):
        candidates = set().union(*self._ACCEPTED_KEYS.values()) | {
            "param", "config", "command", "flags", "help", "mystery"}
        accepted = set()
        for key in sorted(candidates):
            # a list is no flag's value, so an accepted key fails its type check instead
            assert self._run_with_config(tmp_path, monkeypatch, command, {key: []}) == 4
            if "does not apply" not in capsys.readouterr().err:
                accepted.add(key)
        assert accepted == self._ACCEPTED_KEYS[command]

    def test_over_long_integer_param_rejected(self, tmp_path, data_csv, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"params": {"n_rounds": ' + "1" * 5001 + "}}", encoding="utf-8")
        code = main(["train", "--data", data_csv, "--algo", "gb", "--config", str(config_path),
                     "--out", str(tmp_path / "model.json")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:")
        assert len(err.strip().splitlines()) == 1

    def test_deeply_nested_config_rejected(self, tmp_path, data_csv, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"params": ' + '{"a": ' * 100000 + "1" + "}" * 100001,
                               encoding="utf-8")
        out = tmp_path / "model.json"
        code = main(["train", "--data", data_csv, "--algo", "gb", "--config", str(config_path),
                     "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:") and "not valid JSON" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_config_constant_rejected(self, tmp_path, data_csv, capsys, constant):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"threshold": ' + constant + "}", encoding="utf-8")
        code = main(["train", "--data", data_csv, "--algo", "nb", "--config", str(config_path),
                     "--out", str(tmp_path / "model.json")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:") and constant in err
        assert len(err.strip().splitlines()) == 1

    def test_typed_smote_config_applied(self, tmp_path, data_csv, capsys):
        doc = {"smote_enabled": False, "smote_k": 3}
        assert self._preprocess_with_config(tmp_path, data_csv, doc) == 0
        out = capsys.readouterr().out
        before = [line for line in out.splitlines() if "before oversampling" in line][0]
        after = [line for line in out.splitlines() if "after  oversampling" in line][0]
        assert before.split(":")[1] == after.split(":")[1]


class TestModuleEntryPoint:
    def test_python_dash_m_runs_cli(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cardiolearn.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "cardiolearn", "--help"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: cardiolearn")


class TestGridsearch:
    def test_fold_level_csv_and_best_line(self, tmp_path, data_csv, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(
            json.dumps({"grid": {"n_rounds": [2, 4]}, "k": 2}), encoding="utf-8"
        )
        out_path = tmp_path / "results.csv"
        code = main([
            "gridsearch", "--data", data_csv, "--algo", "xgb",
            "--grid", str(grid_path), "--out", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model_id,params,fold,accuracy,precision,recall,f1"
        assert len(lines) == 1 + 2 * 2
        assert "best: n_rounds=" in capsys.readouterr().out

    def test_unknown_grid_file_key_rejected(self, tmp_path, data_csv, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(
            json.dumps({"grid": {"n_rounds": [2]}, "folds": 3}), encoding="utf-8"
        )
        code = main(["gridsearch", "--data", data_csv, "--algo", "gb",
                     "--grid", str(grid_path)])
        assert code == 4
        assert "folds" in capsys.readouterr().err

    # `metric` and `threshold` are gridsearch flags, but no grid-file key sets them
    @pytest.mark.parametrize("key", ["folds", "metric", "threshold"])
    def test_unknown_grid_file_key_does_not_apply(self, tmp_path, data_csv, capsys, key):
        doc = {"grid": {"n_rounds": [2]}, key: 0.5}
        assert self._gridsearch_with(tmp_path, data_csv, doc) == 4
        assert capsys.readouterr().err == (
            f"E_CONFIG BadHyperparameter: grid-file key {key!r} does not apply "
            "to command 'gridsearch'\n")
        assert not (tmp_path / "r.csv").exists()

    def _gridsearch_with(self, tmp_path, data_csv, doc, *flags):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(doc), encoding="utf-8")
        return main(["gridsearch", "--data", data_csv, "--algo", "gb",
                     "--grid", str(grid_path), "--out", str(tmp_path / "r.csv"), *flags])

    @pytest.mark.parametrize("doc, flags, fragment", [
        ({}, ("--seed", "-1"), "seed"),
        ({"seed": -5}, (), "seed"),
        ({}, ("--smote-k", "0"), "smote_k"),
        ({}, ("--threshold", "1.5"), "threshold"),
    ])
    def test_settings_range_checked_like_train(self, tmp_path, data_csv, capsys,
                                               doc, flags, fragment):
        doc = {"grid": {"n_rounds": [2]}, "k": 2, **doc}
        assert self._gridsearch_with(tmp_path, data_csv, doc, *flags) == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:")
        assert fragment in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "r.csv").exists()

    def test_non_numeric_grid_candidate_rejected(self, tmp_path, data_csv, capsys):
        assert self._gridsearch_with(tmp_path, data_csv, {"grid": {"n_rounds": ["x"]}}) == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:")
        assert "n_rounds" in err and len(err.strip().splitlines()) == 1

    def test_fractional_grid_k_rejected(self, tmp_path, data_csv, capsys):
        doc = {"grid": {"n_rounds": [2]}, "k": 2.5}
        assert self._gridsearch_with(tmp_path, data_csv, doc) == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:")
        assert "2.5" in err and len(err.strip().splitlines()) == 1

    def test_string_grid_k_rejected(self, tmp_path, data_csv, capsys):
        doc = {"grid": {"n_rounds": [2]}, "k": "3"}
        assert self._gridsearch_with(tmp_path, data_csv, doc) == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:")
        assert "'k'" in err and len(err.strip().splitlines()) == 1

    def test_over_long_integer_grid_k_rejected(self, tmp_path, data_csv, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text('{"grid": {"n_rounds": [2]}, "k": ' + "1" * 5001 + "}",
                             encoding="utf-8")
        code = main(["gridsearch", "--data", data_csv, "--algo", "gb",
                     "--grid", str(grid_path), "--out", str(tmp_path / "r.csv")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:")
        assert len(err.strip().splitlines()) == 1

    def test_out_of_range_candidate_rejected_before_any_fold(
            self, tmp_path, data_csv, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fold was fitted before every candidate was checked")

        monkeypatch.setattr(evaluation, "fit_algorithm", no_fit)
        grid_path = tmp_path / "grid.json"
        # 100000 is checked by its error only: a fit at that size would draw 10^10 values
        for size in (0, 100000):
            grid_path.write_text(json.dumps({"grid": {"hidden_size": [4, size]}}),
                                 encoding="utf-8")
            code = main(["gridsearch", "--data", data_csv, "--algo", "rnn",
                         "--grid", str(grid_path), "--out", str(tmp_path / "r.csv")])
            assert code == 4
            assert capsys.readouterr().err == (
                f"E_CONFIG BadHyperparameter: hidden_size must be in [1, 1024], got {size}\n")

    def test_deeply_nested_grid_entry_rejected(self, tmp_path, data_csv, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text('{"grid": {"n_rounds": ' + "[" * 100000 + "]" * 100000 + "}}",
                             encoding="utf-8")
        out_path = tmp_path / "r.csv"
        code = main(["gridsearch", "--data", data_csv, "--algo", "gb",
                     "--grid", str(grid_path), "--out", str(out_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:") and "not valid JSON" in err
        assert len(err.strip().splitlines()) == 1
        assert not out_path.exists()

    def test_non_finite_grid_constant_rejected(self, tmp_path, data_csv, capsys):
        doc = '{"grid": {"learning_rate": [0.1, NaN]}}'
        (tmp_path / "grid.json").write_text(doc, encoding="utf-8")
        code = main(["gridsearch", "--data", data_csv, "--algo", "gb",
                     "--grid", str(tmp_path / "grid.json"), "--out", str(tmp_path / "r.csv")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:") and "NaN" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("key, value, fragment", [
        ("selection_metric", "bogus", "one of accuracy, f1"),
        ("selection_metric", 1, "selection_metric"),
        ("seed", 1.5, "'seed' must be an integer"),
        ("k", True, "'k' must be an integer"),
    ])
    def test_grid_file_keys_checked_like_their_flags(self, tmp_path, data_csv, capsys,
                                                      key, value, fragment):
        doc = {"grid": {"n_rounds": [2]}, key: value}
        assert self._gridsearch_with(tmp_path, data_csv, doc) == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter: grid-file key")
        assert fragment in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "r.csv").exists()

    def test_grid_file_settings_override_flags(self, tmp_path, data_csv, capsys):
        doc = {"grid": {"n_rounds": [2]}, "k": 3, "selection_metric": "f1"}
        assert self._gridsearch_with(tmp_path, data_csv, doc, "--k", "2") == 0
        lines = (tmp_path / "r.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 3
        assert "mean f1" in capsys.readouterr().out

    def test_grid_entry_must_be_list(self, tmp_path, data_csv, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"grid": {"n_rounds": 5}}), encoding="utf-8")
        code = main(["gridsearch", "--data", data_csv, "--algo", "gb",
                     "--grid", str(grid_path)])
        assert code == 4


class TestCompareAndCurves:
    def test_compare_table_and_csv(self, tmp_path, capsys):
        path = tmp_path / "small.csv"
        write_csv(synth_generate(60, 0.5, seed=9), path)
        out_path = tmp_path / "compare.csv"
        code = main(["compare", "--data", str(path), "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        for label in ("RNN", "NaiveBayes", "GradientBoosting", "XGBoost"):
            assert label in out
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "algorithm,accuracy,precision,recall,f1"
        assert len(lines) == 5
        assert lines[1].startswith("RNN,")
        # recorded before cross-validation shared the run's preprocessing step
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "969cca13fcadc4e0e9cdbf039d811719ed361350b2f53282176d38d7782c656f")

    def test_curves_command(self, tmp_path, data_csv, capsys):
        out_path = tmp_path / "curves.csv"
        code = main([
            "curves", "--data", data_csv, "--out", str(out_path),
            "--param", "max_epochs=4", "--param", "hidden_size=4",
        ])
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 1 + 4
        assert "best epoch" in capsys.readouterr().out
