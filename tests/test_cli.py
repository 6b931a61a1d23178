"""Command-line interface: flows, file outputs, config files, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import cardiolearn

from conftest import make_dataset
from cardiolearn import evaluation
from cardiolearn.cli import main
from cardiolearn.dataset import synth_generate, write_csv
from cardiolearn.errors import (
    BadHyperparameter,
    FractionOutOfRange,
    SingleClassDataset,
    UnparsableCell,
    VersionMismatch,
)
from cardiolearn.persistence import FORMAT_VERSION, load_bundle


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(synth_generate(80, 0.5, seed=3), path)
    return str(path)


def unlabeled_from(labeled_path, out_path, n_rows=None):
    lines = open(labeled_path, encoding="utf-8").read().splitlines()
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
        doc = json.load(open(bundle_path, encoding="utf-8"))
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
        doc = json.load(open(bundle_path, encoding="utf-8"))
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

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_string_train_config_threshold_is_corrupt_bundle(
            self, tmp_path, data_csv, capsys, command):
        def edit(train_config):
            train_config["threshold"] = "x"
        code, out_path = self._predict_with_edited_bundle(
            tmp_path, data_csv, edit, part="train_config", command=command
        )
        self._assert_one_corrupt_bundle_line(code, out_path, capsys, "threshold")

    def _csv_with_trailing_cells(self, source, path):
        lines = open(source, encoding="utf-8").read().splitlines()
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
        text = open(bundle_path, encoding="utf-8").read()
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
        text = open(data_csv, encoding="utf-8").read()
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(text.replace("ASY", "ASÝ", 1).encode("latin-1"))
        code = main(["summarize", "--data", str(latin1)])
        assert code == 6
        err = capsys.readouterr().err
        assert err.startswith("E_DATA BadEncoding:")
        assert len(err.strip().splitlines()) == 1


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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_param_rejected(self, data_csv, capsys, value):
        code = main(["train", "--data", data_csv, "--algo", "gb",
                     "--param", f"n_rounds={value}"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:")
        assert "n_rounds" in err and len(err.strip().splitlines()) == 1


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

    def test_smote_enabled_string_rejected(self, tmp_path, data_csv, capsys):
        assert self._preprocess_with_config(tmp_path, data_csv, {"smote_enabled": "false"}) == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:")
        assert "smote_enabled" in err and len(err.strip().splitlines()) == 1

    def test_smote_k_string_rejected(self, tmp_path, data_csv, capsys):
        assert self._preprocess_with_config(tmp_path, data_csv, {"smote_k": "abc"}) == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:")
        assert "smote_k" in err and len(err.strip().splitlines()) == 1

    def test_smote_k_float_rejected(self, tmp_path, data_csv, capsys):
        assert self._preprocess_with_config(tmp_path, data_csv, {"smote_k": 2.7}) == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:")
        assert "2.7" in err and len(err.strip().splitlines()) == 1

    def test_smote_k_bool_rejected(self, tmp_path, data_csv, capsys):
        assert self._preprocess_with_config(tmp_path, data_csv, {"smote_k": True}) == 4
        assert capsys.readouterr().err.startswith("E_CONFIG BadHyperparameter:")

    def test_seed_string_rejected(self, tmp_path, data_csv, capsys):
        assert self._preprocess_with_config(tmp_path, data_csv, {"seed": "abc"}) == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:")
        assert "seed" in err and len(err.strip().splitlines()) == 1

    def test_test_fraction_string_rejected(self, tmp_path, data_csv, capsys):
        assert self._preprocess_with_config(tmp_path, data_csv, {"test_fraction": "0.3"}) == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:")
        assert "test_fraction" in err and len(err.strip().splitlines()) == 1

    def test_over_long_integer_param_rejected(self, tmp_path, data_csv, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"params": {"n_rounds": ' + "1" * 5001 + "}}", encoding="utf-8")
        code = main(["train", "--data", data_csv, "--algo", "gb", "--config", str(config_path),
                     "--out", str(tmp_path / "model.json")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter:")
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
        grid_path.write_text(json.dumps({"grid": {"hidden_size": [4, 0]}}), encoding="utf-8")
        code = main(["gridsearch", "--data", data_csv, "--algo", "rnn",
                     "--grid", str(grid_path), "--out", str(tmp_path / "r.csv")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG BadHyperparameter: hidden_size must be in [1, inf)")
        assert len(err.strip().splitlines()) == 1

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
