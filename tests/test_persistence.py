"""JSON persistence: determinism, round trips, and corruption handling."""

import json
import os
import stat

import numpy as np
import pytest

from conftest import fit_in_memory, matrix
from cardiolearn.boosting import BoostConfig, BoostedEnsemble, TreeNode
from cardiolearn.dataset import stratified_split, synth_generate
from cardiolearn.errors import CorruptBundle, SchemaMismatch, VersionMismatch
from cardiolearn.evaluation import ConfusionMatrix, EvalReport, evaluate_model
from cardiolearn.persistence import (
    FORMAT_VERSION,
    atomic_write_text,
    build_bundle,
    bundle_text,
    check_writable,
    deserialize_model,
    deserialize_preprocessor,
    deserialize_report,
    load_bundle,
    save_bundle,
    serialize_model,
    serialize_preprocessor,
    serialize_report,
)
from cardiolearn.pipeline import RunConfig, run_training
from cardiolearn.preprocess import UnseenPolicy, fit, transform
from cardiolearn.training import Algorithm

FAST_PARAMS = {
    Algorithm.NB: {},
    Algorithm.GB: {"n_rounds": 8},
    Algorithm.XGB: {"n_rounds": 8},
    Algorithm.RNN: {"max_epochs": 4, "hidden_size": 4},
}


def fast_config(algorithm: Algorithm, seed=5) -> RunConfig:
    return RunConfig(algorithm=algorithm, seed=seed, params=FAST_PARAMS[algorithm])


def trained_outcome(algorithm: Algorithm, n=80, seed=5):
    data = synth_generate(n, 0.5, seed=2)
    return data, run_training(data, fast_config(algorithm, seed))


class TestAtomicWrite:
    def test_writes_exact_text(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "hello\n")
        assert path.read_text(encoding="utf-8") == "hello\n"

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(str(path), "new")
        assert path.read_text(encoding="utf-8") == "new"

    def test_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "x")
        assert os.listdir(tmp_path) == ["out.txt"]


    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask 022", "umask 077"])
    def test_mode_is_what_open_gives_under_the_umask(self, tmp_path, umask, mode):
        path = tmp_path / "report.csv"
        previous = os.umask(umask)
        try:
            atomic_write_text(str(path), "x")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == mode

    @pytest.mark.parametrize("name", ["nodir/out.txt", "adir", "afile/out.txt"])
    def test_check_writable_raises_what_the_write_would(self, tmp_path, name):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("x")
        before = set(tmp_path.rglob("*"))
        path = str(tmp_path / name)
        with pytest.raises(OSError) as checked:
            check_writable(path)
        with pytest.raises(OSError) as written:
            atomic_write_text(path, "x")
        assert type(checked.value) is type(written.value)
        assert str(checked.value) == str(written.value)
        assert set(tmp_path.rglob("*")) == before

    def test_check_writable_leaves_no_file(self, tmp_path):
        check_writable(str(tmp_path / "out.txt"))
        assert os.listdir(tmp_path) == []


class TestPreprocessorRoundTrip:
    def test_identical_transforms(self):
        data = synth_generate(50, 0.4, seed=6)
        fp = fit(data, unseen_policy=UnseenPolicy.MAP_TO_MODE)
        doc = serialize_preprocessor(fp)
        restored = deserialize_preprocessor(json.loads(json.dumps(doc)))
        assert serialize_preprocessor(restored) == doc
        assert restored.unseen_policy is UnseenPolicy.MAP_TO_MODE
        a = transform(fp, data)
        b = transform(restored, data)
        assert np.array_equal(a.values, b.values)


class TestModelRoundTrips:
    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_predictions_survive_json(self, algorithm):
        data, outcome = trained_outcome(algorithm)
        _, test_m, model = fit_in_memory(data, fast_config(algorithm))
        doc = serialize_model(algorithm, model)
        assert doc == outcome.bundle["model"]  # the model run_training fitted and stored
        restored = deserialize_model(algorithm, json.loads(json.dumps(doc)))
        assert serialize_model(algorithm, restored) == doc
        rows = test_m.values
        assert restored.predict_proba(rows).tolist() == model.predict_proba(rows).tolist()


class TestReportRoundTrip:
    def test_defined_metrics(self):
        report = EvalReport(
            accuracy=0.7, precision=0.75, recall=0.6, f1=2 * 0.45 / 1.35,
            matrix=ConfusionMatrix(3, 1, 2, 4), model_id="m", threshold=0.5,
        )
        assert deserialize_report(serialize_report(report)) == report

    def test_none_metrics_preserved(self):
        report = EvalReport(
            accuracy=0.5, precision=None, recall=0.0, f1=None,
            matrix=ConfusionMatrix(0, 0, 2, 2), model_id="m", threshold=0.5,
        )
        restored = deserialize_report(json.loads(json.dumps(serialize_report(report))))
        assert restored == report
        assert restored.precision is None and restored.f1 is None


class TestBundles:
    def test_loaded_bundle_reproduces_saved_metrics(self, tmp_path):
        data, outcome = trained_outcome(Algorithm.XGB)
        config = fast_config(Algorithm.XGB)
        path = tmp_path / "model.json"
        save_bundle(outcome.bundle, str(path))
        loaded = load_bundle(str(path))
        assert loaded.format_version == FORMAT_VERSION
        assert loaded.algorithm is Algorithm.XGB
        assert loaded.metrics_at_save == outcome.report
        split = stratified_split(data, config.test_fraction, config.seed)
        test_m = transform(loaded.preprocessor, split.test)
        replay = evaluate_model(
            loaded.model, test_m, config.threshold,
            model_id=outcome.report.model_id,
        )
        assert replay == outcome.report

    def test_rnn_bundle_round_trip(self, tmp_path):
        data, outcome = trained_outcome(Algorithm.RNN)
        _, test_m, model = fit_in_memory(data, fast_config(Algorithm.RNN))
        path = tmp_path / "model.json"
        save_bundle(outcome.bundle, str(path))
        loaded = load_bundle(str(path))
        rows = test_m.values
        assert loaded.model.predict_proba(rows).tolist() == pytest.approx(
            model.predict_proba(rows).tolist(), abs=0
        )

    def test_bundle_text_deterministic_given_timestamp(self):
        data, outcome = trained_outcome(Algorithm.GB)
        config = fast_config(Algorithm.GB)
        fp, _, model = fit_in_memory(data, config)
        stamp = "2000-01-01T00:00:00Z"
        a = bundle_text(build_bundle(
            Algorithm.GB, fp, model,
            config.train_config_record(), outcome.report, created_at=stamp,
        ))
        b = bundle_text(build_bundle(
            Algorithm.GB, fp, model,
            config.train_config_record(), outcome.report, created_at=stamp,
        ))
        assert a == b
        assert a.endswith("\n")
        doc = json.loads(a)
        assert doc["created_at"] == stamp

    def test_chain_tree_at_the_max_depth_bound_round_trips(self, tmp_path):
        # built by hand, not fitted: 256 splits, each with a leaf on its left
        depth = 256
        tree = TreeNode(weight=0.5)
        for level in reversed(range(depth)):
            tree = TreeNode(feature=0, threshold=float(level), left=TreeNode(weight=-0.25),
                            right=tree)
        fp = fit(synth_generate(20, 0.5, seed=2))
        width = len(fp.scale_stats) + len(fp.vocab)
        model = BoostedEnsemble(BoostConfig(max_depth=depth), base_score=0.0, trees=[tree],
                                n_features=width)
        text = bundle_text(build_bundle(Algorithm.XGB, fp, model, {}, created_at="pinned"))
        path = tmp_path / "chain.json"
        path.write_text(text, encoding="utf-8")
        loaded = load_bundle(str(path))
        assert bundle_text(build_bundle(Algorithm.XGB, fp, loaded.model, {},
                                        created_at="pinned")) == text
        rows = np.array([[level - 0.5] + [0.0] * (width - 1) for level in (0, 100, depth)])
        assert loaded.model.predict_margin(rows).tolist() == [-0.25, -0.25, 0.5]

    def test_bundle_differs_only_in_created_at_across_runs(self):
        _, outcome_a = trained_outcome(Algorithm.GB)
        _, outcome_b = trained_outcome(Algorithm.GB)
        doc_a = dict(outcome_a.bundle)
        doc_b = dict(outcome_b.bundle)
        doc_a["created_at"] = doc_b["created_at"] = "pinned"
        assert bundle_text(doc_a) == bundle_text(doc_b)

    def test_train_config_recorded(self):
        _, outcome = trained_outcome(Algorithm.GB, seed=9)
        cfg = outcome.bundle["train_config"]
        assert cfg["seed"] == 9
        assert cfg["algorithm"] == "gb"
        assert cfg["params"]["n_rounds"] == 8

    def test_unseen_policy_given_by_value_is_stored(self):
        data = synth_generate(80, 0.5, seed=2)
        outcome = run_training(data, RunConfig(Algorithm.NB, unseen_policy="map_to_mode"))
        assert outcome.bundle["preprocessor"]["unseen_policy"] == "map_to_mode"
        assert outcome.bundle["train_config"]["unseen_policy"] == "map_to_mode"

    def test_version_mismatch(self, tmp_path):
        _, outcome = trained_outcome(Algorithm.NB)
        doc = dict(outcome.bundle)
        doc["format_version"] = FORMAT_VERSION + 1
        path = tmp_path / "model.json"
        path.write_text(bundle_text(doc), encoding="utf-8")
        with pytest.raises(VersionMismatch):
            load_bundle(str(path))

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CorruptBundle):
            load_bundle(str(path))

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(CorruptBundle):
            load_bundle(str(path))

    def test_missing_model_field(self, tmp_path):
        _, outcome = trained_outcome(Algorithm.NB)
        doc = dict(outcome.bundle)
        del doc["model"]
        path = tmp_path / "model.json"
        path.write_text(bundle_text(doc), encoding="utf-8")
        with pytest.raises(CorruptBundle):
            load_bundle(str(path))

    def test_model_and_preprocessor_width_must_agree(self, tmp_path):
        _, outcome = trained_outcome(Algorithm.NB)
        doc = json.loads(bundle_text(outcome.bundle))
        doc["model"]["means"] = [row[:-1] for row in doc["model"]["means"]]
        doc["model"]["variances"] = [row[:-1] for row in doc["model"]["variances"]]
        path = tmp_path / "model.json"
        path.write_text(bundle_text(doc), encoding="utf-8")
        with pytest.raises(SchemaMismatch):
            load_bundle(str(path))

    def test_missing_bundle_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_bundle(str(tmp_path / "absent.json"))

    def test_no_nan_in_serialized_output(self):
        bad = matrix([[0.0]], [1])
        report = EvalReport(
            accuracy=float("nan"), precision=None, recall=None, f1=None,
            matrix=ConfusionMatrix(1, 0, 0, 0), model_id="m", threshold=0.5,
        )
        data = synth_generate(80, 0.5, seed=2)
        fp, _, model = fit_in_memory(data, fast_config(Algorithm.NB))
        doc = build_bundle(
            Algorithm.NB, fp, model, {}, report,
            created_at="t",
        )
        with pytest.raises(ValueError):
            bundle_text(doc)
