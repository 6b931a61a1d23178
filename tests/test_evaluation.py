"""Confusion metrics, cross-validation, and grid search."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import matrix, spread_dataset
from cardiolearn import evaluation, preprocess
from cardiolearn.cli import format_params, results_csv
from cardiolearn.dataset import Dataset, kfold, synth_generate
from cardiolearn.errors import (
    BadHyperparameter,
    EmptyGrid,
    EmptyPredictions,
    FractionOutOfRange,
    LengthMismatch,
)
from cardiolearn.evaluation import (
    METRIC_NAMES,
    ConfusionMatrix,
    EvalReport,
    GridSpec,
    RunConfig,
    SelectionMetric,
    confusion,
    cross_validate,
    encode_folds,
    encode_partitions,
    evaluate_model,
    grid_candidates,
    grid_search,
    metrics,
    summarize_reports,
)
from cardiolearn.persistence import serialize_model, serialize_preprocessor
from cardiolearn.preprocess import UnseenPolicy
from cardiolearn.rng import derive_seed
from cardiolearn.training import Algorithm, fit_algorithm, resolve_params


class FixedProbabilityModel:
    """Predicts its first feature value as the probability."""

    def predict_proba(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float)[:, 0]


def report_with(accuracy, precision=0.5, recall=0.5, f1=0.5) -> EvalReport:
    return EvalReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        matrix=ConfusionMatrix(1, 1, 1, 1),
        model_id="stub",
        threshold=0.5,
    )


class TestRunConfig:
    @pytest.mark.parametrize("settings, error", [
        ({"seed": 1.5}, BadHyperparameter),
        ({"seed": -1}, BadHyperparameter),
        ({"smote_k": 2.5}, BadHyperparameter),
        ({"threshold": float("nan")}, BadHyperparameter),
        ({"test_fraction": "x"}, FractionOutOfRange),
        ({"test_fraction": 1.0}, FractionOutOfRange),
        ({"params": {"n_rounds": 0}}, BadHyperparameter),
        ({"smote_enabled": "no"}, BadHyperparameter),
        ({"smote_enabled": 1}, BadHyperparameter),
        ({"unseen_policy": "bogus"}, BadHyperparameter),
        ({"unseen_policy": None}, BadHyperparameter),
    ], ids=["seed=1.5", "seed=-1", "smote_k=2.5", "threshold=nan", "test_fraction=x",
            "test_fraction=1", "n_rounds=0", "smote_enabled=no", "smote_enabled=1",
            "unseen_policy=bogus", "unseen_policy=None"])
    def test_invalid_setting_rejected_at_construction(self, settings, error):
        with pytest.raises(error):
            RunConfig(Algorithm.XGB, **settings)

    def test_replace_checks_its_result(self):
        with pytest.raises(BadHyperparameter, match="bogus"):
            replace(RunConfig(Algorithm.NB), params={"bogus": 1})

    def test_settings_take_their_field_types(self):
        config = RunConfig(Algorithm.NB, seed=2 ** 53 + 1, smote_k=3.0)
        assert config.seed == 2 ** 53 + 1 and type(config.seed) is int
        assert config.smote_k == 3 and type(config.smote_k) is int

    def test_unseen_policy_value_becomes_its_member(self):
        config = RunConfig(Algorithm.NB, unseen_policy="map_to_mode")
        assert config.unseen_policy is UnseenPolicy.MAP_TO_MODE
        assert replace(config, seed=1).unseen_policy is UnseenPolicy.MAP_TO_MODE


class TestConfusion:
    def test_counts(self):
        cm = confusion([1, 1, 0], [1, 0, 0])
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 0, 1)
        assert cm.total == 3

    def test_all_four_cells(self):
        cm = confusion([1, 0, 1, 0], [1, 1, 0, 0])
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([1, 0], [1])

    def test_empty_rejected(self):
        with pytest.raises(EmptyPredictions):
            confusion([], [])


class TestMetrics:
    def test_worked_example(self):
        report = metrics(ConfusionMatrix(tp=3, fp=1, fn=2, tn=4), 0.5, "m")
        assert report.accuracy == pytest.approx(0.7)
        assert report.precision == pytest.approx(0.75)
        assert report.recall == pytest.approx(0.6)
        assert report.f1 == pytest.approx(2 * 0.75 * 0.6 / (0.75 + 0.6))

    def test_perfect_classifier(self):
        report = metrics(ConfusionMatrix(tp=5, fp=0, fn=0, tn=5), 0.5, "m")
        assert (report.accuracy, report.precision, report.recall, report.f1) == (
            1.0, 1.0, 1.0, 1.0,
        )

    def test_no_positive_predictions_leaves_precision_undefined(self):
        report = metrics(ConfusionMatrix(tp=0, fp=0, fn=3, tn=7), 0.5, "m")
        assert report.precision is None
        assert report.recall == 0.0
        assert report.f1 is None
        assert report.accuracy == pytest.approx(0.7)

    def test_no_actual_positives_leaves_recall_undefined(self):
        report = metrics(ConfusionMatrix(tp=0, fp=2, fn=0, tn=8), 0.5, "m")
        assert report.recall is None
        assert report.f1 is None

    def test_zero_precision_and_recall_leave_f1_undefined(self):
        report = metrics(ConfusionMatrix(tp=0, fp=2, fn=3, tn=5), 0.5, "m")
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 is None

    def test_metric_getter(self):
        report = metrics(ConfusionMatrix(tp=1, fp=0, fn=0, tn=1), 0.4, "m")
        for name in METRIC_NAMES:
            assert report.metric(name) == getattr(report, name)


class TestEvaluateModel:
    def test_threshold_boundary_is_inclusive(self):
        m = matrix([[0.5], [0.49]], [1, 0])
        report = evaluate_model(FixedProbabilityModel(), m, threshold=0.5)
        assert report.matrix.tp == 1
        assert report.matrix.tn == 1
        assert report.accuracy == 1.0

    def test_threshold_monotonicity(self):
        gen = np.random.default_rng(3)
        probs = gen.uniform(0, 1, 40)
        labels = gen.integers(0, 2, 40)
        m = matrix(probs.reshape(-1, 1), labels)
        model = FixedProbabilityModel()
        positives = [
            evaluate_model(model, m, threshold=t).matrix.tp
            + evaluate_model(model, m, threshold=t).matrix.fp
            for t in (0.2, 0.4, 0.6, 0.8)
        ]
        assert all(a >= b for a, b in zip(positives, positives[1:]))

    def test_threshold_validation(self):
        m = matrix([[0.5]], [1])
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(BadHyperparameter):
                evaluate_model(FixedProbabilityModel(), m, threshold=bad)

    def test_default_model_id_is_type_name(self):
        m = matrix([[0.5]], [1])
        report = evaluate_model(FixedProbabilityModel(), m)
        assert report.model_id == "FixedProbabilityModel"
        named = evaluate_model(FixedProbabilityModel(), m, model_id="custom")
        assert named.model_id == "custom"


class TestSummarizeReports:
    def test_mean_and_population_std(self):
        reports = [report_with(0.8), report_with(0.9), report_with(1.0)]
        summary = summarize_reports(reports)
        assert summary.means["accuracy"] == pytest.approx(0.9)
        assert summary.stds["accuracy"] == pytest.approx(0.08165, abs=1e-5)

    def test_any_undefined_fold_poisons_the_metric(self):
        reports = [report_with(0.8, f1=None), report_with(0.9, f1=0.7)]
        summary = summarize_reports(reports)
        assert summary.means["f1"] is None
        assert summary.stds["f1"] is None
        assert summary.means["accuracy"] == pytest.approx(0.85)


class TestCrossValidate:
    def test_fold_count_and_summary(self):
        data = synth_generate(60, 0.5, seed=3)
        config = RunConfig(Algorithm.NB, seed=11)
        result = cross_validate(config, encode_folds(config, data, k=3))
        assert len(result.fold_reports) == 3
        accs = [r.accuracy for r in result.fold_reports]
        assert result.means["accuracy"] == pytest.approx(np.mean(accs))
        for report in result.fold_reports:
            assert report.model_id == "NaiveBayes"

    def test_deterministic(self):
        data = synth_generate(60, 0.5, seed=3)
        config = RunConfig(Algorithm.GB, seed=7, params={"n_rounds": 10})
        a = cross_validate(config, encode_folds(config, data, k=3))
        b = cross_validate(config, encode_folds(config, data, k=3))
        assert [r.accuracy for r in a.fold_reports] == [r.accuracy for r in b.fold_reports]
        assert a.means == b.means

    def test_val_rows_never_reach_fold_fitting(self):
        # mutate one validation-fold record; the fold's fitted preprocessor
        # and model must be bit-identical because fitting sees only train rows
        data = synth_generate(40, 0.5, seed=9)
        k, seed = 4, 5
        fold0_train, fold0_val = kfold(data, k, seed)[0]

        def fit_fold0(dataset):
            # the validation portion goes in too, as a fold passes it
            fp, train_m, _ = encode_partitions(
                RunConfig(Algorithm.GB, seed=seed),
                dataset.subset(fold0_train),
                dataset.subset(fold0_val), 0,
            )
            model, _ = fit_algorithm(
                RunConfig(Algorithm.GB, params=resolve_params(Algorithm.GB, {"n_rounds": 5})),
                train_m, seed=derive_seed(seed, 1),
            )
            return fp, model

        fp_a, model_a = fit_fold0(data)

        columns = [list(column) for column in data.columns]
        columns[0][fold0_val[0]] = 99.0  # absurd age
        fp_b, model_b = fit_fold0(Dataset(columns, data.labels))

        assert serialize_preprocessor(fp_a) == serialize_preprocessor(fp_b)
        assert serialize_model(Algorithm.GB, model_a) == serialize_model(Algorithm.GB, model_b)

    def test_rejects_unknown_hyperparameters(self):
        data = synth_generate(30, 0.5, seed=1)
        with pytest.raises(BadHyperparameter, match="bogus"):
            config = RunConfig(Algorithm.NB, seed=0, params={"bogus": 1.0})
            cross_validate(config, encode_folds(config, data, k=3))


class TestEncodeFolds:
    def test_fitting_leaves_the_fold_untouched(self):
        # a grid search shares each encoded fold across its candidates, so a
        # fit or a score that wrote into the matrix would leak into the next
        data = synth_generate(60, 0.5, seed=3)
        for algorithm, params in (
            (Algorithm.NB, {}),
            (Algorithm.GB, {"n_rounds": 5}),
            (Algorithm.XGB, {"n_rounds": 5}),
            (Algorithm.RNN, {"max_epochs": 3}),
        ):
            config = RunConfig(algorithm, seed=4, params=params)
            for train_m, val_m in encode_folds(config, data, k=3):
                before = [(m.values.tobytes(), m.labels.tobytes()) for m in (train_m, val_m)]
                model, _ = fit_algorithm(config, train_m, seed=derive_seed(config.seed, 1))
                evaluate_model(model, val_m, config.threshold)
                after = [(m.values.tobytes(), m.labels.tobytes()) for m in (train_m, val_m)]
                assert after == before, algorithm


class TestGridCandidates:
    def test_cartesian_product_in_canonical_order(self):
        grid = {"learning_rate": [0.1, 0.3], "max_depth": [2, 3]}
        combos = grid_candidates(grid)
        assert combos == [
            {"learning_rate": 0.1, "max_depth": 2},
            {"learning_rate": 0.1, "max_depth": 3},
            {"learning_rate": 0.3, "max_depth": 2},
            {"learning_rate": 0.3, "max_depth": 3},
        ]

    def test_single_axis(self):
        assert grid_candidates({"n_rounds": [5]}) == [{"n_rounds": 5}]

    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyGrid):
            grid_candidates({})
        with pytest.raises(EmptyGrid):
            grid_candidates({"n_rounds": []})


class TestGridSearch:
    def grid_spec(self, grid, metric=SelectionMetric.ACCURACY, k=3):
        return GridSpec(grid=grid, selection_metric=metric, k=k)

    def config(self, algorithm, **settings):
        return RunConfig(algorithm, seed=2, **settings)

    def test_evaluates_every_candidate(self):
        data = synth_generate(48, 0.5, seed=6)
        spec = self.grid_spec({"n_rounds": [3, 6], "max_depth": [1, 2]})
        result = grid_search(spec, self.config(Algorithm.XGB), data)
        assert len(result.candidates) == 4
        assert [c.params for c in result.candidates] == grid_candidates(spec.grid)
        assert result.best_params in [c.params for c in result.candidates]

    def test_best_mean_is_reproducible(self):
        data = synth_generate(48, 0.5, seed=6)
        spec = self.grid_spec({"n_rounds": [2, 8]})
        result = grid_search(spec, self.config(Algorithm.GB), data)
        config = self.config(Algorithm.GB, params=result.best_params)
        replay = cross_validate(config, encode_folds(config, data, spec.k))
        assert replay.means["accuracy"] == result.best_mean

    def test_equal_means_keep_earliest_candidate(self):
        data = synth_generate(40, 0.5, seed=4)
        # same effective model twice: identical means, first candidate wins
        spec = self.grid_spec({"n_rounds": [5, 5]})
        result = grid_search(spec, self.config(Algorithm.XGB), data)
        means = [c.cv.means["accuracy"] for c in result.candidates]
        assert means[0] == means[1]
        assert result.best_params is result.candidates[0].params

    def test_undefined_candidates_rank_below_defined(self):
        # without oversampling, a vanishing learning rate freezes margins at
        # the negative base log-odds of the 25% positive rate, so no positive
        # predictions exist and f1 is undefined in every fold
        data = synth_generate(120, 0.25, seed=8)
        spec = self.grid_spec({"learning_rate": [1e-9, 0.3]}, metric=SelectionMetric.F1)
        result = grid_search(spec, self.config(Algorithm.XGB, smote_enabled=False), data)
        means = [c.cv.means["f1"] for c in result.candidates]
        assert means[0] is None
        assert means[1] is not None
        assert result.best_params == {"learning_rate": 0.3}
        assert result.best_mean == means[1]

    def test_all_undefined_keeps_first_candidate_with_none_mean(self):
        data = synth_generate(120, 0.25, seed=8)
        spec = self.grid_spec({"learning_rate": [1e-9, 1e-10]}, metric=SelectionMetric.F1)
        result = grid_search(spec, self.config(Algorithm.XGB, smote_enabled=False), data)
        assert result.best_mean is None
        assert result.best_params == {"learning_rate": 1e-9}

    def test_invalid_candidate_rejected_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fold was encoded or fitted before every candidate was checked")

        monkeypatch.setattr(evaluation, "encode_partitions", no_fit)
        monkeypatch.setattr(evaluation, "fit_algorithm", no_fit)
        data = synth_generate(30, 0.5, seed=1)
        for algorithm, grid, fragment in (
            (Algorithm.GB, {"nonsense": [1, 2]}, "nonsense"),
            (Algorithm.GB, {"n_rounds": [5, 0]}, "n_rounds must be in"),
            (Algorithm.RNN, {"hidden_size": [4, 0]}, "hidden_size must be in"),
        ):
            with pytest.raises(BadHyperparameter, match=fragment):
                grid_search(self.grid_spec(grid), self.config(algorithm), data)


    def test_folds_are_encoded_once_per_search(self, monkeypatch):
        calls = {"fit": 0, "smote": 0}

        def counted(name):
            original = getattr(preprocess, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(preprocess, name, counted(name))
        data = synth_generate(48, 0.5, seed=6)
        spec = self.grid_spec({"n_rounds": [3, 6], "max_depth": [1, 2]})
        result = grid_search(spec, self.config(Algorithm.XGB), data)
        assert calls == {"fit": 3, "smote": 3}
        for candidate in result.candidates:
            config = self.config(Algorithm.XGB, params=candidate.params)
            assert candidate.cv == cross_validate(config, encode_folds(config, data, 3))


class TestResultsCsv:
    def test_shape_and_header(self):
        data = synth_generate(36, 0.5, seed=2)
        spec = GridSpec(grid={"n_rounds": [2, 4]}, selection_metric=SelectionMetric.ACCURACY, k=3)
        result = grid_search(spec, RunConfig(Algorithm.XGB, seed=5), data)
        text = results_csv(result)
        lines = text.splitlines()
        assert lines[0] == "model_id,params,fold,accuracy,precision,recall,f1"
        assert len(lines) == 1 + 2 * 3  # candidates x folds
        assert text.endswith("\n")
        first = lines[1].split(",")
        assert first[0] == "XGBoost"
        assert first[1] == "n_rounds=2"
        assert first[2] == "0"

    def test_format_params(self):
        assert format_params({"b": 2, "a": 0.1}) == "a=0.1;b=2"
        assert format_params({}) == "-"
