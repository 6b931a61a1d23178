"""Hyperparameter resolution: names, defaults, types and ranges per family;
what a fit returns."""

import dataclasses
import re

import numpy as np
import pytest

from conftest import fit_in_memory, matrix
from cardiolearn.dataset import synth_generate
from cardiolearn.errors import BadHyperparameter
from cardiolearn.evaluation import RunConfig
from cardiolearn.persistence import load_bundle, save_bundle
from cardiolearn.pipeline import run_training
from cardiolearn.rnn import RNNModel, TrainHistory
from cardiolearn.training import (
    PARAM_DEFAULTS,
    Algorithm,
    family_config,
    fit_algorithm,
    resolve_params,
)

SHORT_RNN = {"max_epochs": 6, "patience": 2, "hidden_size": 3}


def test_param_defaults_pinned():
    # the table as it was written out by hand before it was derived from the configs
    assert PARAM_DEFAULTS == {
        Algorithm.NB: {},
        Algorithm.GB: {
            "n_rounds": 200, "learning_rate": 0.1, "max_depth": 3, "min_child_weight": 1.0,
        },
        Algorithm.XGB: {
            "n_rounds": 200, "learning_rate": 0.1, "max_depth": 3,
            "reg_lambda": 1.0, "gamma": 0.0, "min_child_weight": 1.0,
        },
        Algorithm.RNN: {
            "learning_rate": 0.001, "rms_decay": 0.9, "epsilon": 1e-8, "max_epochs": 200,
            "patience": 10, "batch_size": 32, "hidden_size": 16, "init_scale": 0.1,
        },
    }
    assert [list(d) for d in PARAM_DEFAULTS.values()] == [
        [], ["n_rounds", "learning_rate", "max_depth", "min_child_weight"],
        ["n_rounds", "learning_rate", "max_depth", "reg_lambda", "gamma", "min_child_weight"],
        ["learning_rate", "rms_decay", "epsilon", "max_epochs", "patience", "batch_size",
         "hidden_size", "init_scale"],
    ]
    integers = {"n_rounds", "max_depth", "max_epochs", "patience", "batch_size", "hidden_size"}
    for defaults in PARAM_DEFAULTS.values():
        for name, value in defaults.items():
            assert type(value) is (int if name in integers else float), name


def test_resolved_values_take_their_field_types():
    resolved = resolve_params(Algorithm.XGB, {"n_rounds": 5.0, "gamma": 1})
    assert resolved["n_rounds"] == 5 and type(resolved["n_rounds"]) is int
    assert resolved["gamma"] == 1.0 and type(resolved["gamma"]) is float


@pytest.mark.parametrize("algorithm, name", [
    (Algorithm.RNN, "patience"), (Algorithm.RNN, "batch_size"),
])
def test_large_integers_stay_exact(algorithm, name):
    config = family_config(algorithm, {name: 2 ** 53 + 1})
    assert getattr(config, name) == 2 ** 53 + 1


@pytest.mark.parametrize("algorithm, overrides, fragment", [
    (Algorithm.GB, {"n_rounds": 0}, "n_rounds must be in [1, 10000]"),
    (Algorithm.XGB, {"learning_rate": 1.5}, "learning_rate must be in (0, 1]"),
    (Algorithm.XGB, {"reg_lambda": -5}, "reg_lambda must be in [0, inf)"),
    (Algorithm.RNN, {"hidden_size": 0}, "hidden_size must be in [1, 1024]"),
    (Algorithm.RNN, {"rms_decay": 1.0}, "rms_decay must be in (0, 1)"),
    (Algorithm.RNN, {"batch_size": 2.5}, "must be an integer"),
    (Algorithm.RNN, {"seed": 3}, "unknown hyperparameter 'seed'"),
    (Algorithm.GB, {"reg_lambda": 1.0}, "unknown hyperparameter 'reg_lambda'"),
    (Algorithm.NB, {"n_rounds": 5}, "unknown hyperparameter 'n_rounds'"),
])
def test_out_of_range_or_unsettable_value_rejected(algorithm, overrides, fragment):
    with pytest.raises(BadHyperparameter, match=re.escape(fragment)):
        resolve_params(algorithm, overrides)


def test_gb_is_first_order_with_lambda_and_gamma_pinned_to_zero():
    config = family_config(Algorithm.GB, {})
    assert (config.reg_lambda, config.gamma) == (0.0, 0.0)


def _small_matrix():
    gen = np.random.default_rng(5)
    values = gen.normal(0.0, 1.0, (60, 4))
    return matrix(values, (values[:, 0] + 0.5 * gen.normal(0.0, 1.0, 60) > 0).astype(int))


@pytest.mark.parametrize("algorithm, params", [
    (Algorithm.NB, {}), (Algorithm.GB, {"n_rounds": 3}), (Algorithm.XGB, {"n_rounds": 3}),
])
def test_fit_returns_no_history_beside_nb_and_boosted_models(algorithm, params):
    m = _small_matrix()
    model, history = fit_algorithm(RunConfig(algorithm, params=params), m, seed=3)
    assert history is None
    assert model.predict_proba(m.values).shape == (m.n_rows,)


def test_fit_returns_the_rnn_history_beside_a_model_of_params_only():
    model, history = fit_algorithm(
        RunConfig(Algorithm.RNN, params=SHORT_RNN), _small_matrix(), seed=3)
    assert type(model) is RNNModel and type(history) is TrainHistory
    assert history.stopped_epoch >= 1
    assert len(history.val_losses) == len(history.train_losses) == history.stopped_epoch
    assert [f.name for f in dataclasses.fields(RNNModel)] == ["params"]


def test_loaded_rnn_bundle_holds_the_fitted_weights(tmp_path):
    data = synth_generate(60, 0.5, seed=2)
    config = RunConfig(Algorithm.RNN, params=SHORT_RNN)
    outcome = run_training(data, config)
    assert type(outcome.history) is TrainHistory and outcome.history.stopped_epoch >= 1
    path = str(tmp_path / "rnn.json")
    save_bundle(outcome.bundle, path)
    loaded = load_bundle(path).model
    assert type(loaded) is RNNModel
    _, _, model = fit_in_memory(data, config)
    assert loaded.params.flat.tobytes() == model.params.flat.tobytes()
