"""Hyperparameter resolution: names, defaults, types and ranges per family."""

import re

import pytest

from cardiolearn.boosting import BoostMode
from cardiolearn.errors import BadHyperparameter
from cardiolearn.training import PARAM_DEFAULTS, Algorithm, family_config, resolve_params


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


@pytest.mark.parametrize("algorithm, overrides, fragment", [
    (Algorithm.GB, {"n_rounds": 0}, "n_rounds must be in [1, inf)"),
    (Algorithm.XGB, {"learning_rate": 1.5}, "learning_rate must be in (0, 1]"),
    (Algorithm.XGB, {"reg_lambda": -5}, "reg_lambda must be in [0, inf)"),
    (Algorithm.RNN, {"hidden_size": 0}, "hidden_size must be in [1, inf)"),
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
    assert config.mode is BoostMode.FIRST_ORDER
    assert (config.reg_lambda, config.gamma) == (0.0, 0.0)
    assert family_config(Algorithm.XGB, {}).mode is BoostMode.SECOND_ORDER
