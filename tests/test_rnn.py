"""Recurrent network: forward pass, gradients, optimizer, and training loop."""

import json
import math
from functools import partial

import numpy as np
import pytest

from conftest import clamp_probability, matrix
from cardiolearn.boosting import sigmoid
from cardiolearn.cli import curves_csv
from cardiolearn.errors import (
    BadHyperparameter,
    DimensionMismatch,
    EmptyPartition,
    EmptySequence,
)
from cardiolearn.rnn import (
    IMPROVEMENT_EPS,
    RNNModel,
    RNNParams,
    RNNTrainConfig,
    TrainHistory,
    _backward_batch,
    _batch_grads,
    _forward_batch,
    _matvec,
    _mean_loss,
    _row_blocks,
    backward,
    bce,
    forward,
    grad_check,
    init_params,
    rmsprop_step,
    train_rnn,
)
from cardiolearn.persistence import deserialize_model, serialize_model
from cardiolearn.rng import SplitMix64
from cardiolearn.training import Algorithm


def small_params() -> RNNParams:
    """Fixed 2-unit network used by the hand-unrolled oracle tests."""
    params = RNNParams.zeros(2)
    params.W_xh[...] = [[0.5], [-0.3]]
    params.W_hh[...] = [[0.1, 0.2], [-0.4, 0.3]]
    params.W_hy[...] = [[0.7, -0.6]]
    params.b_h[...] = [0.05, -0.02]
    params.b_y[...] = 0.1
    return params


def random_params(gen: SplitMix64, hidden: int, scale: float) -> RNNParams:
    return init_params(hidden, scale, gen)


def fields(params: RNNParams) -> list:
    """The five fields of `params` in table order."""
    return [getattr(params, name) for name in RNNParams.shapes(params.hidden_size)]


def hidden_states(params: RNNParams, x: np.ndarray) -> np.ndarray:
    """h_1..h_T of the recurrence on one feature row, (T, H)."""
    return _forward_batch(params, np.asarray(x, dtype=float)[np.newaxis])[0][1:, 0]


class TestForward:
    def test_zero_parameters_give_even_odds(self):
        params = RNNParams.zeros(hidden_size=3)
        x = np.array([0.4, -1.0, 2.5])
        prob = forward(params, x)
        hs = hidden_states(params, x)
        assert prob == 0.5
        assert np.all(hs == 0.0)

    def test_output_bias_alone_sets_the_odds(self):
        params = RNNParams.zeros(hidden_size=2)
        params.b_y[...] = math.log(3.0)
        prob = forward(params, np.array([1.0, -2.0]))
        assert prob == pytest.approx(0.75, abs=1e-12)

    def test_hand_unrolled_three_steps(self):
        params = small_params()
        xs = [0.3, -1.2, 2.0]
        # independent scalar re-computation of the recurrence
        h = [0.0, 0.0]
        states = []
        for x in xs:
            h = [
                math.tanh(0.5 * x + 0.1 * h[0] + 0.2 * h[1] + 0.05),
                math.tanh(-0.3 * x + -0.4 * h[0] + 0.3 * h[1] + -0.02),
            ]
            states.append(list(h))
        z = 0.7 * h[0] - 0.6 * h[1] + 0.1
        expected_prob = 1.0 / (1.0 + math.exp(-z))
        prob = forward(params, np.array(xs))
        hs = hidden_states(params, np.array(xs))
        assert hs.shape == (3, 2)
        for t in range(3):
            assert hs[t, 0] == pytest.approx(states[t][0], abs=1e-12)
            assert hs[t, 1] == pytest.approx(states[t][1], abs=1e-12)
        assert prob == pytest.approx(expected_prob, abs=1e-12)

    def test_hidden_states_strictly_inside_unit_interval(self):
        gen = SplitMix64(3)
        params = random_params(gen, hidden=4, scale=2.0)
        seq = np.array([5.0, -5.0, 3.0, 0.0, -2.0])
        hs = hidden_states(params, seq)
        assert np.all(hs > -1.0) and np.all(hs < 1.0)

    def test_probability_clamped(self):
        params = RNNParams.zeros(hidden_size=1)
        params.b_y[...] = 100.0
        prob = forward(params, np.array([0.0]))
        assert prob == 1.0 - 1e-12

    def test_empty_sequence_rejected(self):
        params = RNNParams.zeros(hidden_size=2)
        with pytest.raises(EmptySequence):
            forward(params, np.empty(0))

    def test_input_size_mismatch_rejected(self):
        params = RNNParams.zeros(hidden_size=2)
        with pytest.raises(DimensionMismatch):
            forward(params, np.zeros((3, 2)))

    def test_column_order_changes_the_output(self):
        gen = SplitMix64(8)
        params = random_params(gen, hidden=3, scale=0.5)
        a = forward(params, np.array([1.0, -2.0, 0.5]))
        b = forward(params, np.array([0.5, -2.0, 1.0]))
        assert a != b


class TestBce:
    def test_even_odds(self):
        assert bce(0.5, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert bce(0.5, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_confident_correct(self):
        assert bce(0.75, 1.0) == pytest.approx(0.28768, abs=1e-5)

    def test_certainty_is_clamped_finite(self):
        # bce expects the clamped probability its callers pass; it does not clamp again
        assert bce(clamp_probability(1.0), 0.0) == pytest.approx(-math.log(1e-12), rel=1e-6)
        assert bce(clamp_probability(0.0), 1.0) == pytest.approx(-math.log(1e-12), rel=1e-6)


class TestBackward:
    def test_zero_parameters_gradient(self):
        params = RNNParams.zeros(hidden_size=3)
        grads = backward(params, np.array([1.0, -1.0]), y=1.0)
        assert grads.b_y == pytest.approx(-0.5, abs=1e-15)
        assert np.all(grads.W_xh == 0.0)
        assert np.all(grads.W_hh == 0.0)
        assert np.all(grads.W_hy == 0.0)
        assert np.all(grads.b_h == 0.0)

    def test_single_step_has_no_recurrent_gradient(self):
        gen = SplitMix64(5)
        params = random_params(gen, hidden=3, scale=0.5)
        grads = backward(params, np.array([0.7]), y=0.0)
        assert np.all(grads.W_hh == 0.0)
        assert not np.all(grads.W_xh == 0.0)

    def test_clamped_output_zeroes_all_gradients(self):
        params = RNNParams.zeros(hidden_size=2)
        params.b_y[...] = 100.0  # saturates past the clamp boundary
        grads = backward(params, np.array([1.0]), y=0.0)
        assert grads.b_y == 0.0
        assert np.all(grads.W_hy == 0.0)

    def test_matches_finite_differences_on_random_instances(self):
        gen = SplitMix64(12)
        for trial in range(20):
            hidden = 2 + trial % 3
            params = random_params(gen, hidden, scale=0.5)
            steps = 3 + trial % 5
            seq = np.array([gen.normal() for _ in range(steps)])
            y = float(trial % 2)
            assert grad_check(params, seq, y, step=1e-5) < 1e-4, f"trial {trial}"

    def test_finite_difference_step_size_matters(self):
        gen = SplitMix64(77)
        params = random_params(gen, hidden=3, scale=0.5)
        seq = np.array([1.3, -0.4, 0.9, 2.0])
        fine = grad_check(params, seq, 1.0, step=1e-5)
        coarse = grad_check(params, seq, 1.0, step=1e-1)
        assert fine < 1e-4
        assert coarse > fine

    def test_grad_check_rejects_bad_step(self):
        params = RNNParams.zeros(hidden_size=2)
        seq = np.array([1.0])
        with pytest.raises(BadHyperparameter):
            grad_check(params, seq, 1.0, step=0.0)


class TestRmsprop:
    def config(self, **overrides):
        base = dict(learning_rate=0.001, rms_decay=0.9, epsilon=1e-8)
        base.update(overrides)
        return RNNTrainConfig(**base)

    def test_first_step_cache_and_delta(self):
        params = RNNParams.zeros(1)
        params.b_y[...] = 0.2
        caches = RNNParams.zeros(1)
        grads = RNNParams.zeros(1)
        grads.b_y[...] = 1.0
        new_p, new_c = rmsprop_step(params, caches, grads, self.config())
        assert new_c.b_y == pytest.approx(0.1, abs=1e-15)
        expected_delta = -0.001 * 1.0 / math.sqrt(0.1 + 1e-8)
        assert new_p.b_y - 0.2 == pytest.approx(expected_delta, abs=1e-12)
        assert new_p.b_y - 0.2 == pytest.approx(-0.0031623, abs=1e-7)

    def test_zero_gradient_decays_cache_and_freezes_param(self):
        params = RNNParams.zeros(1)
        params.b_y[...] = 0.5
        caches = RNNParams.zeros(1)
        caches.b_y[...] = 0.4
        grads = RNNParams.zeros(1)
        new_p, new_c = rmsprop_step(params, caches, grads, self.config())
        assert new_p.b_y == 0.5
        assert new_c.b_y == pytest.approx(0.36, abs=1e-15)

    def test_two_constant_gradient_steps_accumulate_cache(self):
        params = RNNParams.zeros(1)
        caches = RNNParams.zeros(1)
        grads = RNNParams.zeros(1)
        grads.b_y[...] = 2.0
        params, caches = rmsprop_step(params, caches, grads, self.config())
        params, caches = rmsprop_step(params, caches, grads, self.config())
        assert caches.b_y == pytest.approx(0.19 * 4.0, abs=1e-12)

    def test_array_fields_updated_elementwise(self):
        params = RNNParams.zeros(2)
        caches = RNNParams.zeros(2)
        grads = RNNParams.zeros(2)
        grads.W_xh[...] = [[1.0], [-2.0]]
        new_p, new_c = rmsprop_step(params, caches, grads, self.config())
        assert new_c.W_xh[0, 0] == pytest.approx(0.1)
        assert new_c.W_xh[1, 0] == pytest.approx(0.4)
        assert new_p.W_xh[0, 0] == pytest.approx(-0.001 / math.sqrt(0.1 + 1e-8))
        assert new_p.W_xh[1, 0] == pytest.approx(0.002 / math.sqrt(0.4 + 1e-8))

    def test_inputs_left_untouched(self):
        params = RNNParams.zeros(1)
        caches = RNNParams.zeros(1)
        grads = RNNParams.zeros(1)
        grads.b_y[...] = 1.0
        rmsprop_step(params, caches, grads, self.config())
        assert params.b_y == 0.0
        assert caches.b_y == 0.0


class TestTrainHistoryRecord:
    def record_all(self, losses):
        history = TrainHistory()
        return [history.record(0.7, loss) for loss in losses], history

    def test_policy_trace(self):
        outcomes, history = self.record_all([0.50, 0.40, 0.45, 0.46])
        assert outcomes == [True, True, False, False]
        assert history.best_epoch == 2
        assert history.stopped_epoch == 4
        assert history.val_losses[history.best_epoch - 1] == 0.40

    def test_monotone_descent_improves_every_epoch(self):
        outcomes, history = self.record_all([1.0 - 0.01 * epoch for epoch in range(1, 51)])
        assert all(outcomes)
        assert history.best_epoch == 50

    def test_improvement_below_epsilon_does_not_count(self):
        stalled = 0.5 - IMPROVEMENT_EPS / 2.0
        outcomes, history = self.record_all([0.5, stalled, stalled])
        assert outcomes == [True, False, False]
        assert history.best_epoch == 1

    def test_improvement_at_epsilon_counts(self):
        # 2e-6 and 1e-6 are exact binary multiples, so the drop is exactly eps
        assert 2e-6 - 1e-6 == IMPROVEMENT_EPS
        outcomes, history = self.record_all([2e-6, 1e-6])
        assert outcomes == [True, True]
        assert history.best_epoch == 2

    def test_non_finite_loss_never_improves(self):
        history = TrainHistory()
        assert not history.record(0.7, math.nan)
        assert not history.record(0.7, math.inf)
        assert history.best_epoch == 0
        assert history.record(0.7, 0.5)
        assert history.best_epoch == 3
        assert not history.record(0.7, math.nan)
        assert history.best_epoch == 3
        assert history.train_losses == [0.7] * 4
        assert history.stopped_epoch == 4


class TestParamTable:
    def assert_layout(self, params, hidden):
        assert params.hidden_size == hidden
        assert params.flat.dtype == np.float64 and params.flat.shape == (hidden * hidden + 3 * hidden + 1,)
        for name, shape in RNNParams.shapes(hidden).items():
            value = getattr(params, name)
            assert isinstance(value, np.ndarray) and value.dtype == np.float64, name
            assert value.shape == shape, name
            assert np.shares_memory(value, params.flat), name
        # the fields tile `flat` in table order, each row-major
        assert np.concatenate([f.reshape(-1) for f in fields(params)]).tobytes() == params.flat.tobytes()

    def test_table_order_and_the_scalar_output_bias(self):
        assert tuple(RNNParams.shapes(3)) == ("W_xh", "W_hh", "W_hy", "b_h", "b_y")
        assert RNNParams.shapes(3)["b_y"] == ()

    def test_every_producer_follows_the_table(self):
        params = init_params(3, 0.1, SplitMix64(5))
        self.assert_layout(params, 3)
        self.assert_layout(RNNParams.zeros(2), 2)
        copied = params.copy()
        self.assert_layout(copied, 3)
        assert not np.shares_memory(copied.flat, params.flat)
        grads = backward(params, np.array([0.2, -0.7]), 1.0)
        self.assert_layout(grads, 3)
        for updated in rmsprop_step(params, RNNParams.zeros(3), grads, RNNTrainConfig()):
            self.assert_layout(updated, 3)
        m = matrix(np.random.default_rng(5).normal(0.0, 1.0, (6, 4)), [0, 1, 0, 1, 1, 0])
        self.assert_layout(_batch_grads(params, m, [4, 0, 2]), 3)
        doc = json.loads(json.dumps(serialize_model(Algorithm.RNN, RNNModel(params))))
        restored = deserialize_model(Algorithm.RNN, doc).params
        self.assert_layout(restored, 3)
        assert restored.flat.tobytes() == params.flat.tobytes()

    @pytest.mark.parametrize("hidden", [1, 2, 5])
    def test_init_fills_flat_with_the_stream_in_order(self, hidden):
        replay = SplitMix64(hidden + 30)
        expected = [0.3 * (2.0 * replay.uniform() - 1.0) for _ in range(hidden * hidden + 3 * hidden + 1)]
        gen = SplitMix64(hidden + 30)
        assert init_params(hidden, 0.3, gen).flat.tolist() == expected
        assert gen.uniform() == replay.uniform()  # no draw beyond the last entry

    def test_fields_cannot_be_rebound_and_write_through_in_place(self):
        params = RNNParams.zeros(2)
        for name in ("hidden_size", "flat", *RNNParams.shapes(2)):
            with pytest.raises(AttributeError):
                setattr(params, name, 0.25)
        params.b_y[...] = 0.25
        params.W_hh[1, 0] = -1.5
        assert params.flat[-1] == 0.25 and params.flat[2 + 2] == -1.5


class TestInitParams:
    def test_draw_order_and_row_major_fill(self):
        scale = 0.3
        replay = SplitMix64(41)
        expected = [scale * (2.0 * replay.uniform() - 1.0) for _ in range(11)]
        params = init_params(2, scale, SplitMix64(41))
        flat = (
            list(params.W_xh.reshape(-1))
            + list(params.W_hh.reshape(-1))
            + list(params.W_hy.reshape(-1))
            + list(params.b_h.reshape(-1))
            + [params.b_y]
        )
        assert flat == expected

    def test_range_bound(self):
        params = init_params(8, 0.1, SplitMix64(9))
        for arr in (params.W_xh, params.W_hh, params.W_hy, params.b_h):
            assert np.all(np.abs(arr) <= 0.1)
        assert abs(params.b_y) <= 0.1


class TestTrainRnn:
    def separable(self, n=24, seed=1):
        gen = np.random.default_rng(seed)
        values = np.vstack([
            gen.normal(-1.5, 0.4, (n // 2, 3)),
            gen.normal(1.5, 0.4, (n // 2, 3)),
        ])
        labels = np.array([0] * (n // 2) + [1] * (n // 2))
        return matrix(values, labels)

    def config(self, **overrides):
        base = dict(
            learning_rate=0.02, max_epochs=15, patience=5, batch_size=4,
            hidden_size=4, init_scale=0.1,
        )
        base.update(overrides)
        return RNNTrainConfig(**base)

    def test_deterministic_bitwise(self):
        train = self.separable()
        val = self.separable(n=8, seed=2)
        config = self.config()
        params_a, hist_a = train_rnn(train, val, config, 13)
        params_b, hist_b = train_rnn(train, val, config, 13)
        assert hist_a.train_losses == hist_b.train_losses
        assert hist_a.val_losses == hist_b.val_losses
        assert hist_a.best_epoch == hist_b.best_epoch
        assert np.array_equal(params_a.W_xh, params_b.W_xh)
        assert np.array_equal(params_a.W_hh, params_b.W_hh)
        assert np.array_equal(params_a.W_hy, params_b.W_hy)
        assert np.array_equal(params_a.b_h, params_b.b_h)
        assert params_a.b_y == params_b.b_y

    def test_seed_changes_the_run(self):
        train = self.separable()
        val = self.separable(n=8, seed=2)
        _, hist_a = train_rnn(train, val, self.config(), 13)
        _, hist_b = train_rnn(train, val, self.config(), 14)
        assert hist_a.train_losses != hist_b.train_losses

    def test_returned_params_reproduce_best_epoch_val_loss(self):
        train = self.separable()
        val = self.separable(n=8, seed=2)
        params, history = train_rnn(train, val, self.config(), 13)
        total = 0.0
        for row, label in zip(val.values, val.labels):
            total += bce(forward(params, row), float(label))
        replayed = total / val.n_rows
        assert replayed == history.val_losses[history.best_epoch - 1]
        assert min(history.val_losses) == history.val_losses[history.best_epoch - 1]

    def test_training_reduces_loss_on_separable_data(self):
        train = self.separable(n=32, seed=5)
        val = self.separable(n=12, seed=6)
        _, history = train_rnn(train, val, self.config(max_epochs=30, learning_rate=0.05), 13)
        assert history.train_losses[-1] < history.train_losses[0]

    def test_single_epoch_matches_manual_replay(self):
        # independent replay of init, shuffle, batching, and updates
        train = self.separable(n=10, seed=3)
        val = self.separable(n=6, seed=4)
        config = self.config(max_epochs=1, batch_size=4)
        got, history = train_rnn(train, val, config, 21)

        gen = SplitMix64(21)
        params = init_params(config.hidden_size, config.init_scale, gen)
        caches = RNNParams.zeros(config.hidden_size)
        order = list(range(10))
        gen.shuffle(order)
        for start in (0, 4, 8):
            rows = order[start:start + 4]
            acc = batch_sum_reference(params, train.values[rows], train.labels[rows].astype(float))
            acc.flat[...] *= 1.0 / len(rows)
            params, caches = rmsprop_step(params, caches, grads=acc, config=config)

        assert np.array_equal(got.W_xh, params.W_xh)
        assert np.array_equal(got.W_hh, params.W_hh)
        assert np.array_equal(got.W_hy, params.W_hy)
        assert np.array_equal(got.b_h, params.b_h)
        assert got.b_y == params.b_y

        losses = [
            bce(forward(params, row), float(label))
            for row, label in zip(train.values, train.labels)
        ]
        total = 0.0
        for loss in losses:
            total += loss
        assert history.train_losses == [total / len(losses)]
        assert history.best_epoch == 1
        assert history.stopped_epoch == 1

    def test_stagnant_training_stops_after_patience(self):
        train = self.separable()
        val = self.separable(n=8, seed=2)
        config = self.config(learning_rate=1e-12, max_epochs=50, patience=3)
        _, history = train_rnn(train, val, config, 13)
        # epoch 1 always improves on infinity; then patience epochs of stall
        assert history.best_epoch == 1
        assert history.stopped_epoch == 1 + 3
        assert len(history.val_losses) == history.stopped_epoch

    def test_patience_beyond_max_epochs_runs_to_the_end(self):
        train = self.separable()
        val = self.separable(n=8, seed=2)
        config = self.config(max_epochs=6, patience=50)
        _, history = train_rnn(train, val, config, 13)
        assert history.stopped_epoch == 6
        assert len(history.train_losses) == 6

    def test_empty_partitions_rejected(self):
        train = self.separable()
        empty = matrix(np.empty((0, 3)), [])
        with pytest.raises(EmptyPartition):
            train_rnn(empty, train, self.config(), 13)
        with pytest.raises(EmptyPartition):
            train_rnn(train, empty, self.config(), 13)

    def test_column_mismatch_rejected(self):
        train = self.separable()
        val = matrix(np.zeros((4, 2)), [0, 1, 0, 1])
        with pytest.raises(DimensionMismatch):
            train_rnn(train, val, self.config(), 13)

    def test_config_validation(self):
        for bad in (
            dict(learning_rate=0.0),
            dict(rms_decay=1.0),
            dict(epsilon=0.0),
            dict(max_epochs=0),
            dict(patience=0),
            dict(batch_size=0),
            dict(hidden_size=0),
            dict(init_scale=0.0),
        ):
            with pytest.raises(BadHyperparameter):
                RNNTrainConfig(**bad)


class TestTrainHistory:
    def test_csv_format(self):
        history = TrainHistory(
            train_losses=[0.5, 0.25], val_losses=[0.6, 0.3], best_epoch=2
        )
        text = curves_csv(history)
        lines = text.splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert lines[1] == f"1,{0.5!r},{0.6!r}"
        assert lines[2] == f"2,{0.25!r},{0.3!r}"
        assert text.endswith("\n")


class TestRNNModel:
    def test_prediction_runs_row_as_sequence(self):
        params = small_params()
        model = RNNModel(params=params)
        row = np.array([0.3, -1.2, 2.0])
        expected = forward(params, row)
        assert model.predict_proba(row[None]).tolist() == [expected]


def reference_forward(params: RNNParams, x: np.ndarray):
    """One row's recurrence as a plain loop, the reference the batch kernels
    must match bit for bit: (h_0..h_T, raw, clamped probability)."""
    hs = np.zeros((x.shape[0] + 1, params.hidden_size))
    for t in range(x.shape[0]):
        hs[t + 1] = np.tanh(params.W_xh @ x[t:t + 1] + params.W_hh @ hs[t] + params.b_h)
    raw = sigmoid(float((params.W_hy @ hs[-1])[0]) + float(params.b_y))
    return hs, raw, clamp_probability(raw)


def reference_backward(params: RNNParams, x: np.ndarray, y: float) -> RNNParams:
    """One row's BPTT as a plain loop, the reference for the batch kernels."""
    hs, raw, prob = reference_forward(params, x)
    grads = RNNParams.zeros(params.hidden_size)
    if raw != prob:
        return grads
    dz = prob - y
    grads.W_hy[...] = dz * hs[-1][np.newaxis, :]
    grads.b_y[...] = dz
    dh = dz * params.W_hy[0]
    for t in range(x.shape[0], 0, -1):
        dz_h = (1.0 - hs[t] * hs[t]) * dh
        grads.W_xh[...] += np.outer(dz_h, x[t - 1:t])
        grads.W_hh[...] += np.outer(dz_h, hs[t - 1])
        grads.b_h[...] += dz_h
        dh = params.W_hh.T @ dz_h
    return grads


def row_order_sum(terms) -> np.ndarray:
    """The terms added in order onto a +0.0 start."""
    total = np.zeros_like(terms[0])
    for term in terms:
        total += term
    return total


def batch_sum_reference(params: RNNParams, X: np.ndarray, labels: np.ndarray) -> RNNParams:
    """A block's BPTT as plain loops over its rows, summed over the rows
    inside each step and added to the total step by step. The reference for
    `_batch_grads` bit for bit at H >= 2, where einsum adds rows in row
    order too; at H = 1 the summed axis is contiguous and einsum does not."""
    forwards = [reference_forward(params, x) for x in X]
    hs = [row_hs for row_hs, _, _ in forwards]
    dz = [prob - y if raw == prob else 0.0 for (_, raw, prob), y in zip(forwards, labels)]
    grads = RNNParams.zeros(params.hidden_size)
    grads.W_hy[0] += row_order_sum([d * h[-1] for d, h in zip(dz, hs)])
    grads.b_y[...] += row_order_sum(np.array(dz))
    dh = [d * params.W_hy[0] for d in dz]
    for t in range(X.shape[1], 0, -1):
        dz_h = [(1.0 - h[t] * h[t]) * d for h, d in zip(hs, dh)]
        grads.W_hh[...] += row_order_sum([np.outer(d, h[t - 1]) for d, h in zip(dz_h, hs)])
        grads.W_xh[:, 0] += row_order_sum([x[t - 1] * d for x, d in zip(X, dz_h)])
        grads.b_h[...] += row_order_sum(dz_h)
        dh = [params.W_hh.T @ d for d in dz_h]
    return grads


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype == np.float64 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()  # equal values and equal sign bits


def saturating_params(gen: SplitMix64, hidden: int, sign: float) -> RNNParams:
    """A wide output layer and a bias near the clamp boundary (|z| > 27.6), so
    some rows' probabilities sit at a clamp bound and others do not."""
    params = init_params(hidden, 1.0, gen)
    params.W_hy[...] = params.W_hy * 12.0
    params.b_y[...] = sign * 26.0
    return params


class TestBatchKernels:
    """The batch kernels against the per-row recurrence. The forward pass is
    bit for bit: it rests on NumPy running one gemv (or dot) per slice of a
    stacked matmul, the call `W @ v` makes, and a NumPy or BLAS upgrade that
    breaks that fails here. BPTT sums the batch inside each step and adds
    blocks in block order, so a minibatch gradient is the mean of the
    per-row BPTT gradients up to rounding; a one-row `backward` is exact."""

    @pytest.mark.parametrize("hidden", [1, 2, 16, 33])
    def test_stacked_matmul_equals_per_row_matmul(self, hidden):
        gen = np.random.default_rng(hidden)
        W = gen.normal(0.0, 1.0, (hidden, hidden))
        # the weights the kernels pass their (B, H) stacks to
        for weight in (W, W.T, gen.normal(0.0, 1.0, (1, hidden))):
            for rows in (1, 2, 7, 39):
                V = gen.normal(0.0, 1.0, (rows, hidden)) * 10.0 ** gen.integers(-8, 9, (rows, 1))
                expected = np.array([weight @ v for v in V])
                assert_same_bits(_matvec(weight, V), expected)

    @pytest.mark.parametrize("hidden", [1, 2, 16])
    def test_forward_and_predict_match_the_per_row_recurrence(self, hidden):
        gen = SplitMix64(hidden)
        values = np.random.default_rng(hidden).normal(0.0, 2.0, (39, 7))
        # zero cells of either sign: the input product is -0.0 where the gemv of
        # the reference gives +0.0, and only the recurrent term added after it
        # makes the two equal, also in a unit whose bias is -0.0
        zeros = values.copy()
        zeros[::2, :3] = 0.0
        zeros[1::2, :3] = -0.0
        zeros[::3, 5] = -0.0
        zero_bias = random_params(gen, hidden, 0.8)
        zero_bias.b_h[0] = -0.0
        for params in (random_params(gen, hidden, 0.8), saturating_params(gen, hidden, 1.0),
                       zero_bias):
            model = RNNModel(params=params)
            for rows in (values, zeros):
                expected = [reference_forward(params, row) for row in rows]
                assert_same_bits(model.predict_proba(rows), [prob for _, _, prob in expected])
                for row, (hs, _, prob) in zip(rows, expected):
                    assert_same_bits(hidden_states(params, row), hs[1:])
                    assert forward(params, row) == prob

    @pytest.mark.parametrize("hidden", [1, 2, 16])
    def test_batch_grads_equal_the_mean_of_per_row_bptt(self, hidden):
        gen = SplitMix64(40 + hidden)
        data = np.random.default_rng(hidden)
        values = data.normal(0.0, 2.0, (60, 6))
        values[::4, 1:3] = 0.0  # exact zero products, -0.0 among them
        m = matrix(values, data.integers(0, 2, 60))
        clamped_batches = 0
        for trial in range(12):
            if trial % 3 == 0:
                params = random_params(gen, hidden, 0.8)
            else:
                params = saturating_params(gen, hidden, 1.0 if trial % 2 else -1.0)
            rows = [int(r) for r in data.choice(60, size=1 + trial * 38 // 11, replace=False)]
            clamped = sum(raw != prob for _, raw, prob in (reference_forward(params, values[r])
                                                           for r in rows))
            per_row = np.array([reference_backward(params, values[r], float(m.labels[r])).flat
                                for r in rows])
            got = _batch_grads(params, m, rows).flat
            # the same terms added in another order: a few roundings of their size apart
            assert np.all(np.abs(got - per_row.mean(axis=0))
                          <= 1e-12 * np.abs(per_row).mean(axis=0))
            clamped_batches += 0 < clamped < len(rows)
        assert clamped_batches >= 3
        # every row clamped: |W_hy h_T| <= 0.8 H, so the output bias alone saturates
        for sign in (1.0, -1.0):
            params = random_params(gen, hidden, 0.8)
            params.b_y[...] = sign * (28.0 + 0.8 * hidden)
            assert all(raw != prob for _, raw, prob in map(partial(reference_forward, params), values))
            assert_same_bits(_batch_grads(params, m, range(60)).flat, np.zeros(params.flat.size))

    @pytest.mark.parametrize("hidden", [2, 3, 7, 16, 33, 64])
    def test_block_sum_adds_rows_in_row_order_inside_each_step(self, hidden):
        # einsum's own loop adds a field at least two wide row by row, so a
        # block's sum is the per-step row-order sum bit for bit, clamped rows'
        # +0.0 terms and zero products of either sign among them
        gen = SplitMix64(80 + hidden)
        data = np.random.default_rng(hidden)
        values = data.normal(0.0, 2.0, (39, 6))
        values[::4, 1:3] = 0.0
        values[1::4, 1:3] = -0.0
        labels = data.integers(0, 2, 39).astype(float)
        for params in (random_params(gen, hidden, 0.8), saturating_params(gen, hidden, 1.0),
                       saturating_params(gen, hidden, -1.0)):
            for rows in range(1, 40):
                got = _backward_batch(params, values[:rows], labels[:rows])
                assert_same_bits(got, batch_sum_reference(params, values[:rows], labels[:rows]).flat)

    def test_output_bias_gradient_adds_rows_left_to_right(self):
        # rows whose in-order sum of dz differs from NumPy's pairwise np.sum
        gen = SplitMix64(4)
        params = random_params(gen, 3, 2.0)
        data = np.random.default_rng(4)
        values, labels = data.normal(0.0, 3.0, (41, 5)), data.integers(0, 2, 41).astype(float)
        _, raw, prob = _forward_batch(params, values)
        dz = np.where(raw == prob, prob - labels, 0.0)
        total = 0.0
        for term in dz.tolist():
            total += term
        assert total != np.sum(dz)
        assert RNNParams(3, _backward_batch(params, values, labels)).b_y == total

    def test_row_blocks_do_not_shrink_with_the_square_of_hidden_size(self):
        # a block holds H * (2T + 1) floats per row and one (P,) gradient sum:
        # at H = 1024 and T = 11 that is 2**20 // 23552 = 44 rows
        params = RNNParams.zeros(1024)
        assert _row_blocks(params, 32, 11) == [slice(0, 44)]
        assert _row_blocks(params, 100, 11) == [slice(0, 44), slice(44, 88), slice(88, 132)]

    @pytest.mark.parametrize("hidden", [1, 16])
    def test_backward_matches_the_per_row_bptt(self, hidden):
        gen = SplitMix64(60 + hidden)
        values = np.random.default_rng(hidden).normal(0.0, 2.0, (20, 5))
        for params in (random_params(gen, hidden, 0.8), saturating_params(gen, hidden, 1.0)):
            for i, row in enumerate(values):
                got = backward(params, row, float(i % 2))
                expected = reference_backward(params, row, float(i % 2))
                for got_field, expected_field in zip(fields(got), fields(expected)):
                    assert_same_bits(got_field, expected_field)


class TestMeanLoss:
    def test_losses_are_added_left_to_right(self):
        # rows whose in-order sum of losses differs from the correctly rounded
        # one and from NumPy's pairwise one: the builtin sum from Python 3.12
        # on, or np.sum, would give another value
        gen = SplitMix64(4)
        params = random_params(gen, 3, 2.0)
        data = np.random.default_rng(4)
        m = matrix(data.normal(0.0, 3.0, (41, 5)), data.integers(0, 2, 41))
        losses = [bce(forward(params, row), float(y))
                  for row, y in zip(m.values, m.labels)]
        total = 0.0
        for loss in losses:
            total += loss
        assert total != math.fsum(losses)
        assert total != np.sum(losses)
        assert _mean_loss(params, m) == total / m.n_rows
