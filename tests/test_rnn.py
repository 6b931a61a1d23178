"""Recurrent network: forward pass, gradients, optimizer, and training loop."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import matrix
from cardiolearn.errors import (
    BadHyperparameter,
    DimensionMismatch,
    EmptyPartition,
    EmptySequence,
)
from cardiolearn.rnn import (
    IMPROVEMENT_EPS,
    EarlyStopper,
    RNNModel,
    RNNParams,
    RNNTrainConfig,
    TrainHistory,
    as_sequence,
    backward,
    bce,
    forward,
    grad_check,
    init_params,
    rmsprop_step,
    train_rnn,
)
from cardiolearn.rng import SplitMix64


def small_params() -> RNNParams:
    """Fixed 2-unit network used by the hand-unrolled oracle tests."""
    return RNNParams(
        W_xh=np.array([[0.5], [-0.3]]),
        W_hh=np.array([[0.1, 0.2], [-0.4, 0.3]]),
        W_hy=np.array([[0.7, -0.6]]),
        b_h=np.array([0.05, -0.02]),
        b_y=0.1,
    )


def random_params(gen: SplitMix64, hidden: int, scale: float) -> RNNParams:
    return init_params(hidden, 1, scale, gen)


class TestForward:
    def test_zero_parameters_give_even_odds(self):
        params = RNNParams.zeros(hidden_size=3, input_size=1)
        hs, prob = forward(params, as_sequence(np.array([0.4, -1.0, 2.5])))
        assert prob == 0.5
        assert np.all(hs == 0.0)

    def test_output_bias_alone_sets_the_odds(self):
        params = RNNParams.zeros(hidden_size=2, input_size=1)
        params.b_y = math.log(3.0)
        _, prob = forward(params, as_sequence(np.array([1.0, -2.0])))
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
        hs, prob = forward(params, as_sequence(np.array(xs)))
        assert hs.shape == (3, 2)
        for t in range(3):
            assert hs[t, 0] == pytest.approx(states[t][0], abs=1e-12)
            assert hs[t, 1] == pytest.approx(states[t][1], abs=1e-12)
        assert prob == pytest.approx(expected_prob, abs=1e-12)

    def test_hidden_states_strictly_inside_unit_interval(self):
        gen = SplitMix64(3)
        params = random_params(gen, hidden=4, scale=2.0)
        seq = as_sequence(np.array([5.0, -5.0, 3.0, 0.0, -2.0]))
        hs, _ = forward(params, seq)
        assert np.all(hs > -1.0) and np.all(hs < 1.0)

    def test_probability_clamped(self):
        params = RNNParams.zeros(hidden_size=1, input_size=1)
        params.b_y = 100.0
        _, prob = forward(params, as_sequence(np.array([0.0])))
        assert prob == 1.0 - 1e-12

    def test_empty_sequence_rejected(self):
        params = RNNParams.zeros(hidden_size=2, input_size=1)
        with pytest.raises(EmptySequence):
            forward(params, np.empty((0, 1)))

    def test_input_size_mismatch_rejected(self):
        params = RNNParams.zeros(hidden_size=2, input_size=1)
        with pytest.raises(DimensionMismatch):
            forward(params, np.zeros((3, 2)))

    def test_column_order_changes_the_output(self):
        gen = SplitMix64(8)
        params = random_params(gen, hidden=3, scale=0.5)
        a = forward(params, as_sequence(np.array([1.0, -2.0, 0.5])))[1]
        b = forward(params, as_sequence(np.array([0.5, -2.0, 1.0])))[1]
        assert a != b


class TestAsSequence:
    def test_row_becomes_column_of_scalars(self):
        seq = as_sequence(np.array([1.0, 2.0, 3.0]))
        assert seq.shape == (3, 1)
        assert seq[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_rejects_matrices(self):
        with pytest.raises(DimensionMismatch):
            as_sequence(np.zeros((2, 2)))


class TestBce:
    def test_even_odds(self):
        assert bce(0.5, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert bce(0.5, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_confident_correct(self):
        assert bce(0.75, 1.0) == pytest.approx(0.28768, abs=1e-5)

    def test_certainty_is_clamped_finite(self):
        assert bce(1.0, 0.0) == pytest.approx(-math.log(1e-12), rel=1e-6)
        assert bce(0.0, 1.0) == pytest.approx(-math.log(1e-12), rel=1e-6)


class TestBackward:
    def test_zero_parameters_gradient(self):
        params = RNNParams.zeros(hidden_size=3, input_size=1)
        grads = backward(params, as_sequence(np.array([1.0, -1.0])), y=1.0)
        assert grads.b_y == pytest.approx(-0.5, abs=1e-15)
        assert np.all(grads.W_xh == 0.0)
        assert np.all(grads.W_hh == 0.0)
        assert np.all(grads.W_hy == 0.0)
        assert np.all(grads.b_h == 0.0)

    def test_single_step_has_no_recurrent_gradient(self):
        gen = SplitMix64(5)
        params = random_params(gen, hidden=3, scale=0.5)
        grads = backward(params, as_sequence(np.array([0.7])), y=0.0)
        assert np.all(grads.W_hh == 0.0)
        assert not np.all(grads.W_xh == 0.0)

    def test_clamped_output_zeroes_all_gradients(self):
        params = RNNParams.zeros(hidden_size=2, input_size=1)
        params.b_y = 100.0  # saturates past the clamp boundary
        grads = backward(params, as_sequence(np.array([1.0])), y=0.0)
        assert grads.b_y == 0.0
        assert np.all(grads.W_hy == 0.0)

    def test_matches_finite_differences_on_random_instances(self):
        gen = SplitMix64(12)
        for trial in range(20):
            hidden = 2 + trial % 3
            params = random_params(gen, hidden, scale=0.5)
            steps = 3 + trial % 5
            seq = as_sequence(np.array([gen.normal() for _ in range(steps)]))
            y = float(trial % 2)
            assert grad_check(params, seq, y, step=1e-5) < 1e-4, f"trial {trial}"

    def test_finite_difference_step_size_matters(self):
        gen = SplitMix64(77)
        params = random_params(gen, hidden=3, scale=0.5)
        seq = as_sequence(np.array([1.3, -0.4, 0.9, 2.0]))
        fine = grad_check(params, seq, 1.0, step=1e-5)
        coarse = grad_check(params, seq, 1.0, step=1e-1)
        assert fine < 1e-4
        assert coarse > fine

    def test_grad_check_rejects_bad_step(self):
        params = RNNParams.zeros(hidden_size=2, input_size=1)
        seq = as_sequence(np.array([1.0]))
        with pytest.raises(BadHyperparameter):
            grad_check(params, seq, 1.0, step=0.0)


class TestRmsprop:
    def config(self, **overrides):
        base = dict(learning_rate=0.001, rms_decay=0.9, epsilon=1e-8)
        base.update(overrides)
        return RNNTrainConfig(**base)

    def test_first_step_cache_and_delta(self):
        params = RNNParams.zeros(1, 1)
        params.b_y = 0.2
        caches = RNNParams.zeros(1, 1)
        grads = RNNParams.zeros(1, 1)
        grads.b_y = 1.0
        new_p, new_c = rmsprop_step(params, caches, grads, self.config())
        assert new_c.b_y == pytest.approx(0.1, abs=1e-15)
        expected_delta = -0.001 * 1.0 / math.sqrt(0.1 + 1e-8)
        assert new_p.b_y - 0.2 == pytest.approx(expected_delta, abs=1e-12)
        assert new_p.b_y - 0.2 == pytest.approx(-0.0031623, abs=1e-7)

    def test_zero_gradient_decays_cache_and_freezes_param(self):
        params = RNNParams.zeros(1, 1)
        params.b_y = 0.5
        caches = RNNParams.zeros(1, 1)
        caches.b_y = 0.4
        grads = RNNParams.zeros(1, 1)
        new_p, new_c = rmsprop_step(params, caches, grads, self.config())
        assert new_p.b_y == 0.5
        assert new_c.b_y == pytest.approx(0.36, abs=1e-15)

    def test_two_constant_gradient_steps_accumulate_cache(self):
        params = RNNParams.zeros(1, 1)
        caches = RNNParams.zeros(1, 1)
        grads = RNNParams.zeros(1, 1)
        grads.b_y = 2.0
        params, caches = rmsprop_step(params, caches, grads, self.config())
        params, caches = rmsprop_step(params, caches, grads, self.config())
        assert caches.b_y == pytest.approx(0.19 * 4.0, abs=1e-12)

    def test_array_fields_updated_elementwise(self):
        params = RNNParams.zeros(2, 1)
        caches = RNNParams.zeros(2, 1)
        grads = RNNParams.zeros(2, 1)
        grads.W_xh = np.array([[1.0], [-2.0]])
        new_p, new_c = rmsprop_step(params, caches, grads, self.config())
        assert new_c.W_xh[0, 0] == pytest.approx(0.1)
        assert new_c.W_xh[1, 0] == pytest.approx(0.4)
        assert new_p.W_xh[0, 0] == pytest.approx(-0.001 / math.sqrt(0.1 + 1e-8))
        assert new_p.W_xh[1, 0] == pytest.approx(0.002 / math.sqrt(0.4 + 1e-8))

    def test_inputs_left_untouched(self):
        params = RNNParams.zeros(1, 1)
        caches = RNNParams.zeros(1, 1)
        grads = RNNParams.zeros(1, 1)
        grads.b_y = 1.0
        rmsprop_step(params, caches, grads, self.config())
        assert params.b_y == 0.0
        assert caches.b_y == 0.0


class TestEarlyStopper:
    def test_policy_trace(self):
        stopper = EarlyStopper(patience=2)
        losses = [0.50, 0.40, 0.45, 0.46]
        outcomes = [stopper.update(epoch, loss) for epoch, loss in enumerate(losses, start=1)]
        assert outcomes == [False, False, False, True]
        assert stopper.best_epoch == 2
        assert stopper.best_val == 0.40

    def test_monotone_descent_never_stops(self):
        stopper = EarlyStopper(patience=3)
        for epoch in range(1, 51):
            assert not stopper.update(epoch, 1.0 - 0.01 * epoch)
        assert stopper.best_epoch == 50

    def test_improvement_below_epsilon_does_not_count(self):
        stopper = EarlyStopper(patience=2)
        assert not stopper.update(1, 0.5)
        assert not stopper.update(2, 0.5 - IMPROVEMENT_EPS / 2.0)
        assert stopper.update(3, 0.5 - IMPROVEMENT_EPS / 2.0)
        assert stopper.best_epoch == 1

    def test_improvement_at_epsilon_counts(self):
        # 2e-6 and 1e-6 are exact binary multiples, so the drop is exactly eps
        assert 2e-6 - 1e-6 == IMPROVEMENT_EPS
        stopper = EarlyStopper(patience=1)
        assert not stopper.update(1, 2e-6)
        assert not stopper.update(2, 1e-6)
        assert stopper.best_epoch == 2


class TestParamTable:
    def assert_layout(self, params, hidden, inputs):
        for name, shape in RNNParams.shapes(hidden, inputs).items():
            value = getattr(params, name)
            assert isinstance(value, np.ndarray) and value.dtype == np.float64, name
            assert value.shape == shape, name

    def test_table_lists_the_dataclass_fields_in_order(self):
        assert tuple(RNNParams.shapes(3, 2)) == tuple(f.name for f in dataclasses.fields(RNNParams))
        assert RNNParams.shapes(3, 2)["b_y"] == ()

    def test_every_producer_follows_the_table(self):
        params = init_params(3, 1, 0.1, SplitMix64(5))
        self.assert_layout(params, 3, 1)
        self.assert_layout(RNNParams.zeros(3, 2), 3, 2)
        self.assert_layout(params.copy(), 3, 1)
        grads = backward(params, as_sequence(np.array([0.2, -0.7])), 1.0)
        self.assert_layout(grads, 3, 1)
        for updated in rmsprop_step(params, RNNParams.zeros(3, 1), grads, RNNTrainConfig()):
            self.assert_layout(updated, 3, 1)

    def test_python_float_b_y_is_copied_into_an_array(self):
        params = RNNParams.zeros(2, 1)
        params.b_y = 0.25
        copied = params.copy()
        self.assert_layout(copied, 2, 1)
        assert copied.b_y == 0.25


class TestInitParams:
    def test_draw_order_and_row_major_fill(self):
        scale = 0.3
        replay = SplitMix64(41)
        expected = [scale * (2.0 * replay.uniform() - 1.0) for _ in range(11)]
        params = init_params(2, 1, scale, SplitMix64(41))
        flat = (
            list(params.W_xh.reshape(-1))
            + list(params.W_hh.reshape(-1))
            + list(params.W_hy.reshape(-1))
            + list(params.b_h.reshape(-1))
            + [params.b_y]
        )
        assert flat == expected

    def test_range_bound(self):
        params = init_params(8, 1, 0.1, SplitMix64(9))
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
            hidden_size=4, seed=13, init_scale=0.1,
        )
        base.update(overrides)
        return RNNTrainConfig(**base)

    def test_deterministic_bitwise(self):
        train = self.separable()
        val = self.separable(n=8, seed=2)
        config = self.config()
        params_a, hist_a = train_rnn(train, val, config)
        params_b, hist_b = train_rnn(train, val, config)
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
        _, hist_a = train_rnn(train, val, self.config(seed=13))
        _, hist_b = train_rnn(train, val, self.config(seed=14))
        assert hist_a.train_losses != hist_b.train_losses

    def test_returned_params_reproduce_best_epoch_val_loss(self):
        train = self.separable()
        val = self.separable(n=8, seed=2)
        params, history = train_rnn(train, val, self.config())
        total = 0.0
        for row, label in zip(val.values, val.labels):
            _, prob = forward(params, as_sequence(row))
            total += bce(prob, float(label))
        replayed = total / val.n_rows
        assert replayed == history.val_losses[history.best_epoch - 1]
        assert min(history.val_losses) == history.val_losses[history.best_epoch - 1]

    def test_training_reduces_loss_on_separable_data(self):
        train = self.separable(n=32, seed=5)
        val = self.separable(n=12, seed=6)
        _, history = train_rnn(train, val, self.config(max_epochs=30, learning_rate=0.05))
        assert history.train_losses[-1] < history.train_losses[0]

    def test_single_epoch_matches_manual_replay(self):
        # independent replay of init, shuffle, batching, and updates
        train = self.separable(n=10, seed=3)
        val = self.separable(n=6, seed=4)
        config = self.config(max_epochs=1, batch_size=4, seed=21)
        got, history = train_rnn(train, val, config)

        gen = SplitMix64(21)
        params = init_params(config.hidden_size, 1, config.init_scale, gen)
        caches = RNNParams.zeros(config.hidden_size, 1)
        order = list(range(10))
        gen.shuffle(order)
        for start in (0, 4, 8):
            rows = order[start:start + 4]
            acc = RNNParams.zeros(config.hidden_size, 1)
            for r in rows:
                g = backward(params, as_sequence(train.values[r]), float(train.labels[r]))
                acc.W_xh += g.W_xh
                acc.W_hh += g.W_hh
                acc.W_hy += g.W_hy
                acc.b_h += g.b_h
                acc.b_y += g.b_y
            scale = 1.0 / len(rows)
            acc.W_xh *= scale
            acc.W_hh *= scale
            acc.W_hy *= scale
            acc.b_h *= scale
            acc.b_y *= scale
            params, caches = rmsprop_step(params, caches, grads=acc, config=config)

        assert np.array_equal(got.W_xh, params.W_xh)
        assert np.array_equal(got.W_hh, params.W_hh)
        assert np.array_equal(got.W_hy, params.W_hy)
        assert np.array_equal(got.b_h, params.b_h)
        assert got.b_y == params.b_y

        losses = [
            bce(forward(params, as_sequence(row))[1], float(label))
            for row, label in zip(train.values, train.labels)
        ]
        assert history.train_losses == [sum(losses) / len(losses)]
        assert history.best_epoch == 1
        assert history.stopped_epoch == 1

    def test_stagnant_training_stops_after_patience(self):
        train = self.separable()
        val = self.separable(n=8, seed=2)
        config = self.config(learning_rate=1e-12, max_epochs=50, patience=3)
        _, history = train_rnn(train, val, config)
        # epoch 1 always improves on infinity; then patience epochs of stall
        assert history.best_epoch == 1
        assert history.stopped_epoch == 1 + 3
        assert len(history.val_losses) == history.stopped_epoch

    def test_patience_beyond_max_epochs_runs_to_the_end(self):
        train = self.separable()
        val = self.separable(n=8, seed=2)
        config = self.config(max_epochs=6, patience=50)
        _, history = train_rnn(train, val, config)
        assert history.stopped_epoch == 6
        assert len(history.train_losses) == 6

    def test_empty_partitions_rejected(self):
        train = self.separable()
        empty = matrix(np.empty((0, 3)), [])
        with pytest.raises(EmptyPartition):
            train_rnn(empty, train, self.config())
        with pytest.raises(EmptyPartition):
            train_rnn(train, empty, self.config())

    def test_column_mismatch_rejected(self):
        train = self.separable()
        val = matrix(np.zeros((4, 2)), [0, 1, 0, 1])
        with pytest.raises(DimensionMismatch):
            train_rnn(train, val, self.config())

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
                RNNTrainConfig(**bad).validate()


class TestTrainHistory:
    def test_csv_format(self):
        history = TrainHistory(
            train_losses=[0.5, 0.25], val_losses=[0.6, 0.3], best_epoch=2, stopped_epoch=2
        )
        text = history.csv_text()
        lines = text.splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert lines[1] == f"1,{0.5!r},{0.6!r}"
        assert lines[2] == f"2,{0.25!r},{0.3!r}"
        assert text.endswith("\n")


class TestRNNModel:
    def test_prediction_runs_row_as_sequence(self):
        params = small_params()
        model = RNNModel(params=params, history=TrainHistory())
        row = np.array([0.3, -1.2, 2.0])
        _, expected = forward(params, as_sequence(row))
        assert model.predict_proba(row[None]).tolist() == [expected]
