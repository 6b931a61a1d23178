"""Elman recurrent network for binary classification of feature rows.

A standardized row of d features becomes a length-d sequence of scalar
inputs (input size 1), fed through a single tanh recurrent layer:

    h_0 = 0
    h_t = tanh(W_xh x_t + W_hh h_{t-1} + b_h)
    p   = sigmoid(W_hy h_T + b_y), clamped to [1e-12, 1 - 1e-12]

Training minimizes binary cross-entropy by backpropagation through time
with RMSprop updates, minibatch gradients averaged over the batch, and
early stopping on validation loss with best-epoch weight restoration.
Everything is a pure function of (data, config including seed): parameter
init and epoch shuffles draw from one deterministic generator stream.

Column order matters: permuting features permutes the sequence and changes
the model. grad_check verifies the analytic gradients against central
finite differences for every parameter entry.
"""

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .boosting import PROB_CLAMP, clamp_probability, sigmoid
from .dataset import csv_table
from .errors import (
    BadHyperparameter,
    DimensionMismatch,
    EmptyPartition,
    EmptySequence,
)
from .hyperparams import Hyperparameters, hyperparameter
from .preprocess import FeatureMatrix, feature_batch
from .rng import SplitMix64

IMPROVEMENT_EPS = 1e-6
_PARAM_FIELDS = ("W_xh", "W_hh", "W_hy", "b_h", "b_y")


class EarlyStopper:
    """Patience counter over validation losses (epochs are 1-based).

    An epoch improves when it beats the best loss so far by at least
    IMPROVEMENT_EPS; `update` returns True once `patience` consecutive
    epochs have failed to improve.
    """

    def __init__(self, patience: int):
        self.patience = patience
        self.best_val = math.inf
        self.best_epoch = 0
        self.streak = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        if self.best_val - val_loss >= IMPROVEMENT_EPS:
            self.best_val = val_loss
            self.best_epoch = epoch
            self.streak = 0
            return False
        self.streak += 1
        return self.streak >= self.patience


@dataclass
class RNNParams:
    """Network weights; also reused as the container for gradients and
    RMSprop caches, which share these shapes.

    The fields, in `_PARAM_FIELDS` order (also the init draw order), have
    the shapes `shapes(H, I)` gives for H = hidden_size, I = input_size:
    W_xh (H, I), W_hh (H, H), W_hy (1, H), b_h (H,) and b_y (), a 0-d
    float64 array, so every field takes the same array code (which also
    accepts a Python float assigned to b_y).
    """
    W_xh: np.ndarray
    W_hh: np.ndarray
    W_hy: np.ndarray
    b_h: np.ndarray
    b_y: np.ndarray

    @staticmethod
    def shapes(hidden_size, input_size) -> dict:
        h = hidden_size
        return dict(zip(_PARAM_FIELDS, ((h, input_size), (h, h), (1, h), (h,), ())))

    def arrays(self) -> list:
        return [getattr(self, name) for name in _PARAM_FIELDS]

    @property
    def hidden_size(self) -> int:
        return self.W_xh.shape[0]

    @property
    def input_size(self) -> int:
        return self.W_xh.shape[1]

    def copy(self) -> "RNNParams":
        return RNNParams(*(np.array(value, dtype=float) for value in self.arrays()))

    @classmethod
    def zeros(cls, hidden_size: int, input_size: int) -> "RNNParams":
        return cls(*(np.zeros(shape) for shape in cls.shapes(hidden_size, input_size).values()))


@dataclass(frozen=True)
class RNNTrainConfig(Hyperparameters):
    learning_rate: float = hyperparameter(0.001, "(0, inf)")
    rms_decay: float = hyperparameter(0.9, "(0, 1)")
    epsilon: float = hyperparameter(1e-8, "(0, inf)")
    max_epochs: int = hyperparameter(200, "[1, inf)")
    patience: int = hyperparameter(10, "[1, inf)")
    batch_size: int = hyperparameter(32, "[1, inf)")
    hidden_size: int = hyperparameter(16, "[1, inf)")
    seed: int = 0
    init_scale: float = hyperparameter(0.1, "(0, inf)")


@dataclass
class TrainHistory:
    """Per-epoch losses plus the early-stopping outcome (1-based epochs)."""
    train_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0

    def csv_text(self) -> str:
        return csv_table(
            ("epoch", "train_loss", "val_loss"),
            ((str(i), repr(tr), repr(va))
             for i, (tr, va) in enumerate(zip(self.train_losses, self.val_losses), start=1)),
        )


def init_params(hidden_size: int, input_size: int, init_scale: float,
                gen: SplitMix64) -> RNNParams:
    """Uniform init in [-init_scale, init_scale], drawn field by field in
    `_PARAM_FIELDS` order with row-major fill inside each array."""

    def draw(shape) -> np.ndarray:
        n = int(np.prod(shape))
        flat = np.array([init_scale * (2.0 * gen.uniform() - 1.0) for _ in range(n)])
        return flat.reshape(shape)

    return RNNParams(*(draw(shape) for shape in RNNParams.shapes(hidden_size, input_size).values()))


def as_sequence(x: np.ndarray) -> np.ndarray:
    """Render a feature vector as a (length, 1) sequence of scalar inputs,
    preserving column order."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d feature vector, got shape {x.shape}")
    return x.reshape(-1, 1)


def _forward_full(params: RNNParams, seq: np.ndarray):
    seq = np.asarray(seq, dtype=float)
    if seq.ndim != 2:
        raise DimensionMismatch(f"expected a (T, input_size) sequence, got shape {seq.shape}")
    if seq.shape[0] == 0:
        raise EmptySequence("cannot run the network on an empty sequence")
    if seq.shape[1] != params.input_size:
        raise DimensionMismatch(
            f"sequence input size {seq.shape[1]} != parameter input size {params.input_size}"
        )
    steps = seq.shape[0]
    hs = np.zeros((steps + 1, params.hidden_size))
    for t in range(steps):
        hs[t + 1] = np.tanh(
            params.W_xh @ seq[t] + params.W_hh @ hs[t] + params.b_h
        )
    raw = sigmoid(float((params.W_hy @ hs[steps])[0]) + float(params.b_y))
    return hs, raw, clamp_probability(raw)


def forward(params: RNNParams, seq: np.ndarray) -> Tuple[np.ndarray, float]:
    """Run the recurrence; returns (hidden states h_1..h_T, probability)."""
    hs, _, prob = _forward_full(params, seq)
    return hs[1:], prob


def bce(p: float, y: float) -> float:
    """Binary cross-entropy of one clamped probability against a 0/1 label."""
    p = clamp_probability(p)
    return -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))


def backward(params: RNNParams, seq: np.ndarray, y: float) -> RNNParams:
    """Exact gradients of bce(forward(params, seq), y) via backpropagation
    through time. When the output probability sits at a clamp boundary the
    loss is locally flat in the parameters, so all gradients are zero."""
    hs, raw, prob = _forward_full(params, seq)
    seq = np.asarray(seq, dtype=float)
    grads = RNNParams.zeros(params.hidden_size, params.input_size)
    if raw != prob:
        return grads
    dz = prob - y
    steps = seq.shape[0]
    grads.W_hy = dz * hs[steps][np.newaxis, :]
    grads.b_y = np.array(dz)
    dh = dz * params.W_hy[0]
    for t in range(steps, 0, -1):
        dz_h = (1.0 - hs[t] * hs[t]) * dh
        grads.W_xh += np.outer(dz_h, seq[t - 1])
        grads.W_hh += np.outer(dz_h, hs[t - 1])
        grads.b_h += dz_h
        dh = params.W_hh.T @ dz_h
    return grads


def rmsprop_step(params: RNNParams, caches: RNNParams, grads: RNNParams,
                 config: RNNTrainConfig) -> Tuple[RNNParams, RNNParams]:
    """One RMSprop update; returns fresh (params, caches).

    cache <- rho * cache + (1 - rho) * g^2
    param <- param - lr * g / sqrt(cache + eps)
    """
    rho = config.rms_decay
    lr = config.learning_rate
    eps = config.epsilon

    def update(p, c, g):
        c2 = rho * c + (1.0 - rho) * g * g
        return np.asarray(p - lr * g / np.sqrt(c2 + eps)), np.asarray(c2)

    pairs = [update(*fields) for fields in zip(params.arrays(), caches.arrays(), grads.arrays())]
    return RNNParams(*(p for p, _ in pairs)), RNNParams(*(c for _, c in pairs))


def _mean_loss(params: RNNParams, m: FeatureMatrix) -> float:
    probs = RNNModel(params=params, history=TrainHistory()).predict_proba(m.values)
    return sum(bce(p, float(y)) for p, y in zip(probs.tolist(), m.labels)) / m.n_rows


def _batch_grads(params: RNNParams, m: FeatureMatrix, rows) -> RNNParams:
    acc = RNNParams.zeros(params.hidden_size, params.input_size)
    totals = acc.arrays()  # updated in place below
    for r in rows:
        g = backward(params, as_sequence(m.values[r]), float(m.labels[r]))
        for total, part in zip(totals, g.arrays()):
            total += part
    scale = 1.0 / len(rows)
    for total in totals:
        total *= scale
    return acc


def train_rnn(train: FeatureMatrix, val: FeatureMatrix,
              config: RNNTrainConfig) -> Tuple[RNNParams, TrainHistory]:
    """Minibatch RMSprop training with early stopping.

    Row order is reshuffled every epoch from the same seeded stream that
    produced the initial weights. Batch gradients are averaged over the
    batch (the final short batch over its own size). An epoch improves when
    it lowers the best validation loss by at least 1e-6; after `patience`
    consecutive non-improving epochs training stops, and the weights
    snapshotted at the best epoch are returned.
    """
    config.validate()
    if train.n_rows == 0:
        raise EmptyPartition("training partition is empty")
    if val.n_rows == 0:
        raise EmptyPartition("validation partition is empty")
    if train.n_cols != val.n_cols:
        raise DimensionMismatch(
            f"train has {train.n_cols} columns but validation has {val.n_cols}"
        )
    gen = SplitMix64(config.seed)
    params = init_params(config.hidden_size, 1, config.init_scale, gen)
    caches = RNNParams.zeros(config.hidden_size, 1)
    history = TrainHistory()
    best_params = params.copy()
    stopper = EarlyStopper(config.patience)
    order = list(range(train.n_rows))
    for epoch in range(1, config.max_epochs + 1):
        gen.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            grads = _batch_grads(params, train, batch)
            params, caches = rmsprop_step(params, caches, grads, config)
        history.train_losses.append(_mean_loss(params, train))
        val_loss = _mean_loss(params, val)
        history.val_losses.append(val_loss)
        history.stopped_epoch = epoch
        stop = stopper.update(epoch, val_loss)
        if stopper.best_epoch == epoch:
            history.best_epoch = epoch
            best_params = params.copy()
        if stop:
            break
    return best_params, history


def grad_check(params: RNNParams, seq: np.ndarray, y: float,
               step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    over every parameter entry: |a - n| / max(|a|, |n|, 1e-8)."""
    if step <= 0.0:
        raise BadHyperparameter(f"step must be > 0, got {step}")

    def loss_at(p: RNNParams) -> float:
        _, prob = forward(p, seq)
        return bce(prob, y)

    analytic = backward(params, seq, y)
    worst = 0.0
    for field_index, a_value in enumerate(analytic.arrays()):
        a_flat = np.reshape(a_value, -1)
        for i in range(a_flat.size):
            probe = params.copy()
            entry = probe.arrays()[field_index].reshape(-1)  # a view: copies are contiguous
            original = entry[i]
            entry[i] = original + step
            up = loss_at(probe)
            entry[i] = original - step
            down = loss_at(probe)
            numeric = (up - down) / (2.0 * step)
            a = a_flat[i]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return worst


@dataclass
class RNNModel:
    """Trained network exposed through the shared prediction interface."""
    params: RNNParams
    history: TrainHistory

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Positive-class probability per row; each row runs as its own sequence."""
        X = feature_batch(X)
        return np.array([forward(self.params, as_sequence(row))[1] for row in X], dtype=float)
