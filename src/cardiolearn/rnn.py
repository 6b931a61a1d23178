"""Elman recurrent network for binary classification of feature rows.

A standardized row x of d features is read as a length-d sequence of scalar
inputs, so the input width is always 1, through a single tanh recurrent
layer:

    h_0 = 0
    h_t = tanh(W_xh[:, 0] * x_t + W_hh h_{t-1} + b_h)
    p   = sigmoid(W_hy h_T + b_y), clamped to [1e-12, 1 - 1e-12]

Training minimizes binary cross-entropy by backpropagation through time
with RMSprop updates, minibatch gradients averaged over the batch, and
early stopping on validation loss with best-epoch weight restoration.
Everything is a pure function of (data, config, seed): parameter init and
epoch shuffles draw from one deterministic generator stream.

Column order matters: permuting features permutes the sequence and changes
the model. grad_check verifies the analytic gradients against central
finite differences for every parameter entry.

One batched forward kernel (`_forward_batch`) and one batched BPTT kernel
(`_backward_batch`) run a (B, T) block of rows at once; prediction, the
epoch losses and the minibatch gradients call them. `forward` and
`backward` are their B = 1 views, which only `grad_check` and the tests use.
Every row's forward pass gets the same bits the per-row recurrence gives,
and an epoch's loss the bits of a left-to-right loop, because:
- the input term of every row and step is one elementwise product over the
  (B, T) block, made before the step loop, which then adds only the
  recurrent term W_hh h_{t-1}. With a width of 1 each entry of `W_xh @ x_t`
  is a single product with no sum. Where that product is -0.0 the gemv
  gives +0.0, and adding the recurrent term, which a gemv never gives as
  -0.0, makes the two equal;
- each remaining mat-vec product is a stacked matmul, one gemv (or dot) per
  vector, the call `W @ v` makes for a single vector;
- the output sigmoid runs once per row on Python floats
  (`boosting.clamped_sigmoid`), since np.exp may differ from math.exp in
  the last bit; the clamp is one np.clip over the rows, and a row is
  clamped exactly where the raw and the clamped arrays differ;
- the per-row losses of an epoch are added left to right by
  `np.add.accumulate`, not by NumPy's pairwise `sum` nor by the builtin
  `sum`, which compensates from Python 3.12 on.

BPTT sums a block over the batch inside each step (einsum, no BLAS call)
into one flat accumulator, and a minibatch adds its blocks in block order:
a fit stays a pure function of (data, config, seed), and a minibatch
gradient is the rows' mean up to rounding.

The weights, their gradients and the RMSprop caches are each one float64
vector of P = H^2 + 3H + 1 numbers (`RNNParams.flat`), the fields one
after another, each row-major. The fields are views of it that cannot be
rebound: a caller writes in place, as in `params.b_y[...] = v`.
"""

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .boosting import clamped_sigmoid
from .errors import (
    BadHyperparameter,
    DimensionMismatch,
    EmptyPartition,
    EmptySequence,
    NonFiniteFeature,
)
from .hyperparams import Hyperparameters, hyperparameter
from .preprocess import FeatureMatrix, feature_batch
from .rng import SplitMix64

IMPROVEMENT_EPS = 1e-6
# floats of input terms and hidden states one batch kernel call holds (8 MB)
_BLOCK_FLOATS = 1 << 20
_PARAM_FIELDS = ("W_xh", "W_hh", "W_hy", "b_h", "b_y")


@dataclass(frozen=True, eq=False)
class RNNParams:
    """Network weights; also reused as the container for gradients and
    RMSprop caches, which share this layout.

    `flat` is one float64 vector holding the fields in `_PARAM_FIELDS`
    order (also the init draw order), each row-major, with the shapes
    `shapes(H)` gives for H = hidden_size: W_xh (H, 1), the input weights
    of the one scalar input, W_hh (H, H), W_hy (1, H), b_h (H,) and b_y (),
    0-d. Each field is a view of `flat`. The object is frozen, so no field
    can be rebound: a caller writes in place, as in `params.b_y[...] = v`.
    """
    hidden_size: int
    flat: np.ndarray
    W_xh: np.ndarray = field(init=False, repr=False)
    W_hh: np.ndarray = field(init=False, repr=False)
    W_hy: np.ndarray = field(init=False, repr=False)
    b_h: np.ndarray = field(init=False, repr=False)
    b_y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stop = 0
        for name, shape in self.shapes(self.hidden_size).items():
            start, stop = stop, stop + math.prod(shape)
            object.__setattr__(self, name, self.flat[start:stop].reshape(shape))

    @staticmethod
    def shapes(hidden_size) -> dict:
        h = hidden_size
        return dict(zip(_PARAM_FIELDS, ((h, 1), (h, h), (1, h), (h,), ())))

    def copy(self) -> "RNNParams":
        return RNNParams(self.hidden_size, self.flat.copy())

    @classmethod
    def zeros(cls, hidden_size: int) -> "RNNParams":
        return cls(hidden_size, np.zeros(sum(map(math.prod, cls.shapes(hidden_size).values()))))


@dataclass(frozen=True)
class RNNTrainConfig(Hyperparameters):
    learning_rate: float = hyperparameter(0.001, "(0, inf)")
    rms_decay: float = hyperparameter(0.9, "(0, 1)")
    epsilon: float = hyperparameter(1e-8, "(0, inf)")
    # each epoch is a forward and a backward pass over every training row, and
    # adds two losses to the history and one line to the curves file: on 734 rows
    # at hidden_size 16 (2-core Xeon) about 28 ms, so 10000 epochs are about 5 minutes
    max_epochs: int = hyperparameter(200, "[1, 10000]")
    patience: int = hyperparameter(10, "[1, inf)")
    batch_size: int = hyperparameter(32, "[1, inf)")
    # init draws H^2 + 3H + 1 values one at a time: H = 1024 is about 1 M draws and an 8 MB W_hh
    hidden_size: int = hyperparameter(16, "[1, 1024]")
    init_scale: float = hyperparameter(0.1, "(0, inf)")


@dataclass
class TrainHistory:
    """The one record of a fit's epochs (1-based): the per-epoch losses and
    the best epoch, 0 until an epoch improves.

    An epoch improves when it lowers the best validation loss by at least
    IMPROVEMENT_EPS (1e-6); a NaN or +inf loss never improves. `train_rnn`
    stops once `patience` epochs have passed since the best epoch, and
    returns the best epoch's weights; it raises if no epoch improved.
    """
    train_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)
    best_epoch: int = 0

    @property
    def stopped_epoch(self) -> int:
        return len(self.val_losses)

    def record(self, train_loss: float, val_loss: float) -> bool:
        """Append one epoch's losses; True, with that epoch now the best,
        when it improves."""
        best = self.val_losses[self.best_epoch - 1] if self.best_epoch else math.inf
        self.train_losses.append(train_loss)
        self.val_losses.append(val_loss)
        # a NaN loss compares False here; the negated test (`< eps` returns False) would let it through
        if best - val_loss >= IMPROVEMENT_EPS:
            self.best_epoch = len(self.val_losses)
            return True
        return False


def init_params(hidden_size: int, init_scale: float, gen: SplitMix64) -> RNNParams:
    """Uniform init in [-init_scale, init_scale], one draw per entry of
    `flat` in order: field by field in `_PARAM_FIELDS` order, row-major
    inside each field."""
    params = RNNParams.zeros(hidden_size)
    params.flat[:] = [init_scale * (2.0 * gen.uniform() - 1.0) for _ in range(params.flat.size)]
    return params


def _matvec(W: np.ndarray, V: np.ndarray) -> np.ndarray:
    """`W @ v` for every row v of a (B, H) stack of hidden states or their
    gradients, against W_hh, W_hh.T or W_hy, as one stacked matmul:
    (B, H) -> (B, m).

    NumPy runs one gemv (or dot) per stack slice, the same BLAS call that
    `W @ v` makes for a single vector, so every product is bit-identical
    to the per-vector one. `V @ W.T` (one gemm), an einsum or a broadcast
    multiply and sum add the same terms in another order and change bits.
    """
    return np.matmul(W, V[..., np.newaxis])[..., 0]


def _forward_batch(params: RNNParams, X: np.ndarray):
    """Run the recurrence on a (B, T) block of rows at once, each row a
    sequence of T scalar inputs.

    Returns the hidden states (T+1, B, H) with h_0 = 0, and the raw and the
    clamped output probabilities, (B,) each.
    """
    n_rows, steps = X.shape
    if steps == 0:
        raise EmptySequence("cannot run the network on an empty sequence")
    inputs = X[:, :, np.newaxis] * params.W_xh[:, 0]
    hs = np.zeros((steps + 1, n_rows, params.hidden_size))
    for t in range(steps):
        hs[t + 1] = np.tanh(inputs[:, t] + _matvec(params.W_hh, hs[t]) + params.b_h)
    return (hs, *clamped_sigmoid(_matvec(params.W_hy, hs[steps])[:, 0] + params.b_y))


def _backward_batch(params: RNNParams, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Sum of the BPTT gradients of bce over a (B, T) block of rows, one (P,)
    vector in the layout of `RNNParams.flat`. A clamped row's loss is locally
    flat, so its dz is +0.0 and it adds nothing.

    Each step adds its batch sum onto the +0.0-started accumulator, with no
    BLAS call: einsum runs NumPy's own loop, in row order for a field at
    least two wide, and b_y's sum is np.add.accumulate's, in row order."""
    hs, raw, prob = _forward_batch(params, X)
    steps = X.shape[1]
    dz = np.where(raw == prob, prob - labels, 0.0)
    grads = RNNParams.zeros(params.hidden_size)
    grads.W_hy[0] += np.einsum("b,bi->i", dz, hs[steps])
    grads.b_y[...] += np.add.accumulate(dz)[-1]
    dh = dz[:, np.newaxis] * params.W_hy[0]
    for t in range(steps, 0, -1):
        dz_h = (1.0 - hs[t] * hs[t]) * dh
        grads.W_hh[...] += np.einsum("bi,bj->ij", dz_h, hs[t - 1])
        grads.W_xh[:, 0] += np.einsum("b,bi->i", X[:, t - 1], dz_h)
        grads.b_h[...] += np.einsum("bi->i", dz_h)
        dh = _matvec(params.W_hh.T, dz_h)
    return grads.flat


def _row_batch(x: np.ndarray) -> np.ndarray:
    """One 1-d feature row as a block of one row, (1, T)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d feature row, got shape {x.shape}")
    return x[np.newaxis]


def forward(params: RNNParams, x: np.ndarray) -> float:
    """Run the recurrence on one feature row; returns its clamped probability."""
    return float(_forward_batch(params, _row_batch(x))[2][0])


def bce(p: float, y: float) -> float:
    """Binary cross-entropy of a probability against a 0/1 label. `p` must
    already be clamped to [1e-12, 1 - 1e-12], as `forward` and
    `clamped_sigmoid` return it: bce does not clamp it again."""
    return -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))


def backward(params: RNNParams, x: np.ndarray, y: float) -> RNNParams:
    """Exact gradients of bce(forward(params, x), y) via backpropagation
    through time. When the output probability sits at a clamp boundary the
    loss is locally flat in the parameters, so all gradients are zero."""
    return RNNParams(params.hidden_size,
                     _backward_batch(params, _row_batch(x), np.array([y], dtype=float)))


def rmsprop_step(params: RNNParams, caches: RNNParams, grads: RNNParams,
                 config: RNNTrainConfig) -> Tuple[RNNParams, RNNParams]:
    """One RMSprop update; returns fresh (params, caches).

    cache <- rho * cache + (1 - rho) * g^2
    param <- param - lr * g / sqrt(cache + eps)
    """
    rho = config.rms_decay
    lr = config.learning_rate
    eps = config.epsilon
    g = grads.flat
    cache = rho * caches.flat + (1.0 - rho) * g * g
    return (RNNParams(params.hidden_size, params.flat - lr * g / np.sqrt(cache + eps)),
            RNNParams(params.hidden_size, cache))


def _row_blocks(params: RNNParams, n_rows: int, steps: int) -> list:
    """Row slices that keep one batch kernel call near _BLOCK_FLOATS floats of
    input terms and hidden states, whatever the row count: a row holds
    H * (2T + 1) of them. The gradient accumulator is one (P,) vector per
    call, whatever the block's size."""
    per_row = params.hidden_size * (2 * steps + 1)
    size = max(1, _BLOCK_FLOATS // per_row)
    return [slice(start, start + size) for start in range(0, n_rows, size)]


def _probabilities(params: RNNParams, X: np.ndarray) -> np.ndarray:
    """Clamped probability per row of X, each row run as its own sequence."""
    probs = np.empty(X.shape[0])
    for block in _row_blocks(params, X.shape[0], X.shape[1]):
        probs[block] = _forward_batch(params, X[block])[2]
    return probs


def _mean_loss(params: RNNParams, m: FeatureMatrix) -> float:
    # bce's scalar arithmetic runs faster on Python floats than on NumPy scalars
    probs = _probabilities(params, m.values).tolist()
    losses = [bce(p, float(y)) for p, y in zip(probs, m.labels)]
    return float(np.add.accumulate(losses)[-1]) / m.n_rows


def _batch_grads(params: RNNParams, m: FeatureMatrix, rows) -> RNNParams:
    """Mean of the rows' gradients: each block's summed gradient is added in
    block order onto a +0.0 accumulator, then scaled by 1 / len(rows)."""
    rows = np.asarray(rows)
    total = np.zeros(params.flat.size)
    for block in _row_blocks(params, len(rows), m.n_cols):
        picked = rows[block]
        total += _backward_batch(params, m.values[picked], m.labels[picked].astype(float))
    total *= 1.0 / len(rows)
    return RNNParams(params.hidden_size, total)


def train_rnn(train: FeatureMatrix, val: FeatureMatrix, config: RNNTrainConfig,
              seed: int) -> Tuple[RNNParams, TrainHistory]:
    """Minibatch RMSprop training with early stopping.

    Row order is reshuffled every epoch from the same stream, seeded by
    `seed`, that produced the initial weights. Batch gradients are averaged over the
    batch (the final short batch over its own size). An epoch improves when
    it lowers the best validation loss by at least 1e-6; a NaN never
    improves. Training stops once `patience` epochs have passed since the
    best epoch, and returns the best epoch's weights. A fit in which no epoch
    improved, which happens only when every validation loss is NaN or +inf,
    raises BadHyperparameter.
    """
    if train.n_rows == 0:
        raise EmptyPartition("training partition is empty")
    if val.n_rows == 0:
        raise EmptyPartition("validation partition is empty")
    if train.n_cols != val.n_cols:
        raise DimensionMismatch(
            f"train has {train.n_cols} columns but validation has {val.n_cols}"
        )
    gen = SplitMix64(seed)
    params = init_params(config.hidden_size, config.init_scale, gen)
    caches = RNNParams.zeros(config.hidden_size)
    history = TrainHistory()
    best_params = params
    order = list(range(train.n_rows))
    # a diverging fit overflows to inf and NaN; it is reported once, below
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            gen.shuffle(order)
            for start in range(0, len(order), config.batch_size):
                batch = order[start:start + config.batch_size]
                grads = _batch_grads(params, train, batch)
                params, caches = rmsprop_step(params, caches, grads, config)
            # rmsprop_step returns fresh arrays, so the best weights need no copy
            if history.record(_mean_loss(params, train), _mean_loss(params, val)):
                best_params = params
            elif epoch - history.best_epoch >= config.patience:
                break
    if history.best_epoch == 0:
        raise BadHyperparameter(
            f"the fit diverged: the validation loss was not finite in any of its "
            f"{history.stopped_epoch} epochs; lower learning_rate "
            f"({config.learning_rate!r}) or init_scale ({config.init_scale!r})")
    return best_params, history


def grad_check(params: RNNParams, x: np.ndarray, y: float,
               step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    over every parameter entry: |a - n| / max(|a|, |n|, 1e-8)."""
    if step <= 0.0:
        raise BadHyperparameter(f"step must be > 0, got {step}")

    def loss_at(p: RNNParams) -> float:
        return bce(forward(p, x), y)

    analytic = backward(params, x, y).flat
    probe = params.copy()
    worst = 0.0
    for i, a in enumerate(analytic):
        original = probe.flat[i]
        probe.flat[i] = original + step
        up = loss_at(probe)
        probe.flat[i] = original - step
        down = loss_at(probe)
        probe.flat[i] = original
        numeric = (up - down) / (2.0 * step)
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return worst


@dataclass
class RNNModel:
    """Trained network exposed through the shared prediction interface; its
    training history comes back beside it from `training.fit_algorithm`."""
    params: RNNParams

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Positive-class probability per row; each row runs as its own sequence.
        A pre-activation may overflow, harmlessly through tanh and sigmoid, but
        a row whose probability comes out NaN is an error."""
        with np.errstate(over="ignore", invalid="ignore"):
            probs = _probabilities(self.params, feature_batch(X))
        lost = np.isnan(probs)
        if lost.any():
            raise NonFiniteFeature(
                f"row {int(np.argmax(lost))}: the network's output is not a number")
        return probs
