"""Regression-tree weak learners and one log-loss boosting loop.

Per boosting round, with p = sigmoid(margin), one exact-greedy tree is fit
to the Newton step of XGBoost's regularized objective (Chen & Guestrin 2016,
section 2.2):

    gradient   g = p - y
    curvature  h = p * (1 - p)
    leaf       w = -G / (H + lambda)
    split gain = 0.5 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)) - gamma

where G, H sum g, h over the rows at a node; a node or a split side with
H + lambda = 0 has no Newton step: it is a leaf of weight 0, and scores 0
in a gain. The gradient-boosting family is this loop with lambda and
gamma fixed at 0 (`training.FAMILY_CONFIGS`).

Split search is exhaustive: every feature, every midpoint between
consecutive distinct sorted values. It runs on a column block (Chen &
Guestrin 2016, section 4.1): each column of a FeatureMatrix is stably
sorted once, and each node holds a ColumnBlock of its rows: their (d, m)
slice of that order, the values in that order, and a cut table of the cuts
between distinct values with their midpoints. The root's block is built
once per matrix (`FeatureMatrix.column_block`) and shared by every round
and every fit on that matrix. A split divides a block by one stable filter
of its flattened arrays, so every column stays in (value, row) order; the
children of a split at max_depth - 1 are leaves and get no block.

g and h travel as one complex vector, g in the real part and h in the
imaginary part, set part by part with no arithmetic. One gather and one
cumulative sum along each column give GL + i*HL at every cut. Complex
addition adds the real and the imaginary parts apart, each rounded once, so
each prefix is bit for bit the running sum of g or of h added one row at a
time in column order. Gains are scored only at the cut table's cuts, about
half of all d * (m - 1) on an encoded training matrix. Node totals G and H
are sums over the node's rows in ascending row order. Equal gains keep the
lowest feature index, then the lowest threshold, so fits are fully
deterministic.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EmptyNode, SingleClassDataset
from .hyperparams import Hyperparameters, hyperparameter
from .preprocess import ColumnBlock, FeatureMatrix, feature_batch

PROB_CLAMP = 1e-12
_STALL_EPS = 1e-12


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (weight only).

    Routing: value < threshold goes left, otherwise right.
    """
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    weight: float = 0.0
    gain: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def leaf_weights(self, X: np.ndarray) -> np.ndarray:
        """Weight of the leaf each row of X lands in; row-index sets walk down
        the tree together, split by one mask per internal node."""
        out = np.empty(X.shape[0])
        pending = [(self, np.arange(X.shape[0]))]
        while pending:
            node, rows = pending.pop()
            if node.is_leaf:
                out[rows] = node.weight
                continue
            goes_left = X[rows, node.feature] < node.threshold
            pending.append((node.left, rows[goes_left]))
            pending.append((node.right, rows[~goes_left]))
        return out

    def scale_weights(self, factor: float) -> None:
        if self.is_leaf:
            self.weight *= factor
        else:
            self.left.scale_weights(factor)
            self.right.scale_weights(factor)


@dataclass(frozen=True)
class BoostConfig(Hyperparameters):
    # each round fits one tree to every row and keeps it for the bundle: on 734
    # rows at max_depth 3 (2-core Xeon) about 0.7 ms and 0.7 kB of bundle JSON a
    # round, so 10000 rounds are about 7 s and a 7 MB bundle that loading parses whole
    n_rounds: int = hyperparameter(200, "[1, 10000]")
    learning_rate: float = hyperparameter(0.1, "(0, 1]")
    # fit (_build_node), save (_serialize_tree, json's indented encoder) and load
    # (json.loads, _deserialize_tree) each recurse one frame per level under the
    # default limit of 1000: 256 levels leave over 700 frames to their callers
    max_depth: int = hyperparameter(3, "[1, 256]")
    reg_lambda: float = hyperparameter(1.0, "[0, inf)")
    gamma: float = hyperparameter(0.0, "[0, inf)")
    min_child_weight: float = hyperparameter(1.0, "[0, inf)")


@dataclass
class BoostedEnsemble:
    """Fitted trees plus the configuration they were fitted with."""
    config: BoostConfig
    base_score: float
    trees: list = field(default_factory=list)
    n_features: int = 0

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        """Log-odds per row; leaves already carry the learning rate. Trees are
        summed in order from zero, then base_score is added."""
        X = feature_batch(X, self.n_features)
        acc = np.zeros(X.shape[0])
        with np.errstate(over="ignore"):  # an infinite margin is a saturated sigmoid
            for tree in self.trees:
                acc += tree.leaf_weights(X)
            return self.base_score + acc

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Clamped sigmoid of each margin (`clamped_sigmoid`)."""
        return clamped_sigmoid(self.predict_margin(X))[1]


def sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def clamped_sigmoid(margins: np.ndarray):
    """(raw, clamped) probabilities of a 1-d array of margins, as float64
    arrays. The scalar `sigmoid` runs per margin on Python floats, since
    np.exp differs from math.exp in the last bit on some inputs. The clamped
    array holds each probability clipped to [PROB_CLAMP, 1 - PROB_CLAMP]; a
    NaN stays NaN."""
    raw = np.array([sigmoid(z) for z in margins.tolist()], dtype=float)
    return raw, np.clip(raw, PROB_CLAMP, 1.0 - PROB_CLAMP)


@dataclass(frozen=True)
class GradHess:
    g: np.ndarray
    h: np.ndarray


def grad_hess(margins: np.ndarray, labels: np.ndarray) -> GradHess:
    pos = margins >= 0.0
    p = np.empty(margins.shape, dtype=float)
    p[pos] = 1.0 / (1.0 + np.exp(-margins[pos]))
    ez = np.exp(margins[~pos])
    p[~pos] = ez / (1.0 + ez)
    return GradHess(g=p - labels, h=p * (1.0 - p))


def _leaf(g_sum: float, h_sum: float, reg_lambda: float) -> TreeNode:
    """The Newton step, or weight 0 with no curvature (H + lambda = 0)."""
    curvature = h_sum + reg_lambda
    return TreeNode(weight=-g_sum / curvature if curvature else 0.0)


def _best_split(z, block, g_sum, h_sum, config):
    """Exhaustive (feature, midpoint) search over a node's ColumnBlock; None
    when no cut has positive gain.

    z holds g in its real part and h in its imaginary part, so one
    cumulative sum along each column of z in the block's order gives the
    exact running sums GL + i*HL. Only the block's value-distinct cuts are
    scored; one that leaves either side below min_child_weight cannot win,
    and may divide zero by zero on the way.
    """
    order, cuts = block.order, block.cuts
    parent_score = g_sum * g_sum / (h_sum + config.reg_lambda)
    left_sums = np.cumsum(np.take(z, order[:, :-1]), axis=1).ravel().take(cuts)
    # complex(...), not g_sum + 1j * h_sum, which turns a -0.0 g_sum into +0.0
    right_sums = complex(g_sum, h_sum) - left_sums
    gl, hl = left_sums.real, left_sums.imag
    gr, hr = right_sums.real, right_sums.imag
    with np.errstate(all="ignore"):
        left = gl * gl / (hl + config.reg_lambda)
        right = gr * gr / (hr + config.reg_lambda)
        if config.reg_lambda == 0.0 and config.min_child_weight == 0.0:
            # h, lambda, min_child_weight >= 0, so only here can a side with
            # H + lambda = 0 be valid; it has no Newton step, as in _leaf, so
            # it scores 0 rather than G^2 / 0
            left[hl == 0.0] = 0.0
            right[hr == 0.0] = 0.0
        gain = 0.5 * (left + right - parent_score) - config.gamma
        valid = (hl >= config.min_child_weight) & (hr >= config.min_child_weight) & (gain > 0.0)
    if not valid.any():
        return None
    # cuts ascend in feature-major order, so the first maximum is the lowest
    # feature, then the lowest threshold, as a scan keeping only strictly
    # greater gains finds
    best = int(np.argmax(np.where(valid, gain, -np.inf)))
    return int(cuts[best]) // (order.shape[1] - 1), block.thresholds[best], float(gain[best])


def _child_block(block, keep):
    """The ColumnBlock of the rows at the (d * m,) mask `keep` over `block`; a
    stable filter keeps each column in (value, row) order."""
    keep = np.flatnonzero(keep)
    d = block.order.shape[0]
    return ColumnBlock.of(block.order.ravel().take(keep).reshape(d, -1),
                          block.sorted_values.ravel().take(keep).reshape(d, -1))


def _build_node(values, g, h, z, rows, block, config, depth):
    """Node over ascending `rows`, whose ColumnBlock `block` lists the same
    rows once per column; `block` is None at max_depth, where the node is a
    leaf."""
    g_sum = float(g[rows].sum())
    h_sum = float(h[rows].sum())
    if depth >= config.max_depth or len(rows) < 2 or h_sum + config.reg_lambda == 0.0:
        return _leaf(g_sum, h_sum, config.reg_lambda)
    split = _best_split(z, block, g_sum, h_sum, config)
    if split is None:
        return _leaf(g_sum, h_sum, config.reg_lambda)
    feature, threshold, gain = split
    goes_left = values[:, feature] < threshold
    node = TreeNode(feature=feature, threshold=threshold, gain=gain)
    # children at max_depth are leaves and get no block; each other child's
    # block is built just before descending into it
    leaves = depth + 1 == config.max_depth
    left = None if leaves else goes_left[block.order].ravel()
    node.left = _build_node(values, g, h, z, rows[goes_left[rows]],
                            None if leaves else _child_block(block, left), config, depth + 1)
    node.right = _build_node(values, g, h, z, rows[~goes_left[rows]],
                             None if leaves else _child_block(block, ~left), config, depth + 1)
    return node


def fit_tree(m: FeatureMatrix, gh: GradHess, config: BoostConfig) -> TreeNode:
    """Fit one regression tree to the given gradients and curvatures."""
    if m.n_rows == 0:
        raise EmptyNode("cannot fit a tree on zero rows")
    z = np.empty(m.n_rows, dtype=complex)
    z.real = gh.g
    z.imag = gh.h
    return _build_node(m.values, gh.g, gh.h, z, np.arange(m.n_rows), m.column_block,
                       config, depth=0)


def fit_boosted(m: FeatureMatrix, config: BoostConfig) -> BoostedEnsemble:
    """Train an additive tree ensemble on binary log-loss.

    Starts from the base log-odds of the positive rate. Each round fits one
    tree to the current gradients/curvatures and adds it with its leaf
    weights scaled by the learning rate. Rounds stop early when the best
    root split has no positive gain and the root leaf weight is negligible.
    """
    labels = m.labels.astype(float)
    positive_rate = float(labels.mean())
    if positive_rate in (0.0, 1.0):
        raise SingleClassDataset("boosting needs samples from both classes")
    base_score = math.log(positive_rate / (1.0 - positive_rate))
    ensemble = BoostedEnsemble(config=config, base_score=base_score, n_features=m.n_cols)
    margins = np.full(m.n_rows, base_score)
    for _ in range(config.n_rounds):
        gh = grad_hess(margins, labels)
        tree = fit_tree(m, gh, config)
        if tree.is_leaf and abs(tree.weight) < _STALL_EPS:
            break
        tree.scale_weights(config.learning_rate)
        margins += tree.leaf_weights(m.values)
        ensemble.trees.append(tree)
    return ensemble
