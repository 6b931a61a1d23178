"""Regression-tree weak learners and two log-loss boosting drivers.

Both drivers share the same exact-greedy tree machinery. Per boosting round,
with p = sigmoid(margin):

    gradient   g = p - y
    curvature  h = p * (1 - p)
    leaf       w = -G / (H + lambda)
    split gain = 0.5 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)) - gamma

where G, H sum g, h over the rows at a node. Second-order mode exposes
lambda and gamma; first-order mode runs the identical machinery with both
pinned to zero, so the two modes differ exactly by regularization.

Split search is exhaustive: every feature, every midpoint between
consecutive distinct sorted values. Equal gains keep the lowest feature
index, then the lowest threshold, so fits are fully deterministic.
"""

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EmptyNode, SingleClassDataset
from .hyperparams import Hyperparameters, hyperparameter
from .preprocess import FeatureMatrix, feature_batch

PROB_CLAMP = 1e-12
_STALL_EPS = 1e-12


class BoostMode(enum.Enum):
    FIRST_ORDER = "first_order"
    SECOND_ORDER = "second_order"


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
class TreeParams:
    max_depth: int = 3
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0


@dataclass(frozen=True)
class BoostConfig(Hyperparameters):
    mode: BoostMode
    n_rounds: int = hyperparameter(200, "[1, inf)")
    learning_rate: float = hyperparameter(0.1, "(0, 1]")
    max_depth: int = hyperparameter(3, "[1, inf)")
    reg_lambda: float = hyperparameter(1.0, "[0, inf)")
    gamma: float = hyperparameter(0.0, "[0, inf)")
    min_child_weight: float = hyperparameter(1.0, "[0, inf)")

    def tree_params(self) -> TreeParams:
        # first-order mode has lambda = gamma = 0 semantics
        if self.mode is BoostMode.FIRST_ORDER:
            return TreeParams(self.max_depth, 0.0, 0.0, self.min_child_weight)
        return TreeParams(self.max_depth, self.reg_lambda, self.gamma, self.min_child_weight)


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
        for tree in self.trees:
            acc += tree.leaf_weights(X)
        return self.base_score + acc

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Clamped sigmoid of each margin, through the scalar `sigmoid`: np.exp
        differs from math.exp in the last bit on some inputs."""
        margins = self.predict_margin(X).tolist()
        return np.array([clamp_probability(sigmoid(z)) for z in margins], dtype=float)


def sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def clamp_probability(p: float) -> float:
    return min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)


def log_loss(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy with probabilities clamped away from 0/1."""
    p = np.clip(np.asarray(probabilities, dtype=float), PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.asarray(labels, dtype=float)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


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
    return TreeNode(weight=-g_sum / (h_sum + reg_lambda))


def _best_split(values, g, h, rows, params):
    """Exhaustive (feature, midpoint) search; None when no positive gain."""
    g_sum = float(g[rows].sum())
    h_sum = float(h[rows].sum())
    parent_score = g_sum * g_sum / (h_sum + params.reg_lambda)
    best = None
    best_gain = 0.0
    for feature in range(values.shape[1]):
        col = values[rows, feature]
        order = np.argsort(col, kind="stable")
        sorted_rows = rows[order]
        sorted_vals = col[order]
        gl = 0.0
        hl = 0.0
        for i in range(1, len(sorted_rows)):
            gl += float(g[sorted_rows[i - 1]])
            hl += float(h[sorted_rows[i - 1]])
            if sorted_vals[i - 1] == sorted_vals[i]:
                continue
            threshold = (sorted_vals[i - 1] + sorted_vals[i]) / 2.0
            if not sorted_vals[i - 1] < threshold <= sorted_vals[i]:
                continue  # midpoint collapsed onto the left value in float
            hr = h_sum - hl
            if hl < params.min_child_weight or hr < params.min_child_weight:
                continue
            gr = g_sum - gl
            gain = 0.5 * (
                gl * gl / (hl + params.reg_lambda)
                + gr * gr / (hr + params.reg_lambda)
                - parent_score
            ) - params.gamma
            if gain > best_gain:
                best_gain = gain
                best = (feature, threshold, gain)
    return best


def _build_node(values, g, h, rows, params, depth):
    g_sum = float(g[rows].sum())
    h_sum = float(h[rows].sum())
    if depth >= params.max_depth or len(rows) < 2:
        return _leaf(g_sum, h_sum, params.reg_lambda)
    split = _best_split(values, g, h, rows, params)
    if split is None:
        return _leaf(g_sum, h_sum, params.reg_lambda)
    feature, threshold, gain = split
    mask = values[rows, feature] < threshold
    left_rows = rows[mask]
    right_rows = rows[~mask]
    return TreeNode(
        feature=feature,
        threshold=threshold,
        gain=gain,
        left=_build_node(values, g, h, left_rows, params, depth + 1),
        right=_build_node(values, g, h, right_rows, params, depth + 1),
    )


def fit_tree(m: FeatureMatrix, gh: GradHess, params: TreeParams) -> TreeNode:
    """Fit one regression tree to the given gradients and curvatures."""
    if m.n_rows == 0:
        raise EmptyNode("cannot fit a tree on zero rows")
    rows = np.arange(m.n_rows)
    return _build_node(m.values, gh.g, gh.h, rows, params, depth=0)


def fit_boosted(m: FeatureMatrix, config: BoostConfig) -> BoostedEnsemble:
    """Train an additive tree ensemble on binary log-loss.

    Starts from the base log-odds of the positive rate. Each round fits one
    tree to the current gradients/curvatures and adds it with its leaf
    weights scaled by the learning rate. Rounds stop early when the best
    root split has no positive gain and the root leaf weight is negligible.
    """
    config.validate()
    labels = m.labels.astype(float)
    positive_rate = float(labels.mean())
    if positive_rate in (0.0, 1.0):
        raise SingleClassDataset("boosting needs samples from both classes")
    base_score = math.log(positive_rate / (1.0 - positive_rate))
    params = config.tree_params()
    ensemble = BoostedEnsemble(config=config, base_score=base_score, n_features=m.n_cols)
    margins = np.full(m.n_rows, base_score)
    for _ in range(config.n_rounds):
        gh = grad_hess(margins, labels)
        tree = fit_tree(m, gh, params)
        if tree.is_leaf and abs(tree.weight) < _STALL_EPS:
            break
        tree.scale_weights(config.learning_rate)
        margins += tree.leaf_weights(m.values)
        ensemble.trees.append(tree)
    return ensemble
