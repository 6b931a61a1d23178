"""Gradient-boosted trees: splits, leaf weights, training, and prediction."""

import math
import struct

import numpy as np
import pytest

from conftest import log_loss, matrix
from cardiolearn import preprocess
from cardiolearn.boosting import (
    BoostConfig,
    BoostedEnsemble,
    GradHess,
    TreeNode,
    fit_boosted,
    fit_tree,
    grad_hess,
    sigmoid,
)
from cardiolearn.dataset import synth_generate
from cardiolearn.errors import (
    BadHyperparameter,
    DimensionMismatch,
    EmptyNode,
    SingleClassDataset,
)
from cardiolearn.persistence import _serialize_tree
from cardiolearn.training import Algorithm, family_config


def oracle_split_candidates(values, g, h, params):
    """Independent exhaustive enumeration of every positive-gain candidate.

    Uses mask sums instead of prefix accumulation, so gain values are an
    arithmetic-independent check of the implementation's search.
    """
    g_sum = float(g.sum())
    h_sum = float(h.sum())
    parent = g_sum * g_sum / (h_sum + params.reg_lambda)
    candidates = []
    for feature in range(values.shape[1]):
        distinct = sorted(set(values[:, feature].tolist()))
        for lo, hi in zip(distinct, distinct[1:]):
            threshold = (lo + hi) / 2.0
            if not lo < threshold <= hi:
                continue
            mask = values[:, feature] < threshold
            hl = float(h[mask].sum())
            hr = float(h[~mask].sum())
            if hl < params.min_child_weight or hr < params.min_child_weight:
                continue
            gl = float(g[mask].sum())
            gr = float(g[~mask].sum())
            gain = 0.5 * (
                gl * gl / (hl + params.reg_lambda)
                + gr * gr / (hr + params.reg_lambda)
                - parent
            ) - params.gamma
            if gain > 0.0:
                candidates.append((feature, threshold, gain))
    return candidates


def check_root_split_against_oracle(node, values, g, h, params, context=""):
    """Exact argmax equality when the optimum is unique; optimality otherwise.

    Distinct features can induce the identical row partition, making their
    true gains exactly equal; which one a search returns then depends only
    on float summation order, so those ties are checked by gain optimality.
    """
    candidates = oracle_split_candidates(values, g, h, params)
    if not candidates:
        assert node.is_leaf, f"{context}: oracle found no positive-gain split"
        return
    assert not node.is_leaf, f"{context}: oracle found a positive-gain split"
    best_gain = max(c[2] for c in candidates)
    tol = 1e-9 * max(1.0, abs(best_gain))
    near = [c for c in candidates if best_gain - c[2] <= tol]
    assert node.gain == pytest.approx(best_gain, rel=1e-9), context
    if len(near) == 1:
        assert (node.feature, node.threshold) == near[0][:2], context
    else:
        assert (node.feature, node.threshold) in {c[:2] for c in near}, context


def separable_toy():
    return matrix([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]], [0, 0, 0, 1, 1, 1])


def split_nodes(node):
    if node.is_leaf:
        return []
    return [node] + split_nodes(node.left) + split_nodes(node.right)


def leaf_rows(node, values, rows):
    """(leaf, its rows) for every leaf of `node`, routing `rows` of `values`."""
    if node.is_leaf:
        yield node, rows
        return
    mask = values[rows, node.feature] < node.threshold
    yield from leaf_rows(node.left, values, rows[mask])
    yield from leaf_rows(node.right, values, rows[~mask])


def leaf_weights(node):
    if node.is_leaf:
        return [node.weight]
    return leaf_weights(node.left) + leaf_weights(node.right)


class TestGradHess:
    def test_zero_margin(self):
        gh = grad_hess(np.zeros(2), np.array([0.0, 1.0]))
        assert gh.g.tolist() == pytest.approx([0.5, -0.5])
        assert gh.h.tolist() == pytest.approx([0.25, 0.25])

    def test_matches_sigmoid_definition(self):
        margins = np.array([-3.2, -0.1, 0.0, 0.7, 4.5])
        labels = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        gh = grad_hess(margins, labels)
        for i, z in enumerate(margins):
            p = sigmoid(float(z))
            assert gh.g[i] == pytest.approx(p - labels[i], abs=1e-15)
            assert gh.h[i] == pytest.approx(p * (1.0 - p), abs=1e-15)

    def test_extreme_margins_stay_finite(self):
        gh = grad_hess(np.array([-800.0, 800.0]), np.array([1.0, 0.0]))
        assert np.all(np.isfinite(gh.g)) and np.all(np.isfinite(gh.h))
        assert gh.g[0] == pytest.approx(-1.0)
        assert gh.g[1] == pytest.approx(1.0)

    def test_bounds(self):
        margins = np.linspace(-30, 30, 101)
        gh = grad_hess(margins, np.zeros(101))
        assert np.all(gh.h >= 0.0) and np.all(gh.h <= 0.25)
        assert np.all(gh.g > -1.0) and np.all(gh.g < 1.0)


class TestTreeFitting:
    def test_leaf_weight_formula(self):
        m = matrix([[0.0]], [1])
        gh = GradHess(g=np.array([2.0]), h=np.array([4.0]))
        node = fit_tree(m, gh, BoostConfig(max_depth=3, reg_lambda=1.0))
        assert node.is_leaf
        assert node.weight == pytest.approx(-0.4, abs=1e-15)

    def test_gain_arithmetic(self):
        m = matrix([[0.0], [1.0]], [0, 1])
        gh = GradHess(g=np.array([-4.0, 4.0]), h=np.array([4.0, 4.0]))
        node = fit_tree(m, gh, BoostConfig(max_depth=1, reg_lambda=1.0, gamma=0.0))
        assert not node.is_leaf
        assert node.feature == 0
        assert node.threshold == pytest.approx(0.5)
        assert node.gain == pytest.approx(3.2, abs=1e-12)
        assert node.left.weight == pytest.approx(0.8)
        assert node.right.weight == pytest.approx(-0.8)

    def test_gamma_can_veto_the_split(self):
        m = matrix([[0.0], [1.0]], [0, 1])
        gh = GradHess(g=np.array([-4.0, 4.0]), h=np.array([4.0, 4.0]))
        node = fit_tree(m, gh, BoostConfig(max_depth=1, reg_lambda=1.0, gamma=3.3))
        assert node.is_leaf
        relaxed = fit_tree(m, gh, BoostConfig(max_depth=1, reg_lambda=1.0, gamma=3.1))
        assert not relaxed.is_leaf
        assert relaxed.gain == pytest.approx(0.1, abs=1e-12)

    def test_min_child_weight_blocks_low_curvature_children(self):
        m = matrix([[0.0], [1.0]], [0, 1])
        gh = GradHess(g=np.array([-0.5, 0.5]), h=np.array([0.25, 0.25]))
        node = fit_tree(m, gh, BoostConfig(max_depth=1, min_child_weight=1.0, reg_lambda=0.0))
        assert node.is_leaf
        open_node = fit_tree(m, gh, BoostConfig(max_depth=1, min_child_weight=0.0, reg_lambda=0.0))
        assert not open_node.is_leaf

    def test_constant_feature_yields_leaf(self):
        m = matrix([[1.0], [1.0], [1.0]], [0, 1, 0])
        gh = GradHess(g=np.array([1.0, -1.0, 1.0]), h=np.array([1.0, 1.0, 1.0]))
        node = fit_tree(m, gh, BoostConfig(max_depth=3, min_child_weight=0.0))
        assert node.is_leaf

    def test_adjacent_float_midpoint_collapse_is_skipped(self):
        lo = 1.0
        hi = np.nextafter(1.0, 2.0)
        assert (lo + hi) / 2.0 == lo  # midpoint is unrepresentable between them
        m = matrix([[lo], [hi]], [0, 1])
        gh = GradHess(g=np.array([-4.0, 4.0]), h=np.array([4.0, 4.0]))
        node = fit_tree(m, gh, BoostConfig(max_depth=1, min_child_weight=0.0))
        assert node.is_leaf

    def test_depth_limit_respected(self):
        gen = np.random.default_rng(5)
        m = matrix(gen.normal(0, 1, (32, 2)), gen.integers(0, 2, 32))
        gh = grad_hess(np.zeros(32), m.labels.astype(float))
        node = fit_tree(m, gh, BoostConfig(max_depth=2, min_child_weight=0.0))
        def depth(n):
            return 0 if n.is_leaf else 1 + max(depth(n.left), depth(n.right))
        assert depth(node) <= 2

    def test_empty_node_rejected(self):
        m = matrix(np.empty((0, 1)), [])
        gh = GradHess(g=np.empty(0), h=np.empty(0))
        with pytest.raises(EmptyNode):
            fit_tree(m, gh, BoostConfig())

    def test_lambda_shrinks_leaf_magnitude_monotonically(self):
        m = matrix([[0.0]], [1])
        gh = GradHess(g=np.array([3.0]), h=np.array([2.0]))
        magnitudes = [
            abs(fit_tree(m, gh, BoostConfig(reg_lambda=lam)).weight)
            for lam in (0.0, 0.5, 1.0, 4.0, 16.0)
        ]
        assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))

    def test_root_split_matches_exhaustive_oracle(self):
        gen = np.random.default_rng(2024)
        lambdas = (0.0, 1.0, 3.5)
        gammas = (0.0, 0.2)
        mcws = (0.0, 1.0)
        for trial in range(60):
            n = int(gen.integers(2, 17))
            d = int(gen.integers(1, 4))
            values = np.round(gen.normal(0, 1, (n, d)), 3)
            g = gen.normal(0, 2, n)
            h = gen.uniform(0.05, 1.0, n)
            params = BoostConfig(
                max_depth=1,
                reg_lambda=lambdas[trial % 3],
                gamma=gammas[trial % 2],
                min_child_weight=mcws[(trial // 2) % 2],
            )
            node = fit_tree(matrix(values, np.zeros(n, dtype=int)), GradHess(g, h), params)
            check_root_split_against_oracle(
                node, values, g, h, params, context=f"trial {trial}"
            )

    def test_leaf_weights_minimize_regularized_objective(self):
        gen = np.random.default_rng(55)
        values = gen.normal(0, 1, (40, 3))
        g = gen.normal(0, 1, 40)
        h = gen.uniform(0.05, 0.5, 40)
        lam = 1.0
        params = BoostConfig(max_depth=2, reg_lambda=lam, min_child_weight=0.0)
        node = fit_tree(matrix(values, np.zeros(40, dtype=int)), GradHess(g, h), params)

        def objective(rows, w):
            return float(g[rows].sum()) * w + 0.5 * (float(h[rows].sum()) + lam) * w * w

        for leaf, rows in leaf_rows(node, values, np.arange(40)):
            best = objective(rows, leaf.weight)
            assert objective(rows, leaf.weight + 1e-3) > best
            assert objective(rows, leaf.weight - 1e-3) > best


def reference_score(g_sum, h_sum, reg_lambda):
    """G^2 / (H + lambda), or 0 where H + lambda = 0: such a side has no
    Newton step and scores 0 in a gain, as the boosting module states."""
    curvature = h_sum + reg_lambda
    return 0.0 if curvature == 0.0 else g_sum * g_sum / curvature


def reference_best_split(values, g, h, rows, params):
    """The per-row split scan the presorted search replaced, kept as the
    reference it must match bit for bit: each node re-sorts every column and
    adds g and h one row at a time."""
    g_sum = float(g[rows].sum())
    h_sum = float(h[rows].sum())
    parent_score = reference_score(g_sum, h_sum, params.reg_lambda)
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
                continue
            hr = h_sum - hl
            if hl < params.min_child_weight or hr < params.min_child_weight:
                continue
            gr = g_sum - gl
            gain = 0.5 * (
                reference_score(gl, hl, params.reg_lambda)
                + reference_score(gr, hr, params.reg_lambda)
                - parent_score
            ) - params.gamma
            if gain > best_gain:
                best_gain = gain
                best = (feature, threshold, gain)
    return best


def reference_build_node(values, g, h, rows, params, depth):
    """A node of the per-row reference; with H + lambda = 0 it is a leaf of
    weight 0, having no Newton step."""
    g_sum = float(g[rows].sum())
    h_sum = float(h[rows].sum())
    curvature = h_sum + params.reg_lambda
    split = None
    if depth < params.max_depth and len(rows) >= 2 and curvature != 0.0:
        split = reference_best_split(values, g, h, rows, params)
    if split is None:
        return TreeNode(weight=0.0 if curvature == 0.0 else -g_sum / curvature)
    feature, threshold, gain = split
    mask = values[rows, feature] < threshold
    return TreeNode(
        feature=feature,
        threshold=threshold,
        gain=gain,
        left=reference_build_node(values, g, h, rows[mask], params, depth + 1),
        right=reference_build_node(values, g, h, rows[~mask], params, depth + 1),
    )


def tree_bits(node):
    """Every node's (feature, threshold, weight, gain) in pre-order, each
    float as its IEEE bytes, so sign bits and last digits count."""
    floats = (node.threshold, node.weight, node.gain)
    bits = [(node.feature, *(struct.pack("<d", v) for v in floats))]
    if not node.is_leaf:
        bits += tree_bits(node.left) + tree_bits(node.right)
    return bits


def assert_tree_matches_reference(m, gh, params):
    tree = fit_tree(m, gh, params)
    expected = reference_build_node(m.values, gh.g, gh.h, np.arange(m.n_rows), params, 0)
    assert tree_bits(tree) == tree_bits(expected)
    return tree


def encoded_rows(n, seed):
    """The first n rows of a 918-row synthetic dataset, encoded and scaled."""
    data = synth_generate(918, 0.55, seed)
    m = preprocess.transform(preprocess.fit(data), data)
    return matrix(m.values[:n], m.labels[:n])


class TestPresortedSplitSearch:
    """fit_tree against the per-row reference scan: equal trees, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 300, 918])
    @pytest.mark.parametrize("seed", [7, 42])
    def test_boosting_rounds_match_the_per_row_scan(self, n, seed):
        m = encoded_rows(n, seed)
        labels = m.labels.astype(float)
        start = np.random.default_rng(seed).normal(0.0, 1.0, n)
        splits = 0
        for regularization in ({"reg_lambda": 0.0, "gamma": 0.0}, {}):
            for depth in range(1, 7):
                params = BoostConfig(max_depth=depth, **regularization)
                margins = start.copy()
                for _ in range(2):
                    tree = assert_tree_matches_reference(m, grad_hess(margins, labels), params)
                    splits += not tree.is_leaf
                    tree.scale_weights(0.3)
                    margins += tree.leaf_weights(m.values)
        assert splits == (0 if n < 3 else 24)

    @pytest.mark.parametrize("reg_lambda, gamma, min_child_weight", [
        (0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (3.5, 0.2, 0.0), (1.0, 0.0, 4.0),
    ])
    def test_duplicate_values_and_constant_columns(self, reg_lambda, gamma, min_child_weight):
        gen = np.random.default_rng(11)
        values = gen.integers(0, 4, (120, 5)).astype(float)
        values[:, 1] = 2.5  # constant
        values[:, 3] = np.where(np.arange(120) == 60, 1.0, 0.0)  # one odd row out
        gh = GradHess(gen.normal(0.0, 1.0, 120), gen.uniform(0.05, 0.25, 120))
        params = BoostConfig(max_depth=5, reg_lambda=reg_lambda, gamma=gamma,
                            min_child_weight=min_child_weight)
        tree = assert_tree_matches_reference(matrix(values, np.zeros(120, dtype=int)), gh, params)
        assert not tree.is_leaf

    def test_neighbouring_floats_whose_midpoint_collapses(self):
        ulps = [1.0]
        for _ in range(7):
            ulps.append(float(np.nextafter(ulps[-1], 2.0)))
        assert (ulps[0] + ulps[1]) / 2.0 == ulps[0]  # collapses onto the left value
        gen = np.random.default_rng(3)
        values = np.array([[ulps[i % 8], ulps[(3 * i) % 8]] for i in range(40)])
        for trial in range(6):
            gh = GradHess(gen.normal(0.0, 1.0, 40), gen.uniform(0.05, 0.25, 40))
            params = BoostConfig(max_depth=4, min_child_weight=0.0, reg_lambda=trial % 2)
            assert_tree_matches_reference(matrix(values, np.zeros(40, dtype=int)), gh, params)

    def test_saturated_rows_with_zero_curvature_and_no_regularization(self):
        # each saturated row (h == 0) ties with an unsaturated twin that comes
        # after it, so every cut with HL or HR of 0 sits between equal values:
        # the per-row scan skips it, the vectorised scan divides by zero there
        gen = np.random.default_rng(17)
        base = np.round(gen.normal(0.0, 1.0, (50, 3)), 1)
        values = np.repeat(base, 2, axis=0)
        g = gen.normal(0.0, 1.0, 100)
        h = gen.uniform(0.05, 0.25, 100)
        h[0::2] = 0.0
        g[0::4] = 0.0  # saturated on the right class: 0 / 0 at the masked cuts
        params = BoostConfig(max_depth=6, reg_lambda=0.0, gamma=0.0, min_child_weight=0.0)
        tree = assert_tree_matches_reference(
            matrix(values, np.zeros(100, dtype=int)), GradHess(g, h), params
        )
        assert not tree.is_leaf

    def test_zero_column_matrix_gives_a_leaf(self):
        m = matrix(np.empty((5, 0)), [0, 1, 0, 1, 1])
        gh = grad_hess(np.zeros(5), m.labels.astype(float))
        tree = assert_tree_matches_reference(m, gh, BoostConfig(min_child_weight=0.0))
        assert tree.is_leaf

    def test_equal_gains_across_features_keep_the_lowest_feature(self):
        gen = np.random.default_rng(23)
        column = gen.normal(0.0, 1.0, 60)
        noise = gen.normal(0.0, 1.0, 60)
        gh = GradHess(np.where(column < 0.0, -1.0, 1.0) + 0.1 * noise, np.full(60, 0.25))
        params = BoostConfig(max_depth=1, min_child_weight=0.0)
        # columns 1 and 2 are the same column, so their gains are equal bit for bit
        tied = matrix(np.column_stack([noise, column, column]), np.zeros(60, dtype=int))
        assert assert_tree_matches_reference(tied, gh, params).feature == 1
        # a later feature wins only on a strictly greater gain
        better = matrix(np.column_stack([noise, column + noise, column]), np.zeros(60, dtype=int))
        assert assert_tree_matches_reference(better, gh, params).feature == 2

    def test_equal_gains_within_a_feature_keep_the_lowest_threshold(self):
        m = matrix([[0.0], [1.0], [2.0], [3.0]], [0, 0, 0, 0])
        gh = GradHess(np.array([1.0, -1.0, -1.0, 1.0]), np.ones(4))
        params = BoostConfig(max_depth=1, reg_lambda=1.0, min_child_weight=0.0)
        # cutting after the first row or before the last gives the same gain
        tree = assert_tree_matches_reference(m, gh, params)
        assert (tree.threshold, tree.gain) == (0.5, 0.375)

    def test_column_order_is_each_columns_stable_sort(self):
        m = matrix([[2.0, 0.0], [1.0, -0.0], [2.0, 0.0], [0.5, -1.0]], [0, 1, 0, 1])
        assert m.column_block.order.tolist() == [[3, 1, 0, 2], [3, 0, 1, 2]]
        assert m.column_block.order is m.column_block.order  # sorted once per matrix


def adversarial_case(seed, twin_zero_curvature):
    """Rows whose cuts are easy to get wrong in the last bit: SMOTE-like
    columns of 2 to 4 codes with a few interpolated values, subnormal values,
    signed zeros, g holding both +0.0 and -0.0, and some h == 0. On odd seeds
    g and h shrink so that GL^2 and HL are subnormal, which only a split
    without reg_lambda can still gain from. With `twin_zero_curvature`, every h == 0 row is
    followed by a twin with equal values and h > 0, so no node and no cut
    between distinct values sums to zero curvature: with reg_lambda 0 the
    per-row reference would divide by zero there."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(20, 90))
    columns = []
    for codes in (2, 3, 4):
        column = gen.integers(0, codes, n).astype(float)
        mixed = gen.random(n) < 0.1
        column[mixed] = gen.uniform(0.0, codes - 1, int(mixed.sum()))
        columns.append(column)
    columns.append(gen.integers(-3, 4, n) * np.finfo(float).smallest_subnormal)
    columns.append(np.where(gen.random(n) < 0.5, 0.0, -0.0) + (gen.random(n) < 0.3))
    values = np.column_stack(columns)
    g = gen.normal(0.0, 1.0, n)
    h = gen.uniform(0.05, 0.25, n)
    g[gen.random(n) < 0.15] = 0.0
    g[gen.random(n) < 0.15] = -0.0
    saturated = np.flatnonzero(gen.random(n) < 0.2)
    h[saturated] = 0.0
    if twin_zero_curvature:
        values = np.concatenate([values, values[saturated]])
        g = np.concatenate([g, gen.normal(0.0, 1.0, len(saturated))])
        h = np.concatenate([h, gen.uniform(0.05, 0.25, len(saturated))])
    if seed % 2:
        g, h = g * 2.0**-530, h * 2.0**-1040
    return matrix(values, np.zeros(len(g), dtype=int)), GradHess(g, h)


class TestColumnBlockSearch:
    """The complex-packed prefix sums, the value-distinct cut table and the
    cached root block: trees still equal the per-row reference bit for bit."""

    @pytest.mark.parametrize("reg_lambda, gamma, min_child_weight", [
        (0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (3.5, 0.2, 0.0), (1.0, 0.0, 4.0),
    ])
    def test_adversarial_columns_match_the_per_row_scan(self, reg_lambda, gamma,
                                                          min_child_weight):
        splits = 0
        for seed in range(6):
            m, gh = adversarial_case(seed, twin_zero_curvature=reg_lambda == 0.0)
            for depth in range(1, 7):
                params = BoostConfig(max_depth=depth, reg_lambda=reg_lambda, gamma=gamma,
                                     min_child_weight=min_child_weight)
                splits += len(split_nodes(assert_tree_matches_reference(m, gh, params)))
        assert splits > 0

    @pytest.mark.parametrize("gamma", [0.0, 0.2])
    def test_zero_curvature_matches_the_per_row_scan(self, gamma):
        # without twins some nodes and cut sides sum to h == 0: with reg_lambda
        # and min_child_weight 0 such a node is a weight-0 leaf and such a
        # side scores 0
        zero_leaves = 0
        for seed in range(6):
            m, gh = adversarial_case(seed, twin_zero_curvature=False)
            for depth in range(1, 7):
                params = BoostConfig(max_depth=depth, reg_lambda=0.0, gamma=gamma,
                                     min_child_weight=0.0)
                tree = assert_tree_matches_reference(m, gh, params)
                zero_leaves += sum(float(gh.h[rows].sum()) == 0.0
                                   for _, rows in leaf_rows(tree, m.values, np.arange(m.n_rows)))
        assert zero_leaves > 0

    def test_cut_table_holds_only_value_distinct_cuts(self):
        lo = 1.0
        hi = float(np.nextafter(1.0, 2.0))  # the midpoint collapses onto lo
        m = matrix([[2.0, lo], [0.0, hi], [2.0, hi], [-0.0, 3.0]], [0, 1, 0, 1])
        block = m.column_block
        assert block.sorted_values.tolist() == [[0.0, -0.0, 2.0, 2.0], [lo, hi, hi, 3.0]]
        # column 0: only the cut between 0.0 and 2.0; column 1: only hi | 3.0
        assert block.cuts.tolist() == [1, 5]
        assert block.thresholds.tolist() == [1.0, (hi + 3.0) / 2.0]

    def test_fits_sharing_a_matrix_equal_fits_on_fresh_copies(self):
        m = encoded_rows(300, 7)
        for depth in (2, 3, 2):
            for algorithm in (Algorithm.GB, Algorithm.XGB):
                config = family_config(algorithm, {"max_depth": depth, "n_rounds": 15})
                fresh = matrix(m.values.copy(), m.labels.copy())
                shared_trees = fit_boosted(m, config).trees
                fresh_trees = fit_boosted(fresh, config).trees
                assert len(shared_trees) == 15
                assert list(map(tree_bits, shared_trees)) == list(map(tree_bits, fresh_trees))
        block = m.column_block
        assert m.column_block is block
        for array in (block.order, block.sorted_values, block.cuts, block.thresholds):
            assert not array.flags.writeable


class TestRouting:
    def test_strictly_less_goes_left_else_right(self):
        node = TreeNode(
            feature=0,
            threshold=1.5,
            left=TreeNode(weight=-1.0),
            right=TreeNode(weight=2.0),
        )
        assert node.leaf_weights(np.array([[1.4], [1.5], [1.6]])).tolist() == [-1.0, 2.0, 2.0]


class TestEnsemblePrediction:
    def test_empty_ensemble_returns_base(self):
        ens = BoostedEnsemble(
            config=BoostConfig(), base_score=0.3, n_features=2
        )
        assert ens.predict_margin(np.array([[5.0, -5.0]])).tolist() == [0.3]

    def test_single_leaf_tree_adds_weight(self):
        ens = BoostedEnsemble(
            config=BoostConfig(),
            base_score=0.0,
            trees=[TreeNode(weight=-0.4)],
            n_features=1,
        )
        assert ens.predict_margin(np.array([[0.0]]))[0] == pytest.approx(-0.4)

    def test_margin_to_probability(self):
        ens = BoostedEnsemble(
            config=BoostConfig(), base_score=0.0, n_features=1
        )
        assert ens.predict_proba(np.array([[0.0]]))[0] == pytest.approx(0.5)
        ens_pos = BoostedEnsemble(
            config=BoostConfig(), base_score=math.log(3.0), n_features=1
        )
        assert ens_pos.predict_proba(np.array([[0.0]]))[0] == pytest.approx(0.75, abs=1e-12)

    def test_very_negative_margin_clamped_above_zero(self):
        ens = BoostedEnsemble(
            config=BoostConfig(), base_score=-50.0, n_features=1
        )
        p = ens.predict_proba(np.array([[0.0]]))[0]
        assert p > 0.0
        assert p >= 1e-12

    def test_dimension_mismatch(self):
        ens = BoostedEnsemble(
            config=BoostConfig(), base_score=0.0, n_features=3
        )
        with pytest.raises(DimensionMismatch):
            ens.predict_margin(np.array([[1.0]]))


class TestFitBoosted:
    def test_base_score_is_log_odds_of_positive_rate(self):
        m = matrix([[0.0], [1.0], [2.0], [3.0]], [1, 1, 1, 0])
        config = BoostConfig(n_rounds=1)
        ens = fit_boosted(m, config)
        assert ens.base_score == pytest.approx(math.log(3.0), abs=1e-15)

    def test_hyperparameter_validation(self):
        m = separable_toy()
        for bad in (
            dict(n_rounds=0),
            dict(learning_rate=0.0),
            dict(learning_rate=1.5),
            dict(max_depth=0),
            dict(reg_lambda=-1.0),
            dict(gamma=-0.1),
            dict(min_child_weight=-0.5),
        ):
            with pytest.raises(BadHyperparameter):
                fit_boosted(m, BoostConfig(**bad))

    def test_integral_float_rounds_become_an_int(self):
        config = BoostConfig(n_rounds=5.0)
        assert config.n_rounds == 5 and type(config.n_rounds) is int
        assert len(fit_boosted(separable_toy(), config).trees) <= 5

    def test_single_class_rejected(self):
        m = matrix([[0.0], [1.0]], [1, 1])
        with pytest.raises(SingleClassDataset):
            fit_boosted(m, BoostConfig())

    @pytest.mark.parametrize("regularization", [{"reg_lambda": 0.0, "gamma": 0.0}, {}],
                             ids=["lambda_gamma_0", "defaults"])
    def test_separable_training_descends_and_separates(self, regularization):
        m = separable_toy()
        config = BoostConfig(n_rounds=20, learning_rate=0.3, max_depth=1,
                             min_child_weight=0.0, **regularization)
        ens = fit_boosted(m, config)
        assert len(ens.trees) == 20
        margins = np.full(m.n_rows, ens.base_score)
        losses = [log_loss(1.0 / (1.0 + np.exp(-margins)), m.labels)]
        for tree in ens.trees:
            margins = margins + tree.leaf_weights(m.values)
            losses.append(log_loss(1.0 / (1.0 + np.exp(-margins)), m.labels))
        for before, after in zip(losses, losses[1:]):
            assert after < before + 1e-9
        assert losses[-1] < losses[0]
        predictions = (ens.predict_proba(m.values) >= 0.5).astype(int)
        assert predictions.tolist() == m.labels.tolist()

    def test_learning_rate_scales_first_tree_leaves(self):
        m = separable_toy()
        base = dict(n_rounds=1, max_depth=2, min_child_weight=0.0)
        small = fit_boosted(m, BoostConfig(learning_rate=0.1, **base))
        full = fit_boosted(m, BoostConfig(learning_rate=1.0, **base))
        w_small = leaf_weights(small.trees[0])
        w_full = leaf_weights(full.trees[0])
        assert w_small == pytest.approx([0.1 * w for w in w_full], rel=1e-12)

    def test_gb_is_xgb_with_zero_lambda_and_gamma(self):
        gen = np.random.default_rng(9)
        values = gen.normal(0, 1, (30, 3))
        labels = (values[:, 0] + 0.3 * gen.normal(0, 1, 30) > 0).astype(int)
        labels[0], labels[1] = 0, 1
        m = matrix(values, labels)
        overrides = {"n_rounds": 8, "min_child_weight": 0.0}
        gb = fit_boosted(m, family_config(Algorithm.GB, overrides))
        xgb = fit_boosted(m, family_config(Algorithm.XGB,
                                           {**overrides, "reg_lambda": 0, "gamma": 0}))
        assert gb.trees
        assert [_serialize_tree(t) for t in gb.trees] == [_serialize_tree(t) for t in xgb.trees]

    @pytest.mark.parametrize("algorithm, overrides", [
        (Algorithm.GB, {}),
        (Algorithm.XGB, {"reg_lambda": 0}),
    ])
    def test_zero_curvature_side_scores_zero_not_infinity(self, algorithm, overrides):
        # learning rate 1 saturates misclassified rows (g != 0, h == 0); with
        # lambda = 0 a side holding only such rows has no Newton step
        data = synth_generate(80, 0.5, 1)
        m = preprocess.transform(preprocess.fit(data), data)
        config = family_config(algorithm, {"learning_rate": 1.0, "min_child_weight": 0,
                                           **overrides})
        gains = [node.gain for tree in fit_boosted(m, config).trees
                 for node in split_nodes(tree)]
        assert gains and all(math.isfinite(gain) for gain in gains)

    def test_stalls_immediately_on_uninformative_features(self):
        m = matrix([[1.0], [1.0], [1.0], [1.0]], [1, 1, 1, 0])
        ens = fit_boosted(m, BoostConfig(n_rounds=50))
        assert ens.trees == []
        p = ens.predict_proba(np.array([[1.0]]))[0]
        assert p == pytest.approx(0.75, abs=1e-12)

    def test_deterministic_refit(self):
        gen = np.random.default_rng(31)
        values = gen.normal(0, 1, (40, 4))
        labels = (values[:, 1] > 0).astype(int)
        labels[0], labels[1] = 0, 1
        m = matrix(values, labels)
        config = BoostConfig(n_rounds=10)
        a = fit_boosted(m, config)
        b = fit_boosted(m, config)
        assert [_serialize_tree(t) for t in a.trees] == [_serialize_tree(t) for t in b.trees]
        assert a.base_score == b.base_score


class TestLogLoss:
    def test_even_odds(self):
        assert log_loss(np.array([0.5, 0.5]), np.array([0, 1])) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_confident_correct(self):
        assert log_loss(np.array([0.75]), np.array([1])) == pytest.approx(0.28768, abs=1e-5)

    def test_clamped_at_certainty(self):
        exact = log_loss(np.array([1.0]), np.array([1]))
        assert 0.0 <= exact < 1e-11
        wrong = log_loss(np.array([0.0]), np.array([1]))
        assert wrong == pytest.approx(-math.log(1e-12), rel=1e-9)
