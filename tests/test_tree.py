import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from treeselect import (Dataset, DesignSpec, TreeClassifier,
                        brute_force_best_subtree, empirical_risk, grow_maximal,
                        is_pruned_subtree, leaf, loss_estimate, stump,
                        tree_from_text, tree_to_text, weakest_link)
from treeselect.tree import Internal, Leaf, descriptor_of, tree_from_class

from conftest import finite_floats


def test_predict_stump():
    t = stump(1, 0.5, 0, 1)
    # the boundary row goes Left: not strictly greater
    assert t.predict_batch([[0.7], [0.5], [0.3]]).tolist() == [1, 0, 0]


def test_predict_single_leaf():
    assert leaf(1).predict_batch([[123.0]]).tolist() == [1]


def test_predict_dimension_mismatch():
    t = stump(3, 0.0, 0, 1)
    with pytest.raises(ValueError):
        t.predict_batch([[1.0, 2.0]])


def test_leaf_minus_internal_is_one():
    t = tree_from_text("node(1, 0.0, node(2, 1.0, leaf(0), leaf(1)), leaf(1))")
    assert 2 * t.n_leaves - 1 == len(t.nodes)
    assert t.n_leaves == 3


def test_empirical_risk_constant_tree():
    d = Dataset(np.zeros((4, 2)) + np.arange(4)[:, None], np.array([0, 0, 1, 1]))
    assert empirical_risk(leaf(0), d) == 0.5


def test_empirical_risk_stump_example():
    X = np.column_stack([np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4)])
    d = Dataset(X, np.array([0, 1, 1, 0]))
    assert empirical_risk(stump(1, 2.5, 0, 1), d) == 0.5


def _predict_row(tree, x):
    """Label of one feature vector, by walking the arena from the root."""
    i = 0
    while isinstance(tree.nodes[i], Internal):
        nd = tree.nodes[i]
        i = nd.right if x[nd.var - 1] > nd.threshold else nd.left
    return tree.nodes[i].label


def _depth(tree):
    """Longest root-to-leaf path, in edges; children follow their parent."""
    depth = [0] * len(tree.nodes)
    for i, nd in enumerate(tree.nodes):
        if isinstance(nd, Internal):
            depth[nd.left] = depth[nd.right] = depth[i] + 1
    return max(depth)


def test_empirical_risk_matches_naive_recount():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 3))
    y = rng.integers(0, 2, 30)
    d = Dataset(X, y)
    t = tree_from_text("node(2, 0.1, leaf(0), node(1, -0.3, leaf(1), leaf(0)))")
    naive = sum(_predict_row(t, row) != lab for row, lab in zip(X, y)) / 30
    assert empirical_risk(t, d) == naive


def test_loss_estimate_bayes_tree_design1():
    # the optimal rule for design 1 (q < 1/2) as a 3-leaf tree
    bayes = tree_from_text("node(1, 0.0, leaf(1), node(2, 0.0, leaf(1), leaf(0)))")
    spec = DesignSpec(1, 100, 2, 0.1, seed=0)
    risk, loss = loss_estimate(bayes, spec, 10 ** 5, seed=21)
    se = (0.1 * 0.9 / 10 ** 5) ** 0.5
    assert abs(loss) <= 3 * se


def test_loss_estimate_constant0_design1():
    spec = DesignSpec(1, 100, 2, 0.1, seed=0)
    risk, loss = loss_estimate(leaf(0), spec, 10 ** 5, seed=2)
    # P(Y=1) = 0.25*0.1 + 0.75*0.9 = 0.7
    assert risk == pytest.approx(0.7, abs=0.01)
    assert loss == pytest.approx(0.6, abs=0.01)


def test_loss_estimate_constant1_design4():
    spec = DesignSpec(4, 100, 3, 0.2, seed=0)
    risk, _ = loss_estimate(leaf(1), spec, 10 ** 5, seed=9)
    assert risk == pytest.approx(chi2.cdf(2.5, df=3), abs=0.01)


def test_pruned_subtree_basics():
    t = tree_from_text("node(1, 0.0, node(2, 1.0, leaf(0), leaf(1)), leaf(1))")
    assert is_pruned_subtree(leaf(0), t)            # root collapse
    assert is_pruned_subtree(t, t)                  # reflexive
    other = tree_from_text("node(1, 9.9, leaf(0), leaf(1))")
    assert not is_pruned_subtree(other, t)          # foreign threshold
    mid = tree_from_text("node(1, 0.0, leaf(1), leaf(1))")
    assert is_pruned_subtree(mid, t)
    assert not is_pruned_subtree(t, mid)


# integral thresholds keep equality exact
_INTEGRAL = st.integers(-5, 5).map(float)


@st.composite
def random_trees(draw, max_depth=4, variables=st.integers(1, 3), thresholds=_INTEGRAL,
                 labels=st.integers(0, 1), make=TreeClassifier):
    def build(depth):
        if depth == 0 or draw(st.booleans()):
            return ("leaf", draw(labels))
        var = draw(variables)
        thr = draw(thresholds)
        return ("node", var, thr, build(depth - 1), build(depth - 1))

    spec = build(max_depth)
    nodes = []

    def freeze(s):
        idx = len(nodes)
        nodes.append(None)
        if s[0] == "leaf":
            nodes[idx] = Leaf(s[1])
        else:
            li = freeze(s[3])
            ri = freeze(s[4])
            nodes[idx] = Internal(s[1], s[2], li, ri)
        return idx

    freeze(spec)
    return make(tuple(nodes))


def _random_pruning(tree, rng):
    nodes = []

    def go(i, forced_leaf):
        idx = len(nodes)
        nodes.append(None)
        nd = tree.nodes[i]
        if isinstance(nd, Leaf) or forced_leaf or rng.random() < 0.3:
            nodes[idx] = Leaf(0)
        else:
            li = go(nd.left, False)
            ri = go(nd.right, False)
            nodes[idx] = Internal(nd.var, nd.threshold, li, ri)
        return idx

    go(0, False)
    return TreeClassifier(tuple(nodes))


@settings(max_examples=60, deadline=None)
@given(random_trees(), st.integers(0, 10 ** 6))
def test_pruned_subtree_partial_order(tree, seed):
    rng = np.random.default_rng(seed)
    a = _random_pruning(tree, rng)
    b = _random_pruning(a, rng)
    assert is_pruned_subtree(tree, tree)
    assert is_pruned_subtree(a, tree)
    assert is_pruned_subtree(b, a)
    assert is_pruned_subtree(b, tree)  # transitivity
    # antisymmetry up to leaf labels: mutual pruning forces equal structure
    if is_pruned_subtree(tree, a):
        assert a.n_leaves == tree.n_leaves


@settings(max_examples=80, deadline=None)
@given(random_trees())
def test_serialization_round_trip(tree):
    back = tree_from_text(tree_to_text(tree))
    assert tree_to_text(back) == tree_to_text(tree)
    assert back.nodes == tree.nodes


def test_serialization_exact_floats():
    t = stump(2, 0.1 + 0.2, 0, 1)  # 0.30000000000000004 must survive
    back = tree_from_text(tree_to_text(t))
    assert back.nodes[0].threshold == t.nodes[0].threshold


def test_malformed_text_rejected():
    for bad in ["node(1, 0.5, leaf(0))", "tree(1)", "leaf(2, 3)", "",
                "node(1, nan, leaf(0), leaf(1))", "node(1, inf, leaf(0), leaf(1))",
                "node(1, -inf, leaf(0), leaf(1))"]:
        with pytest.raises(ValueError):
            tree_from_text(bad)


@pytest.mark.parametrize("bad", [
    "leaf(00)", "leaf(+1)", "leaf(-0)", "leaf(1.0)", "leaf(\u0661)",
    "node(+1, 0.5, leaf(0), leaf(1))", "node(01, 0.5, leaf(0), leaf(1))",
    "node(1_0, 0.5, leaf(0), leaf(1))", "node(0, 0.5, leaf(0), leaf(1))",
    "node(1.0, 0.5, leaf(0), leaf(1))", "node(1, 1_0.5, leaf(0), leaf(1))",
    "node(1, 0x1p-2, leaf(0), leaf(1))", "node(1, \u0661.5, leaf(0), leaf(1))",
    "node(1, infinity, leaf(0), leaf(1))", "node(1, 1e999, leaf(0), leaf(1))",
])
def test_text_accepts_only_what_tree_to_text_writes(bad):
    with pytest.raises(ValueError):
        tree_from_text(bad)


def _breadth_first(tree):
    """The same tree as a breadth-first arena."""
    order = [0]
    for i in order:  # children appended while iterating: level by level
        nd = tree.nodes[i]
        if isinstance(nd, Internal):
            order += [nd.left, nd.right]
    at = {old: new for new, old in enumerate(order)}
    return TreeClassifier(tuple(
        replace(nd, left=at[nd.left], right=at[nd.right]) if isinstance(nd, Internal) else nd
        for nd in (tree.nodes[i] for i in order)))


@settings(max_examples=150, deadline=None)
@given(random_trees(variables=st.integers(1, 10 ** 6),
                    thresholds=finite_floats),
       st.booleans())
def test_text_round_trip_keeps_every_bit(tree, bfs):
    # compared as text, so that -0.0 must keep its sign
    arena = _breadth_first(tree) if bfs else tree
    text = tree_to_text(arena)
    back = tree_from_text(text)
    assert tree_to_text(back) == text
    assert back.nodes == tree.nodes  # parsed into pre-order


@pytest.mark.parametrize("node", [
    Leaf(True), Leaf(False), Leaf(1.0), Leaf(np.float64(0.0)), Leaf(2), Leaf(-1), Leaf("1"),
    Internal(1.5, 0.5, 1, 2), Internal(True, 0.5, 1, 2), Internal(0, 0.5, 1, 2),
    Internal(2.0, 0.5, 1, 2), Internal(np.float64(1.0), 0.5, 1, 2),
    Internal(1, math.nan, 1, 2), Internal(1, np.float32("nan"), 1, 2),
    Internal(1, True, 1, 2), Internal(1, "0.5", 1, 2), Internal(1, None, 1, 2),
])
def test_tree_rejects_nodes_text_cannot_hold(node):
    nodes = (node,) if isinstance(node, Leaf) else (node, Leaf(0), Leaf(1))
    with pytest.raises(ValueError, match="node 0"):
        TreeClassifier(nodes)


def test_numpy_scalars_are_written_in_python_form():
    tree = TreeClassifier((Internal(np.int64(2), np.float64(0.5), 1, 2),
                           Leaf(np.int64(0)), Leaf(np.uint8(1))))
    text = tree_to_text(tree)
    assert text == "node(2, 0.5, leaf(0), leaf(1))"
    assert tree_from_text(text) == tree


def _holds(nd) -> bool:
    """Whether a node is valid, decided apart from TreeClassifier's check."""
    def integer(v):
        return isinstance(v, (int, np.integer)) and not isinstance(v, bool)
    if isinstance(nd, Leaf):
        return integer(nd.label) and nd.label in (0, 1)
    real = (isinstance(nd.threshold, (int, float, np.integer, np.floating))
            and not isinstance(nd.threshold, bool))
    return integer(nd.var) and nd.var >= 1 and real and not math.isnan(nd.threshold)


_ANY_LABEL = st.sampled_from([0, 1, True, False, 1.0, 0.0, 2, -1, np.int64(1), np.int8(0)])
_ANY_VAR = st.integers(-1, 4) | st.sampled_from([1.5, 2.0, True, np.int64(2), np.uint16(3),
                                                   np.float64(1.0)])
_ANY_THRESHOLD = finite_floats | st.sampled_from([
    math.nan, -math.inf, math.inf, np.float64(0.5), np.float32(0.1), np.float32("nan"),
    3, np.int64(-2), True, False])


@settings(max_examples=300, deadline=None)
@given(random_trees(variables=_ANY_VAR, thresholds=_ANY_THRESHOLD, labels=_ANY_LABEL,
                    make=tuple))
def test_every_tree_that_constructs_round_trips_through_text(nodes):
    try:
        tree = TreeClassifier(nodes)
    except ValueError:
        assert not all(map(_holds, nodes))
        return
    assert all(map(_holds, nodes))
    text = tree_to_text(tree)
    if any(isinstance(nd, Internal) and math.isinf(nd.threshold) for nd in nodes):
        # a degenerate split of the exhaustive oracle; text holds finite
        # thresholds only, and says so rather than reading something else
        with pytest.raises(ValueError):
            tree_from_text(text)
        return
    back = tree_from_text(text)
    assert back == tree
    assert tree_to_text(back) == text


def test_descriptor_round_trip():
    t = tree_from_text("node(2, 0.5, leaf(0), node(1, 1.5, leaf(1), leaf(0)))")
    desc = descriptor_of(t)
    assert desc.variables == (2, 1)  # breadth-first internal order
    assert desc.size == 3
    rebuilt = tree_from_class(desc, [0.5, 1.5], [0, 1, 0])
    assert tree_to_text(rebuilt) == tree_to_text(t)


@pytest.mark.parametrize("nodes", [
    (Internal(1, 0.0, 0, 0),),                                  # cycle through the root
    (Internal(1, 0.0, 1, 5), Leaf(0)),                          # child out of range
    (Internal(1, 0.0, 2, 3), Leaf(0), Internal(1, 1.0, 1, 4),   # child before its parent
     Leaf(1), Leaf(0)),
    (Internal(1, 0.0, 1, 2), Internal(2, 0.0, 3, 4),            # shared children
     Internal(2, 1.0, 3, 4), Leaf(0), Leaf(1)),
    (Leaf(0), Leaf(1), Leaf(1)),                                # unreachable nodes
    (Internal(1, 0.0, 1.0, 2), Leaf(0), Leaf(1)),               # a float child index
    (Internal(1, 0.0, True, 2), Leaf(0), Leaf(1)),              # a bool child index
])
def test_malformed_arena_rejected(nodes):
    with pytest.raises(ValueError):
        TreeClassifier(nodes)


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_deep_trees_need_no_recursion():
    # staircase: label runs of length 1..81 along x1 grow a tree of depth 80
    y = np.concatenate([np.full(k, k % 2) for k in range(1, 82)])
    X = np.column_stack([np.arange(y.size, dtype=np.float64), np.zeros(y.size)])
    stairs = Dataset(X, y)
    # caterpillar of depth 200: every right child splits again
    depth = 200
    text = "".join(f"node(1, {k}.5, leaf({k % 2}), " for k in range(depth))
    text += "leaf(0)" + ")" * depth
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 60)
    try:
        grown = grow_maximal(stairs)
        seq = weakest_link(grown, stairs)
        caterpillar = tree_from_text(text)
        back = tree_to_text(caterpillar)
        caterpillar_depth = _depth(caterpillar)
        nested = is_pruned_subtree(leaf(0), caterpillar) and is_pruned_subtree(
            caterpillar, caterpillar)
        rows = np.column_stack([np.arange(depth + 1.0), np.zeros(depth + 1)])
        labels = caterpillar.predict_batch(rows)
        cat_data = Dataset(rows, [k % 2 for k in range(depth)] + [0])
        best, best_cost = brute_force_best_subtree(caterpillar, cat_data, lambda k: 0)
        desc = descriptor_of(caterpillar)
    finally:
        sys.setrecursionlimit(old_limit)
    assert _depth(grown) == 80 and grown.n_leaves == 81
    assert seq.error_counts[0] == 0 and seq.subtrees[-1].n_leaves == 1
    assert back == text
    assert caterpillar_depth == depth
    assert nested
    assert labels.tolist() == [k % 2 for k in range(depth)] + [0]
    assert best.nodes == caterpillar.nodes and best_cost == 0  # all 201 leaves kept
    assert desc.size == depth + 1
