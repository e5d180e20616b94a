import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeselect import (ClassDescriptor, Dataset, GrowLimits, LinearPenalty,
                        ResourceCapError, brute_force_best_subtree, catalan,
                        class_count, empirical_risk, enumerate_classes, erm_in_class,
                        exhaustive_select, grow_maximal, select_tree,
                        shattering_count, tree_from_text, tree_to_text)
from treeselect import oracle
from treeselect.oracle import enumerate_shapes
from treeselect.designs import BLOCK_CELLS
from treeselect.tree import (LEAF_SHAPE, Internal, Leaf, TreeClassifier, leaf,
                             tree_from_class)

from conftest import NEIGHBOUR_CASES, random_dataset, tied_datasets

STUMP = ClassDescriptor((LEAF_SHAPE, LEAF_SHAPE), (1,))
SINGLE = ClassDescriptor(LEAF_SHAPE, ())


def test_catalan_values():
    assert [catalan(k) for k in range(1, 8)] == [1, 1, 2, 5, 14, 42, 132]


def test_catalan_matches_enumeration():
    for k in range(1, 8):
        assert catalan(k) == len(enumerate_shapes(k))


def _recursive_shapes(k):
    """The recursive enumeration enumerate_shapes replaced, as the order reference."""
    if k == 1:
        return [LEAF_SHAPE]
    return [(left, right) for i in range(1, k)
            for left in _recursive_shapes(i) for right in _recursive_shapes(k - i)]


def test_shape_order():
    # exhaustive selection keeps the first minimum, so this order decides its ties
    assert enumerate_shapes(3) == [((), ((), ())), (((), ()), ())]
    for k in range(1, 8):
        assert enumerate_shapes(k) == _recursive_shapes(k)


def test_catalan_validation():
    with pytest.raises(ValueError):
        catalan(0)
    with pytest.raises(OverflowError):
        catalan(31)
    assert catalan(30) == 1002242216651368


def test_class_count_examples():
    assert class_count(10, 2) == 10
    assert class_count(3, 3) == 18
    assert class_count(7, 1) == 1


def test_enumerate_classes_matches_count():
    for p in range(2, 5):
        for k in range(1, 5):
            classes = enumerate_classes(p, k)
            assert len(classes) == class_count(p, k)
            assert len(set(classes)) == len(classes)
            assert len({c.configuration for c in classes}) == catalan(k)


def test_enumerate_classes_cap():
    with pytest.raises(ResourceCapError):
        enumerate_classes(10, 8)  # 10^7 * 429 classes


def test_erm_stump_example():
    d = Dataset(np.column_stack([[1.0, 2.0, 3.0], np.zeros(3)]), np.array([0, 1, 1]))
    tree, risk = erm_in_class(STUMP, d)
    assert risk == 0
    assert tree.nodes[0].threshold == 1.5


def test_erm_constant_column():
    d = Dataset(np.column_stack([np.zeros(3), [1.0, 2.0, 3.0]]), np.array([0, 1, 1]))
    tree, risk = erm_in_class(STUMP, d)  # stump on the constant variable 1
    assert risk == Fraction(1, 3)  # minority fraction: no split separates


def test_erm_single_leaf():
    d = Dataset(np.column_stack([[1.0, 2.0, 3.0], np.zeros(3)]), np.array([0, 1, 1]))
    tree, risk = erm_in_class(SINGLE, d)
    assert risk == Fraction(1, 3)
    assert tree.nodes[0].label == 1
    tied = Dataset(np.column_stack([[1.0, 2.0], np.zeros(2)]), np.array([0, 1]))
    tree, risk = erm_in_class(SINGLE, tied)
    assert tree == leaf(0)  # a tied cell is labelled 0, as in growing
    assert risk == Fraction(1, 2)


def _reference_erm(desc, data):
    """The per-assignment loop erm_in_class replaced: route every threshold
    assignment on its own, in itertools.product order, and keep the first
    minimum."""
    cands = []
    for v in desc.variables:
        vals = np.unique(data.X[:, v - 1])
        cands.append([-math.inf, *((vals[:-1] + vals[1:]) / 2.0).tolist(), math.inf])
    best_err = best = None
    for thresholds in itertools.product(*cands):
        queue = [(desc.configuration, np.arange(data.n))]
        splits = iter(zip(desc.variables, thresholds))
        cells = np.empty(data.n, dtype=np.int64)
        leaf_idx = 0
        while queue:
            shape, rows = queue.pop(0)
            if shape == LEAF_SHAPE:
                cells[rows] = leaf_idx
                leaf_idx += 1
                continue
            var, thr = next(splits)
            right = data.X[rows, var - 1] > thr
            queue += [(shape[0], rows[~right]), (shape[1], rows[right])]
        counts = np.bincount(2 * cells + data.y, minlength=2 * desc.size).reshape(-1, 2)
        err = int(counts.min(axis=1).sum())
        if best_err is None or err < best_err:
            best_err, best = err, (thresholds, counts.argmax(axis=1).tolist())
    return tree_from_class(desc, *best), Fraction(best_err, data.n)


def test_blocked_erm_matches_reference():
    # rounded features tie often, so the first-minimum rule is exercised
    rng = np.random.default_rng(17)
    for _ in range(25):
        n, p = int(rng.integers(1, 12)), int(rng.integers(2, 4))
        d = Dataset(rng.normal(size=(n, p)).round(0), rng.integers(0, 2, size=n))
        for desc in (c for k in range(1, 4) for c in enumerate_classes(p, k)):
            tree, risk = erm_in_class(desc, d)
            ref_tree, ref_risk = _reference_erm(desc, d)
            assert (tree_to_text(tree), risk) == (tree_to_text(ref_tree), ref_risk)


def test_blocked_erm_matches_reference_across_blocks():
    rng = np.random.default_rng(23)
    x1 = rng.normal(size=600).round(0)
    d = Dataset(np.column_stack([x1, rng.normal(size=600)]), (x1 > 0).astype(int))
    # x1 at 0.5 separates the labels, so every x2 threshold of the right
    # child ties at 0 errors: a run of 601 assignments over several blocks
    desc = ClassDescriptor(enumerate_shapes(3)[0], (1, 2))
    assert 601 > 4 * (BLOCK_CELLS // d.n)
    tree, risk = erm_in_class(desc, d)
    assert risk == 0 and tree.nodes[2].threshold == -math.inf
    ref_tree, ref_risk = _reference_erm(desc, d)
    assert (tree_to_text(tree), risk) == (tree_to_text(ref_tree), ref_risk)
    noisy = Dataset(d.X, np.where(rng.random(600) < 0.2, 1 - d.y, d.y))
    for desc in enumerate_classes(2, 3):  # noisy labels, every class under the cap
        if desc.variables == (2, 2):
            continue  # 601^2 assignments
        tree, risk = erm_in_class(desc, noisy)
        ref_tree, ref_risk = _reference_erm(desc, noisy)
        assert (tree_to_text(tree), risk) == (tree_to_text(ref_tree), ref_risk)


def test_erm_memory_is_bounded_by_the_block():
    # 201^2 assignments of a 200-row class: routed all at once they would
    # take hundreds of MiB
    rng = np.random.default_rng(3)
    d = Dataset(np.column_stack([np.arange(200.0), rng.permutation(200).astype(float)]),
                rng.integers(0, 2, size=200))
    desc = ClassDescriptor(enumerate_shapes(3)[0], (1, 2))
    tracemalloc.start()
    try:
        erm_in_class(desc, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_class_variables_must_be_positive_integers():
    for bad in (0, -1, 1.0, True, "1"):
        with pytest.raises(ValueError, match="variable"):
            ClassDescriptor((LEAF_SHAPE, LEAF_SHAPE), (bad,))


def test_class_wider_than_the_sample_is_rejected(monkeypatch):
    d = Dataset(np.column_stack([[1.0, 2.0, 3.0], np.zeros(3)]), np.array([0, 1, 1]))
    wide = ClassDescriptor((LEAF_SHAPE, LEAF_SHAPE), (3,))
    # the width is checked before anything is routed
    monkeypatch.setattr(oracle, "_route", None)
    with pytest.raises(ValueError, match=r"\[3\].*2 columns"):
        erm_in_class(wide, d)
    with pytest.raises(ValueError, match=r"\[3\].*2 columns"):
        shattering_count(wide, d.X)


def test_exhaustive_k_max_must_be_an_integer():
    d = Dataset(np.column_stack([[1.0, 2.0, 3.0], np.zeros(3)]), np.array([0, 1, 1]))
    with pytest.raises(ValueError, match="k_max"):
        exhaustive_select(d, LinearPenalty(0.1), k_max=2.5)


def test_erm_invariant_under_monotone_transform():
    rng = np.random.default_rng(31)
    d = random_dataset(rng, 12, 2)
    warped = Dataset(np.column_stack([np.exp(d.X[:, 0]), d.X[:, 1] ** 3]), d.y)
    for desc in enumerate_classes(2, 3):
        _, r1 = erm_in_class(desc, d)
        _, r2 = erm_in_class(desc, warped)
        assert r1 == r2


def test_erm_tree_misclassifies_its_risk():
    # the oracle's own router and cell counts against the library's router
    rng = np.random.default_rng(5)
    classes = [c for k in range(1, 4) for c in enumerate_classes(2, k)]
    for _ in range(40):
        n = int(rng.integers(2, 9))
        d = Dataset(rng.integers(-2, 3, size=(n, 2)).astype(float),
                    rng.integers(0, 2, size=n))
        for desc in classes:
            tree, risk = erm_in_class(desc, d)
            assert int(np.sum(tree.predict_batch(d.X) != d.y)) == risk * n


def test_exhaustive_k1():
    d = Dataset(np.column_stack([[1.0, 2.0, 3.0], np.zeros(3)]), np.array([0, 1, 1]))
    spec = LinearPenalty(0.9)  # large enough that one leaf wins
    tree, cost = exhaustive_select(d, spec, k_max=2)
    assert tree.n_leaves == 1
    assert cost == pytest.approx(1 / 3 + 0.9)


def test_exhaustive_beats_heuristic_separable(line_dataset):
    d = line_dataset([0, 0, 1, 1])
    spec = LinearPenalty(0.01)
    _, cost_ex = exhaustive_select(d, spec, k_max=2)
    _, cost_h = select_tree(d, spec, GrowLimits(max_leaves=2))
    assert cost_ex <= cost_h
    assert cost_ex == pytest.approx(0.02)


def test_exhaustive_shares_each_variables_candidates(monkeypatch):
    rng = np.random.default_rng(41)
    d = Dataset(rng.normal(size=(9, 3)).round(1), rng.integers(0, 2, size=9))
    spec = LinearPenalty(0.05)
    # the per-class loop exhaustive_select replaced
    ref_tree = ref_cost = None
    for desc in (c for k in range(1, 4) for c in enumerate_classes(d.p, k)):
        tree, risk = erm_in_class(desc, d)
        cost = float(risk) + 0.05 * desc.size
        if ref_cost is None or cost < ref_cost:
            ref_tree, ref_cost = tree, cost
    unique = np.unique
    calls = []
    monkeypatch.setattr(np, "unique", lambda a: calls.append(1) or unique(a))
    tree, cost = exhaustive_select(d, spec, k_max=3)
    assert (tree_to_text(tree), cost) == (tree_to_text(ref_tree), ref_cost)
    assert len(calls) == d.p  # once per variable, not once per class


def test_exhaustive_never_loses_to_heuristic():
    rng = np.random.default_rng(88)
    equal = 0
    trials = 40
    for _ in range(trials):
        d = random_dataset(rng, 8, 2)
        spec = LinearPenalty(float(rng.uniform(0.05, 0.5)))
        _, cost_ex = exhaustive_select(d, spec, k_max=3)
        _, cost_h = select_tree(d, spec, GrowLimits(max_leaves=3))
        assert cost_ex <= cost_h + 1e-12
        equal += abs(cost_ex - cost_h) <= 1e-12
    assert equal >= trials // 2


@pytest.mark.parametrize("X,y", NEIGHBOUR_CASES)
def test_exhaustive_tries_the_cut_between_neighbouring_values(X, y):
    # a midpoint that rounds onto the larger value or overflows would lose
    # the only cut that separates the labels
    d = Dataset(np.array(X), np.array(y))
    spec = LinearPenalty(0.01)
    tree, cost_ex = exhaustive_select(d, spec, k_max=2)
    _, cost_h = select_tree(d, spec, GrowLimits(max_leaves=2))
    assert cost_ex <= cost_h
    assert tree.n_leaves == 2 and empirical_risk(tree, d) == 0.0


def test_shattering_single_leaf():
    X = np.random.default_rng(0).standard_normal((5, 2))
    assert shattering_count(SINGLE, X) == 2


def test_shattering_stump_examples():
    X4 = np.column_stack([[1.0, 2.0, 3.0, 4.0], np.zeros(4)])
    assert shattering_count(STUMP, X4) == 8
    assert 8 <= (2 * 4) ** 2
    X3 = np.column_stack([[1.0, 2.0, 3.0], np.zeros(3)])
    assert shattering_count(STUMP, X3) == 6


def test_entropy_bound_all_small_classes():
    rng = np.random.default_rng(2)
    classes = [c for k in range(1, 4) for c in enumerate_classes(2, k)]
    for _ in range(20):
        n = int(rng.integers(1, 7))
        X = rng.standard_normal((n, 2))
        for desc in classes:
            count = shattering_count(desc, X)
            assert math.log(count) <= desc.size * math.log(2 * n) + 1e-12


def test_brute_force_single_leaf():
    d = Dataset(np.zeros((3, 2)) + np.arange(3)[:, None], np.array([0, 1, 1]))
    tree, cost = brute_force_best_subtree(leaf(0), d, lambda k: Fraction(0))
    assert tree.n_leaves == 1
    assert cost == Fraction(1, 3)


def test_brute_force_rejects_a_tree_wider_than_the_data(monkeypatch):
    d = Dataset(np.column_stack([[1.0, 2.0, 3.0], np.zeros(3)]), np.array([0, 1, 1]))
    tree = tree_from_text("node(3, 0.5, leaf(0), leaf(1))")
    # the width is checked before anything is routed
    monkeypatch.setattr(oracle, "_leaf_errors", None)
    with pytest.raises(ValueError, match="too narrow"):
        brute_force_best_subtree(tree, d, lambda k: Fraction(0))


def test_brute_force_tie_prefers_smaller(line_dataset):
    d = line_dataset([0, 1, 1, 0])
    tmax = grow_maximal(d)
    tree, cost = brute_force_best_subtree(tmax, d, lambda k: Fraction(k, 4))
    assert cost == Fraction(3, 4)
    assert tree.n_leaves == 1


def test_brute_force_relabels_leaves(line_dataset):
    d = line_dataset([0, 1, 1, 1])
    tmax = grow_maximal(d)
    tree, cost = brute_force_best_subtree(tmax, d, lambda k: Fraction(k, 2))
    # collapsing to the root must use the majority label 1
    assert cost == Fraction(3, 4)
    assert tree.n_leaves == 1
    assert tree.nodes[0].label == 1


@st.composite
def trees_on_tied_data(draw, max_depth=4):
    """A tied dataset and a random tree over its columns, with integral
    thresholds that rows can equal; some nodes may be reached by no row."""
    data = draw(tied_datasets())
    nodes: list = []
    stack = [(None, 0, max_depth)]  # (parent index, child slot, depth left)
    while stack:
        parent, slot, depth = stack.pop()
        if parent is not None:
            nodes[parent][slot] = len(nodes)
        if depth == 0 or draw(st.booleans()):
            nodes.append(Leaf(draw(st.integers(0, 1))))
        else:
            stack += [(len(nodes), 3, depth - 1), (len(nodes), 2, depth - 1)]
            nodes.append([draw(st.integers(1, data.p)), float(draw(st.integers(-3, 3))),
                          None, None])
    tree = TreeClassifier(tuple(nd if isinstance(nd, Leaf) else Internal(*nd)
                                for nd in nodes))
    return tree, data


@settings(max_examples=100, deadline=None)
@given(trees_on_tied_data())
def test_carried_pruning_counts_match_materialized_subtrees(case):
    tree, data = case
    prunings = oracle._prunings(tree, oracle._leaf_errors(tree, data))
    for pattern, errors, leaves in prunings:
        sub, err = oracle._materialize(tree, pattern, data)
        assert (errors, leaves) == (err, sub.n_leaves)
        assert err == int(np.sum(sub.predict_batch(data.X) != data.y))


def test_brute_force_cap(monkeypatch, line_dataset):
    text = "leaf(0)"
    for _ in range(5):
        text = f"node(1, 2.5, {text}, {text})"
    tree = tree_from_text(text)  # complete depth 5: 1 + 677^2 = 458,330 prunings
    # the cap must be checked before any pruning is listed
    monkeypatch.setattr(oracle, "_prunings", None)
    with pytest.raises(ResourceCapError, match="458330"):
        brute_force_best_subtree(tree, line_dataset([0, 1, 1, 0]), lambda k: Fraction(0))


def test_assignment_caps(monkeypatch):
    # three splits on x1 over 60 distinct values: 61^3 threshold assignments
    desc = ClassDescriptor(enumerate_shapes(4)[0], (1, 1, 1))
    d = Dataset(np.column_stack([np.arange(60.0), np.zeros(60)]), np.arange(60) % 2)
    # the caps must be checked before any assignment is routed
    monkeypatch.setattr(oracle, "_route", None)
    with pytest.raises(ResourceCapError, match="226981"):
        erm_in_class(desc, d)
    with pytest.raises(ResourceCapError, match="476656"):  # 31^3 * 2^4 classifiers
        shattering_count(desc, d.X[:30])
