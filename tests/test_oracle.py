import math
from fractions import Fraction

import numpy as np
import pytest

from treeselect import (ClassDescriptor, Dataset, GrowLimits, LinearPenalty,
                        ResourceCapError, brute_force_best_subtree, catalan,
                        class_count, enumerate_classes, erm_in_class,
                        exhaustive_select, grow_maximal, select_tree,
                        shattering_count, tree_from_text, tree_to_text)
from treeselect import oracle
from treeselect.oracle import enumerate_shapes
from treeselect.tree import LEAF_SHAPE, leaf

from conftest import random_dataset

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
            enum = enumerate_classes(p, k)
            assert len(enum.classes) == class_count(p, k)
            assert len(set(enum.classes)) == len(enum.classes)
            assert len(enum.configurations) == catalan(k)


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


def test_erm_invariant_under_monotone_transform():
    rng = np.random.default_rng(31)
    d = random_dataset(rng, 12, 2)
    warped = Dataset(np.column_stack([np.exp(d.X[:, 0]), d.X[:, 1] ** 3]), d.y)
    for desc in enumerate_classes(2, 3).classes:
        _, r1 = erm_in_class(desc, d)
        _, r2 = erm_in_class(desc, warped)
        assert r1 == r2


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
    classes = [c for k in range(1, 4) for c in enumerate_classes(2, k).classes]
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


def test_brute_force_cap(monkeypatch, line_dataset):
    text = "leaf(0)"
    for _ in range(5):
        text = f"node(1, 2.5, {text}, {text})"
    tree = tree_from_text(text)  # complete depth 5: 1 + 677^2 = 458,330 prunings
    # the cap must be checked before any pruning is listed
    monkeypatch.setattr(oracle, "_prunings", None)
    with pytest.raises(ResourceCapError, match="458330"):
        brute_force_best_subtree(tree, line_dataset([0, 1, 1, 0]), lambda k: Fraction(0))
