import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeselect import (Dataset, GrowLimits, best_split, empirical_risk, grow_maximal,
                        weakest_link)
from treeselect.tree import Internal, tree_to_text

from conftest import random_dataset


def test_best_split_perfect(line_dataset):
    d = line_dataset([0, 0, 1, 1])
    s = best_split(d, np.arange(4))
    assert (s.var, s.threshold, s.left_label, s.right_label) == (1, 2.5, 0, 1)
    assert s.err_count == 0


def test_best_split_pure_returns_none():
    d = Dataset(np.array([[0.0, 1.0], [1.0, 2.0]]), np.array([1, 1]))
    assert best_split(d, np.arange(2)) is None


def test_best_split_tie_breaks_to_first_variable():
    d = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
    s = best_split(d, np.arange(2))
    assert s.var == 1


def test_best_split_no_improvement_returns_none():
    # any single cut leaves 1 error, equal to the majority-leaf error
    X = np.column_stack([np.array([1.0, 2.0, 3.0]), np.zeros(3)])
    d = Dataset(X, np.array([1, 0, 1]))
    s = best_split(d, np.arange(3))
    assert s is None or s.err_count < 1


def test_grow_perfect_stump(line_dataset):
    d = line_dataset([0, 0, 1, 1])
    t = grow_maximal(d)
    assert t.n_leaves == 2
    assert empirical_risk(t, d) == 0.0


def test_grow_conflicting_duplicates():
    d = Dataset(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0, 1]))
    t = grow_maximal(d)
    assert t.n_leaves == 1
    assert t.nodes[0].label == 0  # tie resolves to 0
    assert empirical_risk(t, d) == 0.5


def test_grow_three_leaf_example(line_dataset):
    d = line_dataset([0, 1, 1, 0])
    t = grow_maximal(d)
    assert t.n_leaves == 3
    assert empirical_risk(t, d) == 0.0
    thresholds = sorted(nd.threshold for nd in t.nodes if hasattr(nd, "threshold"))
    assert thresholds == [1.5, 3.5]


def test_growth_stops_only_when_stuck():
    # growing continues while some cut strictly reduces the error count,
    # so every leaf of the maximal tree admits no improving split
    from treeselect.tree import Leaf
    for seed in range(5):
        d = random_dataset(np.random.default_rng(seed), 40, 3)
        t = grow_maximal(d)
        assert t.n_leaves <= 40
        assignment = t.leaf_assignment(d.X)
        for i, nd in enumerate(t.nodes):
            if isinstance(nd, Leaf):
                rows = np.flatnonzero(assignment == i)
                assert best_split(d, rows) is None


def test_distinct_block_labels_reach_zero_risk(line_dataset):
    # contiguous label blocks over distinct values are classified perfectly
    for y in [(0, 0, 1, 1), (0, 0, 0, 1, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1, 1, 1)]:
        d = line_dataset(list(y))
        assert empirical_risk(grow_maximal(d), d) == 0.0


def test_grow_row_permutation_invariant():
    rng = np.random.default_rng(23)
    d = random_dataset(rng, 30, 3)
    perm = rng.permutation(30)
    shuffled = Dataset(d.X[perm], d.y[perm])
    assert tree_to_text(grow_maximal(d)) == tree_to_text(grow_maximal(shuffled))


def test_grow_deterministic():
    d = random_dataset(np.random.default_rng(4), 25, 4)
    assert tree_to_text(grow_maximal(d)) == tree_to_text(grow_maximal(d))


def test_max_leaves_limit():
    d = random_dataset(np.random.default_rng(8), 50, 3)
    t = grow_maximal(d, GrowLimits(max_leaves=4))
    assert t.n_leaves <= 4


def test_min_node_size():
    d = random_dataset(np.random.default_rng(8), 50, 3)
    t = grow_maximal(d, GrowLimits(min_node_size=10))
    counts = np.bincount(t.leaf_assignment(d.X), minlength=len(t.nodes))
    from treeselect.tree import Leaf
    for i, nd in enumerate(t.nodes):
        if isinstance(nd, Leaf):
            assert counts[i] >= 10


def test_every_split_strictly_reduces_errors():
    d = random_dataset(np.random.default_rng(12), 60, 3)
    t = grow_maximal(d)
    # leaf count <= n is implied by strict per-split error reduction
    assert t.n_leaves <= d.n
    assert t.n_leaves - 1 <= int(min((d.y == 0).sum(), (d.y == 1).sum())) * 2 + d.n


def test_invalid_limits():
    with pytest.raises(ValueError):
        GrowLimits(max_leaves=0)
    with pytest.raises(ValueError):
        GrowLimits(min_node_size=0)


@st.composite
def tied_datasets(draw):
    """Small datasets whose features take few values, so ties are common."""
    n = draw(st.integers(2, 30))
    p = draw(st.integers(2, 3))
    values = st.integers(-3, 3).map(float)
    X = np.array(draw(st.lists(st.lists(values, min_size=p, max_size=p),
                               min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return Dataset(X, y)


leaf_budgets = st.none() | st.integers(1, 8)


def _grow_and_prune(data, max_leaves):
    seq = weakest_link(grow_maximal(data, GrowLimits(max_leaves=max_leaves)), data)
    return seq, [tree_to_text(t) for t in seq.subtrees]


@settings(max_examples=100, deadline=None)
@given(tied_datasets(), leaf_budgets, st.randoms(use_true_random=False))
def test_grow_and_prune_row_permutation_invariant(data, max_leaves, rnd):
    perm = list(range(data.n))
    rnd.shuffle(perm)
    seq, texts = _grow_and_prune(data, max_leaves)
    pseq, ptexts = _grow_and_prune(data.subset(perm), max_leaves)
    assert ptexts == texts
    assert pseq.alphas == seq.alphas
    assert pseq.error_counts == seq.error_counts


def _structure(tree):
    """Nodes with the thresholds left out."""
    return [(nd.var, nd.left, nd.right) if isinstance(nd, Internal) else nd
            for nd in tree.nodes]


@settings(max_examples=100, deadline=None)
@given(tied_datasets(), leaf_budgets, st.integers(0, 2),
       st.sampled_from([np.exp, lambda v: v ** 3, lambda v: 2.0 * v - 7.0]))
def test_grow_and_prune_invariant_under_monotone_transform(data, max_leaves, col, fn):
    col = min(col, data.p - 1)
    X = data.X.copy()
    X[:, col] = fn(X[:, col])
    seq, _ = _grow_and_prune(data, max_leaves)
    tseq, _ = _grow_and_prune(Dataset(X, data.y), max_leaves)
    assert [_structure(t) for t in tseq.subtrees] == [_structure(t) for t in seq.subtrees]
    assert tseq.error_counts == seq.error_counts
    assert tseq.alphas == seq.alphas
