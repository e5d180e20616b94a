import copy
import gc
import pickle
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeselect import (Dataset, GrowLimits, best_split, empirical_risk, grow_maximal,
                        weakest_link)
from treeselect.designs import DesignSpec, generate
from treeselect.grow import Split
from treeselect.tree import Internal, TreeClassifier, node_counts, tree_to_text

from conftest import (NEIGHBOUR_CASES, leaf_budgets, neighbour_datasets, random_dataset,
                      tied_datasets)


def test_best_split_perfect(line_dataset):
    d = line_dataset([0, 0, 1, 1])
    assert best_split(d, np.arange(4)) == Split(1, 2.5, 2, 0, 0)


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


def test_dataset_arrays_are_read_only_copies():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, size=30)
    d = Dataset(X, y)
    X0, y0, order0 = d.X.copy(), d.y.copy(), d.order.copy()
    for arr in (d.X, d.y, d.subset(np.arange(5)).X, d.subset(np.arange(5)).y):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    X[d.order[0, 0], 0] = 100.0  # would make the smallest value of x1 the largest
    y[:3] = -1  # would read as a +1 sign in the split search
    assert np.array_equal(d.X, X0) and np.array_equal(d.y, y0)
    assert np.array_equal(d.order, order0)
    assert not np.shares_memory(d.X, X) and not np.shares_memory(d.y, y)
    assert tree_to_text(grow_maximal(d)) == tree_to_text(grow_maximal(Dataset(X0, y0)))
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        Dataset(X, y)


def test_node_orders_are_presorts_of_the_node_rows(monkeypatch):
    # grow passes each node a partition of its parent's order; every one
    # must equal a fresh stable sort of the node's rows
    from treeselect import grow
    seen = []

    def spy(data, rows, min_node_size=1, order=None):
        seen.append((np.sort(rows), order))
        return best_split(data, rows, min_node_size, order)

    monkeypatch.setattr(grow, "best_split", spy)
    d = _rounded_columns(random_dataset(np.random.default_rng(6), 60, 3), [1])  # ties
    grow_maximal(d)
    assert len(seen) > 3
    for rows, order in seen:
        fresh = rows[np.argsort(d.X[rows].T, axis=1, kind="stable")]
        assert np.array_equal(order, fresh)


def test_invalid_limits():
    for kwargs in (dict(max_leaves=0), dict(min_node_size=0),
                   dict(max_leaves=2.5), dict(max_leaves=3.0),  # nothing is rounded
                   dict(min_node_size=1.5), dict(min_node_size=True)):
        with pytest.raises(ValueError):
            GrowLimits(**kwargs)


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


@settings(max_examples=100, deadline=None)
@given(tied_datasets(), leaf_budgets, st.randoms(use_true_random=False))
def test_subset_with_inherited_tied_columns_grows_and_prunes_as_a_fresh_dataset(
        data, max_leaves, rnd):
    # a subset inherits its parent's tied columns, a superset of its own
    rows = np.array(sorted(rnd.sample(range(data.n), rnd.randint(1, data.n))))
    data.order
    child = data.subset(rows)
    fresh = Dataset(data.X[rows], data.y[rows])
    assert np.array_equal(child.tied, data.tied)
    assert set(fresh.tied) <= set(child.tied)
    limits = GrowLimits(max_leaves=max_leaves)
    tree = grow_maximal(child, limits)
    assert tree == grow_maximal(fresh, limits)
    seq, fresh_seq = weakest_link(tree, child), weakest_link(tree, fresh)
    for f in fields(seq):
        assert getattr(seq, f.name) == getattr(fresh_seq, f.name), f.name


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


_BIG = np.iinfo(np.int64).max


def _reference_best_split(data, rows, min_node_size=1):
    """The split search with a fresh sort at every node, kept as the
    independent reference for the presorted one."""
    rows = np.asarray(rows)
    X = data.X[rows]
    y = data.y[rows]
    m = y.size
    n1 = int(y.sum())
    parent_err = min(m - n1, n1)
    if parent_err == 0 and n1 in (0, m):
        return None
    if m < 2 * min_node_size or m < 2:
        return None

    order = np.argsort(X, axis=0, kind="stable")
    svals = np.take_along_axis(X, order, axis=0)
    sy = y[order]
    ones = np.cumsum(sy, axis=0)

    left_n = np.arange(1, m, dtype=np.int64)[:, None]
    left_ones = ones[:-1]
    left_err = np.minimum(left_ones, left_n - left_ones)
    right_ones = n1 - left_ones
    right_n = m - left_n
    right_err = np.minimum(right_ones, right_n - right_ones)
    err = left_err + right_err

    valid = svals[1:] > svals[:-1]
    if min_node_size > 1:
        valid = valid & (left_n >= min_node_size) & (right_n >= min_node_size)
    err = np.where(valid, err, _BIG)

    flat = err.T.ravel()
    best = int(np.argmin(flat))
    best_err = int(flat[best])
    if best_err >= parent_err:
        return None
    var0, i = divmod(best, m - 1)
    lo, hi = float(svals[i, var0]), float(svals[i + 1, var0])
    mid = (lo + hi) / 2.0
    threshold = mid if lo <= mid < hi else lo
    return Split(var0 + 1, threshold, i + 1, int(left_ones[i, var0]), best_err)


@settings(max_examples=200, deadline=None)
@given(tied_datasets() | neighbour_datasets(), st.integers(1, 3),
       st.randoms(use_true_random=False))
def test_presorted_best_split_matches_reference(data, min_node_size, rnd):
    rows = np.array(sorted(rnd.sample(range(data.n), rnd.randint(1, data.n))))
    expected = _reference_best_split(data, rows, min_node_size)
    assert best_split(data, rows, min_node_size) == expected
    assert best_split(data, rows.tolist(), min_node_size) == expected
    # the order grow hands a node: the dataset's order filtered by membership
    member = np.zeros(data.n, dtype=bool)
    member[rows] = True
    assert best_split(data, member, min_node_size) == expected
    order = data.order[member[data.order]].reshape(data.p, -1)
    assert best_split(data, rnd.sample(list(rows), len(rows)), min_node_size,
                      order) == expected


@settings(max_examples=200, deadline=None)
@given(tied_datasets() | neighbour_datasets(), st.integers(1, 3),
       st.randoms(use_true_random=False))
def test_best_split_on_rows_drawn_with_replacement_matches_reference(data, min_node_size, rnd):
    # a repeated row ties with itself in every column, also in columns
    # whose values are all distinct in the dataset
    rows = np.array([rnd.randrange(data.n) for _ in range(rnd.randint(1, 2 * data.n))])
    assert best_split(data, rows, min_node_size) == \
        _reference_best_split(data, rows, min_node_size)


def _rounded_columns(data, cols):
    X = data.X.copy()
    X[:, cols] = np.round(X[:, cols])
    return Dataset(X, data.y)


@pytest.mark.parametrize("min_node_size", [1, 3])
@pytest.mark.parametrize("tied_cols", [[], list(range(0, 200, 2))])
def test_every_grown_split_matches_reference(monkeypatch, min_node_size, tied_cols):
    # grow hands each node its partitioned order; the split it gets must be
    # the fresh-sort reference's
    from treeselect import grow
    seen = []

    def spy(data, rows, min_node_size=1, order=None):
        split = best_split(data, rows, min_node_size, order)
        seen.append((rows, split))
        return split

    monkeypatch.setattr(grow, "best_split", spy)
    d = _rounded_columns(generate(DesignSpec(1, 120, 200, 0.2, seed=7)), tied_cols)
    t = grow_maximal(d, GrowLimits(min_node_size=min_node_size))
    assert t.n_leaves > 3
    assert len(seen) == 2 * t.n_leaves - 1
    for rows, split in seen:
        assert split == _reference_best_split(d, rows, min_node_size)


@settings(max_examples=200, deadline=None)
@given(tied_datasets() | neighbour_datasets(), st.integers(1, 3),
       st.randoms(use_true_random=False))
def test_split_counts_are_the_partition_its_threshold_routes(data, min_node_size, rnd):
    rows = np.array([rnd.randrange(data.n) for _ in range(rnd.randint(1, 2 * data.n))])
    split = best_split(data, rows, min_node_size)
    if split is None:
        return
    left = data.X[rows, split.var - 1] <= split.threshold
    y = data.y[rows]
    assert (split.left_size, split.left_ones) == (left.sum(), y[left].sum())
    assert min_node_size <= split.left_size <= rows.size - min_node_size
    right_ones = y.sum() - split.left_ones
    assert split.err_count == min(split.left_ones, split.left_size - split.left_ones) + \
        min(right_ones, rows.size - split.left_size - right_ones)


@pytest.mark.parametrize("rows", [[], np.array([], dtype=int), np.zeros(3, dtype=bool)])
def test_best_split_rejects_empty_rows(rows):
    d = Dataset(np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 0.0]]), np.array([0, 1, 1]))
    with pytest.raises(ValueError):
        best_split(d, rows)


@pytest.mark.parametrize("X,y", NEIGHBOUR_CASES)
def test_neighbouring_values_grow_the_cut_that_was_scored(X, y):
    # the midpoint of each pair rounds onto the larger value or overflows,
    # so the threshold is the smaller value
    d = Dataset(np.array(X), np.array(y))
    tree = grow_maximal(d)
    assert tree_to_text(tree) == f"node(1, {X[0][0]!r}, leaf(0), leaf(1))"
    assert empirical_risk(tree, d) == 0.0
    n1 = sum(y)  # one row labelled 0, left of the cut
    assert node_counts(tree, d) == _routed_counts(tree, d) == ([1, 1, 0], [n1, 0, n1])


_EDGE_CASES = [
    # S = 0: two cuts tie at |2s - S| = 2, the first (x1 at 1.5) wins
    ([[1.0, 4.0], [2.0, 3.0], [3.0, 2.0], [4.0, 1.0]], [0, 1, 1, 0], 1),
    ([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]], [1, 0, 0, 1], 1),
    # m = 2: one cut per variable, after position 0
    ([[1.0, 5.0], [2.0, 5.0]], [0, 1], 1),
    ([[1.0, 5.0], [1.0, 6.0]], [1, 0], 1),
    ([[1.0, 5.0], [1.0, 5.0]], [1, 0], 1),  # every cut inside a tie
    # every cut masked, by ties and min_node_size together; unmasked, a
    # cut after position 1 would leave no error
    ([[1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [3.0, 3.0]], [0, 0, 1, 1], 2),
    ([[1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [2.0, 2.0], [3.0, 3.0]], [0, 0, 1, 1, 1], 2),
    # only the last cut of a tie run is allowed
    ([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]], [1, 1, 0, 0], 1),
]


@pytest.mark.parametrize("X,y,min_node_size", _EDGE_CASES)
def test_best_split_edge_cases_match_reference(X, y, min_node_size):
    d = Dataset(np.array(X), np.array(y))
    rows = np.arange(d.n)
    expected = _reference_best_split(d, rows, min_node_size)
    assert best_split(d, rows, min_node_size) == expected
    assert best_split(d, rows, min_node_size, d.order) == expected


def test_best_split_edge_cases_hold_splits_and_no_splits():
    splits = [best_split(Dataset(np.array(X), np.array(y)), np.arange(len(y)), k)
              for X, y, k in _EDGE_CASES]
    assert [s is not None for s in splits] == [True, True, True, True, False,
                                               False, False, True]
    assert (splits[0].var, splits[0].threshold, splits[0].err_count) == (1, 1.5, 1)


def _routed_counts(tree, data):
    """node_counts on a twin of `data`, which the tree carries nothing for."""
    return node_counts(tree, Dataset(data.X, data.y))


@settings(max_examples=150, deadline=None)
@given(tied_datasets() | neighbour_datasets(), leaf_budgets, st.integers(1, 3))
def test_carried_counts_equal_routed_counts(data, max_leaves, min_node_size):
    tree = grow_maximal(data, GrowLimits(max_leaves=max_leaves, min_node_size=min_node_size))
    assert tree._counts is not None
    assert node_counts(tree, data) == _routed_counts(tree, data)


def _counting_router(monkeypatch):
    """Patch leaf_assignment to record the number of rows of each call."""
    calls = []
    route = TreeClassifier.leaf_assignment

    def spy(self, X):
        calls.append(len(X))
        return route(self, X)

    monkeypatch.setattr(TreeClassifier, "leaf_assignment", spy)
    return calls


def test_counts_are_served_only_for_the_training_dataset(monkeypatch):
    d = _rounded_columns(random_dataset(np.random.default_rng(3), 50, 3), [0])
    tree = grow_maximal(d)
    assert tree.n_leaves > 2
    expected = _routed_counts(tree, d)
    calls = _counting_router(monkeypatch)
    assert node_counts(tree, d) == expected
    assert calls == []
    # a returned list is a copy: changing it leaves the carried counts alone
    node_counts(tree, d)[0][0] += 1
    assert node_counts(tree, d) == expected
    assert calls == []
    # equal arrays, the whole dataset as a subset, and a proper subset are routed
    twin, whole, part = Dataset(d.X, d.y), d.subset(np.arange(d.n)), d.subset(np.arange(30))
    assert node_counts(tree, twin) == expected
    assert node_counts(tree, whole) == expected
    n0, n1 = node_counts(tree, part)
    assert n0[0] + n1[0] == 30
    assert calls == [d.n, d.n, 30]


def test_grown_tree_survives_pickle_and_copy_and_does_not_keep_its_dataset():
    d = random_dataset(np.random.default_rng(9), 40, 3)
    tree = grow_maximal(d)
    expected = _routed_counts(tree, d)
    for twin in (pickle.loads(pickle.dumps(tree)), copy.copy(tree), copy.deepcopy(tree)):
        assert twin == tree and hash(twin) == hash(tree) and repr(twin) == repr(tree)
        assert twin._counts is None  # the counts are not part of the tree's value
        assert node_counts(twin, d) == expected
    assert pickle.dumps(tree) == pickle.dumps(TreeClassifier(tree.nodes))
    alive = weakref.ref(d)
    del d
    gc.collect()
    assert alive() is None
    assert tree._counts[0]() is None
