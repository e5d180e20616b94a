import gc
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeselect import (ClassDescriptor, Dataset, GrowLimits, LinearPenalty,
                        MarginAdaptivePenalty, MinCombinedPenalty, NobelPenalty,
                        ResourceCapError, VCPenalty, brute_force_best_subtree, catalan,
                        class_count, empirical_risk, enumerate_classes, erm_in_class,
                        exhaustive_select, grow_maximal, penalty_value, select_tree,
                        shattering_count, tree_from_text, tree_to_text)
from treeselect import oracle, verify
from treeselect.oracle import CLASS_CAP, LEAF_SHAPE, enumerate_shapes, tree_from_class
from treeselect.designs import BLOCK_CELLS
from treeselect.tree import Internal, Leaf, TreeClassifier, leaf

from conftest import NEIGHBOUR_CASES, breadth_first, random_dataset, tied_datasets

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


def test_shape_enumeration_is_capped():
    # catalan(13) = 208012 shapes is above the class cap, and is refused
    # before any shape is listed
    assert len(enumerate_shapes(12)) == catalan(12) <= CLASS_CAP
    with pytest.raises(ResourceCapError, match="208012"):
        enumerate_shapes(13)


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


@pytest.mark.parametrize("k", [2.0, 2.5, True])
def test_counts_take_only_integers(k):
    for count in (catalan, enumerate_shapes):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k!r}$"):
            count(k)
    with pytest.raises(ValueError, match=f"^p must be an integer, got {k!r}$"):
        class_count(k, 2)


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
    hits = oracle._class_layout.cache_info().hits
    for _ in range(2):  # the failure is not memoized, so it is raised again
        with pytest.raises(ResourceCapError):
            enumerate_classes(10, 8)  # 10^7 * 429 classes
    assert oracle._class_layout.cache_info().hits == hits


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


@pytest.mark.parametrize("configuration,variables", [
    (LEAF_SHAPE, (1,)),
    ((LEAF_SHAPE, LEAF_SHAPE), ()),
    ((LEAF_SHAPE, LEAF_SHAPE), (1, 2)),
    (((LEAF_SHAPE, LEAF_SHAPE), LEAF_SHAPE), (1,)),
])
def test_class_variables_must_match_the_internal_node_count(configuration, variables):
    with pytest.raises(ValueError) as err:
        ClassDescriptor(configuration, variables)
    assert str(err.value) == "variable list length must equal internal-node count"


@pytest.mark.parametrize("configuration,variables", [
    (((), (), ()), (1, 1)),      # a ternary node, which would count as a stump
    ((1, 2), (1,)),              # int nodes
    ([(), ()], (1,)),            # a list node
    (((), [(), ()]), (1, 1)),    # a list node below a pair
])
def test_class_configuration_nodes_must_be_leaves_or_pairs(configuration, variables):
    with pytest.raises(ValueError, match="configuration node"):
        ClassDescriptor(configuration, variables)


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


def _class_fits(data, k_max):
    """erm_in_class of every class of size at most k_max, as (desc, tree,
    risk) in the order exhaustive_select searches them."""
    return [(desc, *erm_in_class(desc, data))
            for k in range(1, k_max + 1) for desc in enumerate_classes(data.p, k)]


def _reference_select(fits, data, spec, k_max):
    """The unbounded per-class loop exhaustive_select replaced: every class
    of size at most k_max is scored, and the first minimum is kept."""
    best = best_cost = None
    for desc, tree, risk in fits:
        if desc.size > k_max:
            break
        cost = float(risk) + penalty_value(spec, desc.size, data.n, data.p)
        if best_cost is None or cost < best_cost:
            best, best_cost = tree, cost
    return best, best_cost


def test_exhaustive_shares_each_variables_candidates(monkeypatch):
    rng = np.random.default_rng(41)
    d = Dataset(rng.normal(size=(9, 3)).round(1), rng.integers(0, 2, size=9))
    spec = LinearPenalty(0.05)
    ref_tree, ref_cost = _reference_select(_class_fits(d, 3), d, spec, 3)
    sort = np.sort
    calls = []
    monkeypatch.setattr(np, "sort", lambda a: calls.append(1) or sort(a))
    tree, cost = exhaustive_select(d, spec, k_max=3)
    assert (tree_to_text(tree), cost) == (tree_to_text(ref_tree), ref_cost)
    assert len(calls) == d.p  # once per variable, not once per class


def _unique_candidates(column):
    """The candidates as computed through np.unique, before the oracle
    sorted them itself."""
    vals = np.unique(column)
    lo, hi = vals[:-1], vals[1:]
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    return np.concatenate(([-math.inf], np.where((lo <= mid) & (mid < hi), mid, lo),
                           [math.inf]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 5e-324, 1.0]), min_size=1, max_size=40))
def test_candidates_match_np_unique(column):
    # tied signed zeros must keep the sign np.unique keeps, because a
    # candidate can be the lower value itself; no NaN is drawn, because
    # Dataset and feature_matrix reject one before the oracle sees a sample
    for x in (np.array(column), np.array(column[::-1])):
        assert oracle._cuts(x).tobytes() == _unique_candidates(x).tobytes()


class _DipPenalty:
    """A penalty that is not monotone in k: a skipped size 2, then a free size 3."""

    def value(self, k, n, p):
        return (0.1, 5.0, 0.0)[k - 1]


@settings(max_examples=60, deadline=None)
@given(tied_datasets())
def test_size_bound_matches_the_unbounded_search(drawn):
    # labelled by the sign of x1 the data is separable at size 2, so a size
    # whose penalty is just below the incumbent's cost can still win
    for data in (drawn, Dataset(drawn.X, (drawn.X[:, 0] > 0).astype(int))):
        _check_size_bound(data)


def _check_size_bound(data):
    fits = _class_fits(data, 3)
    r1 = float(fits[0][2])  # the one-leaf risk
    r2 = min(float(risk) for desc, _, risk in fits if desc.size == 2)
    # at alpha = r1 the size-2 penalty equals the one-leaf cost exactly, and
    # at alpha = r2 the size-3 penalty equals the best size-2 cost
    assert penalty_value(LinearPenalty(r1), 2, data.n, data.p) == r1 + r1
    # (1 - 1e-12) * r1 is a hair below the boundary: no slack may skip it
    specs = [LinearPenalty(a) for a in (0.0, r2 / 2, r2, r1 / 2, 0.99 * r1,
                                        (1 - 1e-12) * r1, r1, 1.01 * r1, 2 * r1, 1.0)]
    specs += [MarginAdaptivePenalty(kappa=1), MarginAdaptivePenalty(kappa=2),
              MarginAdaptivePenalty(kappa=1, c1=0.02, c2=0.02),
              MarginAdaptivePenalty(kappa=2, c1=0.02, c2=0.02),
              VCPenalty(), VCPenalty(c1=0.02, c2=0.02), MinCombinedPenalty(),
              NobelPenalty(), NobelPenalty(c1=0.02), _DipPenalty()]
    for spec in specs:
        for k_max in (1, 2, 3):
            tree, cost = exhaustive_select(data, spec, k_max)
            ref_tree, ref_cost = _reference_select(fits, data, spec, k_max)
            assert (tree_to_text(tree), cost) == (tree_to_text(ref_tree), ref_cost)


BLOCK_SPECS = [LinearPenalty(0.0), LinearPenalty(0.02), LinearPenalty(0.1),
               MarginAdaptivePenalty(kappa=1, c1=0.02, c2=0.02), VCPenalty(c1=0.02, c2=0.02),
               _DipPenalty()]


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_block_search_matches_the_per_class_search(p, data):
    # the classes of each shape are searched in one block, against one
    # erm_in_class call per class
    d = data.draw(tied_datasets(p=p))
    fits = _class_fits(d, 3)
    for spec in BLOCK_SPECS:
        for k_max in (2, 3):
            tree, cost = exhaustive_select(d, spec, k_max)
            ref_tree, ref_cost = _reference_select(fits, d, spec, k_max)
            assert (tree_to_text(tree), cost) == (tree_to_text(ref_tree), ref_cost)


@pytest.mark.parametrize("p", [2, 3])
def test_classes_of_one_shape_that_tie_go_to_the_first(p):
    # equal columns: the classes of a shape differ only in their variables,
    # so all tie, and the first variable list, all 1s, must win
    x = np.arange(6.0)
    for labels, size in (([0, 0, 0, 1, 1, 1], 2), ([0, 0, 1, 1, 0, 0], 3)):
        d = Dataset(np.column_stack([x] * p), np.array(labels))
        fits = _class_fits(d, 3)
        for shape in enumerate_shapes(size):
            assert len({risk for desc, _, risk in fits if desc.configuration == shape}) == 1
        tree, cost = exhaustive_select(d, LinearPenalty(0.01), k_max=3)
        ref_tree, ref_cost = _reference_select(fits, d, LinearPenalty(0.01), 3)
        assert (tree_to_text(tree), cost) == (tree_to_text(ref_tree), ref_cost)
        assert tree.n_leaves == size
        assert {nd.var for nd in tree.nodes if isinstance(nd, Internal)} == {1}


@pytest.mark.parametrize("rows_per_block", [1, 3, 7])
def test_block_search_across_block_boundaries(monkeypatch, rows_per_block):
    # rounded features tie often, so a class's first minimum may sit in any
    # block; with a few assignments per block, classes span several blocks
    # and blocks span several classes
    rng = np.random.default_rng(29)
    cases = []
    for n in (5, 8, 11):
        X, y = rng.normal(size=(n, 3)).round(0), rng.integers(0, 2, size=n)
        # a row repeated with the other label: no class reaches risk 0, so
        # a zero penalty searches every size
        cases.append(Dataset(np.vstack([X, X[:1]]), np.append(y, 1 - y[0])))
    wanted = [(_class_fits(d, 3), [_reference_erm(desc, d) for desc in
                                   (c for k in range(1, 4) for c in enumerate_classes(3, k))])
              for d in cases]
    routes = _counting(monkeypatch, "_route")
    for d, (fits, erms) in zip(cases, wanted):
        monkeypatch.setattr(oracle, "BLOCK_CELLS", rows_per_block * d.n)
        for (desc, _, _), (ref_tree, ref_risk) in zip(fits, erms):
            tree, risk = erm_in_class(desc, d)
            assert (tree_to_text(tree), risk) == (tree_to_text(ref_tree), ref_risk)
        for spec in BLOCK_SPECS:
            tree, cost = exhaustive_select(d, spec, k_max=3)
            ref_tree, ref_cost = _reference_select(fits, d, spec, 3)
            assert (tree_to_text(tree), cost) == (tree_to_text(ref_tree), ref_cost)
        # a zero penalty searches every size, here in more blocks than
        # there are routed classes, so some class spans several blocks
        routes.clear()
        exhaustive_select(d, LinearPenalty(0.0), k_max=3)
        assert len(routes) > sum(desc.size > 1 for desc, _, _ in fits)


def test_exhaustive_searches_only_sizes_its_penalty_has_not_lost(monkeypatch):
    d = Dataset(np.column_stack([[1.0, 2.0, 3.0], np.zeros(3)]), np.array([0, 1, 1]))
    searched, built = [], []
    erm, build = oracle._erm_in_class, oracle.tree_from_class
    # the classes of each searched shape, as the block search is given them
    monkeypatch.setattr(oracle, "_erm_in_class", lambda shape, variables, *args: searched.extend(
        ClassDescriptor(shape, tuple(v)) for v in variables.tolist()) or erm(shape, variables, *args))
    monkeypatch.setattr(oracle, "tree_from_class",
                        lambda *args: built.append(1) or build(*args))
    for calls in (1, 2):
        # the one-leaf cost 1/3 + 0.9 is below the size-2 penalty 1.8
        tree, cost = exhaustive_select(d, LinearPenalty(0.9), k_max=3)
        assert tree == leaf(1) and cost == 1 / 3 + 0.9
        assert searched == [SINGLE] * calls
        assert len(built) == calls  # only the winner is built


def test_a_skipped_size_is_never_enumerated():
    # 230 columns: the 230^2 * 2 classes of size 3 exceed the class cap
    rng = np.random.default_rng(7)
    assert class_count(230, 3) > CLASS_CAP
    d = Dataset(rng.normal(size=(6, 230)), rng.integers(0, 2, size=6))
    tree, _ = exhaustive_select(d, LinearPenalty(1.0), k_max=3)
    assert tree.n_leaves == 1
    # three points, each once with either label: every class has risk 1/2,
    # so size 3 is not skipped and its enumeration hits the cap
    tied = Dataset(np.repeat(rng.normal(size=(3, 230)), 2, axis=0), np.tile([0, 1], 3))
    with pytest.raises(ResourceCapError, match="105800"):
        exhaustive_select(tied, LinearPenalty(0.01), k_max=3)


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


@pytest.mark.parametrize("sample,match", [
    (np.zeros((0, 2)), "at least one observation"),
    ([[np.nan, 0.0], [1.0, 0.0]], "finite"),
    ([[1.0, 0.0], [-np.inf, 0.0]], "finite"),
    ([["1", "0"], ["2", "0"]], "real numbers"),
    (np.array([[1j, 0], [1, 0]]), "real numbers"),
    ([1.0, 2.0], "2-D"),
])
def test_shattering_count_checks_the_sample_as_a_dataset_does(sample, match):
    with pytest.raises(ValueError, match=match):
        shattering_count(STUMP, sample)
    with pytest.raises(ValueError, match=match):
        Dataset(sample, np.zeros(len(sample)))


def test_shattering_count_accepts_a_sample_whose_sum_overflows():
    assert shattering_count(STUMP, np.full((3, 2), 1e308)) == 2
    assert shattering_count(STUMP, [[True, False], [False, False]]) == 4


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([c for k in range(1, 4) for c in enumerate_classes(2, k)]),
       st.lists(st.lists(st.integers(-2, 2).map(float), min_size=2, max_size=2),
                min_size=1, max_size=5))
def test_shattering_count_matches_a_count_over_every_member(desc, rows):
    # x > t splits the sample as the candidate between t and the next larger
    # value does, so -inf and the sample's own values give every partition
    # that the candidates give, and no other
    X = np.array(rows)
    cuts = [[-math.inf, *sorted(set(X[:, v - 1].tolist()))] for v in desc.variables]
    seen = {tree_from_class(desc, thresholds, labels).predict_batch(X).tobytes()
            for thresholds in itertools.product(*cuts)
            for labels in itertools.product((0, 1), repeat=desc.size)}
    assert shattering_count(desc, X) == len(seen)


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
    # the width is checked before any row is walked or a table memoized,
    # so a second call raises as well
    monkeypatch.setattr(oracle, "_leaf_counts", None)
    monkeypatch.setattr(oracle, "_table", None)
    for _ in range(2):
        with pytest.raises(ValueError, match="too narrow"):
            brute_force_best_subtree(tree, d, lambda k: Fraction(0))
        assert oracle._table is None


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
    counts = oracle._leaf_counts(tree, data)
    labels = [int(n1 > n0) for n0, n1 in counts]
    prunings = oracle._prunings(tree, [min(c) for c in counts])
    for pattern, errors, leaves in prunings:
        sub = oracle._materialize(tree, pattern, labels)
        assert errors == int(np.sum(sub.predict_batch(data.X) != data.y))
        assert leaves == sub.n_leaves


def _reference_brute_force(tree, data, pen):
    """The per-pruning scan: each node's rows routed by index, a score for
    every pruning in _prunings order, ties to the smaller tree and then to
    the first pruning, and the winner built by routing the rows again."""
    rows_at = [np.arange(data.n)] + [None] * (len(tree.nodes) - 1)
    errors = []
    for idx, nd in enumerate(tree.nodes):
        rows = rows_at[idx]
        n1 = int(data.y[rows].sum())
        errors.append(min(rows.size - n1, n1))
        if isinstance(nd, Internal):
            right = data.X[rows, nd.var - 1] > nd.threshold
            rows_at[nd.left], rows_at[nd.right] = rows[~right], rows[right]
    best = None
    for pattern, err, leaves in oracle._prunings(tree, errors):
        key = (Fraction(err, data.n) + pen(leaves), leaves)
        if best is None or key < best[0]:
            best = (key, pattern)
    nodes: list = []
    stack = [(0, best[1], np.arange(data.n), None, 0)]
    while stack:
        idx, pat, rows, parent, slot = stack.pop()
        if parent is not None:
            nodes[parent][slot] = len(nodes)
        if pat is None:
            n1 = int(data.y[rows].sum())
            nodes.append(Leaf(0 if rows.size - n1 >= n1 else 1))
        else:
            nd = tree.nodes[idx]
            right = data.X[rows, nd.var - 1] > nd.threshold
            stack.append((nd.right, pat[1], rows[right], len(nodes), 3))
            stack.append((nd.left, pat[0], rows[~right], len(nodes), 2))
            nodes.append([nd.var, nd.threshold, None, None])
    return (TreeClassifier(tuple(nd if isinstance(nd, Leaf) else Internal(*nd)
                                 for nd in nodes)), best[0][0])


@st.composite
def grown_trees(draw):
    """A tree grown to at most 10 leaves on 10-40 rows, with features
    rounded to one decimal half of the time so that ties are common."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = random_dataset(rng, draw(st.integers(10, 40)), draw(st.integers(2, 5)))
    if draw(st.booleans()):
        data = Dataset(np.round(data.X, 1), data.y)
    return grow_maximal(data, GrowLimits(max_leaves=10)), data


BRUTE_FORCE_PENALTIES = [
    lambda k: Fraction(0),
    lambda k: Fraction(k, 40),
    lambda k: Fraction(3 * k, 20),
    lambda k: 0.0 * k,
    lambda k: 0.03 * k,
    lambda k: 0.1 * k,
    lambda k: 0.2 * math.sqrt(k),
    lambda k: (k - 3) ** 2 / 50,  # not monotone in k
    # at 1e17 every risk rounds away, so different error counts tie in
    # float: the first at size 1, the second at size 3
    lambda k: 1e17 * k,
    lambda k: 1e17 * (1 + abs(k - 3)),
    # a Fraction at odd sizes and a float at even ones: every cost is added
    # as a scan would add it, so each keeps its own type
    lambda k: Fraction(k, 30) if k % 2 else 0.04 * k,
    lambda k: np.float64(0.05) * k,  # costs stay np.float64, repr and all
    lambda k: abs(k - 3) // 2,  # plain ints, tied at sizes 2 to 4
]


@settings(max_examples=150, deadline=None)
@given(trees_on_tied_data() | grown_trees())
def test_brute_force_matches_the_per_pruning_scan(case):
    tree, data = case
    # the second pass, in reverse, scores the memoized table and reuses its
    # winners with each penalty coming after the others
    for pen in BRUTE_FORCE_PENALTIES + BRUTE_FORCE_PENALTIES[::-1]:
        got, cost = brute_force_best_subtree(tree, data, pen)
        want, want_cost = _reference_brute_force(tree, data, pen)
        assert tree_to_text(got) == tree_to_text(want)
        assert cost == want_cost and repr(cost) == repr(want_cost)


@settings(max_examples=100, deadline=None)
@given(trees_on_tied_data() | grown_trees(), st.integers(1, 3), st.integers(0, 8), st.data())
def test_every_oracle_tree_is_laid_out_breadth_first(case, k, weight, pick):
    tree, data = case
    desc = pick.draw(st.sampled_from(enumerate_classes(data.p, k)))
    trees = [erm_in_class(desc, data)[0],
             exhaustive_select(data, LinearPenalty(weight / 40), k)[0],
             brute_force_best_subtree(tree, data, lambda leaves: Fraction(weight * leaves, 40))[0]]
    for got in trees:
        assert got.nodes == breadth_first(got).nodes


@settings(max_examples=100, deadline=None)
@given(trees_on_tied_data() | grown_trees())
def test_the_table_keeps_the_fewest_errors_per_leaf_count(case):
    tree, data = case
    counts = oracle._leaf_counts(tree, data)
    prunings = oracle._prunings(tree, [min(c) for c in counts])
    seen = list(dict.fromkeys(leaves for _, _, leaves in prunings))  # first-seen order
    pairs, fewest, _, _ = oracle._pruning_table(tree, data)
    assert list(fewest) == seen  # one entry per distinct leaf count
    for leaves, (err, i) in fewest.items():
        assert err == min(e for _, e, size in prunings if size == leaves)
        first = next(pattern for pattern, e, size in prunings if (e, size) == (err, leaves))
        assert pairs[i] == (Fraction(err, data.n), leaves, first)
    # pen is called once per leaf count, in first-seen order, whichever
    # path scores its values
    for value in (lambda k: Fraction(k, 7), lambda k: k / 7):
        called = []
        brute_force_best_subtree(tree, data, lambda k: called.append(k) or value(k))
        assert called == seen


def _counting(monkeypatch, name):
    """Replace oracle.<name> with a wrapper that counts its calls."""
    calls, wrapped = [], getattr(oracle, name)
    monkeypatch.setattr(oracle, name, lambda *args: calls.append(1) or wrapped(*args))
    return calls


def test_brute_force_walks_once_and_prices_each_size_once(monkeypatch):
    data = random_dataset(np.random.default_rng(3), 30, 3)
    tree = grow_maximal(data, GrowLimits(max_leaves=8))
    walks, built = _counting(monkeypatch, "_leaf_counts"), _counting(monkeypatch, "TreeClassifier")
    sizes = []

    def pen(k):
        sizes.append(k)
        return Fraction(k, 60)

    got, cost = brute_force_best_subtree(tree, data, pen)
    assert (len(walks), len(built)) == (1, 1)
    assert sorted(sizes) == list(range(1, tree.n_leaves + 1))
    assert cost == Fraction(int(np.sum(got.predict_batch(data.X) != data.y)), data.n) \
        + Fraction(got.n_leaves, 60)


def test_brute_force_builds_one_table_per_tree_and_dataset(monkeypatch):
    data = random_dataset(np.random.default_rng(3), 30, 3)
    tree = grow_maximal(data, GrowLimits(max_leaves=8))
    twin_data, twin_tree = Dataset(data.X, data.y), TreeClassifier(tree.nodes)
    pens = [lambda k, a=Fraction(a, 120): a * k for a in range(0, 40, 4)]
    wanted = [_reference_brute_force(tree, data, pen) for pen in pens]
    walks, lists = _counting(monkeypatch, "_leaf_counts"), _counting(monkeypatch, "_prunings")
    built = _counting(monkeypatch, "TreeClassifier")
    for pen, (want, want_cost) in zip(pens, wanted):
        got, cost = brute_force_best_subtree(tree, data, pen)
        assert (tree_to_text(got), cost) == (tree_to_text(want), want_cost)
    assert (len(walks), len(lists)) == (1, 1)
    # one build per distinct winner
    assert len(built) == len({tree_to_text(want) for want, _ in wanted}) > 1
    # equal arrays or an equal tree in another object are not the same key
    for other_tree, other_data, calls in ((tree, twin_data, 2), (twin_tree, data, 3)):
        for pen in pens[:2]:
            brute_force_best_subtree(other_tree, other_data, pen)
        assert (len(walks), len(lists)) == (calls, calls)


def test_alternating_tables_give_the_fresh_results(monkeypatch):
    rng = np.random.default_rng(9)
    datas = [random_dataset(rng, n, 2) for n in (20, 35)]
    cases = [(grow_maximal(d, GrowLimits(max_leaves=8)), d) for d in datas]
    fresh = {}
    for c, (tree, data) in enumerate(cases):
        for j, pen in enumerate(BRUTE_FORCE_PENALTIES):
            monkeypatch.setattr(oracle, "_table", None)
            got, cost = brute_force_best_subtree(tree, data, pen)
            fresh[c, j] = tree_to_text(got), repr(cost)
    for j, pen in enumerate(BRUTE_FORCE_PENALTIES):
        for c, (tree, data) in enumerate(cases):
            got, cost = brute_force_best_subtree(tree, data, pen)
            assert (tree_to_text(got), repr(cost)) == fresh[c, j]


def test_the_table_keeps_neither_tree_nor_data_alive():
    data = random_dataset(np.random.default_rng(4), 25, 2)
    tree = grow_maximal(data, GrowLimits(max_leaves=6))
    brute_force_best_subtree(tree, data, lambda k: Fraction(k, 25))
    refs = weakref.ref(tree), weakref.ref(data)
    del tree, data
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_verify_walks_each_pruning_instance_once(monkeypatch):
    # 50 alphas for each of 200 trees: one table per tree, not per alpha
    walks = _counting(monkeypatch, "_leaf_counts")
    assert verify.check_pruning_oracle() == (
        True, "weakest link matches brute force in 10000 exact comparisons")
    assert len(walks) == 200


def test_brute_force_cap(monkeypatch, line_dataset):
    text = "leaf(0)"
    for _ in range(5):
        text = f"node(1, 2.5, {text}, {text})"
    tree = tree_from_text(text)  # complete depth 5: 1 + 677^2 = 458,330 prunings
    # the cap must be checked before any row is walked, any pruning is
    # listed or a table memoized, so a second call raises as well
    monkeypatch.setattr(oracle, "_leaf_counts", None)
    monkeypatch.setattr(oracle, "_prunings", None)
    monkeypatch.setattr(oracle, "_table", None)
    data = line_dataset([0, 1, 1, 0])
    for _ in range(2):
        with pytest.raises(ResourceCapError, match="458330"):
            brute_force_best_subtree(tree, data, lambda k: Fraction(0))
        assert oracle._table is None


def test_assignment_caps(monkeypatch):
    # three splits on x1 over 60 distinct values: 61^3 threshold assignments
    desc = ClassDescriptor(enumerate_shapes(4)[0], (1, 1, 1))
    d = Dataset(np.column_stack([np.arange(60.0), np.zeros(60)]), np.arange(60) % 2)
    # the caps must be checked before any comparison matrix is built or
    # any assignment routed
    monkeypatch.setattr(oracle, "_route", None)
    monkeypatch.setattr(oracle, "_stack", None)
    with pytest.raises(ResourceCapError, match="226981"):
        erm_in_class(desc, d)
    with pytest.raises(ResourceCapError, match="476656"):  # 31^3 * 2^4 classifiers
        shattering_count(desc, d.X[:30])
