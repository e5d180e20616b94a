import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeselect import (CVConfig, Dataset, DesignSpec, GeyPenalty, GrowLimits,
                        LinearPenalty, MarginAdaptivePenalty, MinCombinedPenalty,
                        NobelPenalty, VCPenalty, cv_select_alpha, generate,
                        loss_estimate, penalty_value, select_tree)
from treeselect import prune
from treeselect.penalties import _candidate_alphas, _picks
from treeselect.prune import best_in_sequence, weakest_link
from treeselect.grow import grow_maximal
from treeselect.tree import TreeClassifier, leaf

from conftest import random_dataset

ALL_VARIANTS = [
    LinearPenalty(0.05),
    MarginAdaptivePenalty(kappa=1.0),
    MarginAdaptivePenalty(kappa=2.0),
    VCPenalty(),
    MinCombinedPenalty(),
    NobelPenalty(),
    GeyPenalty(),
]


def test_linear_value():
    assert penalty_value(LinearPenalty(0.01), 5, 100, 10) == pytest.approx(0.05)


def test_margin_kappa1_value():
    val = penalty_value(MarginAdaptivePenalty(1.0, 1.0, 1.0), 4, 100, 10)
    assert val == pytest.approx(4 * (math.log(200) + math.log(10)) / 100)
    assert val == pytest.approx(0.30404, abs=1e-5)


def test_margin_kappa2_value():
    val = penalty_value(MarginAdaptivePenalty(2.0, 1.0, 1.0), 2, 64, 4)
    expect = (2 * math.log(128) / 64) ** (2 / 3) + (2 * math.log(4) / 64) ** (2 / 3)
    assert val == pytest.approx(expect)
    assert val == pytest.approx(0.4076, abs=1e-3)


@pytest.mark.parametrize("spec", ALL_VARIANTS)
def test_increasing_in_k(spec):
    for n, p in [(50, 10), (200, 100)]:
        vals = [penalty_value(spec, k, n, p) for k in range(1, 30)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("spec", ALL_VARIANTS)
def test_nondecreasing_in_p(spec):
    for k, n in [(3, 100), (8, 50)]:
        vals = [penalty_value(spec, k, n, p) for p in (2, 5, 10, 100, 1000)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("kappa", [1.0, 1.5, 2.0, 5.0])
def test_margin_decreasing_in_n(kappa):
    spec = MarginAdaptivePenalty(kappa)
    for k in (1, 4, 9):
        vals = [penalty_value(spec, k, n, 10) for n in (10, 50, 250, 1000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 500), st.integers(2, 500), st.integers(2, 2000),
       st.floats(0.1, 5.0), st.floats(0.1, 5.0))
def test_kappa1_collapses_to_linear(k, n, p, c1, c2):
    ma = penalty_value(MarginAdaptivePenalty(1.0, c1, c2), k, n, p)
    alpha = (c1 * math.log(2 * n) + c2 * math.log(p)) / n
    lin = penalty_value(LinearPenalty(alpha), k, n, p)
    assert abs(ma - lin) <= 4 * math.ulp(max(ma, lin))


def test_margin_crosses_above_vc():
    # for fixed (n, p) the kappa=1 form eventually exceeds the VC form
    for n, p in [(100, 10), (1000, 50)]:
        ma = MarginAdaptivePenalty(1.0)
        vc = VCPenalty()
        crossed_at = None
        for k in range(1, n + 1):
            if penalty_value(ma, k, n, p) > penalty_value(vc, k, n, p):
                crossed_at = k
                break
        assert crossed_at is not None
        for k in range(crossed_at, n + 1):
            assert penalty_value(ma, k, n, p) > penalty_value(vc, k, n, p)


def test_min_combined_is_min():
    spec = MinCombinedPenalty(MarginAdaptivePenalty(1.0), VCPenalty())
    for k in (1, 5, 20):
        v = penalty_value(spec, k, 100, 10)
        assert v == min(penalty_value(spec.margin, k, 100, 10),
                        penalty_value(spec.vc, k, 100, 10))


def test_penalty_argument_validation():
    with pytest.raises(ValueError):
        penalty_value(LinearPenalty(0.1), 0, 10, 5)
    with pytest.raises(ValueError):
        MarginAdaptivePenalty(kappa=0.5)
    with pytest.raises(ValueError):
        LinearPenalty(-1.0)


def test_select_zero_penalty_gives_maximal():
    d = random_dataset(np.random.default_rng(3), 20, 2)
    tmax = grow_maximal(d)
    tree, _ = select_tree(d, LinearPenalty(0.0))
    assert tree.n_leaves == tmax.n_leaves


def test_select_huge_penalty_gives_leaf():
    d = random_dataset(np.random.default_rng(3), 20, 2)
    tree, _ = select_tree(d, LinearPenalty(1.0))
    assert tree.n_leaves == 1


def test_select_cost_is_sequence_minimum():
    d = random_dataset(np.random.default_rng(9), 18, 2)
    spec = MarginAdaptivePenalty(1.0)
    tree, cost = select_tree(d, spec)
    seq = weakest_link(grow_maximal(d), d)
    for t, e in zip(seq.subtrees, seq.error_counts):
        assert cost <= e / seq.n + penalty_value(spec, t.n_leaves, d.n, d.p) + 1e-12


def test_select_builds_only_the_returned_element(monkeypatch):
    built = []
    preorder_tree = prune.preorder_tree

    def counting(*args):
        built.append(args)
        return preorder_tree(*args)

    monkeypatch.setattr(prune, "preorder_tree", counting)
    d = random_dataset(np.random.default_rng(9), 18, 2)
    tree, _ = select_tree(d, MarginAdaptivePenalty(1.0))
    assert len(built) == 1
    assert len(weakest_link(grow_maximal(d), d).alphas) > 1  # others were skipped


@pytest.mark.slow
def test_select_quality_design1():
    # The optimal rule is a 3-leaf tree.  Error-count impurity is known to
    # stall on this design (the first axis cut leaves the expected error
    # unchanged), so recovery relies on sampling fluctuations and does not
    # approach certainty as n grows.  We therefore assert that selection
    # beats the trivial root classifier on average and recovers a
    # near-optimal tree a substantial fraction of the time.
    losses = []
    for seed in range(100):
        spec = DesignSpec(1, 200, 5, 0.1, seed=seed)
        data = generate(spec)
        tree, _ = select_tree(data, MarginAdaptivePenalty(1.0, 1.0, 1.0))
        _, loss = loss_estimate(tree, spec, 10 ** 4, seed=10_000 + seed)
        losses.append(loss)
    root_loss = 0.25 * (1.0 - 2.0 * 0.1)  # excess risk of always predicting 1
    assert sorted(losses)[50] <= 0.6 * root_loss
    assert sum(l <= 0.05 for l in losses) >= 25


@pytest.mark.parametrize("c", [0, 1])
def test_cv_degenerate_single_class(c):
    d = Dataset(np.arange(20.0).reshape(10, 2), np.full(10, c))
    alpha, tree = cv_select_alpha(d, CVConfig(folds=5))
    assert alpha == 0.0
    assert tree == leaf(c)


def test_cv_contract():
    d = random_dataset(np.random.default_rng(77), 40, 3)
    seq = weakest_link(grow_maximal(d), d)
    cands = _candidate_alphas(seq)
    alpha, tree = cv_select_alpha(d, CVConfig(folds=5, seed=2))
    assert alpha in cands
    idx, _ = best_in_sequence(seq, lambda k: alpha * k)
    assert tree.n_leaves == seq.sizes[idx]


def test_cv_routes_each_row_once_while_held_out(monkeypatch):
    # the grown trees carry their training counts, so pruning routes
    # nothing; only scoring a held-out fold does
    d = random_dataset(np.random.default_rng(77), 60, 3)
    assert len(weakest_link(grow_maximal(d), d).alphas) > 1  # the folds run
    routed = []
    route = TreeClassifier.leaf_assignment

    def spy(self, X):
        routed.append(len(X))
        return route(self, X)

    monkeypatch.setattr(TreeClassifier, "leaf_assignment", spy)
    cv_select_alpha(d, CVConfig(folds=7, seed=3))
    assert sum(routed) == d.n
    assert sorted(routed) == sorted(f.size for f in np.array_split(np.arange(d.n), 7))


def test_cv_candidate_grid():
    d = random_dataset(np.random.default_rng(42), 30, 2)
    seq = weakest_link(grow_maximal(d), d)
    cands = _candidate_alphas(seq)
    assert cands[0] == 0.0
    assert len(cands) == len(seq.alphas)
    assert cands[-1] > float(seq.alphas[-1])
    for a, b in zip(cands, cands[1:]):
        assert a < b


@st.composite
def dyadic_sequences(draw):
    """A pruned sequence on tied features, and float alphas: its
    candidates, its critical alphas and dyadic ones.  When n is a power of
    2, a dyadic alpha at which two elements cost the same in rationals
    makes them cost the same in floats too; other n round."""
    n = draw(st.integers(1, 5).map(lambda j: 2 ** j) | st.integers(2, 40))
    rows = st.lists(st.integers(-2, 2).map(float), min_size=2, max_size=2)
    X = np.array(draw(st.lists(rows, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    d = Dataset(X, y)
    seq = weakest_link(grow_maximal(d), d)
    dyadic = st.integers(0, 64).map(lambda j: j / 64)
    alphas = (_candidate_alphas(seq) + [float(a) for a in seq.alphas]
              + draw(st.lists(dyadic, max_size=8)))
    return seq, alphas


@settings(max_examples=200, deadline=None)
@given(dyadic_sequences())
def test_picks_match_best_in_sequence(case):
    seq, alphas = case
    picks = _picks(seq, np.array(alphas))
    assert picks.tolist() == [best_in_sequence(seq, lambda k: a * k)[0] for a in alphas]


def test_picks_break_an_exact_tie_toward_the_smaller_tree():
    d = Dataset(np.column_stack([np.arange(1.0, 5.0), np.zeros(4)]), np.array([0, 1, 1, 0]))
    seq = weakest_link(grow_maximal(d), d)
    assert seq.sizes == (3, 1) and seq.error_counts == (0, 2)
    # at alpha = 1/4 both elements cost 3/4 exactly
    assert _picks(seq, np.array([0.0, 0.25, 0.3])).tolist() == [0, 1, 1]


def test_cv_folds_validation():
    d = random_dataset(np.random.default_rng(1), 5, 2)
    with pytest.raises(ValueError):
        cv_select_alpha(d, CVConfig(folds=10))
    with pytest.raises(ValueError):
        CVConfig(folds=1)
    with pytest.raises(ValueError):
        CVConfig(rule="best")


@pytest.mark.parametrize("kwargs", [dict(folds=2.5), dict(folds=10.0), dict(seed=0.5)])
def test_cv_config_rejects_non_integers(kwargs):
    with pytest.raises(ValueError, match="integer"):
        CVConfig(**kwargs)


def test_cv_one_se_rule_picks_larger_alpha():
    d = random_dataset(np.random.default_rng(5), 60, 3)
    a_min, _ = cv_select_alpha(d, CVConfig(folds=5, rule="min", seed=0))
    a_1se, _ = cv_select_alpha(d, CVConfig(folds=5, rule="1se", seed=0))
    assert a_1se >= a_min


@pytest.mark.slow
def test_cv_alpha_decreases_with_n():
    # mean tuned alpha at n=200 below mean at n=50
    means = {}
    for n in (50, 200):
        vals = []
        for seed in range(50):
            spec = DesignSpec(1, n, 30, 0.1, seed=seed)
            data = generate(spec)
            alpha, _ = cv_select_alpha(data, CVConfig(seed=5000 + seed))
            vals.append(alpha)
        means[n] = float(np.mean(vals))
    assert means[200] < means[50]
