import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeselect import (CVConfig, CVCurve, Dataset, DesignSpec, GeyPenalty, GrowLimits,
                        LinearPenalty, MarginAdaptivePenalty, MinCombinedPenalty,
                        NobelPenalty, VCPenalty, cv_curve, cv_select_alpha, generate,
                        loss_estimate, penalty_value, select_tree)
from treeselect import prune
from treeselect.penalties import _candidate_alphas, _picks
from treeselect.prune import best_in_sequence, weakest_link
from treeselect.grow import grow_maximal
from treeselect.tree import (Leaf, TreeClassifier, leaf, node_counts, tree_from_text,
                             tree_to_text)

from conftest import leaf_budgets, neighbour_datasets, random_dataset, tied_datasets

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
    # a leaf count, sample size and dimension are integers of at least 1, 1 and 2
    for k, n, p in ((0, 10, 5), (2.5, 10, 5), (True, 10, 5), (1, 10.5, 5), (1, 10, 1)):
        with pytest.raises(ValueError):
            penalty_value(LinearPenalty(0.1), k, n, p)
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
    # one check, so CVCurve.pick rejects a rule with CVConfig's message
    for reject in (lambda: CVConfig(rule="best"),
                   lambda: cv_curve(d, CVConfig(folds=2)).pick("best")):
        with pytest.raises(ValueError, match="^rule must be 'min' or '1se'$"):
            reject()


@pytest.mark.parametrize("kwargs", [dict(folds=2.5), dict(folds=10.0), dict(seed=0.5)])
def test_cv_config_rejects_non_integers(kwargs):
    with pytest.raises(ValueError, match="integer"):
        CVConfig(**kwargs)


def test_cv_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        CVConfig(seed=-1)
    assert CVConfig(seed=0).seed == 0


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


def _reference_cv_select_alpha(data, cfg):
    """cv_select_alpha as it was with a one-candidate early return and a
    branch per rule: the reference the one-path driver must reproduce."""
    if cfg.folds > data.n:
        raise ValueError("more folds than observations")
    full_seq = weakest_link(grow_maximal(data), data)
    cands = _candidate_alphas(full_seq)
    if len(cands) == 1:
        return 0.0, full_seq.subtree(0)
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(data.n)
    folds = np.array_split(perm, cfg.folds)
    fold_err = np.zeros((cfg.folds, len(cands)), dtype=np.float64)
    fold_sizes = np.array([f.size for f in folds], dtype=np.float64)
    alphas = np.array(cands)
    for f, held in enumerate(folds):
        keep = np.ones(data.n, dtype=bool)
        keep[held] = False
        train = data.subset(np.flatnonzero(keep))
        seq = weakest_link(grow_maximal(train), train)
        errors = np.array(seq.errors_on(data.subset(held)))
        fold_err[f] = errors[_picks(seq, alphas)]
    mean_risk = fold_err.sum(axis=0) / data.n
    best = float(mean_risk.min())
    if cfg.rule == "min":
        winners = np.flatnonzero(mean_risk == best)
    else:
        at_min = int(np.flatnonzero(mean_risk == best)[-1])
        per_fold = fold_err[:, at_min] / fold_sizes
        se = float(per_fold.std(ddof=1) / math.sqrt(cfg.folds))
        winners = np.flatnonzero(mean_risk <= best + se)
    alpha = cands[int(winners[-1])]
    idx, _ = best_in_sequence(full_seq, lambda k: alpha * k)
    return alpha, full_seq.subtree(idx)


# one-candidate data: one label, and mixed labels that no cut separates
ONE_CANDIDATE = [
    Dataset(np.arange(24.0).reshape(12, 2), np.zeros(12, dtype=int)),
    Dataset(np.arange(24.0).reshape(12, 2), np.ones(12, dtype=int)),
    Dataset(np.repeat([[1.0, 0.0], [2.0, 0.0]], 6, axis=0), np.tile([0, 1], 6)),
]


def _assert_cv_matches_reference(data, folds, seed):
    curve = cv_curve(data, CVConfig(folds=folds, seed=seed))
    for rule in ("min", "1se"):
        cfg = CVConfig(folds=folds, rule=rule, seed=seed)
        alpha, tree = cv_select_alpha(data, cfg)
        ref_alpha, ref_tree = _reference_cv_select_alpha(data, cfg)
        assert alpha == ref_alpha and type(alpha) is float
        assert curve.candidates[curve.pick(rule)] == ref_alpha
        assert tree_to_text(tree) == tree_to_text(ref_tree)


@pytest.mark.parametrize("data", ONE_CANDIDATE)
def test_cv_on_a_one_candidate_sequence_matches_the_reference(data):
    assert len(_candidate_alphas(weakest_link(grow_maximal(data), data))) == 1
    for folds in (2, 5, 12):
        _assert_cv_matches_reference(data, folds, seed=0)


# at seeds 190 and 338 two candidates share the minimum mean risk with
# different standard errors, so 1se must take the last of them
@pytest.mark.parametrize("seed", [*range(12), 190, 338])
def test_cv_rules_match_the_reference_on_random_data(seed):
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, int(rng.integers(10, 60)), int(rng.integers(2, 5)))
    _assert_cv_matches_reference(d, int(rng.integers(2, 8)), seed)


@settings(max_examples=60, deadline=None)
@given(tied_datasets(), st.integers(2, 4), st.integers(0, 3))
def test_cv_rules_match_the_reference_on_tied_data(data, folds, seed):
    if folds <= data.n:
        _assert_cv_matches_reference(data, folds, seed)


@settings(max_examples=60, deadline=None)
@given(tied_datasets() | neighbour_datasets())
def test_cv_curve_is_the_curve_cv_select_alpha_picks_from(data):
    curve = cv_curve(data, CVConfig(folds=2))
    seq, cands = curve.sequence, curve.candidates
    assert len(cands) == len(seq.alphas)
    assert all(a < b for a, b in zip(cands, cands[1:]))
    assert [best_in_sequence(seq, lambda k: a * k)[0] for a in cands] == \
        list(range(len(cands)))
    errors, sizes = curve.fold_errors, curve.fold_sizes
    assert errors.dtype == sizes.dtype == np.int64 and errors.shape == (2, len(cands))
    assert not errors.flags.writeable and not sizes.flags.writeable
    assert (0 <= errors).all() and (errors <= sizes[:, None]).all()
    assert sizes.sum() == data.n
    for rule in ("min", "1se"):
        alpha, tree = cv_select_alpha(data, CVConfig(folds=2, rule=rule))
        c = curve.pick(rule)
        assert alpha == cands[c]
        assert tree_to_text(tree) == tree_to_text(seq.subtree(c))


@pytest.fixture
def three_fold_curve():
    curve = cv_curve(random_dataset(np.random.default_rng(43), 30, 2), CVConfig(folds=3))
    assert curve.fold_errors.shape == (3, 5) and curve.fold_sizes.tolist() == [10, 10, 10]
    return curve


def _edited(array, index, value):
    out = array.copy()
    out[index] = value
    return out


# (fold_errors, fold_sizes) from the curve's own, and the message
@pytest.mark.parametrize("arrays,message", [
    (lambda e, s: (e, s.tolist()), "fold_sizes must be a 1-D integer array"),
    (lambda e, s: (e, s.astype(float)), "fold_sizes must be a 1-D integer array"),
    (lambda e, s: (e, s[:, None]), "fold_sizes must be a 1-D integer array"),
    (lambda e, s: (e[:1], s[:1]), "a CV curve needs at least two folds"),
    (lambda e, s: (np.zeros_like(e), _edited(s, 0, 0)), "every fold must hold at least one row"),
    (lambda e, s: (e.astype(float), s), "fold_errors must be an integer array of shape (3, 5)"),
    (lambda e, s: (e.tolist(), s), "fold_errors must be an integer array of shape (3, 5)"),
    (lambda e, s: (e[:, 1:], s), "fold_errors must be an integer array of shape (3, 5)"),
    (lambda e, s: (e[:2], s), "fold_errors must be an integer array of shape (3, 5)"),
    (lambda e, s: (_edited(e, (1, 2), -1), s),
     "fold errors must lie between 0 and the fold's size"),
    (lambda e, s: (_edited(e, (2, 0), 11), s),
     "fold errors must lie between 0 and the fold's size"),
])
def test_cv_curve_rejections(three_fold_curve, arrays, message):
    errors, sizes = arrays(three_fold_curve.fold_errors, three_fold_curve.fold_sizes)
    with pytest.raises(ValueError) as err:
        replace(three_fold_curve, fold_errors=errors, fold_sizes=sizes)
    assert str(err.value) == message


def test_cv_curve_accepts_errors_at_both_bounds(three_fold_curve):
    edge = _edited(_edited(three_fold_curve.fold_errors, (0, 0), 10), (1, 4), 0)
    assert replace(three_fold_curve, fold_errors=edge).fold_errors.tolist() == edge.tolist()


def test_cv_curve_keeps_read_only_copies_of_its_arrays(three_fold_curve):
    errors, sizes = three_fold_curve.fold_errors.copy(), three_fold_curve.fold_sizes.copy()
    curve = replace(three_fold_curve, fold_errors=errors, fold_sizes=sizes)
    picks = [curve.pick(rule) for rule in ("min", "1se")]
    errors[:] = 99
    sizes[:] = 1
    assert [curve.pick(rule) for rule in ("min", "1se")] == picks
    assert curve.fold_errors.tolist() == three_fold_curve.fold_errors.tolist()
    assert curve.fold_sizes.tolist() == [10, 10, 10]
    assert not (curve.fold_errors.flags.writeable or curve.fold_sizes.flags.writeable)


def test_cv_curve_stores_only_what_it_is_computed_from(three_fold_curve):
    assert [f.name for f in fields(CVCurve) if f.init] == \
        ["sequence", "fold_errors", "fold_sizes"]
    assert three_fold_curve.candidates == tuple(_candidate_alphas(three_fold_curve.sequence))
    with pytest.raises(ValueError, match="^field candidates is declared with init=False"):
        replace(three_fold_curve, candidates=(0.0, 1.0, 2.0, 3.0, 4.0))


@settings(max_examples=200, deadline=None)
@given(tied_datasets(), leaf_budgets, st.integers(2, 4), st.randoms(use_true_random=False))
def test_every_library_built_sequence_and_curve_constructs(data, max_leaves, folds, rnd):
    # a tree pruned on the rows it was grown on, and on rows it was not, as in CV
    rows = data.subset(sorted(rnd.sample(range(data.n), rnd.randint(1, data.n))))
    tree = grow_maximal(rows, GrowLimits(max_leaves=max_leaves))
    for pruned_on in (rows, data):
        seq = weakest_link(tree, pruned_on)
        assert replace(seq) == seq
    if folds <= data.n:
        curve = cv_curve(data, CVConfig(folds=folds))
        assert replace(curve).candidates == curve.candidates


@settings(max_examples=80, deadline=None)
@given(tied_datasets() | neighbour_datasets(), leaf_budgets)
def test_every_returned_tree_is_laid_out_in_pre_order(data, max_leaves):
    # the pre-order layout is what tree_from_text builds; grown trees also
    # carry the counts that routing the training rows gives, and each leaf
    # has its majority label, 0 on a tie
    limits = GrowLimits(max_leaves=max_leaves)
    grown = grow_maximal(data, limits)
    n0, n1 = node_counts(grown, data)
    assert (n0, n1) == node_counts(grown, Dataset(data.X, data.y))
    assert all(nd.label == int(b > a) for nd, a, b in zip(grown.nodes, n0, n1)
               if isinstance(nd, Leaf))
    seq = weakest_link(grown, data)
    trees = [grown, *(seq.subtree(k) for k in range(len(seq.alphas))),
             select_tree(data, MarginAdaptivePenalty(), limits)[0],
             cv_select_alpha(data, CVConfig(folds=2))[1]]
    for tree in trees:
        assert tree_from_text(tree_to_text(tree)).nodes == tree.nodes
