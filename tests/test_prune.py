import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeselect import (GrowLimits, best_in_sequence, empirical_risk,
                        grow_maximal, leaf, sequence_to_csv, subtree_at_alpha,
                        weakest_link)
from treeselect.oracle import brute_force_best_subtree
from treeselect.prune import PrunedSequence, check_nested
from treeselect.tree import Internal, Leaf, descriptor_of, node_counts, tree_from_class

from conftest import leaf_budgets, random_dataset, tied_datasets


@pytest.fixture
def three_leaf(line_dataset):
    d = line_dataset([0, 1, 1, 0])
    return d, weakest_link(grow_maximal(d), d)


def test_single_leaf_sequence(line_dataset):
    d = line_dataset([1, 1])
    seq = weakest_link(leaf(1), d)
    assert len(seq.subtrees) == 1
    assert seq.alphas == (Fraction(0),)


def test_three_leaf_sequence(three_leaf):
    d, seq = three_leaf
    assert seq.sizes == (3, 1)
    assert seq.alphas == (Fraction(0), Fraction(1, 4))
    assert seq.error_counts == (0, 2)


def test_sequence_invariants_random():
    for seed in range(8):
        d = random_dataset(np.random.default_rng(seed), 20, 2)
        tree = grow_maximal(d)
        seq = weakest_link(tree, d)
        assert check_nested(seq)
        assert all(a < b for a, b in zip(seq.alphas, seq.alphas[1:]))
        assert all(a <= b for a, b in zip(seq.error_counts, seq.error_counts[1:]))
        assert seq.subtrees[-1].n_leaves == 1
        assert all(empirical_risk(t, d) == e / seq.n
                   for t, e in zip(seq.subtrees, seq.error_counts))


@pytest.mark.parametrize("field,value", [("labels", 2), ("steps", 7), ("steps", -1)])
def test_sequence_rejects_labels_and_steps_out_of_range(three_leaf, field, value):
    # a label of 2 would be scored as label 1, step 7 would fail in
    # errors_on with an IndexError, and step -1 would wrap to the last step
    _, seq = three_leaf
    entries = list(getattr(seq, field))
    entries[0] = value
    with pytest.raises(ValueError, match=field):
        replace(seq, **{field: tuple(entries)})
    assert replace(seq).steps == seq.steps  # the unchanged fields construct


def test_prune_zero_penalty_gives_maximal(three_leaf):
    _, seq = three_leaf
    assert best_in_sequence(seq, lambda k: 0.0)[0] == 0


def test_prune_linear_example(three_leaf):
    _, seq = three_leaf
    assert seq.subtrees[best_in_sequence(seq, lambda k: 0.3 * k)[0]].n_leaves == 1


def test_prune_sqrt_example(three_leaf):
    _, seq = three_leaf
    chosen = seq.subtrees[best_in_sequence(seq, lambda k: 0.1 * math.sqrt(k))[0]]
    assert chosen.n_leaves == 3  # 0.173 < 0.6


def test_penalized_tie_prefers_smaller(three_leaf):
    _, seq = three_leaf
    # pen = |T|/4 makes both elements cost 3/4
    chosen = seq.subtrees[best_in_sequence(seq, lambda k: Fraction(k, 4))[0]]
    assert chosen.n_leaves == 1


def test_alpha_indexing_agrees_with_linear_penalty():
    for seed in range(6):
        d = random_dataset(np.random.default_rng(seed + 50), 16, 2)
        seq = weakest_link(grow_maximal(d), d)
        for alpha in [Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(2, 5), Fraction(1)]:
            idx = subtree_at_alpha(seq, alpha)
            jdx, _ = best_in_sequence(seq, lambda k: alpha * k)
            assert seq.sizes[idx] == seq.sizes[jdx]


def test_oracle_equivalence_small_instances():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        n = int(rng.integers(4, 13))
        d = random_dataset(rng, n, 2)
        tree = grow_maximal(d, GrowLimits(max_leaves=6))
        seq = weakest_link(tree, d)
        for _ in range(20):
            alpha = Fraction(int(rng.integers(0, 30)), int(rng.integers(30, 100)))
            idx = subtree_at_alpha(seq, alpha)
            cost = Fraction(seq.error_counts[idx], n) + alpha * seq.sizes[idx]
            _, best = brute_force_best_subtree(tree, d, lambda k: alpha * k)
            assert cost == best


def test_sequence_csv(tmp_path, three_leaf):
    _, seq = three_leaf
    path = tmp_path / "seq.csv"
    sequence_to_csv(seq, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "size,risk,alpha"
    assert len(lines) == 3
    assert lines[1].startswith("3,0.0,0.0")


@settings(max_examples=200, deadline=None)
@given(tied_datasets(), leaf_budgets, st.randoms(use_true_random=False))
def test_schedule_matches_materialised_elements(data, max_leaves, rnd):
    train_rows = sorted(rnd.sample(range(data.n), rnd.randint(1, data.n - 1)))
    train = data.subset(train_rows)
    held = data.subset([i for i in range(data.n) if i not in train_rows])
    seq = weakest_link(grow_maximal(train, GrowLimits(max_leaves=max_leaves)), train)
    assert seq.errors_on(held) == [int(np.sum(t.predict_batch(held.X) != held.y))
                                   for t in seq.subtrees]
    assert seq.errors_on(train) == list(seq.error_counts)
    assert seq.sizes == tuple(t.n_leaves for t in seq.subtrees)
    assert [seq.subtree(k) for k in range(len(seq.alphas))] == list(seq.subtrees)


def _reference_weakest_link(tree, data):
    """The Fraction-valued weakest link weakest_link replaced: every step
    recomputes g(t) of every internal node as a Fraction, collapses the
    nodes tied at the minimum and propagates over all internal nodes."""
    nodes, n = tree.nodes, data.n
    n0, n1 = node_counts(tree, data)
    err = [min(a, b) for a, b in zip(n0, n1)]
    labels = [0 if a >= b else 1 for a, b in zip(n0, n1)]
    internal = [i for i, nd in enumerate(nodes) if isinstance(nd, Internal)]
    steps = [0 if isinstance(nd, Leaf) else None for nd in nodes]

    def link_strengths():
        leaves = [1] * len(nodes)
        errs = list(err)
        g = {}
        for i in reversed(internal):
            if steps[i] is None:
                nd = nodes[i]
                leaves[i] = leaves[nd.left] + leaves[nd.right]
                errs[i] = errs[nd.left] + errs[nd.right]
                g[i] = Fraction(err[i] - errs[i], n * (leaves[i] - 1))
        return g, leaves[0], errs[0]

    def collapse(targets, step):
        for i in targets:
            steps[i] = step
        for i in internal:
            for child in (nodes[i].left, nodes[i].right):
                if steps[child] is None:
                    steps[child] = steps[i]

    g, size, total = link_strengths()
    while zeros := [i for i, v in g.items() if v == 0]:
        collapse(zeros, 0)
        g, size, total = link_strengths()
    alphas, errors, sizes = [Fraction(0)], [total], [size]
    while g:
        gmin = min(g.values())
        collapse([i for i, v in g.items() if v == gmin], len(alphas))
        g, size, total = link_strengths()
        alphas.append(gmin)
        errors.append(total)
        sizes.append(size)
    return PrunedSequence(tree, tuple(steps), tuple(labels), tuple(alphas),
                          tuple(errors), tuple(sizes), n)


def _breadth_first(tree):
    """The same tree laid out breadth first, so not in pre-order."""
    thresholds, queue = [], [0]
    for i in queue:  # grows as the walk goes
        nd = tree.nodes[i]
        if isinstance(nd, Internal):
            thresholds.append(nd.threshold)
            queue += [nd.left, nd.right]
    labels = [tree.nodes[i].label for i in queue if isinstance(tree.nodes[i], Leaf)]
    return tree_from_class(descriptor_of(tree), thresholds, labels)


def test_breadth_first_layout_is_the_same_tree():
    rng = np.random.default_rng(4)
    d = random_dataset(rng, 40, 3)
    tree = grow_maximal(d)
    bfs = _breadth_first(tree)
    assert bfs.nodes != tree.nodes
    assert np.array_equal(bfs.predict_batch(d.X), tree.predict_batch(d.X))
    assert weakest_link(bfs, d).subtrees == weakest_link(tree, d).subtrees


@settings(max_examples=200, deadline=None)
@given(tied_datasets() | st.builds(random_dataset, st.integers(0, 2 ** 32 - 1)
                                   .map(np.random.default_rng),
                                   st.integers(2, 40), st.integers(2, 4)),
       leaf_budgets)
def test_weakest_link_matches_reference(data, max_leaves):
    tree = grow_maximal(data, GrowLimits(max_leaves=max_leaves))
    # a tree grown on other rows, as in CV, can have zero-gain links
    other = data.subset(np.arange(data.n) % 2 == 0)
    for arena in (tree, _breadth_first(tree)):
        for rows in (data, other):
            assert weakest_link(arena, rows) == _reference_weakest_link(arena, rows)
