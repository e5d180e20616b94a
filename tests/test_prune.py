import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeselect import (GrowLimits, best_in_sequence, empirical_risk,
                        grow_maximal, leaf, sequence_to_csv, subtree_at_alpha,
                        weakest_link)
from treeselect.oracle import brute_force_best_subtree
from treeselect.prune import PrunedSequence
from treeselect.tree import Internal, Leaf, is_pruned_subtree, node_counts

from conftest import breadth_first, leaf_budgets, random_dataset, tied_datasets


@pytest.fixture
def three_leaf(line_dataset):
    d = line_dataset([0, 1, 1, 0])
    return d, weakest_link(grow_maximal(d), d)


@pytest.fixture
def three_step(line_dataset):
    # the root (node 0) collapses in step 2 and its left child (node 1) in step 1
    d = line_dataset([1, 0, 0, 0, 0, 1, 1, 1])
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
        assert all(is_pruned_subtree(b, a) for a, b in zip(seq.subtrees, seq.subtrees[1:]))
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


@pytest.mark.parametrize("fields,message", [
    (dict(steps=(2, 1, 1, 0, 0)), "a leaf's step must be 0"),
    (dict(error_counts=()), "sequence must be nonempty"),
    (dict(steps=(2, 1, 0, 0)), "steps and labels need one entry per node"),
    (dict(steps=(1, 2, 0, 0, 0)), "a child's step must not exceed its parent's"),
    # derived alphas 0, 3/8, 1/8
    (dict(error_counts=(0, 3, 4)), "critical alphas must strictly increase"),
    (dict(steps=(0, 0, 0, 0, 0)), "leaf counts must strictly decrease"),
    # the child collapses with its parent, so no node collapses in step 1
    (dict(steps=(2, 2, 0, 0, 0)), "leaf counts must strictly decrease"),
    # derived alphas 0, 0, 3/8
    (dict(error_counts=(1, 1, 4)), "critical alphas must strictly increase"),
    # n = 0 would divide by zero, and 2.5 would be truncated, in the alphas
    (dict(n=0), "n must be >= 1"),
    (dict(n=2.5), "n must be an integer, got 2.5"),
    (dict(error_counts=(-5, -4, -1)), "error counts must be integers in [0, 8]"),
    (dict(error_counts=(0, 1, 40)), "error counts must be integers in [0, 8]"),
    (dict(error_counts=(0, 1.0, 4)), "error counts must be integers in [0, 8]"),
    # set membership would take True and 1.0 as 1, and False as 0
    (dict(steps=(2, True, 0, 0, 0)), "steps must be integers, got True"),
    (dict(steps=(2, 1.0, 0, 0, 0)), "steps must be integers, got 1.0"),
    (dict(labels=(False, False, True, False, True)), "node labels must be integers, got False"),
    (dict(labels=(0, 0, 1.0, 0, 1)), "node labels must be integers, got 1.0"),
    (dict(steps=(2, True, 0, 0, 0), labels=(False, False, True, False, True)),
     "node labels must be integers, got False"),
])
def test_sequence_rejections(three_step, fields, message):
    _, seq = three_step
    assert (seq.steps, seq.error_counts) == ((2, 1, 0, 0, 0), (0, 1, 4))
    assert (seq.sizes, seq.alphas) == ((3, 2, 1), (0, Fraction(1, 8), Fraction(3, 8)))
    with pytest.raises(ValueError) as err:
        replace(seq, **fields)
    assert str(err.value) == message


def test_sequence_accepts_numpy_integer_steps_and_labels(three_step):
    _, seq = three_step
    same = replace(seq, steps=tuple(np.int64(s) for s in seq.steps),
                   labels=tuple(np.int8(v) for v in seq.labels))
    assert (same.sizes, same.alphas) == (seq.sizes, seq.alphas)


@pytest.mark.parametrize("k,message", [
    # a negative index would count from the end, a large one give the root
    # leaf, and a bool or float pick element 1
    (-1, "element index must be >= 0"),
    (3, "element index 3 is past the last element, 2"),
    (99, "element index 99 is past the last element, 2"),
    (1.5, "element index must be an integer, got 1.5"),
    (True, "element index must be an integer, got True"),
])
def test_subtree_rejects_an_index_that_is_not_an_element(three_step, k, message):
    _, seq = three_step
    assert len(seq.alphas) == 3
    with pytest.raises(ValueError) as err:
        seq.subtree(k)
    assert str(err.value) == message
    assert seq.subtree(np.int64(1)) == seq.subtrees[1]


def test_sequence_stores_only_its_schedule(three_step):
    assert [f.name for f in fields(PrunedSequence) if f.init] == \
        ["tree", "steps", "labels", "error_counts", "n"]
    _, seq = three_step
    # a stored copy could disagree with the schedule, so none can be passed in
    for name, value in (("sizes", (4, 3, 2)), ("alphas", (0, 1, 2))):
        with pytest.raises(ValueError, match=f"^field {name} is declared with init=False"):
            replace(seq, **{name: value})


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
    # numpy-typed counts write the same bytes as Python ints
    typed = replace(seq, error_counts=tuple(map(np.int64, seq.error_counts)), n=np.int64(seq.n))
    sequence_to_csv(typed, tmp_path / "typed.csv")
    assert (tmp_path / "typed.csv").read_bytes() == path.read_bytes()


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
    nodes tied at the minimum and propagates over all internal nodes.
    Returns the sequence with the alphas (each step's minimum g) and sizes
    (the leaves of each element) found on the way, independently of those
    that PrunedSequence derives."""
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
    seq = PrunedSequence(tree, tuple(steps), tuple(labels), tuple(errors), n)
    return seq, tuple(alphas), tuple(sizes)


def test_breadth_first_layout_is_the_same_tree():
    rng = np.random.default_rng(4)
    d = random_dataset(rng, 40, 3)
    tree = grow_maximal(d)
    bfs = breadth_first(tree)
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
    for arena in (tree, breadth_first(tree)):
        for rows in (data, other):
            seq = weakest_link(arena, rows)
            reference, alphas, sizes = _reference_weakest_link(arena, rows)
            assert (seq.alphas, seq.sizes) == (alphas, sizes)
            assert seq == reference
