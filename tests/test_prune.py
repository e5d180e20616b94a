import math
from fractions import Fraction

import numpy as np
import pytest

from treeselect import (GrowLimits, best_in_sequence, empirical_risk,
                        grow_maximal, leaf, sequence_to_csv, subtree_at_alpha,
                        weakest_link)
from treeselect.oracle import brute_force_best_subtree
from treeselect.prune import check_nested

from conftest import random_dataset


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
    assert seq.risks == (Fraction(0), Fraction(1, 2))


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
