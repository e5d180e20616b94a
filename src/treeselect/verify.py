"""Self-contained oracle suite behind the `verify` CLI subcommand.

Each check pits a fast implementation against an exhaustive desk-scale
oracle and returns (ok, detail). These are the only copies of the oracle
claims: acceptance criteria 1-5 in tests/test_acceptance.py run the same
checks, with the same seeds and counts, as `treeselect verify`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .designs import Dataset
from .grow import GrowLimits, grow_maximal
from .oracle import (brute_force_best_subtree, catalan, class_count,
                     enumerate_classes, enumerate_shapes, exhaustive_select,
                     shattering_count)
from .penalties import LinearPenalty, select_tree
from .prune import best_in_sequence, check_nested, subtree_at_alpha, weakest_link

__all__ = ["CHECKS", "random_dataset"]


def random_dataset(rng, n, p) -> Dataset:
    """Standard normal features and fair-coin labels, with both labels present."""
    X = rng.standard_normal((n, p))
    y = rng.integers(0, 2, size=n)
    if y.sum() == 0:
        y[0] = 1
    elif y.sum() == n:
        y[0] = 0
    return Dataset(X, y)


def check_catalan() -> tuple[bool, str]:
    if [catalan(k) for k in range(1, 8)] != [1, 1, 2, 5, 14, 42, 132]:
        return False, "catalan(1..7) is not 1, 1, 2, 5, 14, 42, 132"
    for k in range(1, 8):
        if catalan(k) != len(enumerate_shapes(k)):
            return False, f"catalan({k}) != shape enumeration"
    return True, "catalan matches shape enumeration for k <= 7"


def check_class_counts() -> tuple[bool, str]:
    for p in range(2, 5):
        for k in range(1, 5):
            if len(enumerate_classes(p, k).classes) != class_count(p, k):
                return False, f"class enumeration mismatch at p={p}, k={k}"
    return True, "class enumeration length equals p^(k-1)*catalan(k) for p,k <= 4"


def check_entropy_bound() -> tuple[bool, str]:
    rng = np.random.default_rng(20260823)
    classes = [c for k in range(1, 4) for c in enumerate_classes(2, k).classes]
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        X = rng.standard_normal((n, 2))
        for desc in classes:
            count = shattering_count(desc, X)
            if math.log(count) > desc.size * math.log(2 * n) + 1e-12:
                return False, f"entropy bound violated for k={desc.size}, n={n}"
            checked += 1
    return True, f"ln(shattering count) <= k*ln(2n) on {checked} class/sample pairs"


def _pruning_instances():
    """The 200 (data, maximal tree, weakest-link sequence) triples that the
    pruning-oracle and subadditive-penalty checks share."""
    rng = np.random.default_rng(424242)
    for _ in range(200):
        n = int(rng.integers(4, 13))
        data = random_dataset(rng, n, 2)
        tree = grow_maximal(data, GrowLimits(max_leaves=6))
        yield data, tree, weakest_link(tree, data)


def check_pruning_oracle() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    comparisons = 0
    for data, tree, seq in _pruning_instances():
        if not check_nested(seq):
            return False, "weakest-link sequence not nested"
        for _ in range(50):
            alpha = Fraction(int(rng.integers(0, 50)), int(rng.integers(50, 150)))
            idx = subtree_at_alpha(seq, alpha)
            cost = Fraction(seq.error_counts[idx], data.n) + alpha * seq.sizes[idx]
            _, best = brute_force_best_subtree(tree, data, lambda k: alpha * k)
            if cost != best:
                return False, f"pruning suboptimal at alpha={alpha}"
            comparisons += 1
    return True, f"weakest link matches brute force in {comparisons} exact comparisons"


def check_subadditive() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    instances = 0
    for data, tree, seq in _pruning_instances():
        c = float(rng.uniform(0.02, 0.5))
        pen = lambda k: c * math.sqrt(k)
        _, cost = best_in_sequence(seq, pen)
        _, best = brute_force_best_subtree(tree, data, pen)
        if float(cost) != float(best):
            return False, f"sqrt-penalty cost {cost} != brute force {best}"
        instances += 1
    return True, f"sqrt-penalty selection matches brute force on {instances} instances"


def check_exhaustive_vs_heuristic() -> tuple[bool, str]:
    rng = np.random.default_rng(55)
    equal = 0
    for _ in range(100):
        data = random_dataset(rng, 8, 2)
        spec = LinearPenalty(float(rng.uniform(0.05, 0.5)))
        _, cost_ex = exhaustive_select(data, spec, k_max=3)
        _, cost_h = select_tree(data, spec, GrowLimits(max_leaves=3))
        if cost_ex > cost_h + 1e-12:
            return False, f"exhaustive cost {cost_ex} beaten by heuristic {cost_h}"
        if abs(cost_ex - cost_h) <= 1e-12:
            equal += 1
    return True, f"exhaustive <= heuristic always; equal on {equal}/100 (diagnostic)"


CHECKS = [
    ("counting-catalan", check_catalan),
    ("counting-classes", check_class_counts),
    ("entropy-bound", check_entropy_bound),
    ("pruning-oracle", check_pruning_oracle),
    ("subadditive-penalty", check_subadditive),
    ("exhaustive-vs-heuristic", check_exhaustive_vs_heuristic),
]
