"""Weakest-link cost-complexity pruning and penalized selection in a sequence.

Risks are kept as exact misclassification counts.  A link strength g(t)
is the integer pair (error increase, leaves saved); two strengths are
compared by cross-multiplying, exactly, and a Fraction is built only for
each step's minimum, so the critical alphas are exact rationals.  Ties in
g(t) collapse all tied nodes in one step, which preserves the classical
guarantee that for every alpha in [alpha_k, alpha_{k+1}) the k-th subtree
minimizes P_n f + alpha |T| over all pruned subtrees.

The nested sequence (Breiman et al. 1984, ch. 10) is stored as one collapse
schedule: the maximal tree and, per node, the first element in which it is
a leaf.  Every per-element quantity is read from that schedule.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Callable

from .designs import Dataset
from .tree import (Internal, Leaf, TreeClassifier, is_pruned_subtree, node_counts,
                   preorder_tree)

__all__ = ["PrunedSequence", "weakest_link", "best_in_sequence", "subtree_at_alpha",
           "sequence_to_csv"]


@dataclass(frozen=True)
class PrunedSequence:
    """Nested subtrees from the maximal tree down to the root leaf, stored as
    a collapse schedule: steps[i] is the first element in which node i of
    `tree` is a leaf (0 for its leaves and zero-gain collapses; a node
    collapsed with an ancestor gets the ancestor's step), and labels[i] is
    node i's training majority label."""

    tree: TreeClassifier  # the maximal tree
    steps: tuple[int, ...]
    labels: tuple[int, ...]
    alphas: tuple[Fraction, ...]  # critical values, alphas[0] == 0
    error_counts: tuple[int, ...]  # training misclassification counts
    sizes: tuple[int, ...]  # leaf counts
    n: int

    def __post_init__(self):
        k = len(self.alphas)
        if not (k == len(self.error_counts) == len(self.sizes)):
            raise ValueError("sequence fields must have equal length")
        if k == 0:
            raise ValueError("sequence must be nonempty")
        if not (len(self.steps) == len(self.labels) == len(self.tree.nodes)):
            raise ValueError("steps and labels need one entry per node")
        if not set(self.labels) <= {0, 1}:
            raise ValueError("node labels must be 0 or 1")
        if not set(self.steps) <= set(range(k)):
            raise ValueError(f"steps must be integers in [0, {k})")
        if self.alphas[0] != 0:
            raise ValueError("first critical alpha must be 0")
        if any(a >= b for a, b in zip(self.alphas, self.alphas[1:])):
            raise ValueError("critical alphas must strictly increase")
        if any(a <= b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("leaf counts must strictly decrease")

    def subtree(self, k: int) -> TreeClassifier:
        """Element k as a tree: every node collapsed by step k is a leaf with its label."""
        return preorder_tree(self.tree.nodes, [s <= k for s in self.steps], self.labels)

    @cached_property
    def subtrees(self) -> tuple[TreeClassifier, ...]:
        """Every element as a tree, built on first access."""
        return tuple(self.subtree(k) for k in range(len(self.alphas)))

    def errors_on(self, data: Dataset) -> list[int]:
        """Misclassification count of every element on `data`, from one routing:
        collapsing node i trades its children's errors for its own."""
        n0, n1 = node_counts(self.tree, data)
        miss = [b if label == 0 else a for a, b, label in zip(n0, n1, self.labels)]
        trade = [0] * len(self.alphas)
        for i, nd in enumerate(self.tree.nodes):
            kids = miss[nd.left] + miss[nd.right] if isinstance(nd, Internal) else 0
            trade[self.steps[i]] += miss[i] - kids
        return list(accumulate(trade))


def weakest_link(tree: TreeClassifier, data: Dataset) -> PrunedSequence:
    """Collapse schedule of the nested subtrees: repeatedly collapse all internal
    nodes of minimal link strength g(t) = (risk increase)/(leaves saved).

    With err[t] the node's training errors as a leaf, and errs[t] and
    leaves[t] those of its current subtree, g(t) = (err[t] - errs[t]) /
    (n * (leaves[t] - 1)) is kept as the integer pair (err[t] - errs[t],
    leaves[t] - 1): the common factor n cancels, so two strengths compare
    exactly by cross-multiplying.  The arena need only list children after
    their parents, as pre-order and breadth-first arenas both do."""
    nodes, n = tree.nodes, data.n
    n0, n1 = node_counts(tree, data)
    err = [min(a, b) for a, b in zip(n0, n1)]  # errors of each node as a leaf
    labels = [0 if a >= b else 1 for a, b in zip(n0, n1)]
    parent = [0] * len(nodes)  # the root's entry points at itself
    live = []  # internal nodes of the current subtree, in arena order
    for i, nd in enumerate(nodes):
        if isinstance(nd, Internal):
            parent[nd.left] = parent[nd.right] = i
            live.append(i)
    # steps[i]: first element in which node i is a leaf; None while internal
    steps = [0 if isinstance(nd, Leaf) else None for nd in nodes]
    leaves = [1] * len(nodes)  # leaves and errors of each node's current subtree
    errs = list(err)
    alphas, errors, sizes = [Fraction(0)], [], []
    while True:
        # children come after parents, so one reverse sweep refreshes every
        # live subtree and finds the weakest links; (1, 0) stands for +inf
        ga, gb, weakest = 1, 0, []
        for i in reversed(live):
            nd = nodes[i]
            k = leaves[i] = leaves[nd.left] + leaves[nd.right]
            e = errs[i] = errs[nd.left] + errs[nd.right]
            a, b = err[i] - e, k - 1
            if a * gb < ga * b:
                ga, gb, weakest = a, b, [i]
            elif a * gb == ga * b:
                weakest.append(i)
        if ga == 0 and not sizes:
            # zero-gain links collapse into the first element, so it is the
            # smallest optimizer at alpha = 0
            step = 0
        else:
            errors.append(errs[0])
            sizes.append(leaves[0])
            if not weakest:
                break
            step = len(alphas)
            alphas.append(Fraction(ga, n * gb))
        for i in weakest:
            steps[i] = step
            leaves[i], errs[i] = 1, err[i]
        # a collapsed node's descendants leave the subtree with its step;
        # parents come first, so each node sees its parent's final state
        kept = []
        for i in live:
            if steps[i] is None:
                if steps[parent[i]] is None:
                    kept.append(i)
                else:
                    steps[i] = steps[parent[i]]
        live = kept

    return PrunedSequence(tree, tuple(steps), tuple(labels), tuple(alphas),
                          tuple(errors), tuple(sizes), n)


def best_in_sequence(seq: PrunedSequence, pen: Callable[[int], float]) -> tuple[int, float]:
    """Index and penalized cost of the sequence element minimizing
    empirical risk + pen(size); ties go to the smaller tree."""
    best_idx = None
    best_cost = None
    # scan smallest trees first so ties resolve to the smaller tree;
    # Fraction risks keep the cost exact when pen returns Fractions
    for idx in range(len(seq.sizes) - 1, -1, -1):
        cost = Fraction(seq.error_counts[idx], seq.n) + pen(seq.sizes[idx])
        if best_cost is None or cost < best_cost:
            best_idx, best_cost = idx, cost
    return best_idx, best_cost


def subtree_at_alpha(seq: PrunedSequence, alpha) -> int:
    """Index of the sequence element active at a given penalty weight."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return bisect_right(seq.alphas, alpha) - 1


def sequence_to_csv(seq: PrunedSequence, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size", "risk", "alpha"])
        for size, alpha, err in zip(seq.sizes, seq.alphas, seq.error_counts):
            writer.writerow([size, repr(err / seq.n), repr(float(alpha))])


def check_nested(seq: PrunedSequence) -> bool:
    return all(is_pruned_subtree(b, a) for a, b in zip(seq.subtrees, seq.subtrees[1:]))
