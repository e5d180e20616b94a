"""Weakest-link cost-complexity pruning and penalized selection in a sequence.

Risks are kept as exact misclassification counts so link strengths and
critical alpha values are computed in rational arithmetic; ties in the
link strength g(t) collapse all tied nodes in one step, which preserves
the classical guarantee that for every alpha in [alpha_k, alpha_{k+1})
the k-th subtree minimizes P_n f + alpha |T| over all pruned subtrees.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .designs import Dataset
from .tree import (Internal, Leaf, TreeClassifier, is_pruned_subtree, node_counts,
                   preorder_tree)

__all__ = ["PrunedSequence", "weakest_link", "best_in_sequence", "subtree_at_alpha",
           "sequence_to_csv"]


@dataclass(frozen=True)
class PrunedSequence:
    """Nested subtrees from the maximal tree down to the root leaf."""

    subtrees: tuple[TreeClassifier, ...]
    alphas: tuple[Fraction, ...]  # critical values, alphas[0] == 0
    error_counts: tuple[int, ...]  # training misclassification counts
    n: int

    def __post_init__(self):
        k = len(self.subtrees)
        if not (k == len(self.alphas) == len(self.error_counts)):
            raise ValueError("sequence fields must have equal length")
        if k == 0:
            raise ValueError("sequence must be nonempty")
        if self.alphas[0] != 0:
            raise ValueError("first critical alpha must be 0")
        if any(a >= b for a, b in zip(self.alphas, self.alphas[1:])):
            raise ValueError("critical alphas must strictly increase")
        sizes = [t.n_leaves for t in self.subtrees]
        if any(a <= b for a, b in zip(sizes, sizes[1:])):
            raise ValueError("leaf counts must strictly decrease")

    @property
    def risks(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.n) for c in self.error_counts)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(t.n_leaves for t in self.subtrees)


def weakest_link(tree: TreeClassifier, data: Dataset) -> PrunedSequence:
    """Nested subtree/alpha sequence by repeatedly collapsing all internal
    nodes of minimal link strength g(t) = (risk increase)/(leaves saved)."""
    nodes, n = tree.nodes, data.n
    n0, n1 = node_counts(tree, data)
    err = [min(a, b) for a, b in zip(n0, n1)]  # errors of each node as a leaf
    labels = [0 if a >= b else 1 for a, b in zip(n0, n1)]
    internal = [i for i, nd in enumerate(nodes) if isinstance(nd, Internal)]
    # collapsed[i]: node i is not an internal node of the current subtree
    collapsed = [isinstance(nd, Leaf) for nd in nodes]

    def link_strengths() -> tuple[dict[int, Fraction], int]:
        """g(t) of every internal node of the current subtree, and the
        subtree's error count; children come after parents, so one reverse
        sweep gives (leaves, error) of every subtree."""
        leaves = [1] * len(nodes)
        errs = list(err)
        g = {}
        for i in reversed(internal):
            if not collapsed[i]:
                nd = nodes[i]
                leaves[i] = leaves[nd.left] + leaves[nd.right]
                errs[i] = errs[nd.left] + errs[nd.right]
                g[i] = Fraction(err[i] - errs[i], n * (leaves[i] - 1))
        return g, errs[0]

    def collapse(targets):
        for i in targets:
            collapsed[i] = True
        # mark whole subtrees, so collapsing an ancestor subsumes its tied descendants
        for i in internal:
            if collapsed[i]:
                collapsed[nodes[i].left] = collapsed[nodes[i].right] = True

    # collapse zero-gain links so the first element is the smallest
    # optimizer at alpha = 0
    g, total = link_strengths()
    while zeros := [i for i, v in g.items() if v == 0]:
        collapse(zeros)
        g, total = link_strengths()

    subtrees = [preorder_tree(nodes, collapsed, labels)]
    alphas = [Fraction(0)]
    errors = [total]
    while g:
        gmin = min(g.values())
        collapse([i for i, v in g.items() if v == gmin])
        g, total = link_strengths()
        subtrees.append(preorder_tree(nodes, collapsed, labels))
        alphas.append(gmin)
        errors.append(total)

    return PrunedSequence(tuple(subtrees), tuple(alphas), tuple(errors), n)


def best_in_sequence(seq: PrunedSequence, pen: Callable[[int], float]) -> tuple[int, float]:
    """Index and penalized cost of the sequence element minimizing
    empirical risk + pen(size); ties go to the smaller tree."""
    best_idx = None
    best_cost = None
    # scan smallest trees first so ties resolve to the smaller tree;
    # Fraction risks keep the cost exact when pen returns Fractions
    for idx in range(len(seq.subtrees) - 1, -1, -1):
        cost = Fraction(seq.error_counts[idx], seq.n) + pen(seq.subtrees[idx].n_leaves)
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
        for tree, alpha, err in zip(seq.subtrees, seq.alphas, seq.error_counts):
            writer.writerow([tree.n_leaves, repr(err / seq.n), repr(float(alpha))])


def check_nested(seq: PrunedSequence) -> bool:
    return all(is_pruned_subtree(b, a) for a, b in zip(seq.subtrees, seq.subtrees[1:]))
