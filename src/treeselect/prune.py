"""Weakest-link cost-complexity pruning and penalized selection in a sequence.

Risks are kept as exact misclassification counts.  A link strength g(t)
is the integer pair (error increase, leaves saved); two strengths are
compared by cross-multiplying, exactly, and each critical alpha is an exact
Fraction: its step's error increase over n times its leaves saved.  Ties in
g(t) collapse all tied nodes in one step, which preserves the classical
guarantee that for every alpha in [alpha_k, alpha_{k+1}) the k-th subtree
minimizes P_n f + alpha |T| over all pruned subtrees.

The nested sequence (Breiman et al. 1984, ch. 10) is stored as one collapse
schedule: the maximal tree and, per node, the first element in which it is
a leaf, beside each element's training errors.  Every other per-element
quantity, such as each element's size and critical alpha, is derived from
these, once, by the constructor, so it cannot disagree with them.  One
accumulation gives each element's sum of a per-node value over its leaves,
as collapsing a node trades its children's values for its own: of ones it
is the element's size, and of held-out misses its held-out errors.  An element's
tree is the maximal tree with a majority-labelled ``Leaf`` in place of each
collapsed node, laid out again by ``tree.preorder_tree``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Callable

from .designs import Dataset, check_integer, check_real, is_integer, write_csv
from .tree import Internal, Leaf, TreeClassifier, node_counts, preorder_tree

__all__ = ["PrunedSequence", "weakest_link", "best_in_sequence", "subtree_at_alpha",
           "sequence_to_csv"]


@dataclass(frozen=True)
class PrunedSequence:
    """Nested subtrees from the maximal tree down to the root leaf, stored as
    a collapse schedule: steps[i] is the first element in which node i of
    `tree` is a leaf (0 for its leaves and zero-gain collapses; a node
    collapsed with an ancestor gets the ancestor's step), and labels[i] is
    node i's training majority label.  error_counts[k] is element k's
    training misclassification count, of n rows.

    `sizes` and `alphas` are derived from these.  sizes[k] counts element
    k's leaves, by the one accumulation that also gives `errors_on`'s
    held-out errors.  n is an integer of at least 1, and each error count
    an integer in [0, n].  Every node collapsed in
    step k has the same link strength, so alphas[0] = 0 and alphas[k] is
    the step's error increase over n times its leaves saved:
    (error_counts[k] - error_counts[k-1]) / (n * (sizes[k-1] - sizes[k]))."""

    tree: TreeClassifier  # the maximal tree
    steps: tuple[int, ...]
    labels: tuple[int, ...]
    error_counts: tuple[int, ...]  # training misclassification counts
    n: int
    sizes: tuple[int, ...] = field(init=False)  # leaf counts
    alphas: tuple[Fraction, ...] = field(init=False)  # critical values

    def __post_init__(self):
        steps, errors = self.steps, self.error_counts
        k = len(errors)
        if k == 0:
            raise ValueError("sequence must be nonempty")
        check_integer("n", self.n, least=1)
        if not all(is_integer(e) and 0 <= e <= self.n for e in errors):
            raise ValueError(f"error counts must be integers in [0, {self.n}]")
        if not (len(steps) == len(self.labels) == len(self.tree.nodes)):
            raise ValueError("steps and labels need one entry per node")
        # a bool or an integral float would pass the set tests below as 0 or 1
        for what, values in (("node labels", self.labels), ("steps", steps)):
            odd = [v for v in values if not is_integer(v)]
            if odd:
                raise ValueError(f"{what} must be integers, got {odd[0]!r}")
        if not set(self.labels) <= {0, 1}:
            raise ValueError("node labels must be 0 or 1")
        if not set(steps) <= set(range(k)):
            raise ValueError(f"steps must be integers in [0, {k})")
        for nd, step in zip(self.tree.nodes, steps):
            if isinstance(nd, Leaf):
                if step:
                    raise ValueError("a leaf's step must be 0")
            elif steps[nd.left] > step or steps[nd.right] > step:
                raise ValueError("a child's step must not exceed its parent's")
        sizes = tuple(self._totals([1] * len(steps)))
        if any(a <= b for a, b in zip(sizes, sizes[1:])):
            raise ValueError("leaf counts must strictly decrease")
        # int() keeps numpy-typed counts from giving numpy-typed Fractions
        alphas = (Fraction(0), *(Fraction(int(b - a), int(self.n * (s - t))) for a, b, s, t
                                 in zip(errors, errors[1:], sizes, sizes[1:])))
        if any(a >= b for a, b in zip(alphas, alphas[1:])):
            raise ValueError("critical alphas must strictly increase")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "alphas", alphas)

    def _totals(self, per_node) -> list:
        """Each element's sum of per_node over its leaves: collapsing node i
        trades its children's values for its own."""
        trade = [0] * len(self.error_counts)
        for nd, step, value in zip(self.tree.nodes, self.steps, per_node):
            if isinstance(nd, Internal):
                value -= per_node[nd.left] + per_node[nd.right]
            trade[step] += value
        return list(accumulate(trade))

    def subtree(self, k: int) -> TreeClassifier:
        """Element k as a tree: every node collapsed by step k (steps[i] <= k)
        becomes Leaf(labels[i]), and the nodes below it drop out.  k must be
        an integer in [0, len(alphas)), else ValueError: a negative index
        would not count from the end, nor a bool or float pick an element."""
        check_integer("element index", k, least=0)
        if k >= len(self.alphas):
            raise ValueError(f"element index {k} is past the last element, {len(self.alphas) - 1}")
        return preorder_tree([Leaf(label) if step <= k else nd for nd, step, label
                              in zip(self.tree.nodes, self.steps, self.labels)])

    @cached_property
    def subtrees(self) -> tuple[TreeClassifier, ...]:
        """Every element as a tree, built on first access."""
        return tuple(self.subtree(k) for k in range(len(self.alphas)))

    def errors_on(self, data: Dataset) -> list[int]:
        """Misclassification count of every element on `data`, from one routing."""
        n0, n1 = node_counts(self.tree, data)
        return self._totals([b if label == 0 else a for a, b, label in zip(n0, n1, self.labels)])


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
    errors = []  # training errors of each element
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
        if ga == 0 and not errors:
            # zero-gain links collapse into the first element, so it is the
            # smallest optimizer at alpha = 0
            step = 0
        else:
            errors.append(errs[0])
            if not weakest:
                break
            step = len(errors)
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

    return PrunedSequence(tree, tuple(steps), tuple(labels), tuple(errors), n)


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
    """Index of the sequence element active at a given penalty weight: a
    finite real of at least 0, such as a float or an exact Fraction."""
    check_real("alpha", alpha, least=0)
    return bisect_right(seq.alphas, alpha) - 1


def sequence_to_csv(seq: PrunedSequence, path) -> None:
    write_csv(path, ["size", "risk", "alpha"],
              ([size, err / seq.n, float(alpha)]
               for size, alpha, err in zip(seq.sizes, seq.alphas, seq.error_counts)))
