"""CART-style greedy growing with misclassification count as impurity.

A node is split only when some (variable, threshold) cut strictly reduces
the total misclassification count of the node under majority labelling.
Ties break to the smallest variable index, then the smallest threshold,
so growing is a deterministic, order-invariant function of the data.  The
threshold between neighbouring values lo < hi is their midpoint when it
lies in [lo, hi), and lo when the midpoint rounds onto hi or overflows, so
``x > threshold`` routes exactly the cut that was scored.

Each column is sorted once per dataset (``Dataset.order``, CART's
presort).  A node holds a (p, m) order: row j lists the node's rows sorted
by feature j.  Splitting a node partitions every row of its order with one
membership mask; a stable filter of a sorted row is still sorted, so no
node sorts again.

The search reads labels as signs +1/-1: with s the signed sum left of a
cut and S that of the node, the cut leaves (m - max(|S|, |2s - S|)) / 2
errors.  One cumulative sum along the order, overwritten in place with
|2s - S|, scores the cut after every one of the m positions, and its first
row-major maximum is the best cut.  Rows with equal values may sit in any
order within their run: only the last position of a run is a valid cut,
and s there is the same for every order of the run, so the chosen split
does not depend on how ties were ordered.  Only columns that hold equal
values need that check; ``best_split`` reads them from ``Dataset.tied``,
cached with the presort.  Called without a node's order, it searches
``data.subset(rows)``, so ``Dataset`` is the only place that sorts.

The ``Split`` of a node is the one source of its children's label
counts: ``grow_maximal`` records them as it creates the children and
labels each leaf once from them, and the tree it returns carries them
for ``tree.node_counts``, so pruning on the training rows routes nothing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .designs import Dataset, check_integer
from .tree import Internal, TreeClassifier, preorder_tree

__all__ = ["GrowLimits", "Split", "best_split", "grow_maximal"]

_TWICE_SIGNS = np.array([-2, 2], dtype=np.int8)  # twice a label's sign: sums are 2s


@dataclass(frozen=True)
class GrowLimits:
    max_leaves: int | None = None
    min_node_size: int = 1

    def __post_init__(self):
        if self.max_leaves is not None:
            check_integer("max_leaves", self.max_leaves)
        check_integer("min_node_size", self.min_node_size)
        if self.max_leaves is not None and self.max_leaves < 1:
            raise ValueError("max_leaves must be >= 1")
        if self.min_node_size < 1:
            raise ValueError("min_node_size must be >= 1")


@dataclass(frozen=True)
class Split:
    var: int  # 1-based
    threshold: float
    left_size: int  # rows the cut sends left
    left_ones: int  # of those, rows labelled 1
    err_count: int  # total child misclassifications


def best_split(data: Dataset, rows, min_node_size: int = 1,
               order: np.ndarray | None = None) -> Split | None:
    """Exhaustive scan over all variables and all cuts between consecutive
    distinct sorted values; None when no cut strictly beats the
    majority-leaf error of the subset.

    With labels read as signs +1 (y = 1) and -1 (y = 0), let s be the
    signed sum of the rows left of a cut and S = 2 n1 - m that of the whole
    node.  The cut leaves (m - max(|S|, |2s - S|)) / 2 errors, against
    (m - |S|) / 2 for the majority leaf.  So every one of the m positions
    of every variable is scored |2s - S| in place, and the best cut is the
    first row-major maximum; it is a split exactly when that maximum
    exceeds |S|.  The last position (nothing right of it) scores |S|, and
    a cut that is not allowed (inside a run of equal values, or fewer than
    ``min_node_size`` rows from either end) scores 0, so neither can win.

    ``order`` is the (p, m) presort of ``rows`` (each row of it sorts one
    feature over the node's rows); without it the search runs on
    ``data.subset(rows)`` and that subset's ``order``.  Only the columns in
    ``data.tied`` are checked for ties.  The threshold between neighbours
    lo < hi is their midpoint when lo <= mid < hi, else lo, so
    ``x > threshold`` routes exactly the partition scored, which
    ``Split.left_size`` and ``left_ones`` count."""
    if order is None:
        data = data.subset(rows)
        order = data.order
    m = order.shape[1]
    n1 = int(data.y.take(order[0]).sum())
    if n1 in (0, m) or m < 2 * min_node_size:
        return None  # label-pure, or too small for two children
    S = 2 * n1 - m

    # |2s - S| after each of the m positions of each variable
    score = np.cumsum(_TWICE_SIGNS.take(data.y).take(order), axis=1, dtype=np.int32)
    score -= S
    np.abs(score, out=score)
    tied = data.tied
    if tied.size:
        svals = np.take_along_axis(data.X.T[tied], order[tied], 1)
        var, pos = np.nonzero(svals[:, 1:] == svals[:, :-1])
        score[tied[var], pos] = 0
    if min_node_size > 1:
        score[:, :min_node_size - 1] = 0
        score[:, m - min_node_size:] = 0

    # the first maximum is the smallest variable index, and within it the
    # smallest cut position, i.e. threshold
    var0, i = divmod(int(score.argmax()), m)
    g = int(score[var0, i])
    if g <= abs(S):
        return None
    col = data.X[:, var0]
    lo, hi = float(col[order[var0, i]]), float(col[order[var0, i + 1]])
    mid = (lo + hi) / 2.0
    ones_left = int(data.y.take(order[var0, :i + 1]).sum())
    return Split(var0 + 1, mid if lo <= mid < hi else lo, i + 1, ones_left, (m - g) // 2)


def grow_maximal(data: Dataset, limits: GrowLimits | None = None) -> TreeClassifier:
    """Grow until no split strictly reduces the misclassification count or
    the leaf budget is exhausted.  With a leaf budget, nodes are expanded
    best-first by error reduction (ties by creation order).  The tree
    carries each node's label counts on `data` (see ``tree.node_counts``)."""
    if limits is None:
        limits = GrowLimits()
    n1 = int(data.y.sum())
    # growth-order arena: the two children of a split are appended after it,
    # and a leaf is None until preorder_tree labels it from its counts
    nodes: list = [None]
    n0s, n1s = [data.n - n1], [n1]  # training rows of each label at each node
    order_at = [data.order]  # order_at[i][0] lists the rows of node i
    heap: list = []  # (-error reduction, node index, split)
    goes_right = np.zeros(data.n, dtype=bool)

    def consider(i: int):
        split = best_split(data, order_at[i][0], limits.min_node_size, order_at[i])
        if split is None:
            order_at[i] = None
        else:
            reduction = min(n0s[i], n1s[i]) - split.err_count
            heapq.heappush(heap, (-reduction, i, split))

    consider(0)
    n_leaves = 1
    while heap and (limits.max_leaves is None or n_leaves < limits.max_leaves):
        _, i, split = heapq.heappop(heap)
        order = order_at[i]
        rows = order[0]
        goes_right[rows] = data.X[rows, split.var - 1] > split.threshold
        # a stable filter of a sorted row keeps it sorted
        to_right = goes_right.take(order).ravel()
        order = order.ravel()
        left = len(nodes)
        nodes[i] = Internal(split.var, split.threshold, left, left + 1)
        nodes += [None, None]
        order_at += [order.compress(~to_right).reshape(data.p, split.left_size),
                     order.compress(to_right).reshape(data.p, -1)]
        order_at[i] = None
        size, ones = split.left_size, split.left_ones
        n0s += [size - ones, n0s[i] - size + ones]
        n1s += [ones, n1s[i] - ones]
        n_leaves += 1
        consider(left)
        consider(left + 1)

    labels = [int(b > a) for a, b in zip(n0s, n1s)]  # majority; a tie is 0
    return preorder_tree(nodes, [False] * len(nodes), labels, counts=(data, n0s, n1s))
