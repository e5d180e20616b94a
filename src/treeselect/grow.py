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
by feature j.  The rows a split sends left are the first ``left_size``
entries of the split variable's row, so splitting a node marks them in one
membership mask and filters every row of its order with it; a stable
filter of a sorted row is still sorted, so no node sorts again.  A child
whose counts show it terminal (label-pure, or fewer than
``2 * min_node_size`` rows) is neither searched nor given an order: the
search could only return None for it.

The search reads labels as signs +1/-1: with s the signed sum left of a
cut and S that of the node, the cut leaves (m - max(|S|, |2s - S|)) / 2
errors.  One cumulative sum of twice the signs along the order, whose
last entry is 2S, gives 2s after every one of the m positions.  The best
cut, the first row-major maximum of |2s - S|, is the first maximum or the
first minimum of 2s, whichever lies farther from S, so no second (p, m)
array is made; 2s at the cut also counts the left child's ones.  Rows
with equal values may sit in any order within their run: only the last
position of a run is a valid cut, and s there is the same for every order
of the run, so the chosen split does not depend on how ties were ordered.
Only columns that hold equal values need that check; ``best_split`` reads
them from ``Dataset.tied``, cached with the presort.  Called without a
node's order, it searches ``data.subset(rows)``, so ``Dataset`` is the
only place that sorts.

The ``Split`` of a node is the one source of its children's label
counts: ``grow_maximal`` records them as it creates the children, builds
each leaf once, after growing, with the majority label of its counts, and
the tree it returns carries them for ``tree.node_counts``, so pruning on
the training rows routes nothing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .designs import Dataset, check_integer
from .tree import Internal, Leaf, TreeClassifier, preorder_tree

__all__ = ["GrowLimits", "Split", "best_split", "grow_maximal"]

# twice a label's sign: its cumulative sums are 2s, summed in place in int32
_TWICE_SIGNS = np.array([-2, 2], dtype=np.int32)


@dataclass(frozen=True)
class GrowLimits:
    max_leaves: int | None = None
    min_node_size: int = 1

    def __post_init__(self):
        if self.max_leaves is not None:
            check_integer("max_leaves", self.max_leaves, least=1)
        check_integer("min_node_size", self.min_node_size, least=1)


@dataclass(frozen=True)
class Split:
    var: int  # 1-based
    threshold: float
    left_size: int  # rows the cut sends left
    left_ones: int  # of those, rows labelled 1
    err_count: int  # total child misclassifications


def best_split(data: Dataset, rows, min_node_size: int = GrowLimits.min_node_size,
               order: np.ndarray | None = None) -> Split | None:
    """Exhaustive scan over all variables and all cuts between consecutive
    distinct sorted values; None when no cut strictly beats the
    majority-leaf error of the subset.

    With labels read as signs +1 (y = 1) and -1 (y = 0), let s be the
    signed sum of the rows left of a cut and S = 2 n1 - m that of the whole
    node.  The cut leaves (m - max(|S|, |2s - S|)) / 2 errors, against
    (m - |S|) / 2 for the majority leaf.  One in-place cumulative sum of
    twice the signs gives 2s at every one of the m positions of every
    variable; its last entry is 2S, so the node is label-pure when
    |S| = m.  Each position scores |2s - S|, and the best cut is the first
    row-major maximum of that score: the first maximum or the first
    minimum of 2s, whichever lies farther from S, and the earlier of the
    two when they are as far.  It is a split exactly when its score
    exceeds |S|.  The last position (nothing right of it) scores |S|, and
    a cut that is not allowed (inside a run of equal values, or fewer than
    ``min_node_size`` rows from either end) has its 2s set to S, so it
    scores 0; neither can win.  The i + 1 rows left of the cut after
    position i hold (i + 1 + s) / 2 ones.  ``min_node_size`` must be an
    integer of at least 1, as in ``GrowLimits``.

    ``order`` is the (p, m) presort of ``rows`` (each row of it sorts one
    feature over the node's rows), so with it ``rows`` must be the m rows
    that ``order`` sorts, and another count raises ``ValueError``; without
    it the search runs on ``data.subset(rows)`` and that subset's
    ``order``.  Only the columns in ``data.tied`` are checked for ties.  The
    threshold between neighbours lo < hi is their midpoint when
    lo <= mid < hi, else lo, so ``x > threshold`` routes exactly the
    partition scored, which ``Split.left_size`` and ``left_ones`` count:
    the first ``left_size`` rows of the split variable's order."""
    check_integer("min_node_size", min_node_size, least=1)
    if order is None:
        data = data.subset(rows)
        order = data.order
    elif len(rows) != order.shape[1]:
        raise ValueError(f"order sorts {order.shape[1]} rows, but {len(rows)} rows were given")
    m = order.shape[1]
    if m < 2 * min_node_size:
        return None  # too small for two children

    # 2s after each of the m positions of each variable
    cum = _TWICE_SIGNS.take(data.y).take(order)
    np.add.accumulate(cum, axis=1, out=cum)
    S = cum.item(m - 1) // 2
    if abs(S) == m:
        return None  # label-pure
    tied = data.tied
    if tied.size:
        svals = np.take_along_axis(data.X.T[tied], order[tied], 1)
        var, pos = np.nonzero(svals[:, 1:] == svals[:, :-1])
        cum[tied[var], pos] = S
    if min_node_size > 1:
        cum[:, :min_node_size - 1] = S
        cum[:, m - min_node_size:] = S

    # the first row-major maximum of |2s - S| is the smallest variable
    # index, and within it the smallest cut position, i.e. threshold
    best, low = int(cum.argmax()), int(cum.argmin())
    g, g_low = cum.item(best) - S, S - cum.item(low)
    if g_low > g or (g_low == g and low < best):
        best, g = low, g_low
    if g <= abs(S):
        return None
    var0, i = divmod(best, m)
    lo, hi = data.X.item(order.item(var0, i), var0), data.X.item(order.item(var0, i + 1), var0)
    mid = (lo + hi) / 2.0
    ones_left = (i + 1 + cum.item(best) // 2) // 2
    return Split(var0 + 1, mid if lo <= mid < hi else lo, i + 1, ones_left, (m - g) // 2)


def grow_maximal(data: Dataset, limits: GrowLimits | None = None) -> TreeClassifier:
    """Grow until no split strictly reduces the misclassification count or
    the leaf budget is exhausted.  With a leaf budget, nodes are expanded
    best-first by error reduction (ties by creation order).  Each leaf has
    its training majority label, 0 on a tie.  The tree carries each node's
    label counts on `data` (see ``tree.node_counts``)."""
    if limits is None:
        limits = GrowLimits()
    min_size, p = limits.min_node_size, data.p
    # each split adds one leaf and two nodes, so k leaves take 2k - 1 nodes
    max_nodes = float("inf") if limits.max_leaves is None else 2 * limits.max_leaves - 1
    n1 = int(data.y.sum())
    n0s, n1s = [data.n - n1], [n1]  # training rows of each label at each node
    # growth-order arena: None until a node is split, when it becomes
    # Internal and its two children are appended after it
    nodes: list = [None]
    heap: list = []  # (-error reduction, node index, split, node's order)
    goes_right = np.zeros(data.n, dtype=bool)

    def consider(i: int, order: np.ndarray):
        split = best_split(data, order[0], min_size, order)
        if split is not None:
            heapq.heappush(heap, (split.err_count - min(n0s[i], n1s[i]), i, split, order))

    # a node is searched unless its counts show that best_split finds no
    # split there: label-pure, or too small for two children
    if 0 < n1 < data.n and data.n >= 2 * min_size:
        consider(0, data.order)
    while heap and len(nodes) < max_nodes:
        _, i, split, order = heapq.heappop(heap)
        left = len(nodes)
        nodes[i] = Internal(split.var, split.threshold, left, left + 1)
        nodes += [None, None]
        size, ones = split.left_size, split.left_ones
        rsize, rones = n0s[i] + n1s[i] - size, n1s[i] - ones
        n0s += [size - ones, rsize - rones]
        n1s += [ones, rones]
        search_left = 0 < ones < size and size >= 2 * min_size
        search_right = 0 < rones < rsize and rsize >= 2 * min_size
        if search_left or search_right:
            # the threshold lies in [lo, hi), so the rows it routes left are
            # the first `size` of the split variable's order
            goes_right[order[0]] = True
            goes_right[order[split.var - 1, :size]] = False
            # a stable filter of a sorted row keeps it sorted
            to_right, flat = goes_right.take(order).ravel(), order.ravel()
            if search_left:
                consider(left, flat.compress(~to_right).reshape(p, size))
            if search_right:
                consider(left + 1, flat.compress(to_right).reshape(p, rsize))

    # each node never split is a leaf of its majority label
    nodes = [Leaf(int(b > a)) if nd is None else nd for nd, a, b in zip(nodes, n0s, n1s)]
    return preorder_tree(nodes, counts=(data, n0s, n1s))
