"""CART-style greedy growing with misclassification count as impurity.

A node is split only when some (variable, midpoint) cut strictly reduces
the total misclassification count of the node under majority labelling.
Ties break to the smallest variable index, then the smallest threshold,
so growing is a deterministic, order-invariant function of the data.

Each column is sorted once per dataset (``Dataset.order``, CART's
presort).  A node holds a (p, m) order: row j lists the node's rows sorted
by feature j.  Splitting a node partitions every row of its order with one
membership mask; a stable filter of a sorted row is still sorted, so no
node sorts again.  Rows with equal values may sit in any order within
their run: only the last position of a run is a valid cut, and the count
of ones up to that position is the same for every order of the run, so
the chosen split does not depend on how ties were ordered.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .designs import Dataset, check_integer
from .tree import Internal, Leaf, TreeClassifier, preorder_tree

__all__ = ["GrowLimits", "Split", "best_split", "grow_maximal"]

_INVALID = np.iinfo(np.int32).max  # error of a cut that is not allowed


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
    left_label: int
    right_label: int
    err_count: int  # total child misclassifications


def _majority(n0: int, n1: int) -> tuple[int, int]:
    """(label, errors) under majority vote; ties resolve to label 0."""
    return (0, n1) if n0 >= n1 else (1, n0)


def _node_order(data: Dataset, rows) -> np.ndarray:
    """The (p, m) presort of a row subset, filtered from ``data.order``; a
    row listed twice appears twice."""
    counts = np.bincount(np.arange(data.n)[rows], minlength=data.n)
    order = data.order
    return np.repeat(order, counts[order].ravel()).reshape(data.p, -1)


def _sorted_values(XT: np.ndarray, order: np.ndarray) -> np.ndarray:
    """(p, m) feature values along each column's order, by one flat take
    from the C-contiguous (p, n) transpose of X."""
    flat = order + np.arange(0, XT.size, XT.shape[1])[:, None]
    return XT.take(flat)


def best_split(data: Dataset, rows, min_node_size: int = 1,
               order: np.ndarray | None = None, XT: np.ndarray | None = None) -> Split | None:
    """Exhaustive scan over all variables and all midpoints between
    consecutive distinct sorted values; None when no cut strictly beats
    the majority-leaf error of the subset.

    ``order`` is the (p, m) presort of ``rows`` (each row of it sorts one
    feature over the subset); it is derived from ``data.order`` when not
    given.  ``XT`` is a C-contiguous copy of ``data.X.T``, made here when
    not given; ``grow_maximal`` makes one per tree."""
    rows = np.asarray(rows)
    if rows.size == 0:
        raise ValueError("row subset is empty")
    y = data.y[rows]
    m = y.size
    n1 = int(y.sum())
    parent_err = min(m - n1, n1)
    if parent_err == 0 or m < 2 * min_node_size:
        return None  # label-pure, or too small for two children
    if order is None:
        order = _node_order(data, rows)
    if XT is None:
        XT = np.ascontiguousarray(data.X.T)

    svals = _sorted_values(XT, order)
    # ones among the first i+1 sorted rows, for cuts after positions 0..m-2
    left_ones = np.cumsum(data.y.astype(np.int8)[order[:, :-1]], axis=1, dtype=np.int32)
    left_zeros = np.arange(1, m, dtype=np.int32) - left_ones
    err = np.minimum(left_ones, left_zeros)
    right_err = np.subtract(n1, left_ones)  # ones right of the cut
    np.subtract(m - n1, left_zeros, out=left_zeros)  # zeros right of the cut
    np.minimum(right_err, left_zeros, out=right_err)
    err += right_err

    # only the last of a run of equal values is a cut, and both sides need
    # min_node_size rows
    err[svals[:, 1:] == svals[:, :-1]] = _INVALID
    err[:, :min_node_size - 1] = _INVALID
    err[:, m - min_node_size:] = _INVALID

    # row-major argmin: smallest variable index first, then smallest
    # threshold (cut positions are threshold-sorted within a row)
    best = int(np.argmin(err))
    var0, i = divmod(best, m - 1)
    best_err = int(err[var0, i])
    if best_err >= parent_err:
        return None
    threshold = float((svals[var0, i] + svals[var0, i + 1]) / 2.0)
    lo = int(left_ones[var0, i])
    ll, _ = _majority(i + 1 - lo, lo)
    rl, _ = _majority(m - i - 1 - (n1 - lo), n1 - lo)
    return Split(var0 + 1, threshold, ll, rl, best_err)


def grow_maximal(data: Dataset, limits: GrowLimits | None = None) -> TreeClassifier:
    """Grow until no split strictly reduces the misclassification count or
    the leaf budget is exhausted.  With a leaf budget, nodes are expanded
    best-first by error reduction (ties by creation order)."""
    if limits is None:
        limits = GrowLimits()
    order = data.order
    XT = np.ascontiguousarray(data.X.T)
    # a cached order goes stale if X is written to afterwards; XT was just
    # copied from X, so checking the order against it reads X's values
    svals = _sorted_values(XT, order)
    if not (svals[:, 1:] >= svals[:, :-1]).all():
        raise ValueError("Dataset.order no longer sorts X: "
                         "the features were changed after the order was cached")
    del svals
    n1 = int(data.y.sum())
    label, _ = _majority(data.n - n1, n1)
    # growth-order arena: the two children of a split are appended after it
    nodes: list = [Leaf(label)]
    labels = [label]
    rows_at = [np.arange(data.n)]
    order_at = [order]
    heap: list = []  # (-error reduction, node index, split)
    goes_right = np.zeros(data.n, dtype=bool)

    def consider(i: int):
        rows = rows_at[i]
        split = best_split(data, rows, limits.min_node_size, order_at[i], XT)
        if split is None:
            order_at[i] = None
        else:
            n1 = int(data.y[rows].sum())
            parent_err = min(n1, rows.size - n1)
            heapq.heappush(heap, (-(parent_err - split.err_count), i, split))

    consider(0)
    n_leaves = 1
    while heap and (limits.max_leaves is None or n_leaves < limits.max_leaves):
        _, i, split = heapq.heappop(heap)
        rows, order = rows_at[i], order_at[i]
        right = data.X[rows, split.var - 1] > split.threshold
        # a stable filter of a sorted row keeps it sorted
        goes_right[rows] = right
        to_right = goes_right[order].ravel()
        order = order.ravel()
        left = len(nodes)
        nodes[i] = Internal(split.var, split.threshold, left, left + 1)
        nodes += [Leaf(split.left_label), Leaf(split.right_label)]
        labels += [split.left_label, split.right_label]
        rows_at += [rows[~right], rows[right]]
        order_at += [order.compress(~to_right).reshape(data.p, -1),
                     order.compress(to_right).reshape(data.p, -1)]
        rows_at[i] = order_at[i] = None
        n_leaves += 1
        consider(left)
        consider(left + 1)

    return preorder_tree(nodes, [False] * len(nodes), labels)
