"""CART-style greedy growing with misclassification count as impurity.

A node is split only when some (variable, midpoint) cut strictly reduces
the total misclassification count of the node under majority labelling.
Ties break to the smallest variable index, then the smallest threshold,
so growing is a deterministic, order-invariant function of the data.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .designs import Dataset
from .tree import Internal, Leaf, TreeClassifier, preorder_tree

__all__ = ["GrowLimits", "Split", "best_split", "grow_maximal"]

_BIG = np.iinfo(np.int64).max


@dataclass(frozen=True)
class GrowLimits:
    max_leaves: int | None = None
    min_node_size: int = 1

    def __post_init__(self):
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


def best_split(data: Dataset, rows, min_node_size: int = 1) -> Split | None:
    """Exhaustive scan over all variables and all midpoints between
    consecutive distinct sorted values; None when no cut strictly beats
    the majority-leaf error of the subset."""
    rows = np.asarray(rows)
    if rows.size == 0:
        raise ValueError("row subset is empty")
    X = data.X[rows]
    y = data.y[rows]
    m = y.size
    n1 = int(y.sum())
    parent_err = min(m - n1, n1)
    if parent_err == 0 and n1 in (0, m):
        return None  # label-pure
    if m < 2 * min_node_size or m < 2:
        return None

    order = np.argsort(X, axis=0, kind="stable")
    svals = np.take_along_axis(X, order, axis=0)
    sy = y[order]
    ones = np.cumsum(sy, axis=0)  # ones among the first i+1 sorted rows

    # cut after sorted position i (0..m-2): left size i+1
    left_n = np.arange(1, m, dtype=np.int64)[:, None]
    left_ones = ones[:-1]
    left_err = np.minimum(left_ones, left_n - left_ones)
    right_ones = n1 - left_ones
    right_n = m - left_n
    right_err = np.minimum(right_ones, right_n - right_ones)
    err = left_err + right_err

    valid = svals[1:] > svals[:-1]
    if min_node_size > 1:
        sizes_ok = (left_n >= min_node_size) & (right_n >= min_node_size)
        valid = valid & sizes_ok
    err = np.where(valid, err, _BIG)

    # column-major argmin: smallest variable index first, then smallest
    # threshold (cut positions are threshold-sorted within a column)
    flat = err.T.ravel()
    best = int(np.argmin(flat))
    best_err = int(flat[best])
    if best_err >= parent_err:
        return None
    var0, i = divmod(best, m - 1)
    threshold = float((svals[i, var0] + svals[i + 1, var0]) / 2.0)
    ll, _ = _majority(int(i + 1 - left_ones[i, var0]), int(left_ones[i, var0]))
    rl, _ = _majority(int(m - i - 1 - (n1 - left_ones[i, var0])), int(n1 - left_ones[i, var0]))
    return Split(var0 + 1, threshold, ll, rl, best_err)


def grow_maximal(data: Dataset, limits: GrowLimits | None = None) -> TreeClassifier:
    """Grow until no split strictly reduces the misclassification count or
    the leaf budget is exhausted.  With a leaf budget, nodes are expanded
    best-first by error reduction (ties by creation order)."""
    if limits is None:
        limits = GrowLimits()
    n1 = int(data.y.sum())
    label, _ = _majority(data.n - n1, n1)
    # growth-order arena: the two children of a split are appended after it
    nodes: list = [Leaf(label)]
    labels = [label]
    rows_at = [np.arange(data.n)]
    heap: list = []  # (-error reduction, node index, split)

    def consider(i: int):
        rows = rows_at[i]
        split = best_split(data, rows, limits.min_node_size)
        if split is not None:
            n1 = int(data.y[rows].sum())
            parent_err = min(n1, rows.size - n1)
            heapq.heappush(heap, (-(parent_err - split.err_count), i, split))

    consider(0)
    n_leaves = 1
    while heap and (limits.max_leaves is None or n_leaves < limits.max_leaves):
        _, i, split = heapq.heappop(heap)
        rows = rows_at[i]
        right = data.X[rows, split.var - 1] > split.threshold
        left = len(nodes)
        nodes[i] = Internal(split.var, split.threshold, left, left + 1)
        nodes += [Leaf(split.left_label), Leaf(split.right_label)]
        labels += [split.left_label, split.right_label]
        rows_at += [rows[~right], rows[right]]
        rows_at[i] = None
        n_leaves += 1
        consider(left)
        consider(left + 1)

    return preorder_tree(nodes, [False] * len(nodes), labels)
