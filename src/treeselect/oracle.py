"""Exhaustive desk-scale ground truth for the combinatorial and pruning claims.

Everything here is exponential by design and guarded by caps: tree-class
enumeration and counting, exact in-class empirical risk minimization,
exact penalized selection over all small classes, shattering counts, and
brute-force optimization over all pruned subtrees.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .designs import Dataset
from .penalties import penalty_value
from .tree import (LEAF_SHAPE, ClassDescriptor, Internal, Leaf, TreeClassifier,
                   tree_from_class)

__all__ = [
    "ResourceCapError",
    "ClassEnumeration",
    "catalan",
    "class_count",
    "enumerate_shapes",
    "enumerate_classes",
    "erm_in_class",
    "exhaustive_select",
    "shattering_count",
    "brute_force_best_subtree",
]

MAX_SIZE = 30  # catalan/class_count are certified overflow-free up to here
CLASS_CAP = 100_000  # classes enumerate_classes may list
COMBO_CAP = 200_000  # threshold combinations, classifiers or pruned subtrees


class ResourceCapError(RuntimeError):
    """An exhaustive procedure would exceed CLASS_CAP or COMBO_CAP."""


@dataclass(frozen=True)
class ClassEnumeration:
    k: int
    configurations: tuple
    classes: tuple[ClassDescriptor, ...]


def catalan(k: int) -> int:
    """Number of binary tree shapes with k leaves: C(2k-2, k-1)/k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > MAX_SIZE:
        raise OverflowError(f"catalan is only certified up to k = {MAX_SIZE}")
    return math.comb(2 * k - 2, k - 1) // k


def class_count(p: int, k: int) -> int:
    """Number of (configuration, variable list) classes: p^(k-1) * catalan(k)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return p ** (k - 1) * catalan(k)


def enumerate_shapes(k: int) -> list:
    """Every shape with k leaves, by left subtree size, then left, then right shape."""
    if k < 1:
        raise ValueError("k must be >= 1")
    shapes = [None, [LEAF_SHAPE]]  # shapes[j]: every shape with j leaves
    for j in range(2, k + 1):
        shapes.append([(left, right) for i in range(1, j)
                       for left in shapes[i] for right in shapes[j - i]])
    return shapes[k]


def enumerate_classes(p: int, k: int) -> ClassEnumeration:
    total = class_count(p, k)
    if total > CLASS_CAP:
        raise ResourceCapError(f"{total} classes exceeds the cap of {CLASS_CAP}")
    shapes = enumerate_shapes(k)
    classes = []
    for shape in shapes:
        for variables in itertools.product(range(1, p + 1), repeat=k - 1):
            classes.append(ClassDescriptor(shape, variables))
    return ClassEnumeration(k, tuple(shapes), tuple(classes))


def _threshold_grid(desc: ClassDescriptor, X: np.ndarray) -> tuple[list[list[float]], int]:
    """Threshold candidates of each split variable, and the number of their
    combinations.  The candidates are the midpoints of consecutive distinct
    sorted values, bracketed by -inf and +inf so degenerate splits can
    route everything one way."""
    cands = []
    for v in desc.variables:
        vals = np.unique(X[:, v - 1])
        mids = [float((a + b) / 2.0) for a, b in zip(vals, vals[1:])]
        cands.append([-math.inf] + mids + [math.inf])
    return cands, math.prod(len(c) for c in cands)


def _route(desc: ClassDescriptor, thresholds, X: np.ndarray) -> np.ndarray:
    """BFS-order leaf index reached by each row."""
    # walk the shape in BFS order, tracking which rows reach each node
    queue = [(desc.configuration, np.arange(X.shape[0]))]
    var_iter = iter(desc.variables)
    thr_iter = iter(thresholds)
    out = np.empty(X.shape[0], dtype=np.int64)
    leaf_idx = 0
    while queue:
        shape, rows = queue.pop(0)
        if shape == LEAF_SHAPE:
            out[rows] = leaf_idx
            leaf_idx += 1
            continue
        var = next(var_iter)
        thr = next(thr_iter)
        right = X[rows, var - 1] > thr
        queue.append((shape[0], rows[~right]))
        queue.append((shape[1], rows[right]))
    return out


def erm_in_class(desc: ClassDescriptor, data: Dataset) -> tuple[TreeClassifier, Fraction]:
    """Exact empirical risk minimizer over all threshold assignments and
    leaf labelings of the class; ties go to the lexicographically smallest
    threshold vector."""
    cands, total = _threshold_grid(desc, data.X)
    if total > COMBO_CAP:
        raise ResourceCapError(
            f"{total} threshold combinations exceeds the cap of {COMBO_CAP}")
    k = desc.size
    best_err = None
    best_thr = None
    best_labels = None
    for thresholds in itertools.product(*cands):
        cells = _route(desc, thresholds, data.X)
        err = 0
        labels = []
        for c in range(k):
            mask = cells == c
            n1 = int(data.y[mask].sum())
            n0 = int(mask.sum()) - n1
            labels.append(0 if n0 >= n1 else 1)
            err += min(n0, n1)
        if best_err is None or err < best_err:
            best_err, best_thr, best_labels = err, thresholds, labels
    tree = tree_from_class(desc, best_thr, best_labels)
    return tree, Fraction(best_err, data.n)


def exhaustive_select(data: Dataset, spec, k_max: int) -> tuple[TreeClassifier, float]:
    """Global minimizer of empirical risk + penalty over every class of
    size at most k_max (exact in-class ERM per class)."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    best_tree = None
    best_cost = None
    for k in range(1, k_max + 1):
        for desc in enumerate_classes(data.p, k).classes:
            tree, risk = erm_in_class(desc, data)
            cost = float(risk) + penalty_value(spec, k, data.n, data.p)
            if best_cost is None or cost < best_cost:
                best_tree, best_cost = tree, cost
    return best_tree, best_cost


def shattering_count(desc: ClassDescriptor, sample: np.ndarray) -> int:
    """Number of distinct sets {x in sample : f(x) = 1} over all classifiers
    in the class, by exact enumeration of threshold positions and leaf
    labelings with bitmask deduplication."""
    X = np.asarray(sample, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("sample must be a 2-D array of feature vectors")
    cands, combos = _threshold_grid(desc, X)
    total = combos * 2 ** desc.size
    if total > COMBO_CAP:
        raise ResourceCapError(f"{total} classifier variants exceeds the cap of {COMBO_CAP}")
    k = desc.size
    seen: set[int] = set()
    for thresholds in itertools.product(*cands):
        cells = _route(desc, thresholds, X)
        masks = [0] * k
        for row, c in enumerate(cells):
            masks[c] |= 1 << row
        for labeling in itertools.product((0, 1), repeat=k):
            acc = 0
            for c in range(k):
                if labeling[c]:
                    acc |= masks[c]
            seen.add(acc)
    return len(seen)


def _prunings(tree: TreeClassifier) -> list:
    """All pruning patterns of the tree: None collapses a node, (l, r) keeps
    it with pruned children.  One reverse sweep of the arena (children
    follow their parent) builds each node's list from its children's."""
    below: dict = {}
    for idx in range(len(tree.nodes) - 1, -1, -1):
        nd = tree.nodes[idx]
        out = [None]
        if isinstance(nd, Internal):
            lefts, rights = below.pop(nd.left), below.pop(nd.right)
            out += [(l, r) for l in lefts for r in rights]
        below[idx] = out
    return below[0]


def _materialize(tree: TreeClassifier, pattern, data: Dataset
                 ) -> tuple[TreeClassifier, int]:
    """Build the pruned subtree in pre-order with majority leaf labels;
    returns the tree and its training misclassification count."""
    nodes: list = []
    err_total = 0
    # (tree index, pattern, rows reaching it, arena parent, child slot)
    stack = [(0, pattern, np.arange(data.n), None, 0)]
    while stack:
        idx, pat, rows, parent, slot = stack.pop()
        if parent is not None:
            nodes[parent][slot] = len(nodes)
        if pat is None:
            n1 = int(data.y[rows].sum())
            n0 = rows.size - n1
            nodes.append(Leaf(0 if n0 >= n1 else 1))
            err_total += min(n0, n1)
        else:
            nd = tree.nodes[idx]
            right = data.X[rows, nd.var - 1] > nd.threshold
            # right is pushed first so the left subtree is laid out first
            stack.append((nd.right, pat[1], rows[right], len(nodes), 3))
            stack.append((nd.left, pat[0], rows[~right], len(nodes), 2))
            nodes.append([nd.var, nd.threshold, None, None])
    return (TreeClassifier(tuple(nd if isinstance(nd, Leaf) else Internal(*nd)
                                 for nd in nodes)), err_total)


def brute_force_best_subtree(tree: TreeClassifier, data: Dataset, pen
                             ) -> tuple[TreeClassifier, Fraction | float]:
    """Enumerate every pruned subtree (with re-optimized leaf labels) and
    return the penalized-cost minimizer; ties go to the smallest tree."""
    # count the prunings by _prunings' reverse sweep before listing any
    count = [1] * len(tree.nodes)
    for idx in range(len(tree.nodes) - 1, -1, -1):
        nd = tree.nodes[idx]
        if isinstance(nd, Internal):
            count[idx] = 1 + count[nd.left] * count[nd.right]
    if count[0] > COMBO_CAP:
        raise ResourceCapError(f"{count[0]} pruned subtrees exceeds the cap of {COMBO_CAP}")
    best = None
    for pattern in _prunings(tree):
        sub, err = _materialize(tree, pattern, data)
        cost = Fraction(err, data.n) + pen(sub.n_leaves)
        key = (cost, sub.n_leaves)
        if best is None or key < best[0]:
            best = (key, sub)
    return best[1], best[0][0]
