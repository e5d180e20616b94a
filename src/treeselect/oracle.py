"""Exhaustive desk-scale ground truth for the combinatorial and pruning claims.

Everything here is exponential by design and guarded by caps: tree-class
enumeration and counting, exact in-class empirical risk minimization,
exact penalized selection over all small classes, shattering counts, and
brute-force optimization over all pruned subtrees.

The oracle keeps its own routing, independent of the library's router,
node counts and split search that it checks.  A class's threshold
assignments are routed in blocks of at most BLOCK_CELLS (assignment, row)
cells, one _route walk of the class shape per block, and in-class ERM
counts a whole block with one bincount.  Each split variable's candidate
thresholds are computed once per search and shared by all of its classes.
Brute-force pruning routes the tree once for every node's leaf error,
scores each pruning from the errors and leaf count carried with it, and
builds only the winner.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .designs import BLOCK_CELLS, Dataset, check_integer
from .penalties import penalty_value
from .tree import (LEAF_SHAPE, ClassDescriptor, Internal, Leaf, TreeClassifier,
                   tree_from_class)

__all__ = [
    "ResourceCapError",
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


def enumerate_classes(p: int, k: int) -> tuple[ClassDescriptor, ...]:
    """Every class of size k: by shape in enumerate_shapes order, then by
    variable list in lexicographic order."""
    total = class_count(p, k)
    if total > CLASS_CAP:
        raise ResourceCapError(f"{total} classes exceeds the cap of {CLASS_CAP}")
    return tuple(ClassDescriptor(shape, variables) for shape in enumerate_shapes(k)
                 for variables in itertools.product(range(1, p + 1), repeat=k - 1))


class _Candidates(dict):
    """Each split variable's candidate thresholds on the sample X, computed
    on first use and kept, so that the classes of one search share them:
    one per pair of consecutive distinct sorted values lo < hi, bracketed
    by -inf and +inf so degenerate splits can route everything one way.
    The candidate is the midpoint when lo <= mid < hi, else lo: the
    midpoint of neighbouring doubles may round onto hi, and that of huge
    values may overflow, and either would lose the cut between them."""

    def __init__(self, X: np.ndarray):
        super().__init__()
        self.X = X

    def __missing__(self, v: int) -> np.ndarray:
        vals = np.unique(self.X[:, v - 1])
        lo, hi = vals[:-1], vals[1:]
        with np.errstate(over="ignore"):
            mid = (lo + hi) / 2.0
        cuts = np.where((lo <= mid) & (mid < hi), mid, lo)
        self[v] = np.concatenate(([-math.inf], cuts, [math.inf]))
        return self[v]


def _assignments(desc: ClassDescriptor, candidates: _Candidates, variants: int, what: str):
    """Yield (thresholds, cells) blocks covering every threshold assignment
    of the class, in lexicographic (itertools.product) order: thresholds is
    (b, k-1) in BFS internal-node order and cells (b, n) holds the BFS leaf
    index each row reaches under each of the b assignments, with b * n at
    most BLOCK_CELLS (b >= 1).  Raises ValueError for a variable beyond the
    sample's columns and ResourceCapError when assignments * variants
    exceeds COMBO_CAP, both before routing anything.  Each split node's
    (candidates, n) comparison matrix is computed once per class; every
    block is then routed by one _route call."""
    X = candidates.X
    n, p = X.shape
    wide = sorted({v for v in desc.variables if v > p})
    if wide:
        raise ValueError(f"class variables {wide} exceed the sample's {p} columns")
    cands = [candidates[v] for v in desc.variables]
    count = math.prod(c.size for c in cands)
    if count * variants > COMBO_CAP:
        raise ResourceCapError(f"{count * variants} {what} exceeds the cap of {COMBO_CAP}")
    goes_right = [X[:, v - 1] > c[:, None] for v, c in zip(desc.variables, cands)]
    step = max(1, BLOCK_CELLS // max(n, 1))
    for start in range(0, count, step):
        block = np.arange(start, min(start + step, count))
        thresholds = np.empty((block.size, len(cands)))
        masks = [None] * len(cands)
        # the mixed-radix digits of the flat index, last threshold fastest,
        # give the product order
        for j in range(len(cands) - 1, -1, -1):
            block, digit = np.divmod(block, cands[j].size)
            thresholds[:, j] = cands[j][digit]
            masks[j] = goes_right[j][digit]
        yield thresholds, _route(desc, masks, (thresholds.shape[0], n))


def _route(desc: ClassDescriptor, goes_right: list, shape: tuple) -> np.ndarray:
    """BFS-order leaf index each row reaches under each assignment of a
    block, as an array of the block's (b, n) shape; goes_right[j] is the
    (b, n) mask of rows the j-th BFS internal node sends right.  One BFS
    walk of the class shape carries a (b, n) reach mask per node."""
    queue = [desc.configuration]  # shapes in BFS order, as in tree_from_class
    reach = [np.ones(shape, dtype=bool)]  # reach[i]: rows reaching queue[i]
    splits = iter(goes_right)
    out = np.empty(shape, dtype=np.int64)
    leaf_idx = 0
    for node, rows in zip(queue, reach):  # both lists grow as the walk goes
        if node == LEAF_SHAPE:
            out[rows] = leaf_idx
            leaf_idx += 1
        else:
            right = next(splits)
            queue.extend(node)
            reach += [rows & ~right, rows & right]
    return out


def erm_in_class(desc: ClassDescriptor, data: Dataset) -> tuple[TreeClassifier, Fraction]:
    """Exact empirical risk minimizer over all threshold assignments and
    leaf labelings of the class; ties go to the lexicographically smallest
    threshold vector."""
    return _erm_in_class(desc, data, _Candidates(data.X))


def _erm_in_class(desc: ClassDescriptor, data: Dataset, candidates: _Candidates
                  ) -> tuple[TreeClassifier, Fraction]:
    k = desc.size
    best_err = best = None
    for thresholds, cells in _assignments(desc, candidates, 1, "threshold combinations"):
        b = cells.shape[0]
        keys = 2 * cells + data.y + 2 * k * np.arange(b)[:, None]
        counts = np.bincount(keys.ravel(), minlength=2 * k * b).reshape(b, k, 2)
        errs = counts.min(axis=2).sum(axis=1)
        i = int(errs.argmin())  # the first minimum: the smallest thresholds in the block
        if best_err is None or errs[i] < best_err:
            # argmax takes the first maximum, so a tied cell is labelled 0
            best_err = int(errs[i])
            best = thresholds[i].tolist(), counts[i].argmax(axis=1).tolist()
    return tree_from_class(desc, *best), Fraction(best_err, data.n)


def exhaustive_select(data: Dataset, spec, k_max: int) -> tuple[TreeClassifier, float]:
    """Global minimizer of empirical risk + penalty over every class of
    size at most k_max (exact in-class ERM per class)."""
    check_integer("k_max", k_max)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    best_tree = None
    best_cost = None
    candidates = _Candidates(data.X)
    for k in range(1, k_max + 1):
        for desc in enumerate_classes(data.p, k):
            tree, risk = _erm_in_class(desc, data, candidates)
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
    labelings = np.array(list(itertools.product((False, True), repeat=desc.size)))
    seen: set[bytes] = set()
    for _, cells in _assignments(desc, _Candidates(X), len(labelings), "classifier variants"):
        for labels in labelings:
            # each assignment's set under this labeling, as a packed row bitmask
            seen.update(map(bytes, np.packbits(labels[cells], axis=1)))
    return len(seen)


def _leaf_errors(tree: TreeClassifier, data: Dataset) -> list:
    """Each node's training errors as a majority-labelled leaf, min(n0, n1)
    over the rows reaching it, from one forward walk of the arena (parents
    precede their children)."""
    rows_at = [np.arange(data.n)] + [None] * (len(tree.nodes) - 1)
    errors = []
    for idx, nd in enumerate(tree.nodes):
        rows, rows_at[idx] = rows_at[idx], None
        n1 = int(data.y[rows].sum())
        errors.append(min(rows.size - n1, n1))
        if isinstance(nd, Internal):
            right = data.X[rows, nd.var - 1] > nd.threshold
            rows_at[nd.left], rows_at[nd.right] = rows[~right], rows[right]
    return errors


def _prunings(tree: TreeClassifier, errors: list) -> list:
    """All pruning patterns of the tree as (pattern, errors, leaves): None
    collapses a node, (l, r) keeps it with pruned children; errors sums the
    per-node leaf errors over the pattern's leaves.  One reverse sweep of the
    arena (children follow their parent) builds each node's list from its
    children's.  The carried counts are enough to score every pattern, so
    only the winner is ever materialized."""
    below: dict = {}
    for idx in range(len(tree.nodes) - 1, -1, -1):
        nd = tree.nodes[idx]
        out = [(None, errors[idx], 1)]
        if isinstance(nd, Internal):
            lefts, rights = below.pop(nd.left), below.pop(nd.right)
            out += [((lp, rp), le + re, ll + rl)
                    for lp, le, ll in lefts for rp, re, rl in rights]
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
    if tree.max_var() > data.p:
        raise ValueError("feature matrix too narrow for this tree")
    # count the prunings by _prunings' reverse sweep before listing any
    count = [1] * len(tree.nodes)
    for idx in range(len(tree.nodes) - 1, -1, -1):
        nd = tree.nodes[idx]
        if isinstance(nd, Internal):
            count[idx] = 1 + count[nd.left] * count[nd.right]
    if count[0] > COMBO_CAP:
        raise ResourceCapError(f"{count[0]} pruned subtrees exceeds the cap of {COMBO_CAP}")
    best = None
    for pattern, err, leaves in _prunings(tree, _leaf_errors(tree, data)):
        key = (Fraction(err, data.n) + pen(leaves), leaves)
        if best is None or key < best[0]:
            best = (key, pattern)
    # only the winner is built
    return _materialize(tree, best[1], data)[0], best[0][0]
