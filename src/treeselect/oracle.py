"""Exhaustive desk-scale ground truth for the combinatorial and pruning claims.

Everything here is exponential by design and guarded by caps: tree-class
enumeration and counting, exact in-class empirical risk minimization,
exact penalized selection over all small classes, shattering counts, and
brute-force optimization over all pruned subtrees.

A tree class is a ClassDescriptor: a configuration, () for a leaf and
(left, right) for a split, with one split variable per internal node in
breadth-first order.  The classes are the oracle's alone, so this module is
the one that knows their breadth-first layout, which _route, _assignments,
_erm_in_class and tree_from_class share.

The oracle keeps its own routing, independent of the library's router,
node counts and split search that it checks.  The classes of one shape are
searched together: their threshold assignments, class by class, are routed
in blocks of at most BLOCK_CELLS (assignment, row) cells, one _route walk
of the shape per block, and in-class ERM counts a whole block's leaves
with one matrix product.  A block gives each assignment's class as its
index, and the search keeps one running winner, which a block's first
minimum replaces only with strictly fewer errors.  Each split variable's
candidate thresholds are computed once per search, and its comparison
matrix once per shape searched.  Exhaustive selection prices each size
before searching it: the risk is never negative, so a size whose penalty
alone reaches the incumbent's cost cannot win and is skipped.  It takes a
searched size's classes from a memoized layout, keeps each shape's one
winner, and builds only the overall winner as a tree.

Brute-force pruning builds a penalty-free table once per (tree, Dataset):
each row walks down the tree once for every node's label counts, and every
pruning is enumerated with the errors and leaf count carried with it, down
to the first pruning of each distinct (errors, leaves) pair and the fewest
errors at each leaf count.  The last table is memoized by weak references,
so a tree asked about at many penalties is walked and enumerated once.
Each penalty then scores, with exact integers when its values are ints or
Fractions, one pair per leaf count, and otherwise every distinct pair; each
distinct winner is built once, labelled from the counts, in the
breadth-first layout of every other tree the oracle returns.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .designs import BLOCK_CELLS, Dataset, check_integer, feature_matrix
from .penalties import penalty_value
from .tree import Internal, Leaf, TreeClassifier

__all__ = [
    "ClassDescriptor",
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


LEAF_SHAPE = ()  # shape of a single leaf; internal shapes are (left, right)


@dataclass(frozen=True)
class ClassDescriptor:
    """Shape plus breadth-first-ordered variable list defining a tree class.

    configuration is a nested tuple: () for a leaf, (left, right) otherwise;
    any other node raises ValueError.  variables[k] is the 1-based variable
    at the k-th internal node in breadth-first order from the root.
    """

    configuration: tuple
    variables: tuple

    def __post_init__(self):
        if len(self.variables) != _leaf_count(self.configuration) - 1:
            raise ValueError("variable list length must equal internal-node count")
        for v in self.variables:
            check_integer("class variable", v, least=1)

    @property
    def size(self) -> int:
        return len(self.variables) + 1  # checked against the shape on construction


def _leaf_count(shape) -> int:
    """The leaves of a configuration, checking each node as it is walked."""
    count, stack = 0, [shape]
    while stack:
        shape = stack.pop()
        if not isinstance(shape, tuple) or len(shape) not in (0, 2):
            raise ValueError("a configuration node must be () or a (left, right) pair")
        if shape == LEAF_SHAPE:
            count += 1
        else:
            stack.extend(shape)
    return count


def catalan(k: int) -> int:
    """Number of binary tree shapes with k leaves: C(2k-2, k-1)/k."""
    check_integer("k", k, least=1)
    if k > MAX_SIZE:
        raise OverflowError(f"catalan is only certified up to k = {MAX_SIZE}")
    return math.comb(2 * k - 2, k - 1) // k


def class_count(p: int, k: int) -> int:
    """Number of (configuration, variable list) classes: p^(k-1) * catalan(k)."""
    check_integer("p", p, least=2)
    return p ** (k - 1) * catalan(k)


def enumerate_shapes(k: int) -> list:
    """Every shape with k leaves, by left subtree size, then left, then right
    shape.  More than CLASS_CAP shapes raise ResourceCapError before any is
    listed."""
    count = catalan(k)
    if count > CLASS_CAP:
        raise ResourceCapError(f"{count} shapes exceeds the cap of {CLASS_CAP}")
    shapes = [None, [LEAF_SHAPE]]  # shapes[j]: every shape with j leaves
    for j in range(2, k + 1):
        shapes.append([(left, right) for i in range(1, j)
                       for left in shapes[i] for right in shapes[j - i]])
    return shapes[k]


def enumerate_classes(p: int, k: int) -> tuple[ClassDescriptor, ...]:
    """Every class of size k: by shape in enumerate_shapes order, then by
    variable list in lexicographic order.  More than CLASS_CAP classes
    raise ResourceCapError."""
    return tuple(ClassDescriptor(shape, tuple(variables)) for shape, lists in _class_layout(p, k)
                 for variables in lists.tolist())


@functools.lru_cache(maxsize=16, typed=True)
def _class_layout(p: int, k: int) -> tuple:
    """Every class of size k as one (shape, variables) group per shape, in
    enumerate_shapes order: variables is the read-only (p^(k-1), k-1) array
    of the variable lists in lexicographic order, one array shared by every
    shape.  The last 16 (p, k) are memoized; more than CLASS_CAP classes
    raise ResourceCapError, which is not memoized."""
    total = class_count(p, k)
    if total > CLASS_CAP:
        raise ResourceCapError(f"{total} classes exceeds the cap of {CLASS_CAP}")
    lists = np.array(list(itertools.product(range(1, p + 1), repeat=k - 1)),
                     dtype=np.int64).reshape(p ** (k - 1), k - 1)
    lists.flags.writeable = False
    return tuple((shape, lists) for shape in enumerate_shapes(k))


def _cuts(column: np.ndarray) -> np.ndarray:
    """One variable's candidate thresholds on a finite sample column: one per
    pair of consecutive distinct values lo < hi, bracketed by -inf and +inf
    so degenerate splits can route everything one way.  The candidate is
    the midpoint when lo <= mid < hi, else lo: the midpoint of neighbouring
    doubles may round onto hi, and that of huge values may overflow, and
    either would lose the cut between them.  The distinct values come by
    np.unique's own steps for floats, a sort of its kind, which orders tied
    -0.0 and 0.0 as it does, then the first value of each run, without the
    numpy.ma import that np.unique's first call makes."""
    s = np.sort(column)
    vals = s[np.concatenate(([True], s[1:] != s[:-1]))]
    lo, hi = vals[:-1], vals[1:]
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    return np.concatenate(([-math.inf], np.where((lo <= mid) & (mid < hi), mid, lo),
                           [math.inf]))


def _stack(X: np.ndarray, cuts: dict, used: list) -> tuple:
    """(base, size, stacked, right) for the sorted variables used: stacked
    stacks their candidates cuts[v] and right their (candidates, n) comparison
    matrices X[:, v - 1] > cut, variable v's size[v] rows starting at base[v]."""
    size = np.zeros(X.shape[1] + 1, dtype=np.int64)
    size[used] = [cuts[v].size for v in used]
    return (np.cumsum(size) - size, size, np.concatenate([np.empty(0)] + [cuts[v] for v in used]),
            np.concatenate([np.empty((0, X.shape[0]), dtype=bool)]
                           + [X[:, v - 1] > cuts[v][:, None] for v in used]))


def _one_class(desc: ClassDescriptor, p: int) -> np.ndarray:
    """The class's variable list as a (1, k-1) array, once it is checked to
    fit a sample of p columns (else ValueError naming the others)."""
    wide = sorted({v for v in desc.variables if v > p})
    if wide:
        raise ValueError(f"class variables {wide} exceed the sample's {p} columns")
    return np.array(desc.variables, dtype=np.int64).reshape(1, desc.size - 1)


def _assignments(shape, variables: np.ndarray, X: np.ndarray, cuts: dict, variants: int,
                 what: str):
    """Yield (classes, thresholds, reach) blocks covering every threshold
    assignment of the classes of one shape, class by class in the order of
    the rows of variables (m, k-1), and within a class in lexicographic
    (itertools.product) order.  A block of b assignments gives each one's
    class as its row index into variables, classes (b,); its thresholds
    (b, k-1) are in BFS internal-node order and reach (k, b, n) is
    _route's, with b * n at most BLOCK_CELLS (b >= 1).

    Raises ResourceCapError for the first class whose assignments *
    variants exceed COMBO_CAP, before any comparison matrix is built or
    anything routed.  Each variable's candidates on the sample X are
    cuts[v], added by _cuts on first use and kept for the search; _stack
    lays out their comparison matrices, and one _route call routes a block."""
    n = X.shape[0]
    lists = variables.tolist()
    used = sorted({v for row in lists for v in row})
    cuts.update({v: _cuts(X[:, v - 1]) for v in used if v not in cuts})
    counts = [math.prod(cuts[v].size for v in row) for row in lists]
    for count in counts:
        if count * variants > COMBO_CAP:
            raise ResourceCapError(f"{count * variants} {what} exceeds the cap of {COMBO_CAP}")
    base, size, stacked, right = _stack(X, cuts, used)
    offsets, sizes = base[variables], size[variables]
    bounds = np.array([0, *itertools.accumulate(counts)])
    starts, ends, total = bounds[:-1], bounds[1:], int(bounds[-1])
    step = max(1, BLOCK_CELLS // n)
    for start in range(0, total, step):
        flat = np.arange(start, min(start + step, total))
        classes = ends.searchsorted(flat, side="right")
        local = flat - starts[classes]
        # each assignment's row of the stack at every node: its class's
        # offsets plus the mixed-radix digits of its index in the class,
        # last threshold fastest, which give the product order
        rows, radix = offsets[classes], sizes[classes]
        for j in range(variables.shape[1] - 1, -1, -1):
            local, digit = np.divmod(local, radix[:, j])
            rows[:, j] += digit
        yield (classes, stacked[rows],
               _route(shape, [right.take(r, axis=0) for r in rows.T], (flat.size, n)))


def _route(shape, goes_right: list, dims: tuple) -> np.ndarray:
    """The rows reaching each leaf under each assignment of a block, as a
    (k, b, n) bool array in BFS leaf order for a block of (b, n) dims;
    goes_right[j] is the (b, n) mask of rows the j-th BFS internal node
    sends right.  One BFS walk of the class shape carries a (b, n) reach
    mask per node."""
    queue = [shape]  # shapes in BFS order, as in tree_from_class
    reach = [np.ones(dims, dtype=bool)]  # reach[i]: rows reaching queue[i]
    splits = iter(goes_right)
    out = np.empty((len(goes_right) + 1,) + dims, dtype=bool)
    leaf_idx = 0
    for node, rows in zip(queue, reach):  # both lists grow as the walk goes
        if node == LEAF_SHAPE:
            out[leaf_idx] = rows
            leaf_idx += 1
        else:
            right = next(splits)
            queue.extend(node)
            reach += [rows > right, rows & right]  # for bools, a > b is a and not b
    return out


def tree_from_class(desc: ClassDescriptor, thresholds, labels) -> TreeClassifier:
    """Materialize a class member in breadth-first layout: thresholds in BFS
    internal-node order, labels in BFS leaf order."""
    splits = zip(desc.variables, thresholds)
    labels = iter(labels)
    nodes: list = []
    queue = [desc.configuration]  # every shape met so far; its index is its arena index
    for shape in queue:  # children appended below are visited in turn
        if shape == LEAF_SHAPE:
            nodes.append(Leaf(next(labels)))
        else:
            nodes.append(Internal(*next(splits), len(queue), len(queue) + 1))
            queue.extend(shape)
    return TreeClassifier(tuple(nodes))


def erm_in_class(desc: ClassDescriptor, data: Dataset) -> tuple[TreeClassifier, Fraction]:
    """Exact empirical risk minimizer over all threshold assignments and
    leaf labelings of the class; ties go to the lexicographically smallest
    threshold vector."""
    _, errors, thresholds, labels = _erm_in_class(
        desc.configuration, _one_class(desc, data.p), data, {})
    return (tree_from_class(desc, thresholds.tolist(), labels.tolist()),
            Fraction(errors, data.n))


def _erm_in_class(shape, variables: np.ndarray, data: Dataset, cuts: dict) -> tuple:
    """The first minimizer over every class of one shape, the rows of
    variables (m, k-1), and their threshold assignments, in _assignments'
    order, as (row of variables, errors, thresholds, labels); cuts is
    _assignments'.  Each block's first minimum replaces the running one
    only when it has strictly fewer errors.  A leaf has nothing to route."""
    k = variables.shape[1] + 1
    if k == 1:
        n1 = int(data.y.sum())
        return variables[0], min(n1, data.n - n1), np.empty(0), np.array([int(n1 > data.n - n1)])
    # each row's indicators of label 0 and label 1: one product then counts
    # every leaf's rows of either label, exactly as floats
    labelled = np.eye(2)[data.y]
    best = None
    for classes, thresholds, reach in _assignments(shape, variables, data.X, cuts, 1,
                                                   "threshold combinations"):
        b = reach.shape[1]
        counts = (reach.reshape(k * b, data.n) @ labelled).reshape(k, b, 2)
        errs = np.minimum(counts[..., 0], counts[..., 1]).sum(axis=0)
        at = int(errs.argmin())
        if best is None or errs[at] < best[1]:
            # a tied leaf is labelled 0, as in growing
            best = (variables[classes[at]], int(errs[at]), thresholds[at],
                    (counts[:, at, 1] > counts[:, at, 0]).astype(np.int64))
    return best


def exhaustive_select(data: Dataset, spec, k_max: int) -> tuple[TreeClassifier, float]:
    """Global minimizer of empirical risk + penalty over every class of
    size at most k_max (exact in-class ERM per class); ties go to the
    first class in size, then enumerate_classes, order.

    A size whose penalty alone is at least the incumbent's cost is skipped
    unenumerated, so its classes never count against CLASS_CAP or
    COMBO_CAP: the risk is never negative and only a strictly smaller
    cost replaces the incumbent, so the result is that of the full search
    for any penalty, monotone in k or not.  The classes of one shape are
    searched together, for their first class of fewest errors, and only
    the winner is built.  Rounding is monotone, so that class's cost is
    the least of the shape's; it is the first class of least cost unless
    e / n + pen rounds two error counts to one float, which needs pen above
    about 2**52 / n, and then the class with fewer errors wins."""
    check_integer("k_max", k_max, least=1)
    best = best_cost = None
    cuts: dict = {}  # each variable's candidates, for every shape searched
    for k in range(1, k_max + 1):
        pen = penalty_value(spec, k, data.n, data.p)
        if best_cost is not None and pen >= best_cost:
            continue
        for shape, variables in _class_layout(data.p, k):
            row, errors, thresholds, labels = _erm_in_class(shape, variables, data, cuts)
            # e / n is rounded once, as float(Fraction(e, n)) is
            cost = errors / data.n + pen
            if best_cost is None or cost < best_cost:
                best, best_cost = (shape, row, thresholds, labels), cost
    shape, variables, thresholds, labels = best
    return (tree_from_class(ClassDescriptor(shape, tuple(variables.tolist())),
                            thresholds.tolist(), labels.tolist()), best_cost)


def shattering_count(desc: ClassDescriptor, sample: np.ndarray) -> int:
    """Number of distinct sets {x in sample : f(x) = 1} over all classifiers
    in the class, by exact enumeration of threshold positions and leaf
    labelings with bitmask deduplication.  The sample is checked as a
    Dataset's features are: 2-D, real, finite and not empty."""
    X = feature_matrix("sample", sample)
    labelings = np.array(list(itertools.product((False, True), repeat=desc.size)))
    seen: set[bytes] = set()
    for *_, reach in _assignments(desc.configuration, _one_class(desc, X.shape[1]),
                                    X, {}, len(labelings), "classifier variants"):
        cells = reach.argmax(axis=0)  # the BFS leaf each row reaches
        for labels in labelings:
            # each assignment's set under this labeling, as a packed row bitmask
            seen.update(map(bytes, np.packbits(labels[cells], axis=1)))
    return len(seen)


def _leaf_counts(tree: TreeClassifier, data: Dataset) -> list:
    """Each node's [n0, n1], the rows of label 0 and 1 reaching it: every
    row walks down from the root once, going right when x[var - 1] >
    threshold, and adds itself to each node it passes."""
    counts = [[0, 0] for _ in tree.nodes]
    # (var - 1, threshold, left, right) per internal node, None per leaf
    splits = [(nd.var - 1, nd.threshold, nd.left, nd.right) if isinstance(nd, Internal)
              else None for nd in tree.nodes]
    for x, label in zip(data.X.tolist(), data.y.tolist()):
        idx = 0
        while True:
            counts[idx][label] += 1
            split = splits[idx]
            if split is None:
                break
            var, threshold, left, right = split
            idx = right if x[var] > threshold else left
    return counts


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


def _materialize(tree: TreeClassifier, pattern, labels: list) -> TreeClassifier:
    """Build the pruned subtree in breadth-first layout, as tree_from_class
    lays out a class member; a collapsed node becomes a leaf with labels[node]."""
    nodes: list = []
    queue = [(0, pattern)]  # (tree index, pattern) of every node met so far, in arena order
    for idx, pat in queue:  # children appended below are visited in turn
        if pat is None:
            nodes.append(Leaf(labels[idx]))
        else:
            nd = tree.nodes[idx]
            nodes.append(Internal(nd.var, nd.threshold, len(queue), len(queue) + 1))
            queue += [(nd.left, pat[0]), (nd.right, pat[1])]
    return TreeClassifier(tuple(nodes))


# the last pruning table built: (weak tree, weak Dataset, pairs, fewest,
# labels, winners); see _pruning_table
_table = None


def _pruning_table(tree: TreeClassifier, data: Dataset) -> tuple[list, dict, list, dict]:
    """The penalty-free part of brute_force_best_subtree, as (pairs, fewest,
    labels, winners): pairs holds (Fraction(errors, n), leaves, pattern)
    for the first pruning of each distinct (errors, leaves) pair, in
    first-seen order; fewest maps each leaf count, in first-seen order, to
    (errors, index into pairs) of its fewest errors; labels holds each
    node's majority label (0 on a tie); winners the trees built so far, by
    index into pairs.

    Raises ValueError for a tree wider than the data and ResourceCapError
    for more than COMBO_CAP prunings, before anything is walked, listed or
    memoized.  The last table is kept with weak references to its tree and
    Dataset and returned while both are the very objects asked about: both
    are immutable, so it cannot go stale, and it keeps neither alive."""
    global _table
    memo = _table
    if memo is not None and memo[0]() is tree and memo[1]() is data:
        return memo[2:]
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
    counts = _leaf_counts(tree, data)
    first: dict = {}  # (errors, leaves) -> its first pruning, in first-seen order
    for pattern, err, leaves in _prunings(tree, [min(c) for c in counts]):
        first.setdefault((err, leaves), pattern)
    pairs, fewest = [], {}
    for i, ((err, leaves), pattern) in enumerate(first.items()):
        pairs.append((Fraction(err, data.n), leaves, pattern))
        if leaves not in fewest or err < fewest[leaves][0]:
            fewest[leaves] = (err, i)
    labels = [int(n1 > n0) for n0, n1 in counts]
    _table = memo = (weakref.ref(tree), weakref.ref(data), pairs, fewest, labels, {})
    return memo[2:]


def brute_force_best_subtree(tree: TreeClassifier, data: Dataset, pen
                             ) -> tuple[TreeClassifier, Fraction | float]:
    """Enumerate every pruned subtree (with re-optimized leaf labels) and
    return the minimizer of Fraction(errors, n) + pen(leaves); ties go to
    the smallest tree, then to the first pruning in enumeration order.

    Prunings with the same (errors, leaves) cost the same, so each distinct
    pair is scored at most once, through its first pruning, and pen is
    called once per distinct leaf count, in first-seen order.  When every
    pen value is an int or a Fraction, the costs are exact: at one leaf
    count the fewest errors cost least, so only that pair is scored, by
    cross-multiplied integers, and one Fraction is built, the winner's
    cost.  Any other value is added to each pair's Fraction risk, as the
    scan over every pruning would add it, so the cost keeps its type.

    The rows are walked and the prunings listed once per (tree, Dataset),
    not once per call (see _pruning_table), and the winner's leaves are
    labelled from the walk's counts (0 on a tie).  Each distinct winner is
    built once per (tree, Dataset) and returned again to later calls it
    wins; trees are immutable."""
    pairs, fewest, labels, winners = _pruning_table(tree, data)
    pens = {leaves: pen(leaves) for leaves in fewest}
    best = None
    if all(type(v) is int or type(v) is Fraction for v in pens.values()):
        for leaves, (err, i) in fewest.items():
            # err / n + pen as num / den, both denominators positive
            v = pens[leaves]
            num, den = err * v.denominator + v.numerator * data.n, data.n * v.denominator
            if best is None or (num * best[1], leaves) < (best[0] * den, best[2]):
                best = (num, den, leaves, i)
    else:
        # a rounded sum may tie two risks of one leaf count, and then the
        # first pruning wins, so every pair is scored; the first pair of
        # minimal key holds the first pruning of minimal key
        for i, (risk, leaves, _) in enumerate(pairs):
            key = (risk + pens[leaves], leaves)
            if best is None or key < best[:2]:
                best = (*key, i)
    i = best[-1]
    risk, leaves, pattern = pairs[i]
    if i not in winners:
        winners[i] = _materialize(tree, pattern, labels)
    return winners[i], risk + pens[leaves]
