"""Binary tree classifiers: prediction, risks, and the pruned-subtree order.

A tree is an immutable arena of `Leaf` and `Internal` nodes.  Node 0 is the
root, internal nodes carry a (variable, threshold) rule with 1-based
variable indices, and leaves carry a 0/1 label.  `TreeClassifier` checks the
arena invariant once, at construction: every child index lies after its
parent's index and inside the arena, and every node other than the root has
exactly one parent.  So the arena is one tree with every node reachable from
node 0, and a sweep in index order meets every parent before its children;
no walk here needs recursion.  `_from_preorder` is the one place that derives
child indices from a pre-order layout.

`leaf_assignment` is the one vectorised router; `predict_batch` and the
per-node training counts read its result.  The routing convention is strict:
x moves Right iff x[var] > threshold, so equality goes Left.  A grown tree
carries its per-node training counts, so `node_counts` routes only rows
other than those it was grown on.

This is the library's one tree representation.  The exhaustive oracle's
tree classes, a shape with breadth-first split variables, live in
``oracle``, which builds its class members as trees of this arena.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .designs import (FLOAT_PATTERN, Dataset, DesignSpec, bayes_risk, check_integer,
                      check_real, feature_matrix, generate, is_integer, is_real)

__all__ = [
    "Leaf",
    "Internal",
    "TreeClassifier",
    "leaf",
    "empirical_risk",
    "loss_estimate",
    "node_counts",
    "preorder_tree",
    "is_pruned_subtree",
    "tree_to_text",
    "tree_from_text",
]


@dataclass(frozen=True)
class Leaf:
    label: int


@dataclass(frozen=True)
class Internal:
    var: int  # 1-based variable index
    threshold: float
    left: int
    right: int


@dataclass(frozen=True)
class TreeClassifier:
    """Immutable tree classifier stored as a checked node arena rooted at 0.

    A label is the integer 0 or 1, a variable an integer from 1 and a
    threshold a real number other than NaN; bools and a label of 1.0 are
    rejected, as ``tree_from_text`` rejects them.  A threshold of -inf or
    +inf sends every row one way; only the exhaustive oracle's degenerate
    splits use one, and ``tree_from_text`` reads finite thresholds only."""

    nodes: tuple

    # (weak reference to a Dataset, n0, n1): the rows of each label that
    # reach each node, carried by a tree that grow_maximal grew on that
    # Dataset (see node_counts).  Not a field, so it is left out of ==,
    # hash and repr; __getstate__ leaves it out of pickles and copies.
    _counts = None

    def __getstate__(self):
        return {"nodes": self.nodes}

    def __post_init__(self):
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if not nodes:
            raise ValueError("a tree needs at least one node")
        size = len(nodes)
        parents = [0] * size
        for i, node in enumerate(nodes):
            if isinstance(node, Leaf):
                if not (is_integer(node.label) and node.label in (0, 1)):
                    raise ValueError(f"node {i}: leaf label {node.label!r} is not 0 or 1")
            elif isinstance(node, Internal):
                if not (is_integer(node.var) and node.var >= 1):
                    raise ValueError(f"node {i}: variable {node.var!r} is not an "
                                     f"integer from 1 (variables are 1-based)")
                if not is_real(node.threshold):
                    raise ValueError(f"node {i}: threshold {node.threshold!r} is not "
                                     f"a real number")
                for child in (node.left, node.right):
                    if not (is_integer(child) and i < child < size):
                        raise ValueError(f"node {i}: child index {child!r} must be an "
                                         f"integer after the node and inside the arena")
                    parents[child] += 1
            else:
                raise TypeError("nodes must be Leaf or Internal")
        # no child index is 0, so parents[0] is 0 and the rest must all be 1
        if parents.count(1) != size - 1:
            raise ValueError("every node but the root needs exactly one parent")

    @property
    def n_leaves(self) -> int:
        return sum(isinstance(nd, Leaf) for nd in self.nodes)

    def max_var(self) -> int:
        return max((nd.var for nd in self.nodes if isinstance(nd, Internal)), default=0)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        labels = np.array([nd.label if isinstance(nd, Leaf) else -1 for nd in self.nodes])
        return labels[self.leaf_assignment(X)]

    def leaf_assignment(self, X: np.ndarray) -> np.ndarray:
        """Arena index of the leaf each row lands in; X is checked by
        ``feature_matrix``, as a ``Dataset``'s features are."""
        X = feature_matrix("features", X)
        if X.shape[1] < self.max_var():
            raise ValueError("feature matrix too narrow for this tree")
        out = np.empty(X.shape[0], dtype=np.int64)
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            i, rows = stack.pop()
            if rows.size == 0:
                continue
            nd = self.nodes[i]
            if isinstance(nd, Leaf):
                out[rows] = i
            else:
                right = X[rows, nd.var - 1] > nd.threshold
                stack.append((nd.left, rows[~right]))
                stack.append((nd.right, rows[right]))
        return out


def leaf(label: int = 0) -> TreeClassifier:
    return TreeClassifier((Leaf(label),))


def node_counts(tree: TreeClassifier, data: Dataset) -> tuple[list[int], list[int]]:
    """(n0, n1): how many rows of each label reach each node of the tree.

    A tree from ``grow_maximal`` carries these counts for the Dataset it
    was grown on, and they are returned without routing when `data` is that
    very object: its arrays are read-only and its equality is identity, so
    the counts cannot have gone stale.  Any other dataset, also one with
    equal arrays or a subset, is routed."""
    carried = tree._counts
    if carried is not None and carried[0]() is data:
        return list(carried[1]), list(carried[2])
    size = len(tree.nodes)
    leaves = tree.leaf_assignment(data.X)
    ones = np.bincount(leaves[data.y == 1], minlength=size)
    n0 = (np.bincount(leaves, minlength=size) - ones).tolist()
    n1 = ones.tolist()
    # children come after their parents, so a reverse sweep fills parents last
    for i in range(size - 1, -1, -1):
        nd = tree.nodes[i]
        if isinstance(nd, Internal):
            n0[i] = n0[nd.left] + n0[nd.right]
            n1[i] = n1[nd.left] + n1[nd.right]
    return n0, n1


def _from_preorder(nodes) -> TreeClassifier:
    """The tree whose pre-order is `nodes`, whatever child indices they carry:
    read from the end, a stack of subtree roots gives each ``Internal`` its
    left, then its right child.  A missing child gets index len(nodes), which
    ``TreeClassifier`` rejects, as it rejects a subtree left without a parent."""
    nodes = list(nodes)
    roots: list[int] = []
    for i in range(len(nodes) - 1, -1, -1):
        nd = nodes[i]
        if isinstance(nd, Internal):
            left = roots.pop() if roots else len(nodes)
            right = roots.pop() if roots else len(nodes)
            nodes[i] = Internal(nd.var, nd.threshold, left, right)
        roots.append(i)
    return TreeClassifier(tuple(nodes))


def preorder_tree(nodes, counts=None) -> TreeClassifier:
    """The tree below node 0 of an arena of ``Leaf`` and ``Internal`` nodes,
    laid out in pre-order.  The nodes that node 0 reaches must satisfy the
    arena invariant; the others, such as those below a ``Leaf`` put where an
    ``Internal`` was, are dropped.  With counts = (data, n0, n1),
    the label counts of each node of `nodes` on `data`, the tree carries
    them for ``node_counts``."""
    source: list[int] = []  # arena index of each reached node, in pre-order
    stack = [0]
    while stack:
        i = stack.pop()
        source.append(i)
        nd = nodes[i]
        if isinstance(nd, Internal):
            stack.append(nd.right)
            stack.append(nd.left)
    tree = _from_preorder([nodes[i] for i in source])
    if counts is not None:
        data, n0, n1 = counts
        object.__setattr__(tree, "_counts", (weakref.ref(data), [n0[i] for i in source],
                                             [n1[i] for i in source]))
    return tree


def empirical_risk(tree: TreeClassifier, data: Dataset) -> float:
    return int(np.sum(tree.predict_batch(data.X) != data.y)) / data.n


def loss_estimate(tree: TreeClassifier, spec: DesignSpec, m: int, seed: int) -> tuple[float, float]:
    """Monte Carlo risk on a fresh size-m sample, and excess risk over Bayes.

    The sample is ``generate(replace(spec, n=m, seed=seed))`` restricted to
    the columns the tree splits on, plus x1 and x2 (design 1's labels read
    them, and a ``Dataset`` needs two columns).  ``generate`` streams
    its draw in row blocks of ``designs.BLOCK_CELLS`` cells and its stream
    does not depend on the kept columns, so the risk is the one on the full
    m x p draw while at most a block of it is held at a time.  The tree is
    routed as a copy whose variables are renumbered to the kept columns.
    """
    check_integer("m", m, least=1)
    if tree.max_var() > spec.p:
        raise ValueError(f"the tree splits on x{tree.max_var()}, "
                         f"but the design has p = {spec.p}")
    used = sorted({nd.var for nd in tree.nodes if isinstance(nd, Internal)} | {1, 2})
    fresh = generate(replace(spec, n=m, seed=seed), columns=[v - 1 for v in used])
    kept = {var: k + 1 for k, var in enumerate(used)}
    narrow = TreeClassifier(tuple(replace(nd, var=kept[nd.var]) if isinstance(nd, Internal)
                                  else nd for nd in tree.nodes))
    risk = empirical_risk(narrow, fresh)
    return risk, risk - bayes_risk(spec)


def is_pruned_subtree(a: TreeClassifier, b: TreeClassifier) -> bool:
    """True iff a results from collapsing internal nodes of b, ignoring labels."""
    stack = [(0, 0)]
    while stack:
        ia, ib = stack.pop()
        na = a.nodes[ia]
        if isinstance(na, Leaf):
            continue
        nb = b.nodes[ib]
        if isinstance(nb, Leaf) or na.var != nb.var or na.threshold != nb.threshold:
            return False
        stack.append((na.left, nb.left))
        stack.append((na.right, nb.right))
    return True


def tree_to_text(tree: TreeClassifier) -> str:
    """Pre-order textual form: node(j, s, left, right) / leaf(label).
    Numpy scalars are written in their Python form."""
    parts = []
    stack: list = [0]  # arena indices still to write, and closing text
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        nd = tree.nodes[item]
        if isinstance(nd, Leaf):
            parts.append(f"leaf({int(nd.label)})")
        else:
            parts.append(f"node({int(nd.var)}, {float(nd.threshold)!r}, ")
            stack += [")", nd.right, ", ", nd.left]
    return "".join(parts)


_TOKEN = re.compile(r"\s*(node|leaf|\(|\)|,|[^\s(),]+)")
_LABEL = re.compile(r"[01]")
_VAR = re.compile(r"[1-9][0-9]*")
_MALFORMED = "malformed tree text: not the text tree_to_text writes"


def _parse(pattern: re.Pattern, what: str, token: str) -> str:
    if pattern.fullmatch(token) is None:
        raise ValueError(f"malformed {what} {token!r} in tree text")
    return token


def _skeleton(tokens: list[str]) -> list[str]:
    """The keywords and punctuation of a token list, each value as '#'."""
    return [tok if tok in ("node", "leaf", "(", ")", ",") else "#" for tok in tokens]


def tree_from_text(text: str) -> TreeClassifier:
    """Parse the text ``tree_to_text`` writes, and nothing else: pre-order
    nodes, where a label is 0 or 1, a variable a decimal from 1 with no sign
    or leading zero and a threshold a finite decimal float (no underscore, nan
    or inf), and between them the punctuation ``tree_to_text`` writes."""
    tokens = _TOKEN.findall(text)
    words = [tok for tok in tokens if tok not in ("(", ")", ",")]
    nodes: list = []  # pre-order
    k = 0
    while k < len(words):
        kind, values = words[k], words[k + 1:k + 3]
        if kind == "leaf" and values:
            nodes.append(Leaf(int(_parse(_LABEL, "label", values[0]))))
            k += 2
        elif kind == "node" and len(values) == 2:
            var = int(_parse(_VAR, "variable", values[0]))
            threshold = float(_parse(FLOAT_PATTERN, "threshold", values[1]))
            check_real("threshold", threshold)
            nodes.append(Internal(var, threshold, 0, 0))
            k += 3
        else:
            raise ValueError(_MALFORMED)
    try:
        tree = _from_preorder(nodes)
    except ValueError:
        raise ValueError(_MALFORMED) from None
    if _skeleton(tokens) != _skeleton(_TOKEN.findall(tree_to_text(tree))):
        raise ValueError(_MALFORMED)
    return tree
