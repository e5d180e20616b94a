import numpy as np
import pytest
from hypothesis import strategies as st

from treeselect import Dataset
from treeselect.tree import node_counts
from treeselect.verify import random_dataset  # noqa: F401  (tests import it from here)


@pytest.fixture
def line_dataset():
    """x1 = 1..4 with a constant padding column (datasets need p >= 2)."""

    def make(labels):
        X = np.column_stack([np.arange(1.0, len(labels) + 1.0),
                             np.zeros(len(labels))])
        return Dataset(X, np.asarray(labels))

    return make


@st.composite
def tied_datasets(draw):
    """Small datasets whose features take few values, so ties are common."""
    n = draw(st.integers(2, 30))
    p = draw(st.integers(2, 3))
    values = st.integers(-3, 3).map(float)
    X = np.array(draw(st.lists(st.lists(values, min_size=p, max_size=p),
                               min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return Dataset(X, y)


leaf_budgets = st.none() | st.integers(1, 8)

# any finite float, with the signed zeros and the extremes drawn often
finite_floats = (st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                  -1.7976931348623157e308])
                 | st.floats(allow_nan=False, allow_infinity=False))


# one pair of neighbouring values per case, labelled 0 and 1: the midpoint
# of 0.3 and 0.1 + 0.2 and that of 1 and the double below it round onto
# the larger value, and that of 1e308 and 1.5e308 overflows
NEIGHBOUR_CASES = [
    ([[0.3, 0.0], [0.1 + 0.2, 0.0], [1.3, 0.0]], [0, 1, 1]),
    ([[1e308, 0.0], [1.5e308, 0.0]], [0, 1]),
    ([[float(np.nextafter(1.0, 0.0)), 0.0], [1.0, 0.0]], [0, 1]),
]


@st.composite
def neighbour_datasets(draw):
    """Small datasets whose features take neighbouring doubles of a drawn
    value and values whose midpoints round onto the larger one or overflow."""
    n = draw(st.integers(2, 12))
    pool = [draw(finite_floats)]
    for _ in range(3):  # toward zero, so the pool stays finite
        pool.append(float(np.nextafter(pool[-1], 0.0)))
    pool += [0.3, 0.1 + 0.2, 1e308, 1.5e308, -1.5e308, 1.7976931348623157e308]
    values = st.sampled_from(pool)
    X = np.array(draw(st.lists(st.lists(values, min_size=2, max_size=2),
                               min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return Dataset(X, y)


def searchable_nodes(tree, data, min_node_size=1):
    """Indices of the nodes that grow_maximal searches: those whose carried
    counts hold both labels and at least 2 * min_node_size rows."""
    n0, n1 = node_counts(tree, data)
    return [i for i, (a, b) in enumerate(zip(n0, n1))
            if min(a, b) > 0 and a + b >= 2 * min_node_size]
