import numpy as np
import pytest

from treeselect import Dataset
from treeselect.verify import random_dataset  # noqa: F401  (tests import it from here)


@pytest.fixture
def line_dataset():
    """x1 = 1..4 with a constant padding column (datasets need p >= 2)."""

    def make(labels):
        X = np.column_stack([np.arange(1.0, len(labels) + 1.0),
                             np.zeros(len(labels))])
        return Dataset(X, np.asarray(labels))

    return make
