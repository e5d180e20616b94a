"""Guard that the library still reaches every layer the benchmark traces.

The benchmark's tracer fails a traced run when a workload records no call
for one of its expected layers; this runs the same check on the workloads'
tiny warm-up inputs, so a lost layer shows in the ordinary test run."""

import importlib.util
from pathlib import Path

import numpy as np

import treeselect
from treeselect import grow

from conftest import random_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_library_reaches_every_traced_layer():
    layers, workloads = _load("layers"), _load("workloads")
    for workload in workloads.WORKLOADS:
        tracer = layers.Tracer()
        with tracer.traced():
            workloads.warm_up(treeselect, workload)
        assert tracer.missing(workloads.EXPECTED_LAYERS[workload]) == [], workload


def test_best_split_counters_match_the_calls_grow_makes(monkeypatch):
    # the tracer reads a node's size from best_split's second argument; a
    # change of what grow passes there would silently miscount its cells
    layers = _load("layers")
    search, cells, splits = grow.best_split, [], []

    def spy(data, rows, min_node_size=1, order=None):
        split = search(data, rows, min_node_size, order)
        cells.append(order.shape[1] * data.p)
        splits.append(split is not None)
        return split

    monkeypatch.setattr(grow, "best_split", spy)
    data = random_dataset(np.random.default_rng(2), 60, 4)
    tracer = layers.Tracer()
    with tracer.traced():
        tree = treeselect.grow_maximal(data)
    totals = tracer.totals["grow.best_split"]
    assert totals["calls"] == len(cells) == len(tree.nodes)
    assert totals["cells"] == sum(cells)
    assert totals["hits"] == sum(splits) == tree.n_leaves - 1 > 2
