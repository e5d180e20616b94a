"""Guard that the library still does what the benchmark expects of it.

The benchmark's tracer fails a traced run when a workload records no call
for one of its expected layers; this runs the same check on the workloads'
tiny warm-up inputs, so a lost layer shows in the ordinary test run.  A
measured run also compares each seed-0 sweep operation with its recorded
fingerprint; the first few are replayed here, so a changed alpha or tree
fails the ordinary test run too."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import treeselect
from treeselect import grow

from conftest import random_dataset, searchable_nodes

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
    # grow searches only the nodes its counts do not show terminal
    assert totals["calls"] == len(cells) == len(searchable_nodes(tree, data)) < len(tree.nodes)
    assert totals["cells"] == sum(cells)
    assert totals["hits"] == sum(splits) == tree.n_leaves - 1 > 2


def test_cv_candidates_counter_reads_the_full_data_sequence():
    # the tracer counts the critical alphas of the first sequence built
    # inside cv_select_alpha; on this input every fold's sequence is
    # shorter, so building a fold's first would miscount without an error
    layers = _load("layers")
    data = random_dataset(np.random.default_rng(3), 60, 3)
    cfg = treeselect.CVConfig(folds=5, seed=1)
    curve = treeselect.cv_curve(data, cfg)
    tracer = layers.Tracer()
    with tracer.traced():
        treeselect.cv_select_alpha(data, cfg)
    totals = tracer.totals
    assert totals["penalties.cv_select_alpha"]["candidates"] == len(curve.candidates) == 6
    assert totals["prune.weakest_link"]["calls"] == cfg.folds + 1
    assert totals["prune.best_in_sequence"]["calls"] == 1


# seed-0 operations replayed per workload: every sweep-narrow cell eight
# times over, and two of the slower sweep-wide ones
REPLAYED_OPS = {"sweep-narrow": 24, "sweep-wide": 2}


def test_seed_0_sweep_operations_match_the_benchmark_reference():
    workloads = _load("workloads")
    with open(PERFBENCH / "reference.json") as fh:
        reference = json.load(fh)
    assert reference["seed"] == 0
    for workload, count in REPLAYED_OPS.items():
        for index in range(count):
            inp = workloads.make_input(workload, 0, index)
            # the fingerprint leaves the test risk out, so one test row will do
            out = workloads.sweep_op(treeselect, inp, test_samples=1)
            assert workloads.fingerprint(treeselect, out) == \
                reference["ops"][workload][index], (workload, index)
