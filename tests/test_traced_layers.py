"""Guard that the library still reaches every layer the benchmark traces.

The benchmark's tracer fails a traced run when a workload records no call
for one of its expected layers; this runs the same check on the workloads'
tiny warm-up inputs, so a lost layer shows in the ordinary test run."""

import importlib.util
from pathlib import Path

import treeselect

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
