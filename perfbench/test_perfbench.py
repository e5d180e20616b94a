"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The smoke runs stop after a couple of operations per workload, so the whole
file takes well under a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
import treeselect  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())
    if workload in ("sweep-wide", "sweep-short", "sweep-narrow"):
        assert "reference: checked" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "oracle-desk", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_mismatch_fails_the_operation():
    inp = (1, 30, 5, 0.3, 1, 2, 3)
    out = workloads.sweep_op(treeselect, inp, test_samples=100)
    good = workloads.fingerprint(treeselect, out)
    assert workloads.check_sweep(treeselect, inp, out, good) is None
    bad = [repr(out[0] + 1.0)] + good[1:]
    assert "differs from reference" in workloads.check_sweep(treeselect, inp, out, bad)
    assert "not in [0, 1]" in workloads.check_sweep(treeselect, inp, out[:2] + (1.5,), None)


def test_oracle_checks_catch_a_wrong_cost():
    inp = workloads.make_input("oracle-desk", 0, 0)
    seq, costs, exhaustive, greedy = workloads.oracle_op(treeselect, inp)
    assert workloads.check_oracle(treeselect, (seq, costs, exhaustive, greedy)) is None
    alpha, heuristic, brute = costs[0]
    wrong = [(alpha, heuristic + 1, brute)] + costs[1:]
    assert "brute force" in workloads.check_oracle(treeselect, (seq, wrong, exhaustive, greedy))
    assert "exceeds" in workloads.check_oracle(treeselect, (seq, costs, greedy + 1, greedy))


def test_tracer_wraps_internal_call_sites():
    tracer = layers.Tracer()
    with tracer.traced():
        workloads.sweep_op(treeselect, (2, 40, 5, 1.0, 4, 5, 6), test_samples=100)
    assert treeselect.penalties.grow_maximal is treeselect.grow.grow_maximal
    assert not hasattr(treeselect.grow.best_split, "__wrapped__")
    assert tracer.missing(workloads.SWEEP_LAYERS) == []
    assert tracer.missing(["oracle.exhaustive_select"]) == ["oracle.exhaustive_select"]
    totals = tracer.totals
    assert totals["penalties.cv_select_alpha"]["calls"] == 1
    assert totals["grow.grow_maximal"]["calls"] == workloads.FOLDS + 1
    assert totals["grow.best_split"]["cells"] > 0
    cv = totals["penalties.cv_select_alpha"]
    assert 0.0 <= cv["self_s"] <= cv["busy_s"]


def test_a_lost_call_site_breaks_the_trace(monkeypatch):
    monkeypatch.delattr(treeselect.penalties, "grow_maximal")
    with pytest.raises(layers.TraceError, match="treeselect.penalties.grow_maximal"):
        layers.Tracer()


def test_a_renamed_function_breaks_the_trace(monkeypatch):
    monkeypatch.delattr(treeselect.grow, "best_split")
    with pytest.raises(layers.TraceError, match="grow.best_split"):
        layers.Tracer()
