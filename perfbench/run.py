#!/usr/bin/env python3
"""Benchmark of the treeselect pipeline, driven through its public functions.

Run from the repository root:

  python3 perfbench/run.py --workload sweep-wide --seed 0 --seconds 20 --trace 0
      One measured run.  The last line of standard output is a JSON object
      {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
      metrics are the end-to-end ones of BENCHMARK.json (setup_s and
      ops_per_s at reference host speed, see CAL_REF_S), with --trace 1 the
      per-layer ones.  Lines before it say the same for a reader, plus the
      raw values, op_p50_ms, op_p90_ms (when the run has at least 100
      operations), fail_frac and the environment.
  python3 perfbench/run.py --report [--seed N] [--seconds S] [--smoke]
      Every workload, untraced then traced, each in its own process.
  python3 perfbench/run.py --digest
      Untimed behaviour digest of a reduced fixed-seed sweep (see digest()).
  python3 perfbench/run.py --write-reference
      Re-record perfbench/reference.json from the current program.

Workloads are defined in workloads.py, the traced layers in layers.py.
Operations run one after another in this process (a closed loop with one
caller) until --seconds have passed; the program under test is imported
from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_FILE = HERE / "reference.json"
DIGEST_FILE = HERE / "digest.json"

DEFAULT_SEED = 0
SETUP_PROBES = 2   # fresh processes timed besides this one; setup_s is the median
SMOKE_OPS = 2      # operations per run under --smoke
P90_MIN_OPS = 100  # op_p90_ms needs at least ten samples beyond it
# operations per sweep workload covered by the reference at DEFAULT_SEED:
# a few times what the seed code completes in a 20-second run
REFERENCE_OPS = {"sweep-wide": 32, "sweep-short": 256, "sweep-narrow": 768}
CHILD_TIMEOUT_S = 170

# Host-speed calibration.  A shared host's speed for the same work drifts over
# minutes (on a shared 2-core Xeon the same oracle-desk input mix ran at 18.1
# to 28.0 ops/s within four minutes), which no run length averages away.  So
# every measured run also times a fixed kernel that runs no treeselect code,
# and reports setup_s and ops_per_s as on a host where that kernel takes
# CAL_REF_S: with speed = CAL_REF_S / mean kernel time, times are multiplied
# by speed and rates divided by it.  A slower program shows in full; only the
# host's speed divides out (over those four minutes the scaled rate spread
# 4.5% IQR/median against 21.7% raw).  The raw values are printed as well.
CAL_REF_S = 0.010
CAL_EVERY_S = 0.25  # time between kernel samples during a run
CAL_SETUP_SAMPLES = 5


class SetupError(RuntimeError):
    """The program or the benchmark's own files are missing or broken."""


def import_program():
    """Import treeselect from src/ of this checkout, never from elsewhere."""
    init = SRC / "treeselect" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"{init.relative_to(ROOT)} not found: run from a full checkout")
    sys.path.insert(0, str(SRC))
    import treeselect
    if Path(treeselect.__file__).resolve() != init.resolve():
        raise SetupError(f"treeselect was imported from {treeselect.__file__}")
    return treeselect


def load_reference(workload: str, seed: int) -> list | None:
    if seed != DEFAULT_SEED or workload not in REFERENCE_OPS:
        return None
    with open(REFERENCE_FILE) as fh:
        data = json.load(fh)
    return data["ops"][workload]


def set_up(workload: str, seed: int):
    """Import the program, build the workload's inputs and warm up.
    Returns (treeselect module, workloads module, reference, seconds)."""
    start = time.perf_counter()
    ts = import_program()
    import workloads
    if workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}; choose from {workloads.WORKLOADS}")
    reference = load_reference(workload, seed)
    workloads.warm_up(ts, workload)
    return ts, workloads, reference, time.perf_counter() - start


class Calibrator:
    """Times a fixed kernel shaped like the program's work: a Python loop
    over a dict and a stable column sort with cumulative sums in NumPy."""

    def __init__(self):
        import numpy
        self._np = numpy
        self._data = numpy.random.default_rng(0).standard_normal((200, 300))
        self.samples: list[float] = []
        self._kernel()  # first-call costs stay out of the samples

    def _kernel(self) -> None:
        np = self._np
        counts: dict[int, int] = {}
        for i in range(30_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        order = np.argsort(self._data, axis=0, kind="stable")
        np.cumsum(np.take_along_axis(self._data, order, axis=0), axis=0)

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - start)

    def speed(self) -> float:
        """Host speed over the samples taken, relative to the reference."""
        return CAL_REF_S / statistics.mean(self.samples)


def scaled_setup(raw_s: float) -> float:
    """Set-up time at reference host speed, from kernel samples taken just
    after the set-up."""
    cal = Calibrator()
    for _ in range(CAL_SETUP_SAMPLES):
        cal.sample()
    return raw_s * cal.speed()


def probe_setup(workload: str, seed: int) -> float:
    """Scaled set-up time of a fresh process, as the last line it prints."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> str:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"env: nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__}")


@dataclass
class Sample:
    """Durations (seconds) and outcomes of the operations of one run."""

    durations: list = field(default_factory=list)
    failures: int = 0
    checked: int = 0  # operations compared with the reference

    def ok_per_s(self) -> float:
        return (len(self.durations) - self.failures) / sum(self.durations)


def run_one(ts, wl, workload, index, inp, reference, sample: Sample, tracer=None):
    ref = reference[index] if reference is not None and index < len(reference) else None
    start = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run_op(ts, workload, inp)
        else:
            with tracer.traced():
                out = wl.run_op(ts, workload, inp)
        sample.durations.append(time.perf_counter() - start)
        error = wl.check(ts, workload, inp, out, ref)
    except Exception as exc:  # a raising operation is a failed one
        sample.durations.append(time.perf_counter() - start)
        error = f"raised {exc!r}"
    sample.checked += ref is not None
    if error is not None:
        sample.failures += 1
        if sample.failures <= 5:
            print(f"operation {index} failed: {error}", file=sys.stderr)


def reference_note(workload: str, seed: int, sample: Sample, attempted: int) -> str:
    if workload not in REFERENCE_OPS:
        return "reference: none (checks do not depend on the seed)"
    if seed != DEFAULT_SEED:
        return f"reference: unchecked (recorded for seed {DEFAULT_SEED} only)"
    return f"reference: checked {sample.checked} of {attempted} operations"


def measure(args) -> dict:
    ts, wl, reference, own_setup = set_up(args.workload, args.seed)
    print(environment())
    max_ops = SMOKE_OPS if args.smoke else None
    if args.trace:
        return measure_traced(args, ts, wl, reference, max_ops)

    probes = 1 if args.smoke else SETUP_PROBES
    setups = [scaled_setup(own_setup)] + [probe_setup(args.workload, args.seed)
                                          for _ in range(probes)]
    cal = Calibrator()
    cal.sample()
    last_cal = time.perf_counter()
    sample = Sample()
    deadline = last_cal + args.seconds
    index = 0
    while index == 0 or (time.perf_counter() < deadline
                         and (max_ops is None or index < max_ops)):
        if time.perf_counter() - last_cal >= CAL_EVERY_S:
            cal.sample()
            last_cal = time.perf_counter()
        inp = wl.make_input(args.workload, args.seed, index)
        run_one(ts, wl, args.workload, index, inp, reference, sample)
        index += 1
    cal.sample()

    ops = len(sample.durations)
    speed = cal.speed()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (sample.ok_per_s() / speed, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} host speed {speed:.4g} x reference ({len(cal.samples)} kernel "
          f"samples); raw ops_per_s {sample.ok_per_s():.6g} 1/s")
    # The median and p90 are printed raw and not gated: the host switches
    # between two speeds, and the median jumps between them from run to run
    # while the mean behind ops_per_s moves smoothly.
    p50 = 1000.0 * statistics.median(sample.durations)
    print(f"{args.workload} op_p50_ms {p50:.6g} ms")
    if ops >= P90_MIN_OPS:
        p90 = 1000.0 * statistics.quantiles(sample.durations, n=10, method="inclusive")[-1]
        print(f"{args.workload} op_p90_ms {p90:.6g} ms")
    else:
        print(f"{args.workload} op_p90_ms n/a ({ops} operations < {P90_MIN_OPS})")
    print(f"{args.workload} fail_frac {sample.failures / ops:.6g} "
          f"({sample.failures} of {ops})")
    print(f"{args.workload} set-up samples {[round(s, 4) for s in setups]} s at reference "
          f"speed; this process {own_setup:.4f} s raw")
    print(reference_note(args.workload, args.seed, sample, ops))
    return result(sample, metrics)


def measure_traced(args, ts, wl, reference, max_ops) -> dict:
    """Each input runs once untraced and once traced, in alternating order,
    so the tracing overhead is measured on the same operations."""
    tracer = layers.Tracer()
    plain, traced = Sample(), Sample()
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index == 0 or (time.perf_counter() < deadline
                         and (max_ops is None or index < max_ops)):
        inp = wl.make_input(args.workload, args.seed, index)
        order = (None, tracer) if index % 2 == 0 else (tracer, None)
        for tr in order:
            run_one(ts, wl, args.workload, index, inp, reference,
                    plain if tr is None else traced, tr)
        index += 1

    missing = tracer.missing(wl.EXPECTED_LAYERS[args.workload])
    if missing:
        raise layers.TraceError(f"layers recorded no call on {args.workload}: "
                                + ", ".join(missing))
    ops = len(traced.durations)
    units = dict(layers.metric_names())
    metrics = {name: (value, units[name]) for name, value in tracer.metrics(ops).items()}
    metrics["trace.ops_per_s"] = (traced.ok_per_s(), "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain.ok_per_s(), "1/s")
    # both samples hold the same inputs, so their total times compare directly
    metrics["trace.overhead_frac"] = (sum(traced.durations) / sum(plain.durations) - 1.0,
                                      "frac")

    op_s = sum(traced.durations) / ops
    print(f"{args.workload}: {ops} traced operations, {op_s * 1000:.4g} ms each; "
          f"tracing overhead {metrics['trace.overhead_frac'][0]:+.1%}")
    for layer in layers.LAYERS:
        busy = metrics[f"{layer}.busy_s"][0]
        calls = metrics[f"{layer}.calls"][0]
        print(f"  {layer:34s} busy {busy / op_s:6.1%} of op time, {calls:10.1f} calls/op")
    print(reference_note(args.workload, args.seed, traced, ops))
    combined = Sample(plain.durations + traced.durations, plain.failures + traced.failures)
    return result(combined, metrics)


def result(sample: Sample, metrics: dict) -> dict:
    return {"correct": sample.failures == 0,
            "attempted": len(sample.durations),
            "failed": sample.failures,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def write_reference() -> None:
    ts = import_program()
    import workloads as wl
    ops = {}
    for workload, count in REFERENCE_OPS.items():
        wl.warm_up(ts, workload)
        entries = []
        for index in range(count):
            inp = wl.make_input(workload, DEFAULT_SEED, index)
            out = wl.run_op(ts, workload, inp)
            error = wl.check(ts, workload, inp, out, None)
            if error is not None:
                raise SetupError(f"{workload} operation {index}: {error}")
            entries.append(wl.fingerprint(ts, out))
        ops[workload] = entries
        print(f"{workload}: {count} operations recorded", file=sys.stderr)
    write_reference_file(ops)


def write_reference_file(ops: dict) -> None:
    """One operation per line, so that a changed operation shows in a diff."""
    with open(REFERENCE_FILE, "w") as fh:
        fh.write(f'{{"seed": {DEFAULT_SEED},\n'
                 '"fingerprint": "[repr(alpha), sha256(tree_to_text(tree))[:16], n_leaves]",\n'
                 '"ops": {')
        for w, (workload, entries) in enumerate(ops.items()):
            fh.write(("," if w else "") + f"\n{json.dumps(workload)}: [\n")
            fh.write(",\n".join(json.dumps(e) for e in entries))
            fh.write("\n]")
        fh.write("\n}}\n")


def digest() -> int:
    """Run a reduced fixed-seed sweep with 1 and with 2 workers, hash
    results.csv and fit.csv, and compare both runs with each other and with
    the digest recorded in digest.json.  Not timed."""
    import hashlib
    from dataclasses import replace
    import_program()
    from treeselect import experiment as xp

    with open(DIGEST_FILE) as fh:
        expected = json.load(fh)
    c = expected["config"]
    cfg = xp.ExperimentConfig(designs=tuple(c["designs"]), n_grid=tuple(c["n_grid"]),
                              p_grid=tuple(c["p_grid"]),
                              noise_grids={int(k): tuple(v)
                                           for k, v in c["noise_grids"].items()},
                              replications=c["replications"], folds=c["folds"],
                              master_seed=c["master_seed"],
                              test_samples=c["test_samples"])
    runs = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for jobs in (1, 2):
            res = xp.run_sweep(replace(cfg, jobs=jobs))
            paths = {"results.csv": Path(tmp, f"results-{jobs}.csv"),
                     "fit.csv": Path(tmp, f"fit-{jobs}.csv")}
            xp.write_results_csv(res, paths["results.csv"])
            xp.write_fit_csv(xp.fit_alpha_vs_logp(res), paths["fit.csv"])
            runs[jobs] = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                          for name, path in paths.items()}
            for name, sha in runs[jobs].items():
                print(f"jobs={jobs} {name} sha256 {sha}")
    ok = True
    if runs[1] != runs[2]:
        print("FAIL: output differs between jobs=1 and jobs=2")
        ok = False
    for name in ("results.csv", "fit.csv"):
        if runs[1][name] != expected[name]:
            print(f"FAIL: {name} sha256 differs from the recorded {expected[name]}")
            ok = False
    print("digest: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def report(args) -> int:
    """Run every workload untraced and traced, each in a fresh process."""
    import workloads
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            print(f"== {workload} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if res is None or not res["correct"]:
                print(f"FAIL: {workload} trace={trace} exit {proc.returncode}")
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"stop each run after {SMOKE_OPS} operations")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true")
    mode.add_argument("--digest", action="store_true")
    mode.add_argument("--write-reference", action="store_true")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.digest:
            return digest()
        if args.write_reference:
            write_reference()
            return 0
        if args.report:
            return report(args)
        if args.workload is None:
            parser.error("--workload is required for a measured run")
        if args.setup_probe:
            print(scaled_setup(set_up(args.workload, args.seed)[3]))
            return 0
        res = measure(args)
    except (SetupError, ImportError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except layers.TraceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
