"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Criteria 1-5 run the oracle checks of `treeselect.verify`, the
same ones `treeselect verify` runs.  The Figure-3 reproduction
(criterion 8) dominates the runtime (a few minutes single-threaded).
"""

import math
import time

import numpy as np
import pytest

from treeselect import (DesignSpec, MarginAdaptivePenalty, bayes_predict,
                        bayes_risk, generate, penalty_value, verify)
from treeselect.experiment import ExperimentConfig, fit_alpha_vs_logp, run_sweep


def report(num, detail):
    print(f"\n[PASS] criterion {num}: {detail}")


def passes(num, *checks, within=math.inf):
    """Run `verify` checks, assert that each passes and that together they
    take less than `within` seconds, and print the criterion's report."""
    t0 = time.time()
    details = []
    for check in checks:
        ok, detail = check()
        assert ok, detail
        details.append(detail)
    elapsed = time.time() - t0
    assert elapsed < within
    report(num, f"{'; '.join(details)} ({elapsed:.2f}s)")


def test_criterion_1_counting_lemmas():
    passes(1, verify.check_catalan, verify.check_class_counts, within=1.0)


def test_criterion_2_entropy_bound():
    passes(2, verify.check_entropy_bound, within=30.0)


def test_criterion_3_pruning_optimality():
    passes(3, verify.check_pruning_oracle, within=120.0)


def test_criterion_4_subadditive_penalty():
    passes(4, verify.check_subadditive)


def test_criterion_5_heuristic_vs_exhaustive():
    passes(5, verify.check_exhaustive_vs_heuristic)


def test_criterion_6_kappa1_collapse():
    rng = np.random.default_rng(6)
    points = 0
    for _ in range(1000):
        k = int(rng.integers(1, 200))
        n = int(rng.integers(2, 5000))
        p = int(rng.integers(2, 5000))
        c1 = float(rng.uniform(0.1, 5.0))
        c2 = float(rng.uniform(0.1, 5.0))
        got = penalty_value(MarginAdaptivePenalty(1.0, c1, c2), k, n, p)
        want = k * (c1 * math.log(2 * n) + c2 * math.log(p)) / n
        assert abs(got - want) <= math.ulp(want)
        points += 1
    report(6, f"kappa=1 penalty equals linear form within 1 ulp on {points} grid points")


def test_criterion_7_design_analytics():
    t0 = time.time()
    cases = [(1, q) for q in (0.1, 0.2, 0.3)] + [(2, s) for s in (0.5, 1.0, 2.0)] + [(4, 0.2)]
    for design, noise in cases:
        spec = DesignSpec(design, 10 ** 5, 5, noise, seed=700 + design)
        data = generate(spec)
        mc = float(np.mean(bayes_predict(spec, data.X) != data.y))
        r = bayes_risk(spec)
        se = math.sqrt(max(r * (1 - r), 1e-12) / 10 ** 5)
        assert abs(mc - r) <= 3 * se + 1e-9, (design, noise, mc, r)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(7, f"Monte Carlo risk of the optimal rule matches analytics ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_8_figure3_reproduction():
    t0 = time.time()
    cfg = ExperimentConfig(designs=(1,), n_grid=(50, 100, 200),
                           p_grid=(30, 60, 125, 250, 500, 1000),
                           noise_grids={1: (0.3,)}, replications=50,
                           master_seed=20260823)
    res = run_sweep(cfg)
    fits = {f.n: f for f in fit_alpha_vs_logp(res)}
    for n in (50, 100, 200):
        assert fits[n].slope > 0.0, f"slope not positive at n={n}"
        assert fits[n].r_squared >= 0.8, f"R^2 {fits[n].r_squared:.3f} < 0.8 at n={n}"
    rows = {(r.n, r.p): r for r in res}
    R = cfg.replications
    for p in cfg.p_grid:
        a, b = rows[(50, p)], rows[(200, p)]
        pooled_se = math.sqrt(a.sd_alpha ** 2 / R + b.sd_alpha ** 2 / R)
        assert a.mean_alpha - b.mean_alpha >= pooled_se, f"alpha gap too small at p={p}"
    elapsed = time.time() - t0
    r2 = ", ".join(f"n={n}: R^2={fits[n].r_squared:.2f}" for n in (50, 100, 200))
    report(8, f"alpha vs ln p linear with positive slope ({r2}; {elapsed:.0f}s)")


def test_criterion_9_determinism(tmp_path):
    from click.testing import CliRunner
    from treeselect.cli import main

    runner = CliRunner()
    paths = []
    for tag, jobs in (("a", 1), ("b", 8)):
        out = tmp_path / tag
        result = runner.invoke(main, [
            "experiment", "--designs", "1", "--n-grid", "30", "--p-grid", "5,10",
            "--noise-grid", "0.1", "--replications", "4", "--folds", "5",
            "--test-samples", "500", "--jobs", str(jobs), "--seed", "99",
            "--out-dir", str(out)], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        paths.append(out / "results.csv")
    assert paths[0].read_bytes() == paths[1].read_bytes()
    report(9, "results.csv byte-identical across runs with 1 and 8 workers")
