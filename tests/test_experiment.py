import math

import numpy as np
import pytest

from treeselect import CVConfig
from treeselect.experiment import (CellResult, ExperimentConfig,
                                   ExperimentResult, fit_alpha_vs_logp,
                                   run_sweep, write_figure_data,
                                   write_results_csv)

SMALL = ExperimentConfig(designs=(1,), n_grid=(30,), p_grid=(5, 10),
                         noise_grids={1: (0.1,)}, replications=3,
                         folds=5, master_seed=7, test_samples=500)


def test_row_count():
    res = run_sweep(SMALL)
    assert len(res.rows) == 1 * 1 * 2 * 1
    for row in res.rows:
        assert row.replications == 3
        assert row.mean_alpha >= 0.0


def test_determinism_same_seed(tmp_path):
    a, b = run_sweep(SMALL), run_sweep(SMALL)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(a, pa)
    write_results_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_parallel_matches_serial(tmp_path):
    import dataclasses
    par = dataclasses.replace(SMALL, jobs=4)
    a, b = run_sweep(SMALL), run_sweep(par)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(a, pa)
    write_results_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_different_seed_differs():
    import dataclasses
    other = dataclasses.replace(SMALL, master_seed=8)
    a, b = run_sweep(SMALL), run_sweep(other)
    assert any(x.mean_alpha != y.mean_alpha for x, y in zip(a.rows, b.rows))


def _rows_from_alpha(fn, n=100, noise=0.1):
    rows = []
    for p in (10, 30, 100, 300):
        rows.append(CellResult(1, n, p, noise, fn(p), 0.0, 0.0, 1.0, 5))
    return ExperimentResult(tuple(rows))


def test_fit_exact_line():
    res = _rows_from_alpha(lambda p: 0.1 * math.log(p) + 0.02)
    (fit,) = fit_alpha_vs_logp(res)
    assert fit.slope == pytest.approx(0.1)
    assert fit.intercept == pytest.approx(0.02)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_constant():
    res = _rows_from_alpha(lambda p: 0.25)
    (fit,) = fit_alpha_vs_logp(res)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 0.0


def test_fit_needs_two_p_values():
    rows = (CellResult(1, 50, 10, 0.1, 0.1, 0.0, 0.0, 1.0, 5),)
    with pytest.raises(ValueError):
        fit_alpha_vs_logp(ExperimentResult(rows))


def test_figure_data_layout(tmp_path):
    rows = []
    for n in (50, 200):
        for p in (10, 100):
            rows.append(CellResult(1, n, p, 0.3, 0.1, 0.01, 0.0, 2.0, 5))
    paths = write_figure_data(ExperimentResult(tuple(rows)), tmp_path)
    assert len(paths) == 1
    lines = (tmp_path / "figure3_1.dat").read_text().strip().splitlines()
    assert lines[0].split() == ["ln_p", "mean_alpha", "sd_alpha", "n"]
    series = [line.split()[-1] for line in lines[1:]]
    assert series == ["50", "50", "200", "200"]  # one series per n


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(designs=())
    with pytest.raises(ValueError):
        ExperimentConfig(replications=0)
    with pytest.raises(ValueError):
        ExperimentConfig(designs=(2,), noise_grids={1: (0.1,)})
    for jobs in (0, -4):
        with pytest.raises(ValueError, match="job"):
            ExperimentConfig(jobs=jobs)
    with pytest.raises(ValueError, match="folds"):
        ExperimentConfig(folds=1)
    assert ExperimentConfig().folds == CVConfig().folds
