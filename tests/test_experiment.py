import dataclasses
import hashlib
import math
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from treeselect import CVConfig
from treeselect import experiment as xp
from treeselect.experiment import (CellResult, ExperimentConfig, aggregate, fit_alpha_vs_logp,
                                   run_sweep, sweep_records, write_figure_data, write_fit_csv,
                                   write_results_csv)

SMALL = ExperimentConfig(designs=(1,), n_grid=(30,), p_grid=(5, 10),
                         noise_grids={1: (0.1,)}, replications=3,
                         folds=5, master_seed=7, test_samples=500)


def test_row_count():
    res = run_sweep(SMALL)
    assert len(res) == 1 * 1 * 2 * 1
    for row in res:
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


def test_sweep_records_yield_each_cell_in_order_with_the_same_triples_at_any_jobs():
    records = list(sweep_records(SMALL))
    assert [cell for cell, _ in records] == list(SMALL.cells())
    assert all(len(triples) == SMALL.replications for _, triples in records)
    assert list(sweep_records(dataclasses.replace(SMALL, jobs=2))) == records


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)

    def shutdown(self, cancel_futures=False):
        pass


class _NoAffinity(tuple):
    """Usable CPUs on a platform without os.sched_getaffinity (macOS,
    Windows): (what os.cpu_count() returns,)."""


# (jobs, p_grid, replications, usable CPUs) -> the pool size, or None for no pool
@pytest.mark.parametrize("jobs,p_grid,replications,cpus,workers", [
    (10 ** 6, (5,), 2, 64, 2),
    (10 ** 6, (5, 10), 2, 3, 3),
    (3, (5, 10), 2, 64, 3),
    (10 ** 6, (5, 10), 2, 1, None),
    (4, (5,), 1, 64, None),
    (1, (5, 10), 2, 64, None),
    (10 ** 6, (5, 10), 2, _NoAffinity((3,)), 3),
    # os.cpu_count() returns None when the count is unknown
    (10 ** 6, (5, 10), 2, _NoAffinity((None,)), None),
])
def test_the_pool_is_no_larger_than_jobs_tasks_or_cpus(monkeypatch, jobs, p_grid,
                                                        replications, cpus, workers):
    # a real pool forks all its workers at the first submit, so none is started here
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(xp, "ProcessPoolExecutor", _RecordingPool)
    if isinstance(cpus, _NoAffinity):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus[0])
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    cfg = dataclasses.replace(SMALL, p_grid=p_grid, replications=replications,
                              test_samples=50, jobs=jobs)
    records = list(sweep_records(cfg))
    assert _RecordingPool.sizes == ([] if workers is None else [workers])
    assert records == list(sweep_records(dataclasses.replace(cfg, jobs=1)))


def test_aggregate_gives_run_sweeps_rows():
    records = list(sweep_records(SMALL))
    rows = run_sweep(SMALL)
    assert [dataclasses.astuple(aggregate(cell, triples)) for cell, triples in records] == \
        [dataclasses.astuple(row) for row in rows]
    cell, triples = records[0]
    one = aggregate(cell, triples[:1])
    alpha, loss, size = triples[0]
    assert (one.mean_alpha, one.sd_alpha, one.mean_test_loss, one.mean_tree_size,
            one.replications) == (alpha, 0.0, loss, size, 1)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the workers see the counting patch only when forked")
def test_closing_sweep_records_cancels_the_replications_not_started(tmp_path, monkeypatch):
    log = tmp_path / "started"
    generate = xp.generate

    def counting_generate(spec):
        with open(log, "a") as fh:  # one byte per replication started, in any worker
            fh.write(".")
        return generate(spec)

    monkeypatch.setattr(xp, "generate", counting_generate)
    cfg = dataclasses.replace(SMALL, n_grid=(30, 40), p_grid=(5, 10, 15, 20, 25, 30),
                              replications=8, jobs=2)
    records = sweep_records(cfg)
    cell, triples = next(records)
    records.close()
    assert multiprocessing.active_children() == []
    assert cell == next(cfg.cells()) and len(triples) == cfg.replications
    started = len(log.read_text())
    assert cfg.replications <= started < len(list(cfg.cells())) * cfg.replications


def test_different_seed_differs():
    import dataclasses
    other = dataclasses.replace(SMALL, master_seed=8)
    a, b = run_sweep(SMALL), run_sweep(other)
    assert any(x.mean_alpha != y.mean_alpha for x, y in zip(a, b))


def _rows_from_alpha(fn, n=100, noise=0.1):
    rows = []
    for p in (10, 30, 100, 300):
        rows.append(CellResult(1, n, p, noise, fn(p), 0.0, 0.0, 1.0, 5))
    return tuple(rows)


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
        fit_alpha_vs_logp(rows)


def test_figure_data_layout(tmp_path):
    rows = []
    for n in (50, 200):
        for p in (10, 100):
            rows.append(CellResult(1, n, p, 0.3, 0.1, 0.01, 0.0, 2.0, 5))
    paths = write_figure_data(tuple(rows), tmp_path)
    assert len(paths) == 1
    lines = (tmp_path / "figure3_1.dat").read_text().strip().splitlines()
    assert lines[0].split() == ["ln_p", "mean_alpha", "sd_alpha", "n"]
    series = [line.split()[-1] for line in lines[1:]]
    assert series == ["50", "50", "200", "200"]  # one series per n


def test_failed_figure_write_leaves_the_old_file(tmp_path):
    rows = tuple(CellResult(1, n, p, 0.3, 0.1, 0.01, 0.0, 2.0, 5)
                 for n in (50, 200) for p in (10, 100))
    write_figure_data(rows, tmp_path)
    before = (tmp_path / "figure3_1.dat").read_bytes()
    # ln p fails in the second series, after the first is written
    bad = rows[:2] + (dataclasses.replace(rows[2], p=0, mean_alpha=0.5),) + rows[3:]
    with pytest.raises(ValueError, match="math domain error"):
        write_figure_data(bad, tmp_path)
    assert (tmp_path / "figure3_1.dat").read_bytes() == before
    assert os.listdir(tmp_path) == ["figure3_1.dat"]


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
    # each would otherwise fail only inside the first replication
    for test_samples in (0, -3):
        with pytest.raises(ValueError, match="test_samples must be >= 1"):
            ExperimentConfig(test_samples=test_samples)
    with pytest.raises(ValueError, match="design 1 noise"):
        ExperimentConfig(noise_grids={1: (0.1, 0.7)})
    with pytest.raises(ValueError, match="p must be"):
        ExperimentConfig(p_grid=(30, 1))
    with pytest.raises(ValueError, match="n must be >= 1"):
        ExperimentConfig(n_grid=(0,))
    with pytest.raises(ValueError, match="folds"):
        ExperimentConfig(n_grid=(50, 5), folds=10)
    ExperimentConfig(n_grid=(5,), folds=5)


def test_config_keeps_its_own_noise_grids():
    grids = {1: [0.1, 0.2]}
    cfg = dataclasses.replace(SMALL, noise_grids=grids)
    grids[1] = (0.7,)  # a noise design 1 cannot draw, set after the config was checked
    assert cfg.noise_grids == {1: (0.1, 0.2)}
    assert [cell[3] for cell in cfg.cells()] == [0.1, 0.2, 0.1, 0.2]
    assert pickle.loads(pickle.dumps(cfg)) == cfg  # workers receive it pickled


def test_equal_configs_hash_equal_and_a_noise_grid_still_tells_them_apart():
    a, b = ExperimentConfig(), ExperimentConfig()
    assert a == b and hash(a) == hash(b)
    assert {a: "run"}[b] == "run"
    other = dataclasses.replace(a, noise_grids={**a.noise_grids, 1: (0.1, 0.2)})
    assert other != a and len({a, b, other}) == 2
    assert hash(dataclasses.replace(SMALL, noise_grids={1: [0.1]})) == hash(SMALL)


@pytest.mark.parametrize("kwargs,message", [
    (dict(designs=(1, 1)), "designs repeats 1"),
    (dict(n_grid=(40, 50, 40, 50)), "n_grid repeats 40, 50"),
    (dict(p_grid=(30, 30)), "p_grid repeats 30"),
    (dict(noise_grids={1: (0.1, 0.2, 0.1)}), "the noise grid of design 1 repeats 0.1"),
])
def test_config_rejects_repeated_grid_values(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("kwargs,message", [
    (dict(folds=2.5), "folds must be an integer"),
    (dict(n_grid=(50.5,)), "n must be an integer"),
    (dict(p_grid=(30, 60.0)), "p must be an integer"),
    (dict(designs=(1.0,), noise_grids={1.0: (0.1,)}), "design_id must be an integer"),
    (dict(designs=(2,), noise_grids={2: (1.0, math.inf)}), "noise must be a finite real number"),
])
def test_config_rejects_non_integral_and_non_finite_values(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("kwargs,message", [
    (dict(replications=2.5), "replications must be an integer, got 2.5"),
    (dict(replications=True), "replications must be an integer, got True"),
    (dict(jobs=1.5), "jobs must be an integer, got 1.5"),
    (dict(test_samples=100.5), "test_samples must be an integer, got 100.5"),
    (dict(master_seed=1.5), "master_seed must be an integer, got 1.5"),
    (dict(master_seed=-1), "master_seed must be >= 0"),
])
def test_config_rejects_bad_counts_and_seeds(kwargs, message):
    # each would otherwise fail only inside the sweep, or run one replication
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataclasses.replace(SMALL, **kwargs)


def test_results_bytes_designs_2_to_4(tmp_path):
    # a sweep over designs 2-4 at p = 400, where each test draw spans many
    # row blocks; the recorded hash pins results.csv to the unstreamed draw
    cfg = ExperimentConfig(designs=(2, 3, 4), n_grid=(20,), p_grid=(5, 400),
                           noise_grids={2: (1.0,), 3: (1.0,), 4: (0.2,)},
                           replications=2, master_seed=7, test_samples=3000)
    path = tmp_path / "results.csv"
    write_results_csv(run_sweep(cfg), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "3d7e98b534ff91fb21a8afa042d135cb369ee351cabcb6a3f9506757e86bce58"


def test_writers_take_numpy_scalars_as_the_numbers_they_are(tmp_path):
    # a noise level passed as np.float64 writes the same bytes as the float
    written = []
    for noise in (np.float64(0.3), 0.3):
        cfg = dataclasses.replace(SMALL, noise_grids={1: (noise,)}, replications=2)
        results = run_sweep(cfg)
        out = tmp_path / type(noise).__name__
        out.mkdir()
        write_results_csv(results, out / "results.csv")
        write_fit_csv(fit_alpha_vs_logp(results), out / "fit.csv")
        written.append([(out / name).read_bytes() for name in ("results.csv", "fit.csv")])
    assert written[0] == written[1]
    assert b",0.3," in written[0][0] and b",0.3," in written[0][1]
