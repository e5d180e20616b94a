"""Simulation-study harness: sweep the design grid, tune alpha by CV per
replication, aggregate, and fit mean alpha against ln p.

Every replication draws its RNG streams from (master_seed, cell, rep), so
results are byte-identical whatever the worker count or schedule.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field
from functools import partial
from itertools import islice, product

import numpy as np

from .designs import DesignSpec, check_integer, generate, replace_file, write_csv
from .penalties import CVConfig, cv_select_alpha
from .tree import loss_estimate

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "FitResult",
    "sweep_records",
    "aggregate",
    "run_sweep",
    "fit_alpha_vs_logp",
    "write_results_csv",
    "write_fit_csv",
    "write_figure_data",
    "DEFAULT_NOISE_GRIDS",
    "FIGURE_NOISE",
]

DEFAULT_NOISE_GRIDS = {
    1: (0.1, 0.2, 0.3),
    2: (0.5, 1.0, 2.0),
    3: (0.5, 1.0, 2.0),
    4: (0.2,),
}

# noise level used for the per-design plot-data file when present in the grid
FIGURE_NOISE = {d: max(grid) for d, grid in DEFAULT_NOISE_GRIDS.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    designs: tuple[int, ...] = (1,)
    n_grid: tuple[int, ...] = (50, 100, 200)
    p_grid: tuple[int, ...] = (30, 60, 125, 250, 500, 1000)
    # left out of the hash, as a dict has none; == still compares it
    noise_grids: dict = field(default_factory=lambda: dict(DEFAULT_NOISE_GRIDS), hash=False)
    replications: int = 50
    folds: int = CVConfig.folds
    master_seed: int = 0
    test_samples: int = 10_000
    jobs: int = 1

    def __post_init__(self):
        if not self.designs or not self.n_grid or not self.p_grid:
            raise ValueError("all grids must be nonempty")
        for name in ("replications", "jobs", "test_samples"):
            check_integer(name, getattr(self, name), least=1)
        check_integer("master_seed", self.master_seed, least=0)
        CVConfig(folds=self.folds)  # raises on a fold count CV cannot use
        # a copy of its own, so that a caller's later edit cannot reach a checked config
        object.__setattr__(self, "noise_grids", {d: tuple(g) for d, g in self.noise_grids.items()})
        for d in self.designs:
            if d not in self.noise_grids or not self.noise_grids[d]:
                raise ValueError(f"no noise grid for design {d}")
        for name, grid in (("designs", self.designs), ("n_grid", self.n_grid),
                           ("p_grid", self.p_grid),
                           *((f"the noise grid of design {d}", self.noise_grids[d])
                             for d in self.designs)):
            repeated = sorted(v for v, count in Counter(grid).items() if count > 1)
            if repeated:
                raise ValueError(f"{name} repeats {', '.join(map(repr, repeated))}")
        for d, n, p, noise, _ in self.cells():
            DesignSpec(d, n, p, noise)  # raises on a cell the design cannot draw
        if min(self.n_grid) < self.folds:
            raise ValueError(f"n = {min(self.n_grid)} is below the {self.folds} CV folds")

    def cells(self):
        """(design, n, p, noise, noise index) of each grid cell, in results.csv order."""
        for d in self.designs:
            for n in self.n_grid:
                for p in self.p_grid:
                    for noise_idx, noise in enumerate(self.noise_grids[d]):
                        yield d, n, p, noise, noise_idx


@dataclass(frozen=True)
class CellResult:
    design: int
    n: int
    p: int
    noise: float
    mean_alpha: float
    sd_alpha: float
    mean_test_loss: float
    mean_tree_size: float
    replications: int


@dataclass(frozen=True)
class FitResult:
    design: int
    n: int
    noise: float
    slope: float
    intercept: float
    r_squared: float


def _seeds_for(master_seed: int, design: int, n: int, p: int, noise_idx: int,
               rep: int) -> tuple[int, int, int]:
    ss = np.random.SeedSequence(entropy=master_seed,
                                spawn_key=(design, n, p, noise_idx, rep))
    return tuple(int(child.generate_state(1, dtype=np.uint64)[0]) for child in ss.spawn(3))


def _run_replication(cfg: ExperimentConfig, cell, rep: int) -> tuple[float, float, int]:
    design, n, p, noise, noise_idx = cell
    data_seed, cv_seed, test_seed = _seeds_for(cfg.master_seed, design, n, p, noise_idx, rep)
    spec = DesignSpec(design, n, p, noise, seed=data_seed)
    alpha, tree = cv_select_alpha(generate(spec), CVConfig(folds=cfg.folds, seed=cv_seed))
    _, loss = loss_estimate(tree, spec, cfg.test_samples, test_seed)
    return alpha, loss, tree.n_leaves


def sweep_records(cfg: ExperimentConfig):
    """Yield each cell of ``cfg.cells()``, in order, with its R (alpha, test loss, tree size)
    triples once they are done; closing it cancels the replications not yet started."""
    cells, reps = zip(*product(cfg.cells(), range(cfg.replications)))
    run = partial(_run_replication, cfg)
    # the pool forks all its workers at the first submit, so it gets no more
    # than there are tasks, or CPUs this process may run on: its affinity
    # where the platform has one (Linux), else every CPU
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cfg.jobs, len(cells), cpus)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        triples = map(run, cells, reps) if pool is None else pool.map(run, cells, reps, chunksize=4)
        for cell in cfg.cells():
            yield cell, tuple(islice(triples, cfg.replications))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def aggregate(cell, triples) -> CellResult:
    """The results.csv row of a cell from its ``sweep_records`` triples."""
    alphas, losses, sizes = (np.array(column, dtype=np.float64) for column in zip(*triples))
    return CellResult(*cell[:4], float(alphas.mean()),
                      float(alphas.std(ddof=1)) if len(triples) > 1 else 0.0,
                      float(losses.mean()), float(sizes.mean()), len(triples))


def run_sweep(cfg: ExperimentConfig) -> tuple[CellResult, ...]:
    """One aggregated row per grid cell, in ``cfg.cells()`` order."""
    return tuple(aggregate(cell, triples) for cell, triples in sweep_records(cfg))


def fit_alpha_vs_logp(results: tuple[CellResult, ...]) -> list[FitResult]:
    """Ordinary least squares of mean alpha on ln p per (design, n, noise)."""
    groups: dict = {}
    for row in results:
        groups.setdefault((row.design, row.n, row.noise), []).append(row)
    fits = []
    for (design, n, noise), rows in sorted(groups.items()):
        ps = sorted({r.p for r in rows})
        if len(ps) < 2:
            raise ValueError("need at least 2 distinct p values to fit")
        x = np.array([math.log(r.p) for r in rows])
        y = np.array([r.mean_alpha for r in rows])
        slope, intercept = np.polyfit(x, y, 1)
        pred = slope * x + intercept
        sst = float(((y - y.mean()) ** 2).sum())
        ssr = float(((y - pred) ** 2).sum())
        r2 = 0.0 if sst == 0.0 else 1.0 - ssr / sst
        fits.append(FitResult(design, n, noise, float(slope), float(intercept), r2))
    return fits


def write_results_csv(results: tuple[CellResult, ...], path) -> None:
    write_csv(path, ["design", "n", "p", "noise", "mean_alpha", "sd_alpha",
                     "mean_test_loss", "mean_tree_size", "R"],
              map(astuple, results))


def write_fit_csv(fits: list[FitResult], path) -> None:
    write_csv(path, ["design", "n", "noise", "slope", "intercept", "r_squared"],
              map(astuple, fits))


def write_figure_data(results: tuple[CellResult, ...], out_dir) -> list[str]:
    """Per-design plot data: columns ln_p, mean_alpha, sd_alpha, n — one
    series per n value, at a single noise level per design."""
    designs = sorted({r.design for r in results})
    paths = []
    for d in designs:
        drows = [r for r in results if r.design == d]
        noises = sorted({r.noise for r in drows})
        noise = FIGURE_NOISE.get(d) if FIGURE_NOISE.get(d) in noises else noises[0]
        path = os.path.join(out_dir, f"figure3_{d}.dat")
        with replace_file(path) as fh:
            fh.write("ln_p mean_alpha sd_alpha n\n")
            for n in sorted({r.n for r in drows}):
                series = sorted((r for r in drows if r.n == n and r.noise == noise),
                                key=lambda r: r.p)
                for r in series:
                    fh.write(f"{math.log(r.p)!r} {r.mean_alpha!r} {r.sd_alpha!r} {n}\n")
        paths.append(path)
    return paths
