"""Simulation-study harness: sweep the design grid, tune alpha by CV per
replication, aggregate, and fit mean alpha against ln p.

Every replication draws its RNG streams from (master_seed, cell, rep), so
results are byte-identical whatever the worker count or schedule.
"""

from __future__ import annotations

import csv
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .designs import DesignSpec, generate
from .penalties import CVConfig, cv_select_alpha
from .tree import loss_estimate

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "FitResult",
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
FIGURE_NOISE = {1: 0.3, 2: 2.0, 3: 2.0, 4: 0.2}


@dataclass(frozen=True)
class ExperimentConfig:
    designs: tuple[int, ...] = (1,)
    n_grid: tuple[int, ...] = (50, 100, 200)
    p_grid: tuple[int, ...] = (30, 60, 125, 250, 500, 1000)
    noise_grids: dict = field(default_factory=lambda: dict(DEFAULT_NOISE_GRIDS))
    replications: int = 50
    folds: int = CVConfig.folds
    master_seed: int = 0
    test_samples: int = 10_000
    jobs: int = 1

    def __post_init__(self):
        if not self.designs or not self.n_grid or not self.p_grid:
            raise ValueError("all grids must be nonempty")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.jobs < 1:
            raise ValueError("need at least one job")
        if self.test_samples < 1:
            raise ValueError("need at least one test sample")
        CVConfig(folds=self.folds)  # raises on a fold count CV cannot use
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
    data_ss, cv_ss, test_ss = ss.spawn(3)
    return (int(data_ss.generate_state(1, dtype=np.uint64)[0]),
            int(cv_ss.generate_state(1, dtype=np.uint64)[0]),
            int(test_ss.generate_state(1, dtype=np.uint64)[0]))


def _run_replication(task) -> tuple[float, float, int]:
    (master_seed, design, n, p, noise, noise_idx, rep, folds, test_samples) = task
    data_seed, cv_seed, test_seed = _seeds_for(master_seed, design, n, p, noise_idx, rep)
    spec = DesignSpec(design, n, p, noise, seed=data_seed)
    data = generate(spec)
    alpha, tree = cv_select_alpha(data, CVConfig(folds=folds, seed=cv_seed))
    _, loss = loss_estimate(tree, spec, test_samples, test_seed)
    return alpha, loss, tree.n_leaves


def run_sweep(cfg: ExperimentConfig) -> tuple[CellResult, ...]:
    """One aggregated row per grid cell, in ``cfg.cells()`` order."""
    R = cfg.replications
    cells = list(cfg.cells())
    tasks = [(cfg.master_seed, *cell, rep, cfg.folds, cfg.test_samples)
             for cell in cells for rep in range(R)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_run_replication, tasks, chunksize=4))
    else:
        results = [_run_replication(t) for t in tasks]

    rows = []
    for i, (d, n, p, noise, _) in enumerate(cells):
        chunk = results[i * R:(i + 1) * R]
        alphas = np.array([c[0] for c in chunk])
        losses = np.array([c[1] for c in chunk])
        sizes = np.array([c[2] for c in chunk], dtype=np.float64)
        sd = float(alphas.std(ddof=1)) if R > 1 else 0.0
        rows.append(CellResult(d, n, p, noise, float(alphas.mean()), sd,
                               float(losses.mean()), float(sizes.mean()), R))
    return tuple(rows)


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["design", "n", "p", "noise", "mean_alpha", "sd_alpha",
                         "mean_test_loss", "mean_tree_size", "R"])
        for r in results:
            writer.writerow([r.design, r.n, r.p, repr(r.noise), repr(r.mean_alpha),
                             repr(r.sd_alpha), repr(r.mean_test_loss),
                             repr(r.mean_tree_size), r.replications])


def write_fit_csv(fits: list[FitResult], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["design", "n", "noise", "slope", "intercept", "r_squared"])
        for f in fits:
            writer.writerow([f.design, f.n, repr(f.noise), repr(f.slope),
                             repr(f.intercept), repr(f.r_squared)])


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
        with open(path, "w") as fh:
            fh.write("ln_p mean_alpha sd_alpha n\n")
            for n in sorted({r.n for r in drows}):
                series = sorted((r for r in drows if r.n == n and r.noise == noise),
                                key=lambda r: r.p)
                for r in series:
                    fh.write(f"{math.log(r.p)!r} {r.mean_alpha!r} {r.sd_alpha!r} {n}\n")
        paths.append(path)
    return paths
