"""Simulation designs with analytic ground truth, plus CSV dataset I/O.

Four synthetic binary-classification designs over p ordered real features.
Each design comes with its exact regression function eta(x) = P(Y=1|X=x),
its Bayes misclassification rate, and the exact mass of the low-margin
region P(|2*eta(X)-1| <= t), so generated data can be checked analytically.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

__all__ = [
    "Dataset",
    "DesignSpec",
    "MarginSpec",
    "generate",
    "eta",
    "bayes_predict",
    "bayes_risk",
    "margin_mass",
    "margin_holds",
    "save_dataset",
    "load_dataset",
]


@dataclass(frozen=True)
class Dataset:
    """n rows of p real features with 0/1 labels.

    ``order`` is the presort that tree growing starts from: row j holds the
    row indices that sort feature column j, ties by row index (a stable
    argsort).  It is computed on first use, cached and read-only.  A
    ``subset`` taken with strictly increasing rows from a dataset whose
    order is already cached inherits it by filtering, so the CV folds of
    one dataset share a single sort.  Writing to ``X`` after the order is
    cached makes it stale; ``grow_maximal`` checks for that and raises.
    """

    X: np.ndarray  # (n, p) float64
    y: np.ndarray  # (n,) int
    _order: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y)
        if X.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if X.shape[0] < 1:
            raise ValueError("need at least one observation")
        if X.shape[1] < 2:
            raise ValueError("need at least two feature columns")
        # a finite sum implies finite entries, without an n x p temporary;
        # only a sum that overflows needs the entrywise check
        with np.errstate(over="ignore", invalid="ignore"):
            total = X.sum()
        if not np.isfinite(total) and not np.isfinite(X).all():
            raise ValueError("features must be finite (no NaN or infinity)")
        if y.shape != (X.shape[0],):
            raise ValueError("label vector length must match the row count")
        # check the raw values: a cast first would turn 0.7 into a valid 0
        if y.dtype.kind not in "biuf" or not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", np.asarray(y, dtype=np.int64))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def order(self) -> np.ndarray:
        """(p, n) stable argsort of each feature column, computed once."""
        if self._order is None:
            self._set_order(np.argsort(self.X.T, axis=1, kind="stable"))
        return self._order

    def _set_order(self, order: np.ndarray) -> None:
        order.flags.writeable = False
        object.__setattr__(self, "_order", order)

    def subset(self, rows) -> "Dataset":
        rows = np.arange(self.n)[rows]
        child = Dataset(self.X[rows], self.y[rows])
        if self._order is not None and np.all(rows[1:] > rows[:-1]):
            # rank is monotone in the row index, so filtering the parent's
            # order keeps ties by row index: a stable argsort of the child
            rank = np.full(self.n, -1, dtype=self._order.dtype)
            rank[rows] = np.arange(rows.size)
            ranked = rank[self._order]
            child._set_order(ranked[ranked >= 0].reshape(self.p, rows.size))
        return child


@dataclass(frozen=True)
class DesignSpec:
    """One cell of the simulation study.

    noise is q in (0, 1/2) for design 1 and sigma^2 > 0 for designs 2-4.
    """

    design_id: int
    n: int
    p: int
    noise: float
    seed: int = 0

    def __post_init__(self):
        if self.design_id not in (1, 2, 3, 4):
            raise ValueError("design_id must be in {1,2,3,4}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.p < 2:
            raise ValueError("p must be at least 2")
        if self.design_id == 4 and self.p < 3:
            raise ValueError("design 4 needs p >= 3")
        if self.design_id == 1:
            if not 0.0 < self.noise < 0.5:
                raise ValueError("design 1 noise is a flip probability q in (0, 1/2)")
        elif self.noise <= 0.0:
            raise ValueError("designs 2-4 noise is a variance, must be > 0")


@dataclass(frozen=True)
class MarginSpec:
    """Margin assumption to check against a design.

    kind "MA1": P(|2 eta - 1| <= t) <= C0 * t^(1/(kappa-1)) for all t > 0.
    kind "MA2": P(|2 eta - 1| <= h) = 0 for some h in (0,1).
    """

    kind: str
    C0: float = 1.0
    kappa: float = 2.0
    h: float = 0.5

    def __post_init__(self):
        if self.kind not in ("MA1", "MA2"):
            raise ValueError("kind must be 'MA1' or 'MA2'")
        if self.kind == "MA1":
            if self.C0 <= 0:
                raise ValueError("C0 must be positive")
            if self.kappa <= 1:
                raise ValueError("MA1 needs kappa > 1")
        else:
            if not 0.0 < self.h < 1.0:
                raise ValueError("MA2 needs h in (0,1)")


def generate(spec: DesignSpec) -> Dataset:
    """Draw a dataset from the design; a pure function of the spec."""
    rng = np.random.default_rng(spec.seed)
    n, p = spec.n, spec.p
    if spec.design_id == 1:
        q = spec.noise
        X = rng.standard_normal((n, p))
        in_quadrant = (X[:, 0] > 0) & (X[:, 1] > 0)
        prob = np.where(in_quadrant, q, 1.0 - q)
        y = (rng.random(n) < prob).astype(np.int64)
    elif spec.design_id == 2:
        sigma = math.sqrt(spec.noise)
        y = rng.integers(0, 2, size=n)
        X = rng.standard_normal((n, p))
        X[:, 0] = y + sigma * rng.standard_normal(n)
    elif spec.design_id == 3:
        sigma = math.sqrt(spec.noise)
        y = rng.integers(0, 2, size=n)
        X = rng.standard_normal((n, p))
        X[:, 0] = y + sigma * rng.standard_normal(n)
        X[:, 1] = y + sigma * rng.standard_normal(n)
    else:
        sigma = math.sqrt(spec.noise)
        Z = rng.standard_normal((n, 3))
        base = Z.sum(axis=1) / math.sqrt(3.0)
        X = np.empty((n, p))
        X[:, :3] = Z
        if p > 3:
            X[:, 3:] = base[:, None] + sigma * rng.standard_normal((n, p - 3))
        y = ((Z ** 2).sum(axis=1) > 2.5).astype(np.int64)
    return Dataset(X, y)


def eta(spec: DesignSpec, x) -> np.ndarray | float:
    """Exact P(Y=1 | X=x) for the design; accepts a vector or an (m,p) array."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    pts = np.atleast_2d(arr)
    if pts.shape[1] != spec.p:
        raise ValueError(f"expected {spec.p} coordinates, got {pts.shape[1]}")
    if spec.design_id == 1:
        q = spec.noise
        out = np.where((pts[:, 0] > 0) & (pts[:, 1] > 0), q, 1.0 - q)
    elif spec.design_id == 2:
        s2 = spec.noise
        out = 1.0 / (1.0 + np.exp(-(2.0 * pts[:, 0] - 1.0) / (2.0 * s2)))
    elif spec.design_id == 3:
        s2 = spec.noise
        out = 1.0 / (1.0 + np.exp(-(pts[:, 0] + pts[:, 1] - 1.0) / s2))
    else:
        out = ((pts[:, 0] ** 2 + pts[:, 1] ** 2 + pts[:, 2] ** 2) > 2.5).astype(np.float64)
    return float(out[0]) if single else out


def bayes_predict(spec: DesignSpec, x) -> np.ndarray | int:
    """The optimal rule 1{eta(x) >= 1/2}."""
    e = eta(spec, x)
    if np.isscalar(e) or getattr(e, "ndim", 0) == 0:
        return int(e >= 0.5)
    return (e >= 0.5).astype(np.int64)


def bayes_risk(spec: DesignSpec) -> float:
    """Analytic misclassification rate of the optimal rule."""
    if spec.design_id == 1:
        return spec.noise
    if spec.design_id == 2:
        sigma = math.sqrt(spec.noise)
        return float(norm.cdf(-1.0 / (2.0 * sigma)))
    if spec.design_id == 3:
        sigma = math.sqrt(spec.noise)
        return float(norm.cdf(-1.0 / (sigma * math.sqrt(2.0))))
    return 0.0


def margin_mass(spec: DesignSpec, t: float) -> float:
    """Exact P(|2 eta(X) - 1| <= t).

    Designs 2 and 3 reduce to interval probabilities of a Gaussian mixture
    in x1 (resp. x1 + x2), so no quadrature is needed.  Design 4 has
    deterministic labels, so the mass is 0 below t = 1 even though the
    source text states its margin condition fails; we report the analytic
    value.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t >= 1.0:
        return 1.0
    if spec.design_id == 1:
        gap = abs(2.0 * spec.noise - 1.0)
        return 1.0 if t >= gap else 0.0
    if spec.design_id == 4:
        return 0.0
    s2 = spec.noise
    sigma = math.sqrt(s2)
    if spec.design_id == 2:
        # |2 eta - 1| = |tanh(u/2)| with u = (2 x1 - 1)/(2 sigma^2)
        delta = 2.0 * s2 * math.atanh(t)
        lo, hi = 0.5 - delta, 0.5 + delta
        m0 = norm.cdf(hi / sigma) - norm.cdf(lo / sigma)
        m1 = norm.cdf((hi - 1.0) / sigma) - norm.cdf((lo - 1.0) / sigma)
        return float(0.5 * (m0 + m1))
    # design 3: u = (x1 + x2 - 1)/sigma^2, S = x1 + x2 ~ N(2y, 2 sigma^2)
    delta = 2.0 * s2 * math.atanh(t)
    sd = sigma * math.sqrt(2.0)
    lo, hi = 1.0 - delta, 1.0 + delta
    m0 = norm.cdf(hi / sd) - norm.cdf(lo / sd)
    m1 = norm.cdf((hi - 2.0) / sd) - norm.cdf((lo - 2.0) / sd)
    return float(0.5 * (m0 + m1))


def margin_holds(spec: DesignSpec, margin: MarginSpec) -> bool:
    """Check a margin assumption against a design's analytic margin mass."""
    if margin.kind == "MA2":
        return margin_mass(spec, margin.h) == 0.0
    expo = 1.0 / (margin.kappa - 1.0)
    t_grid = np.linspace(1e-3, 1.0, 200)
    return all(margin_mass(spec, float(t)) <= margin.C0 * float(t) ** expo for t in t_grid)


def save_dataset(data: Dataset, path) -> None:
    """Write CSV with header x1,...,xp,y."""
    header = [f"x{j}" for j in range(1, data.p + 1)] + ["y"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            writer.writerow([repr(float(v)) for v in data.X[i]] + [int(data.y[i])])


def load_dataset(path) -> Dataset:
    """Read a CSV dataset; the label column must be named 'y'."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV file")
        header = [h.strip() for h in header]
        if "y" not in header:
            raise ValueError("label column 'y' not found in header")
        ycol = header.index("y")
        xcols = [j for j in range(len(header)) if j != ycol]
        X_rows, y_rows = [], []
        for r, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"row {r} has {len(row)} cells, the header has {len(header)}")
            try:
                X_rows.append([float(row[j]) for j in xcols])
                label = float(row[ycol])
            except ValueError as exc:
                raise ValueError(f"row {r}: {exc}") from None
            if label not in (0.0, 1.0):
                raise ValueError(f"row {r}: label {row[ycol]!r} is not 0 or 1")
            y_rows.append(int(label))
    return Dataset(np.asarray(X_rows), np.asarray(y_rows))
