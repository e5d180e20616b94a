"""Simulation designs with analytic ground truth, plus CSV dataset I/O.

Four synthetic binary-classification designs over p ordered real features.
Each design comes with its exact regression function eta(x) = P(Y=1|X=x),
its Bayes misclassification rate, and the exact mass of the low-margin
region P(|2*eta(X)-1| <= t), so generated data can be checked analytically.
"""

from __future__ import annotations

import csv
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

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


def check_integer(name: str, value) -> None:
    """Raise ValueError unless value is an integer; a bool or a float with an
    integral value is not one, so nothing is coerced."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _set_read_only(obj, **arrays) -> None:
    """Set each array, made read-only, as an attribute of a frozen dataclass."""
    for name, a in arrays.items():
        if a is not None:
            a.flags.writeable = False
        object.__setattr__(obj, name, a)


@dataclass(frozen=True, eq=False)
class Dataset:
    """n rows of p real features with 0/1 labels.

    ``X`` and ``y`` are read-only copies taken at construction.  ``order``
    is the presort that tree growing starts from: row j holds the row
    indices that sort feature column j, ties by row index (a stable
    argsort).  It is computed on first use with ``tied``, the columns that
    hold equal values; both are cached and read-only.  A ``subset`` taken
    with strictly increasing rows from a dataset whose order is cached
    inherits it by filtering, and inherits ``tied`` (a superset of its
    own), so the CV folds of one dataset share a single sort.  Equality
    and hashing are those of the object's identity.
    """

    X: np.ndarray  # (n, p) float64
    y: np.ndarray  # (n,) int
    _order: np.ndarray | None = field(default=None, init=False, repr=False)
    _tied: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        X = np.array(self.X, dtype=np.float64)
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
        _set_read_only(self, X=X, y=np.array(y, dtype=np.int64))

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
            self._presort()
        return self._order

    @property
    def tied(self) -> np.ndarray:
        """0-based indices of the columns that hold equal values, computed
        with ``order``; for an inheriting subset, those of its parent."""
        if self._tied is None:
            self._presort()
        return self._tied

    def _presort(self) -> None:
        # the default sort is faster and gives the stable permutation in every
        # column of distinct values; only the tied columns are sorted again
        order = np.argsort(self.X.T, axis=1)
        svals = np.take_along_axis(self.X.T, order, 1)
        tied = np.flatnonzero((svals[:, 1:] == svals[:, :-1]).any(axis=1))
        order[tied] = np.argsort(self.X.T[tied], axis=1, kind="stable")
        _set_read_only(self, _order=order, _tied=tied)

    def subset(self, rows) -> "Dataset":
        """The dataset of the given rows, in the given order.  Rows of a
        checked dataset need no second check, so only emptiness is tested."""
        rows = np.arange(self.n)[rows]
        if rows.size == 0:
            raise ValueError("need at least one observation")
        order = tied = None
        if self._order is not None and np.all(rows[1:] > rows[:-1]):
            # rank is monotone in the row index, so filtering the parent's
            # order keeps ties by row index: a stable argsort of the child
            rank = np.full(self.n, -1, dtype=self._order.dtype)
            rank[rows] = np.arange(rows.size)
            ranked = rank.take(self._order)
            order, tied = ranked[ranked >= 0].reshape(self.p, rows.size), self._tied
        child = object.__new__(Dataset)  # bypasses __post_init__'s checks
        _set_read_only(child, X=self.X[rows], y=self.y[rows], _order=order, _tied=tied)
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
        for name in ("design_id", "n", "p", "seed"):
            check_integer(name, getattr(self, name))
        if not math.isfinite(self.noise):
            raise ValueError(f"noise must be finite, got {self.noise!r}")
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


# float64 cells per block of the Gaussian noise draw (512 KiB)
BLOCK_CELLS = 1 << 16


def _kept_columns(columns, p: int) -> np.ndarray:
    if columns is None:
        return np.arange(p)
    cols = np.asarray(columns)
    if cols.ndim != 1 or (cols.size and cols.dtype.kind not in "iu"):
        raise ValueError("columns must be a 1-D sequence of integer indices")
    cols = cols.astype(np.int64)
    if cols.size and (cols[0] < 0 or cols[-1] >= p or np.any(cols[1:] <= cols[:-1])):
        raise ValueError(f"columns must be strictly increasing and lie in [0, {p})")
    return cols


def _normal_columns(rng: np.random.Generator, n: int, width: int,
                    keep: np.ndarray) -> np.ndarray:
    """``rng.standard_normal((n, width))[:, keep]``, drawn in row blocks of
    at most BLOCK_CELLS cells (at least one row) into one reused buffer.
    The generator fills the blocks with the same stream, in the same order,
    as the full draw, so the kept values and the state it leaves behind do
    not depend on ``keep``."""
    rows = max(1, BLOCK_CELLS // width)
    buf = np.empty((min(rows, n), width))
    out = np.empty((n, keep.size))
    for start in range(0, n, rows):
        block = buf[:min(rows, n - start)]
        rng.standard_normal(out=block)
        out[start:start + block.shape[0]] = block[:, keep]
    return out


def generate(spec: DesignSpec, columns=None) -> Dataset:
    """Draw a dataset from the design; a pure function of the spec.

    The (n, p) Gaussian draw is streamed in row blocks of at most
    BLOCK_CELLS = 2^16 cells (one row when p is wider), so only the kept
    columns are ever held in full.  ``columns`` (strictly increasing, in
    [0, p); all of them by default) names the feature columns to keep, in
    that order.  The random stream does not depend on it: every kept
    column, and the labels, equal those of the full draw.
    """
    rng = np.random.default_rng(spec.seed)
    n, p = spec.n, spec.p
    cols = _kept_columns(columns, p)
    if spec.design_id == 1:
        q = spec.noise
        need = np.union1d(cols, (0, 1))  # the labels read x1 and x2
        W = _normal_columns(rng, n, p, need)
        in_quadrant = (W[:, 0] > 0) & (W[:, 1] > 0)
        prob = np.where(in_quadrant, q, 1.0 - q)
        y = (rng.random(n) < prob).astype(np.int64)
        X = W if need.size == cols.size else W[:, np.searchsorted(need, cols)]
    elif spec.design_id in (2, 3):
        # design 2 puts the signal in x1, design 3 in x1 and x2
        sigma = math.sqrt(spec.noise)
        y = rng.integers(0, 2, size=n)
        X = _normal_columns(rng, n, p, cols)
        for j in range(spec.design_id - 1):
            signal = y + sigma * rng.standard_normal(n)
            k = np.searchsorted(cols, j)
            if k < cols.size and cols[k] == j:
                X[:, k] = signal
    else:
        sigma = math.sqrt(spec.noise)
        Z = rng.standard_normal((n, 3))
        base = Z.sum(axis=1) / math.sqrt(3.0)
        X = np.empty((n, cols.size))
        k = np.searchsorted(cols, 3)  # kept columns below 3 come from Z
        X[:, :k] = Z[:, cols[:k]]
        if k < cols.size:  # the last draw: skipped when nothing of it is kept
            X[:, k:] = base[:, None] + sigma * _normal_columns(rng, n, p - 3, cols[k:] - 3)
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


# Cephes ndtr (S. L. Moshier), the routine behind scipy.special.ndtr: the
# same coefficients, evaluated in the same order, give the same bits.
# erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8, exp(-x^2) R(x)/S(x) beyond;
# erf(x) = x T(x^2)/U(x^2) for |x| <= 1.  Q, S and U have a leading 1.
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2  # ln of the largest double
_SQRT1_2 = 0.707106781186547524400844362104849039


def _polevl(x: float, coef) -> float:
    """coef[0] x^N + ... + coef[N] by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef) -> float:
    """x^N + coef[0] x^(N-1) + ... + coef[N-1] by Horner's rule."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """erf(x) for |x| <= 1."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(x: float) -> float:
    """erfc(x) for x >= 0."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0  # underflow
    z = math.exp(z)
    if x < 8.0:
        p, q = _polevl(x, _P), _p1evl(x, _Q)
    else:
        p, q = _polevl(x, _R), _p1evl(x, _S)
    return (z * p) / q


def _normal_cdf(a: float) -> float:
    """P(Z <= a) for a standard normal Z, bit for bit scipy.special.ndtr(a)."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def bayes_risk(spec: DesignSpec) -> float:
    """Analytic misclassification rate of the optimal rule."""
    if spec.design_id == 1:
        return spec.noise
    if spec.design_id == 2:
        sigma = math.sqrt(spec.noise)
        return _normal_cdf(-1.0 / (2.0 * sigma))
    if spec.design_id == 3:
        sigma = math.sqrt(spec.noise)
        return _normal_cdf(-1.0 / (sigma * math.sqrt(2.0)))
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
        m0 = _normal_cdf(hi / sigma) - _normal_cdf(lo / sigma)
        m1 = _normal_cdf((hi - 1.0) / sigma) - _normal_cdf((lo - 1.0) / sigma)
        return 0.5 * (m0 + m1)
    # design 3: u = (x1 + x2 - 1)/sigma^2, S = x1 + x2 ~ N(2y, 2 sigma^2)
    delta = 2.0 * s2 * math.atanh(t)
    sd = sigma * math.sqrt(2.0)
    lo, hi = 1.0 - delta, 1.0 + delta
    m0 = _normal_cdf(hi / sd) - _normal_cdf(lo / sd)
    m1 = _normal_cdf((hi - 2.0) / sd) - _normal_cdf((lo - 2.0) / sd)
    return 0.5 * (m0 + m1)


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
    """Read a CSV dataset; the label column must be named 'y', and no two
    header names may be equal."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV file")
        header = [h.strip() for h in header]
        repeated = sorted(h for h, count in Counter(header).items() if count > 1)
        if repeated:
            raise ValueError(f"repeated header name(s): {', '.join(map(repr, repeated))}")
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
