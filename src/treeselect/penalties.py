"""Penalty family, penalized tree selection, and cross-validated alpha tuning.

All penalties are functions of (tree size k, sample size n, dimension p);
logarithms are natural.  The margin-adaptive penalty with kappa = 1 reduces
exactly to a linear penalty with slope (c1*ln(2n) + c2*ln(p))/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .designs import Dataset, _set_read_only, check_integer, check_real
from .grow import GrowLimits, grow_maximal
from .prune import PrunedSequence, best_in_sequence, weakest_link
from .tree import TreeClassifier

__all__ = [
    "LinearPenalty",
    "MarginAdaptivePenalty",
    "VCPenalty",
    "MinCombinedPenalty",
    "NobelPenalty",
    "GeyPenalty",
    "CVConfig",
    "CVCurve",
    "penalty_value",
    "select_tree",
    "cv_curve",
    "cv_select_alpha",
]


@dataclass(frozen=True)
class LinearPenalty:
    alpha: float = 0.0

    def __post_init__(self):
        check_real("alpha", self.alpha, least=0)

    def value(self, k: int, n: int, p: int) -> float:
        return self.alpha * k


@dataclass(frozen=True)
class MarginAdaptivePenalty:
    """c1*(k*ln(2n)/n)^e + c2*(k*ln(p)/n)^e with e = kappa/(2*kappa - 1)."""

    kappa: float = 1.0
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        check_real("kappa", self.kappa, least=1)
        check_real("c1", self.c1, above=0)
        check_real("c2", self.c2, above=0)

    def value(self, k: int, n: int, p: int) -> float:
        if self.kappa == 1.0:
            # exact linear reduction under the strong margin condition
            return k * (self.c1 * math.log(2 * n) + self.c2 * math.log(p)) / n
        e = self.kappa / (2.0 * self.kappa - 1.0)
        return (self.c1 * (k * math.log(2 * n) / n) ** e
                + self.c2 * (k * math.log(p) / n) ** e)


@dataclass(frozen=True)
class VCPenalty:
    """Distribution-free form: c1*sqrt(k*ln(n)/n) + c2*k/n."""

    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        check_real("c1", self.c1, above=0)
        check_real("c2", self.c2, above=0)

    def value(self, k: int, n: int, p: int) -> float:
        return self.c1 * math.sqrt(k * math.log(n) / n) + self.c2 * k / n


@dataclass(frozen=True)
class MinCombinedPenalty:
    """Pointwise minimum of the margin-adaptive and VC forms."""

    margin: MarginAdaptivePenalty = field(default_factory=MarginAdaptivePenalty)
    vc: VCPenalty = field(default_factory=VCPenalty)

    def value(self, k: int, n: int, p: int) -> float:
        return min(self.margin.value(k, n, p), self.vc.value(k, n, p))


@dataclass(frozen=True)
class NobelPenalty:
    """c1*sqrt(k*p*ln(n)/n)."""

    c1: float = 1.0

    def __post_init__(self):
        check_real("c1", self.c1, above=0)

    def value(self, k: int, n: int, p: int) -> float:
        return self.c1 * math.sqrt(k * p * math.log(n) / n)


@dataclass(frozen=True)
class GeyPenalty:
    """c2 * p*ln(p)*(1 + ln(n/ln p)) * k / n."""

    c2: float = 1.0

    def __post_init__(self):
        check_real("c2", self.c2, above=0)

    def value(self, k: int, n: int, p: int) -> float:
        lp = math.log(p)
        return self.c2 * p * lp * (1.0 + math.log(n / lp)) * k / n


def penalty_value(spec, k: int, n: int, p: int) -> float:
    for name, value, least in (("k", k, 1), ("n", n, 1), ("p", p, 2)):
        check_integer(name, value, least)
    return spec.value(k, n, p)


def select_tree(data: Dataset, spec, limits: GrowLimits | None = None
                ) -> tuple[TreeClassifier, float]:
    """Grow, prune by weakest link, then pick the sequence element
    minimizing empirical risk + penalty; returns (tree, criterion value)."""
    tmax = grow_maximal(data, limits)
    seq = weakest_link(tmax, data)
    idx, cost = best_in_sequence(
        seq, lambda k: penalty_value(spec, k, data.n, data.p))
    return seq.subtree(idx), float(cost)


CV_RULES = ("min", "1se")


@dataclass(frozen=True)
class CVConfig:
    folds: int = 10
    rule: str = "min"
    seed: int = 0

    def __post_init__(self):
        check_integer("folds", self.folds, least=2)
        check_integer("seed", self.seed, least=0)
        if self.rule not in CV_RULES:
            raise ValueError(f"rule must be {' or '.join(map(repr, CV_RULES))}")


def _candidate_alphas(seq: PrunedSequence) -> list[float]:
    """One representative per critical-alpha interval: 0, geometric means
    of consecutive positive critical alphas, and a value above the last."""
    crit = [float(a) for a in seq.alphas]
    cands = [0.0]
    for a, b in zip(crit[1:], crit[2:]):
        cands.append(math.sqrt(a * b))
    if len(crit) > 1:
        cands.append(2.0 * crit[-1])
    return cands


def _picks(seq: PrunedSequence, alphas: np.ndarray) -> np.ndarray:
    """best_in_sequence(seq, lambda k: alpha * k)[0] for every float alpha in
    `alphas`, in one pass.  A Fraction plus a float is float(err / n) +
    alpha * k, which is what numpy computes here, so the costs agree bit for
    bit; the arrays run from the smallest tree, so argmin's first minimum
    breaks ties toward it, as best_in_sequence does."""
    risks = np.array(seq.error_counts)[::-1] / seq.n
    costs = risks + alphas[:, None] * np.array(seq.sizes)[::-1]
    return len(seq.sizes) - 1 - costs.argmin(axis=1)


@dataclass(frozen=True, eq=False)
class CVCurve:
    """Q-fold CV risk curve of the linear penalty weight.  fold_errors[f, c]
    counts fold f's held-out rows that the fold-f tree's pick at
    candidates[c] misclassifies, of fold_sizes[f]; both are kept as read-only
    copies, as a Dataset keeps its arrays.  `candidates` are derived
    from the full-data `sequence`: they increase, and element c of the
    sequence is its pick at candidates[c]."""

    sequence: PrunedSequence
    fold_errors: np.ndarray
    fold_sizes: np.ndarray
    candidates: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        errors, sizes = self.fold_errors, self.fold_sizes
        if not (isinstance(sizes, np.ndarray) and sizes.ndim == 1
                and np.issubdtype(sizes.dtype, np.integer)):
            raise ValueError("fold_sizes must be a 1-D integer array")
        if sizes.size < 2:
            raise ValueError("a CV curve needs at least two folds")
        if (sizes < 1).any():
            raise ValueError("every fold must hold at least one row")
        shape = (sizes.size, len(self.sequence.alphas))
        if not (isinstance(errors, np.ndarray) and errors.shape == shape
                and np.issubdtype(errors.dtype, np.integer)):
            raise ValueError(f"fold_errors must be an integer array of shape {shape}")
        if (errors < 0).any() or (errors > sizes[:, None]).any():
            raise ValueError("fold errors must lie between 0 and the fold's size")
        _set_read_only(self, fold_errors=errors.copy(), fold_sizes=sizes.copy())
        object.__setattr__(self, "candidates", tuple(_candidate_alphas(self.sequence)))

    def pick(self, rule: str) -> int:
        """Index of the last candidate (the largest alpha, i.e. the simplest
        tree) whose mean risk is at most the minimum, plus under rule "1se"
        the standard error of the per-fold risks at the last minimum."""
        CVConfig(rule=rule)  # raises on an unknown rule
        mean_risk = self.fold_errors.sum(axis=0) / self.fold_sizes.sum()
        bound = float(mean_risk.min())
        if rule == "1se":
            at_min = int(np.flatnonzero(mean_risk == bound)[-1])
            per_fold = self.fold_errors[:, at_min] / self.fold_sizes
            bound += float(per_fold.std(ddof=1) / math.sqrt(len(self.fold_sizes)))
        return int(np.flatnonzero(mean_risk <= bound)[-1])


def cv_curve(data: Dataset, cfg: CVConfig) -> CVCurve:
    """The CVCurve of `data` under cfg; the full-data sequence is built before any fold's."""
    if cfg.folds > data.n:
        raise ValueError("more folds than observations")
    sequence = weakest_link(grow_maximal(data), data)
    alphas = np.array(_candidate_alphas(sequence))
    folds = np.array_split(np.random.default_rng(cfg.seed).permutation(data.n), cfg.folds)
    fold_errors = np.empty((cfg.folds, alphas.size), dtype=np.int64)
    for f, held in enumerate(folds):
        keep = np.ones(data.n, dtype=bool)
        keep[held] = False
        train = data.subset(np.flatnonzero(keep))
        seq = weakest_link(grow_maximal(train), train)
        fold_errors[f] = np.array(seq.errors_on(data.subset(held)))[_picks(seq, alphas)]
    fold_sizes = np.array([held.size for held in folds], dtype=np.int64)
    return CVCurve(sequence, fold_errors, fold_sizes)


def cv_select_alpha(data: Dataset, cfg: CVConfig) -> tuple[float, TreeClassifier]:
    """Q-fold CV choice of the linear penalty weight: the candidate of
    `cv_curve` that cfg.rule picks, and the full-data element picked at it."""
    curve = cv_curve(data, cfg)
    alpha = curve.candidates[curve.pick(cfg.rule)]
    idx, _ = best_in_sequence(curve.sequence, lambda k: alpha * k)
    return alpha, curve.sequence.subtree(idx)
