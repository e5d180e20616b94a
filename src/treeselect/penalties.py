"""Penalty family, penalized tree selection, and cross-validated alpha tuning.

All penalties are functions of (tree size k, sample size n, dimension p);
logarithms are natural.  The margin-adaptive penalty with kappa = 1 reduces
exactly to a linear penalty with slope (c1*ln(2n) + c2*ln(p))/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .designs import Dataset, check_integer
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
    "penalty_value",
    "select_tree",
    "cv_select_alpha",
]


@dataclass(frozen=True)
class LinearPenalty:
    alpha: float = 0.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")

    def value(self, k: int, n: int, p: int) -> float:
        return self.alpha * k


@dataclass(frozen=True)
class MarginAdaptivePenalty:
    """c1*(k*ln(2n)/n)^e + c2*(k*ln(p)/n)^e with e = kappa/(2*kappa - 1)."""

    kappa: float = 1.0
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("constants must be positive")

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
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("constants must be positive")

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
        if self.c1 <= 0:
            raise ValueError("constant must be positive")

    def value(self, k: int, n: int, p: int) -> float:
        return self.c1 * math.sqrt(k * p * math.log(n) / n)


@dataclass(frozen=True)
class GeyPenalty:
    """c2 * p*ln(p)*(1 + ln(n/ln p)) * k / n."""

    c2: float = 1.0

    def __post_init__(self):
        if self.c2 <= 0:
            raise ValueError("constant must be positive")

    def value(self, k: int, n: int, p: int) -> float:
        lp = math.log(p)
        return self.c2 * p * lp * (1.0 + math.log(n / lp)) * k / n


def penalty_value(spec, k: int, n: int, p: int) -> float:
    if k < 1 or n < 1 or p < 2:
        raise ValueError("require k >= 1, n >= 1, p >= 2")
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


@dataclass(frozen=True)
class CVConfig:
    folds: int = 10
    rule: str = "min"
    seed: int = 0

    def __post_init__(self):
        check_integer("folds", self.folds)
        check_integer("seed", self.seed, least=0)
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        if self.rule not in ("min", "1se"):
            raise ValueError("rule must be 'min' or '1se'")


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


def cv_select_alpha(data: Dataset, cfg: CVConfig) -> tuple[float, TreeClassifier]:
    """Q-fold cross-validated choice of the linear penalty weight for maximal trees.

    Returns the winning alpha and the full-data weakest-link element
    selected at it.  The winner is the last candidate (the largest alpha,
    i.e. the simplest tree) whose mean held-out risk is at most a bound:
    the minimum mean risk under rule "min", and that plus the standard
    error of the last candidate at the minimum under rule "1se".
    """
    if cfg.folds > data.n:
        raise ValueError("more folds than observations")

    full_seq = weakest_link(grow_maximal(data), data)
    cands = _candidate_alphas(full_seq)
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(data.n)
    folds = np.array_split(perm, cfg.folds)

    # fold_err[f][c]: held-out misclassifications of candidate c on fold f
    fold_err = np.zeros((cfg.folds, len(cands)), dtype=np.float64)
    fold_sizes = np.array([f.size for f in folds], dtype=np.float64)
    alphas = np.array(cands)
    for f, held in enumerate(folds):
        keep = np.ones(data.n, dtype=bool)
        keep[held] = False
        train = data.subset(np.flatnonzero(keep))
        seq = weakest_link(grow_maximal(train), train)
        errors = np.array(seq.errors_on(data.subset(held)))
        fold_err[f] = errors[_picks(seq, alphas)]

    mean_risk = fold_err.sum(axis=0) / data.n
    bound = float(mean_risk.min())
    if cfg.rule == "1se":
        at_min = int(np.flatnonzero(mean_risk == bound)[-1])
        per_fold = fold_err[:, at_min] / fold_sizes
        bound += float(per_fold.std(ddof=1) / math.sqrt(cfg.folds))
    alpha = cands[int(np.flatnonzero(mean_risk <= bound)[-1])]
    idx, _ = best_in_sequence(full_seq, lambda k: alpha * k)
    return alpha, full_seq.subtree(idx)
