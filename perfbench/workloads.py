"""The benchmark's workloads: inputs drawn from the workload seed, one
operation through treeselect's public functions, and a check of its output.

Sweep workloads run one replication of the Figure-3 simulation per
operation, with the same calls as experiment._run_replication:
generate -> cv_select_alpha (10 folds) -> loss_estimate (10,000 test rows).
The oracle workload grows small trees and compares the heuristics with the
exhaustive oracles exactly.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

FOLDS = 10
TEST_SAMPLES = 10_000

# workload -> (design, n, p, noise) cells; operation i uses cells[i % len(cells)]
SWEEP_CELLS = {
    # Figure-3 corner that dominates the sweep: best_split's per-node m x p sort
    "sweep-wide": ((1, 200, 1000, 0.3),),
    # few rows, many columns: the 10,000 x p test draw of loss_estimate dominates
    "sweep-short": ((1, 50, 1000, 0.3),),
    # few columns, thousands of small nodes: Python overhead per node dominates
    "sweep-narrow": ((2, 200, 30, 1.0), (3, 200, 30, 1.0), (4, 200, 30, 0.2)),
}

ORACLE = "oracle-desk"
WORKLOADS = tuple(SWEEP_CELLS) + (ORACLE,)

# Layers each workload must reach; a traced run that records no call for one
# of them is an error, not a zero.
SWEEP_LAYERS = ("designs.generate", "grow.best_split", "grow.grow_maximal",
                "prune.weakest_link", "prune.best_in_sequence",
                "penalties.cv_select_alpha", "tree.loss_estimate", "tree.predict_batch")
EXPECTED_LAYERS = {name: SWEEP_LAYERS for name in SWEEP_CELLS}
EXPECTED_LAYERS[ORACLE] = ("grow.best_split", "grow.grow_maximal", "prune.weakest_link",
                           "prune.best_in_sequence", "penalties.select_tree",
                           "oracle.brute_force_best_subtree", "oracle.exhaustive_select")

# penalty weights at which weakest link is compared with brute force; they
# span the critical alphas of trees with at most 10 leaves on 10-40 rows
ORACLE_ALPHAS = tuple(Fraction(k, 120) for k in (0, 1, 2, 3, 5, 8, 12, 20, 30, 60))
ORACLE_MAX_LEAVES = 10
ORACLE_DESK_ROWS = 10  # rows given to exhaustive_select (k_max = 3)


def make_input(workload: str, seed: int, index: int):
    """Input of operation `index`, a pure function of (workload, seed, index)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    if workload == ORACLE:
        n = int(rng.integers(10, 41))
        X = rng.standard_normal((n, 2))
        y = rng.integers(0, 2, size=n)
        y[0], y[1] = 0, 1  # both labels, so the tree is not a single leaf
        return X, y, float(rng.uniform(0.05, 0.5))
    cells = SWEEP_CELLS[workload]
    s1, s2, s3 = (int(s) for s in rng.integers(0, 2 ** 63, size=3))
    return cells[index % len(cells)] + (s1, s2, s3)


def warm_up(ts, workload: str) -> None:
    """Run every code path of the workload once on tiny inputs, so that lazy
    imports and first-call costs are paid before timing."""
    if workload == ORACLE:
        X, y, lin = make_input(workload, 0, 0)
        oracle_op(ts, (X[:10], y[:10], lin))
        return
    for design, _, _, noise in SWEEP_CELLS[workload]:
        sweep_op(ts, (design, 20, 4, noise, 1, 2, 3), test_samples=100)


def run_op(ts, workload: str, inp):
    return oracle_op(ts, inp) if workload == ORACLE else sweep_op(ts, inp)


def sweep_op(ts, inp, test_samples: int = TEST_SAMPLES):
    design, n, p, noise, s1, s2, s3 = inp
    spec = ts.DesignSpec(design, n, p, noise, seed=s1)
    data = ts.generate(spec)
    alpha, tree = ts.cv_select_alpha(data, ts.CVConfig(folds=FOLDS, seed=s2))
    risk, _ = ts.loss_estimate(tree, spec, test_samples, s3)
    return alpha, tree, risk


def fingerprint(ts, out) -> list:
    """What a sweep operation must reproduce exactly: the chosen alpha, the
    selected tree and its size.  The test risk is left out on purpose, so
    that an exact risk computation can replace the Monte Carlo estimate."""
    alpha, tree, _ = out
    digest = hashlib.sha256(ts.tree_to_text(tree).encode()).hexdigest()[:16]
    return [repr(alpha), digest, tree.n_leaves]


def check_sweep(ts, inp, out, reference) -> str | None:
    """None when the output is valid (and matches `reference` if given)."""
    alpha, tree, risk = out
    p = inp[2]
    if not (isinstance(alpha, float) and math.isfinite(alpha) and alpha >= 0.0):
        return f"alpha {alpha!r} is not a finite nonnegative float"
    if not isinstance(tree, ts.TreeClassifier) or tree.max_var() > p:
        return "selected tree is not a classifier over the p features"
    if not (math.isfinite(risk) and 0.0 <= risk <= 1.0):
        return f"test risk {risk!r} is not in [0, 1]"
    if reference is not None and fingerprint(ts, out) != reference:
        return f"fingerprint {fingerprint(ts, out)} differs from reference {reference}"
    return None


def oracle_op(ts, inp):
    X, y, lin = inp
    data = ts.Dataset(X, y)
    tree = ts.grow_maximal(data, ts.GrowLimits(max_leaves=ORACLE_MAX_LEAVES))
    seq = ts.weakest_link(tree, data)
    costs = []
    for alpha in ORACLE_ALPHAS:
        idx = ts.subtree_at_alpha(seq, alpha)
        heuristic = Fraction(seq.error_counts[idx], data.n) + alpha * seq.sizes[idx]
        _, brute = ts.brute_force_best_subtree(tree, data, lambda k, a=alpha: a * k)
        costs.append((alpha, heuristic, brute))
    desk = data.subset(np.arange(ORACLE_DESK_ROWS))
    pen = ts.LinearPenalty(lin)
    _, exhaustive = ts.exhaustive_select(desk, pen, k_max=3)
    _, greedy = ts.select_tree(desk, pen, ts.GrowLimits(max_leaves=3))
    return seq, costs, exhaustive, greedy


def check_oracle(ts, out) -> str | None:
    seq, costs, exhaustive, greedy = out
    for alpha, heuristic, brute in costs:
        if not (isinstance(brute, Fraction) and heuristic == brute):
            return f"weakest-link cost {heuristic} != brute force {brute} at alpha {alpha}"
    for a, b in zip(seq.subtrees, seq.subtrees[1:]):
        if not ts.is_pruned_subtree(b, a):
            return "pruned sequence is not nested"
    # both costs are floats summed in the same order; 1e-12 absorbs rounding
    if not exhaustive <= greedy + 1e-12:
        return f"exhaustive cost {exhaustive!r} exceeds heuristic cost {greedy!r}"
    return None


def check(ts, workload: str, inp, out, reference) -> str | None:
    if workload == ORACLE:
        return check_oracle(ts, out)
    return check_sweep(ts, inp, out, reference)
