"""Command-line interface.

Subcommands: simulate, grow, prune, select, cv, experiment, verify.
The experiment subcommand reads an optional flat key=value config file;
every key can be overridden by a flag, and --seed is mandatory.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import click

from . import experiment as xp
from . import verify as suite
from .designs import DesignSpec, generate, load_dataset, save_dataset
from .grow import GrowLimits, grow_maximal
from .penalties import (CVConfig, GeyPenalty, LinearPenalty,
                        MarginAdaptivePenalty, MinCombinedPenalty, NobelPenalty,
                        VCPenalty, cv_select_alpha, select_tree)
from .prune import sequence_to_csv, weakest_link
from .tree import empirical_risk, tree_from_text, tree_to_text


def _given(**values) -> dict:
    """The keyword arguments the user gave, so the callee applies its own defaults."""
    return {k: v for k, v in values.items() if v is not None}


def _build_penalty(penalty, alpha, kappa, c1, c2):
    if penalty == "linear":
        return LinearPenalty(alpha)
    if penalty == "margin":
        return MarginAdaptivePenalty(**_given(kappa=kappa, c1=c1, c2=c2))
    if penalty == "vc":
        return VCPenalty(**_given(c1=c1, c2=c2))
    if penalty == "min":
        return MinCombinedPenalty(MarginAdaptivePenalty(**_given(kappa=kappa, c1=c1, c2=c2)),
                                  VCPenalty(**_given(c1=c1, c2=c2)))
    if penalty == "nobel":
        return NobelPenalty(**_given(c1=c1))
    return GeyPenalty(**_given(c2=c2))


def _emit_tree(tree, out):
    """Write the tree's text to the --out path, or echo it when none is given."""
    text = tree_to_text(tree)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


@click.group()
def main():
    """Penalized classification-tree selection toolkit."""


@main.command()
@click.option("--design", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--noise", type=float, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", type=click.Path(), required=True)
def simulate(design, n, p, noise, seed, out):
    """Generate a dataset CSV from a simulation design."""
    data = generate(DesignSpec(design, n, p, noise, seed=seed))
    save_dataset(data, out)
    click.echo(f"wrote {n}x{p} dataset to {out}")


@main.command()
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--max-leaves", type=int, default=None)
@click.option("--min-node-size", type=int, default=GrowLimits.min_node_size)
@click.option("--out", type=click.Path(), default=None)
def grow(data_path, max_leaves, min_node_size, out):
    """Grow the maximal tree on a CSV dataset."""
    data = load_dataset(data_path)
    tree = grow_maximal(data, GrowLimits(max_leaves=max_leaves,
                                         min_node_size=min_node_size))
    _emit_tree(tree, out)
    click.echo(f"leaves={tree.n_leaves} training_risk={empirical_risk(tree, data):.6f}")


@main.command()
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--tree", "tree_path", type=click.Path(exists=True), default=None,
              help="textual tree to prune; grown maximally when omitted")
@click.option("--max-leaves", type=int, default=None)
@click.option("--min-node-size", type=int, default=GrowLimits.min_node_size)
@click.option("--out", type=click.Path(), required=True)
def prune(data_path, tree_path, max_leaves, min_node_size, out):
    """Weakest-link pruning; writes the size/risk/alpha sequence CSV."""
    data = load_dataset(data_path)
    if tree_path:
        with open(tree_path) as fh:
            tree = tree_from_text(fh.read())
    else:
        tree = grow_maximal(data, GrowLimits(max_leaves=max_leaves,
                                             min_node_size=min_node_size))
    seq = weakest_link(tree, data)
    sequence_to_csv(seq, out)
    click.echo(f"sequence of {len(seq.subtrees)} subtrees written to {out}")


@main.command()
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--penalty", type=click.Choice(["linear", "margin", "vc", "min",
                                              "nobel", "gey"]), default="margin")
@click.option("--alpha", type=float, default=0.0, help="weight for --penalty linear")
@click.option("--kappa", type=float, default=None)
@click.option("--c1", type=float, default=None)
@click.option("--c2", type=float, default=None)
@click.option("--max-leaves", type=int, default=None)
@click.option("--min-node-size", type=int, default=GrowLimits.min_node_size)
@click.option("--out", type=click.Path(), default=None)
def select(data_path, penalty, alpha, kappa, c1, c2, max_leaves, min_node_size, out):
    """Penalized tree selection over the pruned sequence."""
    data = load_dataset(data_path)
    spec = _build_penalty(penalty, alpha, kappa, c1, c2)
    tree, cost = select_tree(data, spec, GrowLimits(max_leaves=max_leaves,
                                                    min_node_size=min_node_size))
    _emit_tree(tree, out)
    click.echo(f"leaves={tree.n_leaves} penalized_cost={cost!r}")


@main.command()
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--folds", type=int, default=CVConfig.folds)
@click.option("--rule", type=click.Choice(["min", "1se"]), default=CVConfig.rule)
@click.option("--seed", type=int, default=CVConfig.seed)
@click.option("--out", type=click.Path(), default=None)
def cv(data_path, folds, rule, seed, out):
    """Cross-validated tuning of the linear penalty weight."""
    data = load_dataset(data_path)
    alpha, tree = cv_select_alpha(data, CVConfig(folds=folds, rule=rule, seed=seed))
    _emit_tree(tree, out)
    click.echo(f"alpha={alpha!r} leaves={tree.n_leaves}")


def _parse_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise click.ClickException(f"malformed config line: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _int_list(text) -> tuple[int, ...]:
    return tuple(int(v) for v in str(text).split(",") if v != "")


def _float_list(text) -> tuple[float, ...]:
    return tuple(float(v) for v in str(text).split(",") if v != "")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="flat key=value file; flags override its entries")
@click.option("--designs", type=str, default=None, help="comma list, e.g. 1,2")
@click.option("--n-grid", type=str, default=None)
@click.option("--p-grid", type=str, default=None)
@click.option("--noise-grid", type=str, default=None,
              help="comma list applied to every selected design")
@click.option("--replications", type=int, default=None)
@click.option("--folds", type=int, default=None)
@click.option("--test-samples", type=int, default=None)
@click.option("--jobs", type=int, default=None)
@click.option("--seed", type=int, required=True)
@click.option("--out-dir", type=click.Path(), default=".")
def experiment(config_path, designs, n_grid, p_grid, noise_grid, replications,
               folds, test_samples, jobs, seed, out_dir):
    """Run the full sweep; writes results.csv, fit.csv and figure3_<d>.dat."""
    cfg_file = _parse_config_file(config_path) if config_path else {}

    def pick(flag, key, conv):
        if flag is not None:
            return conv(flag)
        if key in cfg_file:
            return conv(cfg_file[key])
        return None

    cfg = xp.ExperimentConfig(master_seed=seed, **_given(
        designs=pick(designs, "designs", _int_list),
        n_grid=pick(n_grid, "n_grid", _int_list),
        p_grid=pick(p_grid, "p_grid", _int_list),
        replications=pick(replications, "replications", int),
        folds=pick(folds, "folds", int),
        test_samples=pick(test_samples, "test_samples", int),
        jobs=pick(jobs, "jobs", int)))
    noise_override = pick(noise_grid, "noise_grid", _float_list)
    if noise_override:
        cfg = replace(cfg, noise_grids={**cfg.noise_grids,
                                        **{d: noise_override for d in cfg.designs}})
    result = xp.run_sweep(cfg)
    os.makedirs(out_dir, exist_ok=True)
    xp.write_results_csv(result, os.path.join(out_dir, "results.csv"))
    xp.write_fit_csv(xp.fit_alpha_vs_logp(result), os.path.join(out_dir, "fit.csv"))
    paths = xp.write_figure_data(result, out_dir)
    click.echo(f"wrote results.csv, fit.csv and {len(paths)} figure file(s) to {out_dir}")


@main.command()
def verify():
    """Run the exhaustive oracle suite and report pass/fail per check."""
    all_ok = True
    for name, check in suite.CHECKS:
        ok, detail = check()
        all_ok &= ok
        click.echo(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    if not all_ok:
        sys.exit(1)
    click.echo("all checks passed")


if __name__ == "__main__":
    main()
