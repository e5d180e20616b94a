"""Command-line interface.

Subcommands: simulate, grow, prune, select, cv, experiment, verify.
The experiment subcommand reads an optional flat key=value config file;
every key can be overridden by a flag, and --seed is mandatory.  Numbers
are read strictly: an integer is ASCII [+-]?[0-9]+ and a float is a finite
ASCII decimal, so 4_0, 1_0.5 and non-ASCII digits are usage errors.
"""

from __future__ import annotations

import os
import sys
from dataclasses import fields, replace

import click

from . import experiment as xp
from . import verify as suite
from .designs import (DesignSpec, check_integer, generate, load_dataset, replace_file,
                      save_dataset, strict_float, strict_int)
from .grow import GrowLimits, grow_maximal
from .penalties import (CV_RULES, CVConfig, GeyPenalty, LinearPenalty,
                        MarginAdaptivePenalty, MinCombinedPenalty, NobelPenalty,
                        VCPenalty, cv_select_alpha, select_tree)
from .prune import sequence_to_csv, weakest_link
from .tree import empirical_risk, tree_from_text, tree_to_text


class _Strict(click.ParamType):
    """A click type that reads with a strict parser; click's own INT and
    FLOAT call int() and float(), which also read 4_0 and non-ASCII digits."""

    def __init__(self, name, parse):
        self.name, self.parse = name, parse

    def convert(self, value, param, ctx):
        if not isinstance(value, str):  # a default
            return value
        try:
            return self.parse(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


_INT = _Strict("integer", strict_int)
_FLOAT = _Strict("float", strict_float)


def _given(**values) -> dict:
    """The keyword arguments the user gave, so the callee applies its own defaults."""
    return {k: v for k, v in values.items() if v is not None}


_PENALTIES = {"linear": LinearPenalty, "margin": MarginAdaptivePenalty, "vc": VCPenalty,
              "min": MinCombinedPenalty, "nobel": NobelPenalty, "gey": GeyPenalty}

# the flags each --penalty reads, its class's fields; a flag it does not
# read is an error.  min takes the margin flags and hands c1, c2 to vc too.
_PENALTY_FLAGS = {name: tuple(f.name for f in fields(cls)) for name, cls in _PENALTIES.items()}
_PENALTY_FLAGS["min"] = _PENALTY_FLAGS["margin"]


def _build_penalty(penalty, alpha, kappa, c1, c2):
    given = _given(alpha=alpha, kappa=kappa, c1=c1, c2=c2)
    unread = [f"--{flag}" for flag in given if flag not in _PENALTY_FLAGS[penalty]]
    if unread:
        raise ValueError(f"--penalty {penalty} does not read {', '.join(unread)}")
    if penalty == "min":
        return MinCombinedPenalty(MarginAdaptivePenalty(**given),
                                  VCPenalty(**_given(c1=c1, c2=c2)))
    return _PENALTIES[penalty](**given)


def _emit_tree(tree, out):
    """Write the tree's text in place of the --out path (see ``replace_file``),
    or echo it when none is given."""
    text = tree_to_text(tree)
    if out:
        with replace_file(out) as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


class _Group(click.Group):
    """Reports a value the library rejects, and a path the OS refuses, as a
    usage error: exit code 2 and `Error: <message>`, with no traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Group)
def main():
    """Penalized classification-tree selection toolkit."""


@main.command()
@click.option("--design", type=_INT, required=True)
@click.option("--n", type=_INT, required=True)
@click.option("--p", type=_INT, required=True)
@click.option("--noise", type=_FLOAT, required=True)
@click.option("--seed", type=_INT, required=True)
@click.option("--out", type=click.Path(), required=True)
def simulate(design, n, p, noise, seed, out):
    """Generate a dataset CSV from a simulation design."""
    data = generate(DesignSpec(design, n, p, noise, seed=seed))
    save_dataset(data, out)
    click.echo(f"wrote {n}x{p} dataset to {out}")


@main.command()
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--max-leaves", type=_INT, default=None)
@click.option("--min-node-size", type=_INT, default=None)
@click.option("--out", type=click.Path(), default=None)
def grow(data_path, max_leaves, min_node_size, out):
    """Grow the maximal tree on a CSV dataset."""
    data = load_dataset(data_path)
    tree = grow_maximal(data, GrowLimits(**_given(max_leaves=max_leaves,
                                                  min_node_size=min_node_size)))
    _emit_tree(tree, out)
    click.echo(f"leaves={tree.n_leaves} training_risk={empirical_risk(tree, data):.6f}")


@main.command()
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--tree", "tree_path", type=click.Path(exists=True), default=None,
              help="textual tree to prune; grown maximally when omitted")
@click.option("--max-leaves", type=_INT, default=None)
@click.option("--min-node-size", type=_INT, default=None)
@click.option("--out", type=click.Path(), required=True)
def prune(data_path, tree_path, max_leaves, min_node_size, out):
    """Weakest-link pruning; writes the size/risk/alpha sequence CSV."""
    growth = _given(max_leaves=max_leaves, min_node_size=min_node_size)
    if tree_path and growth:
        flags = ", ".join(f"--{flag.replace('_', '-')}" for flag in growth)
        raise ValueError(f"--tree does not read {flags}")
    data = load_dataset(data_path)
    if tree_path:
        with open(tree_path) as fh:
            tree = tree_from_text(fh.read())
    else:
        tree = grow_maximal(data, GrowLimits(**growth))
    seq = weakest_link(tree, data)
    sequence_to_csv(seq, out)
    click.echo(f"sequence of {len(seq.sizes)} subtrees written to {out}")


@main.command()
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--penalty", type=click.Choice(list(_PENALTIES)), default="margin")
@click.option("--alpha", type=_FLOAT, default=None, help="weight for --penalty linear")
@click.option("--kappa", type=_FLOAT, default=None)
@click.option("--c1", type=_FLOAT, default=None)
@click.option("--c2", type=_FLOAT, default=None)
@click.option("--max-leaves", type=_INT, default=None)
@click.option("--min-node-size", type=_INT, default=None)
@click.option("--out", type=click.Path(), default=None)
def select(data_path, penalty, alpha, kappa, c1, c2, max_leaves, min_node_size, out):
    """Penalized tree selection over the pruned sequence."""
    data = load_dataset(data_path)
    spec = _build_penalty(penalty, alpha, kappa, c1, c2)
    limits = GrowLimits(**_given(max_leaves=max_leaves, min_node_size=min_node_size))
    tree, cost = select_tree(data, spec, limits)
    _emit_tree(tree, out)
    click.echo(f"leaves={tree.n_leaves} penalized_cost={cost!r}")


@main.command()
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--folds", type=_INT, default=None)
@click.option("--rule", type=click.Choice(CV_RULES), default=None)
@click.option("--seed", type=_INT, default=None)
@click.option("--out", type=click.Path(), default=None)
def cv(data_path, folds, rule, seed, out):
    """Cross-validated tuning of the linear penalty weight."""
    data = load_dataset(data_path)
    alpha, tree = cv_select_alpha(data, CVConfig(**_given(folds=folds, rule=rule, seed=seed)))
    _emit_tree(tree, out)
    click.echo(f"alpha={alpha!r} leaves={tree.n_leaves}")


def _parse_config_file(path) -> dict:
    """key=value lines; blank lines and # comments are skipped, and a key
    may appear once."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ValueError(f"repeated config key {key!r}")
            out[key] = value
    return out


def _items(text) -> list[str]:
    items = str(text).split(",")
    if any(not v.strip() for v in items):
        raise ValueError(f"empty item in the comma list {text!r}")
    return items


def _int_list(text) -> tuple[int, ...]:
    return tuple(strict_int(v.strip()) for v in _items(text))


def _float_list(text) -> tuple[float, ...]:
    return tuple(strict_float(v.strip()) for v in _items(text))


# experiment's config keys and their parsers, in the order they are read;
# noise_grid replaces the noise grid of every selected design
_CONFIG_KEYS = {"designs": _int_list, "n_grid": _int_list, "p_grid": _int_list,
                "replications": strict_int, "folds": strict_int,
                "test_samples": strict_int, "jobs": strict_int, "noise_grid": _float_list}


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="flat key=value file; flags override its entries")
@click.option("--designs", type=str, default=None, help="comma list, e.g. 1,2")
@click.option("--n-grid", type=str, default=None)
@click.option("--p-grid", type=str, default=None)
@click.option("--noise-grid", type=str, default=None,
              help="comma list applied to every selected design")
@click.option("--replications", type=str, default=None, metavar="INTEGER")
@click.option("--folds", type=str, default=None, metavar="INTEGER")
@click.option("--test-samples", type=str, default=None, metavar="INTEGER")
@click.option("--jobs", type=str, default=None, metavar="INTEGER")
@click.option("--seed", type=_INT, required=True)
@click.option("--out-dir", type=click.Path(), default=".")
def experiment(config_path, seed, out_dir, **flags):
    """Run the full sweep; writes results.csv, fit.csv and figure3_<d>.dat."""
    check_integer("seed", seed, least=0)  # named for the flag, not for master_seed
    texts = _parse_config_file(config_path) if config_path else {}
    texts.update(_given(**flags))  # a flag replaces the file's text before it is parsed
    values = {key: parse(texts.pop(key)) for key, parse in _CONFIG_KEYS.items()
              if key in texts}
    if texts:  # what no key of the table took
        raise click.UsageError(f"unknown config key(s): {', '.join(sorted(texts))}")
    noise_override = values.pop("noise_grid", None)
    cfg = xp.ExperimentConfig(master_seed=seed, **values)
    if noise_override is not None:
        cfg = replace(cfg, noise_grids={**cfg.noise_grids,
                                        **{d: noise_override for d in cfg.designs}})
    if len(cfg.p_grid) < 2:  # the fit below needs two; check before the sweep
        raise click.UsageError("need at least 2 distinct p values to fit")
    os.makedirs(out_dir, exist_ok=True)  # before the sweep, so a bad path costs no work
    result = xp.run_sweep(cfg)
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
