"""Mutation fuzzing of the three text inputs: tree text, dataset CSV and the
experiment config file.  Valid inputs have tokens, cells or lines dropped,
repeated and swapped.  Each result must parse or raise ValueError, and
through the CLI it must exit 0 or exit 2 with one `Error:` line and no
traceback."""

import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from treeselect import Dataset, grow_maximal, load_dataset, save_dataset, tree_from_text
from treeselect import experiment as xp
from treeselect.cli import main
from treeselect.tree import tree_to_text


@st.composite
def mutated(draw, items):
    """`items` with one to three drops, repeats or swaps."""
    items = list(items)
    for _ in range(draw(st.integers(1, 3))):
        if not items:
            break
        i = draw(st.integers(0, len(items) - 1))
        kind = draw(st.sampled_from(["drop", "repeat", "swap"]))
        if kind == "drop":
            del items[i]
        elif kind == "repeat":
            items.insert(i, items[i])
        else:
            j = draw(st.integers(0, len(items) - 1))
            items[i], items[j] = items[j], items[i]
    return items


def _data():
    rng = np.random.default_rng(5)
    return Dataset(rng.normal(size=(8, 3)).round(2), np.array([0, 1, 1, 0, 1, 0, 0, 1]))


_TREES = ["leaf(1)", "node(2, -0.5, leaf(0), leaf(1))", tree_to_text(grow_maximal(_data())),
          "node(1, 1e-05, node(3, 2.5, leaf(1), leaf(0)), leaf(1))"]
_TREE_TOKEN = re.compile(r"node|leaf|[(),]|[^\s(),]+")


@st.composite
def tree_texts(draw):
    tokens = draw(mutated(_TREE_TOKEN.findall(draw(st.sampled_from(_TREES)))))
    return draw(st.sampled_from(["", " "])).join(tokens)


def _csv_text():
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(_data(), Path(tmp) / "d.csv")
        return (Path(tmp) / "d.csv").read_text()


_CSV_LINES = _csv_text().splitlines()


@st.composite
def csv_texts(draw):
    lines = list(_CSV_LINES)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = ",".join(draw(mutated(lines[k].split(","))))
    if draw(st.booleans()):
        lines = draw(mutated(lines))
    return "\n".join(lines) + "\n"


_CONFIG = ("designs=1,2\nn_grid=30,40\np_grid=5,10\nnoise_grid=0.1,0.2\n"
           "replications=2\nfolds=3\ntest_samples=100\njobs=1\n")
_CONFIG_TOKEN = re.compile(r"[=,\n]|[^=,\n]+")


@st.composite
def config_texts(draw):
    if draw(st.booleans()):
        return "".join(draw(mutated(_CONFIG_TOKEN.findall(_CONFIG))))
    return "\n".join(draw(mutated(_CONFIG.splitlines()))) + "\n"


def _check(result):
    """The CLI's exit contract: success, or exit 2 with one `Error:` line."""
    assert result.exit_code in (0, 2), (result.output, result.exception)
    assert "Traceback" not in result.output
    if result.exit_code == 2:
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1, result.output


def _invoke(*args):
    _check(CliRunner().invoke(main, list(args)))


def _write(tmp, name, text):
    path = Path(tmp) / name
    path.write_text(text)
    return str(path)


@settings(max_examples=300, deadline=None)
@given(tree_texts())
def test_mutated_tree_text_parses_or_raises_value_error(text):
    try:
        tree = tree_from_text(text)
    except ValueError:
        return
    assert tree_from_text(tree_to_text(tree)) == tree


@settings(max_examples=60, deadline=None)
@given(tree_texts())
def test_mutated_tree_text_through_the_cli(text):
    with tempfile.TemporaryDirectory() as tmp:
        data = _write(tmp, "d.csv", _csv_text())
        _invoke("prune", "--data", data, "--tree", _write(tmp, "t.txt", text),
                "--out", str(Path(tmp) / "seq.csv"))


@settings(max_examples=300, deadline=None)
@given(csv_texts())
def test_mutated_csv_loads_or_raises_value_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "d.csv", text)
        try:
            data = load_dataset(path)
        except ValueError:
            return
    assert data.n >= 1 and data.p >= 2


@settings(max_examples=60, deadline=None)
@given(csv_texts())
def test_mutated_csv_through_the_cli(text):
    with tempfile.TemporaryDirectory() as tmp:
        _invoke("grow", "--data", _write(tmp, "d.csv", text))


class _Parsed(Exception):
    """Raised in place of running the sweep, once the config was accepted."""


@settings(max_examples=300, deadline=None)
@given(config_texts())
def test_mutated_config_through_the_cli(text):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(xp, "run_sweep", side_effect=_Parsed):
        result = CliRunner().invoke(main, ["experiment", "--config", _write(tmp, "c.cfg", text),
                                           "--seed", "1", "--out-dir", tmp])
    if not isinstance(result.exception, _Parsed):
        _check(result)
        assert result.exit_code == 2


def test_the_unmutated_inputs_are_valid():
    for text in _TREES:
        tree_from_text(text)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(xp, "run_sweep", side_effect=_Parsed):
        assert load_dataset(_write(tmp, "d.csv", "\n".join(_CSV_LINES))).n == 8
        result = CliRunner().invoke(main, ["experiment", "--config", _write(tmp, "c.cfg", _CONFIG),
                                           "--seed", "1", "--out-dir", tmp])
    assert isinstance(result.exception, _Parsed)


def test_repeated_config_key_is_a_usage_error(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("folds=3\nfolds=5\n")
    with mock.patch.object(xp, "run_sweep", side_effect=_Parsed):
        result = CliRunner().invoke(main, ["experiment", "--config", str(cfg), "--seed", "1",
                                           "--out-dir", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: repeated config key 'folds'"
