import numpy as np
from click.testing import CliRunner

import treeselect.verify
from treeselect.cli import main
from treeselect import load_dataset, tree_from_text


def run(*args):
    result = CliRunner().invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def test_simulate(tmp_path):
    out = tmp_path / "d.csv"
    run("simulate", "--design", "1", "--n", "40", "--p", "4",
        "--noise", "0.1", "--seed", "3", "--out", str(out))
    d = load_dataset(out)
    assert d.X.shape == (40, 4)


def _make_data(tmp_path):
    out = tmp_path / "d.csv"
    run("simulate", "--design", "1", "--n", "40", "--p", "4",
        "--noise", "0.1", "--seed", "3", "--out", str(out))
    return out


def test_grow_and_prune(tmp_path):
    data = _make_data(tmp_path)
    tree_file = tmp_path / "tree.txt"
    run("grow", "--data", str(data), "--out", str(tree_file))
    tree = tree_from_text(tree_file.read_text())
    assert tree.n_leaves >= 1
    seq_file = tmp_path / "seq.csv"
    run("prune", "--data", str(data), "--tree", str(tree_file), "--out", str(seq_file))
    lines = seq_file.read_text().strip().splitlines()
    assert lines[0] == "size,risk,alpha"
    assert len(lines) >= 2


def test_select(tmp_path):
    data = _make_data(tmp_path)
    res = run("select", "--data", str(data), "--penalty", "margin", "--kappa", "1")
    assert "penalized_cost=" in res.output


def test_select_linear_zero_is_maximal(tmp_path):
    data = _make_data(tmp_path)
    res = run("select", "--data", str(data), "--penalty", "linear", "--alpha", "0")
    grown = run("grow", "--data", str(data))
    assert res.output.splitlines()[0] == grown.output.splitlines()[0]


def test_cv(tmp_path):
    data = _make_data(tmp_path)
    res = run("cv", "--data", str(data), "--folds", "5", "--seed", "1")
    assert "alpha=" in res.output


def test_verify(monkeypatch):
    # acceptance criteria 1-5 run the real checks; here only the reporting
    monkeypatch.setattr(treeselect.verify, "CHECKS", [
        ("stub-a", lambda: (True, "first")), ("stub-b", lambda: (True, "second"))])
    res = run("verify")
    assert res.output.splitlines() == [
        "[PASS] stub-a: first", "[PASS] stub-b: second", "all checks passed"]


def test_verify_runs_the_six_checks_in_order():
    assert [name for name, _ in treeselect.verify.CHECKS] == [
        "counting-catalan", "counting-classes", "entropy-bound", "pruning-oracle",
        "subadditive-penalty", "exhaustive-vs-heuristic"]


def test_verify_reports_a_failing_check(monkeypatch):
    monkeypatch.setattr(treeselect.verify, "CHECKS", [
        ("stub-pass", lambda: (True, "fine")),
        ("stub-fail", lambda: (False, "oracle disagrees"))])
    result = CliRunner().invoke(main, ["verify"])
    assert result.exit_code == 1
    assert "[PASS] stub-pass: fine" in result.output
    assert "[FAIL] stub-fail: oracle disagrees" in result.output
    assert "all checks passed" not in result.output


def test_experiment_with_config_and_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "designs=1\nn_grid=30\np_grid=5,10\nnoise_grid=0.1\n"
        "replications=5\nfolds=5\ntest_samples=200\n")
    out = tmp_path / "run"
    run("experiment", "--config", str(cfg), "--seed", "11",
        "--replications", "2", "--out-dir", str(out))
    results = (out / "results.csv").read_text().strip().splitlines()
    assert len(results) == 3  # header + 2 cells
    assert results[1].split(",")[-1] == "2"  # CLI flag overrode the config file
    assert (out / "fit.csv").exists()
    assert (out / "figure3_1.dat").exists()


def test_experiment_requires_seed(tmp_path):
    result = CliRunner().invoke(main, ["experiment", "--out-dir", str(tmp_path)])
    assert result.exit_code != 0


def test_experiment_rejects_zero_jobs(tmp_path):
    result = CliRunner().invoke(main, ["experiment", "--seed", "1", "--jobs", "0",
                                       "--out-dir", str(tmp_path)])
    assert result.exit_code != 0
    assert isinstance(result.exception, ValueError)
    assert not (tmp_path / "results.csv").exists()
