import numpy as np
import pytest
from click.testing import CliRunner

import treeselect.verify
from treeselect.cli import main
from treeselect import Dataset, load_dataset, save_dataset, tree_from_text

from conftest import NEIGHBOUR_CASES


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


@pytest.mark.parametrize("X,y", NEIGHBOUR_CASES)
def test_grow_separates_neighbouring_values(tmp_path, X, y):
    data = tmp_path / "d.csv"
    save_dataset(Dataset(np.array(X), np.array(y)), data)
    res = run("grow", "--data", str(data))
    assert res.output.splitlines() == [f"node(1, {X[0][0]!r}, leaf(0), leaf(1))",
                                       "leaves=2 training_risk=0.000000"]


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
    assert result.exit_code == 2
    assert "Error: need at least one job" in result.output
    assert not (tmp_path / "results.csv").exists()


def test_experiment_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("designs=1\nreplicatons=2\n")
    result = CliRunner().invoke(main, ["experiment", "--config", str(cfg), "--seed", "1",
                                       "--out-dir", str(tmp_path)])
    assert result.exit_code == 2
    assert "Error: unknown config key(s): replicatons" in result.output
    assert not (tmp_path / "results.csv").exists()


def test_malformed_config_line_is_a_usage_error(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("designs=1\noops\n")
    result = CliRunner().invoke(main, ["experiment", "--config", str(cfg), "--seed", "1",
                                       "--out-dir", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: malformed config line: 'oops'"


def test_library_value_error_is_a_usage_error(tmp_path):
    data = _make_data(tmp_path)
    result = CliRunner().invoke(main, ["select", "--data", str(data),
                                       "--penalty", "margin", "--kappa", "0.5"])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: kappa must be >= 1"
    assert "Traceback" not in result.output


def test_repeated_header_name_is_a_usage_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x1,y\n1.0,2.0,0\n3.0,4.0,1\n")
    result = CliRunner().invoke(main, ["grow", "--data", str(path)])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: repeated header name(s): 'x1'"
    assert "Traceback" not in result.output


@pytest.mark.parametrize("flags,message", [
    (["--penalty", "margin", "--alpha", "5"], "--penalty margin does not read --alpha"),
    (["--penalty", "nobel", "--kappa", "3", "--c2", "9"],
     "--penalty nobel does not read --kappa, --c2"),
    (["--penalty", "linear", "--kappa", "9"], "--penalty linear does not read --kappa"),
    (["--penalty", "gey", "--c1", "2"], "--penalty gey does not read --c1"),
    (["--penalty", "vc", "--kappa", "2"], "--penalty vc does not read --kappa"),
])
def test_select_rejects_a_flag_its_penalty_does_not_read(tmp_path, flags, message):
    data = _make_data(tmp_path)
    result = CliRunner().invoke(main, ["select", "--data", str(data), *flags])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == f"Error: {message}"


def test_select_linear_defaults_to_the_class_weight(tmp_path):
    data = _make_data(tmp_path)
    default = run("select", "--data", str(data), "--penalty", "linear")
    zero = run("select", "--data", str(data), "--penalty", "linear", "--alpha", "0")
    assert default.output == zero.output


@pytest.mark.parametrize("flags,message", [
    (["--n-grid", "40,,40"], "empty item in the comma list '40,,40'"),
    (["--p-grid", "5,"], "empty item in the comma list '5,'"),
    (["--noise-grid", ""], "empty item in the comma list ''"),
    (["--n-grid", "40,40"], "n_grid repeats 40"),
    (["--designs", "1,2,1"], "designs repeats 1"),
    (["--noise-grid", "0.1,0.2,0.1"], "the noise grid of design 1 repeats 0.1"),
])
def test_experiment_rejects_empty_and_repeated_grid_items(tmp_path, flags, message):
    result = CliRunner().invoke(main, ["experiment", "--seed", "1", "--replications", "1",
                                       *flags, "--out-dir", str(tmp_path)])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: {message}"]
    assert not (tmp_path / "results.csv").exists()


def test_config_file_grid_with_an_empty_item_is_a_usage_error(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("p_grid=5,,10\n")
    result = CliRunner().invoke(main, ["experiment", "--config", str(cfg), "--seed", "1",
                                       "--out-dir", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: empty item in the comma list '5,,10'"


def test_experiment_rejects_a_one_value_p_grid_before_the_sweep(tmp_path):
    result = CliRunner().invoke(main, ["experiment", "--seed", "1", "--replications", "1",
                                       "--n-grid", "40", "--p-grid", "5",
                                       "--out-dir", str(tmp_path)])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == ["Error: need at least 2 distinct p values to fit"]
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("flags,message", [
    (["--n-grid", "4_0"], "'4_0' is not an integer"),
    (["--replications", "1_0"], "'1_0' is not an integer"),
    (["--noise-grid", "0_1"], "'0_1' is not a finite decimal number"),
    (["--n-grid", "٤٠"], "'٤٠' is not an integer"),
    (["--noise-grid", "1e999"], "'1e999' is not a finite decimal number"),
])
def test_experiment_reads_numbers_strictly(tmp_path, flags, message):
    result = CliRunner().invoke(main, ["experiment", "--seed", "1", *flags,
                                       "--out-dir", str(tmp_path)])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: {message}"]
    assert "Traceback" not in result.output
    assert not (tmp_path / "results.csv").exists()


def test_config_file_reads_numbers_strictly(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("p_grid=5_0\n")
    result = CliRunner().invoke(main, ["experiment", "--config", str(cfg), "--seed", "1",
                                       "--out-dir", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: '5_0' is not an integer"
    assert "Traceback" not in result.output


@pytest.mark.parametrize("flags,message", [
    (["--n", "4_0"], "Invalid value for '--n': '4_0' is not an integer"),
    (["--noise", "1_0.5"], "Invalid value for '--noise': '1_0.5' is not a finite decimal number"),
    (["--seed", "+٣"], "Invalid value for '--seed': '+٣' is not an integer"),
])
def test_simulate_reads_numbers_strictly(tmp_path, flags, message):
    args = {"--design": "1", "--n": "40", "--p": "4", "--noise": "0.1", "--seed": "3"}
    args.update(zip(flags[::2], flags[1::2]))
    result = CliRunner().invoke(main, ["simulate", *[v for kv in args.items() for v in kv],
                                       "--out", str(tmp_path / "d.csv")])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == f"Error: {message}"
    assert not (tmp_path / "d.csv").exists()
