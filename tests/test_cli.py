import os
import stat

import numpy as np
import pytest
from click.testing import CliRunner

import treeselect.cli
import treeselect.verify
from treeselect import experiment as xp
from treeselect.cli import main
from treeselect import (Dataset, MarginAdaptivePenalty, MinCombinedPenalty, VCPenalty,
                        load_dataset, save_dataset, select_tree, tree_from_text, tree_to_text)

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


def test_experiment_makes_its_out_dir_before_any_replication(tmp_path, monkeypatch):
    started = []
    replicate = xp._run_replication
    monkeypatch.setattr(xp, "_run_replication",
                        lambda *args: started.append(args) or replicate(*args))
    grid = ["experiment", "--seed", "1", "--n-grid", "30", "--p-grid", "5,10",
            "--noise-grid", "0.1", "--replications", "2", "--folds", "5",
            "--test-samples", "100", "--out-dir"]
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory\n")
    result = CliRunner().invoke(main, grid + [str(blocker)])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == f"Error: [Errno 17] File exists: {str(blocker)!r}"
    assert started == [] and blocker.read_text() == "a file, not a directory\n"
    run(*grid, str(tmp_path / "run"))
    assert len(started) == 4 and (tmp_path / "run" / "results.csv").exists()


@pytest.mark.parametrize("command", ["grow", "select", "cv"])
def test_tree_out_replaces_the_file_and_keeps_its_mode(tmp_path, command):
    data = _make_data(tmp_path)
    text = run(command, "--data", str(data)).output.splitlines()[0] + "\n"
    out = tmp_path / "tree.txt"
    out.write_text("stale\n")
    os.chmod(out, 0o600)
    stale = out.stat().st_ino
    run(command, "--data", str(data), "--out", str(out))
    assert out.read_text() == text and stat.S_IMODE(out.stat().st_mode) == 0o600
    assert out.stat().st_ino != stale  # a new file took its place: never a partial one
    assert sorted(os.listdir(tmp_path)) == ["d.csv", "tree.txt"]  # no temporary file left
    # through a symbolic link the link stays, and its target is replaced
    link = tmp_path / "link.txt"
    link.symlink_to(out)
    out.write_text("stale\n")
    run(command, "--data", str(data), "--out", str(link))
    assert link.is_symlink() and out.read_text() == text
    assert sorted(os.listdir(tmp_path)) == ["d.csv", "link.txt", "tree.txt"]


def test_cv_rejects_a_negative_seed(tmp_path):
    data = _make_data(tmp_path)
    result = CliRunner().invoke(main, ["cv", "--data", str(data), "--seed", "-1"])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: seed must be >= 0"


def test_simulate_rejects_a_negative_seed(tmp_path):
    result = CliRunner().invoke(main, ["simulate", "--design", "1", "--n", "40", "--p", "4",
                                       "--noise", "0.1", "--seed", "-1",
                                       "--out", str(tmp_path / "d.csv")])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: seed must be >= 0"
    assert not (tmp_path / "d.csv").exists()


def test_experiment_rejects_a_negative_seed(tmp_path):
    result = CliRunner().invoke(main, ["experiment", "--seed", "-1",
                                       "--out-dir", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: seed must be >= 0"
    assert not (tmp_path / "results.csv").exists()


def test_experiment_requires_seed(tmp_path):
    result = CliRunner().invoke(main, ["experiment", "--out-dir", str(tmp_path)])
    assert result.exit_code != 0


def test_experiment_rejects_zero_jobs(tmp_path):
    result = CliRunner().invoke(main, ["experiment", "--seed", "1", "--jobs", "0",
                                       "--out-dir", str(tmp_path)])
    assert result.exit_code == 2
    assert "Error: jobs must be >= 1" in result.output
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
    (["--penalty", "min", "--alpha", "5"], "--penalty min does not read --alpha"),
    (["--penalty", "min", "--kappa", "2", "--alpha", "5"], "--penalty min does not read --alpha"),
])
def test_select_rejects_a_flag_its_penalty_does_not_read(tmp_path, flags, message):
    data = _make_data(tmp_path)
    result = CliRunner().invoke(main, ["select", "--data", str(data), *flags])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == f"Error: {message}"


@pytest.mark.parametrize("flags,message", [
    (["--max-leaves", "2"], "--tree does not read --max-leaves"),
    (["--min-node-size", "1"], "--tree does not read --min-node-size"),
    (["--min-node-size", "3", "--max-leaves", "2"],
     "--tree does not read --max-leaves, --min-node-size"),
])
def test_prune_of_a_given_tree_rejects_growth_flags(tmp_path, flags, message):
    data = _make_data(tmp_path)
    tree_file = tmp_path / "tree.txt"
    run("grow", "--data", str(data), "--out", str(tree_file))
    out = tmp_path / "seq.csv"
    result = CliRunner().invoke(main, ["prune", "--data", str(data), "--tree", str(tree_file),
                                       "--out", str(out), *flags])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == f"Error: {message}"
    assert not out.exists()
    # without --tree the flags grow the tree that is pruned
    run("prune", "--data", str(data), "--out", str(out), *flags)
    assert out.read_text().startswith("size,risk,alpha\n")


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


def _path_cases(tmp_path):
    """(arguments, the path the error must name) of each path the OS refuses."""
    data = _make_data(tmp_path)
    (tmp_path / "a dir").mkdir()
    (tmp_path / "a file").write_text("a file, not a directory\n")
    folder, missing = str(tmp_path / "a dir"), str(tmp_path / "missing" / "x.txt")
    sim = ["simulate", "--design", "1", "--n", "40", "--p", "4", "--noise", "0.1", "--seed", "3"]
    return {"simulate --out": (sim + ["--out", missing], missing),
            "grow --out": (["grow", "--data", str(data), "--out", missing], missing),
            "grow --data": (["grow", "--data", folder], folder),
            "prune --tree": (["prune", "--data", str(data), "--tree", folder,
                              "--out", str(tmp_path / "seq.csv")], folder),
            "experiment --config": (["experiment", "--config", folder, "--seed", "1"], folder),
            "experiment --out-dir": (["experiment", "--seed", "1", "--replications", "1",
                                      "--n-grid", "30", "--p-grid", "5,10",
                                      "--out-dir", str(tmp_path / "a file")],
                                     str(tmp_path / "a file"))}


@pytest.mark.parametrize("case", ["simulate --out", "grow --out", "grow --data", "prune --tree",
                                  "experiment --config", "experiment --out-dir"])
def test_a_path_the_os_refuses_is_a_usage_error(tmp_path, monkeypatch, case):
    args, path = _path_cases(tmp_path)[case]
    before = sorted(os.listdir(tmp_path))
    started = []
    monkeypatch.setattr(xp, "_run_replication", lambda *args: started.append(args))
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2 and "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and errors[0].endswith(f": {path!r}")  # the path asked for
    assert sorted(os.listdir(tmp_path)) == before and os.listdir(tmp_path / "a dir") == []
    assert started == []


@pytest.mark.parametrize("flags,spec", [
    ([], MinCombinedPenalty()),
    (["--kappa", "2"], MinCombinedPenalty(MarginAdaptivePenalty(kappa=2.0), VCPenalty())),
    (["--c2", "0.25"], MinCombinedPenalty(MarginAdaptivePenalty(c2=0.25), VCPenalty(c2=0.25))),
    (["--kappa", "3", "--c1", "0.5", "--c2", "4"],
     MinCombinedPenalty(MarginAdaptivePenalty(3.0, 0.5, 4.0), VCPenalty(0.5, 4.0))),
])
def test_select_min_reads_the_margin_flags_and_hands_c1_c2_to_vc(tmp_path, monkeypatch,
                                                                 flags, spec):
    data = _make_data(tmp_path)
    specs = []
    library_select = treeselect.cli.select_tree
    monkeypatch.setattr(treeselect.cli, "select_tree",
                        lambda data, spec, limits: specs.append(spec)
                        or library_select(data, spec, limits))
    res = run("select", "--data", str(data), "--penalty", "min", *flags)
    assert specs == [spec]
    tree, cost = select_tree(load_dataset(data), spec)
    assert res.output.splitlines() == [tree_to_text(tree),
                                       f"leaves={tree.n_leaves} penalized_cost={cost!r}"]


def _experiment_with(tmp_path, config, *flags):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config)
    return CliRunner().invoke(main, ["experiment", "--config", str(cfg), "--seed", "1",
                                     *flags, "--out-dir", str(tmp_path / "run")])


def test_config_keys_are_parsed_in_table_order(tmp_path):
    result = _experiment_with(tmp_path, "p_grid=5_0\nn_grid=4_0\n")
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: '4_0' is not an integer"  # n_grid's


def test_a_file_value_its_flag_overrides_is_never_parsed(tmp_path):
    result = _experiment_with(tmp_path, "n_grid=4_0\np_grid=5,10\nnoise_grid=0.1\n"
                              "replications=1\nfolds=2\ntest_samples=100\n",
                              "--n-grid", "20")
    assert result.exit_code == 0, result.output
    assert (tmp_path / "run" / "results.csv").read_text().splitlines()[1].split(",")[1] == "20"


def test_a_bad_value_is_reported_before_an_unknown_key(tmp_path):
    result = _experiment_with(tmp_path, "bogus=1\nfolds=x\n")
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: 'x' is not an integer"
    result = _experiment_with(tmp_path, "bogus=1\nfolds=2\nn_grid=1\n", "--p-grid", "5,10")
    assert result.output.splitlines()[-1] == "Error: unknown config key(s): bogus"
