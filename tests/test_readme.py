"""README's Python example and CLI block run as written, so the API and the
commands it documents cannot drift away from the code."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from treeselect.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_the_quick_example_runs_as_written():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^Quick example:\n\n```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", blocks[0]], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_the_cli_block_runs_as_written(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^The `treeselect` command exposes the pipeline:\n\n```sh\n(.*?)^```$",
                        readme, re.M | re.S)
    assert len(blocks) == 1
    lines = blocks[0].splitlines()
    assert lines and all(line.startswith("treeselect ") for line in lines)
    monkeypatch.chdir(tmp_path)
    # the config file the experiment line reads: a small grid
    (tmp_path / "exp.cfg").write_text("n_grid=30\np_grid=5,10\nnoise_grid=0.1\n"
                                      "replications=2\nfolds=2\ntest_samples=100\n")
    for line in lines:
        result = CliRunner().invoke(main, shlex.split(line)[1:])
        assert result.exit_code == 0, (line, result.output)
    assert sorted(os.listdir(tmp_path / "run")) == ["figure3_1.dat", "fit.csv", "results.csv"]
