"""The runnable studies and committed configs in scripts/ start and finish."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_in(tmp_path, *argv):
    """argv under this interpreter, in tmp_path, with the package importable."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script, args", [
    ("run_group_recovery.py", ["--seed", "0"]),
    ("sweep_mu.py", ["--out", "{tmp}/mu_sweep"]),
])
def test_script_exits_zero(tmp_path, script, args):
    done = run_in(tmp_path, str(ROOT / "scripts" / script),
                  *(a.format(tmp=tmp_path) for a in args))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("config", ["dirichlet_csv.cfg", "fedavg_baseline.cfg"])
def test_committed_config_runs(tmp_path, config):
    # dirichlet_csv.cfg reads data.csv from the working directory
    done = run_in(tmp_path, str(ROOT / "scripts" / "make_csv_dataset.py"), "data.csv")
    assert done.returncode == 0, done.stderr
    done = run_in(tmp_path, "-m", "fedfew.cli", "run",
                  str(ROOT / "scripts" / "configs" / config), "--out", "out")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "summary.csv").exists()
