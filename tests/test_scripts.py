"""The runnable studies in scripts/ start and finish."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("run_group_recovery.py", ["--seed", "0"]),
    ("sweep_mu.py", ["--out", "{tmp}/mu_sweep"]),
])
def test_script_exits_zero(tmp_path, script, args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    argv = [sys.executable, str(ROOT / "scripts" / script),
            *(a.format(tmp=tmp_path) for a in args)]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
