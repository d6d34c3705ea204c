"""The runnable studies and committed configs in scripts/ start and finish."""

import json
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


def write_results(checkout, workload, trace, values_by_seed):
    """Synthetic perfbench/results files: one run per seed with these metrics."""
    results = checkout / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    for seed, values in values_by_seed.items():
        run = {"workload": workload, "seed": seed, "seconds": 25, "trace": trace,
               "environment": {"cpu_count": 2},
               "result": {"correct": True, "attempted": 3, "failed": 0,
                          "metrics": {k: {"value": v, "unit": "ms"} for k, v in values.items()}}}
        (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(run))


def test_bench_pairs_summarizes_seed_matched_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_results(parent, "baselines", 0, {s: {"round_ms": v} for s, v in
                                           zip(range(1, 6), (3.0, 4.0, 5.0, 6.0, 7.0))})
    # seed 5 ran at the parent only: four pairs, one of them not lower
    write_results(change, "baselines", 0, {s: {"round_ms": v} for s, v in
                                           zip(range(1, 5), (2.0, 3.0, 6.0, 4.0))})
    write_results(parent, "baselines", 1, {1: {"numerics.rng.constructions": 495}})
    write_results(change, "baselines", 1, {1: {"numerics.rng.constructions": 6}})
    out = tmp_path / "BENCH_1.json"
    done = run_in(tmp_path, str(ROOT / "scripts" / "bench_pairs.py"), str(parent), str(change),
                  "--out", str(out), "--change", "a change", "--claim", "baselines:round_ms")
    assert done.returncode == 0, done.stderr
    bench = json.loads(out.read_text())
    assert bench["claim"] == {"workload": "baselines", "metric": "round_ms", "better": "lower"}
    assert bench["command"].endswith("--seconds 25 --trace 0")
    summary = bench["workloads"]["baselines"]
    assert (summary["pairs"], summary["seeds"]) == (4, [1, 2, 3, 4])
    assert summary["every_run_correct_and_no_failures"]
    metric = summary["metrics"]["round_ms"]
    assert (metric["parent_median"], metric["change_median"]) == (4.5, 3.5)
    assert metric["change_pct"] == -22.2
    assert metric["parent_quartiles"] == [3.25, 5.75] and metric["parent_iqr"] == 2.5
    assert metric["pairs_change_lower"] == 3
    traced = bench["traced"]["baselines"]["metrics"]["numerics.rng.constructions"]
    assert (traced["parent_median"], traced["change_median"]) == (495, 6)


def test_bench_pairs_without_pairs_exits_two(tmp_path):
    write_results(tmp_path / "parent", "baselines", 0, {1: {"round_ms": 3.0}})
    write_results(tmp_path / "change", "baselines", 0, {2: {"round_ms": 2.0}})
    done = run_in(tmp_path, str(ROOT / "scripts" / "bench_pairs.py"), "parent", "change",
                  "--out", "b.json", "--change", "a change")
    assert done.returncode == 2
    assert "no untraced seed runs" in done.stderr
