"""Self-test of the benchmark's reference check.

Run from the repository root: python3 -m pytest perfbench
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference  # noqa: E402
import run  # noqa: E402
from fedfew.cli import parse_config, run_experiment  # noqa: E402

SEED = 5
ROUNDS = 40


@pytest.fixture(scope="module")
def program_run(tmp_path_factory):
    """A short flagship run of the program and what the check needs of it."""
    out = tmp_path_factory.mktemp("flagship")
    cfg = replace(parse_config(run.ROOT / run.BASE_CONFIG), seed=SEED, rounds=ROUNDS)
    run_experiment(cfg, out)
    params = run.reference_params(dict(run.read_config(run.ROOT / run.BASE_CONFIG),
                                       T=str(ROUNDS)), SEED)
    return (run.load_split(run.BASE_CONFIG, SEED), params,
            run.read_csv(out / "trace.csv"), run.read_csv(out / "clients.csv"))


def test_reference_matches_program(program_run):
    split, params, trace, clients = program_run
    assert reference.check_fedfew(split, params, trace, clients) == []


@pytest.mark.parametrize("key, factor", [("mu", 2.0), ("mu", 0.9), ("learning_rate", 1.1)])
def test_check_rejects_other_settings(program_run, key, factor):
    split, params, trace, clients = program_run
    errors = reference.check_fedfew(split, dict(params, **{key: params[key] * factor}),
                                    trace, clients)
    assert any("stch_value" in e for e in errors)
