#!/usr/bin/env python3
"""Run the flagship group-recovery comparison: fedfew vs fedavg vs ifca.

Trains all three methods on the same permuted-label mixture and prints a
per-method summary (mean/min test accuracy, Jain index, model assignment).
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from fedfew.cli import parse_config
from fedfew.federation import (
    build_problem,
    run_fedavg,
    run_fedfew,
    run_ifca,
    select_models,
)
from fedfew.metrics import accuracy, fairness_report

CONFIG = Path(__file__).parent / "configs" / "group_recovery.cfg"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    base = replace(parse_config(CONFIG), seed=args.seed)
    problem, spec = build_problem(base)

    rows = []
    models, _ = run_fedfew(base, problem, spec)
    rows.append(("fedfew", models, select_models(spec, models, problem.validation)))

    avg_models, _ = run_fedavg(replace(base, method="fedavg", models=1), problem, spec)
    rows.append(("fedavg", avg_models, np.zeros(base.clients, int)))

    ifca_models, _ = run_ifca(replace(base, method="ifca"), problem, spec)
    rows.append(("ifca", ifca_models, select_models(spec, ifca_models, problem.validation)))

    print(f"latent groups: {problem.groups.tolist()}")
    print(f"{'method':8s} {'mean':>6s} {'min':>6s} {'jain':>7s}  assignment")
    for name, models, sel in rows:
        rep = fairness_report(accuracy(spec, models[sel], problem.test))
        print(f"{name:8s} {rep.mean:6.3f} {rep.min:6.3f} {rep.jain_index:7.4f}  {sel.tolist()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
