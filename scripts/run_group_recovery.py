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


def evaluate(spec, models, selected, clients):
    return accuracy(spec, models[selected], [c.test_or_validation for c in clients])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    base = replace(parse_config(CONFIG), seed=args.seed)
    clients, spec = build_problem(base)
    groups = np.array([c.group for c in clients])

    rows = []
    models, _ = run_fedfew(base, clients, spec)
    sel = select_models(spec, models, clients).selected
    rows.append(("fedfew", evaluate(spec, models, sel, clients), sel))

    avg_cfg = replace(base, method="fedavg", models=1)
    avg_models, _ = run_fedavg(avg_cfg, clients, spec)
    rows.append(("fedavg", evaluate(spec, avg_models, np.zeros(base.clients, int), clients),
                 np.zeros(base.clients, int)))

    ifca_cfg = replace(base, method="ifca")
    ifca_models, _, _ = run_ifca(ifca_cfg, clients, spec)
    sel_i = select_models(spec, ifca_models, clients).selected
    rows.append(("ifca", evaluate(spec, ifca_models, sel_i, clients), sel_i))

    print(f"latent groups: {groups.tolist()}")
    print(f"{'method':8s} {'mean':>6s} {'min':>6s} {'jain':>7s}  assignment")
    for name, accs, sel in rows:
        rep = fairness_report(accs)
        print(f"{name:8s} {rep.mean:6.3f} {rep.min:6.3f} {rep.jain_index:7.4f}  {sel.tolist()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
