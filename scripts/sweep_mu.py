#!/usr/bin/env python3
"""Smoothing-parameter sweep: soft-vs-hard selection diagnostics across mu.

Reproduces the qualitative endpoints at desk scale: near-one-hot inner
weights at small mu (entropy -> 0, max weight -> 1) and near-uniform
weights at mu = 1 (entropy -> log K, max weight -> 1/K), with the outer
weight diversity falling as mu grows.
"""

import argparse
import sys
from pathlib import Path

from fedfew.cli import run_ablation

CONFIG = Path(__file__).parent / "configs" / "group_recovery.cfg"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/mu_sweep")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    rows = run_ablation(CONFIG, "mu", args.out, seed=args.seed)
    print(f"{'mu':>8s} {'mean_acc':>9s} {'jain':>7s} {'final_entropy':>14s}")
    for r in rows:
        print(f"{r['value']:>8s} {r['mean_acc']:9.4f} {r['jain_index']:7.4f} "
              f"{r['final_w_entropy_mean']:14.4f}")
    print(f"full outputs in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
