#!/usr/bin/env python3
"""Summarize paired benchmark runs of a parent and a change into a BENCH_<n>.json.

Each checkout's perfbench/results/ holds one <workload>-seed<N>-trace<T>.json
per run of ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace T``.  A pair is one seed run in both checkouts.  For every workload
and metric of the untraced pairs the summary gives both medians, the
change in percent, both quartiles, the parent's interquartile range and in
how many pairs the change reads lower.  Traced pairs, if any, add the
medians of their per-layer metrics.

    scripts/bench_pairs.py PARENT CHANGE --out BENCH_15.json \\
        --change "what the change does" --claim baselines:round_ms
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

COMMAND = "python3 perfbench/run.py --workload W --seed N --seconds {seconds} --trace 0"
METHOD = ("scratch copies of the parent commit and the change, one run each per seed, "
          "alternating which ran first")


def read_results(checkout: Path) -> dict:
    """(workload, trace) -> {seed: result file} of a checkout's perfbench runs."""
    runs: dict = {}
    for path in sorted((checkout / "perfbench" / "results").glob("*.json")):
        run = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault((run["workload"], run["trace"]), {})[run["seed"]] = run
    return runs


def quartiles(values: list[float]) -> list[float]:
    """First and third quartiles (statistics.quantiles, exclusive method);
    both are the value itself for a single run."""
    if len(values) < 2:
        return [round(values[0], 4)] * 2
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 4), round(q3, 4)]


def summarize(parent: dict, change: dict) -> dict:
    """A metric's medians, quartiles and pair count over seed-matched runs."""
    seeds = sorted(parent)
    before = [parent[s]["result"]["metrics"] for s in seeds]
    after = [change[s]["result"]["metrics"] for s in seeds]
    metrics = {}
    for name in before[0]:
        p = [m[name]["value"] for m in before]
        c = [m[name]["value"] for m in after]
        p_med, c_med = statistics.median(p), statistics.median(c)
        p_q = quartiles(p)
        metrics[name] = {
            "parent_median": round(p_med, 4),
            "change_median": round(c_med, 4),
            "change_pct": round(100.0 * (c_med - p_med) / p_med, 1) if p_med else None,
            "parent_iqr": round(p_q[1] - p_q[0], 4),
            "parent_quartiles": p_q,
            "change_quartiles": quartiles(c),
            "pairs_change_lower": sum(b < a for a, b in zip(p, c)),
        }
    ok = all(r["result"]["correct"] and r["result"]["failed"] == 0
             for runs in (parent, change) for r in runs.values())
    return {"pairs": len(seeds), "seeds": seeds, "every_run_correct_and_no_failures": ok,
            "metrics": metrics}


def bench(parent_dir: Path, change_dir: Path, change: str, claim: str | None) -> dict:
    parent, after = read_results(parent_dir), read_results(change_dir)
    out: dict = {"change": change, "command": None, "method": METHOD, "environment": None}
    if claim:
        workload, metric = claim.split(":")
        out["claim"] = {"workload": workload, "metric": metric, "better": "lower"}
    for trace, section in ((0, "workloads"), (1, "traced")):
        for (workload, t), runs in sorted(parent.items()):
            seeds = sorted(set(runs) & set(after.get((workload, t), {})))
            if t != trace or not seeds:
                continue
            pair = {s: runs[s] for s in seeds}, {s: after[(workload, t)][s] for s in seeds}
            out.setdefault(section, {})[workload] = summarize(*pair)
            first = pair[1][seeds[0]]
            out["environment"] = out["environment"] or first["environment"]
            if trace == 0:
                out["command"] = out["command"] or COMMAND.format(seconds=first["seconds"])
    if "workloads" not in out:
        raise ValueError(f"no untraced seed runs in both {parent_dir} and {change_dir}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--change", dest="what", required=True, help="what the change does")
    parser.add_argument("--claim", help="workload:metric the change claims lower")
    parser.add_argument("--extra", type=Path, help="a JSON object of notes to merge in")
    args = parser.parse_args(argv)
    try:
        out = bench(args.parent, args.change, args.what, args.claim)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    if args.extra:
        out.update(json.loads(args.extra.read_text(encoding="utf-8")))
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}: " + ", ".join(f"{w} {s['pairs']} pairs"
                                            for w, s in out["workloads"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
