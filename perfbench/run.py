"""Benchmark of the fedfew command line: four workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition of a workload runs its ``fedfew run`` invocations one after
the other, each in a fresh process (``perfbench/shim.py``) with one BLAS
thread.  Repetitions go on until S seconds have passed (at least three).
With ``--trace 0`` the end-to-end metrics are medians over the repetitions;
with ``--trace 1`` untraced and traced repetitions alternate and the
per-layer metrics are medians over the traced ones.  The outputs are then
checked: against the independent NumPy reference in ``reference.py`` and
against properties each method must have.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  A copy
of the result with the raw repetitions and the environment goes to
``perfbench/results/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the BLAS thread setting)

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHIM = HERE / "shim.py"
BASE_CONFIG = Path("scripts/configs/group_recovery.cfg")
OUTPUTS = ("trace.csv", "clients.csv", "summary.csv")
MIN_REPS = 3
MIN_TRACED_REPS = 4  # two untraced, two traced
HARD_LIMIT_S = 170.0  # a run must end within 180 s

# Mini-batch MLP settings shared by the three baselines.
MLP = {"model.kind": "mlp-1hidden", "batch_size": "8", "E": "2", "T": "40"}


@dataclass
class Invocation:
    """One ``fedfew run``: overrides of the base config, and --oracle."""

    overrides: dict = field(default_factory=dict)
    oracle: bool = False


# Why each workload exists is in README.md.
WORKLOADS = {
    "flagship": [Invocation()],
    "many_clients": [Invocation({"M": "1200", "T": "3"})],
    "baselines": [
        Invocation(dict(MLP, method="fedavg", K="1")),
        Invocation(dict(MLP, method="ifca")),
        Invocation(dict(MLP, method="local", K="1")),
    ],
    "oracle": [Invocation({"M": "120", "T": "10"}, oracle=True)],
}

UPLOADS = {"fedfew": lambda m, k: m * k, "fedavg": lambda m, k: m,
           "ifca": lambda m, k: m * (k + 1), "local": lambda m, k: 0}

END_TO_END = {"wall_s": "s", "setup_s": "s", "round_ms": "ms", "peak_rss_mb": "MB"}

# metric -> (layer, statistic, unit); "us" is inclusive microseconds per call.
PER_LAYER = {
    "model.grad.calls": ("model.grad", "calls", "count"),
    "model.grad.rows": ("model.grad", "rows", "count"),
    "model.grad.us_per_call": ("model.grad", "us", "us"),
    "model.loss.calls": ("model.loss", "calls", "count"),
    "model.loss.rows": ("model.loss", "rows", "count"),
    "model.loss.us_per_call": ("model.loss", "us", "us"),
    "model.predict.calls": ("model.predict", "calls", "count"),
    "model.predict.us_per_call": ("model.predict", "us", "us"),
    "numerics.rng.constructions": ("numerics.rng", "calls", "count"),
    "numerics.rng.us_per_construction": ("numerics.rng", "us", "us"),
    "federation.client_round.calls": ("federation.client_round", "calls", "count"),
    "federation.client_round.self_s": ("federation.client_round", "self_s", "s"),
    "federation.runner.self_s": ("federation.runner", "self_s", "s"),
    "scalarization.compute_weights.s": ("scalarization.compute_weights", "total_s", "s"),
    "scalarization.stch_set_value.s": ("scalarization.stch_set_value", "total_s", "s"),
    "scalarization.aggregate_gradients.s": ("scalarization.aggregate_gradients", "total_s", "s"),
    "metrics.weight_diagnostics.s": ("metrics.weight_diagnostics", "total_s", "s"),
    "federation.select_models.s": ("federation.select_models", "total_s", "s"),
    "metrics.accuracy.s": ("metrics.accuracy", "total_s", "s"),
    "federation.per_client_optimum.s": ("federation.per_client_optimum", "total_s", "s"),
    "federation.per_client_optimum.steps": ("federation.per_client_optimum", "steps", "count"),
    "metrics.coverage_gap.s": ("metrics.coverage_gap", "total_s", "s"),
    "federation.build_problem.s": ("federation.build_problem", "total_s", "s"),
    "data.gen_mixture.s": ("data.gen_mixture", "total_s", "s"),
    "cli.run_experiment.self_s": ("cli.run_experiment", "self_s", "s"),
}


def read_config(path: Path) -> dict[str, str]:
    """key=value pairs of a config file, comments dropped."""
    pairs = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            pairs[key] = value
    return pairs


def write_config(inv: Invocation, path: Path) -> Path:
    """The base config with the invocation's overrides; the base itself if none."""
    if not inv.overrides:
        return BASE_CONFIG
    pairs = dict(read_config(ROOT / BASE_CONFIG), **inv.overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in pairs.items()), encoding="utf-8")
    return path


def run_process(argv: list[str], log: Path, deadline: float) -> tuple[int, float, float, float]:
    """Run argv to its end; (exit code, start, end, peak RSS in MB)."""
    with open(log, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


class Runner:
    """Repetitions of one workload in a private work directory."""

    def __init__(self, name: str, seed: int, work: Path, deadline: float):
        self.seed, self.work, self.deadline = seed, work, deadline
        self.invocations = WORKLOADS[name]
        self.configs = [write_config(inv, work / f"config{j}.cfg")
                        for j, inv in enumerate(self.invocations)]
        self.pairs = [read_config(ROOT / c) for c in self.configs]
        self.reps: list[dict] = []
        self.first: list[dict] = []  # records and output dirs of repetition 0

    def repetition(self, traced: bool) -> None:
        r = len(self.reps)
        procs = []
        for j, (inv, cfg) in enumerate(zip(self.invocations, self.configs)):
            out = self.work / f"out{r}-{j}"
            record = self.work / f"record{r}-{j}.json"
            argv = [sys.executable, str(SHIM), str(record), "1" if traced else "0",
                    "run", str(cfg), "--out", str(out), "--seed", str(self.seed)]
            if inv.oracle:
                argv.append("--oracle")
            code, start, end, rss = run_process(argv, self.work / f"log{r}-{j}.txt",
                                                self.deadline)
            rec = json.loads(record.read_text()) if record.exists() else {}
            proc = {"exit_code": code, "wall_s": end - start, "peak_rss_mb": rss,
                    "hashes": [sha256(out / f) for f in OUTPUTS],
                    "layers": rec.get("layers", {}), "absent": rec.get("absent", [])}
            if code == 0 and {"build_end", "train_start", "train_end"} <= rec.keys():
                proc["setup_s"] = rec["build_end"] - start
                proc["train_s"] = rec["train_end"] - rec["train_start"]
                proc["post_s"] = rec["main_end"] - rec["train_end"]
            elif code == 0:
                proc["exit_code"] = -1  # the hooks found no build_problem or runner
            if r == 0:
                self.first.append({"record": rec, "out": out})
            else:
                shutil.rmtree(out, ignore_errors=True)
            procs.append(proc)
        self.reps.append({"traced": traced, "procs": procs})

    def measure(self, seconds: float, trace: bool, start: float) -> None:
        """Repeat until `seconds` have passed; alternate traced reps if asked."""
        last = 0.0
        while True:
            done = len(self.reps)
            now = time.monotonic()
            if done >= (MIN_TRACED_REPS if trace else MIN_REPS) and now - start >= seconds:
                break
            if done and now + 1.5 * last > self.deadline - 15.0:
                break  # keep room for the checks
            self.repetition(traced=trace and done % 2 == 1)
            last = time.monotonic() - now


def median(values):
    return statistics.median(values) if values else float("nan")


def completed(runner: Runner, traced: bool) -> list[dict]:
    """The traced or untraced repetitions in which every process succeeded."""
    return [rep for rep in runner.reps if rep["traced"] == traced
            and all(p["exit_code"] == 0 for p in rep["procs"])]


def end_to_end(runner: Runner) -> dict:
    reps = completed(runner, traced=False)
    rounds = sum(int(p["T"]) for p in runner.pairs)
    values = {
        "wall_s": median([sum(p["wall_s"] for p in rep["procs"]) for rep in reps]),
        "setup_s": median([p["setup_s"] for rep in reps for p in rep["procs"]]),
        "round_ms": median([1000.0 * sum(p["train_s"] for p in rep["procs"]) / rounds
                            for rep in reps]),
        "peak_rss_mb": median([max(p["peak_rss_mb"] for p in rep["procs"]) for rep in reps]),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(runner: Runner) -> dict:
    def stat(rep, layer, what):
        rows = [p["layers"].get(layer) for p in rep["procs"]]
        rows = [r for r in rows if r]
        calls = sum(r["calls"] for r in rows)
        if what == "us":
            return 1e6 * sum(r["total_s"] for r in rows) / calls if calls else 0.0
        return sum(r[what] for r in rows)

    traced, plain = completed(runner, traced=True), completed(runner, traced=False)
    out = {name: {"value": median([stat(rep, layer, what) for rep in traced]), "unit": unit}
           for name, (layer, what, unit) in PER_LAYER.items()}
    wall = [sum(p["wall_s"] for p in rep["procs"]) for rep in traced]
    wall0 = [sum(p["wall_s"] for p in rep["procs"]) for rep in plain]
    out["trace.overhead_s"] = {"value": median(wall) - median(wall0), "unit": "s"}
    # Post-training time, from the untraced repetitions: too short on most
    # workloads to hold an end-to-end bound (see README.md).
    post = [sum(p["post_s"] for p in rep["procs"]) for rep in plain]
    out["post_s"] = {"value": median(post), "unit": "s"}
    return out


# ---------------------------------------------------------------- checks


def read_csv(path: Path) -> dict[str, list]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for line in lines[1:]:
        for h, v in zip(header, line.split(",")):
            cols[h].append(float(v) if v else None)
    return cols


def load_split(config: Path, seed: int):
    """The clients of a config, built by the program, stacked for the reference."""
    sys.path.insert(0, str(ROOT / "src"))
    from fedfew.cli import parse_config
    from fedfew.federation import build_problem

    clients, _ = build_problem(replace(parse_config(ROOT / config), seed=seed))
    return {part: reference.stack([(getattr(c, part).features, getattr(c, part).labels)
                                   for c in clients])
            for part in ("train", "validation", "test")}


def reference_params(pairs: dict, seed: int) -> dict:
    """The settings reference.check_fedfew needs, from a config's pairs."""
    return {"seed": seed, "models": int(pairs["K"]), "classes": int(pairs["mixture.classes"]),
            "input_dim": int(pairs["mixture.input_dim"]), "rounds": int(pairs["T"]),
            "epochs": int(pairs["E"]), "learning_rate": float(pairs["learning_rate"]),
            "mu": float(pairs["mu"]), "l2": float(pairs["model.l2"])}


def check(runner: Runner) -> list[str]:
    """Everything a wrong program would fail; returns the failures."""
    errors = []
    for j in range(len(runner.invocations)):
        hashes = {tuple(rep["procs"][j]["hashes"]) for rep in runner.reps
                  if rep["procs"][j]["exit_code"] == 0}
        if len(hashes) > 1:
            errors.append(f"invocation {j}: outputs differ between repetitions")
    if not all(p["exit_code"] == 0 for p in runner.reps[0]["procs"]):
        return errors + ["the first repetition failed"]

    for j, (inv, pairs, cfg) in enumerate(zip(runner.invocations, runner.pairs, runner.configs)):
        out, rec = runner.first[j]["out"], runner.first[j]["record"]
        method, m, k, t = pairs["method"], int(pairs["M"]), int(pairs["K"]), int(pairs["T"])
        where = f"{method} (invocation {j})"
        trace = read_csv(out / "trace.csv")
        clients = read_csv(out / "clients.csv")
        summary = read_csv(out / "summary.csv")
        want = UPLOADS[method](m, k)
        if trace["uploads_count"] != [float(want)] * t:
            errors.append(f"{where}: uploads_count is not {want} in every one of {t} rounds")
        mean_acc = summary["mean_acc"][0]
        if method == "fedavg" and not mean_acc <= 0.55:
            errors.append(f"fedavg mean test accuracy {mean_acc} > 0.55: one model "
                          "cannot serve three labelings")
        if method == "local" and not mean_acc >= 0.9:
            errors.append(f"local mean test accuracy {mean_acc} < 0.9")
        if method != "fedfew" and not inv.oracle:
            continue
        split = load_split(cfg, runner.seed)
        l2 = float(pairs["model.l2"])
        if method == "fedfew" and int(pairs["batch_size"]) >= split["train"].n.max():
            errors += [f"{where}: {e}" for e in reference.check_fedfew(
                split, reference_params(pairs, runner.seed), trace, clients)]
        if inv.oracle:
            errors += check_oracle(rec, split["train"], l2, summary, where)
    return errors


def check_oracle(rec: dict, train, l2: float, summary: dict, where: str) -> list[str]:
    """Optimality of each client's optimum and the coverage gap built on it."""
    optima = np.array(rec["optima"], dtype=np.float64)
    models = np.array(rec["models"], dtype=np.float64)
    m, q = train.x.shape[0], train.x.shape[2]
    if optima.shape[0] != m:
        return [f"{where}: {optima.shape[0]} optima recorded for {m} clients"]
    theta = optima.reshape(m, 1, -1, q)
    own, grad = reference.loss_and_grad(theta, train, l2)
    errors = []
    norms = np.sqrt(np.einsum("ikcq,ikcq->i", grad, grad))
    if np.any(norms > 1e-3):
        errors.append(f"{where}: {int(np.sum(norms > 1e-3))} optima have gradient norm "
                      f"> 1e-3 (largest {norms.max():.3g})")
    trained = reference.losses(models.reshape(models.shape[0], -1, q), train, l2)
    above = own[:, 0] > trained.min(axis=1)
    if np.any(above):
        errors.append(f"{where}: {int(above.sum())} optima have a higher loss than a "
                      "trained model on their client")
    gap = float(np.mean(np.maximum(0.0, trained.min(axis=1) - own[:, 0])))
    got = summary["mean_coverage_gap"][0]
    if got is None or reference.mismatches([got], [gap]):
        errors.append(f"{where}: mean_coverage_gap {got} differs from the recomputed {gap:.9g}")
    return errors


# ---------------------------------------------------------------- main


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    if not (ROOT / "src" / "fedfew" / "cli.py").is_file() or not (ROOT / BASE_CONFIG).is_file():
        print(f"no fedfew sources or {BASE_CONFIG} under {ROOT}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("--seed must be a nonnegative 63-bit integer", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work, start + HARD_LIMIT_S)
        runner.measure(args.seconds, bool(args.trace), start)
        try:
            errors = check(runner)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors = [f"the outputs could not be read: {exc!r}"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    metrics = per_layer(runner) if args.trace else end_to_end(runner)
    attempted = sum(len(rep["procs"]) for rep in runner.reps)
    failed = sum(p["exit_code"] != 0 for rep in runner.reps for p in rep["procs"])
    absent = sorted({a for rep in runner.reps for p in rep["procs"] for a in p["absent"]})
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    env = environment()
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "absent_layers": absent,
              "errors": errors, "repetitions": [
                  {"traced": rep["traced"],
                   "procs": [{k: v for k, v in p.items() if k != "hashes"}
                             for p in rep["procs"]]} for rep in runner.reps],
              "result": result}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"environment": env, "absent_layers": absent}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
