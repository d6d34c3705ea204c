"""Experiment runner: config parsing, CSV outputs, ablation sweeps.

Config files are plain ``key=value`` lines with ``#`` comments.  Every run
writes trace.csv (one row per round), clients.csv (one row per client),
summary.csv (one row), and manifest.txt into the output directory; numeric
fields carry 9 significant digits and outputs are byte-identical across
repeated runs of the same config.

Exit codes: 0 success, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .federation import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    build_problem,
    per_client_optimum,
    run_fedavg,
    run_fedfew,
    run_ifca,
    run_local,
    select_models,
)
from .metrics import accuracy, coverage_gap, fairness_report

_DEFAULTS = {
    "method": None,  # required
    "M": None,
    "K": None,
    "T": None,
    "seed": None,
    "E": "1",
    "batch_size": "50",
    "learning_rate": "0.1",
    "mu": "0.01",
    "validation_fraction": "0.2",
    "oracle": "0",
    "model.kind": "softmax-regression",
    "model.hidden_dim": "16",
    "model.l2": "0.0001",
    "dataset": "mixture",
    "mixture.G": "1",
    "mixture.clients_per_group": "",
    "mixture.sep": "1.0",
    "mixture.noise": "0.2",
    "mixture.n_per_client": "100",
    "mixture.permute_labels": "0",
    "mixture.classes": "2",
    "mixture.input_dim": "2",
    "csv.path": "",
    "partition": "dirichlet",
    "dirichlet.alpha": "0.5",
    "pathological.classes_per_client": "2",
    "ablate.K": "",
    "ablate.mu": "",
    "ablate.local_epochs": "",
}
_REQUIRED = ("method", "M", "K", "T", "seed")
_ABLATION_AXES = ("K", "mu", "local_epochs")


@dataclass
class RunManifest:
    config: ExperimentConfig
    canonical_text: str
    checksum: str
    out_dir: Path


def _read_pairs(path) -> dict[str, str]:
    pairs = dict()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _resolve(pairs: dict[str, str]) -> dict[str, str]:
    for key in _REQUIRED:
        if key not in pairs:
            raise ConfigError(f"missing required config key {key!r}")
    resolved = {k: v for k, v in _DEFAULTS.items() if v is not None}
    resolved.update(pairs)
    return resolved


def _to_int(resolved, key) -> int:
    try:
        return int(resolved[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key}={resolved[key]!r} is not an integer") from exc


def _to_float(resolved, key) -> float:
    try:
        return float(resolved[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key}={resolved[key]!r} is not a number") from exc


def _to_bool(resolved, key) -> bool:
    value = resolved[key].lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"config key {key}={resolved[key]!r} is not a boolean")


def config_from_pairs(pairs: dict[str, str]) -> ExperimentConfig:
    resolved = _resolve(pairs)
    per_group = None
    if resolved["mixture.clients_per_group"]:
        try:
            per_group = [int(v) for v in resolved["mixture.clients_per_group"].split(",")]
        except ValueError as exc:
            raise ConfigError("mixture.clients_per_group must be a comma list of integers") from exc
    data = DataConfig(
        dataset=resolved["dataset"],
        groups=_to_int(resolved, "mixture.G"),
        clients_per_group=per_group,
        input_dim=_to_int(resolved, "mixture.input_dim"),
        classes=_to_int(resolved, "mixture.classes"),
        separation=_to_float(resolved, "mixture.sep"),
        noise_std=_to_float(resolved, "mixture.noise"),
        samples_per_client=_to_int(resolved, "mixture.n_per_client"),
        permute_labels=_to_bool(resolved, "mixture.permute_labels"),
        csv_path=resolved["csv.path"],
        partition=resolved["partition"],
        dirichlet_alpha=_to_float(resolved, "dirichlet.alpha"),
        classes_per_client=_to_int(resolved, "pathological.classes_per_client"),
    )
    model = ModelConfig(
        kind=resolved["model.kind"],
        hidden_dim=_to_int(resolved, "model.hidden_dim"),
        l2_penalty=_to_float(resolved, "model.l2"),
    )
    return ExperimentConfig(
        method=resolved["method"],
        clients=_to_int(resolved, "M"),
        models=_to_int(resolved, "K"),
        rounds=_to_int(resolved, "T"),
        seed=_to_int(resolved, "seed"),
        local_epochs=_to_int(resolved, "E"),
        batch_size=_to_int(resolved, "batch_size"),
        learning_rate=_to_float(resolved, "learning_rate"),
        mu=_to_float(resolved, "mu"),
        validation_fraction=_to_float(resolved, "validation_fraction"),
        model=model,
        data=data,
    )


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a config file; unknown keys are rejected."""
    return config_from_pairs(_read_pairs(path))


def canonical_text(cfg: ExperimentConfig) -> str:
    """Resolved config as sorted key=value lines (checksum input)."""
    per_group = cfg.data.clients_per_group
    entries = {
        "method": cfg.method,
        "M": cfg.clients,
        "K": cfg.models,
        "T": cfg.rounds,
        "seed": cfg.seed,
        "E": cfg.local_epochs,
        "batch_size": cfg.batch_size,
        "learning_rate": _fmt(cfg.learning_rate),
        "mu": _fmt(cfg.mu),
        "validation_fraction": _fmt(cfg.validation_fraction),
        "model.kind": cfg.model.kind,
        "model.hidden_dim": cfg.model.hidden_dim,
        "model.l2": _fmt(cfg.model.l2_penalty),
        "dataset": cfg.data.dataset,
        "mixture.G": cfg.data.groups,
        "mixture.clients_per_group": "" if per_group is None else ",".join(map(str, per_group)),
        "mixture.sep": _fmt(cfg.data.separation),
        "mixture.noise": _fmt(cfg.data.noise_std),
        "mixture.n_per_client": cfg.data.samples_per_client,
        "mixture.permute_labels": int(cfg.data.permute_labels),
        "mixture.classes": cfg.data.classes,
        "mixture.input_dim": cfg.data.input_dim,
        "csv.path": cfg.data.csv_path,
        "partition": cfg.data.partition,
        "dirichlet.alpha": _fmt(cfg.data.dirichlet_alpha),
        "pathological.classes_per_client": cfg.data.classes_per_client,
    }
    return "\n".join(f"{k}={entries[k]}" for k in sorted(entries)) + "\n"


def make_manifest(cfg: ExperimentConfig, out_dir: Path) -> RunManifest:
    text = canonical_text(cfg)
    checksum = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return RunManifest(config=cfg, canonical_text=text, checksum=checksum, out_dir=out_dir)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_RUNNERS = {
    "fedfew": run_fedfew,
    "fedavg": run_fedavg,
    "ifca": run_ifca,
    "local": run_local,
}


def run_experiment(cfg: ExperimentConfig, out_dir, oracle: bool = False, workers: int = 1) -> dict:
    """Run one configured experiment and write its output files.

    Returns the summary row as a dict for programmatic callers.  On any
    error, files already written to out_dir are removed before re-raising.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        clients, spec = build_problem(cfg)
        result = _RUNNERS[cfg.method](cfg, clients, spec, workers=workers)
        models, traces = result[0], result[1]

        if cfg.method == "local":
            selected = np.arange(cfg.clients)
        else:
            selected = select_models(spec, models, clients).selected

        client_rows = []
        test_accs = []
        for i, c in enumerate(clients):
            theta = models[selected[i]] if cfg.method != "local" else models[i]
            tr = accuracy(spec, theta, c.train)
            va = accuracy(spec, theta, c.validation)
            te = accuracy(spec, theta, c.test_or_validation)
            test_accs.append(te)
            client_rows.append([i, int(selected[i]), tr, va, te])

        mean_gap = None
        if oracle:
            optima = [per_client_optimum(spec, c).theta for c in clients]
            _, mean_gap = coverage_gap(spec, models, optima, clients)

        fairness = fairness_report(test_accs)
        summary = {
            "mean_acc": fairness.mean,
            "std_acc": fairness.std,
            "min_acc": fairness.min,
            "max_acc": fairness.max,
            "jain_index": fairness.jain_index,
            "mean_coverage_gap": mean_gap,
            "final_stch_value": traces[-1].stch_value,
            "final_w_entropy_mean": traces[-1].w_entropy_mean,
        }

        k_cols = [f"grad_norm_{k + 1}" for k in range(len(traces[0].grad_norms))]
        trace_rows = [
            [t.round, t.stch_value, *t.grad_norms, t.alpha_cv, t.w_entropy_mean,
             t.w_max_mean, t.uploads]
            for t in traces
        ]
        manifest = make_manifest(cfg, out)

        path = out / "trace.csv"
        _write_csv(path, ["round", "stch_value", *k_cols, "alpha_cv",
                          "w_entropy_mean", "w_max_mean", "uploads_count"], trace_rows)
        written.append(path)
        path = out / "clients.csv"
        _write_csv(path, ["client_id", "selected_model", "train_acc", "val_acc", "test_acc"],
                   client_rows)
        written.append(path)
        path = out / "summary.csv"
        _write_csv(path, ["mean_acc", "std_acc", "min_acc", "max_acc", "jain_index",
                          "mean_coverage_gap"],
                   [[fairness.mean, fairness.std, fairness.min, fairness.max,
                     fairness.jain_index, "" if mean_gap is None else _fmt(mean_gap)]])
        written.append(path)
        path = out / "manifest.txt"
        path.write_text(
            f"version={__version__}\nchecksum=sha256:{manifest.checksum}\n"
            f"out_dir={out.name}\n---\n{manifest.canonical_text}",
            encoding="utf-8",
        )
        written.append(path)
        return summary
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _ablation_values(pairs: dict[str, str], axis: str) -> list[str]:
    raw = pairs.get(f"ablate.{axis}", "")
    if not raw:
        raise ConfigError(f"config must list ablate.{axis} values for axis {axis!r}")
    return [v.strip() for v in raw.split(",") if v.strip()]


def run_ablation(config_path, axis: str, out_dir, oracle: bool = False,
                 workers: int = 1, seed: int | None = None) -> list[dict]:
    """One run per axis value with a shared seed, plus an aggregate table."""
    if axis not in _ABLATION_AXES:
        raise ConfigError(f"axis must be one of {_ABLATION_AXES}, got {axis!r}")
    pairs = _read_pairs(config_path)
    base = config_from_pairs(pairs)
    if seed is not None:
        base = replace(base, seed=seed)
    values = _ablation_values(pairs, axis)
    total_updates = base.rounds * base.local_epochs
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for raw in values:
        if axis == "K":
            k = int(raw)
            cfg = replace(base, models=k)
            label = str(k)
        elif axis == "mu":
            cfg = replace(base, mu=float(raw))
            label = _fmt(float(raw))
        else:
            e = int(raw)
            if total_updates % e != 0:
                raise ConfigError(
                    f"local_epochs={e} does not divide total updates T*E={total_updates}"
                )
            cfg = replace(base, local_epochs=e, rounds=total_updates // e)
            label = str(e)
        sub = out / f"{axis}_{label}"
        summary = run_experiment(cfg, sub, oracle=oracle, workers=workers)
        rows.append({"value": label, **summary})
    table = [
        [axis, r["value"], r["mean_acc"], r["std_acc"], r["min_acc"], r["max_acc"],
         r["jain_index"],
         "" if r["mean_coverage_gap"] is None else _fmt(r["mean_coverage_gap"]),
         r["final_stch_value"], r["final_w_entropy_mean"]]
        for r in rows
    ]
    _write_csv(out / "ablation.csv",
               ["axis", "value", "mean_acc", "std_acc", "min_acc", "max_acc",
                "jain_index", "mean_coverage_gap", "final_stch_value",
                "final_w_entropy_mean"], table)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fedfew", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "ablate"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--oracle", action="store_true")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; has no effect, every round "
                            "is one batched computation")
        if name == "ablate":
            p.add_argument("--axis", required=True, choices=_ABLATION_AXES)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            pairs = _read_pairs(args.config)
            cfg = config_from_pairs(pairs)
            if args.seed is not None:
                cfg = replace(cfg, seed=args.seed)
            oracle = args.oracle or _to_bool(_resolve(pairs), "oracle")
            run_experiment(cfg, args.out, oracle=oracle, workers=args.workers)
        else:
            pairs = _read_pairs(args.config)
            oracle = args.oracle or _to_bool(_resolve(pairs), "oracle")
            run_ablation(args.config, args.axis, args.out, oracle=oracle,
                         workers=args.workers, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
