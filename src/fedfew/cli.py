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
import shutil
import sys
from dataclasses import MISSING, dataclass, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .data import DataConfig
from .errors import ConfigError
from .federation import (
    RUNNERS,
    ExperimentConfig,
    ModelConfig,
    build_problem,
    check_oracle_model,
    per_client_optimum,
    select_models,
)
from .metrics import accuracy, coverage_gap, fairness_report


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return format(float(value), ".9g")


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def _bool(text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


@dataclass(frozen=True)
class Value:
    """A type of config value: what its text must be, how it is read and shown."""

    what: str
    read: Callable[[str], object]
    show: Callable[[object], str] = _fmt


TEXT = Value("text", str)
INT = Value("an integer", int)
FLOAT = Value("a finite number", _finite)
BOOL = Value("a boolean", _bool)


def _list_of(item: Value) -> Value:
    """A comma list of item values; blank entries are skipped, none at all is None."""
    return Value(f"a comma list, each {item.what}",
                 lambda text: [item.read(v) for v in text.split(",") if v.strip()] or None,
                 lambda values: "" if values is None else ",".join(map(item.show, values)))


@dataclass(frozen=True)
class Key:
    """One config key: its value type and the ExperimentConfig attribute it
    sets (model./data. for the parts; None: not part of the run's config, so
    not part of its checksum either).  An absent key takes its field's
    default; a key whose field has none is required."""

    name: str
    value: Value
    attr: str | None

    def parse(self, text: str):
        try:
            return self.value.read(text)
        except ValueError as exc:
            field = self.attr.rpartition(".")[2] if self.attr else self.name
            raise ConfigError(
                f"config key {self.name}={text!r}: {field} must be {self.value.what}") from exc


KEYS = (
    Key("method", TEXT, "method"),
    Key("M", INT, "clients"),
    Key("K", INT, "models"),
    Key("T", INT, "rounds"),
    Key("seed", INT, "seed"),
    Key("E", INT, "local_epochs"),
    Key("batch_size", INT, "batch_size"),
    Key("learning_rate", FLOAT, "learning_rate"),
    Key("mu", FLOAT, "mu"),
    Key("validation_fraction", FLOAT, "validation_fraction"),
    Key("model.kind", TEXT, "model.kind"),
    Key("model.hidden_dim", INT, "model.hidden_dim"),
    Key("model.l2", FLOAT, "model.l2_penalty"),
    Key("dataset", TEXT, "data.dataset"),
    Key("mixture.G", INT, "data.groups"),
    Key("mixture.clients_per_group", _list_of(INT), "data.clients_per_group"),
    Key("mixture.sep", FLOAT, "data.separation"),
    Key("mixture.noise", FLOAT, "data.noise_std"),
    Key("mixture.n_per_client", INT, "data.samples_per_client"),
    Key("mixture.permute_labels", BOOL, "data.permute_labels"),
    Key("mixture.classes", INT, "data.classes"),
    Key("mixture.input_dim", INT, "data.input_dim"),
    Key("csv.path", TEXT, "data.csv_path"),
    Key("partition", TEXT, "data.partition"),
    Key("dirichlet.alpha", FLOAT, "data.dirichlet_alpha"),
    Key("pathological.classes_per_client", INT, "data.classes_per_client"),
    Key("ablate.K", _list_of(INT), None),
    Key("ablate.mu", _list_of(FLOAT), None),
    Key("ablate.local_epochs", _list_of(INT), None),
)
_BY_NAME = {key.name: key for key in KEYS}
# the ExperimentConfig fields without a default: their keys are required
_REQUIRED = {f.name for f in fields(ExperimentConfig)
             if f.default is MISSING and f.default_factory is MISSING}
# ablate --axis: the key whose values it sweeps
_ABLATION_AXES = {"K": _BY_NAME["K"], "mu": _BY_NAME["mu"], "local_epochs": _BY_NAME["E"]}


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
        if key not in _BY_NAME:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _values(pairs: dict[str, str]) -> dict[str, object]:
    """Every given key of the table, parsed; a required key must be given."""
    values = {}
    for key in KEYS:
        if key.name in pairs:
            values[key.name] = key.parse(pairs[key.name])
        elif key.attr in _REQUIRED:
            raise ConfigError(f"missing required config key {key.name!r}")
    return values


def _config(values: dict[str, object]) -> ExperimentConfig:
    """The config of the given values; every other field keeps its default."""
    parts: dict[str, dict] = {"": {}, "model": {}, "data": {}}
    for key in KEYS:
        if key.attr and key.name in values:
            part, _, field = key.attr.rpartition(".")
            parts[part][field] = values[key.name]
    return ExperimentConfig(**parts[""], model=ModelConfig(**parts["model"]),
                            data=DataConfig(**parts["data"]))


def config_from_pairs(pairs: dict[str, str]) -> ExperimentConfig:
    return _config(_values(pairs))


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a config file; unknown keys are rejected."""
    return config_from_pairs(_read_pairs(path))


def canonical_text(cfg: ExperimentConfig) -> str:
    """Resolved config as sorted key=value lines (checksum input)."""
    return "".join(f"{key.name}={key.value.show(attrgetter(key.attr)(cfg))}\n"
                   for key in sorted(KEYS, key=attrgetter("name")) if key.attr)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(_fmt, row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_experiment(cfg: ExperimentConfig, out_dir, oracle: bool = False) -> dict:
    """Run one configured experiment and write its output files.

    Returns summary.csv's row plus the last round's stch value and mean w
    entropy as a dict, for programmatic callers and ablation.csv.  out_dir is
    made only once everything is computed, so a run that fails writes
    nothing; if a write fails, the files already written are removed.
    """
    out = Path(out_dir)
    written: list[Path] = []
    try:
        if oracle:
            check_oracle_model(cfg.model.kind)
        problem, spec = build_problem(cfg)
        models, traces = RUNNERS[cfg.method](cfg, problem, spec)

        if cfg.method == "local":
            selected = np.arange(cfg.clients)
        else:
            selected = select_models(spec, models, problem.validation)
        served = models[selected]
        train_accs = accuracy(spec, served, problem.train)
        val_accs = accuracy(spec, served, problem.validation)
        # partitioned data has no test split: its test accuracy is validation's
        test_accs = val_accs if problem.test is None else accuracy(spec, served, problem.test)
        client_rows = [[i, int(selected[i]), train_accs[i], val_accs[i], test_accs[i]]
                       for i in range(cfg.clients)]

        mean_gap = None
        if oracle:
            optima = [per_client_optimum(spec, problem.train[i:i + 1, :, :n]).theta
                      for i, n in enumerate(problem.train.counts)]
            _, mean_gap = coverage_gap(spec, models, optima, problem.train)

        fairness = fairness_report(test_accs)
        summary = {  # summary.csv's columns
            "mean_acc": fairness.mean,
            "std_acc": fairness.std,
            "min_acc": fairness.min,
            "max_acc": fairness.max,
            "jain_index": fairness.jain_index,
            "mean_coverage_gap": mean_gap,
        }

        k_cols = [f"grad_norm_{k + 1}" for k in range(len(traces[0].grad_norms))]
        trace_rows = [
            [t.round, t.stch_value, *t.grad_norms, t.alpha_cv, t.w_entropy_mean,
             t.w_max_mean, t.uploads]
            for t in traces
        ]
        config_text = canonical_text(cfg)
        checksum = hashlib.sha256(config_text.encode("utf-8")).hexdigest()

        out.mkdir(parents=True, exist_ok=True)
        path = out / "trace.csv"
        _write_csv(path, ["round", "stch_value", *k_cols, "alpha_cv",
                          "w_entropy_mean", "w_max_mean", "uploads_count"], trace_rows)
        written.append(path)
        path = out / "clients.csv"
        _write_csv(path, ["client_id", "selected_model", "train_acc", "val_acc", "test_acc"],
                   client_rows)
        written.append(path)
        path = out / "summary.csv"
        _write_csv(path, list(summary), [list(summary.values())])
        written.append(path)
        path = out / "manifest.txt"
        path.write_text(
            f"version={__version__}\nchecksum=sha256:{checksum}\n"
            f"out_dir={out.name}\n---\n{config_text}",
            encoding="utf-8",
        )
        written.append(path)
        return {**summary, "final_stch_value": traces[-1].stch_value,
                "final_w_entropy_mean": traces[-1].w_entropy_mean}
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def run_ablation(config_path, axis: str, out_dir, oracle: bool = False,
                 seed: int | None = None) -> list[dict]:
    """One run per axis value with a shared seed, plus an aggregate table.

    Every value is parsed and its config validated before the first run; the
    data and model do not depend on the axis, so a bad data or model value
    fails the first run, before anything is written.  A value that fails later
    takes the earlier values' directories with it, and out_dir if the
    ablation made it.
    """
    if axis not in _ABLATION_AXES:
        raise ConfigError(f"axis must be one of {tuple(_ABLATION_AXES)}, got {axis!r}")
    values = _values(_read_pairs(config_path))
    base = _config(values)
    if seed is not None:
        base = replace(base, seed=seed)
    swept = values.get(f"ablate.{axis}")
    if not swept:
        raise ConfigError(f"config must list ablate.{axis} values for axis {axis!r}")
    key = _ABLATION_AXES[axis]
    total_updates = base.rounds * base.local_epochs
    runs = []
    for value in swept:
        cfg = replace(base, **{key.attr: value})
        if axis == "local_epochs":
            if total_updates % value != 0:
                raise ConfigError(
                    f"local_epochs={value} does not divide total updates T*E={total_updates}"
                )
            cfg = replace(cfg, rounds=total_updates // value)
        runs.append((key.value.show(value), cfg))
    out = Path(out_dir)
    made_out = not out.exists()
    rows, written = [], []
    try:
        for label, cfg in runs:
            run_dir = out / f"{axis}_{label}"
            rows.append({"value": label, **run_experiment(cfg, run_dir, oracle=oracle)})
            written.append(run_dir)
        _write_csv(out / "ablation.csv", ["axis", *rows[0]],
                   [[axis, *r.values()] for r in rows])
    except Exception:
        for path in [out] if made_out else written:
            shutil.rmtree(path, ignore_errors=True)
        raise
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
        if name == "ablate":
            p.add_argument("--axis", required=True, choices=tuple(_ABLATION_AXES))
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = parse_config(args.config)
            if args.seed is not None:
                cfg = replace(cfg, seed=args.seed)
            run_experiment(cfg, args.out, oracle=args.oracle)
        else:
            run_ablation(args.config, args.axis, args.out, oracle=args.oracle, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
