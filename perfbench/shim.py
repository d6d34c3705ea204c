"""Child process of the benchmark: runs ``fedfew.cli.main`` with hooks.

Usage: python3 perfbench/shim.py RECORD_JSON TRACE ARG...

ARG... are the arguments of the ``fedfew`` command line.  The package is
imported from ``src/`` next to this directory; the program itself is not
changed.  Hooks replace a public function at every module that holds it by
name (``federation`` imports ``grad``/``loss`` from ``model``, ``cli`` keeps
the runners in a table), so calls from inside the package are seen too.

Always hooked, at a cost of a few calls per run: the return of
``build_problem`` and the span of the ``run_<method>`` call give the
set-up, training and post-training times; the models that the runner
returns and the optima that ``per_client_optimum`` returns are recorded for
the correctness checks.  With TRACE=1 the public functions listed in LAYERS
are also timed: calls, inclusive time, self time (inclusive time minus the
time of traced calls made inside it), rows of the features argument and
solver steps.  A layer whose function no longer exists is listed as absent.

RECORD_JSON receives the timestamps (``time.monotonic``, which is the same
clock in every process of the machine), the recorded arrays and the layer
statistics.  The exit code is the one ``fedfew.cli.main`` returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

RUNNERS = ("run_fedfew", "run_fedavg", "run_ifca", "run_local")

# (layer, module, functions): one statistic per layer; rows counts the
# features argument of the model kernel, steps sums OptimumResult.steps.
LAYERS = [
    ("model.grad", "model", ("grad",)),
    ("model.loss", "model", ("loss",)),
    ("model.predict", "model", ("predict",)),
    ("numerics.rng", "numerics", ("Rng",)),
    ("federation.client_round", "federation", ("client_round",)),
    ("federation.runner", "federation", RUNNERS),
    ("scalarization.compute_weights", "scalarization", ("compute_weights",)),
    ("scalarization.stch_set_value", "scalarization", ("stch_set_value",)),
    ("scalarization.aggregate_gradients", "scalarization", ("aggregate_gradients",)),
    ("metrics.weight_diagnostics", "metrics", ("weight_diagnostics",)),
    ("federation.select_models", "federation", ("select_models",)),
    ("metrics.accuracy", "metrics", ("accuracy",)),
    ("federation.per_client_optimum", "federation", ("per_client_optimum",)),
    ("metrics.coverage_gap", "metrics", ("coverage_gap",)),
    ("federation.build_problem", "federation", ("build_problem",)),
    ("data.gen_mixture", "data", ("gen_mixture",)),
    ("cli.run_experiment", "cli", ("run_experiment",)),
]
ROW_LAYERS = ("model.grad", "model.loss", "model.predict")


class Layer:
    """Counters of one traced layer; the stack is shared by all layers."""

    def __init__(self, name: str, stack: list):
        self.name = name
        self.stack = stack
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.rows = 0
        self.steps = 0

    def enter(self):
        self.stack.append(0.0)

    def leave(self, seconds: float):
        children = self.stack.pop()
        self.calls += 1
        self.total_s += seconds
        self.self_s += seconds - children
        if self.stack:
            self.stack[-1] += seconds

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
                "rows": self.rows, "steps": self.steps}


def _features_rows(args, kwargs) -> int:
    feats = args[2] if len(args) > 2 else kwargs.get("features")
    shape = getattr(feats, "shape", None)
    return int(shape[0]) if shape else len(feats)


def _wrap(fn, layer: Layer | None, before=None, after=None):
    """fn with optional span accounting and hooks on its call and return."""
    perf = time.perf_counter

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if before is not None:
            before()
        if layer is not None:
            layer.enter()
        start = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            if layer is not None:
                layer.leave(perf() - start)
        if after is not None:
            after(args, kwargs, result)
        return result

    return call


def _replace_everywhere(original, replacement) -> None:
    """Point every fedfew module attribute and table entry at the replacement."""
    for name, module in list(sys.modules.items()):
        if name != "fedfew" and not name.startswith("fedfew."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement


def main(argv: list[str]) -> int:
    record_path, traced, cli_args = Path(argv[0]), argv[1] == "1", argv[2:]
    cli = importlib.import_module("fedfew.cli")
    record: dict = {"absent": [], "models": None, "optima": []}
    stack: list = []
    layers: dict[str, Layer] = {}

    def build_done(args, kwargs, result):
        record.setdefault("build_end", time.monotonic())

    def runner_done(args, kwargs, result):
        record["train_end"] = time.monotonic()
        record["models"] = result[0].tolist()

    def optimum_done(args, kwargs, result):
        record["optima"].append(result.theta.tolist())
        if "federation.per_client_optimum" in layers:
            layers["federation.per_client_optimum"].steps += int(result.steps)

    def runner_start():
        record["train_start"] = time.monotonic()

    hooks = {"build_problem": build_done, "per_client_optimum": optimum_done}
    hooks.update({name: runner_done for name in RUNNERS})

    # Every layer's functions, traced or not, resolved before any is replaced.
    targets = []
    for layer_name, module_name, names in LAYERS:
        try:
            module = importlib.import_module(f"fedfew.{module_name}")
        except ImportError:
            module = None
        found = [(n, getattr(module, n)) for n in names if hasattr(module, n)]
        if not found:
            record["absent"].append(layer_name)
            continue
        layer = layers.setdefault(layer_name, Layer(layer_name, stack)) if traced else None
        targets.extend((layer, n, fn) for n, fn in found)

    for layer, name, fn in targets:
        if isinstance(fn, type):  # a class: time its constructor
            if layer is not None:
                fn.__init__ = _wrap(fn.__init__, layer)
            continue
        if layer is None and name not in hooks:
            continue
        if layer is not None and layer.name in ROW_LAYERS:
            def count_rows(args, kwargs, result, layer=layer):
                layer.rows += _features_rows(args, kwargs)
            after = count_rows
        else:
            after = hooks.get(name)
        before = runner_start if name in RUNNERS else None
        _replace_everywhere(fn, _wrap(fn, layer, before, after))

    code = cli.main(cli_args)
    record["main_end"] = time.monotonic()
    record["exit_code"] = code
    record["layers"] = {name: layer.as_dict() for name, layer in layers.items()}
    record_path.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
