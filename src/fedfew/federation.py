"""Simulated federated protocols: fedfew, fedavg, ifca, and local-only.

One communication round of fedfew:
  1. the server broadcasts the K current models to all M clients,
  2. every client runs E epochs of mini-batch gradient descent on every
     model, then reports the full-train-set gradient and loss at the locally
     updated point (the lookahead); the local parameters are discarded,
  3. the server turns the M x K losses into outer/inner weights, aggregates
     the lookahead gradients per model, and steps each model from its
     pre-update parameters.

Full participation every round.  All randomness flows from the experiment
seed through the named streams that numerics lists (data, init, per-round
batching), so the final models are a pure function of the configuration.

Every method trains all client-model pairs of an (M, K') grid of parameter
vectors at once (local_training): fedfew broadcasts its K models, fedavg its
one, ifca gives each client its best model and local each client its own.
Everything else a run object (_Run) owns alike for all four: the problem, the
initial models, the blocks, batch schedules and batch streams, the checked
local round, the round's weights and its trace row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import (
    DataConfig,
    Problem,
    dirichlet_partition,
    gen_mixture,
    load_csv,
    pathological_partition,
)
from .errors import ConfigError
from .metrics import weight_diagnostics
from .model import (BLOCK_ENTRIES, MLP, SOFTMAX, ClientRows, ModelSpec, _blocks, _grid_losses,
                    grid_loss, grid_loss_and_grad, init_params, softmax_hessian)
from .numerics import STREAM_BATCH, STREAM_INIT, Streams
from .scalarization import ScalarizationWeights, aggregate_gradients, compute_weights


@dataclass
class ModelConfig:
    """The model's config keys; ModelSpec checks them once the data fixes the
    input and class counts.  hidden_dim is read only for mlp-1hidden."""

    kind: str = SOFTMAX
    hidden_dim: int = 16
    l2_penalty: float = 1e-4


@dataclass
class ExperimentConfig:
    method: str
    clients: int  # M
    models: int  # K
    rounds: int  # T
    seed: int
    local_epochs: int = 1
    batch_size: int = 50
    learning_rate: float = 0.1
    mu: float = 0.01
    validation_fraction: float = 0.2
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)

    def __post_init__(self):
        if self.method not in RUNNERS:
            raise ConfigError(f"unknown method {self.method!r}")
        if min(self.clients, self.models, self.rounds, self.local_epochs) < 1:
            raise ConfigError("M, K, T, and E must all be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be positive and finite")
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ConfigError("mu must be positive and finite")
        if self.method in ("fedavg", "local") and self.models != 1:
            raise ConfigError(f"method {self.method} requires K=1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in [0, 2**64)")


@dataclass
class RoundTrace:
    round: int
    stch_value: float
    grad_norms: np.ndarray  # one per server model
    alpha_cv: float
    w_entropy_mean: float
    w_max_mean: float
    uploads: int


@dataclass
class OptimumResult:
    theta: np.ndarray
    grad_norm: float
    steps: int


def build_problem(cfg: ExperimentConfig) -> tuple[Problem, ModelSpec]:
    """Materialize the stacked clients and the model spec from the configuration."""
    dc = cfg.data
    if dc.dataset == "mixture":
        problem = gen_mixture(dc, cfg.clients, cfg.seed, cfg.validation_fraction)
        p, C = dc.input_dim, dc.classes
    else:
        try:
            base = load_csv(dc.csv_path)
        except OSError as exc:
            raise ConfigError(f"csv.path: cannot read {dc.csv_path}: {exc.strerror}") from exc
        except ValueError as exc:  # a malformed row, or no rows at all
            raise ConfigError(f"csv.path: {exc}") from exc
        if dc.partition == "dirichlet":
            clients = dirichlet_partition(
                base, dc.dirichlet_alpha, cfg.clients, cfg.seed, cfg.validation_fraction
            )
        else:
            clients = pathological_partition(
                base, dc.classes_per_client, cfg.clients, cfg.seed, cfg.validation_fraction
            )
        p, C = base.input_dim, base.class_count
    model_spec = ModelSpec(
        kind=cfg.model.kind,
        input_dim=p,
        classes=C,
        hidden_dim=cfg.model.hidden_dim if cfg.model.kind == MLP else 0,
        l2_penalty=cfg.model.l2_penalty,
    )
    if dc.dataset != "mixture":
        problem = Problem.from_clients(model_spec, clients)
    return problem, model_spec


def _batch_plan(counts: np.ndarray, batch_size: int):
    """Batches of min(batch_size, n_i) rows for clients of nonincreasing size:
    for each client, batch and slot, the position in the epoch's row order it
    reads and its weight, 1/|batch| or 0 on padding, (M, S, B); and (S,) how
    many clients, a prefix, have that batch.
    """
    b = np.minimum(batch_size, counts)
    steps = -(-counts // b)  # ceil(n_i / b_i), nonincreasing with n_i
    starts = np.arange(steps[0])[None, :] * b[:, None]  # (M, S)
    length = np.clip(counts[:, None] - starts, 0, b[:, None])
    slot = np.arange(b.max())
    valid = slot < length[..., None]
    pos = np.where(valid, starts[..., None] + slot, 0)
    weights = np.where(valid, 1.0 / np.maximum(length, 1)[..., None], 0.0)
    return pos, weights, np.count_nonzero(length, axis=0)


def training_blocks(spec, rows, k, batch_size, epochs):
    """local_training's blocks for a grid of K' = k models: the clients, their
    split sizes, their rows (a view or None, see _blocks) and their batch
    schedule, None when every client's batch is its whole split.  A schedule
    is an epoch's batches side by side: the positions each client reads of its
    row order, and their weights, (a, 1, S * B); the (S,) count of clients
    that have each batch; and how many clients, a prefix, shuffle their rows
    (split larger than one batch).
    """
    blocks = []
    for ids, counts, part in _blocks(spec, rows, k, batch_size, epochs):
        schedule = None
        if batch_size < counts[0]:
            pos, weights, live = _batch_plan(counts, batch_size)
            flat = (len(ids), 1, -1)
            schedule = (pos.reshape(flat), weights.reshape(flat), live,
                        np.count_nonzero(counts > batch_size))
        blocks.append((ids, counts, part, schedule))
    return blocks


def local_training(spec, rows, thetas, blocks, epochs, eta, batch_rng, grads=True):
    """E epochs of mini-batch descent on every (client, model) pair of a grid.

    Client i trains thetas[i, k] (M, K', d) on rows[i], its stacked train
    split, block by block (training_blocks), in batches of min(batch_size,
    n_i) rows, one permutation per epoch drawn from batch_rng(i, k), all E of
    a task back to back; a client whose batch is its whole split draws none.
    Returns the local parameters and the whole-split loss there, and with
    grads its gradient there too (else None).
    """
    m, k, d = thetas.shape
    local = np.array(thetas, dtype=np.float64)
    losses, gradients = np.empty((m, k)), np.empty((m, k, d)) if grads else None
    for ids, counts, part, schedule in blocks:
        part = rows[ids, :, : counts[0]] if part is None else part
        theta = local[ids]
        if schedule is None:  # every client's batch is its whole split
            for _ in range(epochs):
                theta -= eta * grid_loss_and_grad(spec, theta, part, loss=False)[1]
        else:
            pos, weights, live, shuffled = schedule
            width = pos.shape[2] // len(live)
            order = np.empty((epochs, len(ids), k, counts[0]), dtype=np.int64)
            order[:, shuffled:] = np.arange(counts[0])
            for i in range(shuffled):
                for j in range(k):
                    rng = batch_rng(ids[i], j)
                    for e in range(epochs):
                        order[e, i, j, : counts[i]] = rng.permutation(counts[i])
            for e in range(epochs):
                # one gather per epoch; batch s is its s-th slice of width B
                epoch = part.take(np.take_along_axis(order[e], pos, axis=2), weights)
                for s, a in enumerate(live):
                    batch = epoch[:a, :, s * width : (s + 1) * width]
                    theta[:a] -= eta * grid_loss_and_grad(spec, theta[:a], batch, loss=False)[1]
        local[ids] = theta
        if grads:
            losses[ids], gradients[ids] = grid_loss_and_grad(spec, theta, part)
        else:
            losses[ids] = grid_loss(spec, theta, part)
    return local, losses, gradients


class _Run:
    """What every method's run shares, settled before round 1:

    - the problem, built and checked, its stacked train splits (rows), their
      sizes and each client's share n_i / sum_j n_j of the train rows, the
      sample-size weighting of every method;
    - the count server models, model j from stream (STREAM_INIT, j);
    - training_blocks' blocks for a grid of K' = width models per client, and
      the batch streams (STREAM_BATCH, t, i, s) of every round t, client i and
      stream id s < K, keyed a pass of max(1, BLOCK_ENTRIES // (M * K))
      rounds at a time; a run whose every split is one batch keys none;
    - the trace rows, one per round, scored a pass of pass_rounds rounds at a
      time, and the current models.

    A runner then holds only its grid, its (M, K') model assignment and its
    server step.
    """

    def __init__(self, cfg: ExperimentConfig, problem: Problem | None, spec: ModelSpec | None,
                 count: int, width: int = 1, grads: bool = False):
        if problem is None:
            problem, spec = build_problem(cfg)
        if len(problem) != cfg.clients:
            raise ConfigError(f"config says M={cfg.clients} but {len(problem)} clients were built")
        self.cfg, self.spec, self.grads, self.rows = cfg, spec, grads, problem.train
        self.sizes = self.rows.counts.astype(np.float64)
        self.share = self.sizes / self.sizes.sum()
        streams = Streams(cfg.seed, [(STREAM_INIT, j) for j in range(count)])
        self.thetas = np.stack([init_params(spec, streams[j]) for j in range(count)])
        self.blocks = training_blocks(spec, self.rows, width, cfg.batch_size, cfg.local_epochs)
        self.shuffles = any(schedule is not None for *_, schedule in self.blocks)
        self.pass_rounds = max(1, BLOCK_ENTRIES // (cfg.clients * cfg.models))
        self._streams, self._first, self._pass = None, 0, []
        self.traces: list[RoundTrace] = []

    def _batch_rng(self, t: int, models: np.ndarray):
        """Round t's batch_rng: pair (i, j) draws from stream id models[i, j]
        mod K, the model it trains under fedfew and ifca, 0 under fedavg and
        local (K = 1)."""
        if not self.shuffles:
            return None
        M, K = self.cfg.clients, self.cfg.models
        if self._streams is None or not self._first <= t < self._first + self.pass_rounds:
            rounds = np.arange(t, min(t + self.pass_rounds, self.cfg.rounds + 1))
            r, i, s = np.meshgrid(rounds, np.arange(M), np.arange(K), indexing="ij")
            paths = np.stack([np.full(r.shape, STREAM_BATCH), r, i, s], axis=-1)
            self._streams, self._first = Streams(self.cfg.seed, paths.reshape(-1, 4)), t
        base, ids = (t - self._first) * M, models % K

        def batch_rng(i, j):
            return self._streams[(base + i) * K + int(ids[i, j])]
        return batch_rng

    def train(self, t: int, grid: np.ndarray, models: np.ndarray):
        """local_training of round t on the (M, K', d) grid, whose pair (i, j)
        trains model models[i, j], checked for non-finite results: the local
        parameters, the losses there and, with grads, the gradients there."""
        cfg = self.cfg
        # a diverging run overflows; the check below reports where
        with np.errstate(over="ignore", invalid="ignore"):
            local, losses, grads = local_training(self.spec, self.rows, grid, self.blocks,
                                                  cfg.local_epochs, cfg.learning_rate,
                                                  self._batch_rng(t, models), self.grads)
        point = grads if self.grads else local
        if not (np.isfinite(losses).all() and np.isfinite(point).all()):
            i, j = np.argwhere(~(np.isfinite(losses) & np.isfinite(point).all(axis=2)))[0]
            what = "gradient" if self.grads else "parameters"
            raise FloatingPointError(
                f"round {t}: client {i}, model {int(models[i, j])}: non-finite loss or "
                f"{what} after local training (learning_rate={cfg.learning_rate:g})")
        return local, losses, grads

    def weights(self, losses: np.ndarray):
        """The round's weights: every method is scored with the smooth
        objective fedfew optimizes, over its share-weighted (M, K) losses."""
        return compute_weights(losses * self.share[:, None], self.cfg.mu)

    def step(self, t: int, thetas: np.ndarray, weights, grad_norms, uploads: int) -> None:
        """The new models; round t's trace row is scored with the rest of its
        pass, a pass_rounds stack of (M, K) weights, at the pass's last round."""
        self.thetas = thetas
        self._pass.append((t, weights, grad_norms, uploads))
        if len(self._pass) < self.pass_rounds and t < self.cfg.rounds:
            return
        stacked = ScalarizationWeights(alpha=np.stack([w.alpha for _, w, _, _ in self._pass]),
                                       w=np.stack([w.w for _, w, _, _ in self._pass]), value=0.0)
        scores = zip(self._pass, *(v.tolist() for v in weight_diagnostics(stacked)))
        self.traces += [RoundTrace(round=r, stch_value=w.value, grad_norms=norms, alpha_cv=cv,
                                   w_entropy_mean=entropy, w_max_mean=wmax, uploads=count)
                        for (r, w, norms, count), cv, entropy, wmax in scores]
        self._pass = []


def run_fedfew(
    cfg: ExperimentConfig,
    problem: Problem | None = None,
    spec: ModelSpec | None = None,
    gradient_mode: str = "lookahead",
) -> tuple[np.ndarray, list[RoundTrace]]:
    """Joint optimization of K server models via smooth set scalarization.

    A pair uploads, under "lookahead", the full-train-set gradient at its
    locally updated point; under "delta", the accumulated local update
    (theta_broadcast - theta_local) / eta, which coincides with the
    broadcast-point gradient at E=1 with a single full batch and keeps the
    total server movement comparable across (E, T) budgets with T*E fixed.
    """
    if gradient_mode not in ("lookahead", "delta"):
        raise ConfigError(f"unknown gradient_mode {gradient_mode!r}")
    M, K, eta = cfg.clients, cfg.models, cfg.learning_rate
    models = np.broadcast_to(np.arange(K), (M, K))
    run = _Run(cfg, problem, spec, K, K, grads=gradient_mode == "lookahead")
    for t in range(1, cfg.rounds + 1):
        grid = np.broadcast_to(run.thetas, (M, *run.thetas.shape))
        local, losses, grads = run.train(t, grid, models)
        uploads = grads if run.grads else (grid - local) / eta
        weights = run.weights(losses)
        agg = aggregate_gradients(weights, uploads * run.share[:, None, None])
        # uploads: one (gradient, loss) pair per client-model
        run.step(t, run.thetas - eta * agg, weights, np.linalg.norm(agg, axis=1), M * K)
    return run.thetas, run.traces


def run_fedavg(
    cfg: ExperimentConfig,
    problem: Problem | None = None,
    spec: ModelSpec | None = None,
) -> tuple[np.ndarray, list[RoundTrace]]:
    """Single global model via sample-size-weighted parameter averaging."""
    M, eta = cfg.clients, cfg.learning_rate
    models = np.zeros((M, 1), dtype=np.int64)
    run = _Run(cfg, problem, spec, 1)
    for t in range(1, cfg.rounds + 1):
        theta = run.thetas[0]
        # a broadcast: local_training copies it client-fastest, and share @ local rounds by layout
        local, losses, _ = run.train(t, np.broadcast_to(theta, (M, 1, theta.size)), models)
        new_theta = run.share @ local[:, 0]
        norm = np.linalg.norm(theta - new_theta) / eta
        run.step(t, new_theta[None, :], run.weights(losses), np.array([norm]), M)
    return run.thetas, run.traces


def run_ifca(
    cfg: ExperimentConfig,
    problem: Problem | None = None,
    spec: ModelSpec | None = None,
) -> tuple[np.ndarray, list[RoundTrace]]:
    """Hard clustering: clients train only their current best model."""
    M, K, eta = cfg.clients, cfg.models, cfg.learning_rate
    run = _Run(cfg, problem, spec, K)
    eval_blocks = _blocks(run.spec, run.rows, K)
    for t in range(1, cfg.rounds + 1):
        thetas = run.thetas
        eval_losses = _grid_losses(run.spec, thetas, run.rows, eval_blocks)
        choice = np.argmin(eval_losses, axis=1)[:, None]  # (M, 1)
        local, _, _ = run.train(t, thetas[choice], choice)
        mass = (choice == np.arange(K)) * run.sizes[:, None]  # (M, K) cluster members
        totals = mass.sum(axis=0)[:, None]
        # an empty cluster keeps its previous parameters
        new_thetas = np.where(totals > 0, mass.T @ local[:, 0] / np.maximum(totals, 1.0), thetas)
        norms = np.linalg.norm(thetas - new_thetas, axis=1) / eta
        # uploads: K scalar losses plus one model per client
        run.step(t, new_thetas, run.weights(eval_losses), norms, M * (K + 1))
    return run.thetas, run.traces


def run_local(
    cfg: ExperimentConfig,
    problem: Problem | None = None,
    spec: ModelSpec | None = None,
) -> tuple[np.ndarray, list[RoundTrace]]:
    """Every client trains its own model; no communication at all."""
    M, eta = cfg.clients, cfg.learning_rate
    models = np.arange(M)[:, None]  # client i trains model i
    run = _Run(cfg, problem, spec, M)  # one model per client
    for t in range(1, cfg.rounds + 1):
        thetas = run.thetas
        local, losses, _ = run.train(t, thetas[:, None], models)
        new_thetas = local[:, 0]
        step_norm = float(np.mean(np.linalg.norm(thetas - new_thetas, axis=1))) / eta
        run.step(t, new_thetas, run.weights(losses), np.array([step_norm]), 0)
    return run.thetas, run.traces


# a config's method, and the runner it names
RUNNERS = {"fedfew": run_fedfew, "fedavg": run_fedavg, "ifca": run_ifca, "local": run_local}


def select_models(spec: ModelSpec, models: np.ndarray, validation: ClientRows) -> np.ndarray:
    """Post-training selection: (M,) argmin validation loss, ties to lowest index."""
    return np.argmin(_grid_losses(spec, np.atleast_2d(models), validation), axis=1)


def check_oracle_model(kind: str) -> None:
    """The oracle solves convex softmax regression only."""
    if kind != SOFTMAX:
        raise ConfigError(f"the oracle needs model.kind={SOFTMAX}, not {kind!r}: "
                          "only a convex model has one optimum per client")


def per_client_optimum(spec: ModelSpec, rows: ClientRows) -> OptimumResult:
    """Damped Newton with Armijo backtracking on one client's full train loss, its
    unpadded rows (1, 1, n_i) (Boyd & Vandenberghe, Convex Optimization, 9.5), from theta = 0.

    With l2 > 0 the Hessian is positive definite; at l2 = 0 it is singular
    (exactly so at theta = 0), and the step is the minimum-norm solution.
    """
    check_oracle_model(spec.kind)
    theta = np.zeros((1, 1, spec.dim))  # a grid of one pair
    f, g = grid_loss_and_grad(spec, theta, rows)
    steps = 0
    gnorm = float(np.linalg.norm(g))
    while gnorm > 1e-6 and steps < 20000:
        hessian = softmax_hessian(spec, theta, rows)
        if spec.l2_penalty > 0:
            direction = -np.linalg.solve(hessian, g[0, 0])
        else:
            direction = -np.linalg.lstsq(hessian, g[0, 0], rcond=None)[0]
        slope = float(g[0, 0] @ direction)
        step = 1.0
        for _ in range(60):
            trial = theta + step * direction
            f_trial, g_trial = grid_loss_and_grad(spec, trial, rows)
            if f_trial[0, 0] <= f[0, 0] + 1e-4 * step * slope:
                break
            step *= 0.5
        theta, f, g = trial, f_trial, g_trial
        gnorm = float(np.linalg.norm(g))
        steps += 1
    return OptimumResult(theta=theta[0, 0], grad_norm=gnorm, steps=steps)
