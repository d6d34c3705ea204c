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
seed through named substreams (data, init, per-round batching), so the final
models are a pure function of the configuration.

Every method trains all client-model pairs of an (M, K') grid of parameter
vectors at once (local_training): fedfew broadcasts its K models, fedavg its
one, ifca gives each client its best model and local each client its own.
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
from .model import (MLP, SOFTMAX, ClientRows, ModelSpec, _blocks, _grid_losses,
                    grid_loss_and_grad, init_params, softmax_hessian)
from .numerics import Rng
from .scalarization import aggregate_gradients, compute_weights

METHODS = ("fedfew", "fedavg", "ifca", "local")

# named substreams of the experiment seed
STREAM_DATA = 0
STREAM_INIT = 1
STREAM_BATCH = 2


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
        if self.method not in METHODS:
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


def uploads_per_round(method: str, M: int, K: int) -> int:
    """Communication accounting: payload uploads per round."""
    if method == "fedfew":
        return M * K  # one (gradient, loss) pair per client-model
    if method == "fedavg":
        return M
    if method == "ifca":
        return M * (K + 1)  # K scalar losses plus one model per client
    return 0


def build_problem(cfg: ExperimentConfig) -> tuple[Problem, ModelSpec]:
    """Materialize the stacked clients and the model spec from the configuration."""
    data_rng = Rng(cfg.seed).split(STREAM_DATA)
    dc = cfg.data
    if dc.dataset == "mixture":
        problem = gen_mixture(dc, cfg.clients, data_rng, cfg.validation_fraction)
        p, C = dc.input_dim, dc.classes
    else:
        base = load_csv(dc.csv_path)
        if dc.partition == "dirichlet":
            clients = dirichlet_partition(
                base, dc.dirichlet_alpha, cfg.clients, data_rng, cfg.validation_fraction
            )
        else:
            clients = pathological_partition(
                base, dc.classes_per_client, cfg.clients, data_rng, cfg.validation_fraction
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


def local_training(spec, rows, thetas, epochs, batch_size, eta, batch_rng):
    """E epochs of mini-batch descent on every (client, model) pair of a grid.

    Client i trains thetas[i, k] (M, K', d) on rows[i], its stacked train split,
    in batches of min(batch_size, n_i) rows, one permutation per epoch drawn from
    batch_rng(i, k); a client whose batch is its whole split draws none.
    Returns the local parameters and the whole-split loss and gradient there.
    """
    m, k, d = thetas.shape
    local = np.array(thetas, dtype=np.float64)
    losses, grads = np.empty((m, k)), np.empty((m, k, d))
    for ids, counts in _blocks(rows):
        part, theta = rows[ids, :, : counts[0]], local[ids]
        pos, weights, live = _batch_plan(counts, batch_size)
        shuffled = [(i, j, batch_rng(ids[i], j))
                    for i in range(len(ids)) for j in range(k) if batch_size < counts[i]]
        order = np.broadcast_to(np.arange(counts[0]), (len(ids), k, counts[0])).copy()
        for _ in range(epochs):
            for i, j, rng in shuffled:
                order[i, j, : counts[i]] = rng.permutation(counts[i])
            for s, a in enumerate(live):
                batch = part if not shuffled else part[:a].take(
                    np.take_along_axis(order[:a], pos[:a, None, s], axis=2), weights[:a, None, s])
                theta[:a] -= eta * grid_loss_and_grad(spec, theta[:a], batch)[1]
        local[ids] = theta
        losses[ids], grads[ids] = grid_loss_and_grad(spec, theta, part)
    return local, losses, grads


def _uploads(gradient_mode, thetas, local, grads, eta):
    """What each pair uploads.

    "lookahead": the full-train-set gradient at the locally updated point.
    "delta": the accumulated local update (theta_broadcast - theta_local) / eta;
    it coincides with the broadcast-point gradient at E=1 with a single full
    batch, and keeps the total server movement comparable across (E, T)
    budgets with T*E fixed.
    """
    return grads if gradient_mode == "lookahead" or eta == 0 else (thetas - local) / eta


def _local_round(cfg: ExperimentConfig, spec, rows, grid, t: int, streams, models):
    """local_training of round t over a grid, checked for non-finite results.

    Pair (i, k) draws its batches from (STREAM_BATCH, t, i, streams[i, k]) and
    trains model models[i, k], which the error names.
    """
    def batch_rng(i, k):
        return Rng(cfg.seed, (STREAM_BATCH, t, i, int(streams[i, k])))

    # a diverging run overflows; the check below reports where
    with np.errstate(over="ignore", invalid="ignore"):
        local, losses, grads = local_training(spec, rows, grid, cfg.local_epochs,
                                              cfg.batch_size, cfg.learning_rate, batch_rng)
    bad = ~(np.isfinite(losses) & np.isfinite(grads).all(axis=2))
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise FloatingPointError(
            f"round {t}: client {i}, model {int(models[i, k])}: non-finite loss or "
            f"gradient after local training (learning_rate={cfg.learning_rate:g})")
    return local, losses, grads


def _problem(cfg: ExperimentConfig, problem, spec
             ) -> tuple[ModelSpec, np.ndarray, np.ndarray, ClientRows]:
    """The spec, the train sizes, each client's share n_i / sum_j n_j of the
    train rows (the sample-size weighting of every method) and the stacked
    train splits of a run."""
    if problem is None:
        problem, spec = build_problem(cfg)
    if len(problem) != cfg.clients:
        raise ConfigError(f"config says M={cfg.clients} but {len(problem)} clients were built")
    sizes = problem.train.counts.astype(np.float64)
    return spec, sizes, sizes / sizes.sum(), problem.train


def _trace(t, weights, grad_norms, uploads) -> RoundTrace:
    """A round's trace; every method is scored with the smooth objective fedfew
    optimizes, over its share-weighted losses."""
    alpha_cv, entropy, wmax = weight_diagnostics(weights)
    return RoundTrace(round=t, stch_value=weights.value, grad_norms=grad_norms,
                      alpha_cv=alpha_cv, w_entropy_mean=entropy, w_max_mean=wmax,
                      uploads=uploads)


def _init_models(spec: ModelSpec, seed: int, count: int) -> np.ndarray:
    root = Rng(seed)
    return np.stack([init_params(spec, root.split(STREAM_INIT, k)) for k in range(count)])


def run_fedfew(
    cfg: ExperimentConfig,
    problem: Problem | None = None,
    spec: ModelSpec | None = None,
    gradient_mode: str = "lookahead",
) -> tuple[np.ndarray, list[RoundTrace]]:
    """Joint optimization of K server models via smooth set scalarization."""
    if gradient_mode not in ("lookahead", "delta"):
        raise ConfigError(f"unknown gradient_mode {gradient_mode!r}")
    spec, _, share, rows = _problem(cfg, problem, spec)
    M, K = cfg.clients, cfg.models
    thetas = _init_models(spec, cfg.seed, K)
    models = np.broadcast_to(np.arange(K), (M, K))
    traces: list[RoundTrace] = []
    for t in range(1, cfg.rounds + 1):
        grid = np.broadcast_to(thetas, (M, *thetas.shape))
        local, losses, grads = _local_round(cfg, spec, rows, grid, t, models, models)
        uploads = _uploads(gradient_mode, grid, local, grads, cfg.learning_rate)
        weights = compute_weights(losses * share[:, None], cfg.mu)
        agg = aggregate_gradients(weights, uploads * share[:, None, None])
        thetas = thetas - cfg.learning_rate * agg
        traces.append(_trace(t, weights, np.linalg.norm(agg, axis=1),
                             uploads_per_round("fedfew", M, K)))
    return thetas, traces


def run_fedavg(
    cfg: ExperimentConfig,
    problem: Problem | None = None,
    spec: ModelSpec | None = None,
) -> tuple[np.ndarray, list[RoundTrace]]:
    """Single global model via sample-size-weighted parameter averaging."""
    spec, _, share, rows = _problem(cfg, problem, spec)
    M = cfg.clients
    theta = _init_models(spec, cfg.seed, 1)[0]
    models = np.zeros((M, 1), dtype=np.int64)
    traces: list[RoundTrace] = []
    for t in range(1, cfg.rounds + 1):
        grid = np.broadcast_to(theta, (M, 1, theta.size))
        local, losses, _ = _local_round(cfg, spec, rows, grid, t, models, models)
        new_theta = share @ local[:, 0]
        norm = np.linalg.norm(theta - new_theta) / cfg.learning_rate
        traces.append(_trace(t, compute_weights(losses * share[:, None], cfg.mu),
                             np.array([norm]), uploads_per_round("fedavg", M, 1)))
        theta = new_theta
    return theta[None, :], traces


def run_ifca(
    cfg: ExperimentConfig,
    problem: Problem | None = None,
    spec: ModelSpec | None = None,
) -> tuple[np.ndarray, list[RoundTrace]]:
    """Hard clustering: clients train only their current best model."""
    spec, sizes, share, rows = _problem(cfg, problem, spec)
    M, K = cfg.clients, cfg.models
    thetas = _init_models(spec, cfg.seed, K)
    traces: list[RoundTrace] = []
    for t in range(1, cfg.rounds + 1):
        eval_losses = _grid_losses(spec, thetas, rows)
        choice = np.argmin(eval_losses, axis=1)[:, None]  # (M, 1)
        local, _, _ = _local_round(cfg, spec, rows, thetas[choice], t, choice, choice)
        mass = (choice == np.arange(K)) * sizes[:, None]  # (M, K) cluster members
        totals = mass.sum(axis=0)[:, None]
        # an empty cluster keeps its previous parameters
        new_thetas = np.where(totals > 0, mass.T @ local[:, 0] / np.maximum(totals, 1.0), thetas)
        norms = np.linalg.norm(thetas - new_thetas, axis=1) / cfg.learning_rate
        traces.append(_trace(t, compute_weights(eval_losses * share[:, None], cfg.mu), norms,
                             uploads_per_round("ifca", M, K)))
        thetas = new_thetas
    return thetas, traces


def run_local(
    cfg: ExperimentConfig,
    problem: Problem | None = None,
    spec: ModelSpec | None = None,
) -> tuple[np.ndarray, list[RoundTrace]]:
    """Every client trains its own model; no communication at all."""
    spec, _, share, rows = _problem(cfg, problem, spec)
    M = cfg.clients
    thetas = _init_models(spec, cfg.seed, M)  # one model per client
    streams = np.zeros((M, 1), dtype=np.int64)
    models = np.arange(M)[:, None]  # client i trains model i
    traces: list[RoundTrace] = []
    for t in range(1, cfg.rounds + 1):
        local, losses, _ = _local_round(cfg, spec, rows, thetas[:, None], t, streams, models)
        new_thetas = local[:, 0]
        step_norm = float(np.mean(np.linalg.norm(thetas - new_thetas, axis=1))) / cfg.learning_rate
        traces.append(_trace(t, compute_weights(losses * share[:, None], cfg.mu),
                             np.array([step_norm]), uploads_per_round("local", M, 1)))
        thetas = new_thetas
    return thetas, traces


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
