"""Protocol behavior: client rounds, the four methods, selection, optima."""

import hashlib
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedfew import federation, model
from fedfew.cli import parse_config
from fedfew.data import ClientDataset, Dataset, Problem
from fedfew.errors import ConfigError
from fedfew.federation import (
    RUNNERS,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    build_problem,
    local_training,
    per_client_optimum,
    run_fedavg,
    run_fedfew,
    run_ifca,
    run_local,
    select_models,
    training_blocks,
)
from fedfew.metrics import accuracy, weight_diagnostics
from fedfew.model import ModelSpec, grid_loss_and_grad, init_params, stack_rows
from fedfew.numerics import STREAM_BATCH, STREAM_INIT
from fedfew.scalarization import aggregate_gradients, compute_weights
from perpair import grad, loss, optimum
from streams import stream

ROOT = Path(__file__).resolve().parent.parent
SPEC = ModelSpec("softmax-regression", input_dim=2, classes=2, l2_penalty=1e-3)


def make_client(seed=0, n=24) -> ClientDataset:
    rng = stream(seed)
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] > 0).astype(int)
    d = Dataset(x, y, 2)
    train = d.subset(np.arange(0, n - 4))
    val = d.subset(np.arange(n - 4, n))
    return ClientDataset(train, val)


def stacked(clients, spec=SPEC) -> Problem:
    return Problem.from_clients(spec, clients)


def train_rows(client, spec=SPEC):
    """The client's train split as the one-client stack the oracle takes."""
    return stack_rows(spec, [(client.train.features, client.train.labels)])


def record_ifca_choices(monkeypatch) -> list:
    """Each round's (M,) model choice, as run_ifca hands it to the run's train."""
    choices = []

    def recording(run, t, grid, models):
        choices.append(models[:, 0].copy())
        return train(run, t, grid, models)

    train = federation._Run.train
    monkeypatch.setattr(federation._Run, "train", recording)
    return choices


def small_cfg(method="fedfew", K=2, rounds=4, seed=3, **data_kw):
    data = DataConfig(dataset="mixture", groups=2, classes=2, input_dim=2,
                      separation=1.0, noise_std=0.25, samples_per_client=40, **data_kw)
    return ExperimentConfig(method=method, clients=4, models=K, rounds=rounds, seed=seed,
                            local_epochs=1, batch_size=8, learning_rate=0.2,
                            model=ModelConfig(l2_penalty=1e-3), data=data)


def client_round(client, theta, epochs, batch_size, eta, rng):
    """One client's local round: local_training on a grid of one pair, whose
    batches all come from rng.  Returns the uploaded gradient and the loss."""
    rows = train_rows(client)
    _, losses, grads = local_training(SPEC, rows, theta[None, None],
                                      training_blocks(SPEC, rows, 1, batch_size, epochs),
                                      epochs, eta, lambda i, k: rng)
    return grads[0, 0], float(losses[0, 0])


class TestClientRound:
    def test_zero_learning_rate_returns_broadcast_gradient(self):
        client = make_client()
        theta = init_params(SPEC, stream(1))
        g, lv = client_round(client, theta, 3, 8, 0.0, stream(2))
        expected = grad(SPEC, theta, client.train.features, client.train.labels)
        np.testing.assert_allclose(g, expected, atol=1e-15)

    def test_full_batch_single_epoch_is_one_step_lookahead(self):
        client = make_client()
        theta = init_params(SPEC, stream(1))
        eta = 0.3
        g, _ = client_round(client, theta, 1, 10_000, eta, stream(2))
        x, y = client.train.features, client.train.labels
        lookahead = theta - eta * grad(SPEC, theta, x, y)
        np.testing.assert_allclose(g, grad(SPEC, lookahead, x, y), atol=1e-15)

    def test_deterministic(self):
        client = make_client()
        theta = init_params(SPEC, stream(1))
        a = client_round(client, theta, 2, 4, 0.1, stream(0, STREAM_BATCH, 1, 0, 0))
        b = client_round(client, theta, 2, 4, 0.1, stream(0, STREAM_BATCH, 1, 0, 0))
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]


class TestRunFedfew:
    def test_bitwise_deterministic(self):
        cfg = small_cfg()
        m1, t1 = run_fedfew(cfg)
        m2, t2 = run_fedfew(cfg)
        np.testing.assert_array_equal(m1, m2)
        assert [t.stch_value for t in t1] == [t.stch_value for t in t2]

    def test_convex_single_pair_descends(self):
        # one client, one model, full batch, small eta: gradient descent on a
        # convex objective, so the trace is non-increasing almost everywhere
        data = DataConfig(dataset="mixture", groups=1, classes=2, input_dim=2,
                          separation=1.0, noise_std=0.2, samples_per_client=60)
        cfg = ExperimentConfig(method="fedfew", clients=1, models=1, rounds=60, seed=5,
                               local_epochs=1, batch_size=10_000, learning_rate=0.3,
                               model=ModelConfig(l2_penalty=1e-3), data=data)
        _, traces = run_fedfew(cfg)
        values = np.array([t.stch_value for t in traces])
        drops = np.diff(values[5:]) <= 1e-12
        assert np.mean(drops) >= 0.99

    def test_uploads_accounting(self):
        cfg = small_cfg()
        _, traces = run_fedfew(cfg)
        assert all(t.uploads == cfg.clients * cfg.models for t in traces)

    def test_unknown_gradient_mode_rejected_before_building(self, monkeypatch):
        def never(cfg):
            raise AssertionError("built the problem before checking gradient_mode")

        monkeypatch.setattr(federation, "build_problem", never)
        with pytest.raises(ConfigError, match="unknown gradient_mode 'bogus'"):
            run_fedfew(small_cfg(), gradient_mode="bogus")

    @pytest.mark.parametrize("kind, digest", [
        ("softmax-regression", "7b48f647e9875174bbb7979d55de3876ae64f015fb67bec5659fbdc9b6ab47ef"),
        ("mlp-1hidden", "3b1ff719ad75b7704aa25b8e94413bcc23a9c9e584a3ba7bbe174489dce1936d"),
    ], ids=["softmax", "mlp"])
    def test_delta_uploads_match_their_digest(self, kind, digest):
        # the final models and stch values of a mini-batch run, byte for byte:
        # the task-loop tests check delta uploads only to rtol
        cfg = parse_config(ROOT / "scripts" / "configs" / "group_recovery.cfg")
        cfg = replace(cfg, local_epochs=2, batch_size=8, rounds=10,
                      model=replace(cfg.model, kind=kind))
        models, traces = run_fedfew(cfg, gradient_mode="delta")
        values = np.array([t.stch_value for t in traces])
        assert hashlib.sha256(models.tobytes() + values.tobytes()).hexdigest() == digest

    def test_trace_diagnostics_within_bounds(self):
        cfg = small_cfg(K=3)
        _, traces = run_fedfew(cfg)
        log_k = np.log(3)
        for t in traces:
            assert -1e-12 <= t.w_entropy_mean <= log_k + 1e-12
            assert 1 / 3 - 1e-12 <= t.w_max_mean <= 1.0 + 1e-12
            assert t.alpha_cv >= 0.0
            assert t.grad_norms.shape == (3,)

    def test_large_mu_limit_matches_weighted_mean_gradient(self):
        # as mu grows the outer weights flatten to 1/M, so M times the
        # aggregate approaches the sample-size-weighted mean gradient; the
        # deviation scales like (loss spread) / mu
        clients = [make_client(seed=s, n=20 + 4 * s) for s in range(3)]
        sizes = np.array([c.train.n for c in clients], dtype=float)
        theta = init_params(SPEC, stream(9, STREAM_INIT, 0))  # the runner's init stream
        eta = 0.1
        lookahead_grads = np.stack([
            client_round(c, theta, 1, 10_000, eta, stream(0))[0] for c in clients
        ])
        weighted_mean = (sizes / sizes.sum()) @ lookahead_grads

        def fedfew_direction(mu):
            cfg = ExperimentConfig(method="fedfew", clients=3, models=1, rounds=1, seed=9,
                                   local_epochs=1, batch_size=10_000, learning_rate=eta,
                                   mu=mu, model=ModelConfig(l2_penalty=1e-3),
                                   data=DataConfig())
            models, _ = run_fedfew(cfg, stacked(clients), SPEC)
            start = init_params(SPEC, stream(9, STREAM_INIT, 0))
            return (start - models[0]) / eta  # the aggregated gradient

        tight = 3 * fedfew_direction(1e8)
        np.testing.assert_allclose(tight, weighted_mean, rtol=1e-6, atol=1e-12)
        loose = 3 * fedfew_direction(100.0)
        err = np.linalg.norm(loose - weighted_mean) / np.linalg.norm(weighted_mean)
        assert err <= 3e-2


class TestSelectModels:
    def test_single_model_selects_zero(self):
        validation = stacked([make_client(seed=s) for s in range(3)]).validation
        models = np.stack([init_params(SPEC, stream(0))])
        np.testing.assert_array_equal(select_models(SPEC, models, validation), 0)

    def test_identical_models_tie_break_lowest_index(self):
        validation = stacked([make_client(seed=s) for s in range(3)]).validation
        theta = init_params(SPEC, stream(0))
        np.testing.assert_array_equal(
            select_models(SPEC, np.stack([theta, theta.copy()]), validation), 0)

    def test_selects_least_validation_loss(self):
        clients = [make_client(seed=s) for s in range(4)]
        models = np.stack([init_params(SPEC, stream(s)) for s in range(3)])
        selected = select_models(SPEC, models, stacked(clients).validation)
        losses = [[loss(SPEC, m, c.validation.features, c.validation.labels) for m in models]
                  for c in clients]
        assert selected.shape == (4,)
        np.testing.assert_array_equal(selected, np.argmin(losses, axis=1))


class TestRunFedavg:
    def test_single_client_is_plain_minibatch_descent(self):
        data = DataConfig(dataset="mixture", groups=1, classes=2, input_dim=2,
                          separation=1.0, noise_std=0.25, samples_per_client=40)
        cfg = ExperimentConfig(method="fedavg", clients=1, models=1, rounds=6, seed=2,
                               local_epochs=2, batch_size=8, learning_rate=0.15,
                               model=ModelConfig(l2_penalty=1e-3), data=data)
        problem, spec = build_problem(cfg)
        models, _ = run_fedavg(cfg, problem, spec)
        theta = init_params(spec, stream(2, STREAM_INIT, 0))
        train = problem[0].train
        for t in range(1, 7):
            rng = stream(2, STREAM_BATCH, t, 0, 0)
            for _ in range(2):
                order = rng.permutation(train.n)
                for s in range(0, train.n, 8):
                    idx = order[s : s + 8]
                    theta = theta - 0.15 * grad(spec, theta, train.features[idx], train.labels[idx])
        np.testing.assert_allclose(models[0], theta, atol=1e-12)

    def test_identical_clients_match_centralized_descent(self):
        base = make_client(seed=1)
        clients = [ClientDataset(base.train, base.validation) for _ in range(4)]
        cfg = ExperimentConfig(method="fedavg", clients=4, models=1, rounds=5, seed=6,
                               local_epochs=1, batch_size=10_000, learning_rate=0.2,
                               model=ModelConfig(l2_penalty=1e-3), data=DataConfig())
        models, _ = run_fedavg(cfg, stacked(clients), SPEC)
        theta = init_params(SPEC, stream(6, STREAM_INIT, 0))
        x, y = base.train.features, base.train.labels
        for _ in range(5):
            theta = theta - 0.2 * grad(SPEC, theta, x, y)
        np.testing.assert_allclose(models[0], theta, atol=1e-12)

    def test_requires_single_model(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(method="fedavg", clients=2, models=3, rounds=1, seed=0)

    def test_uploads_accounting(self):
        cfg = small_cfg(method="fedavg", K=1)
        _, traces = run_fedavg(cfg)
        assert all(t.uploads == cfg.clients for t in traces)


class TestRunIfca:
    def test_single_cluster_equals_fedavg(self):
        cfg_i = small_cfg(method="ifca", K=1)
        cfg_a = small_cfg(method="fedavg", K=1)
        problem, spec = build_problem(cfg_i)
        m_ifca, _ = run_ifca(cfg_i, problem, spec)
        m_avg, _ = run_fedavg(cfg_a, problem, spec)
        np.testing.assert_allclose(m_ifca[0], m_avg[0], atol=1e-12)

    def test_identical_clients_settle_on_lowest_index(self, monkeypatch):
        base = make_client(seed=3)
        clients = [ClientDataset(base.train, base.validation) for _ in range(3)]
        cfg = ExperimentConfig(method="ifca", clients=3, models=2, rounds=4, seed=8,
                               local_epochs=1, batch_size=10_000, learning_rate=0.2,
                               model=ModelConfig(l2_penalty=1e-3), data=DataConfig())
        choices = record_ifca_choices(monkeypatch)
        run_ifca(cfg, stacked(clients), SPEC)
        assert len(choices) == 4
        for choice in choices:
            assert len(set(choice.tolist())) == 1
        # after round 1 all clients track one cluster; the untouched model is
        # frozen, so the chosen index never changes
        chosen = choices[1][0]
        for choice in choices[1:]:
            assert np.all(choice == chosen)

    def test_uploads_accounting(self):
        cfg = small_cfg(method="ifca", K=2)
        _, traces = run_ifca(cfg)
        assert all(t.uploads == cfg.clients * (cfg.models + 1) for t in traces)


class TestRunLocal:
    def test_single_client_equals_fedavg(self):
        data = DataConfig(dataset="mixture", groups=1, classes=2, input_dim=2,
                          samples_per_client=30)
        cfg = ExperimentConfig(method="local", clients=1, models=1, rounds=5, seed=4,
                               local_epochs=2, batch_size=8, learning_rate=0.1,
                               model=ModelConfig(l2_penalty=1e-3), data=data)
        cfg_avg = ExperimentConfig(method="fedavg", clients=1, models=1, rounds=5, seed=4,
                                   local_epochs=2, batch_size=8, learning_rate=0.1,
                                   model=ModelConfig(l2_penalty=1e-3), data=data)
        problem, spec = build_problem(cfg)
        m_local, traces = run_local(cfg, problem, spec)
        m_avg, _ = run_fedavg(cfg_avg, problem, spec)
        np.testing.assert_allclose(m_local[0], m_avg[0], atol=1e-12)
        assert all(t.uploads == 0 for t in traces)

    def test_train_accuracy_beats_validation_on_average(self):
        # small local datasets overfit: across 20 seeds the averaged train
        # accuracy should not trail validation
        diffs = []
        for seed in range(20):
            data = DataConfig(dataset="mixture", groups=2, classes=2, input_dim=3,
                              separation=0.8, noise_std=0.4, samples_per_client=20)
            cfg = ExperimentConfig(method="local", clients=4, models=1, rounds=30, seed=seed,
                                   local_epochs=1, batch_size=16, learning_rate=0.5,
                                   model=ModelConfig(l2_penalty=1e-4), data=data)
            problem, spec = build_problem(cfg)
            thetas, _ = run_local(cfg, problem, spec)
            tr = np.mean(accuracy(spec, thetas, problem.train))
            va = np.mean(accuracy(spec, thetas, problem.validation))
            diffs.append(tr - va)
        assert np.mean(diffs) >= 0.0

    def test_deterministic(self):
        cfg = small_cfg(method="local", K=1)
        a, _ = run_local(cfg)
        b, _ = run_local(cfg)
        np.testing.assert_array_equal(a, b)


class TestPerClientOptimum:
    def test_reaches_tight_gradient_norm(self):
        result = per_client_optimum(SPEC, train_rows(make_client(seed=5)))
        assert result.grad_norm <= 1e-6

    def test_symmetric_dataset_has_zero_optimum(self):
        # every label occurs with both x and -x, so features carry no signal
        # and the l2 term makes theta = 0 the unique optimum
        x = np.array([[1.0, 2.0], [-1.0, -2.0], [1.0, 2.0], [-1.0, -2.0]])
        y = np.array([0, 0, 1, 1])
        d = Dataset(x, y, 2)
        result = per_client_optimum(SPEC, train_rows(ClientDataset(d, d)))
        assert np.linalg.norm(result.theta) <= 1e-4

    def test_beats_random_probes(self):
        client = make_client(seed=7)
        result = per_client_optimum(SPEC, train_rows(client))
        best = loss(SPEC, result.theta, client.train.features, client.train.labels)
        rng = stream(11)
        for _ in range(100):
            probe = rng.normal(scale=2.0, size=SPEC.dim)
            assert best <= loss(SPEC, probe, client.train.features, client.train.labels) + 1e-12


    @pytest.mark.parametrize("n", [3, 24, 61])
    def test_agrees_with_per_pair_descent(self, n):
        # clients of unequal size: Newton against the reference descent
        client = make_client(seed=n, n=n + 4)
        x, y = client.train.features, client.train.labels
        result = per_client_optimum(SPEC, train_rows(client))
        theta, _ = optimum(SPEC, x, y)
        assert np.linalg.norm(grad(SPEC, result.theta, x, y)) <= 1e-6
        assert loss(SPEC, result.theta, x, y) <= loss(SPEC, theta, x, y) + 1e-12
        # strong convexity: ||theta - theta*|| <= ||g(theta)|| / l2
        bound = np.linalg.norm(grad(SPEC, theta, x, y)) / SPEC.l2_penalty
        assert np.linalg.norm(result.theta - theta) <= bound

    @pytest.mark.parametrize("n", [1, 3])
    def test_converges_without_l2(self, n):
        # l2 = 0: the Hessian is singular, exactly so at theta = 0
        spec = ModelSpec("softmax-regression", input_dim=4, classes=2, l2_penalty=0.0)
        rng = stream(n)
        d = Dataset(rng.normal(size=(n, 4)), np.arange(n) % 2, 2)
        result = per_client_optimum(spec, train_rows(ClientDataset(d, d), spec))
        assert np.linalg.norm(grad(spec, result.theta, d.features, d.labels)) <= 1e-6

    def test_damped_steps_still_converge(self, monkeypatch):
        # 17 spread-out rows and 3 random labels: a full Newton step fails the
        # Armijo test twice (13 steps, 15 trials), so the line search halves
        calls = []

        def counted(*args):
            calls.append(1)
            return model.grid_loss_and_grad(*args)

        monkeypatch.setattr(federation, "grid_loss_and_grad", counted)
        spec = ModelSpec("softmax-regression", input_dim=4, classes=3, l2_penalty=1e-6)
        rng = stream(132)
        d = Dataset(2.5 * rng.normal(size=(17, 4)), rng.integers(0, 3, size=17), 3)
        result = per_client_optimum(spec, train_rows(ClientDataset(d, d), spec))
        trials = len(calls) - 1  # the first call scores theta = 0
        assert trials > result.steps
        assert result.grad_norm <= 1e-6

    def test_mlp_is_a_config_error(self):
        with pytest.raises(ConfigError, match="oracle.*model.kind"):
            per_client_optimum(MLP_SPEC, train_rows(make_client(), MLP_SPEC))

    def test_at_most_ten_steps_on_group_recovery(self):
        # a deterministic speed guard, in place of a wall-clock gate
        cfg = parse_config(ROOT / "scripts" / "configs" / "group_recovery.cfg")
        problem, spec = build_problem(cfg)
        train = problem.train
        assert len(problem) == 12
        for i, n in enumerate(train.counts):
            result = per_client_optimum(spec, train[i:i + 1, :, :n])
            assert result.grad_norm <= 1e-6
            assert result.steps <= 10


# ----------------------------------------------------------------------
# the batched round engine against a per-task loop built from the per-pair grad
# ----------------------------------------------------------------------

MLP_SPEC = ModelSpec("mlp-1hidden", input_dim=2, classes=2, hidden_dim=3, l2_penalty=1e-3)


def uneven_clients():
    # train splits of 16, 23, 29 and 4 rows: with batches of 8 the clients
    # take 2, 3, 4 and 1 steps per epoch, and the last one draws no order
    return [make_client(seed=s, n=n) for s, n in enumerate((20, 27, 33, 8))]


def engine_cfg(method, K):
    return ExperimentConfig(method=method, clients=4, models=K, rounds=3, seed=12,
                            local_epochs=2, batch_size=8, learning_rate=0.3, mu=0.05,
                            model=ModelConfig(l2_penalty=1e-3), data=DataConfig())


def loop_local(spec, train, theta, cfg, t, i, key):
    """One task's local epochs, written out batch by batch."""
    rng = stream(cfg.seed, STREAM_BATCH, t, i, key)
    theta = theta.copy()
    b = min(cfg.batch_size, train.n)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(train.n) if b < train.n else np.arange(train.n)
        for s in range(0, train.n, b):
            idx = order[s : s + b]
            theta -= cfg.learning_rate * grad(spec, theta, train.features[idx], train.labels[idx])
    return theta


def loop_fedfew(cfg, clients, spec, gradient_mode):
    """The final models and every round's stch value, task by task."""
    sizes = np.array([c.train.n for c in clients], float)
    share = sizes / sizes.sum()
    values = []
    thetas = np.stack([init_params(spec, stream(cfg.seed, STREAM_INIT, k))
                       for k in range(cfg.models)])
    for t in range(1, cfg.rounds + 1):
        losses = np.empty((len(clients), cfg.models))
        grads = np.empty((len(clients), cfg.models, spec.dim))
        for i, c in enumerate(clients):
            x, y = c.train.features, c.train.labels
            for k in range(cfg.models):
                local = loop_local(spec, c.train, thetas[k], cfg, t, i, k)
                losses[i, k] = loss(spec, local, x, y)
                grads[i, k] = (grad(spec, local, x, y) if gradient_mode == "lookahead"
                               else (thetas[k] - local) / cfg.learning_rate)
        weights = compute_weights(losses * share[:, None], cfg.mu)
        values.append(weights.value)
        thetas = thetas - cfg.learning_rate * aggregate_gradients(
            weights, grads * share[:, None, None])
    return thetas, values


def check_ifca_against_task_loop(monkeypatch, cfg, spec):
    """ifca on uneven_clients(), its choices and final models, against the task loop."""
    clients = uneven_clients()
    choices = record_ifca_choices(monkeypatch)
    models, _ = run_ifca(cfg, stacked(clients, spec), spec)
    sizes = np.array([c.train.n for c in clients], float)
    thetas = np.stack([init_params(spec, stream(cfg.seed, STREAM_INIT, k))
                       for k in range(cfg.models)])
    for t in range(1, cfg.rounds + 1):
        choice = np.array([np.argmin([loss(spec, th, c.train.features, c.train.labels)
                                      for th in thetas]) for c in clients])
        np.testing.assert_array_equal(choices[t - 1], choice)
        local = np.stack([loop_local(spec, c.train, thetas[choice[i]], cfg, t, i, choice[i])
                          for i, c in enumerate(clients)])
        for k in range(cfg.models):
            members = choice == k
            if members.any():
                thetas[k] = (sizes[members] / sizes[members].sum()) @ local[members]
    np.testing.assert_allclose(models, thetas, rtol=1e-10)


def check_blocks_of_three_and_one(monkeypatch, spec, batch_size):
    """fedfew on uneven_clients() in blocks of the largest three (29, 23 and 16
    train rows, padded to 29) and the smallest (4 rows), against the task loop."""
    per_row = max(2 * max(spec.classes, spec.hidden_dim), spec.input_dim + 1)
    monkeypatch.setattr(model, "BLOCK_ENTRIES", 3 * 29 * per_row)
    cfg, clients = replace(engine_cfg("fedfew", 2), batch_size=batch_size), uneven_clients()
    problem = stacked(clients, spec)
    assert [len(ids) for ids, *_ in model._blocks(spec, problem.train, 2)] == [3, 1]
    models, traces = run_fedfew(cfg, problem, spec)
    expected, values = loop_fedfew(cfg, clients, spec, "lookahead")
    np.testing.assert_allclose(models, expected, rtol=1e-10)
    np.testing.assert_allclose([t.stch_value for t in traces], values, rtol=1e-10)


class TestBatchedEngine:
    @pytest.mark.parametrize("spec", [SPEC, MLP_SPEC], ids=["softmax", "mlp"])
    @pytest.mark.parametrize("gradient_mode", ["lookahead", "delta"])
    def test_fedfew_matches_task_loop(self, spec, gradient_mode):
        cfg, clients = engine_cfg("fedfew", 2), uneven_clients()
        models, traces = run_fedfew(cfg, stacked(clients, spec), spec,
                                    gradient_mode=gradient_mode)
        expected, values = loop_fedfew(cfg, clients, spec, gradient_mode)
        np.testing.assert_allclose(models, expected, rtol=1e-10)
        np.testing.assert_allclose([t.stch_value for t in traces], values, rtol=1e-10)

    def test_blocks_of_sorted_clients_match_task_loop(self, monkeypatch):
        check_blocks_of_three_and_one(monkeypatch, MLP_SPEC, batch_size=8)

    @pytest.mark.parametrize("spec", [SPEC, MLP_SPEC], ids=["softmax", "mlp"])
    def test_full_batch_blocks_match_task_loop(self, monkeypatch, spec):
        # every split fits one batch: both blocks take E whole-split steps
        check_blocks_of_three_and_one(monkeypatch, spec, batch_size=29)

    @pytest.mark.parametrize("spec", [SPEC, MLP_SPEC], ids=["softmax", "mlp"])
    def test_ifca_matches_task_loop(self, spec, monkeypatch):
        check_ifca_against_task_loop(monkeypatch, engine_cfg("ifca", 2), spec)

    @pytest.mark.parametrize("rounds_per_pass, passes", [(1, [[1], [2], [3]]), (2, [[1, 2], [3]])])
    @pytest.mark.parametrize("method", ["fedfew", "ifca"])
    def test_key_passes_of_few_rounds_match_task_loop(self, monkeypatch, method,
                                                      rounds_per_pass, passes):
        # M * K paths key one round of streams; the last pass may be short
        cfg = engine_cfg(method, 2)
        monkeypatch.setattr(federation, "BLOCK_ENTRIES", rounds_per_pass * cfg.clients * cfg.models)
        keyed, streams = [], federation.Streams

        def recording(seed, paths):
            if paths[0][0] == STREAM_BATCH:
                keyed.append(sorted(set(paths[:, 1].tolist())))
            return streams(seed, paths)

        monkeypatch.setattr(federation, "Streams", recording)
        if method == "ifca":
            check_ifca_against_task_loop(monkeypatch, cfg, MLP_SPEC)
        else:
            clients = uneven_clients()
            models, _ = run_fedfew(cfg, stacked(clients, MLP_SPEC), MLP_SPEC)
            np.testing.assert_allclose(models, loop_fedfew(cfg, clients, MLP_SPEC, "lookahead")[0],
                                       rtol=1e-10)
        assert keyed == passes

    @pytest.mark.parametrize("spec", [SPEC, MLP_SPEC], ids=["softmax", "mlp"])
    def test_local_matches_task_loop(self, spec):
        cfg, clients = engine_cfg("local", 1), uneven_clients()
        models, _ = run_local(cfg, stacked(clients, spec), spec)
        thetas = [init_params(spec, stream(cfg.seed, STREAM_INIT, i)) for i in range(len(clients))]
        for t in range(1, cfg.rounds + 1):
            thetas = [loop_local(spec, c.train, thetas[i], cfg, t, i, 0)
                      for i, c in enumerate(clients)]
        np.testing.assert_allclose(models, np.stack(thetas), rtol=1e-10)

    @pytest.mark.parametrize("method, K", [("fedfew", 2), ("fedavg", 1), ("ifca", 2)])
    def test_non_finite_round_names_round_client_and_model(self, method, K):
        # fedavg and ifca keep the local parameters, and compute no gradient
        cfg = replace(engine_cfg(method, K), learning_rate=1e200)
        with pytest.raises(FloatingPointError, match=r"round 1: client \d+, model \d+"):
            federation.RUNNERS[method](cfg, stacked(uneven_clients(), MLP_SPEC), MLP_SPEC)

    def test_local_non_finite_names_the_clients_own_model(self):
        cfg = replace(engine_cfg("local", 1), learning_rate=1e200)
        with pytest.raises(FloatingPointError, match=r"round 1: client (\d+), model \1:"):
            run_local(cfg, stacked(uneven_clients(), MLP_SPEC), MLP_SPEC)


class TestTracePass:
    """Trace rows are scored a pass of rounds at a time (_Run.step); each must
    equal a per-round weight_diagnostics call on that round's weights."""

    @pytest.mark.parametrize("method, overrides", [
        ("fedfew", {}), ("fedavg", {"models": 1}), ("ifca", {}), ("local", {"models": 1}),
        # a pass is max(1, 16384 // (1200 * 3)) = 4 rounds: two passes
        ("fedfew", {"clients": 1200, "rounds": 6}),
    ], ids=["fedfew", "fedavg", "ifca", "local", "two-passes"])
    def test_trace_matches_per_round_diagnostics(self, monkeypatch, method, overrides):
        cfg = parse_config(ROOT / "scripts" / "configs" / "group_recovery.cfg")
        cfg = replace(cfg, method=method, **{"rounds": 20, **overrides})
        rounds, scored = [], []

        def recording(values, mu):
            rounds.append(compute_weights(values, mu))
            return rounds[-1]

        def counting(weights):
            scored.append(weights.alpha.shape[0])
            return weight_diagnostics(weights)

        monkeypatch.setattr(federation, "compute_weights", recording)
        monkeypatch.setattr(federation, "weight_diagnostics", counting)
        _, traces = RUNNERS[method](cfg)
        passes = max(1, model.BLOCK_ENTRIES // (cfg.clients * cfg.models))
        assert scored == [min(passes, cfg.rounds - r) for r in range(0, cfg.rounds, passes)]
        assert [t.round for t in traces] == list(range(1, cfg.rounds + 1))
        for trace, weights in zip(traces, rounds, strict=True):
            assert trace.stch_value == weights.value
            assert (trace.alpha_cv, trace.w_entropy_mean, trace.w_max_mean) == \
                weight_diagnostics(weights)


class TestBlockViews:
    @pytest.fixture(scope="class")
    def dirichlet(self, tmp_path_factory):
        """dirichlet_csv.cfg's problem: 8 clients of unequal size."""
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        subprocess.run([sys.executable, str(ROOT / "scripts" / "make_csv_dataset.py"), str(path)],
                       check=True, capture_output=True)
        cfg = parse_config(ROOT / "scripts" / "configs" / "dirichlet_csv.cfg")
        return replace(cfg, data=replace(cfg.data, csv_path=str(path)))

    @pytest.mark.parametrize("kind", ["softmax-regression", "mlp-1hidden"])
    def test_view_and_its_memoized_target_match_a_gather(self, dirichlet, kind):
        cfg = replace(dirichlet, model=replace(dirichlet.model, kind=kind))
        problem, spec = build_problem(cfg)
        rows = problem.train
        m, n = len(problem), rows.counts.max()
        assert len(set(rows.counts)) > 1  # the view holds padding rows
        view = rows[:m, :, :n]
        rng = np.random.default_rng(0)
        thetas = rng.normal(size=(m, cfg.models, spec.dim))
        first, again = (grid_loss_and_grad(spec, thetas, view) for _ in range(2))
        assert view.target(spec.classes) is view.target(spec.classes)
        fresh = grid_loss_and_grad(spec, thetas, rows[np.arange(m), :, :n])
        for got in (first, again):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in fresh]

    def test_blocks_view_contiguous_clients_and_gather_the_rest(self, dirichlet):
        problem, spec = build_problem(dirichlet)
        parts = [part for *_, part in model._blocks(spec, problem.train, dirichlet.models)]
        assert None in parts  # unequal sizes: the size order is not the client order
        problem, spec = build_problem(replace(parse_config(ROOT / "scripts" / "configs" /
                                                           "group_recovery.cfg"), clients=1200))
        for ids, _, part in model._blocks(spec, problem.train, 3):
            np.testing.assert_array_equal(ids, np.arange(ids[0], ids[0] + len(ids)))
            assert np.shares_memory(part.x, problem.train.x)  # a view, not a copy


# three rounds at M=1200 in a fresh interpreter, so the allocator starts clean
CHURN_PROBE = textwrap.dedent("""
    import resource, sys
    from dataclasses import replace
    from fedfew.cli import parse_config
    from fedfew.federation import build_problem, run_fedfew
    cfg = replace(parse_config(sys.argv[1]), clients=1200, rounds=3)
    problem, spec = build_problem(cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_fedfew(cfg, problem, spec)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / cfg.rounds)
""")


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
def test_rounds_at_1200_clients_reuse_their_memory():
    # a churn guard in place of a wall-clock gate: kernel temporaries above the
    # allocator's mmap threshold go back to the system after every call and
    # fault in again on the next, about 5,000 faults per round at this size
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-c", CHURN_PROBE,
                           str(ROOT / "scripts" / "configs" / "group_recovery.cfg")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 1000
