"""Protocol behavior: client rounds, the four methods, selection, optima."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedfew import federation, model
from fedfew.cli import parse_config
from fedfew.data import ClientDataset, Dataset, Problem
from fedfew.errors import ConfigError
from fedfew.federation import (
    STREAM_BATCH,
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
    uploads_per_round,
)
from fedfew.metrics import accuracy
from fedfew.model import ModelSpec, init_params, stack_rows
from fedfew.numerics import Rng
from fedfew.scalarization import aggregate_gradients, compute_weights
from perpair import grad, loss, optimum

ROOT = Path(__file__).resolve().parent.parent
SPEC = ModelSpec("softmax-regression", input_dim=2, classes=2, l2_penalty=1e-3)


def make_client(seed=0, n=24) -> ClientDataset:
    rng = Rng(seed)
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
    """Each round's (M,) model choice, as run_ifca hands it to _local_round."""
    choices = []

    def recording(cfg, spec, rows, grid, t, streams, models):
        choices.append(models[:, 0].copy())
        return local_round(cfg, spec, rows, grid, t, streams, models)

    local_round = federation._local_round
    monkeypatch.setattr(federation, "_local_round", recording)
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
    _, losses, grads = local_training(SPEC, train_rows(client), theta[None, None], epochs,
                                      batch_size, eta, lambda i, k: rng)
    return grads[0, 0], float(losses[0, 0])


class TestClientRound:
    def test_zero_learning_rate_returns_broadcast_gradient(self):
        client = make_client()
        theta = init_params(SPEC, Rng(1))
        g, lv = client_round(client, theta, 3, 8, 0.0, Rng(2))
        expected = grad(SPEC, theta, client.train.features, client.train.labels)
        np.testing.assert_allclose(g, expected, atol=1e-15)

    def test_full_batch_single_epoch_is_one_step_lookahead(self):
        client = make_client()
        theta = init_params(SPEC, Rng(1))
        eta = 0.3
        g, _ = client_round(client, theta, 1, 10_000, eta, Rng(2))
        x, y = client.train.features, client.train.labels
        lookahead = theta - eta * grad(SPEC, theta, x, y)
        np.testing.assert_allclose(g, grad(SPEC, lookahead, x, y), atol=1e-15)

    def test_deterministic(self):
        client = make_client()
        theta = init_params(SPEC, Rng(1))
        a = client_round(client, theta, 2, 4, 0.1, Rng(0).split(STREAM_BATCH, 1, 0, 0))
        b = client_round(client, theta, 2, 4, 0.1, Rng(0).split(STREAM_BATCH, 1, 0, 0))
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
        assert uploads_per_round("fedfew", 7, 3) == 21

    def test_unknown_gradient_mode_rejected_before_building(self, monkeypatch):
        def never(cfg):
            raise AssertionError("built the problem before checking gradient_mode")

        monkeypatch.setattr(federation, "build_problem", never)
        with pytest.raises(ConfigError, match="unknown gradient_mode 'bogus'"):
            run_fedfew(small_cfg(), gradient_mode="bogus")

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
        theta = init_params(SPEC, Rng(9).split(1, 0))  # the runner's init stream
        eta = 0.1
        lookahead_grads = np.stack([
            client_round(c, theta, 1, 10_000, eta, Rng(0))[0] for c in clients
        ])
        weighted_mean = (sizes / sizes.sum()) @ lookahead_grads

        def fedfew_direction(mu):
            cfg = ExperimentConfig(method="fedfew", clients=3, models=1, rounds=1, seed=9,
                                   local_epochs=1, batch_size=10_000, learning_rate=eta,
                                   mu=mu, model=ModelConfig(l2_penalty=1e-3),
                                   data=DataConfig())
            models, _ = run_fedfew(cfg, stacked(clients), SPEC)
            start = init_params(SPEC, Rng(9).split(1, 0))
            return (start - models[0]) / eta  # the aggregated gradient

        tight = 3 * fedfew_direction(1e8)
        np.testing.assert_allclose(tight, weighted_mean, rtol=1e-6, atol=1e-12)
        loose = 3 * fedfew_direction(100.0)
        err = np.linalg.norm(loose - weighted_mean) / np.linalg.norm(weighted_mean)
        assert err <= 3e-2


class TestSelectModels:
    def test_single_model_selects_zero(self):
        validation = stacked([make_client(seed=s) for s in range(3)]).validation
        models = np.stack([init_params(SPEC, Rng(0))])
        np.testing.assert_array_equal(select_models(SPEC, models, validation), 0)

    def test_identical_models_tie_break_lowest_index(self):
        validation = stacked([make_client(seed=s) for s in range(3)]).validation
        theta = init_params(SPEC, Rng(0))
        np.testing.assert_array_equal(
            select_models(SPEC, np.stack([theta, theta.copy()]), validation), 0)

    def test_selects_least_validation_loss(self):
        clients = [make_client(seed=s) for s in range(4)]
        models = np.stack([init_params(SPEC, Rng(s)) for s in range(3)])
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
        theta = init_params(spec, Rng(2).split(1, 0))
        train = problem[0].train
        for t in range(1, 7):
            rng = Rng(2).split(STREAM_BATCH, t, 0, 0)
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
        theta = init_params(SPEC, Rng(6).split(1, 0))
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
        rng = Rng(11)
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
        rng = Rng(n)
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
        rng = Rng(132)
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
    rng = Rng(cfg.seed).split(STREAM_BATCH, t, i, key)
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
    thetas = np.stack([init_params(spec, Rng(cfg.seed).split(1, k)) for k in range(cfg.models)])
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
        # blocks of 3: the largest three clients, then the smallest
        monkeypatch.setattr(model, "CLIENT_BLOCK", 3)
        cfg, clients = engine_cfg("fedfew", 2), uneven_clients()
        models, traces = run_fedfew(cfg, stacked(clients, MLP_SPEC), MLP_SPEC)
        expected, values = loop_fedfew(cfg, clients, MLP_SPEC, "lookahead")
        np.testing.assert_allclose(models, expected, rtol=1e-10)
        np.testing.assert_allclose([t.stch_value for t in traces], values, rtol=1e-10)

    @pytest.mark.parametrize("spec", [SPEC, MLP_SPEC], ids=["softmax", "mlp"])
    def test_ifca_matches_task_loop(self, spec, monkeypatch):
        cfg, clients = engine_cfg("ifca", 2), uneven_clients()
        choices = record_ifca_choices(monkeypatch)
        models, _ = run_ifca(cfg, stacked(clients, spec), spec)
        sizes = np.array([c.train.n for c in clients], float)
        thetas = np.stack([init_params(spec, Rng(cfg.seed).split(1, k)) for k in range(2)])
        for t in range(1, cfg.rounds + 1):
            choice = np.array([np.argmin([loss(spec, th, c.train.features, c.train.labels)
                                          for th in thetas]) for c in clients])
            np.testing.assert_array_equal(choices[t - 1], choice)
            local = np.stack([loop_local(spec, c.train, thetas[choice[i]], cfg, t, i, choice[i])
                              for i, c in enumerate(clients)])
            for k in range(2):
                members = choice == k
                if members.any():
                    thetas[k] = (sizes[members] / sizes[members].sum()) @ local[members]
        np.testing.assert_allclose(models, thetas, rtol=1e-10)

    @pytest.mark.parametrize("spec", [SPEC, MLP_SPEC], ids=["softmax", "mlp"])
    def test_local_matches_task_loop(self, spec):
        cfg, clients = engine_cfg("local", 1), uneven_clients()
        models, _ = run_local(cfg, stacked(clients, spec), spec)
        thetas = [init_params(spec, Rng(cfg.seed).split(1, i)) for i in range(len(clients))]
        for t in range(1, cfg.rounds + 1):
            thetas = [loop_local(spec, c.train, thetas[i], cfg, t, i, 0)
                      for i, c in enumerate(clients)]
        np.testing.assert_allclose(models, np.stack(thetas), rtol=1e-10)

    def test_non_finite_round_names_round_client_and_model(self):
        cfg = replace(engine_cfg("fedfew", 2), learning_rate=1e200)
        with pytest.raises(FloatingPointError, match=r"round 1: client \d+, model \d+"):
            run_fedfew(cfg, stacked(uneven_clients(), MLP_SPEC), MLP_SPEC)

    def test_local_non_finite_names_the_clients_own_model(self):
        cfg = replace(engine_cfg("local", 1), learning_rate=1e200)
        with pytest.raises(FloatingPointError, match=r"round 1: client (\d+), model \1:"):
            run_local(cfg, stacked(uneven_clients(), MLP_SPEC), MLP_SPEC)
