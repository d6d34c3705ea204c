"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Two sub-criteria pin target properties that are unattainable in
their strongest form (the one-sided ordering of the smooth sandwich, and
epoch-budget parity under lookahead-gradient uploads); they run verbatim
and are marked strict-xfail, each paired with a green companion verifying
the attainable counterpart.  Heavy multi-seed experiments are shared
through module-scoped fixtures.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedfew.cli import config_from_pairs, main, parse_config, run_experiment
from fedfew.federation import (
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    build_problem,
    per_client_optimum,
    run_fedavg,
    run_fedfew,
    run_ifca,
    select_models,
)
from fedfew.metrics import accuracy, coverage_gap, jain_index, weight_diagnostics
from fedfew.model import ModelSpec, init_params
from fedfew.numerics import log_sum_exp, smooth_min
from fedfew.scalarization import (
    aggregate_gradients,
    compute_weights,
    tch_set_value,
)
from perpair import grad, loss
from streams import stream


CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))


# ----------------------------------------------------------------------
# shared experiment configurations
# ----------------------------------------------------------------------

def flagship_cfg(seed: int, method: str = "fedfew", K: int = 3) -> ExperimentConfig:
    """Group-recovery experiment: G=3 permuted-label mixture, M=12, sep=5*noise."""
    return ExperimentConfig(
        method=method, clients=12, models=K, rounds=300, seed=seed,
        local_epochs=1, batch_size=10_000, learning_rate=3.0, mu=0.005,
        data=DataConfig(dataset="mixture", groups=3, classes=3, input_dim=4,
                        separation=1.0, noise_std=0.2, samples_per_client=60,
                        permute_labels=True),
        model=ModelConfig(kind="softmax-regression", l2_penalty=1e-4),
    )


@pytest.fixture(scope="module")
def flagship_runs():
    """20 seeds of fedfew / fedavg / ifca on the group-recovery mixture."""
    out = []
    for seed in range(20):
        cfg = flagship_cfg(seed)
        problem, spec = build_problem(cfg)
        groups = problem.groups

        models, _ = run_fedfew(cfg, problem, spec)
        sel = select_models(spec, models, problem.validation)
        tests = problem.test
        fed_accs = accuracy(spec, models[sel], tests)
        purity = all(len(set(sel[groups == g].tolist())) == 1 for g in range(3))

        avg_models, _ = run_fedavg(flagship_cfg(seed, "fedavg", K=1), problem, spec)
        avg_acc = float(np.mean(accuracy(spec, avg_models[np.zeros(len(problem), int)], tests)))

        ifca_models, _ = run_ifca(flagship_cfg(seed, "ifca"), problem, spec)
        sel_i = select_models(spec, ifca_models, problem.validation)
        ifca_accs = accuracy(spec, ifca_models[sel_i], tests)

        out.append({
            "purity": purity,
            "fed_mean": float(np.mean(fed_accs)),
            "fed_jain": jain_index(fed_accs),
            "ifca_mean": float(np.mean(ifca_accs)),
            "ifca_jain": jain_index(ifca_accs),
            "fedavg_mean": avg_acc,
        })
    return out


# ----------------------------------------------------------------------
# 1. gradient consistency through the loss composition
# ----------------------------------------------------------------------

def test_criterion_1_gradient_consistency():
    start = time.time()
    worst = 0.0
    for seed in range(50):
        rng = stream(seed)
        m = 1 + int(rng.integers(1, 6)) - 1  # 1..5
        k = int(rng.integers(1, 4))
        p = int(rng.integers(2, 6))
        classes = int(rng.integers(2, 4))
        spec = ModelSpec("softmax-regression", input_dim=p, classes=classes, l2_penalty=1e-3)
        assert spec.dim <= 40
        mu = [0.01, 0.1, 1.0][seed % 3]
        clients_x = [stream(seed, 10, i).normal(size=(12, p)) for i in range(m)]
        clients_y = [stream(seed, 20, i).integers(0, classes, size=12) for i in range(m)]
        sizes = np.array([12 + 2 * i for i in range(m)], dtype=float)
        share = sizes / sizes.sum()
        thetas = np.stack([init_params(spec, stream(seed, 30, j)) for j in range(k)])

        def weighted_losses(th):
            raw = np.array([[loss(spec, th[j], clients_x[i], clients_y[i])
                             for j in range(k)] for i in range(m)])
            return raw * share[:, None]

        grads = np.array([[grad(spec, thetas[j], clients_x[i], clients_y[i])
                           for j in range(k)] for i in range(m)])
        weights = compute_weights(weighted_losses(thetas), mu)
        agg = aggregate_gradients(weights, grads * share[:, None, None])

        h = 1e-6
        fd = np.zeros_like(agg)
        for j in range(k):
            for c in range(spec.dim):
                up = thetas.copy(); up[j, c] += h
                dn = thetas.copy(); dn[j, c] -= h
                fd[j, c] = (compute_weights(weighted_losses(up), mu).value
                            - compute_weights(weighted_losses(dn), mu).value) / (2 * h)
        rel = np.linalg.norm(fd - agg) / max(np.linalg.norm(agg), 1e-12)
        worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    report("1 gradient-consistency", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 10.0


# ----------------------------------------------------------------------
# 2. smooth-vs-exact sandwich over 1e4 random matrices
# ----------------------------------------------------------------------

def _random_loss_matrices(count=10_000):
    rng = np.random.default_rng(2024)
    for _ in range(count):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        yield rng.uniform(0.0, 10.0, size=(m, k))


@pytest.mark.xfail(strict=True,
                   reason="upper side tch <= stch is false: the inner smooth min "
                          "underestimates (smooth_min([0,0],mu) = -mu*log 2 < 0 = tch); "
                          "the attainable bracket is tested in 2b")
def test_criterion_2a_sandwich_as_stated():
    violations = 0
    for raw in _random_loss_matrices():
        m = raw.shape[0]
        lm = raw * (np.ones(m) / m)[:, None]  # equal shares
        for mu in (1e-3, 1e-2, 0.1, 1.0):
            s = compute_weights(lm, mu).value
            t = tch_set_value(lm)
            if not (s - mu * (math.log(m) + math.log(raw.shape[1])) - 1e-12 <= t <= s + 1e-12):
                violations += 1
    report("2a sandwich-as-stated", violations == 0,
           f"{violations} violations (expected: the stated ordering is false)")
    assert violations == 0


def test_criterion_2b_sandwich_corrected():
    start = time.time()
    violations = 0
    for raw in _random_loss_matrices():
        m, k = raw.shape
        lm = raw * (np.ones(m) / m)[:, None]  # equal shares
        for mu in (1e-3, 1e-2, 0.1, 1.0):
            s = compute_weights(lm, mu).value
            t = tch_set_value(lm)
            if not (s - mu * math.log(m) - 1e-12 <= t <= s + mu * math.log(k) + 1e-12):
                violations += 1
            if abs(s - t) > mu * (math.log(m) + math.log(k)) + 1e-12:
                violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 5.0
    report("2b sandwich-corrected", ok, f"{violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 5.0


# ----------------------------------------------------------------------
# 3. log-sum-exp bounds up to 1e6 magnitudes
# ----------------------------------------------------------------------

def test_criterion_3_lse_bounds():
    rng = np.random.default_rng(7)
    mus = (1e-3, 1e-2, 0.1, 1.0)
    for i in range(10_000):
        n = int(rng.integers(1, 11))
        scale = 10.0 ** rng.uniform(-2, 6)  # entries up to 1e6
        y = rng.uniform(-1.0, 1.0, size=n) * scale
        mu = mus[i % 4]
        up = log_sum_exp(y, mu)
        assert np.max(y) - 1e-10 <= up <= np.max(y) + mu * math.log(n) + 1e-10
        lo = smooth_min(y, mu)
        assert np.min(y) - mu * math.log(n) - 1e-10 <= lo <= np.min(y) + 1e-10
    report("3 lse-bounds", True, "10000 vectors, entries up to 1e6")


# ----------------------------------------------------------------------
# 4. weight limits across mu
# ----------------------------------------------------------------------

def test_criterion_4_weight_limits():
    rows = np.array([
        [0.00, 0.15, 0.30],
        [0.40, 0.25, 0.60],
        [0.70, 0.50, 0.95],
        [0.20, 0.45, 0.10],
    ])  # unique row minima, min gap >= 0.1, losses in [0, 1]
    lm = rows * np.full(4, 0.25)[:, None]  # four clients of equal size

    sharp = compute_weights(lm, 1e-4).w
    assert np.all(np.max(sharp, axis=1) >= 0.99)

    soft = compute_weights(lm, 10.0).w
    assert np.all(np.abs(soft - 1.0 / 3.0) <= 1e-2)

    entropies = []
    for mu in (1e-3, 1e-2, 1e-1, 1.0):
        w = compute_weights(lm, mu)
        entropies.append(weight_diagnostics(w)[1])
    assert all(b > a for a, b in zip(entropies, entropies[1:]))

    # paper-reported endpoints: near-one-hot at mu=0.001, near log 3 at mu=1
    w_hard = compute_weights(lm, 1e-3).w
    assert np.all(np.max(w_hard, axis=1) >= 0.99)
    assert abs(entropies[-1] - math.log(3.0)) <= 0.05

    report("4 weight-limits", True,
           f"entropies {[round(e, 4) for e in entropies]}, log3={math.log(3):.4f}")


# ----------------------------------------------------------------------
# 5. group recovery (desk-scale analog of the main experiment)
# ----------------------------------------------------------------------

def test_criterion_5a_group_purity(flagship_runs):
    pure = sum(r["purity"] for r in flagship_runs)
    report("5a group-purity", pure >= 18, f"{pure}/20 seeds")
    assert pure >= 18


@pytest.mark.parametrize("K", [5, 8])
def test_criterion_5a_surplus_models_serve_the_groups(K):
    # with K > G models, selection still serves exactly one model per group:
    # fedfew finds the model diversity the clients need
    for seed in range(3):
        cfg = replace(parse_config(CONFIGS / "group_recovery.cfg"), models=K, seed=seed)
        problem, spec = build_problem(cfg)
        models, _ = run_fedfew(cfg, problem, spec)
        sel = select_models(spec, models, problem.validation)
        served = [set(sel[problem.groups == g].tolist()) for g in range(3)]
        # one model per group, a different one for each
        pure = all(len(s) == 1 for s in served) and len(set.union(*served)) == 3
        mean_acc = float(np.mean(accuracy(spec, models[sel], problem.test)))
        report(f"5a surplus-models K={K} seed={seed}", pure and mean_acc >= 0.97,
               f"models per group {[sorted(s) for s in served]}, mean test acc {mean_acc:.3f}")
        assert pure and mean_acc >= 0.97


def test_criterion_5b_fedfew_accuracy(flagship_runs):
    mean_acc = float(np.mean([r["fed_mean"] for r in flagship_runs]))
    report("5b fedfew-accuracy", mean_acc >= 0.90, f"mean test acc {mean_acc:.3f}")
    assert mean_acc >= 0.90


def test_criterion_5c_fedavg_bound(flagship_runs):
    worst = max(r["fedavg_mean"] for r in flagship_runs)
    report("5c fedavg-bound", worst <= 0.55, f"max fedavg acc {worst:.3f}")
    assert worst <= 0.55


def test_supplement_ifca_contrast(flagship_runs):
    # hard clustering works in a majority of seeds but collapses in others,
    # giving a visibly larger across-seed spread than the smooth method
    ifca_means = np.array([r["ifca_mean"] for r in flagship_runs])
    fed_means = np.array([r["fed_mean"] for r in flagship_runs])
    good = int(np.sum(ifca_means >= 0.90))
    ok = good > 10 and float(np.std(ifca_means)) > float(np.std(fed_means))
    report("supplement ifca-contrast", ok,
           f"ifca >=0.90 in {good}/20, std ifca {np.std(ifca_means):.3f} "
           f"vs fedfew {np.std(fed_means):.3f}")
    assert good > 10
    assert float(np.std(ifca_means)) > float(np.std(fed_means))


# ----------------------------------------------------------------------
# 6. coverage-gap monotonicity in K
# ----------------------------------------------------------------------

def coverage_cfg(seed: int, K: int) -> ExperimentConfig:
    return ExperimentConfig(
        method="fedfew", clients=12, models=K, rounds=700, seed=seed,
        local_epochs=1, batch_size=10_000, learning_rate=2.0, mu=0.005,
        data=DataConfig(dataset="mixture", groups=3, classes=3, input_dim=4,
                        separation=1.0, noise_std=0.2, samples_per_client=400,
                        permute_labels=True),
        model=ModelConfig(kind="softmax-regression", l2_penalty=0.05),
    )


def test_criterion_6_coverage_gap_monotonicity():
    means = {1: [], 2: [], 3: []}
    for seed in range(10):
        cfg = coverage_cfg(seed, 1)
        problem, spec = build_problem(cfg)
        train = problem.train
        optima = [per_client_optimum(spec, train, i).theta for i in range(len(problem))]
        for K in (1, 2, 3):
            models, _ = run_fedfew(coverage_cfg(seed, K), problem, spec)
            _, mean_gap = coverage_gap(spec, models, optima, train)
            means[K].append(mean_gap)
    g1, g2, g3 = (float(np.mean(means[K])) for K in (1, 2, 3))
    ok = g1 > g2 > g3 and g3 <= 1e-2
    report("6 coverage-gap", ok, f"K1={g1:.4f} > K2={g2:.4f} > K3={g3:.5f} <= 1e-2")
    assert g1 > g2 > g3
    assert g3 <= 1e-2


def test_criterion_6b_coverage_gap_shrinks_with_data():
    # the abstract's second claim: each client's model converges to the
    # client's own optimum as data grows.  At K = G each model serves one
    # group, whose clients share a distribution, so the gap to the own optimum
    # is estimation error and should fall about as 1/n.  Measured over seeds
    # 0-7: means 1.24e-3, 3.2e-4, 5.6e-5 at n = 60, 240, 960, smaller at each
    # step in every seed; the bound asks each fourfold n to halve the mean.
    means = []
    for n in (60, 240, 960):
        gaps = []
        for seed in range(4):
            cfg = ExperimentConfig(
                method="fedfew", clients=4, models=2, rounds=400, seed=seed,
                local_epochs=1, batch_size=10_000, learning_rate=2.0, mu=0.005,
                data=DataConfig(dataset="mixture", groups=2, classes=2, input_dim=4,
                                separation=1.0, noise_std=0.2, samples_per_client=n,
                                permute_labels=True),
                model=ModelConfig(kind="softmax-regression", l2_penalty=0.05),
            )
            problem, spec = build_problem(cfg)
            models, _ = run_fedfew(cfg, problem, spec)
            optima = [per_client_optimum(spec, problem.train, i).theta for i in range(cfg.clients)]
            gaps.append(coverage_gap(spec, models, optima, problem.train)[1])
        means.append(float(np.mean(gaps)))
    ok = all(2.0 * later <= earlier for earlier, later in zip(means, means[1:]))
    report("6b coverage-gap-vs-data", ok,
           "n=60,240,960: " + " > ".join(f"{m:.2e}" for m in means))
    assert means[1] <= means[0] / 2
    assert means[2] <= means[1] / 2


# ----------------------------------------------------------------------
# 7. convergence trace shape
# ----------------------------------------------------------------------

def test_criterion_7_convergence_trace():
    fractions = {}
    for K in (1, 3, 5):
        cfg = ExperimentConfig(
            method="fedfew", clients=12, models=K, rounds=150, seed=1,
            local_epochs=1, batch_size=10_000, learning_rate=0.1, mu=0.01,
            data=DataConfig(dataset="mixture", groups=3, classes=3, input_dim=4,
                            separation=1.0, noise_std=0.2, samples_per_client=60,
                            permute_labels=True),
            model=ModelConfig(kind="softmax-regression", l2_penalty=1e-4),
        )
        _, traces = run_fedfew(cfg)
        values = np.array([t.stch_value for t in traces])
        fractions[K] = float(np.mean(np.diff(values[10:]) <= 1e-12))
    ok = all(f >= 0.95 for f in fractions.values())
    report("7 convergence-trace", ok,
           f"non-increasing fractions {({k: round(v, 3) for k, v in fractions.items()})}")
    assert all(f >= 0.95 for f in fractions.values())


# ----------------------------------------------------------------------
# 8. communication-computation trade-off at fixed T*E
# ----------------------------------------------------------------------

def tradeoff_cfg(seed: int, E: int) -> ExperimentConfig:
    return ExperimentConfig(
        method="fedfew", clients=3, models=5, rounds=240 // E, seed=seed,
        local_epochs=E, batch_size=10_000, learning_rate=1.5, mu=0.005,
        data=DataConfig(dataset="mixture", groups=3, classes=3, input_dim=4,
                        separation=1.0, noise_std=0.2, samples_per_client=200,
                        permute_labels=True),
        model=ModelConfig(kind="softmax-regression", l2_penalty=1e-4),
    )


def _tradeoff_accuracies(gradient_mode: str) -> dict[int, float]:
    means = {}
    for E in (1, 2, 4):
        accs = []
        for seed in range(10):
            cfg = tradeoff_cfg(seed, E)
            problem, spec = build_problem(cfg)
            models, traces = run_fedfew(cfg, problem, spec, gradient_mode=gradient_mode)
            assert sum(t.uploads for t in traces) == cfg.clients * cfg.models * cfg.rounds
            sel = select_models(spec, models, problem.validation)
            accs.append(np.mean(accuracy(spec, models[sel], problem.test)))
        means[E] = float(np.mean(accs))
    return means


@pytest.mark.xfail(strict=True,
                   reason="with the literal lookahead-gradient upload the server moves "
                          "~E-times less at fixed T*E, so epoch-budget parity is "
                          "structurally unattainable; the delta-upload variant in 8b "
                          "reaches parity")
def test_criterion_8a_tradeoff_as_specified():
    means = _tradeoff_accuracies("lookahead")
    spread = (max(means.values()) - min(means.values())) * 100
    report("8a tradeoff-lookahead", spread <= 1.5,
           f"means {({e: round(a, 4) for e, a in means.items()})}, spread {spread:.2f}pp "
           "(expected fail)")
    assert spread <= 1.5


def test_criterion_8b_tradeoff_delta_uploads():
    means = _tradeoff_accuracies("delta")
    spread = (max(means.values()) - min(means.values())) * 100
    ok = spread <= 1.5
    report("8b tradeoff-delta", ok,
           f"means {({e: round(a, 4) for e, a in means.items()})}, spread {spread:.2f}pp")
    assert spread <= 1.5


# ----------------------------------------------------------------------
# 9. fairness properties
# ----------------------------------------------------------------------

def test_criterion_9_fairness(flagship_runs):
    assert jain_index([0.7] * 6) == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        n = int(rng.integers(1, 21))
        x = rng.uniform(0.0, 5.0, size=n)
        if np.sum(x * x) == 0:
            continue
        j = jain_index(x)
        assert 1.0 / n - 1e-12 <= j <= 1.0 + 1e-12
    wins = sum(r["fed_jain"] >= r["ifca_jain"] for r in flagship_runs)
    report("9 fairness", wins >= 14, f"fedfew jain >= ifca jain in {wins}/20 seeds")
    assert wins >= 14


# ----------------------------------------------------------------------
# 10. Pareto-stationarity witness on a tiny strongly convex instance
# ----------------------------------------------------------------------

def test_criterion_10_pareto_witness():
    cfg = ExperimentConfig(
        method="fedfew", clients=3, models=2, rounds=2000, seed=0,
        local_epochs=1, batch_size=10_000, learning_rate=0.5, mu=0.01,
        data=DataConfig(dataset="mixture", groups=1, classes=2, input_dim=2,
                        separation=1.0, noise_std=0.3, samples_per_client=40),
        model=ModelConfig(kind="softmax-regression", l2_penalty=0.5),
    )
    problem, spec = build_problem(cfg)
    clients = list(problem)
    assert spec.dim <= 10
    models, traces = run_fedfew(cfg, problem, spec)
    final_norms = traces[-1].grad_norms
    # recompute the certifying weights at the terminal point
    sizes = np.array([c.train.n for c in clients], float)
    raw = np.array([[loss(spec, models[k], c.train.features, c.train.labels)
                     for k in range(2)] for c in clients])
    weights = compute_weights(raw * (sizes / sizes.sum())[:, None], cfg.mu)
    flat = weights.alpha[:, None] * weights.w
    ok = (np.all(final_norms <= 1e-4) and np.all(flat >= 0)
          and abs(float(flat.sum()) - 1.0) <= 1e-10)
    report("10 pareto-witness", ok,
           f"grad norms {np.max(final_norms):.2e}, weight sum {float(flat.sum()):.12f}")
    assert np.all(final_norms <= 1e-4)
    assert np.all(flat >= 0)
    assert abs(float(flat.sum()) - 1.0) <= 1e-10


# ----------------------------------------------------------------------
# 11. byte-determinism across reruns and entry points
# ----------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    pairs = {
        "method": "fedfew", "M": "6", "K": "2", "T": "12", "seed": "21",
        "mixture.G": "2", "mixture.classes": "2", "mixture.input_dim": "3",
        "mixture.n_per_client": "40", "learning_rate": "0.5",
    }
    cfg = config_from_pairs(pairs)
    run_experiment(cfg, tmp_path / "first")
    run_experiment(cfg, tmp_path / "rerun")
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in pairs.items()))
    assert main(["run", str(path), "--out", str(tmp_path / "cli")]) == 0
    same = True
    for name in ("trace.csv", "clients.csv", "summary.csv"):
        ref = (tmp_path / "first" / name).read_bytes()
        same &= ref == (tmp_path / "rerun" / name).read_bytes()
        same &= ref == (tmp_path / "cli" / name).read_bytes()
    report("11 determinism", same, "rerun and `fedfew run` outputs byte-identical")
    assert same
