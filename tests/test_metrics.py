"""Accuracy, fairness, heterogeneity, coverage gap, weight diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedfew.data import ClientDataset, DataConfig, Dataset, Problem, gen_mixture
from fedfew.federation import per_client_optimum
from fedfew.metrics import (
    accuracy,
    coverage_gap,
    fairness_report,
    heterogeneity_delta,
    jain_index,
    weight_diagnostics,
)
from fedfew.model import ModelSpec, init_params, stack_rows
from perpair import logits, loss
from streams import stream
from fedfew.scalarization import ScalarizationWeights, compute_weights

SOFTMAX2 = ModelSpec("softmax-regression", input_dim=2, classes=2, l2_penalty=1e-4)


def toy_dataset(labels):
    labels = np.asarray(labels)
    feats = np.column_stack([np.linspace(-1, 1, labels.size), np.zeros(labels.size)])
    return Dataset(feats, labels, class_count=int(labels.max()) + 1 if labels.max() > 0 else 2)


def stacked(spec, *datasets):
    return stack_rows(spec, [(d.features, d.labels) for d in datasets])


class TestAccuracy:
    def test_all_class_zero_with_zero_parameters(self):
        d = toy_dataset(np.zeros(6, dtype=int))
        assert accuracy(SOFTMAX2, np.zeros((1, SOFTMAX2.dim)), stacked(SOFTMAX2, d))[0] == 1.0

    def test_balanced_data_zero_parameters(self):
        spec = ModelSpec("softmax-regression", input_dim=2, classes=4)
        d = Dataset(stream(0).normal(size=(40, 2)), np.tile(np.arange(4), 10), 4)
        assert accuracy(spec, np.zeros((1, spec.dim)), stacked(spec, d))[0] == pytest.approx(0.25)

    def test_padding_rows_never_count(self):
        # every row is wrong, so the padding of the shorter client (label 0,
        # zero features, predicted class 0 by zero parameters) must not count
        spec = ModelSpec("softmax-regression", input_dim=2, classes=3)
        short = Dataset(np.ones((2, 2)), np.array([1, 2]), 3)
        long = Dataset(np.ones((7, 2)), np.full(7, 2), 3)
        accs = accuracy(spec, np.zeros((2, spec.dim)), stacked(spec, short, long))
        np.testing.assert_array_equal(accs, [0.0, 0.0])

    def test_tie_goes_to_the_lowest_class(self):
        # classes 1 and 2 share the largest logit on every row; class 0 is lower
        spec = ModelSpec("softmax-regression", input_dim=1, classes=3)
        theta = np.array([-1.0, 0.0, 1.0, 0.0, 1.0, 0.0])  # W rows (weight, bias)
        x = np.array([[1.0], [2.0], [0.5]])
        d1 = Dataset(x, np.array([1, 1, 1]), 3)
        d2 = Dataset(x[:2], np.array([2, 2]), 3)
        accs = accuracy(spec, np.stack([theta, theta]), stacked(spec, d1, d2))
        np.testing.assert_array_equal(accs, [1.0, 0.0])

    @pytest.mark.parametrize("kind", ["softmax-regression", "mlp-1hidden"])
    def test_matches_reference_argmax_on_unequal_clients(self, kind):
        spec = ModelSpec(kind, input_dim=3, classes=4,
                         hidden_dim=5 if kind == "mlp-1hidden" else 0)
        datasets = [Dataset(stream(8, 1, i).normal(size=(n, 3)),
                            stream(8, 2, i).integers(0, 4, size=n), 4)
                    for i, n in enumerate((1, 17, 5, 40, 9))]
        models = np.stack([init_params(spec, stream(8, 3, i)) for i in range(len(datasets))])
        accs = accuracy(spec, models, stacked(spec, *datasets))
        expected = [np.mean(np.argmax(logits(spec, models[i], d.features), axis=1) == d.labels)
                    for i, d in enumerate(datasets)]
        np.testing.assert_array_equal(accs, expected)


class TestJainIndex:
    def test_equal_values_are_perfectly_fair(self):
        for c in (0.3, 1.0, 7.5):
            assert jain_index([c] * 5) == pytest.approx(1.0, abs=1e-15)

    def test_hand_values(self):
        assert jain_index([1.0, 0.0]) == pytest.approx(0.5)
        assert jain_index([3.0, 3.0, 3.0, 3.0]) == pytest.approx(1.0)
        assert jain_index([6.0, 6.0, 0.0, 0.0]) == pytest.approx(0.5)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20)
           .filter(lambda xs: sum(x * x for x in xs) > 0))
    def test_range(self, xs):
        j = jain_index(xs)
        assert 1.0 / len(xs) - 1e-12 <= j <= 1.0 + 1e-12

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20),
           st.floats(min_value=0.01, max_value=1000.0))
    def test_scale_invariance(self, xs, c):
        assert jain_index(np.array(xs) * c) == pytest.approx(jain_index(xs), rel=1e-9)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            jain_index([0.0, 0.0])

    def test_fairness_report_fields(self):
        r = fairness_report([0.5, 0.7, 0.9])
        assert r.min == 0.5 and r.max == 0.9
        assert r.mean == pytest.approx(0.7)


def two_group_contradictory_train(n=120):
    data = DataConfig(groups=2, clients_per_group=[2, 2], input_dim=2, classes=2,
                      separation=1.5, noise_std=0.2, samples_per_client=n, permute_labels=True)
    return gen_mixture(data, 4, 3).train


def train_of(clients):
    return Problem.from_clients(SOFTMAX2, clients).train


def optima_of(train):
    """Each client's optimum, solved on its unpadded one-client slice."""
    return [per_client_optimum(SOFTMAX2, train[i:i + 1, :, :n]).theta
            for i, n in enumerate(train.counts)]


def unequal_clients():
    """Clients of 5, 12, 30 and 47 train rows, two groups with swapped labels."""
    clients = []
    for i, n in enumerate((5, 12, 30, 47)):
        rng = stream(40 + i)
        x = rng.normal(size=(n, 2))
        y = ((x[:, 0] > 0) ^ (i % 2)).astype(int)
        d = Dataset(x, y, 2)
        clients.append(ClientDataset(d, d))
    return clients


class TestHeterogeneityDelta:
    def test_identical_clients_give_zero(self):
        d = toy_dataset(np.array([0, 1] * 10))
        train = train_of([ClientDataset(d, d) for _ in range(3)])
        assert heterogeneity_delta(SOFTMAX2, optima_of(train), train) <= 1e-6

    def test_single_client_is_exactly_zero(self):
        d = toy_dataset(np.array([0, 1] * 10))
        train = train_of([ClientDataset(d, d)])
        assert heterogeneity_delta(SOFTMAX2, optima_of(train), train) == 0.0

    def test_contradictory_groups_exceed_log_two_minus_margin(self):
        # cross-evaluation oracle: using the other group's optimum on
        # contradictory labels costs at least near-chance loss
        train = two_group_contradictory_train()
        assert heterogeneity_delta(SOFTMAX2, optima_of(train), train) >= math.log(2.0) - 0.1


    def test_matches_reference_loop(self):
        clients = unequal_clients()
        train = train_of(clients)
        optima = optima_of(train)
        worst = 0.0
        for i, c in enumerate(clients):
            own = loss(SOFTMAX2, optima[i], c.train.features, c.train.labels)
            for theta in optima:
                worst = max(worst, loss(SOFTMAX2, theta, c.train.features, c.train.labels) - own)
        assert heterogeneity_delta(SOFTMAX2, optima, train) == pytest.approx(worst, abs=1e-12)


class TestCoverageGap:
    def test_matches_reference_loop(self):
        clients = unequal_clients()
        train = train_of(clients)
        optima = optima_of(train)
        models = np.stack([optima[0], optima[3], np.zeros(SOFTMAX2.dim)])
        gaps, mean_gap = coverage_gap(SOFTMAX2, models, optima, train)
        expected = [max(0.0, min(loss(SOFTMAX2, th, c.train.features, c.train.labels)
                                 for th in models)
                        - loss(SOFTMAX2, optima[i], c.train.features, c.train.labels))
                    for i, c in enumerate(clients)]
        np.testing.assert_allclose(gaps, expected, rtol=0, atol=1e-12)
        assert mean_gap == pytest.approx(float(np.mean(expected)), abs=1e-12)
        assert np.any(gaps > 0)

    def test_zero_when_every_optimum_is_in_the_set(self):
        train = two_group_contradictory_train(n=60)
        optima = optima_of(train)
        gaps, mean_gap = coverage_gap(SOFTMAX2, np.stack(optima), optima, train)
        assert np.all(gaps <= 1e-6) and mean_gap <= 1e-6

    def test_monotone_under_model_set_extension(self):
        train = two_group_contradictory_train(n=60)
        optima = optima_of(train)
        small = np.stack(optima[:1])
        big = np.stack(optima[:3])
        _, mean_small = coverage_gap(SOFTMAX2, small, optima, train)
        _, mean_big = coverage_gap(SOFTMAX2, big, optima, train)
        assert mean_big <= mean_small + 1e-12

    def test_single_model_worse_than_group_optima(self):
        train = two_group_contradictory_train(n=60)
        optima = optima_of(train)
        group_models = np.stack([optima[0], optima[2]])  # one per latent group
        one_model = np.stack([optima[0]])
        _, mean_groups = coverage_gap(SOFTMAX2, group_models, optima, train)
        _, mean_single = coverage_gap(SOFTMAX2, one_model, optima, train)
        assert mean_single >= mean_groups

    def test_delta_het_bounds_each_gap_for_optima_sets(self):
        train = two_group_contradictory_train(n=60)
        optima = optima_of(train)
        delta = heterogeneity_delta(SOFTMAX2, optima, train)
        gaps, _ = coverage_gap(SOFTMAX2, np.stack(optima[:2]), optima, train)
        assert np.all(gaps <= delta + 1e-9)


class TestWeightDiagnostics:
    def test_uniform_rows(self):
        w = compute_weights(np.full((5, 3), 0.7), 1.0)
        alpha_cv, entropy, wmax = weight_diagnostics(w)
        assert alpha_cv == pytest.approx(0.0, abs=1e-12)
        # uniform over 3 models: entropy log 3 = 1.0986..., max 1/3
        assert entropy == pytest.approx(1.0986122886681098, abs=1e-12)
        assert wmax == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_one_hot_rows(self):
        sw = ScalarizationWeights(alpha=np.array([0.5, 0.5]),
                                  w=np.array([[1.0, 0.0], [0.0, 1.0]]), value=0.0)
        _, entropy, wmax = weight_diagnostics(sw)
        assert entropy == 0.0 and wmax == 1.0

    def test_ranges_and_entropy_max_duality(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m, k = rng.integers(1, 6), rng.integers(1, 5)
            w = compute_weights(rng.uniform(0, 3, size=(m, k)), float(rng.uniform(0.005, 2.0)))
            _, entropy, wmax = weight_diagnostics(w)
            assert -1e-12 <= entropy <= math.log(k) + 1e-12
            assert 1.0 / k - 1e-12 <= wmax <= 1.0 + 1e-12
            if entropy <= 1e-9:
                assert wmax >= 1.0 - 1e-9
            if wmax >= 1.0 - 1e-12:
                assert entropy <= 1e-9
