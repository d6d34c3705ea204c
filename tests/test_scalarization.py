"""Set-scalarization values, dual-layer weights, gradient aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfew.errors import ConfigError
from fedfew.numerics import log_sum_exp, smooth_min, softmin_weights
from fedfew.scalarization import (
    LossMatrix,
    ScalarizationConfig,
    aggregate_gradients,
    apply_sample_weighting,
    compute_weights,
    loss_matrix,
    stch_set_value,
    tch_set_value,
)

loss_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.lists(
            st.lists(st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                     min_size=k, max_size=k),
            min_size=m, max_size=m,
        )
    )
)


class TestSampleWeighting:
    def test_equal_sizes_scale_uniformly(self):
        lm = apply_sample_weighting(np.ones((4, 2)), [10, 10, 10, 10])
        np.testing.assert_allclose(lm.values, 0.25)
        np.testing.assert_allclose(lm.sample_weights, 0.25)

    def test_proportional_rows(self):
        lm = apply_sample_weighting([[4.0, 4.0], [4.0, 4.0]], [1, 3])
        np.testing.assert_allclose(lm.values, [[1.0, 1.0], [3.0, 3.0]])

    def test_weighting_then_value_equals_prescaled(self):
        raw = np.array([[1.0, 2.0], [0.5, 3.0], [2.0, 0.2]])
        sizes = np.array([5, 2, 3])
        cfg = ScalarizationConfig(mu=0.05)
        weighted = apply_sample_weighting(raw, sizes)
        prescaled = loss_matrix(raw * (sizes / sizes.sum())[:, None])
        assert stch_set_value(weighted, cfg) == pytest.approx(
            stch_set_value(prescaled, cfg), abs=1e-14)

    def test_zero_total_rejected(self):
        with pytest.raises(ConfigError):
            apply_sample_weighting(np.ones((2, 2)), [0, 0])


class TestTchSetValue:
    def test_degenerate(self):
        assert tch_set_value(loss_matrix([[2.0]]), ScalarizationConfig()) == 2.0

    def test_nested_max_min(self):
        lm = loss_matrix([[1.0, 2.0], [3.0, 0.5]])
        assert tch_set_value(lm, ScalarizationConfig()) == 1.0


class TestStchSetValue:
    def test_single_entry_identity(self):
        for c in (0.0, 0.3, 7.0):
            lm = loss_matrix([[c]])
            assert stch_set_value(lm, ScalarizationConfig(mu=0.5)) == pytest.approx(c, abs=1e-12)

    def test_one_client_two_models_oracle(self):
        # direct summation: -log(e^-1 + e^-2)
        lm = loss_matrix([[1.0, 2.0]])
        value = stch_set_value(lm, ScalarizationConfig(mu=1.0))
        assert value == pytest.approx(0.6867383124817771, abs=1e-12)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        c = 3.7
        for _ in range(20):
            raw = rng.uniform(0.0, 5.0, size=(3, 2))
            a = stch_set_value(loss_matrix(c * raw), ScalarizationConfig(mu=c * 0.1))
            b = stch_set_value(loss_matrix(raw), ScalarizationConfig(mu=0.1))
            assert a == pytest.approx(c * b, rel=1e-12)

    def test_mu_must_be_positive(self):
        with pytest.raises(ConfigError):
            ScalarizationConfig(mu=0.0)

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_mu_must_be_finite(self, mu):
        with pytest.raises(ConfigError):
            ScalarizationConfig(mu=mu)

    @settings(max_examples=200)
    @given(loss_matrices, st.sampled_from([1e-3, 1e-2, 0.1, 1.0]))
    def test_smooth_value_brackets_exact_value(self, rows, mu):
        # the inner smooth min underestimates by at most mu*log(K) and the
        # outer smooth max overestimates by at most mu*log(M), giving
        #   stch - mu*log(M) <= tch <= stch + mu*log(K)
        # and hence |stch - tch| <= mu*(log M + log K) uniformly
        lm = loss_matrix(rows)
        cfg = ScalarizationConfig(mu=mu)
        smooth = stch_set_value(lm, cfg)
        exact = tch_set_value(lm, cfg)
        lo = smooth - mu * math.log(lm.clients) - 1e-12
        hi = smooth + mu * math.log(lm.models) + 1e-12
        assert lo <= exact <= hi
        assert abs(smooth - exact) <= mu * (math.log(lm.clients) + math.log(lm.models)) + 1e-12


class TestComputeWeights:
    def test_uniform_on_equal_losses(self):
        lm = loss_matrix(np.full((4, 3), 2.0))
        w = compute_weights(lm, ScalarizationConfig(mu=0.1))
        np.testing.assert_allclose(w.alpha, 0.25, atol=1e-12)
        np.testing.assert_allclose(w.w, 1.0 / 3.0, atol=1e-12)

    def test_single_client_exponential_ratio(self):
        lm = loss_matrix([[1.0, 2.0]])
        w = compute_weights(lm, ScalarizationConfig(mu=1.0))
        np.testing.assert_allclose(w.w[0], [0.7310585786300049, 0.2689414213699951], atol=1e-12)
        np.testing.assert_allclose(w.alpha, [1.0], atol=1e-12)

    def test_raising_one_clients_losses_raises_its_alpha(self):
        base = np.array([[1.0, 2.0], [1.0, 2.0]])
        shifted = base.copy()
        shifted[1] += 2.0  # client 1 now performs poorly across all models
        cfg = ScalarizationConfig(mu=1.0)
        w0 = compute_weights(loss_matrix(base), cfg)
        w1 = compute_weights(loss_matrix(shifted), cfg)
        np.testing.assert_allclose(w1.w[1], w0.w[1], atol=1e-12)  # row shift invariant
        assert w1.alpha[1] > w0.alpha[1]

    def test_log_domain_safety_at_huge_losses(self):
        lm = loss_matrix([[1e6, 9e5], [2.0, 1.0]])
        w = compute_weights(lm, ScalarizationConfig(mu=0.01))
        assert np.all(np.isfinite(w.alpha)) and np.all(np.isfinite(w.w))
        assert abs(w.alpha.sum() - 1.0) <= 1e-10
        np.testing.assert_allclose(w.w.sum(axis=1), 1.0, atol=1e-10)

    @settings(max_examples=150)
    @given(loss_matrices, st.sampled_from([1e-2, 0.1, 1.0]))
    def test_flattened_weights_form_convex_combination(self, rows, mu):
        w = compute_weights(loss_matrix(rows), ScalarizationConfig(mu=mu))
        flat = w.flattened
        assert np.all(flat >= 0)
        assert abs(float(flat.sum()) - 1.0) <= 1e-10

    def test_monotone_hard_selection(self):
        # unique row minima: shrinking mu never lowers a row's max weight
        rows = np.array([[0.1, 0.5, 0.9], [0.7, 0.2, 0.6], [0.3, 0.8, 0.05]])
        lm = loss_matrix(rows)
        previous = np.zeros(3)
        for mu in (10.0, 1.0, 0.1, 0.01, 0.001):
            w = compute_weights(lm, ScalarizationConfig(mu=mu))
            row_max = np.max(w.w, axis=1)
            assert np.all(row_max >= previous - 1e-15)
            previous = row_max

    def test_weighting_composes_with_weights(self):
        raw = np.array([[1.0, 2.0], [0.5, 3.0]])
        sizes = np.array([3, 7])
        cfg = ScalarizationConfig(mu=0.1)
        via_op = compute_weights(apply_sample_weighting(raw, sizes), cfg)
        direct = compute_weights(loss_matrix(raw * (sizes / sizes.sum())[:, None]), cfg)
        np.testing.assert_allclose(via_op.alpha, direct.alpha, atol=1e-14)
        np.testing.assert_allclose(via_op.w, direct.w, atol=1e-14)


class TestAggregateGradients:
    def test_single_client(self):
        lm = loss_matrix([[1.0, 2.0]])
        w = compute_weights(lm, ScalarizationConfig(mu=1.0))
        grads = np.array([[[1.0, 0.0], [0.0, 2.0]]])  # (M=1, K=2, d=2)
        agg = aggregate_gradients(w, grads)
        np.testing.assert_allclose(agg[0], w.w[0, 0] * grads[0, 0], atol=1e-14)
        np.testing.assert_allclose(agg[1], w.w[0, 1] * grads[0, 1], atol=1e-14)

    def test_identical_clients_average_to_g_over_k(self):
        m, k, d = 5, 3, 4
        g = np.arange(d, dtype=float) + 1.0
        grads = np.broadcast_to(g, (m, k, d)).copy()
        w = compute_weights(loss_matrix(np.full((m, k), 1.3)), ScalarizationConfig(mu=0.5))
        agg = aggregate_gradients(w, grads)
        for row in agg:
            np.testing.assert_allclose(row, g / k, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        w = compute_weights(loss_matrix([[1.0, 2.0]]), ScalarizationConfig())
        with pytest.raises(ValueError):
            aggregate_gradients(w, np.zeros((2, 2, 3)))

    def test_chain_rule_against_finite_differences(self):
        # toy map theta_k -> L_i(theta_k) = 0.5 * ||B_i theta_k - y_i||^2;
        # the weighted aggregate must match central differences of the
        # composed scalar objective
        rng = np.random.default_rng(42)
        m, k, d = 3, 2, 4
        B = rng.normal(size=(m, d, d)) * 0.4
        y = rng.normal(size=(m, d)) * 0.3
        thetas = rng.normal(size=(k, d)) * 0.5
        cfg = ScalarizationConfig(mu=0.1)

        def losses(th):
            return np.array([
                [0.5 * float(np.sum((B[i] @ th[j] - y[i]) ** 2)) for j in range(k)]
                for i in range(m)
            ])

        grads = np.array([
            [B[i].T @ (B[i] @ thetas[j] - y[i]) for j in range(k)]
            for i in range(m)
        ])
        w = compute_weights(loss_matrix(losses(thetas)), cfg)
        agg = aggregate_gradients(w, grads)

        h = 1e-6
        fd = np.zeros_like(agg)
        for j in range(k):
            for c in range(d):
                up = thetas.copy(); up[j, c] += h
                dn = thetas.copy(); dn[j, c] -= h
                hi = stch_set_value(loss_matrix(losses(up)), cfg)
                lo = stch_set_value(loss_matrix(losses(dn)), cfg)
                fd[j, c] = (hi - lo) / (2 * h)
        assert np.linalg.norm(fd - agg) <= 1e-4 * max(1.0, np.linalg.norm(agg))


class TestLossMatrixInvariants:
    def test_rejects_negative_losses(self):
        with pytest.raises(ValueError):
            loss_matrix([[-1.0, 2.0]])

    def test_rejects_bad_sample_weights(self):
        with pytest.raises(ValueError):
            LossMatrix(np.ones((2, 2)), np.array([0.9, 0.2]))


class TestVectorisedAgainstScalar:
    """The axis-wise forms against numerics.smooth_min/softmin_weights per row."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(11)
        for trial in range(60):
            m, k = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            scale = 10.0 ** rng.uniform(-2, 6)  # entries up to 1e6
            values = rng.uniform(0.0, 1.0, size=(m, k)) * scale
            mu = (1e-3, 1e-2, 0.1, 1.0)[trial % 4]
            yield loss_matrix(values), ScalarizationConfig(mu=mu)

    def test_stch_set_value(self):
        for lm, cfg in self.cases():
            inner = np.array([smooth_min(row, cfg.mu) for row in lm.values])
            expected = log_sum_exp(inner, cfg.mu)
            assert stch_set_value(lm, cfg) == pytest.approx(expected, rel=1e-14, abs=1e-12)

    def test_compute_weights(self):
        for lm, cfg in self.cases():
            got = compute_weights(lm, cfg)
            inner = np.array([smooth_min(row, cfg.mu) for row in lm.values])
            for i, row in enumerate(lm.values):
                np.testing.assert_allclose(got.w[i], softmin_weights(row, cfg.mu),
                                           rtol=1e-14, atol=1e-300)
            np.testing.assert_allclose(got.alpha, softmin_weights(-inner, cfg.mu),
                                       rtol=1e-14, atol=1e-300)

    def test_aggregate_gradients(self):
        rng = np.random.default_rng(5)
        for lm, cfg in self.cases():
            weights = compute_weights(lm, cfg)
            grads = rng.normal(size=(lm.clients, lm.models, 4))
            expected = np.zeros((lm.models, 4))
            for i in range(lm.clients):
                expected += (weights.alpha[i] * weights.w[i])[:, None] * grads[i]
            np.testing.assert_allclose(aggregate_gradients(weights, grads), expected,
                                       rtol=1e-12, atol=1e-15)
