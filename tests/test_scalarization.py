"""Set-scalarization values, dual-layer weights, gradient aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfew.numerics import log_sum_exp, smooth_min, softmin_weights
from fedfew.scalarization import (
    aggregate_gradients,
    compute_weights,
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


class TestTchSetValue:
    def test_degenerate(self):
        assert tch_set_value([[2.0]]) == 2.0

    def test_nested_max_min(self):
        assert tch_set_value([[1.0, 2.0], [3.0, 0.5]]) == 1.0


class TestStchSetValue:
    def test_single_entry_identity(self):
        for c in (0.0, 0.3, 7.0):
            assert compute_weights([[c]], 0.5).value == pytest.approx(c, abs=1e-12)

    def test_one_client_two_models_oracle(self):
        # direct summation: -log(e^-1 + e^-2)
        value = compute_weights([[1.0, 2.0]], 1.0).value
        assert value == pytest.approx(0.6867383124817771, abs=1e-12)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        c = 3.7
        for _ in range(20):
            raw = rng.uniform(0.0, 5.0, size=(3, 2))
            a = compute_weights(c * raw, c * 0.1).value
            b = compute_weights(raw, 0.1).value
            assert a == pytest.approx(c * b, rel=1e-12)

    def test_mu_must_be_positive(self):
        # checked before any arithmetic: dividing by mu=0 would raise first
        with np.errstate(all="raise"), pytest.raises(
                ValueError, match="mu must be a positive finite real"):
            compute_weights([[1.0, 2.0]], 0.0)

    @pytest.mark.parametrize("mu", [float("nan"), float("inf")])
    def test_mu_must_be_finite(self, mu):
        with pytest.raises(ValueError, match="mu must be a positive finite real"):
            compute_weights([[1.0, 2.0]], mu)

    @settings(max_examples=200)
    @given(loss_matrices, st.sampled_from([1e-3, 1e-2, 0.1, 1.0]))
    def test_smooth_value_brackets_exact_value(self, rows, mu):
        # the inner smooth min underestimates by at most mu*log(K) and the
        # outer smooth max overestimates by at most mu*log(M), giving
        #   stch - mu*log(M) <= tch <= stch + mu*log(K)
        # and hence |stch - tch| <= mu*(log M + log K) uniformly
        m, k = np.shape(rows)
        smooth = compute_weights(rows, mu).value
        exact = tch_set_value(rows)
        lo = smooth - mu * math.log(m) - 1e-12
        hi = smooth + mu * math.log(k) + 1e-12
        assert lo <= exact <= hi
        assert abs(smooth - exact) <= mu * (math.log(m) + math.log(k)) + 1e-12


class TestComputeWeights:
    def test_uniform_on_equal_losses(self):
        w = compute_weights(np.full((4, 3), 2.0), 0.1)
        np.testing.assert_allclose(w.alpha, 0.25, atol=1e-12)
        np.testing.assert_allclose(w.w, 1.0 / 3.0, atol=1e-12)

    def test_single_client_exponential_ratio(self):
        w = compute_weights([[1.0, 2.0]], 1.0)
        np.testing.assert_allclose(w.w[0], [0.7310585786300049, 0.2689414213699951], atol=1e-12)
        np.testing.assert_allclose(w.alpha, [1.0], atol=1e-12)

    def test_raising_one_clients_losses_raises_its_alpha(self):
        base = np.array([[1.0, 2.0], [1.0, 2.0]])
        shifted = base.copy()
        shifted[1] += 2.0  # client 1 now performs poorly across all models
        w0 = compute_weights(base, 1.0)
        w1 = compute_weights(shifted, 1.0)
        np.testing.assert_allclose(w1.w[1], w0.w[1], atol=1e-12)  # row shift invariant
        assert w1.alpha[1] > w0.alpha[1]

    def test_log_domain_safety_at_huge_losses(self):
        w = compute_weights([[1e6, 9e5], [2.0, 1.0]], 0.01)
        assert np.all(np.isfinite(w.alpha)) and np.all(np.isfinite(w.w))
        assert abs(w.alpha.sum() - 1.0) <= 1e-10
        np.testing.assert_allclose(w.w.sum(axis=1), 1.0, atol=1e-10)

    @settings(max_examples=150)
    @given(loss_matrices, st.sampled_from([1e-2, 0.1, 1.0]))
    def test_flattened_weights_form_convex_combination(self, rows, mu):
        w = compute_weights(rows, mu)
        flat = w.alpha[:, None] * w.w
        assert np.all(flat >= 0)
        assert abs(float(flat.sum()) - 1.0) <= 1e-10

    def test_monotone_hard_selection(self):
        # unique row minima: shrinking mu never lowers a row's max weight
        rows = np.array([[0.1, 0.5, 0.9], [0.7, 0.2, 0.6], [0.3, 0.8, 0.05]])
        previous = np.zeros(3)
        for mu in (10.0, 1.0, 0.1, 0.01, 0.001):
            w = compute_weights(rows, mu)
            row_max = np.max(w.w, axis=1)
            assert np.all(row_max >= previous - 1e-15)
            previous = row_max


class TestAggregateGradients:
    def test_single_client(self):
        w = compute_weights([[1.0, 2.0]], 1.0)
        grads = np.array([[[1.0, 0.0], [0.0, 2.0]]])  # (M=1, K=2, d=2)
        agg = aggregate_gradients(w, grads)
        np.testing.assert_allclose(agg[0], w.w[0, 0] * grads[0, 0], atol=1e-14)
        np.testing.assert_allclose(agg[1], w.w[0, 1] * grads[0, 1], atol=1e-14)

    def test_identical_clients_average_to_g_over_k(self):
        m, k, d = 5, 3, 4
        g = np.arange(d, dtype=float) + 1.0
        grads = np.broadcast_to(g, (m, k, d)).copy()
        w = compute_weights(np.full((m, k), 1.3), 0.5)
        agg = aggregate_gradients(w, grads)
        for row in agg:
            np.testing.assert_allclose(row, g / k, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        w = compute_weights([[1.0, 2.0]], 0.01)
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
        mu = 0.1

        def losses(th):
            return np.array([
                [0.5 * float(np.sum((B[i] @ th[j] - y[i]) ** 2)) for j in range(k)]
                for i in range(m)
            ])

        grads = np.array([
            [B[i].T @ (B[i] @ thetas[j] - y[i]) for j in range(k)]
            for i in range(m)
        ])
        w = compute_weights(losses(thetas), mu)
        agg = aggregate_gradients(w, grads)

        h = 1e-6
        fd = np.zeros_like(agg)
        for j in range(k):
            for c in range(d):
                up = thetas.copy(); up[j, c] += h
                dn = thetas.copy(); dn[j, c] -= h
                hi = compute_weights(losses(up), mu).value
                lo = compute_weights(losses(dn), mu).value
                fd[j, c] = (hi - lo) / (2 * h)
        assert np.linalg.norm(fd - agg) <= 1e-4 * max(1.0, np.linalg.norm(agg))


class TestLossValues:
    @pytest.mark.parametrize("fn", [tch_set_value, lambda v: compute_weights(v, 1.0)],
                             ids=["tch", "weights"])
    @pytest.mark.parametrize("values", [[[-1.0, 2.0]], [[np.nan, 2.0]], [[np.inf, 2.0]],
                                        [[-np.inf, 2.0]], [1.0, 2.0], np.zeros((0, 2))],
                             ids=["negative", "nan", "inf", "-inf", "not-2d", "empty"])
    def test_rejects_bad_losses(self, fn, values):
        with pytest.raises(ValueError):
            fn(values)


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
            yield values, mu

    def test_smooth_value(self):
        for values, mu in self.cases():
            inner = np.array([smooth_min(row, mu) for row in values])
            expected = log_sum_exp(inner, mu)
            assert compute_weights(values, mu).value == pytest.approx(expected, rel=1e-14,
                                                                      abs=1e-12)

    def test_compute_weights(self):
        for values, mu in self.cases():
            got = compute_weights(values, mu)
            inner = np.array([smooth_min(row, mu) for row in values])
            for i, row in enumerate(values):
                np.testing.assert_allclose(got.w[i], softmin_weights(row, mu),
                                           rtol=1e-14, atol=1e-300)
            np.testing.assert_allclose(got.alpha, softmin_weights(-inner, mu),
                                       rtol=1e-14, atol=1e-300)

    def test_aggregate_gradients(self):
        rng = np.random.default_rng(5)
        for values, mu in self.cases():
            weights = compute_weights(values, mu)
            m, k = values.shape
            grads = rng.normal(size=(m, k, 4))
            expected = np.zeros((k, 4))
            for i in range(m):
                expected += (weights.alpha[i] * weights.w[i])[:, None] * grads[i]
            np.testing.assert_allclose(aggregate_gradients(weights, grads), expected,
                                       rtol=1e-12, atol=1e-15)
