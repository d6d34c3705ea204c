"""Smoothing primitives: exact values, bounds, and stability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfew.numerics import Streams, log_sum_exp, philox_keys, smooth_min, softmin_weights
from streams import stream

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=12
)
mus = st.sampled_from([1e-3, 1e-2, 0.1, 1.0, 10.0])


def direct_lse(y, mu):
    """Unshifted reference; only valid where the exponentials fit in float64."""
    return mu * math.log(sum(math.exp(v / mu) for v in y))


class TestLogSumExp:
    def test_single_element_identity(self):
        for x in (-3.2, 0.0, 17.5):
            assert log_sum_exp([x], 0.7) == pytest.approx(x, abs=1e-12)

    def test_two_zeros_is_log_two(self):
        # direct two-term oracle: log(e^0 + e^0) = log 2
        assert direct_lse([0.0, 0.0], 1.0) == pytest.approx(0.6931471805599453)
        assert log_sum_exp([0.0, 0.0], 1.0) == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_large_inputs_do_not_overflow(self):
        value = log_sum_exp([1000.0, 1000.0], 1.0)
        assert math.isfinite(value)
        assert value == pytest.approx(1000.0 + math.log(2.0), abs=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            log_sum_exp([], 1.0)
        with pytest.raises(ValueError):
            log_sum_exp([1.0], 0.0)
        with pytest.raises(ValueError):
            log_sum_exp([1.0], -2.0)
        with pytest.raises(ValueError):
            log_sum_exp([1.0, float("nan")], 1.0)

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=12),
        mus,
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )
    def test_shift_invariance(self, y, mu, c):
        y = np.array(y)
        assert abs(log_sum_exp(y + c, mu) - (log_sum_exp(y, mu) + c)) <= 1e-10

    @given(finite_vectors, mus)
    def test_sandwich_bounds(self, y, mu):
        y = np.array(y)
        value = log_sum_exp(y, mu)
        assert np.max(y) - 1e-10 <= value <= np.max(y) + mu * math.log(len(y)) + 1e-10


class TestSmoothMin:
    def test_single_element_identity(self):
        assert smooth_min([4.25], 0.3) == pytest.approx(4.25, abs=1e-12)

    def test_equal_pair(self):
        for c in (-1.0, 0.0, 5.5):
            assert smooth_min([c, c], 1.0) == pytest.approx(c - math.log(2.0), abs=1e-10)

    def test_one_two_oracle(self):
        # -log(e^-1 + e^-2), computed by direct summation
        assert -math.log(math.exp(-1.0) + math.exp(-2.0)) == pytest.approx(0.6867383124817771)
        assert smooth_min([1.0, 2.0], 1.0) == pytest.approx(0.6867383124817771, abs=1e-12)

    @given(finite_vectors, mus)
    def test_lower_bound_of_min(self, y, mu):
        y = np.array(y)
        value = smooth_min(y, mu)
        assert np.min(y) - mu * math.log(len(y)) - 1e-10 <= value <= np.min(y) + 1e-10


class TestSoftminWeights:
    def test_uniform_on_equal_losses(self):
        np.testing.assert_allclose(softmin_weights([2.0, 2.0, 2.0], 0.5), np.full(3, 1 / 3))

    def test_one_two_oracle(self):
        # exponential-ratio oracle: e^-1 / (e^-1 + e^-2) and its complement
        expected = np.array([0.7310585786300049, 0.2689414213699951])
        np.testing.assert_allclose(softmin_weights([1.0, 2.0], 1.0), expected, atol=1e-12)

    def test_dominant_term_limit(self):
        w = softmin_weights([0.0, 10.0], 0.001)
        assert w[0] >= 1.0 - 1e-12
        assert w[1] <= 1e-12

    @given(finite_vectors, mus)
    def test_simplex(self, y, mu):
        # dominated entries may underflow to exactly 0.0 in float64, so the
        # mathematically open lower bound is tested as nonnegativity
        w = softmin_weights(y, mu)
        assert np.all(w >= 0) and np.all(w <= 1.0) and np.max(w) > 0
        assert abs(float(np.sum(w)) - 1.0) <= 1e-12

    @given(finite_vectors, mus, st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
    def test_shift_invariance(self, y, mu, c):
        np.testing.assert_allclose(
            softmin_weights(np.array(y) + c, mu), softmin_weights(y, mu), atol=1e-12
        )

    def test_monotone_sharpening(self):
        # with a unique minimizer, its weight never decreases as mu shrinks
        y = [0.3, 0.9, 1.4, 0.5]
        previous = 0.0
        for mu in (10.0, 1.0, 0.1, 0.01, 0.001):
            w = softmin_weights(y, mu)
            assert w[0] == max(w)
            assert w[0] >= previous - 1e-15
            previous = w[0]


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def path_rows(length: int) -> np.ndarray:
    """Paths of one length with entries at both ends of [0, 2**32) and between."""
    entries = [0, 1, 7, 2**31, 2**32 - 2, 2**32 - 1]
    return np.array([[entries[(r + c) % len(entries)] for c in range(length)]
                     for r in range(len(entries))], dtype=np.int64)


class TestPhiloxKeys:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
    def test_keys_match_seed_sequence(self, seed, length):
        paths = path_rows(length)
        keys = philox_keys(seed, paths)
        assert keys.shape == (len(paths), 2) and keys.dtype == np.uint64
        for path, key in zip(paths, keys):
            seq = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
            np.testing.assert_array_equal(key, seq.generate_state(2, np.uint64))

    @pytest.mark.parametrize("bad", [-1, 2**32, 2**40])
    def test_entry_outside_one_word_rejected(self, bad):
        with pytest.raises(ValueError, match="path entries"):
            philox_keys(0, np.array([[0, 1], [bad, 2]], dtype=np.int64))

    @pytest.mark.parametrize("seed, entry, match", [
        (0, 2**64, "path entries"),  # beyond int64
        (-1, 0, "seed must be an unsigned 64-bit integer"),
        (2**64, 0, "seed must be an unsigned 64-bit integer"),
    ])
    def test_seed_or_entry_beyond_its_range_rejected(self, seed, entry, match):
        with pytest.raises(ValueError, match=match):
            philox_keys(seed, [[entry]])


class TestStreams:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_served_streams_draw_as_fresh_rngs(self, seed):
        paths = np.vstack([path_rows(3), [[5, 0, 2], [0, 0, 0]]])
        streams = Streams(seed, paths)
        for s in [3, 0, 6, 3, 1, 5, 2, 4]:  # out of order, and one twice
            gen, ref = streams[s], stream(seed, *paths[s])
            np.testing.assert_array_equal(gen.permutation(60), ref.permutation(60))
            np.testing.assert_array_equal(gen.normal(size=(7, 3)), ref.normal(size=(7, 3)))
            np.testing.assert_array_equal(gen.integers(0, 1000, size=9, dtype=np.int32),
                                          ref.integers(0, 1000, size=9, dtype=np.int32))
            np.testing.assert_array_equal(gen.uniform(-1, 2, size=5), ref.uniform(-1, 2, size=5))

    def test_buffered_half_word_does_not_leak_into_the_next_stream(self):
        paths = [[0, 1], [0, 2]]
        streams = Streams(9, paths)
        gen = streams[0]
        gen.random(dtype=np.float32)  # one 32-bit draw of a 64-bit word
        assert gen.bit_generator.state["has_uint32"] == 1  # its other half waits
        gen, ref = streams[1], stream(9, *paths[1])
        np.testing.assert_array_equal(gen.integers(0, 50, size=11, dtype=np.int32),
                                      ref.integers(0, 50, size=11, dtype=np.int32))
        np.testing.assert_array_equal(gen.normal(size=4), ref.normal(size=4))

    def test_empty_path_is_the_root_stream(self):
        streams = Streams(2**40, np.zeros((1, 0), dtype=np.int64))
        np.testing.assert_array_equal(streams[0].normal(size=6), stream(2**40).normal(size=6))
