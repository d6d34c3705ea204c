"""Numerically stable smoothing primitives and seeded randomness.

All exponential sums are evaluated with a max shift so that losses in the
hundreds or thousands (common early in training) never overflow.  The three
public smoothing operations satisfy, for any finite vector ``y`` of length
``n`` and any ``mu > 0``:

    max(y) <= log_sum_exp(y, mu) <= max(y) + mu * log(n)
    min(y) - mu * log(n) <= smooth_min(y, mu) <= min(y)
    softmin_weights(y, mu) sums to 1 and is shift invariant.

Every random draw of a run comes from a named stream (seed, path): the
Philox generator of numpy's SeedSequence(seed, spawn_key=path), so a stream
does not depend on the draws of any other.  Streams(seed, paths) keys them,
and a single stream is Streams(seed, [path])[0].  The paths of a run:

    (STREAM_DATA, i, j)            mixture client i: j = 0 its labels and
                                   noise, 1 its split, 2 its test rows
    (STREAM_DATA,)                 a partitioner's draws
    (STREAM_DATA, STREAM_SPLIT, i) partitioned client i's split
    (STREAM_INIT, k)               model k's initial parameters
    (STREAM_BATCH, t, i, s)        round t's batches of client i, stream id s
"""

from __future__ import annotations

import numpy as np


def _as_finite_vector(y, name: str = "y") -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {y.shape}")
    if y.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(y)):
        raise ValueError(f"{name} contains non-finite entries")
    return y


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if not np.isfinite(mu) or mu <= 0.0:
        raise ValueError(f"mu must be a positive finite real, got {mu}")
    return mu


def _soft_rows(values: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """smooth_min (M,) and softmin_weights (M, K) of every row of a finite
    (M, K) matrix, shifted by its minimum."""
    low = values.min(axis=1, keepdims=True)
    e = np.exp(-(values - low) / mu)
    total = e.sum(axis=1, keepdims=True)
    return (low - mu * np.log(total))[:, 0], e / total


def log_sum_exp(y, mu: float) -> float:
    """Smooth maximum: mu * log(sum_i exp(y_i / mu)).

    Shift invariant (log_sum_exp(y + c, mu) = log_sum_exp(y, mu) + c) and
    finite for all finite inputs.
    """
    return -smooth_min(-_as_finite_vector(y), mu)


def smooth_min(y, mu: float) -> float:
    """Smooth minimum: -mu * log(sum_i exp(-y_i / mu)).

    Always a lower bound on min(y), and within mu * log(n) of it.
    """
    return float(_soft_rows(_as_finite_vector(y)[None], _check_mu(mu))[0][0])


def softmin_weights(y, mu: float) -> np.ndarray:
    """Normalized soft-min weights exp(-y_k / mu) / sum_j exp(-y_j / mu).

    Computed in the shifted log domain, so entries are in (0, 1] and sum to
    one even when y spans many orders of magnitude.  Smaller y gets larger
    weight; mu -> 0 sharpens toward a one-hot vector on the argmin.
    """
    return _soft_rows(_as_finite_vector(y)[None], _check_mu(mu))[1][0]


STREAM_DATA, STREAM_INIT, STREAM_BATCH = 0, 1, 2
STREAM_SPLIT = 0xFFFF  # the partition splits, under STREAM_DATA


# numpy's SeedSequence hash (after M. E. O'Neill's seed_seq_fe): its pool
# size, its entropy and output hash constants and its mixing multipliers
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WORD, _MASK = 2**32, 2**32 - 1


def philox_keys(seed: int, paths) -> np.ndarray:
    """(S, 2) uint64 Philox keys of the streams (seed, path), one per row of
    the (S, L) paths, in one array pass.

    Row s equals SeedSequence(seed, spawn_key=paths[s]).generate_state(2,
    np.uint64).  The entropy is the seed's 32-bit words, padded with zeros to
    the pool size when a path follows, then the path entries; it is hashed into
    a pool of 4 words, which are hashed again into the key.  The seed's words
    fill the pool alone, so the pool is hashed once in integers; every stream
    then hashes as many path words, so the hash constants advance alike and
    each step is one uint32 array operation over all S streams.
    """
    if seed < 0 or seed >= 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    paths = np.asarray(paths)
    if paths.ndim != 2:
        raise ValueError(f"paths must be an (S, L) array, got shape {paths.shape}")
    if paths.size and (paths.dtype.kind not in "iu" or paths.min() < 0 or paths.max() >= _WORD):
        # SeedSequence would split a larger entry into several words
        raise ValueError("split path entries must lie in [0, 2**32)")
    words = [seed % _WORD, seed // _WORD] if seed >= _WORD else [seed]
    # a pool word with no entropy word hashes a zero, so padding is harmless
    # without a path
    words += [0] * (_POOL - len(words))
    const = _INIT_A

    # each works on an int or a uint32 array alike
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK
        value = value * const & _MASK
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & _MASK
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in words]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    pool = [np.full(len(paths), word, dtype=np.uint32) for word in pool]
    for word in paths.T.astype(np.uint32):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, const = [], _INIT_B
    for word in pool:
        word = word ^ const
        const = const * _MULT_B & _MASK
        word = word * const & _MASK
        out.append((word ^ (word >> 16)).astype(np.uint64))
    # little-endian pairs of 32-bit words make each 64-bit key word
    return np.stack([out[0] | out[1] << np.uint64(32), out[2] | out[3] << np.uint64(32)], axis=1)


class Streams:
    """The streams (seed, path) for each row of the (S, L) paths, keyed by
    one philox_keys pass and served one at a time by one shared generator.

    streams[s] restarts the generator on stream s, so it draws what a fresh
    Generator(Philox(SeedSequence(seed, spawn_key=paths[s]))) draws; the
    stream served before it ends there.  It costs a state switch, where each
    fresh generator costs a SeedSequence and a Philox.
    """

    def __init__(self, seed: int, paths):
        self._keys = philox_keys(seed, paths)
        self._bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bits)
        # a fresh Philox: counter and buffer zero, no buffered 32-bit half
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
                       "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def __getitem__(self, s: int) -> np.random.Generator:
        self._state["state"]["key"] = self._keys[s]
        self._bits.state = self._state
        return self._gen
