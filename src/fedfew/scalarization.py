"""Set scalarization of per-client losses over a model set.

Given the M x K loss matrix L[i, k] (client i evaluated on model k), the
non-smooth objective is the max over clients of the min over models of the
losses.  Its smooth surrogate replaces both nested operators with log-sum-exp
at temperature mu:

    value = lse_mu over i of  smoothmin_mu over k of L[i, k]
          = mu * log sum_i ( sum_k exp(-L[i, k] / mu) )^(-1)

whose gradient with respect to model k decomposes into outer client weights
alpha_i (softmax of -log S_i, up-weighting clients served poorly by every
model) times inner soft-selection weights w[i, k] (softmin of row i).  All
exponentials are evaluated in the shifted log domain, so losses up to 1e6
at mu = 0.01 stay finite.

Every function takes L as a plain (M, K) array, already weighted: the
runners scale row i by the client's share n_i / sum_j n_j of the train rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _check_mu, log_sum_exp, softmin_weights


@dataclass
class ScalarizationWeights:
    alpha: np.ndarray  # (M,) outer client weights, sum to 1
    w: np.ndarray  # (M, K) inner soft-selection weights, rows sum to 1
    value: float  # the smooth objective at these losses


def _check_values(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or min(values.shape) < 1:
        raise ValueError("values must be a non-empty (M, K) matrix")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError("loss entries must be finite and nonnegative")
    return values


def tch_set_value(values) -> float:
    """Exact nested max-over-clients of min-over-models."""
    return float(np.max(np.min(_check_values(values), axis=1)))


def _soft_rows(values: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """smooth_min (M,) and softmin_weights (M, K) of every row, shifted by its minimum."""
    low = values.min(axis=1, keepdims=True)
    e = np.exp(-(values - low) / mu)
    total = e.sum(axis=1, keepdims=True)
    return (low - mu * np.log(total))[:, 0], e / total


def compute_weights(values, mu: float) -> ScalarizationWeights:
    """Outer and inner weights of the smooth objective's gradient, and its value.

    Computed so that aggregate_gradients(.) is the exact gradient of the
    value: alpha is the softmax over clients of -log S_i, where
    log S_i = log sum_k exp(-L[i, k] / mu), and sums to one.
    """
    mu = _check_mu(mu)
    inner, w = _soft_rows(_check_values(values), mu)
    return ScalarizationWeights(alpha=softmin_weights(-inner, mu), w=w,
                                value=log_sum_exp(inner, mu))


def aggregate_gradients(weights: ScalarizationWeights, grads: np.ndarray) -> np.ndarray:
    """Per-model gradients: out[k] = sum_i alpha_i * w[i, k] * grads[i, k].

    grads has shape (M, K, d).
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 3:
        raise ValueError("grads must have shape (M, K, d)")
    m, k, d = grads.shape
    if weights.w.shape != (m, k) or weights.alpha.shape != (m,):
        raise ValueError("weights shape does not match gradients")
    return np.einsum("ik,ikd->kd", weights.alpha[:, None] * weights.w, grads)
