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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numerics import log_sum_exp, softmin_weights


@dataclass
class LossMatrix:
    values: np.ndarray  # (M, K) nonnegative
    sample_weights: np.ndarray  # (M,) nonnegative, sums to 1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or min(self.values.shape) < 1:
            raise ValueError("values must be a non-empty (M, K) matrix")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("loss entries must be finite and nonnegative")
        self.sample_weights = np.asarray(self.sample_weights, dtype=np.float64)
        if self.sample_weights.shape != (self.values.shape[0],):
            raise ValueError("need one sample weight per client")
        if abs(float(np.sum(self.sample_weights)) - 1.0) > 1e-12:
            raise ValueError("sample weights must sum to 1")

    @property
    def clients(self) -> int:
        return self.values.shape[0]

    @property
    def models(self) -> int:
        return self.values.shape[1]


def loss_matrix(values) -> LossMatrix:
    """Wrap raw losses with uniform sample weights (no size weighting)."""
    values = np.asarray(values, dtype=np.float64)
    m = values.shape[0]
    return LossMatrix(values, np.full(m, 1.0 / m))


@dataclass
class ScalarizationConfig:
    mu: float = 0.01

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ConfigError("mu must be strictly positive and finite")


@dataclass
class ScalarizationWeights:
    alpha: np.ndarray  # (M,) outer client weights, sum to 1
    w: np.ndarray  # (M, K) inner soft-selection weights, rows sum to 1

    @property
    def flattened(self) -> np.ndarray:
        """alpha_i * w[i, k]; a convex combination."""
        return self.alpha[:, None] * self.w


def apply_sample_weighting(raw_losses, sizes) -> LossMatrix:
    """Scale row i by n_i / sum_j n_j and record the weights."""
    raw = np.asarray(raw_losses, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.shape != (raw.shape[0],):
        raise ValueError("need one sample size per client")
    if np.any(sizes <= 0):
        raise ConfigError("sample sizes must be positive")
    total = float(np.sum(sizes))
    weights = sizes / total
    return LossMatrix(raw * weights[:, None], weights)


def tch_set_value(lm: LossMatrix, cfg: ScalarizationConfig) -> float:
    """Exact nested max-over-clients of min-over-models."""
    return float(np.max(np.min(lm.values, axis=1)))


def _soft_rows(values: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """smooth_min (M,) and softmin_weights (M, K) of every row, shifted by its minimum."""
    low = values.min(axis=1, keepdims=True)
    e = np.exp(-(values - low) / mu)
    total = e.sum(axis=1, keepdims=True)
    return (low - mu * np.log(total))[:, 0], e / total


def stch_set_value(lm: LossMatrix, cfg: ScalarizationConfig) -> float:
    """Smooth surrogate, evaluated entirely in the shifted log domain."""
    inner, _ = _soft_rows(lm.values, cfg.mu)
    return log_sum_exp(inner, cfg.mu)


def compute_weights(lm: LossMatrix, cfg: ScalarizationConfig) -> ScalarizationWeights:
    """Outer and inner weights of the smooth objective's gradient.

    Computed so that aggregate_gradients(.) is the exact gradient of
    stch_set_value: alpha is the softmax over clients of -log S_i, where
    log S_i = log sum_k exp(-L[i, k] / mu), and sums to one.
    """
    inner, w = _soft_rows(lm.values, cfg.mu)
    return ScalarizationWeights(alpha=softmin_weights(-inner, cfg.mu), w=w)


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
    return np.einsum("ik,ikd->kd", weights.flattened, grads)
