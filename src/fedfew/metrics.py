"""Evaluation quantities: accuracy, fairness, heterogeneity, coverage.

The coverage gap of client i against a model set is the loss penalty for
serving that client with the best available shared model instead of its own
optimum; the maximum pairwise heterogeneity bounds every such gap when the
model set consists of client optima.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ClientRows, ModelSpec, _blocks, _grid_losses, grid_predict
from .scalarization import ScalarizationWeights


@dataclass
class FairnessReport:
    mean: float
    std: float
    min: float
    max: float
    jain_index: float


def accuracy(spec: ModelSpec, models, rows: ClientRows) -> np.ndarray:
    """(M,) fraction of client i's rows, of a stacked split, where the argmax
    prediction of models[i] (M, d) equals the label."""
    correct = np.empty(rows.x.shape[0], dtype=np.int64)
    for ids, counts, part in _blocks(spec, rows, 1):
        part = rows[ids, :, : counts[0]] if part is None else part
        hits = (grid_predict(spec, models[ids, None], part) == part.labels) & (part.weights > 0)
        correct[ids] = np.count_nonzero(hits[:, 0], axis=1)
    return correct / rows.counts


def jain_index(values) -> float:
    """(sum x)^2 / (n * sum x^2); 1 means perfectly equal values."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0 or np.any(x < 0):
        raise ValueError("values must be nonnegative and non-empty")
    total_sq = float(np.sum(x * x))
    if total_sq == 0.0:
        raise ValueError("jain index undefined for all-zero input")
    return float(np.sum(x)) ** 2 / (x.size * total_sq)


def fairness_report(accuracies) -> FairnessReport:
    x = np.asarray(accuracies, dtype=np.float64)
    return FairnessReport(
        mean=float(np.mean(x)),
        std=float(np.std(x)),
        min=float(np.min(x)),
        max=float(np.max(x)),
        jain_index=jain_index(x),
    )


def heterogeneity_delta(
    spec: ModelSpec, client_optima: list[np.ndarray], train: ClientRows
) -> float:
    """max over ordered pairs (i, j) of L_i(theta_j*) - L_i(theta_i*).

    Full train losses; zero when every client shares the same optimum.
    """
    cross = _grid_losses(spec, np.stack(client_optima), train)  # L_i(theta_j*)
    return float(np.max(cross - np.diag(cross)[:, None]))


def coverage_gap(
    spec: ModelSpec,
    models: np.ndarray,
    client_optima: list[np.ndarray],
    train: ClientRows,
) -> tuple[np.ndarray, float]:
    """Per-client min_k L_i(theta_k) - L_i(theta_i*), clamped at zero.

    The clamp absorbs numerical noise from the approximate optimum solver;
    the true quantity is nonnegative by definition of the optimum.
    """
    best = _grid_losses(spec, np.atleast_2d(models), train).min(axis=1)
    own = _grid_losses(spec, np.stack(client_optima)[:, None], train)[:, 0]
    gaps = np.maximum(0.0, best - own)
    return gaps, float(np.mean(gaps))


def weight_diagnostics(weights: ScalarizationWeights) -> tuple:
    """(alpha coefficient of variation, mean row entropy of w, mean row max).

    Entropy uses the natural log, so a uniform row over K models scores
    log K and a one-hot row scores 0.  Weights with a leading round axis,
    alpha (R, M) and w (R, M, K), score each round alike: three (R,) arrays.
    """
    alpha, w = weights.alpha, weights.w
    alpha_cv = np.std(alpha, axis=-1) / np.mean(alpha, axis=-1)
    entropy = -np.sum(w * np.log(np.clip(w, 1e-300, None)), axis=-1)
    return alpha_cv, np.mean(entropy, axis=-1), np.mean(np.max(w, axis=-1), axis=-1)
