"""Differentiable classifiers over flat parameter vectors.

Two architectures: softmax regression (convex, used wherever an exact
optimum oracle is needed) and a one-hidden-layer tanh MLP (non-convex).
Parameters live in a single flat float64 vector with the bias folded in as
an extra input column, so server-side aggregation stays plain vector
arithmetic.

Flat layouts:
    softmax-regression: W of shape (C, p+1), row-major; column p is the bias.
    mlp-1hidden: W1 of shape (h, p+1) followed by W2 of shape (C, h+1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng

SOFTMAX = "softmax-regression"
MLP = "mlp-1hidden"


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    classes: int
    hidden_dim: int = 0
    l2_penalty: float = 1e-4

    def __post_init__(self):
        if self.kind not in (SOFTMAX, MLP):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1 or self.classes < 2:
            raise ValueError("need input_dim >= 1 and classes >= 2")
        if self.kind == MLP and self.hidden_dim < 1:
            raise ValueError("mlp-1hidden requires hidden_dim >= 1")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be nonnegative")

    @property
    def dim(self) -> int:
        """Parameter count d, a pure function of the spec."""
        p, c, h = self.input_dim, self.classes, self.hidden_dim
        if self.kind == SOFTMAX:
            return (p + 1) * c
        return (p + 1) * h + (h + 1) * c


def _check_theta(spec: ModelSpec, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (spec.dim,):
        raise ValueError(f"theta has shape {theta.shape}, spec requires ({spec.dim},)")
    return theta


def _check_batch(spec: ModelSpec, features, labels=None):
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"features have {x.shape[1]} columns, spec requires {spec.input_dim}")
    if x.shape[0] < 1:
        raise ValueError("batch must contain at least one row")
    if labels is None:
        return x, None
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (x.shape[0],):
        raise ValueError("labels must be one integer per feature row")
    if np.any(y < 0) or np.any(y >= spec.classes):
        raise ValueError(f"labels must lie in [0, {spec.classes})")
    return x, y


def _augment(x: np.ndarray) -> np.ndarray:
    return np.hstack([x, np.ones((x.shape[0], 1))])


def _forward(spec: ModelSpec, theta: np.ndarray, x: np.ndarray):
    """Return (logits, hidden activations or None)."""
    xa = _augment(x)
    if spec.kind == SOFTMAX:
        w = theta.reshape(spec.classes, spec.input_dim + 1)
        return xa @ w.T, None
    p, c, h = spec.input_dim, spec.classes, spec.hidden_dim
    n1 = (p + 1) * h
    w1 = theta[:n1].reshape(h, p + 1)
    w2 = theta[n1:].reshape(c, h + 1)
    a = np.tanh(xa @ w1.T)
    return _augment(a) @ w2.T, a


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def loss(spec: ModelSpec, theta, features, labels) -> float:
    """Mean cross-entropy over the batch plus (l2_penalty / 2) * ||theta||^2."""
    theta = _check_theta(spec, theta)
    x, y = _check_batch(spec, features, labels)
    logp = _log_softmax(_forward(spec, theta, x)[0])
    data = -float(np.mean(logp[np.arange(x.shape[0]), y]))
    return data + 0.5 * spec.l2_penalty * float(theta @ theta)


def grad(spec: ModelSpec, theta, features, labels) -> np.ndarray:
    """Exact analytic gradient of loss, same flat layout as theta."""
    theta = _check_theta(spec, theta)
    x, y = _check_batch(spec, features, labels)
    n = x.shape[0]
    xa = _augment(x)
    logits, a = _forward(spec, theta, x)
    probs = np.exp(_log_softmax(logits))
    delta = probs
    delta[np.arange(n), y] -= 1.0
    delta /= n
    if spec.kind == SOFTMAX:
        g = (delta.T @ xa).ravel()
    else:
        p, c, h = spec.input_dim, spec.classes, spec.hidden_dim
        n1 = (p + 1) * h
        w2 = theta[n1:].reshape(c, h + 1)
        aa = _augment(a)
        g2 = delta.T @ aa
        # backprop through tanh; drop the bias column of W2
        da = (delta @ w2[:, :h]) * (1.0 - a * a)
        g1 = da.T @ xa
        g = np.concatenate([g1.ravel(), g2.ravel()])
    return g + spec.l2_penalty * theta


@dataclass(frozen=True)
class ClientRows:
    """Rows of M clients, stacked and weighted for the grid kernel.

    G is 1 when every model of a client sees the same rows (a whole split)
    and K' when each client-model task has its own mini-batch.  Each task's
    row weights sum to one; padding rows have zero features and zero weight,
    so clients of unequal size share one array.
    """

    x: np.ndarray  # (M, G, n, p + 1): features with the bias column last
    labels: np.ndarray  # (M, G, n) int64; padding rows hold 0
    weights: np.ndarray  # (M, G, n), or (M, 1, n) when the G tasks share them

    def __getitem__(self, key) -> "ClientRows":
        """Some clients, or some clients and rows: rows[ids, :, :n]."""
        return ClientRows(self.x[key], self.labels[key], self.weights[key])

    @property
    def counts(self) -> np.ndarray:
        """(M,) rows of each client, for a G = 1 stack."""
        return np.count_nonzero(self.weights[:, 0], axis=1)

    def take(self, rows: np.ndarray, weights: np.ndarray) -> "ClientRows":
        """Per-task batches of a G=1 stack: rows (M, K', b) index each client's rows."""
        clients = np.arange(rows.shape[0])[:, None, None]
        return ClientRows(self.x[clients, 0, rows], self.labels[clients, 0, rows], weights)


def stack_rows(spec: ModelSpec, pairs) -> ClientRows:
    """Validate (features, labels) of M clients once and stack them, G = 1."""
    feats = [np.asarray(f, dtype=np.float64) for f, _ in pairs]
    labels = [np.asarray(y, dtype=np.int64) for _, y in pairs]
    counts = np.array([len(y) for y in labels])
    p = spec.input_dim
    if counts.min() < 1 or any(f.shape != (len(y), p) or y.ndim != 1 for f, y in zip(feats, labels)):
        raise ValueError(f"each client needs n >= 1 rows of {p} features and one label per row")
    flat_labels = np.concatenate(labels)
    if flat_labels.min() < 0 or flat_labels.max() >= spec.classes:
        raise ValueError(f"labels must lie in [0, {spec.classes})")
    client = np.repeat(np.arange(len(counts)), counts)
    row = np.arange(len(client)) - np.repeat(np.cumsum(counts) - counts, counts)
    x = np.zeros((len(counts), 1, counts.max(), p + 1))
    x[client, 0, row] = np.column_stack([np.concatenate(feats), np.ones(len(client))])
    y = np.zeros(x.shape[:3], dtype=np.int64)
    y[client, 0, row] = flat_labels
    weights = np.zeros(x.shape[:3])
    weights[client, 0, row] = 1.0 / counts[client]
    return ClientRows(x, y, weights)


def _grid_forward(spec: ModelSpec, thetas: np.ndarray, rows: ClientRows):
    """loss of every pair (M, K'), plus what the gradient needs: the
    exponentials of the shifted logits (M, K', C, n), their sums over classes,
    the one-hot labels times row weights (M, G, C, n) and the hidden layer.

    Classes sit on the second-to-last axis, so the reductions over the few
    classes run along contiguous rows of n values.
    """
    m, k = thetas.shape[:2]
    p, c, h = spec.input_dim, spec.classes, spec.hidden_dim
    xt = rows.x.swapaxes(-1, -2)  # (M, G, p + 1, n)
    if spec.kind == SOFTMAX:
        z, a = thetas.reshape(m, k, c, p + 1) @ xt, None
    else:
        n1 = (p + 1) * h
        w2 = thetas[..., n1:].reshape(m, k, c, h + 1)
        a = np.tanh(thetas[..., :n1].reshape(m, k, h, p + 1) @ xt)
        z = w2[..., :h] @ a + w2[..., h:]
    z -= z.max(axis=-2, keepdims=True)
    e = np.exp(z)
    partition = e.sum(axis=-2, keepdims=True)
    target = (rows.labels[..., None, :] == np.arange(c)[:, None]) * rows.weights[..., None, :]
    # cross-entropy of a row: log partition minus the shifted logit of its label
    losses = (rows.weights * np.log(partition[..., 0, :])).sum(axis=-1)
    losses -= np.einsum("...cn,...cn->...", target, z)
    losses += 0.5 * spec.l2_penalty * np.einsum("mkd,mkd->mk", thetas, thetas)
    return losses, e, partition, target, a


def grid_loss(spec: ModelSpec, thetas, rows: ClientRows) -> np.ndarray:
    """loss of every pair of the grid: (M, K') for thetas (M, K', d)."""
    return _grid_forward(spec, thetas, rows)[0]


def grid_loss_and_grad(spec: ModelSpec, thetas, rows: ClientRows) -> tuple[np.ndarray, np.ndarray]:
    """loss (M, K') and grad (M, K', d) of every pair of the grid in one pass.

    thetas[i, k] is scored on the rows of client i: rows.x[i, 0] when G = 1,
    rows.x[i, k] when G = K'.  Agrees with loss/grad per pair up to the
    summation order.
    """
    m, k, _ = thetas.shape
    losses, delta, partition, target, a = _grid_forward(spec, thetas, rows)
    delta /= partition
    delta *= rows.weights[..., None, :]
    delta -= target  # (M, K', C, n): weighted softmax minus one-hot
    if spec.kind == SOFTMAX:
        g = (delta @ rows.x).reshape(m, k, -1)
    else:
        p, c, h = spec.input_dim, spec.classes, spec.hidden_dim
        w2 = thetas[..., (p + 1) * h :].reshape(m, k, c, h + 1)
        g2 = np.concatenate([delta @ a.swapaxes(-1, -2), delta.sum(axis=-1)[..., None]], axis=-1)
        # backprop through tanh; drop the bias column of W2
        da = (w2[..., :h].swapaxes(-1, -2) @ delta) * (1.0 - a * a)
        g = np.concatenate([(da @ rows.x).reshape(m, k, -1), g2.reshape(m, k, -1)], axis=-1)
    return losses, g + spec.l2_penalty * thetas


def predict(spec: ModelSpec, theta, features) -> np.ndarray:
    """Argmax-class prediction per row; ties break toward the lowest index."""
    theta = _check_theta(spec, theta)
    x, _ = _check_batch(spec, features)
    logits, _ = _forward(spec, theta, x)
    return np.argmax(logits, axis=1)


def finite_difference_grad(spec: ModelSpec, theta, features, labels, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle, coordinate by coordinate."""
    if step <= 0:
        raise ValueError("step must be positive")
    theta = _check_theta(spec, theta).copy()
    out = np.empty_like(theta)
    for j in range(theta.size):
        orig = theta[j]
        theta[j] = orig + step
        hi = loss(spec, theta, features, labels)
        theta[j] = orig - step
        lo = loss(spec, theta, features, labels)
        theta[j] = orig
        out[j] = (hi - lo) / (2.0 * step)
    return out


def init_params(spec: ModelSpec, rng: Rng) -> np.ndarray:
    """Draw parameters uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    p, c, h = spec.input_dim, spec.classes, spec.hidden_dim
    if spec.kind == SOFTMAX:
        b = 1.0 / np.sqrt(p + 1)
        return rng.uniform(-b, b, size=spec.dim)
    b1 = 1.0 / np.sqrt(p + 1)
    b2 = 1.0 / np.sqrt(h + 1)
    w1 = rng.uniform(-b1, b1, size=(p + 1) * h)
    w2 = rng.uniform(-b2, b2, size=(h + 1) * c)
    return np.concatenate([w1, w2])
