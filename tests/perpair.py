"""Per-pair reference for the grid kernel: one parameter vector, one batch.

Written out with plain matrix products, one forward pass per call, so the
tests can check the batched kernel of fedfew.model, and what is built on it
(training, evaluation, the oracle), pair by pair.  Same flat layouts as
fedfew.model.
"""

import numpy as np

from fedfew.model import SOFTMAX, ModelSpec


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


def logits(spec: ModelSpec, theta, features) -> np.ndarray:
    """(n, C) logits of one parameter vector on a batch."""
    return _forward(spec, np.asarray(theta, dtype=np.float64), np.asarray(features, dtype=np.float64))[0]


def loss(spec: ModelSpec, theta, features, labels) -> float:
    """Mean cross-entropy over the batch plus (l2_penalty / 2) * ||theta||^2."""
    theta = np.asarray(theta, dtype=np.float64)
    x, y = np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.int64)
    logp = _log_softmax(_forward(spec, theta, x)[0])
    data = -float(np.mean(logp[np.arange(x.shape[0]), y]))
    return data + 0.5 * spec.l2_penalty * float(theta @ theta)


def grad(spec: ModelSpec, theta, features, labels) -> np.ndarray:
    """Exact analytic gradient of loss, same flat layout as theta."""
    theta = np.asarray(theta, dtype=np.float64)
    x, y = np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    xa = _augment(x)
    out, a = _forward(spec, theta, x)
    probs = np.exp(_log_softmax(out))
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


def finite_difference_grad(loss_of, thetas, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient, coordinate by coordinate.

    loss_of maps parameter vectors (..., d) to their losses (...), each loss a
    function of its own vector only, so one pass perturbs coordinate j of
    every vector: a single vector, or a whole (M, K', d) grid.
    """
    thetas = np.array(thetas, dtype=np.float64)
    out = np.empty_like(thetas)
    for j in range(thetas.shape[-1]):
        orig = thetas[..., j].copy()
        thetas[..., j] = orig + step
        hi = loss_of(thetas)
        thetas[..., j] = orig - step
        lo = loss_of(thetas)
        thetas[..., j] = orig
        out[..., j] = (hi - lo) / (2.0 * step)
    return out


def optimum(spec: ModelSpec, features, labels, budget: int = 20000, tol: float = 1e-6):
    """Gradient descent with backtracking on one client's loss: the reference
    descent the Newton oracle is checked against.  Returns (theta, steps)."""
    x, y = features, labels
    theta = np.zeros(spec.dim)
    f = loss(spec, theta, x, y)
    step = 1.0
    steps = 0
    g = grad(spec, theta, x, y)
    gnorm = float(np.linalg.norm(g))
    while gnorm > tol and steps < budget:
        step = min(step * 2.0, 1e6)
        gg = gnorm * gnorm
        for _ in range(60):
            trial = theta - step * g
            f_trial = loss(spec, trial, x, y)
            if f_trial <= f - 1e-4 * step * gg:
                break
            step *= 0.5
        theta, f = trial, f_trial
        g = grad(spec, theta, x, y)
        gnorm = float(np.linalg.norm(g))
        steps += 1
    return theta, steps
