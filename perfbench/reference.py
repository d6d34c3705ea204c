"""Independent NumPy reference of full-batch fedfew training and evaluation.

It shares no code with ``fedfew``: softmax cross-entropy with L2, the
lookahead step, ``n_i / sum n`` weighting, the smooth Tchebycheff inner and
outer weights and the aggregation are written here from their definitions,
vectorised over the (M, K) grid of clients and models.  The only things
taken from the program's conventions are the parameter layout (W of shape
(C, p+1) with the bias in the last column) and how initial parameters are
drawn (Philox keyed by ``SeedSequence(seed, spawn_key=(1, k))``, uniform in
``+-1/sqrt(p+1)``), because the trajectories can only be compared from the
same start.

The comparison tolerance admits a different summation order and the 9
significant digits of the CSV output, not a different method: a wrong
``mu`` or learning rate fails it by orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RTOL = 1e-7  # trace.csv values carry 9 significant digits
STREAM_INIT = 1


@dataclass
class Stacked:
    """Clients' rows padded to a common length, with a bias column."""

    x: np.ndarray  # (M, n_max, p + 1)
    y: np.ndarray  # (M, n_max) int, padding rows hold label 0
    mask: np.ndarray  # (M, n_max) 1.0 on real rows
    n: np.ndarray  # (M,) real row counts


def stack(pairs) -> Stacked:
    """Stack a list of (features, labels) pairs, one per client."""
    n = np.array([len(y) for _, y in pairs])
    p = np.shape(pairs[0][0])[1]
    x = np.zeros((len(pairs), n.max(), p + 1))
    y = np.zeros((len(pairs), n.max()), dtype=np.int64)
    mask = np.zeros((len(pairs), n.max()))
    for i, (feats, labels) in enumerate(pairs):
        x[i, : n[i], :p] = feats
        x[i, : n[i], p] = 1.0
        y[i, : n[i]] = labels
        mask[i, : n[i]] = 1.0
    return Stacked(x, y, mask, n.astype(np.float64))


def _log_probs(theta, data: Stacked):
    """theta (M, K, C, q) -> log class probabilities (M, K, n, C)."""
    logits = np.einsum("inq,ikcq->iknc", data.x, theta)
    logits -= logits.max(axis=3, keepdims=True)
    return logits - np.log(np.exp(logits).sum(axis=3, keepdims=True))


def loss_and_grad(theta, data: Stacked, l2: float):
    """Mean cross-entropy plus (l2/2)||theta||^2 and its gradient, per (i, k)."""
    logp = _log_probs(theta, data)
    onehot = np.eye(theta.shape[2])[data.y]  # (M, n, C)
    weight = data.mask / data.n[:, None]  # (M, n)
    ce = -np.einsum("iknc,inc,in->ik", logp, onehot, weight)
    loss = ce + 0.5 * l2 * np.einsum("ikcq,ikcq->ik", theta, theta)
    delta = (np.exp(logp) - onehot[:, None]) * weight[:, None, :, None]
    grad = np.einsum("iknc,inq->ikcq", delta, data.x) + l2 * theta
    return loss, grad


def init_models(seed: int, models: int, classes: int, input_dim: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(input_dim + 1)
    out = []
    for k in range(models):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(STREAM_INIT, k))
        gen = np.random.Generator(np.random.Philox(seq))
        out.append(gen.uniform(-bound, bound, size=classes * (input_dim + 1)))
    return np.stack(out).reshape(models, classes, input_dim + 1)


def train_fedfew(train: Stacked, thetas, rounds, epochs, lr, mu, l2):
    """Full-batch fedfew; returns final (K, C, q) models and per-round rows.

    Each row is (stch_value, grad_norm_1..K) of that round, computed from the
    weighted lookahead losses of the models broadcast in that round.
    """
    share = train.n / train.n.sum()
    m = train.x.shape[0]
    rows = []
    for _ in range(rounds):
        local = np.broadcast_to(thetas, (m,) + thetas.shape).copy()
        for _ in range(epochs):
            local -= lr * loss_and_grad(local, train, l2)[1]
        loss, grad = loss_and_grad(local, train, l2)
        wl = loss * share[:, None]
        wg = grad * share[:, None, None, None]
        low = wl.min(axis=1, keepdims=True)
        e = np.exp(-(wl - low) / mu)
        inner = low[:, 0] - mu * np.log(e.sum(axis=1))  # smooth min over models
        w = e / e.sum(axis=1, keepdims=True)
        top = inner.max()
        a = np.exp((inner - top) / mu)
        stch = top + mu * np.log(a.sum())  # smooth max over clients
        agg = np.einsum("i,ik,ikcq->kcq", a / a.sum(), w, wg)
        thetas = thetas - lr * agg
        rows.append([stch, *np.sqrt(np.einsum("kcq,kcq->k", agg, agg))])
    return thetas, np.array(rows)


def losses(models, data: Stacked, l2: float) -> np.ndarray:
    """(M, K) loss of every model on every client."""
    theta = np.broadcast_to(models, (data.x.shape[0],) + models.shape)
    return loss_and_grad(theta, data, l2)[0]


def accuracies(models, data: Stacked) -> np.ndarray:
    """(M, K) fraction of each client's rows that each model classifies right."""
    logits = np.einsum("inq,kcq->iknc", data.x, models)
    hit = (logits.argmax(axis=3) == data.y[:, None, :]) * data.mask[:, None, :]
    return hit.sum(axis=2) / data.n[:, None]


def mismatches(got, want, rtol: float = RTOL) -> int:
    """Number of entries of got outside rtol of want."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return int(np.sum(~(np.abs(got - want) <= rtol * np.abs(want))))


def check_fedfew(split, cfg, trace, clients_csv) -> list[str]:
    """Compare a fedfew run's trace.csv and clients.csv with the reference.

    split maps "train", "validation" and "test" to stacked client data; cfg
    holds seed, models, classes, input_dim, rounds, epochs, learning_rate, mu
    and l2; trace and clients_csv are the parsed CSV columns.
    """
    init = init_models(cfg["seed"], cfg["models"], cfg["classes"], cfg["input_dim"])
    final, rows = train_fedfew(split["train"], init, cfg["rounds"], cfg["epochs"],
                               cfg["learning_rate"], cfg["mu"], cfg["l2"])
    errors = []
    if len(trace["stch_value"]) != cfg["rounds"]:
        return [f"trace.csv has {len(trace['stch_value'])} rounds, expected {cfg['rounds']}"]
    columns = ["stch_value"] + [f"grad_norm_{k + 1}" for k in range(cfg["models"])]
    for j, name in enumerate(columns):
        bad = mismatches(trace[name], rows[:, j])
        if bad:
            errors.append(f"trace.csv {name}: {bad} of {cfg['rounds']} rounds differ from "
                          f"the reference by more than {RTOL:g} relative")
    selected = losses(final, split["validation"], cfg["l2"]).argmin(axis=1)
    if not np.array_equal(np.asarray(clients_csv["selected_model"], dtype=int), selected):
        errors.append("clients.csv selected_model differs from the reference's "
                      "validation argmin")
    test_acc = accuracies(final, split["test"])[np.arange(len(selected)), selected]
    if np.any(np.abs(np.asarray(clients_csv["test_acc"]) - test_acc) > 1e-9):
        errors.append("clients.csv test_acc differs from the reference")
    return errors
