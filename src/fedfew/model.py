"""Differentiable classifiers over flat parameter vectors.

Two architectures: softmax regression (convex, used wherever an exact
optimum oracle is needed) and a one-hidden-layer tanh MLP (non-convex).
Parameters live in a single flat float64 vector with the bias folded in as
an extra input column, so server-side aggregation stays plain vector
arithmetic.

One kernel scores every (client, model) pair of an (M, K') grid at once:
grid_loss_and_grad for training and the oracle, grid_loss for selection and
the evaluation metrics, grid_predict for accuracy; softmax_hessian gives the
oracle its Newton steps.

Flat layouts:
    softmax-regression: W of shape (C, p+1), row-major; column p is the bias.
    mlp-1hidden: W1 of shape (h, p+1) followed by W2 of shape (C, h+1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

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
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1 or self.classes < 2:
            raise ConfigError("need input_dim >= 1 and classes >= 2")
        if self.kind == MLP and self.hidden_dim < 1:
            raise ConfigError("mlp-1hidden requires hidden_dim >= 1")
        if not (np.isfinite(self.l2_penalty) and self.l2_penalty >= 0):
            raise ConfigError("l2_penalty must be nonnegative and finite")

    @property
    def dim(self) -> int:
        """Parameter count d, a pure function of the spec."""
        p, c, h = self.input_dim, self.classes, self.hidden_dim
        if self.kind == SOFTMAX:
            return (p + 1) * c
        return (p + 1) * h + (h + 1) * c


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

    def memo(self, key, make):
        """make(), once per stack and key: a block's view keeps it from call to call."""
        memo = self.__dict__.setdefault("_memo", {})  # beside the frozen fields
        return memo[key] if key in memo else memo.setdefault(key, make())

    def target(self, classes: int) -> np.ndarray:
        """The one-hot labels times the row weights (M, G, C, n), once per C."""
        return self.memo(("target", classes), lambda: self.weights[..., None, :] * (
            self.labels[..., None, :] == np.arange(classes)[:, None]))

    @property
    def counts(self) -> np.ndarray:
        """(M,) rows of each client, for a G = 1 stack."""
        return np.count_nonzero(self.weights[:, 0], axis=1)

    def take(self, rows: np.ndarray, weights: np.ndarray) -> "ClientRows":
        """Per-task rows of a G=1 stack: rows (M, K', b) index each client's rows."""
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
    x[client, 0, row, :p] = np.concatenate(feats)
    x[client, 0, row, p] = 1.0
    y = np.zeros(x.shape[:3], dtype=np.int64)
    y[client, 0, row] = flat_labels
    weights = np.zeros(x.shape[:3])
    weights[client, 0, row] = 1.0 / counts[client]
    return ClientRows(x, y, weights)


def _folded(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w (M, K', r, s) @ x (M, G, s, n) for each pair, (M, K', r, n): the K'/G
    tasks that share rows make one (K'/G * r, s) @ (s, n) product per client
    and G, which for G = K' is the product of each pair."""
    m, k, r, s = w.shape
    return (w.reshape(m, x.shape[1], -1, s) @ x).reshape(m, k, r, -1)


def _grid_logits(spec: ModelSpec, thetas: np.ndarray, rows: ClientRows):
    """Logits of every pair (M, K', C, n) and the hidden layer (None for softmax).

    Classes sit on the second-to-last axis, so the reductions over the few
    classes run along contiguous rows of n values.
    """
    m, k = thetas.shape[:2]
    p, c, h = spec.input_dim, spec.classes, spec.hidden_dim
    xt = rows.x.swapaxes(-1, -2)  # (M, G, p + 1, n)
    if spec.kind == SOFTMAX:
        return _folded(thetas.reshape(m, k, c, p + 1), xt), None
    n1 = (p + 1) * h
    w2 = thetas[..., n1:].reshape(m, k, c, h + 1)
    a = np.tanh(_folded(thetas[..., :n1].reshape(m, k, h, p + 1), xt))
    return w2[..., :h] @ a + w2[..., h:], a


def _grid_forward(spec: ModelSpec, thetas: np.ndarray, rows: ClientRows, loss: bool = True):
    """loss of every pair (M, K'), or None without loss, plus what the
    gradient needs: the exponentials of the shifted logits (M, K', C, n), their
    sums over classes, the one-hot labels times row weights (M, G, C, n) and
    the hidden layer.
    """
    z, a = _grid_logits(spec, thetas, rows)
    z -= z.max(axis=-2, keepdims=True)
    e = np.exp(z)
    partition = e.sum(axis=-2, keepdims=True)
    target = rows.target(spec.classes)
    if not loss:
        return None, e, partition, target, a
    # cross-entropy of a row: log partition minus the shifted logit of its label
    losses = (rows.weights * np.log(partition[..., 0, :])).sum(axis=-1)
    losses -= np.einsum("...cn,...cn->...", target, z)
    losses += 0.5 * spec.l2_penalty * np.einsum("mkd,mkd->mk", thetas, thetas)
    return losses, e, partition, target, a


def grid_loss(spec: ModelSpec, thetas, rows: ClientRows) -> np.ndarray:
    """loss of every pair of the grid: (M, K') for thetas (M, K', d)."""
    return _grid_forward(spec, thetas, rows)[0]


def grid_loss_and_grad(spec: ModelSpec, thetas, rows: ClientRows,
                       loss: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """loss (M, K') and grad (M, K', d) of every pair of the grid in one pass;
    without loss (a training step's) the loss is None and not computed.

    thetas[i, k] is scored on the rows of client i: rows.x[i, 0] when G = 1,
    rows.x[i, k] when G = K'.
    """
    m, k, _ = thetas.shape
    losses, delta, partition, target, a = _grid_forward(spec, thetas, rows, loss)
    delta /= partition
    delta *= rows.weights[..., None, :]
    delta -= target  # (M, K', C, n): weighted softmax minus one-hot
    if spec.kind == SOFTMAX:
        g = _folded(delta, rows.x).reshape(m, k, -1)
    else:
        p, c, h = spec.input_dim, spec.classes, spec.hidden_dim
        w2 = thetas[..., (p + 1) * h :].reshape(m, k, c, h + 1)
        g2 = np.concatenate([delta @ a.swapaxes(-1, -2), delta.sum(axis=-1)[..., None]], axis=-1)
        # backprop through tanh; drop the bias column of W2
        da = (w2[..., :h].swapaxes(-1, -2) @ delta) * (1.0 - a * a)
        g = np.concatenate([_folded(da, rows.x).reshape(m, k, -1), g2.reshape(m, k, -1)], axis=-1)
    return losses, g + spec.l2_penalty * thetas


@functools.cache
def _hessian_layout(c: int, q: int):
    """softmax_hessian's pairs c <= e and j <= k (np.triu_indices), and the
    place of each Hessian entry ((c, j), (e, k)) among their products, flat."""
    def place(k):  # of the pair (i, j) or (j, i) among np.triu_indices(k)
        i, j = np.sort(np.indices((k, k)), axis=0)
        return i * (2 * k - i - 1) // 2 + j
    (ci, cj), (xi, xj) = np.triu_indices(c), np.triu_indices(q)
    return ci, cj, xi, xj, (place(c)[:, None, :, None] * len(xi) + place(q)[:, None, :]).ravel()


def softmax_hessian(spec: ModelSpec, thetas, rows: ClientRows) -> np.ndarray:
    """Hessians (M, d, d) of the softmax loss of a grid of one model per client (M, 1, d),
    for the oracle: sum_r A_r kron x_r x_r^T + l2 I, A_r = w_r (diag p_r - p_r p_r^T), placed
    from a product of distinct entries per client, (C(C+1)/2, n) @ (n, (p+1)(p+2)/2)."""
    _, probs, partition, _, _ = _grid_forward(spec, thetas, rows, loss=False)
    probs = (probs / partition)[:, 0]  # (M, C, n)
    m, d, x = len(probs), spec.dim, rows.x[:, 0]
    ci, cj, xi, xj, at = _hessian_layout(spec.classes, spec.input_dim + 1)
    a = np.take(probs * rows.weights[:, 0, None, :], ci, axis=1)
    a *= (ci == cj)[:, None] - np.take(probs, cj, axis=1)  # A_rce, c <= e
    outer = rows.memo("outer", lambda: x[..., xi] * x[..., xj])  # x_rj x_rk, j <= k
    h = np.take((a @ outer).reshape(m, -1), at, axis=1).reshape(m, d, d)
    h.reshape(m, -1)[:, :: d + 1] += spec.l2_penalty
    return h


def grid_predict(spec: ModelSpec, thetas, rows: ClientRows) -> np.ndarray:
    """Argmax class (M, K', n) of every pair's logits; ties go to the lowest
    class index.  Padding rows get a prediction too: mask them by weight."""
    return np.argmax(_grid_logits(spec, thetas, rows)[0], axis=-2)


# Entries (float64) of a block's largest array, 128 KiB.  A block's logits,
# exponentials and hidden layer hold block * K' * max(C, h) * n entries, and the
# rows it gathers block * (p + 1) * n; sizing blocks by these bounds every
# temporary whatever M and n are.  Below glibc's 128 KiB mmap threshold a
# temporary comes from the heap and its memory serves the next call, where a
# larger one is mapped, returned to the system when freed, and faulted in
# again by the next call.  Blocks this small also stay in cache.
BLOCK_ENTRIES = 2**14


def _blocks(spec: ModelSpec, rows: ClientRows, k: int, batch_size: int | None = None,
            epochs: int = 1) -> list[tuple[np.ndarray, np.ndarray, ClientRows | None]]:
    """Blocks of clients, their split sizes and their rows, largest first: a
    block pads little, and its clients with batches left lead it.  For a grid
    of K' = k models a block takes as many clients as BLOCK_ENTRIES allows at
    its largest split n, and at least one.

    A block whose clients are a contiguous run a..b-1 (every block when all
    splits have one size: the stable sort keeps client order) gets its rows as
    the view rows[a:b, :, :n], which keeps its memoized target for as long as
    the block is held; any other block gets None and gathers rows[ids, :, :n]
    at each use, so no copy is kept.

    A block whose n exceeds batch_size trains on mini-batches: it also holds
    its E epochs' row orders, k * E entries per row, and an epoch of gathered
    batches, k * (p + 1) per row over ceil(n / batch_size) batches."""
    counts = rows.counts
    by_size = np.argsort(-counts, kind="stable")
    per_row = max(k * max(spec.classes, spec.hidden_dim), spec.input_dim + 1)
    batched = k * max(spec.input_dim + 1, epochs)
    blocks, start = [], 0
    while start < len(by_size):
        n = counts[by_size[start]]
        entries = n * per_row
        if batch_size is not None and batch_size < n:
            entries = max(entries, -(-n // batch_size) * batch_size * batched)
        ids = by_size[start : start + max(1, BLOCK_ENTRIES // entries)]
        view = rows[ids[0] : ids[-1] + 1, :, :n] if (np.diff(ids) == 1).all() else None
        blocks.append((ids, counts[ids], view))
        start += len(ids)
    return blocks


def _grid_losses(spec: ModelSpec, models: np.ndarray, rows: ClientRows,
                 blocks=None) -> np.ndarray:
    """(M, K') losses on every client's rows, block by block (by default
    _blocks' for K'): models (K', d) are scored on every client, a grid
    (M, K', d) scores models[i] on client i."""
    losses = np.empty((rows.x.shape[0], models.shape[-2]))
    for ids, counts, part in blocks or _blocks(spec, rows, models.shape[-2]):
        grid = models[ids] if models.ndim == 3 else np.broadcast_to(models, (len(ids), *models.shape))
        losses[ids] = grid_loss(spec, grid, rows[ids, :, : counts[0]] if part is None else part)
    return losses


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
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
