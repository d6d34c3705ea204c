"""Synthetic heterogeneous data and non-IID partitioning.

The mixture generator produces grouped clients whose class-conditional
feature clusters sit on a circle with minimum pairwise distance equal to
``separation`` (deterministic geometry; randomness enters only through noise
draws and label order).  With ``permute_labels`` the groups share the same
feature clusters but relabel them by cyclic shifts, so no single model can
fit two groups at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import BLOCK_ENTRIES, ClientRows, ModelSpec, stack_rows
from .numerics import STREAM_DATA, STREAM_SPLIT, Streams


@dataclass
class Dataset:
    features: np.ndarray  # (n, p) float64
    labels: np.ndarray  # (n,) int64 in [0, class_count)
    class_count: int

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.class_count)


@dataclass
class ClientDataset:
    train: Dataset
    validation: Dataset
    test: Dataset | None = None  # a held-out draw (mixture data); partitions have none
    group: int | None = None  # latent group label for mixture clients


@dataclass(frozen=True)
class Problem:
    """A run's M clients, each split stacked once for the grid kernel.
    problem[i] is client i's unpadded splits, for readers of one client."""

    train: ClientRows
    validation: ClientRows
    test: ClientRows | None  # None for partitioned data
    classes: int
    groups: np.ndarray | None = None  # (M,) latent group of each mixture client

    def __post_init__(self):
        for rows in (self.train, self.validation, self.test):
            if rows is not None and not np.isfinite(rows.x).all():
                raise ValueError("features contain non-finite entries")

    @classmethod
    def from_clients(cls, spec: ModelSpec, clients: list[ClientDataset]) -> "Problem":
        """Stack the train and validation splits of per-client datasets."""
        train, validation = (stack_rows(spec, [(d.features, d.labels) for d in split])
                             for split in zip(*((c.train, c.validation) for c in clients)))
        return cls(train, validation, None, spec.classes)

    def __len__(self) -> int:
        return len(self.train.x)

    def __getitem__(self, i: int) -> ClientDataset:
        def view(rows: ClientRows) -> Dataset:
            n = np.count_nonzero(rows.weights[i, 0])
            return Dataset(rows.x[i, 0, :n, :-1], rows.labels[i, 0, :n], self.classes)

        return ClientDataset(view(self.train), view(self.validation),
                             None if self.test is None else view(self.test),
                             None if self.groups is None else int(self.groups[i]))


@dataclass
class DataConfig:
    """Where the clients come from: a Gaussian mixture or a partitioned CSV.

    Values are checked here; checks that need M or the CSV's rows are made
    where those are known (gen_mixture, the partitioners).  Errors name the
    config key.
    """

    dataset: str = "mixture"
    # mixture
    groups: int = 1
    clients_per_group: list[int] | None = None  # None: M spread evenly
    input_dim: int = 2
    classes: int = 2
    separation: float = 1.0
    noise_std: float = 0.2
    samples_per_client: int = 100
    permute_labels: bool = False
    # csv
    csv_path: str = ""
    partition: str = "dirichlet"
    dirichlet_alpha: float = 0.5
    classes_per_client: int = 2

    def __post_init__(self):
        if self.dataset not in ("mixture", "csv"):
            raise ConfigError(f"dataset must be mixture or csv, got {self.dataset!r}")
        if self.groups < 1:
            raise ConfigError(f"mixture.G must be >= 1, got {self.groups}")
        if self.input_dim < 1:
            raise ConfigError(f"mixture.input_dim must be >= 1, got {self.input_dim}")
        if self.classes < 2:
            raise ConfigError(f"mixture.classes must be >= 2, got {self.classes}")
        if self.separation <= 0:
            raise ConfigError(f"mixture.sep must be positive, got {self.separation:g}")
        if self.noise_std <= 0:
            raise ConfigError(f"mixture.noise must be positive, got {self.noise_std:g}")
        if self.samples_per_client < 5:
            raise ConfigError(f"mixture.n_per_client must be >= 5, got {self.samples_per_client}")
        if self.permute_labels and self.groups > self.classes:
            raise ConfigError(
                "mixture.permute_labels relabels by cyclic shifts, so it needs "
                f"mixture.G <= mixture.classes, got {self.groups} > {self.classes}")
        # the cluster means of gen_mixture: one set of C, or one per group
        count = self.classes if self.permute_labels else self.groups * self.classes
        extent = (self.separation * (count - 1) if self.input_dim == 1
                  else _circle_radius(count, self.separation))
        if not math.isfinite(extent):
            raise ConfigError(f"mixture.sep={self.separation:g} places the {count} cluster "
                              "means beyond the float range")
        if self.partition not in ("dirichlet", "pathological"):
            raise ConfigError(f"unknown partition {self.partition!r}")
        if self.dataset == "csv" and not self.csv_path:
            raise ConfigError("csv dataset requires csv.path")


def _circle_radius(count: int, separation: float) -> float:
    """The circle on which count >= 2 evenly spaced points lie separation apart."""
    return separation / (2.0 * math.sin(math.pi / count))


def _circle_means(count: int, input_dim: int, separation: float) -> np.ndarray:
    """count >= 2 cluster centers with minimum pairwise distance = separation."""
    means = np.zeros((count, input_dim))
    if input_dim == 1:
        means[:, 0] = separation * np.arange(count)
        return means
    radius = _circle_radius(count, separation)
    angles = 2.0 * math.pi * np.arange(count) / count
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    return means


def gen_mixture(data: DataConfig, M: int, seed: int,
                validation_fraction: float = 0.2) -> Problem:
    """Sample M grouped clients; clients within a group are i.i.d. draws.

    Client i orders its labels and draws its noise from stream
    (STREAM_DATA, i, 0), splits its rows with (STREAM_DATA, i, 1) and draws its
    test rows, likewise, from (STREAM_DATA, i, 2).  The 3M streams are keyed in
    one pass; only their draws run client by client, the rest over chunks of
    clients.
    """
    G = data.groups
    sizes = data.clients_per_group or [M // G + (g < M % G) for g in range(G)]
    if len(sizes) != G:
        raise ConfigError(f"mixture.clients_per_group must list one count per group "
                          f"(mixture.G={G}), got {sizes}")
    if min(sizes) < 1:
        raise ConfigError(f"each of the mixture.G groups needs a client: "
                          f"mixture.clients_per_group entries must be positive, got {sizes}")
    if sum(sizes) != M:
        raise ConfigError(f"mixture.clients_per_group must sum to M={M}, got {sizes}")
    C, p, n = data.classes, data.input_dim, data.samples_per_client
    if data.permute_labels:
        # shared feature clusters, per-group cyclic relabeling
        shift = (np.arange(C) - np.arange(G)[:, None]) % C
        means = _circle_means(C, p, data.separation)[shift]
    else:
        means = _circle_means(G * C, p, data.separation).reshape(G, C, p)
    # means[g, label]: the cluster center of label in group g, (G, C, p)

    # every client has these class counts, so the same split sizes
    counts = np.full(C, n // C)
    counts[: n % C] += 1
    base = np.repeat(np.arange(C), counts)  # a client's labels are base[permutation(n)]
    present = counts[counts > 0]
    v, take = _split_rule(present, validation_fraction)
    stratified = take is not None
    # the spans a split permutes: each class's rows grouped by class, or all rows
    spans, take = (present, take) if stratified else (np.array([n]), np.array([v]))
    span_start = np.repeat(np.cumsum(spans) - spans, take)  # (v,)
    # span, its validation rows and where they end in a client's (v,) picks
    draws = list(zip(spans.tolist(), take.tolist(), np.cumsum(take).tolist()))
    groups = np.repeat(np.arange(G), sizes)
    # each client overwrites all of x but the bias column of ones
    stacks = [ClientRows(np.ones((M, 1, k, p + 1)), np.zeros((M, 1, k), dtype=np.int64),
                         np.full((M, 1, k), 1.0 / k)) for k in (n - v, v, n)]
    paths = np.column_stack([np.full(3 * M, STREAM_DATA), np.arange(3 * M) // 3,
                             np.arange(3 * M) % 3])
    streams = Streams(seed, paths)  # stream 3i + j is (STREAM_DATA, i, j)

    def sample(group, order, noise):
        """Features means[group, labels] + noise_std * noise of labels base[order]."""
        labels = base[order]
        noise *= data.noise_std
        noise += means[group, labels]
        return noise, labels

    chunk = max(1, BLOCK_ENTRIES // (n * p))  # clients whose noise fills one block
    for start in range(0, M, chunk):
        stop = min(start + chunk, M)
        order, test_order = (np.empty((stop - start, n), dtype=np.int64) for _ in range(2))
        noise, test_noise = (np.empty((stop - start, n, p)) for _ in range(2))
        pick = np.empty((stop - start, v), dtype=np.int64)
        for j, i in enumerate(range(start, stop)):
            gen = streams[3 * i]
            order[j] = gen.permutation(n)
            noise[j] = gen.normal(size=(n, p))
            gen = streams[3 * i + 1]
            for span, k, end in draws:
                pick[j, end - k : end] = gen.permutation(span)[:k]
            gen = streams[3 * i + 2]
            test_order[j] = gen.permutation(n)
            test_noise[j] = gen.normal(size=(n, p))
        group = groups[start:stop, None]
        x, y = sample(group, order, noise)
        held = span_start + pick
        if stratified:  # positions among the rows grouped by class, in row order
            held = np.take_along_axis(np.argsort(y, axis=1, kind="stable"), held, axis=1)
        in_val = np.zeros((stop - start, n), dtype=bool)
        np.put_along_axis(in_val, held, True, axis=1)
        train = np.nonzero(~in_val)[1].reshape(-1, n - v)
        val = np.nonzero(in_val)[1].reshape(-1, v)
        parts = [(np.take_along_axis(x, idx[:, :, None], axis=1), np.take_along_axis(y, idx, axis=1))
                 for idx in (train, val)]
        parts.append(sample(group, test_order, test_noise))
        for rows, (features, labels) in zip(stacks, parts):
            rows.x[start:stop, 0, :, :p] = features
            rows.labels[start:stop, 0] = labels
    return Problem(*stacks, classes=C, groups=groups)


def _finalize_clients(
    base: Dataset,
    assignment: list[list[int]],
    seed: int,
    validation_fraction: float,
) -> list[ClientDataset]:
    """Client i keeps base's rows assignment[i], in increasing order, split
    with stream (STREAM_DATA, STREAM_SPLIT, i); the M streams are keyed in one
    pass.  First, single rows move from the largest client to the smallest
    until every client has at least 2."""
    sizes = [len(a) for a in assignment]
    while min(sizes) < 2:
        donor, needy = int(np.argmax(sizes)), int(np.argmin(sizes))
        if sizes[donor] <= 2:
            raise ConfigError("base dataset too small to give every client 2 samples")
        assignment[needy].append(assignment[donor].pop())
        sizes[donor] -= 1
        sizes[needy] += 1
    streams = Streams(seed, [(STREAM_DATA, STREAM_SPLIT, i) for i in range(len(assignment))])
    clients = []
    for i, idx in enumerate(assignment):
        rows = np.sort(idx)
        train, val = split_indices(base.labels[rows], validation_fraction, streams[i])
        clients.append(ClientDataset(base.subset(rows[train]), base.subset(rows[val])))
    return clients


def dirichlet_partition(
    base: Dataset, alpha: float, M: int, seed: int, validation_fraction: float = 0.2
) -> list[ClientDataset]:
    """Per-class Dirichlet(alpha) split of a base dataset over M clients, drawn
    from stream (STREAM_DATA,)."""
    if alpha <= 0:
        raise ConfigError(f"dirichlet.alpha must be positive, got {alpha:g}")
    if M < 1:
        raise ConfigError("M must be >= 1")
    if base.n < M * base.class_count:
        raise ConfigError(f"M={M} clients need at least M * classes = {M * base.class_count} "
                          f"rows, the dataset has {base.n}")
    rng = Streams(seed, [(STREAM_DATA,)])[0]
    assignment: list[list[int]] = [[] for _ in range(M)]
    for c in range(base.class_count):
        idx = np.flatnonzero(base.labels == c)
        if idx.size == 0:
            continue
        idx = idx[rng.permutation(idx.size)]
        proportions = rng.dirichlet(np.full(M, alpha))
        cuts = np.floor(np.cumsum(proportions) * idx.size).astype(int)[:-1]
        for client, part in enumerate(np.split(idx, cuts)):
            assignment[client].extend(part.tolist())
    return _finalize_clients(base, assignment, seed, validation_fraction)


def pathological_partition(
    base: Dataset, classes_per_client: int, M: int, seed: int, validation_fraction: float = 0.2
) -> list[ClientDataset]:
    """Give each client shards from exactly classes_per_client classes, drawn
    from stream (STREAM_DATA,)."""
    C = base.class_count
    if classes_per_client < 1 or classes_per_client >= C:
        raise ConfigError(f"pathological.classes_per_client must lie in [1, {C}), got "
                          f"{classes_per_client}")
    if classes_per_client * M < C:
        raise ConfigError(f"pathological.classes_per_client * M must cover all {C} classes")
    rng = Streams(seed, [(STREAM_DATA,)])[0]
    order = rng.permutation(C)
    # client i wants classes order[(i * classes_per_client + j) % C], j < classes_per_client
    wanted = order[np.arange(M * classes_per_client).reshape(M, -1) % C]
    takes = (wanted[:, :, None] == np.arange(C)).any(axis=1)  # (M, C)
    assignment: list[list[int]] = [[] for _ in range(M)]
    for c in range(C):
        idx = np.flatnonzero(base.labels == c)
        takers = np.flatnonzero(takes[:, c])
        if idx.size == 0 or takers.size == 0:
            continue
        idx = idx[rng.permutation(idx.size)]
        for client, shard in zip(takers, np.array_split(idx, takers.size)):
            assignment[client].extend(shard.tolist())
    return _finalize_clients(base, assignment, seed, validation_fraction)


def _split_rule(counts: np.ndarray, fraction: float) -> tuple[int, np.ndarray | None]:
    """Validation sizes of a split of rows whose classes have counts > 0 rows:
    (v, take), take[c] the validation rows of class c, or None when the split
    is not stratified and validation is the first v rows of one permutation.

    Validation aims at v = ceil(fraction * n) rows, clipped to [1, n - 1].
    When every class has >= 2 rows the split is stratified: class c gives
    floor(fraction * n_c) rows, and the classes then give one more row each,
    in order of largest remainder fraction * n_c - floor(fraction * n_c) (ties
    to the lower class), round after round, until v is reached.  No class
    gives more than n_c - 1 rows, so every class keeps a train row; when the
    classes run out of spare rows validation stays below v.  At fraction 0.9
    with classes of 2 and 10 rows, v is 11 and validation gets 1 + 9 = 10.
    """
    n = int(counts.sum())
    if n < 2:
        raise ConfigError("cannot split a dataset with fewer than 2 samples")
    if not (0.0 < fraction < 1.0):
        raise ConfigError(f"validation_fraction must lie in (0, 1), got {fraction:g}")
    v_total = min(max(1, math.ceil(fraction * n)), n - 1)
    if counts.min() < 2:
        return v_total, None
    caps = counts - 1
    take = np.floor(fraction * counts).astype(np.int64)  # <= caps, as fraction < 1
    order = np.argsort(take - fraction * counts, kind="stable")
    short = v_total - int(take.sum())  # >= 0: take <= fraction * counts
    while short > 0 and np.any(take < caps):
        bump = order[take[order] < caps[order]][:short]
        take[bump] += 1
        short -= bump.size
    return int(take.sum()), take


def split_indices(labels: np.ndarray, fraction: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint train and validation row indices, each in increasing order,
    sized by _split_rule.  A stratified split draws one permutation per
    present class, in class order, and class c's validation rows are the
    first take[c] of its rows in that order; otherwise validation is the
    first v rows of one permutation of all rows.
    """
    present, counts = np.unique(labels, return_counts=True)
    v, take = _split_rule(counts, fraction)
    val_mask = np.zeros(labels.size, dtype=bool)
    if take is None:
        val_mask[rng.permutation(labels.size)[:v]] = True
    else:
        for c, k in zip(present, take):
            idx = np.flatnonzero(labels == c)
            val_mask[idx[rng.permutation(idx.size)][:k]] = True
    return np.flatnonzero(~val_mask), np.flatnonzero(val_mask)


def load_csv(path) -> Dataset:
    """Read a header-less CSV of p float columns plus a final integer label."""
    rows: list[list[float]] = []
    labels: list[int] = []
    width = None
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # on \n, \r\n and \r, as text mode reads them
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: row {lineno}: not UTF-8 text") from exc
        if not line:
            continue
        parts = line.split(",")
        if width is None:
            width = len(parts)
            if width < 2:
                raise ValueError(f"{path}: row {lineno}: need at least one feature and a label")
        elif len(parts) != width:
            raise ValueError(f"{path}: row {lineno}: expected {width} columns, got {len(parts)}")
        try:
            feats = [float(v) for v in parts[:-1]]
        except ValueError as exc:
            raise ValueError(f"{path}: row {lineno}: non-numeric feature") from exc
        raw_label = parts[-1].strip()
        try:
            label = int(raw_label)
        except ValueError as exc:
            raise ValueError(f"{path}: row {lineno}: non-integer label {raw_label!r}") from exc
        if label < 0:
            raise ValueError(f"{path}: row {lineno}: negative label")
        rows.append(feats)
        labels.append(label)
    if not rows:
        raise ValueError(f"{path}: empty file")
    return Dataset(np.array(rows), np.array(labels), class_count=max(labels) + 1)
