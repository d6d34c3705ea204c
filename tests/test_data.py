"""Mixture generation, non-IID partitioning, splits, and CSV loading."""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedfew.cli import _read_pairs, config_from_pairs
from fedfew.data import (
    ClientDataset,
    DataConfig,
    Dataset,
    _circle_means,
    dirichlet_partition,
    gen_mixture,
    load_csv,
    pathological_partition,
    split_indices,
)
from fedfew.errors import ConfigError
from fedfew.federation import build_problem, per_client_optimum
from fedfew.metrics import accuracy
from fedfew.model import ModelSpec, stack_rows
from fedfew.numerics import STREAM_DATA
from streams import stream


def balanced_base(classes: int, per_class: int) -> Dataset:
    n = classes * per_class
    # unique feature values so partition tests can track sample identity
    return Dataset(np.arange(n, dtype=float).reshape(n, 1),
                   np.repeat(np.arange(classes), per_class), classes)


def all_rows(client: ClientDataset) -> np.ndarray:
    return np.concatenate([client.train.features[:, 0], client.validation.features[:, 0]])


def client_by_client(data: DataConfig, M: int, seed: int, fraction: float):
    """gen_mixture's clients drawn the simple way: one generator per stream,
    and split_indices on each client.  Yields (train, validation, test, group)
    of (features, labels) pairs."""
    G, C, p, n = data.groups, data.classes, data.input_dim, data.samples_per_client
    sizes = data.clients_per_group or [M // G + (g < M % G) for g in range(G)]
    if data.permute_labels:
        means = _circle_means(C, p, data.separation)[(np.arange(C) - np.arange(G)[:, None]) % C]
    else:
        means = _circle_means(G * C, p, data.separation).reshape(G, C, p)
    base = np.sort(np.arange(n) % C)  # balanced class counts, smaller classes last

    def draw(group, stream):
        labels = base[stream.permutation(n)]
        return means[group, labels] + data.noise_std * stream.normal(size=(n, p)), labels

    for i, group in enumerate(np.repeat(np.arange(G), sizes).tolist()):
        x, y = draw(group, stream(seed, STREAM_DATA, i, 0))
        train, val = split_indices(y, fraction, stream(seed, STREAM_DATA, i, 1))
        test = draw(group, stream(seed, STREAM_DATA, i, 2))
        yield (x[train], y[train]), (x[val], y[val]), test, group


class TestGenMixture:
    def test_deterministic(self):
        data = DataConfig(groups=2, clients_per_group=[2, 3], input_dim=3,
                          classes=2, samples_per_client=40)
        a = gen_mixture(data, 5, 5)
        b = gen_mixture(data, 5, 5)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.train.features, cb.train.features)
            np.testing.assert_array_equal(ca.test.features, cb.test.features)
            np.testing.assert_array_equal(ca.train.labels, cb.train.labels)

    def test_client_counts_and_groups(self):
        data = DataConfig(groups=3, clients_per_group=[2, 1, 2],
                          input_dim=2, classes=3, samples_per_client=30)
        clients = gen_mixture(data, 5, 0)
        assert [c.group for c in clients] == [0, 0, 1, 2, 2]
        for c in clients:
            assert c.train.n + c.validation.n == 30
            assert c.test.n == 30

    def test_separable_single_group_is_fit_perfectly(self):
        data = DataConfig(groups=1, clients_per_group=[3], input_dim=3, classes=2,
                          separation=2.0, noise_std=0.1, samples_per_client=80)
        mspec = ModelSpec("softmax-regression", input_dim=3, classes=2, l2_penalty=1e-4)
        train = gen_mixture(data, 3, 1).train
        for i in range(3):
            theta = per_client_optimum(mspec, train, i).theta
            assert accuracy(mspec, theta[None], train[i:i + 1])[0] >= 0.99

    def test_permuted_labels_are_exactly_contradictory(self):
        # shared clusters, swapped labels: pooling balanced groups gives each
        # feature cluster an exactly 50/50 label split
        data = DataConfig(groups=2, clients_per_group=[2, 2], input_dim=3, classes=2,
                          separation=2.0, noise_std=0.2, samples_per_client=100,
                          permute_labels=True)
        clients = gen_mixture(data, 4, 0)
        feats = np.vstack([np.vstack([c.train.features, c.validation.features]) for c in clients])
        labels = np.concatenate([np.concatenate([c.train.labels, c.validation.labels])
                                 for c in clients])
        # cluster 0 center has angle 0, cluster 1 sits opposite; sign of the
        # first coordinate identifies the cluster at 10 sigma separation
        cluster = (feats[:, 0] < 0).astype(int)
        for j in (0, 1):
            members = labels[cluster == j]
            assert np.sum(members == 0) == np.sum(members == 1)
        # a converged single model stays near chance on the pooled data
        mspec = ModelSpec("softmax-regression", input_dim=3, classes=2, l2_penalty=1e-4)
        pooled = stack_rows(mspec, [(feats, labels)])
        theta = per_client_optimum(mspec, pooled, 0).theta
        assert 0.45 <= accuracy(mspec, theta[None], pooled)[0] <= 0.60

    def test_permutation_requires_enough_classes(self):
        with pytest.raises(ConfigError, match="mixture.permute_labels"):
            DataConfig(groups=3, clients_per_group=[1, 1, 1], classes=2, permute_labels=True)

    def test_group_counts_must_match(self):
        with pytest.raises(ConfigError, match="mixture.clients_per_group.*one count per group"):
            gen_mixture(DataConfig(groups=2, clients_per_group=[4]), 4, 0)

    @pytest.mark.parametrize("groups, per_group, M, message", [
        (2, [2, 3], 4, "sum to M=4"),
        (2, [0, 4], 4, "must be positive"),
        (3, None, 2, "must be positive"),  # balanced over G: one group gets no client
    ])
    def test_group_counts_must_cover_M(self, groups, per_group, M, message):
        data = DataConfig(groups=groups, clients_per_group=per_group)
        with pytest.raises(ConfigError, match=f"mixture.clients_per_group.*{message}"):
            gen_mixture(data, M, 0)

    @pytest.mark.parametrize("data, M, fraction", [
        (DataConfig(groups=3, classes=3, input_dim=4, samples_per_client=60,
                    permute_labels=True), 70, 0.2),  # two chunks
        (DataConfig(groups=2, classes=5, input_dim=30, samples_per_client=11), 101, 0.45),
        (DataConfig(groups=2, clients_per_group=[2, 7], classes=4, input_dim=2,
                    samples_per_client=33), 9, 0.5),  # uneven class counts
        (DataConfig(groups=3, classes=3, samples_per_client=5, permute_labels=True),
         6, 0.9),  # a class of 1 row: one permutation of all rows
        (DataConfig(classes=7, input_dim=3, samples_per_client=5), 4, 0.2),  # absent classes
        (DataConfig(groups=2, input_dim=1, samples_per_client=40), 5, 0.01),
    ])
    @pytest.mark.parametrize("seed", [3, 2**32, 2**64 - 1])  # one and two seed words
    def test_chunks_match_client_by_client_generation(self, data, M, fraction, seed):
        problem = gen_mixture(data, M, seed, fraction)
        assert len(problem) == M
        for client, expected in zip(problem, client_by_client(data, M, seed, fraction)):
            *splits, group = expected
            assert client.group == group
            for split, (x, y) in zip((client.train, client.validation, client.test), splits):
                np.testing.assert_array_equal(split.features, x)
                np.testing.assert_array_equal(split.labels, y)

    def test_balanced_groups_when_counts_are_not_given(self):
        clients = gen_mixture(DataConfig(groups=3, samples_per_client=10), 8, 0)
        assert [c.group for c in clients] == [0, 0, 0, 1, 1, 1, 2, 2]

    @pytest.mark.parametrize("field, value, key", [
        ("input_dim", 0, "mixture.input_dim"),
        ("classes", 1, "mixture.classes"),
        ("separation", 0.0, "mixture.sep"),
    ])
    def test_bad_mixture_value_names_its_key(self, field, value, key):
        with pytest.raises(ConfigError, match=key):
            DataConfig(**{field: value})


class TestDirichletPartition:
    def test_true_partition(self):
        base = balanced_base(4, 50)
        clients = dirichlet_partition(base, 0.5, 5, 3)
        seen = np.sort(np.concatenate([all_rows(c) for c in clients]))
        np.testing.assert_array_equal(seen, base.features[:, 0])

    def test_alpha_validation(self):
        with pytest.raises(ConfigError):
            dirichlet_partition(balanced_base(2, 50), 0.0, 4, 0)
        with pytest.raises(ConfigError):
            dirichlet_partition(balanced_base(2, 50), -1.0, 4, 0)

    def test_every_client_usable(self):
        # clients emptied by extreme skew are repaired to at least 2 samples
        base = balanced_base(2, 40)
        for seed in range(20):
            clients = dirichlet_partition(base, 0.05, 8, seed)
            assert all(c.train.n >= 1 and c.validation.n >= 1 for c in clients)

    def test_high_alpha_concentrates(self):
        # Monte-Carlo oracle: Dir(1000) over 4 clients keeps every client's
        # share of every class inside 1/4 +- 20% (checked over 100 seeds)
        base = balanced_base(4, 2000)
        for seed in range(100):
            for c in dirichlet_partition(base, 1000.0, 4, seed):
                labels = np.concatenate([c.train.labels, c.validation.labels])
                for cls in range(4):
                    share = np.sum(labels == cls) / 2000
                    assert 0.2 <= share <= 0.3

    def test_low_alpha_skews(self):
        # Monte-Carlo oracle: with alpha=0.1 at least one client is >60%
        # single-class in >=95 of 100 seeds (observed: 99)
        base = balanced_base(10, 200)
        hits = 0
        for seed in range(100):
            for c in dirichlet_partition(base, 0.1, 10, seed):
                labels = np.concatenate([c.train.labels, c.validation.labels])
                counts = np.bincount(labels, minlength=10)
                if counts.max() / counts.sum() > 0.6:
                    hits += 1
                    break
        assert hits >= 95

    def test_deterministic(self):
        base = balanced_base(3, 30)
        a = dirichlet_partition(base, 0.5, 4, 11)
        b = dirichlet_partition(base, 0.5, 4, 11)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.train.features, cb.train.features)


class TestPathologicalPartition:
    def test_exact_class_count_per_client(self):
        base = balanced_base(10, 30)
        clients = pathological_partition(base, 2, 10, 4)
        union = set()
        for c in clients:
            labels = set(np.concatenate([c.train.labels, c.validation.labels]).tolist())
            assert len(labels) == 2
            union |= labels
        assert union == set(range(10))

    def test_true_partition(self):
        base = balanced_base(6, 20)
        clients = pathological_partition(base, 2, 6, 9)
        seen = np.sort(np.concatenate([all_rows(c) for c in clients]))
        np.testing.assert_array_equal(seen, base.features[:, 0])

    def test_infeasible_counts_rejected(self):
        base = balanced_base(10, 10)
        with pytest.raises(ConfigError):
            pathological_partition(base, 2, 4, 0)  # 8 slots < 10 classes
        with pytest.raises(ConfigError):
            pathological_partition(base, 10, 4, 0)  # must be < class count

    def test_deterministic(self):
        base = balanced_base(8, 16)
        a = pathological_partition(base, 2, 8, 2)
        b = pathological_partition(base, 2, 8, 2)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(all_rows(ca), all_rows(cb))


class TestSplitIndices:
    def test_sizes(self):
        d = balanced_base(2, 5)  # n = 10
        train, val = split_indices(d.labels, 0.2, stream(0))
        assert (train.size, val.size) == (8, 2)

    def test_stratified_proportions(self):
        labels = balanced_base(4, 25).labels  # 25 per class
        train, val = split_indices(labels, 0.2, stream(1))
        for cls in range(4):
            n_val = np.sum(labels[val] == cls)
            n_train = np.sum(labels[train] == cls)
            assert abs(n_val - 0.2 * (n_val + n_train)) <= 1.0

    def test_disjoint_increasing_and_complete(self):
        train, val = split_indices(balanced_base(2, 20).labels, 0.3, stream(2))
        np.testing.assert_array_equal(np.sort(np.concatenate([train, val])), np.arange(40))
        assert np.all(np.diff(train) > 0) and np.all(np.diff(val) > 0)

    def test_minimum_size(self):
        with pytest.raises(ConfigError):
            split_indices(np.zeros(1, dtype=int), 0.2, stream(0))
        with pytest.raises(ConfigError):
            split_indices(balanced_base(2, 5).labels, 1.0, stream(0))

    def test_validation_never_empty(self):
        _, val = split_indices(balanced_base(2, 2).labels, 0.01, stream(0))
        assert val.size >= 1

    def test_a_class_at_its_cap_gives_fewer(self):
        # ceil(0.9 * 12) = 11, but each class keeps a train row: 1 + 9 = 10
        labels = np.repeat([0, 1], [2, 10])
        train, val = split_indices(labels, 0.9, stream(3))
        assert np.bincount(labels[val]).tolist() == [1, 9]
        assert np.bincount(labels[train]).tolist() == [1, 1]

    def test_spare_rows_go_round_after_round(self):
        # ceil(0.9 * 106) = 96; the three classes of 2 are at their cap after
        # floor(1.8) = 1, so the class of 100 gives 90 and then three more
        labels = np.repeat([0, 1, 2, 3], [2, 2, 2, 100])
        _, val = split_indices(labels, 0.9, stream(4))
        assert np.bincount(labels[val]).tolist() == [1, 1, 1, 93]


def client_digest(clients) -> str:
    """sha256 of every split's shape, features and labels (little-endian) and
    the group of each client, in order."""
    h = hashlib.sha256()
    for c in clients:
        for split in (c.train, c.validation, c.test):
            if split is None:
                h.update(b"none")
                continue
            h.update(repr(split.features.shape).encode())
            h.update(split.features.astype("<f8").tobytes())
            h.update(split.labels.astype("<i8").tobytes())
        h.update(repr(c.group).encode())
    return h.hexdigest()


CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


@pytest.fixture(scope="module")
def csv_data(tmp_path_factory):
    """scripts/make_csv_dataset.py's CSV with its default arguments."""
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    subprocess.run([sys.executable, str(CONFIGS.parent / "make_csv_dataset.py"), str(path)],
                   check=True, capture_output=True)
    return path


class TestPinnedBytes:
    """build_problem's clients, byte for byte: any change to a stream, its
    draw order, the row order or the split rule changes these digests."""

    @pytest.mark.parametrize("config, pairs, digest", [
        ("group_recovery.cfg", {},
         "27b9ee54eae350ec975ea7f0f7cfee3eaea7425e53f38020a7d8e57141b86474"),
        ("group_recovery.cfg", {"seed": "31"},
         "acf5628b81f53b2202a82bb65e6c942a79c09ae7a223fd3bf23716939bc64e89"),
        ("group_recovery.cfg", {"mixture.input_dim": "1"},
         "3826c1de8bdf1f78d742e093b44e47aca0c29e5a36020daf92edc62dea2ddfda"),
        ("group_recovery.cfg", {"mixture.input_dim": "1", "seed": "31"},
         "316f8a1185adec986d2e2212049b5a18251167ffcef78842c0bc1d1aa9782683"),
        ("group_recovery.cfg", {"validation_fraction": "0.9"},
         "927bd9d74037eed2c890b97adb6872d4563f5f5538088626bd3d02101ffa8a7a"),
        ("dirichlet_csv.cfg", {},
         "20b63422fd9c43dd8a8d5d9d1a206629e1e948eadd3a601651098e81ab48f070"),
        ("dirichlet_csv.cfg", {"partition": "pathological"},
         "9920f95115217b62ad21b3ecfcd05a9a47eca61b7be38fb99cb2be55d77f79e1"),
        # class counts 2/2/1: the unstratified split
        ("group_recovery.cfg", {"mixture.n_per_client": "5"},
         "5b847e4dde6a454c1081f446bb895fb92ec20ba05e428fe65666946bb71d107a"),
        # more clients than one generation chunk
        ("group_recovery.cfg", {"M": "300"},
         "741e2af89680715b2aa0df98e2e6492e26700de55e96ff1c99603c97de2b0e5d"),
        # uneven class counts (9/8/8/8) and one cluster set per group
        ("group_recovery.cfg", {"mixture.permute_labels": "0", "mixture.G": "2",
                                "mixture.classes": "4", "mixture.n_per_client": "33"},
         "e8b2043761746e13cce34d9ae2876570ed65ebc46f6b7e223f73460d233dfc60"),
        # a seed of two 32-bit words
        ("group_recovery.cfg", {"seed": "18446744073709551615"},
         "438654064f2a587c2948f83ad64663409f28cc07238fbb8b9854c0a43c0b1afa"),
    ])
    def test_clients_match_their_digest(self, csv_data, config, pairs, digest):
        values = {**_read_pairs(CONFIGS / config), **pairs}
        if values.get("dataset") == "csv":
            values["csv.path"] = str(csv_data)
        clients, _ = build_problem(config_from_pairs(values))
        assert client_digest(clients) == digest


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1.0,2.0,0\n0.5,1.5,1\n0.0,0.0,0\n")
        d = load_csv(path)
        assert (d.n, d.input_dim, d.class_count) == (3, 2, 2)
        np.testing.assert_allclose(d.features[1], [0.5, 1.5])

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"1.0,0\r\n2.0,1\r\n")
        d = load_csv(path)
        assert d.n == 2 and d.class_count == 2

    def test_sparse_labels_define_class_count(self, tmp_path):
        path = tmp_path / "sparse.csv"
        path.write_text("0.1,0\n0.2,5\n0.3,2\n")
        assert load_csv(path).class_count == 6

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0\nx,1\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(path)

    def test_non_integer_label_names_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("1.0,0\n2.0,1.5\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")
