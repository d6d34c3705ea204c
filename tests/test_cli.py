"""Config parsing, output files, determinism, ablation, exit codes."""

import hashlib
import math
import subprocess
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from fedfew import cli, model
from fedfew.cli import (
    FLOAT,
    KEYS,
    _read_pairs,
    canonical_text,
    config_from_pairs,
    main,
    parse_config,
    run_ablation,
    run_experiment,
)
from fedfew.data import DataConfig, Dataset
from fedfew.errors import ConfigError
from fedfew.federation import ExperimentConfig, ModelConfig
from fedfew.numerics import Streams

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"
# the benchmark's three mini-batch MLP baselines
MINI_BATCH_MLP = {"model.kind": "mlp-1hidden", "batch_size": "8", "E": "2", "T": "40"}

BASE = """\
method=fedfew
M=6
K=2
T=8
seed=11
mixture.G=2
mixture.classes=2
mixture.input_dim=3
mixture.n_per_client=40
learning_rate=0.5
"""


def readme_config_rows():
    """The table lines of README's config section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("|")]


def field_default(attr):
    """The default of the config field a key's attr names (MISSING: none)."""
    part, _, name = attr.rpartition(".")
    owner = {"": ExperimentConfig, "model": ModelConfig, "data": DataConfig}[part]
    return {f.name: f.default for f in fields(owner)}[name]


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def with_keys(text, **pairs):
    """text with the given key=value pairs set, replacing lines of the same key."""
    keys = dict(line.split("=", 1) for line in text.splitlines())
    keys.update(pairs)
    return "".join(f"{key}={value}\n" for key, value in keys.items())


def write_csv_data(path, classes=3, per_class=40, seed=0, spread=3.0):
    """Two features and a label per row: class c is a unit Gaussian at spread * c."""
    rng = np.random.default_rng(seed)
    rows = [f"{x[0]:.6f},{x[1]:.6f},{cls}" for cls in range(classes)
            for x in rng.normal(size=(per_class, 2)) + spread * cls]
    path.write_text("\n".join(rows) + "\n")
    return path


# values found only once the data or model is built, each with the key or
# field its error names
BAD_BUILD_VALUES = [
    ({"mixture.noise": "-1"}, "mixture.noise"),
    ({"mixture.n_per_client": "4"}, "mixture.n_per_client"),
    ({"mixture.clients_per_group": "3,3,3"}, "mixture.clients_per_group"),
    ({"mixture.G": "4", "mixture.permute_labels": "1", "mixture.classes": "3"},
     "mixture.permute_labels"),
    # the circle radius of 2 * 20 cluster means overflows
    ({"mixture.sep": "1e308", "mixture.classes": "20"}, "mixture.sep"),
    ({"model.kind": "foo"}, "kind"),
    ({"model.kind": "mlp-1hidden", "model.hidden_dim": "0"}, "hidden_dim"),
    ({"model.l2": "-1"}, "l2_penalty"),
    ({"validation_fraction": "0"}, "validation_fraction"),
    ({"dataset": "csv", "csv.path": "{csv}", "dirichlet.alpha": "0"}, "dirichlet.alpha"),
    ({"dataset": "csv", "csv.path": "{csv}.missing"}, "csv.path"),  # no such file
]

# a csv.path file that reads but is malformed: what it holds past a valid
# 120-row file (None: nothing at all), and the message that names the row
MALFORMED_CSV = [
    (b"1.0,0\n", "row 121: expected 3 columns, got 2"),
    (b"x,1.0,0\n", "row 121: non-numeric feature"),
    (b"1.0,2.0,a\n", "row 121: non-integer label 'a'"),
    (b"1.0,2.0,-1\n", "row 121: negative label"),
    (b"\xff\xfe1.0,2.0,0\n", "row 121: not UTF-8 text"),
    (None, "empty file"),
]


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "method=fedfew\nM=12\nK=3\nT=200\nseed=7\n"))
        assert cfg.mu == 0.01
        assert cfg.local_epochs == 1
        assert cfg.validation_fraction == 0.2
        assert cfg.clients == 12 and cfg.models == 3 and cfg.rounds == 200

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# experiment\nmethod=fedavg\nM=4\nK=1\n\nT=5\nseed=1  # trailing\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.method == "fedavg" and cfg.seed == 1

    def test_unknown_key_names_line(self, tmp_path):
        path = write_cfg(tmp_path, "method=fedfew\nM=4\nK=2\nT=5\nseed=1\nwat=3\n")
        with pytest.raises(ConfigError, match="line 6"):
            parse_config(path)

    def test_zero_models_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, "method=fedfew\nM=4\nK=0\nT=5\nseed=1\n"))

    def test_fedavg_with_multiple_models_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, "method=fedavg\nM=4\nK=3\nT=5\nseed=1\n"))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(write_cfg(tmp_path, "method=fedfew\nM=4\nK=2\nT=5\n"))

    def test_checksum_is_pure_function_of_config(self, tmp_path):
        a = parse_config(write_cfg(tmp_path, BASE, "a.cfg"))
        b = parse_config(write_cfg(tmp_path, BASE + "\n# same\n", "b.cfg"))
        assert canonical_text(a) == canonical_text(b)

    @pytest.mark.parametrize("name, digest", [
        ("group_recovery.cfg", "5715e934f62b4ff63ddbc697543427c67fcb80e80a0674d4db530f3b2b76e7f2"),
        ("fedavg_baseline.cfg", "07f53b1eb80b5679827b3075e0a7c0829ba9fbc66312c17bc88ee29c62b16646"),
        ("dirichlet_csv.cfg", "8d410bd965a7e89e8aaaa075635cc4b5888a5b4c93e1c95fb96f96b0c425752f"),
    ])
    def test_committed_config_checksums_are_pinned(self, name, digest):
        text = canonical_text(parse_config(ROOT / "scripts" / "configs" / name))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_readme_config_table_lists_every_key(self):
        table = "\n".join(readme_config_rows())
        assert [key.name for key in KEYS if f"`{key.name}`" not in table] == []

    def test_keys_set_each_leaf_field_once(self):
        leaves = [f.name for f in fields(ExperimentConfig) if f.name not in ("model", "data")]
        leaves += [f"model.{f.name}" for f in fields(ModelConfig)]
        leaves += [f"data.{f.name}" for f in fields(DataConfig)]
        assert len(leaves) == 26
        assert sorted(key.attr for key in KEYS if key.attr) == sorted(leaves)

    def test_readme_defaults_are_the_field_defaults(self):
        by_name = {key.name: key for key in KEYS}
        checked = []
        for row in readme_config_rows()[2:]:  # past the header and its rule
            names, defaults = (cell.strip() for cell in row.split("|")[1:3])
            names = [name.strip("`") for name in names.split(", ")]
            defaults = defaults.split(", ")
            if len(defaults) == 1:  # one cell for every key of the row
                defaults *= len(names)
            for name, text in zip(names, defaults, strict=True):
                key = by_name[name]
                default = field_default(key.attr) if key.attr else None
                expected = "required" if default is MISSING else key.value.show(default)
                assert text.strip("`") == expected, name
                checked.append(name)
        assert sorted(checked) == sorted(by_name)


class TestRunExperiment:
    def test_output_files_and_schema(self, tmp_path):
        cfg = config_from_pairs(
            {"method": "fedavg", "M": "4", "K": "1", "T": "6", "seed": "3",
             "mixture.n_per_client": "30"})
        out = tmp_path / "run"
        run_experiment(cfg, out)
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == ("round,stch_value,grad_norm_1,alpha_cv,"
                            "w_entropy_mean,w_max_mean,uploads_count")
        assert len(trace) == 7
        clients = (out / "clients.csv").read_text().splitlines()
        assert clients[0] == "client_id,selected_model,train_acc,val_acc,test_acc"
        assert all(row.split(",")[1] == "0" for row in clients[1:])
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "mean_acc,std_acc,min_acc,max_acc,jain_index,mean_coverage_gap"
        assert summary[1].endswith(",")  # oracle disabled leaves the gap blank
        assert "checksum=sha256:" in (out / "manifest.txt").read_text()

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = config_from_pairs(
            {"method": "fedfew", "M": "4", "K": "2", "T": "5", "seed": "9",
             "mixture.G": "2", "mixture.n_per_client": "30"})
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        for name in ("trace.csv", "clients.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_oracle_adds_coverage_gap(self, tmp_path):
        cfg = config_from_pairs(
            {"method": "fedfew", "M": "2", "K": "1", "T": "3", "seed": "2",
             "mixture.n_per_client": "24"})
        summary = run_experiment(cfg, tmp_path / "o", oracle=True)
        assert summary["mean_coverage_gap"] is not None
        row = (tmp_path / "o" / "summary.csv").read_text().splitlines()[1]
        assert not row.endswith(",")

    def test_nine_significant_digits(self, tmp_path):
        cfg = config_from_pairs(
            {"method": "fedavg", "M": "3", "K": "1", "T": "2", "seed": "1",
             "mixture.n_per_client": "24"})
        run_experiment(cfg, tmp_path / "p")
        value = (tmp_path / "p" / "trace.csv").read_text().splitlines()[1].split(",")[1]
        mantissa = value.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) <= 9

    def test_uploads_column_matches_accounting(self, tmp_path):
        cfg = config_from_pairs(
            {"method": "ifca", "M": "5", "K": "2", "T": "4", "seed": "6",
             "mixture.G": "2", "mixture.n_per_client": "30"})
        run_experiment(cfg, tmp_path / "u")
        rows = (tmp_path / "u" / "trace.csv").read_text().splitlines()[1:]
        assert all(int(r.split(",")[-1]) == 5 * (2 + 1) for r in rows)

    def test_local_serves_each_client_its_own_model(self, tmp_path):
        cfg = config_from_pairs(
            {"method": "local", "M": "4", "K": "1", "T": "3", "seed": "5",
             "mixture.G": "2", "mixture.n_per_client": "30"})
        run_experiment(cfg, tmp_path / "l")
        clients = (tmp_path / "l" / "clients.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in clients] == [row.split(",")[0] for row in clients]
        assert len(clients) == 4
        rows = (tmp_path / "l" / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 and all(r.split(",")[-1] == "0" for r in rows)


def record_calls(monkeypatch, fn, event, events):
    """Append event to events when a call of fn, through any fedfew module, returns."""
    def recorded(*args, **kwargs):
        result = fn(*args, **kwargs)
        events.append(event)
        return result

    for name, module in list(sys.modules.items()):
        if name.startswith("fedfew."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, recorded)


class TestStackOnce:
    """build_problem stacks each split once; the run reads only the stacks."""

    @pytest.mark.parametrize("dataset", ["mixture", "csv"])
    def test_oracle_run_stacks_nothing_after_build(self, tmp_path, monkeypatch, dataset):
        events = []
        record_calls(monkeypatch, model.stack_rows, "stack_rows", events)
        record_calls(monkeypatch, cli.build_problem, "build_problem", events)
        init = Dataset.__init__

        def recorded_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            events.append("Dataset")

        monkeypatch.setattr(Dataset, "__init__", recorded_init)
        cfg = replace(parse_config(ROOT / "scripts" / "configs" / "group_recovery.cfg"),
                      rounds=5)
        if dataset == "csv":
            data = DataConfig(dataset="csv", csv_path=str(write_csv_data(tmp_path / "d.csv")))
            cfg = replace(cfg, data=data)
        run_experiment(cfg, tmp_path / "out", oracle=True)
        assert events.count("build_problem") == 1
        assert events[-1] == "build_problem"
        if dataset == "mixture":  # written straight into the stacks
            assert events == ["build_problem"]
        else:  # per-client Datasets, then one stack per split (no test split)
            assert events.count("stack_rows") == 2

    def test_mixture_build_keys_its_client_streams_in_one_pass(self, monkeypatch):
        """The 3M client streams are keyed by one Streams, not one each."""
        made = count_streams(monkeypatch)
        cfg = replace(parse_config(ROOT / "scripts" / "configs" / "group_recovery.cfg"),
                      clients=1200)
        problem, _ = cli.build_problem(cfg)
        assert len(problem) == 1200
        assert made == [3 * 1200]

    def test_partition_build_keys_its_split_streams_in_one_pass(self, monkeypatch, large_csv):
        """The partition draws and the M split streams take a Streams each, not
        one per client."""
        made = count_streams(monkeypatch)
        pairs = {**_read_pairs(CONFIGS / "dirichlet_csv.cfg"), "M": "400",
                 "csv.path": str(large_csv)}
        problem, _ = cli.build_problem(config_from_pairs(pairs))
        assert len(problem) == 400
        assert made == [1, 400]

    @pytest.mark.parametrize("method", ["fedavg", "ifca", "local"])
    def test_mini_batch_run_keys_its_batch_streams_per_run(self, monkeypatch, method):
        """A baseline run of 40 mini-batch rounds takes 3 Streams: the data's 3M
        streams, the init streams and one pass of the batch streams of every
        round, client and stream id, not one Streams per round or per task."""
        made = count_streams(monkeypatch)
        pairs = {**_read_pairs(CONFIGS / "group_recovery.cfg"), **MINI_BATCH_MLP,
                 "method": method, "K": "1" if method in ("fedavg", "local") else "3"}
        cfg = config_from_pairs(pairs)
        assert (cfg.clients, cfg.rounds) == (12, 40)
        problem, spec = cli.build_problem(cfg)
        cli.RUNNERS[method](cfg, problem, spec)
        inits, ids = {"fedavg": (1, 1), "ifca": (3, 3), "local": (12, 1)}[method]
        assert made == [3 * 12, inits, 40 * 12 * ids]


def count_streams(monkeypatch) -> list:
    """The path counts of every Streams constructed from now on."""
    made, init = [], Streams.__init__

    def counted_init(self, seed, paths):
        init(self, seed, paths)
        made.append(len(self._keys))

    monkeypatch.setattr(Streams, "__init__", counted_init)
    return made


@pytest.fixture(scope="module")
def large_csv(tmp_path_factory):
    """scripts/make_csv_dataset.py's CSV at 1,500 rows per class."""
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_csv_dataset.py"), str(path),
                    "--per-class", "1500"], check=True, capture_output=True)
    return path


class TestPinnedRunBytes:
    """Mini-batch runs' output files, byte for byte: any change to a batch
    stream, its draw order, the batch schedule or the blocks' arithmetic
    changes these digests."""

    @pytest.mark.parametrize("config, pairs, digests", [
        ("group_recovery.cfg", dict(MINI_BATCH_MLP, method="fedavg", K="1"),
         ("b87b8d2c5f51cab81b7fe6ad22435be219e8c658862842661a2e94ebd1edaab4",
          "a4be9f7bf77abc8730696a1b642d2edb4079b9dac1a75b5446d38a55e15eb29d",
          "1c477a9d3594137ddd425402f01f9444b6c820d232d1277b96dbacb6859d125d")),
        ("group_recovery.cfg", dict(MINI_BATCH_MLP, method="ifca"),
         ("cad14517d42828c2ae9bebaa2f72dccad5d490551ba53fe98e792b4f25981c6c",
          "e05599506d7fbb1ae9175bf0e1bb49b7bd74a2bec66593d70d5c1840dea26cb2",
          "cda847d5044bcda7837a6f4b8ba8b1887bdc9effd28a7775904f9d73e5b5a91e")),
        ("group_recovery.cfg", dict(MINI_BATCH_MLP, method="local", K="1"),
         ("8ddca00f32668a8a6c5d40d3afa42e141968dd8d1d0671a4dbaa1d16baf7239c",
          "fbd409319ee9e40137a1e54f84a84bc41754ae7111848c2cb31c113751f43c1d",
          "2c301620ac8ed70e47044766f874c5e6eee9b6838c8f5daa46d6f6e0a7cb7171")),
        # 400 clients of unequal size: padded blocks, and clients whose whole
        # split is one batch next to clients that shuffle
        ("dirichlet_csv.cfg", {"M": "400", "batch_size": "8", "E": "2", "T": "5"},
         ("db82d9d1ee0c2f7949c0d25f8468bf4781ae859cf304192b4fc3016942b202e6",
          "ff9ee8c7d3375b3d7fef8a3328c4ba916258a493c6f914459356988046f122cb",
          "d65832452ce3c51a8542f2d79f926eba8901f09c4a2273d0e1a07b7b3df3f2de")),
    ], ids=["fedavg", "ifca", "local", "dirichlet-400"])
    def test_outputs_match_their_digests(self, tmp_path, large_csv, config, pairs, digests):
        values = {**_read_pairs(CONFIGS / config), **pairs}
        if values.get("dataset") == "csv":
            values["csv.path"] = str(large_csv)
        run_experiment(config_from_pairs(values), tmp_path / "out")
        files = ("trace.csv", "clients.csv", "summary.csv")
        assert tuple(hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()
                     for f in files) == digests


class TestPinnedFullBatchBytes:
    """Full-batch runs' output files, byte for byte: every split is one batch,
    so any change to the blocks' rows, the kernel's products or the trace's
    diagnostics changes these digests."""

    @pytest.mark.parametrize("pairs, oracle, digests", [
        ({}, False,
         ("282a7e51c328da820e4752609081ef85267c35ddb1b9432470bc439081539586",
          "42ebdc7f5a39b39b9146d92664abffea81c5fcd39a110b7e737834820a93ec7b",
          "1d85b594eba7af3ffcff20f09e06240fc873d615484a90692a9683df0421145c")),
        ({"M": "1200", "T": "3"}, False,
         ("8cc09a4d1b374aeecd9868cd7a5a72933c6f5120ed8e03e038d44f4277647981",
          "c37bebe8bc7598bced05e068b708589e5fd50dc1bb9308ea3d5c1b1f1721d51d",
          "d19cfdfbbb1deabc061f169ee442e0c1caf59d962ea3d2d7f1eeb7f8cd766d51")),
        ({"M": "120", "T": "10"}, True,
         ("629d8eda474e5dc303eaf22429df2a61a073a1d8ac4842213b9daf89d7efa862",
          "7cebe1dd8e0d23026561a547ea8a2f109ad43f9003300cab6294a658430b3842",
          "fdebecbf544cf086b01cc534e770df076475dbc615d02c941aca3df21c5c03f0")),
        ({"method": "ifca", "T": "50"}, False,
         ("3d16ef6f455cfb31bf115bd98d708362a10aede3b23ef7a0fe47cbfa90f08fe9",
          "4bf117d74b66edf7e13d5e81b4481089acacaafd06e1aea762b57c2d508f2e47",
          "ab9ae7a7584fb7e75bfb48548fd9668a606e11b1821985727f5b595be09dfb63")),
        ({"method": "fedavg", "K": "1", "T": "50"}, False,
         ("b7e0a3369a49b0eb1e3fbab2e65cc76d81a252e6cb1ebfc8d3b887839a75d2b2",
          "c10bb27c0c3cfcb785183750ead4b30e5a52d66351210547d3d5cf8e5d97ad91",
          "29f19beb2a77c91a59afb46a0478c1ba626135e1afbb02b8bfa7f3f14bc7c37b")),
        ({"method": "local", "K": "1", "T": "50"}, False,
         ("a114c326706eedea69018f21f246bfeb103f6c833e2d43493ad0c683db098370",
          "aeae8dc4445ce48e5b45fe2bb16664ce77b7bf33bb233deff4f2fd900774582a",
          "f9f5ef74e67d3f53158933f06a59961c7c309d53da28bba401a404ad93a03449")),
    ], ids=["flagship", "M1200", "oracle", "ifca", "fedavg", "local"])
    def test_outputs_match_their_digests(self, tmp_path, pairs, oracle, digests):
        values = {**_read_pairs(CONFIGS / "group_recovery.cfg"), **pairs}
        run_experiment(config_from_pairs(values), tmp_path / "out", oracle=oracle)
        files = ("trace.csv", "clients.csv", "summary.csv")
        assert tuple(hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()
                     for f in files) == digests


class TestRunAblation:
    def test_local_epochs_axis_preserves_total_updates(self, tmp_path):
        text = BASE.replace("T=8", "T=240") + "ablate.local_epochs=1,2,4\n"
        path = write_cfg(tmp_path, text)
        rows = run_ablation(path, "local_epochs", tmp_path / "ab")
        assert [r["value"] for r in rows] == ["1", "2", "4"]
        for e in (1, 2, 4):
            trace = (tmp_path / "ab" / f"local_epochs_{e}" / "trace.csv").read_text().splitlines()
            assert len(trace) - 1 == 240 // e

    def test_k_axis_writes_one_row_per_value(self, tmp_path):
        path = write_cfg(tmp_path, BASE + "ablate.K=1,2,3\n")
        run_ablation(path, "K", tmp_path / "abk")
        table = (tmp_path / "abk" / "ablation.csv").read_text().splitlines()
        assert table[0].startswith("axis,value,mean_acc")
        assert len(table) == 4

    def test_mu_axis_entropy_increases(self, tmp_path):
        path = write_cfg(tmp_path, BASE + "ablate.mu=0.001,0.01,0.1,1.0\n")
        rows = run_ablation(path, "mu", tmp_path / "abmu")
        entropies = [r["final_w_entropy_mean"] for r in rows]
        assert all(b > a for a, b in zip(entropies, entropies[1:]))
        # outer-weight diversity moves the other way: near-uniform at mu=1
        cvs = []
        for r in rows:
            trace = (tmp_path / "abmu" / f"mu_{r['value']}" / "trace.csv").read_text()
            cvs.append(float(trace.splitlines()[-1].split(",")[4]))
        assert all(b < a for a, b in zip(cvs, cvs[1:]))

    def test_indivisible_epochs_rejected(self, tmp_path):
        path = write_cfg(tmp_path, BASE.replace("T=8", "T=10") + "ablate.local_epochs=3\n")
        with pytest.raises(ConfigError):
            run_ablation(path, "local_epochs", tmp_path / "bad")

    def test_missing_axis_values_rejected(self, tmp_path):
        path = write_cfg(tmp_path, BASE)
        with pytest.raises(ConfigError):
            run_ablation(path, "mu", tmp_path / "none")

    def test_failing_value_writes_nothing(self, tmp_path, capsys, monkeypatch):
        def failing(cfg, problem, spec):
            if cfg.models == 2:
                raise FloatingPointError("second value fails")
            return run_fedfew(cfg, problem, spec)

        run_fedfew = cli.RUNNERS["fedfew"]
        monkeypatch.setitem(cli.RUNNERS, "fedfew", failing)
        path = write_cfg(tmp_path, BASE + "ablate.K=1,2,3\n")
        out = tmp_path / "ab"
        assert main(["ablate", str(path), "--axis", "K", "--out", str(out)]) == 3
        assert "second value fails" in capsys.readouterr().err
        assert not out.exists()
        # an --out made before keeps what it held, and only that
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert main(["ablate", str(path), "--axis", "K", "--out", str(out)]) == 3
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    @pytest.mark.parametrize("text, axis, message", [
        (BASE + "ablate.K=2,x\n", "K", "ablate.K"),
        (BASE.replace("T=8", "T=4") + "ablate.local_epochs=1,2,7\n", "local_epochs",
         "local_epochs=7"),
    ])
    def test_bad_value_exits_two_before_the_first_run(self, tmp_path, capsys, text, axis,
                                                       message):
        path = write_cfg(tmp_path, text)
        out = tmp_path / "ab"
        assert main(["ablate", str(path), "--axis", axis, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BASE)
        assert main(["run", str(path), "--out", str(tmp_path / "ok")]) == 0

    def test_config_error_is_exit_two(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "method=fedavg\nM=4\nK=3\nT=5\nseed=1\n")
        assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_non_finite_features_exit_three_and_write_nothing(self, tmp_path, capsys):
        data = write_csv_data(tmp_path / "data.csv")
        rows = data.read_text().splitlines()
        rows[7] = "nan," + rows[7].split(",", 1)[1]
        data.write_text("\n".join(rows) + "\n")
        text = f"method=fedavg\nM=3\nK=1\nT=2\nseed=1\ndataset=csv\ncsv.path={data}\n"
        path = write_cfg(tmp_path, text)
        out = tmp_path / "nonfinite"
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert "features contain non-finite entries" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_run_names_round_client_and_model(self, tmp_path, capsys):
        text = BASE.replace("learning_rate=0.5", "learning_rate=1e200") + "model.kind=mlp-1hidden\n"
        path = write_cfg(tmp_path, text + "ablate.K=1,2\n")
        out = tmp_path / "nan"
        assert main(["run", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "round" in err and "client" in err and "model" in err
        assert not out.exists()
        assert main(["ablate", str(path), "--axis", "K", "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize("pairs, name", BAD_BUILD_VALUES,
                             ids=[name for _, name in BAD_BUILD_VALUES])
    def test_bad_build_value_exits_two_and_writes_nothing(self, tmp_path, capsys, command,
                                                          pairs, name):
        csv = write_csv_data(tmp_path / "data.csv")
        pairs = {key: value.format(csv=csv) for key, value in pairs.items()}
        path = write_cfg(tmp_path, with_keys(BASE, **pairs, **{"ablate.K": "1,2"}))
        out = tmp_path / "bad"
        axis = ["--axis", "K"] if command == "ablate" else []
        assert main([command, str(path), "--out", str(out), *axis]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and name in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize("tail, message", MALFORMED_CSV,
                             ids=["ragged-row", "non-numeric-feature", "non-integer-label",
                                  "negative-label", "not-utf-8", "empty-file"])
    def test_malformed_csv_exits_two_and_writes_nothing(self, tmp_path, capsys, command, tail,
                                                        message):
        data = write_csv_data(tmp_path / "data.csv")
        data.write_bytes(b"" if tail is None else data.read_bytes() + tail)
        path = write_cfg(tmp_path, with_keys(BASE, dataset="csv", **{"csv.path": str(data),
                                                                      "ablate.K": "1,2"}))
        out = tmp_path / "bad"
        axis = ["--axis", "K"] if command == "ablate" else []
        assert main([command, str(path), "--out", str(out), *axis]) == 2
        err = capsys.readouterr().err
        assert f"config error: csv.path: {data}: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_mlp_oracle_exits_two_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                     command):
        # the oracle solves softmax regression only; caught before the data is built
        monkeypatch.setattr(cli, "build_problem", lambda cfg: pytest.fail("built the problem"))
        path = write_cfg(tmp_path, BASE + "model.kind=mlp-1hidden\nablate.K=1,2\n")
        out = tmp_path / "mlp"
        argv = [command, str(path), "--out", str(out), "--oracle"]
        argv += ["--axis", "K"] if command == "ablate" else []
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "oracle" in err and "model.kind" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key, field", [(key.name, key.attr.rpartition(".")[2])
                                            for key in KEYS if key.value is FLOAT])
    def test_non_finite_rate_is_config_error(self, tmp_path, capsys, key, field, value):
        # every float key of the table, named in the error, before any output
        text = BASE.replace("learning_rate=0.5\n", "") + f"{key}={value}\n"
        path = write_cfg(tmp_path, text)
        assert main(["run", str(path), "--out", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert f"config key {key}=" in err and f"{field} must be" in err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("groups", ["0", "-1"])
    def test_no_mixture_groups_is_config_error(self, tmp_path, capsys, groups):
        path = write_cfg(tmp_path, BASE.replace("mixture.G=2", f"mixture.G={groups}"))
        assert main(["run", str(path), "--out", str(tmp_path / "bad")]) == 2
        assert "mixture.G" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_seed_beyond_64_bits_is_config_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BASE.replace("seed=11", f"seed={2**64}"))
        assert main(["run", str(path), "--out", str(tmp_path / "a")]) == 2
        assert "seed must" in capsys.readouterr().err
        path = write_cfg(tmp_path, BASE, "ok.cfg")
        assert main(["run", str(path), "--seed", str(2**64), "--out", str(tmp_path / "b")]) == 2
        assert "seed must" in capsys.readouterr().err

    def test_seed_override_changes_manifest(self, tmp_path):
        path = write_cfg(tmp_path, BASE)
        main(["run", str(path), "--out", str(tmp_path / "s1")])
        main(["run", str(path), "--seed", "99", "--out", str(tmp_path / "s2")])
        m1 = (tmp_path / "s1" / "manifest.txt").read_text()
        m2 = (tmp_path / "s2" / "manifest.txt").read_text()
        assert "seed=11" in m1 and "seed=99" in m2

    def test_csv_dataset_roundtrip(self, tmp_path):
        data_path = write_csv_data(tmp_path / "data.csv")
        text = (f"method=fedavg\nM=3\nK=1\nT=4\nseed=2\ndataset=csv\n"
                f"csv.path={data_path}\npartition=dirichlet\ndirichlet.alpha=0.5\n")
        path = write_cfg(tmp_path, text)
        assert main(["run", str(path), "--out", str(tmp_path / "csvrun")]) == 0
        clients = (tmp_path / "csvrun" / "clients.csv").read_text().splitlines()
        assert len(clients) == 4

    def test_pathological_partition_config(self, tmp_path):
        data_path = write_csv_data(tmp_path / "data4.csv", classes=4, per_class=30, seed=1,
                                   spread=2.0)
        text = (f"method=fedfew\nM=4\nK=2\nT=3\nseed=5\ndataset=csv\ncsv.path={data_path}\n"
                f"partition=pathological\npathological.classes_per_client=2\n")
        path = write_cfg(tmp_path, text)
        assert main(["run", str(path), "--out", str(tmp_path / "pathrun")]) == 0
