"""Config parsing, output files, determinism, ablation, exit codes."""

import hashlib
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedfew import cli, model
from fedfew.cli import (
    FLOAT,
    KEYS,
    canonical_text,
    config_from_pairs,
    main,
    parse_config,
    run_ablation,
    run_experiment,
)
from fedfew.data import DataConfig, Dataset
from fedfew.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent

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
    ({"model.kind": "foo"}, "kind"),
    ({"model.kind": "mlp-1hidden", "model.hidden_dim": "0"}, "hidden_dim"),
    ({"model.l2": "-1"}, "l2_penalty"),
    ({"validation_fraction": "0"}, "validation_fraction"),
    ({"dataset": "csv", "csv.path": "{csv}", "dirichlet.alpha": "0"}, "dirichlet.alpha"),
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
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
        table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
        assert [key.name for key in KEYS if f"`{key.name}`" not in table] == []


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

    @pytest.mark.parametrize("dataset", ["mixture", "csv"])
    def test_non_finite_features_exit_three_and_write_nothing(self, tmp_path, capsys, dataset):
        if dataset == "mixture":  # the circle radius of 20 classes overflows
            text = with_keys(BASE, **{"mixture.sep": "1e308", "mixture.classes": "20"})
        else:
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

    def test_runtime_error_is_exit_three(self, tmp_path, capsys):
        text = "method=fedfew\nM=4\nK=2\nT=3\nseed=1\ndataset=csv\ncsv.path=/nope.csv\n"
        path = write_cfg(tmp_path, text)
        assert main(["run", str(path), "--out", str(tmp_path / "y")]) == 3

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
    @pytest.mark.parametrize("flag", [True, False], ids=["flag", "key"])
    def test_mlp_oracle_exits_two_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                     command, flag):
        # the oracle solves softmax regression only; caught before the data is built
        monkeypatch.setattr(cli, "build_problem", lambda cfg: pytest.fail("built the problem"))
        text = BASE + "model.kind=mlp-1hidden\nablate.K=1,2\n" + ("" if flag else "oracle=1\n")
        path = write_cfg(tmp_path, text)
        out = tmp_path / "mlp"
        argv = [command, str(path), "--out", str(out)]
        argv += ["--axis", "K"] if command == "ablate" else []
        argv += ["--oracle"] if flag else []
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
