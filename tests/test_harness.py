import ast
import dataclasses
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from batchlab import cli, cluster, config, costmodel, data, nn, optim, runner
from batchlab.errors import ConfigError, PartitionError
from conftest import MLP_SPECS

REQUIRED_ONLY = """[network]
layers = dense 2 8, relu, dense 8 3, softmax-xent
[hyper]
base_lr = 0.1
epochs = 3
batch_size = 16
[cluster]
workers = 2
seed = 4
[dataset]
kind = {kind}
[output]
dir = minimal
"""

EVERY_KEY = """[network]
layers = dense 3 8, batchnorm 0.001, relu, dense 8 4, softmax-xent

[hyper]
base_lr = 0.3
momentum = 0.8
weight_decay = 0.0001
poly_power = 1.5
warmup_epochs = 2
epochs = 5
batch_size = 64
lars_enabled = true
lars_trust = 0.002
lars_skip = bias

[cluster]
workers = 4
seed = 7

[dataset]
{dataset}
[output]
dir = every-key

[cost]
network = intel_qdr
gamma = 2.5e-12
"""

# between them these set every dataset key
EVERY_DATASET_KEY = {
    "synthetic-blobs": "n = 900\nnum_classes = 4\ninput_dim = 3\nseed = 9\nnoise = 0.35\n",
    "idx-file": "num_classes = 4\nseed = 9\nimages = img.idx\nlabels = lab.idx\n",
}


def spirals_cfg(tmp_path, name="run", batch_size=32, workers=1, epochs=2, base_lr=0.05,
                n=640, warmup=0, lars=False):
    layers = [nn.dense(2, 8), nn.batchnorm(), nn.relu(), nn.dense(8, 3), nn.softmax_xent()]
    hyper = dict(base_lr=base_lr, epochs=epochs, batch_size=batch_size,
                 warmup_epochs=warmup, lars_enabled=lars)
    from batchlab.optim import HyperParams
    return config.ExperimentConfig(
        layers=layers,
        hyper=HyperParams(**hyper),
        workers=workers,
        seed=3,
        dataset=config.DatasetConfig(kind="synthetic-spirals", n=n, num_classes=3,
                                     input_dim=2, seed=1),
        output_dir=name,
    )


class TestConfigFormat:
    def test_round_trip_equality(self, tmp_path):
        cfg = spirals_cfg(tmp_path, lars=True, warmup=1, epochs=4)
        path = tmp_path / "exp.cfg"
        config.write_config(cfg, path)
        parsed = config.parse_config(path)
        assert parsed == cfg

    def test_indivisible_split_is_a_partition_error(self, tmp_path):
        with pytest.raises(PartitionError, match="global batch 10 not divisible by 4 workers"):
            spirals_cfg(tmp_path, batch_size=10, workers=4)

    def test_round_trip_is_textually_stable(self, tmp_path):
        cfg = spirals_cfg(tmp_path)
        text = config.write_config_string(cfg)
        again = config.write_config_string(config.parse_config_string(text))
        assert text == again

    def test_layer_string_round_trip(self):
        text = "dense 2 64, batchnorm, relu, dense 64 3, softmax-xent"
        assert config.format_layers(config.parse_layers(text)) == text

    def test_missing_section_is_config_error(self):
        with pytest.raises(ConfigError, match="missing config key"):
            config.parse_config_string("[network]\nlayers = dense 2 2, softmax-xent\n")

    @pytest.mark.parametrize("entry", [
        "dense 2", "dense 2 64 7", "relu 3", "batchnorm 0.001 9", "softmax-xent x",
    ], ids=["dense-missing", "dense-extra", "relu-extra", "batchnorm-extra", "softmax-xent-extra"])
    def test_bad_layer_entry(self, entry):
        with pytest.raises(ConfigError, match=re.escape(f"bad layer entry {entry!r}")):
            config.parse_layers(f"{entry}, softmax-xent")

    @pytest.mark.parametrize("edit, name", [
        (("lars_enabled = true", "lars_enable = true"), "hyper.lars_enable"),
        (("dir = run\n", "dir = run\nformats = parquet\n"), "output.formats"),
        (("[output]", "[extra]\nkey = 1\n\n[output]"), "[extra]"),
    ])
    def test_unknown_key_or_section_is_config_error(self, tmp_path, edit, name):
        text = config.write_config_string(spirals_cfg(tmp_path, name="run", lars=True))
        assert edit[0] in text
        with pytest.raises(ConfigError, match=re.escape(name)):
            config.parse_config_string(text.replace(*edit))

    def test_every_key_round_trips_a_non_default_value(self):
        seen = set()
        for kind, keys in EVERY_DATASET_KEY.items():
            text = EVERY_KEY.format(dataset=f"kind = {kind}\n{keys}")
            cfg = config.parse_config_string(text)
            assert config.write_config_string(cfg) == text
            # every value differs from the one a config of required keys only gets
            minimal = config.parse_config_string(REQUIRED_ONLY.format(kind=kind))
            items = config.config_items(cfg)
            assert set(items) & set(config.config_items(minimal)) == {("dataset", "kind", kind)}
            seen |= {(sec, key) for sec, key, _ in items}
        assert seen == {(sec, key) for sec, key, _ in config.SCHEMA}
        assert len(seen) == 24

    def test_required_keys_alone_take_the_dataclass_defaults(self):
        cfg = config.parse_config_string(REQUIRED_ONLY.format(kind="synthetic-spirals"))
        assert cfg.hyper == optim.HyperParams(base_lr=0.1, epochs=3, batch_size=16)
        assert cfg.dataset == config.DatasetConfig(kind="synthetic-spirals")
        assert cfg.cost == config.CostConfig()
        assert cfg.cost.gamma == costmodel.P100_GAMMA

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = config.parse_config_string(example, "README.md")
        assert config.write_config_string(cfg).startswith("[network]\nlayers = dense 2 64")

    @pytest.mark.parametrize("edit, message", [
        (("seed = 1\n", "seed = 1\nimages = /nonexistent\n"),
         "kind synthetic-spirals does not read dataset.images"),
        (("kind = synthetic-spirals\n", "kind = idx-file\n"),
         "kind idx-file does not read dataset.n, dataset.input_dim"),
        (("kind = synthetic-spirals", "kind = mnist"), "unknown dataset kind 'mnist'"),
        (("network = mellanox_fdr", "network = mellanox_fbr"), "'mellanox_fbr'"),
        (("gamma = 9e-14", "gamma = -1"), "gamma > 0"),
        (("lars_skip = bias,norm-scale,norm-shift", "lars_skip = bias,norm-scale,norm-shfit"),
         "['norm-shfit']"),
        (("workers = 1\nseed = 3\n", "workers = 1\nseed = -1\n"), "need cluster seed >= 0, got -1"),
        (("seed = 1\n", "seed = -5\n"), "need dataset seed >= 0, got -5"),
        (("gamma = 9e-14", "gamma = inf"), "need gamma > 0 seconds per flop, got inf"),
        (("seed = 1\n", "seed = 1\nnoise = nan\n"), "need a finite dataset noise >= 0, got nan"),
        (("seed = 1\n", "seed = 1\nnoise = -0.2\n"), "need a finite dataset noise >= 0, got -0.2"),
        (("workers = 1\n", "workers = 0\n"), "need at least one worker"),
        (("workers = 1\n", "workers = 3\n"), "global batch 32 not divisible by 3 workers"),
    ], ids=["stray-images", "stray-n", "kind", "cost-network", "cost-gamma", "lars-skip",
            "cluster-seed", "dataset-seed", "gamma-inf", "noise-nan", "noise-negative",
            "no-workers", "indivisible-workers"])
    def test_ignored_or_invalid_value_is_config_error(self, tmp_path, edit, message):
        text = config.write_config_string(spirals_cfg(tmp_path, name="run", lars=True))
        assert edit[0] in text
        with pytest.raises(ConfigError, match=re.escape(message)):
            config.parse_config_string(text.replace(*edit))

    @pytest.mark.parametrize("edit, message", [
        (("epochs = 2", "epochs = 0"), "epochs and batch_size must be positive"),
        (("dense 8 3", "dense 8"), "bad layer entry 'dense 8'"),
        (("kind = synthetic-spirals", "kind = mnist"), "unknown dataset kind 'mnist'"),
        (("gamma = 9e-14", "gamma = -1"), "need gamma > 0 seconds per flop, got -1.0"),
        (("lars_skip = bias,norm-scale,norm-shift", "lars_skip = norm-shfit"), "['norm-shfit']"),
        (("[cluster]\nworkers = 1\nseed = 3", "[cluster]\nworkers = 1\nseed = x"),
         "bad config value"),
    ], ids=["hyper", "layers", "dataset", "cost-gamma", "lars-skip", "value"])
    def test_error_names_the_file(self, tmp_path, edit, message):
        path = tmp_path / "bad.cfg"
        text = config.write_config_string(spirals_cfg(tmp_path, lars=True))
        assert edit[0] in text
        path.write_text(text.replace(*edit))
        with pytest.raises(ConfigError) as exc:
            config.parse_config(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert message in str(exc.value)


class TestRunExperiment:
    def test_outputs_and_accounting(self, tmp_path):
        cfg = spirals_cfg(tmp_path)
        res = runner.run_experiment(cfg, output_root=tmp_path)
        assert res.log.status == "completed"
        # model iteration count equals executed rows
        assert res.report.iterations == len(res.log.rows)

        meta, rows = runner.read_csv(res.out_dir / "log.csv")
        assert meta["run.status"] == "completed"
        assert meta["hyper.batch_size"] == "32"
        assert len(rows) == len(res.log.rows)
        # emitted CSV re-parses to the in-memory values exactly (repr round-trip)
        for row, r in zip(rows, res.log.rows):
            assert float(row["loss"]) == r.loss
            assert float(row["lr"]) == r.lr
            assert int(row["iteration"]) == r.iteration

        meta2, cost_rows = runner.read_csv(res.out_dir / "cost.csv")
        assert int(cost_rows[0]["iterations"]) == res.report.iterations
        assert float(cost_rows[0]["total_time"]) == res.report.total_time

    def test_worker_count_does_not_change_results(self, tmp_path):
        logs = {}
        for P in (1, 4):
            cfg = spirals_cfg(tmp_path, name=f"p{P}", workers=P)
            logs[P] = runner.run_experiment(cfg, output_root=tmp_path).log
        a = [(r.iteration, r.lr, r.loss, r.train_acc, r.test_acc) for r in logs[1].rows]
        b = [(r.iteration, r.lr, r.loss, r.train_acc, r.test_acc) for r in logs[4].rows]
        assert a == b

    @pytest.mark.parametrize("batch_size, flag", [(24, "true"), (32, "true")])
    def test_bitwise_invariant_in_every_header(self, tmp_path, batch_size, flag):
        # two workers: C = 1 divides local batches of 12 and 16 alike, and the
        # tree cut at 4-row nodes keeps composition for 12; the `false`
        # header is covered by test_leaf_block_in_every_header
        cfg = spirals_cfg(tmp_path, batch_size=batch_size, workers=2, epochs=1, lars=True)
        res = runner.run_experiment(cfg, output_root=tmp_path)
        for name in ("log.csv", "lambdas.csv", "cost.csv"):
            meta, _ = runner.read_csv(res.out_dir / name)
            assert meta["run.bitwise_invariant"] == flag

    @pytest.mark.parametrize("workers, flag", [(4, "true"), (64, "false")])
    def test_leaf_block_in_every_header(self, tmp_path, workers, flag):
        # B=128 multiplies 4-row blocks; 64 workers hold 2-row slices it cannot divide
        cfg = spirals_cfg(tmp_path, batch_size=128, workers=workers, epochs=1, lars=True)
        res = runner.run_experiment(cfg, output_root=tmp_path)
        for name in ("log.csv", "lambdas.csv", "cost.csv"):
            meta, _ = runner.read_csv(res.out_dir / name)
            assert meta["run.leaf_block"] == "4"
            assert meta["run.bitwise_invariant"] == flag

    def test_numpy_scalar_cells_read_back_as_numbers(self, tmp_path):
        row = cluster.LogRow(epoch=0, iteration=np.int64(1), lr=0.1, loss=np.float64(0.5),
                             train_acc=0.25, test_acc=float("nan"), lambda_min=1.0,
                             lambda_med=1.0, lambda_max=1.0, wall_ms=0.0)
        columns = runner._columns(cluster.LogRow)
        runner._write_csv(tmp_path / "log.csv", [], columns, [runner._record_row(row, columns)])
        _, (back,) = runner.read_csv(tmp_path / "log.csv")
        assert int(back["iteration"]) == 1 and float(back["loss"]) == 0.5
        # cells of Python values keep their bytes
        assert (back["iteration"], back["loss"], back["lr"], back["test_acc"]) == (
            "1", "0.5", "0.1", "nan")

    def test_profile_counts_the_built_parameters(self):
        profile = runner.network_profile(MLP_SPECS)
        assert profile.num_params == 4803
        # 6 flops per dense weight entry, 10 per batch-norm channel: 6*4416 + 10*128
        assert profile.flops_per_image == 27776.0

    def test_lambda_csv_emitted_for_lars(self, tmp_path):
        cfg = spirals_cfg(tmp_path, lars=True)
        res = runner.run_experiment(cfg, output_root=tmp_path)
        meta, rows = runner.read_csv(res.out_dir / "lambdas.csv")
        assert len(rows) == len(res.log.rows)
        assert "dense0.weight" in rows[0]


class TestSweep:
    def _write(self, tmp_path, name, **kw):
        cfg = spirals_cfg(tmp_path, name=name, **kw)
        config.write_config(cfg, tmp_path / "cfgs" / f"{name}.cfg")
        return cfg

    def test_sweep_rows_and_model_columns(self, tmp_path):
        (tmp_path / "cfgs").mkdir()
        self._write(tmp_path, "b032", batch_size=32)
        self._write(tmp_path, "b064", batch_size=64, base_lr=0.1)
        results, path = runner.sweep(tmp_path / "cfgs", output_root=tmp_path)
        meta, rows = runner.read_csv(path)
        assert [r["name"] for r in rows] == ["b032", "b064"]
        # volume halves as B doubles
        assert int(rows[0]["comm_volume_words"]) == 2 * int(rows[1]["comm_volume_words"])
        # messages = iterations * ceil(log2 P) = 0 for P = 1
        assert int(rows[0]["messages"]) == 0

    def test_heterogeneous_epochs_rejected(self, tmp_path):
        (tmp_path / "cfgs").mkdir()
        self._write(tmp_path, "a", epochs=2)
        self._write(tmp_path, "b", epochs=4)
        with pytest.raises(ConfigError, match="epoch budget"):
            runner.sweep(tmp_path / "cfgs", output_root=tmp_path)

    def test_configs_sharing_an_output_dir_rejected_before_training(self, tmp_path, capsys):
        # the second run would overwrite the first one's log.csv
        (tmp_path / "cfgs").mkdir()
        for name in ("a", "b"):
            cfg = dataclasses.replace(spirals_cfg(tmp_path), output_dir="same")
            config.write_config(cfg, tmp_path / "cfgs" / f"{name}.cfg")
        out = tmp_path / "out"
        code = cli.main(["sweep", str(tmp_path / "cfgs"), "--output-root", str(out)])
        assert code == runner.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "a.cfg and " in err and "b.cfg both write to [output] dir = same" in err
        assert not out.exists()


class TestCli:
    def test_train_exit_zero(self, tmp_path):
        cfg = spirals_cfg(tmp_path)
        path = tmp_path / "ok.cfg"
        config.write_config(cfg, path)
        code = cli.main(["train", str(path), "--output-root", str(tmp_path)])
        assert code == runner.EXIT_OK

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[network]\nlayers = dense 2 2, softmax-xent\n")
        assert cli.main(["train", str(path)]) == runner.EXIT_CONFIG

    @pytest.mark.parametrize("edit, error", [
        ("[network]\nlayers = dense 2 2, softmax-xent\n", "option 'layers' in section 'network' already exists"),
        ("layers = dense 2 2, softmax-xent\n[network]\n", "File contains no section headers"),
    ], ids=["duplicate-key", "key-before-section"])
    def test_config_syntax_error_exit_code(self, tmp_path, capsys, edit, error):
        path = tmp_path / "bad.cfg"
        text = config.write_config_string(spirals_cfg(tmp_path))
        path.write_text(text.replace("[network]\n", edit, 1))
        code = cli.main(["train", str(path), "--output-root", str(tmp_path / "out")])
        assert code == runner.EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert f"config error: {path}: " in err and error in err

    def test_format_error_exit_code(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(struct.pack(">iiii", 0x123, 1, 2, 2) + bytes(4))
        lab.write_bytes(struct.pack(">ii", data.IDX_LABELS_MAGIC, 1) + bytes(1))
        cfg = spirals_cfg(tmp_path)
        cfg.dataset = config.DatasetConfig(kind="idx-file", num_classes=3,
                                           images=str(img), labels=str(lab))
        path = tmp_path / "idx.cfg"
        config.write_config(cfg, path)
        assert cli.main(["train", str(path), "--output-root", str(tmp_path)]) == runner.EXIT_FORMAT

    @pytest.mark.parametrize("images", ["a-directory", "missing.idx"])
    def test_unreadable_dataset_file_exit_code(self, tmp_path, capsys, images):
        (tmp_path / "a-directory").mkdir()
        lab = tmp_path / "lab.idx"
        lab.write_bytes(struct.pack(">ii", data.IDX_LABELS_MAGIC, 1) + bytes(1))
        cfg = spirals_cfg(tmp_path)
        cfg.dataset = config.DatasetConfig(kind="idx-file", num_classes=3,
                                           images=str(tmp_path / images), labels=str(lab))
        path = tmp_path / "idx.cfg"
        config.write_config(cfg, path)
        code = cli.main(["train", str(path), "--output-root", str(tmp_path / "out")])
        assert code == runner.EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read dataset file ")
        assert str(tmp_path / images) in err

    @pytest.mark.parametrize("dataset, message", [
        (dict(num_classes=4), "labels span [0, 3] but the network has 3 classes"),
        (dict(kind="synthetic-blobs", input_dim=3), "incompatible with input width 2"),
    ], ids=["num_classes", "input_dim"])
    def test_dataset_network_mismatch_exit_code(self, tmp_path, capsys, dataset, message):
        cfg = spirals_cfg(tmp_path)
        cfg.dataset = dataclasses.replace(cfg.dataset, **dataset)
        path = tmp_path / "mismatch.cfg"
        config.write_config(cfg, path)
        code = cli.main(["train", str(path), "--output-root", str(tmp_path)])
        assert code == runner.EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("batch_size, workers, message", [
        (10, 4, "global batch 10 not divisible by 4 workers"),
        (1, 1, "training-mode statistics need a batch of >= 2"),
    ], ids=["indivisible-batch", "batchnorm-batch-of-one"])
    def test_unrunnable_batch_exit_code(self, tmp_path, capsys, batch_size, workers, message):
        # written as text: an ExperimentConfig refuses an indivisible split
        path = tmp_path / "batch.cfg"
        text = config.write_config_string(spirals_cfg(tmp_path))
        assert "batch_size = 32\n" in text and "workers = 1\n" in text
        path.write_text(text.replace("batch_size = 32\n", f"batch_size = {batch_size}\n")
                        .replace("workers = 1\n", f"workers = {workers}\n"))
        code = cli.main(["train", str(path), "--output-root", str(tmp_path / "out")])
        assert code == runner.EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    def test_nonfinite_batchnorm_eps_exit_code(self, tmp_path, capsys):
        path = tmp_path / "eps.cfg"
        text = config.write_config_string(spirals_cfg(tmp_path))
        assert "batchnorm, relu" in text
        path.write_text(text.replace("batchnorm, relu", "batchnorm nan, relu"))
        code = cli.main(["train", str(path), "--output-root", str(tmp_path / "out")])
        assert code == runner.EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        assert "layer 1: batchnorm eps must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        ("network = mellanox_fdr", "network = mellanox_fbr"),
        ("gamma = 9e-14", "gamma = -1"),
        ("lars_skip = bias,norm-scale,norm-shift", "lars_skip = bias,norm-scale,norm-shfit"),
        ("seed = 1\n", "seed = 1\nimages = /nonexistent\n"),
        ("workers = 1\nseed = 3\n", "workers = 1\nseed = -1\n"),
        ("seed = 1\n", "seed = -5\n"),
        ("gamma = 9e-14", "gamma = inf"),
        ("seed = 1\n", "seed = 1\nnoise = nan\n"),
        ("seed = 1\n", "seed = 1\nnoise = -0.2\n"),
        ("workers = 1\n", "workers = 0\n"),
        ("workers = 1\n", "workers = 3\n"),
    ], ids=["cost-network", "cost-gamma", "lars-skip", "stray-key", "cluster-seed",
            "dataset-seed", "gamma-inf", "noise-nan", "noise-negative", "no-workers",
            "indivisible-workers"])
    def test_rejected_config_writes_no_output(self, tmp_path, monkeypatch, edit):
        monkeypatch.setattr(runner, "run_experiment", lambda *a: pytest.fail("config accepted"))
        path = tmp_path / "bad.cfg"
        path.write_text(config.write_config_string(spirals_cfg(tmp_path)).replace(*edit))
        code = cli.main(["train", str(path), "--output-root", str(tmp_path / "out")])
        assert code == runner.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_tables_and_cost_commands(self, tmp_path, capsys):
        assert cli.main(["tables", "--out", str(tmp_path / "tables")]) == 0
        assert (tmp_path / "tables" / "table2.csv").exists()
        assert cli.main(["cost", "--model", "resnet50", "--cluster", "mellanox_fdr",
                         "--batch", "512", "--epochs", "100", "--n", "1280000"]) == 0
        out = capsys.readouterr().out
        assert "iterations: 250000" in out

    def test_diverged_subprocess_exit_code(self, tmp_path):
        cfg = spirals_cfg(tmp_path, name="boom", base_lr=1e6, n=640, epochs=2)
        path = tmp_path / "boom.cfg"
        config.write_config(cfg, path)
        proc = subprocess.run(
            [sys.executable, "-m", "batchlab", "train", str(path),
             "--output-root", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == runner.EXIT_DIVERGED
        meta, rows = runner.read_csv(tmp_path / "boom" / "log.csv")
        assert meta["run.status"].startswith("diverged@")


def test_sources_parse_at_the_declared_python_floor():
    # A newer interpreter accepts newer syntax, so the grammar is checked at
    # pyproject's requires-python floor; the standard library's API is not.
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups())
    sources = sorted(path for d in ("src", "tests", "bench") for path in (root / d).rglob("*.py"))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(major, minor))


def test_sources_import_no_unused_name():
    # No linter is a test dependency, so pyflakes' F401 is checked here: every
    # name a src module imports is read in it, listed in its __all__, or
    # imported by a statement marked "# noqa: F401".
    root = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted((root / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        nodes = list(ast.walk(tree))
        used = {node.id for node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in nodes:
            if isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__" for target in node.targets):
                used.update(ast.literal_eval(node.value))
        for node in nodes:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
            unused += [f"{path.relative_to(root)}:{node.lineno} {name}"
                       for name in names if name != "*" and name not in used]
    assert unused == []
