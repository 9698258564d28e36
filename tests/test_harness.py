import re
import struct
import subprocess
import sys

import pytest

from batchlab import cli, config, data, nn, runner
from batchlab.errors import ConfigError
from conftest import MLP_SPECS


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

    def test_bad_layer_entry(self):
        with pytest.raises(ConfigError):
            config.parse_layers("dense 2")

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

    @pytest.mark.parametrize("batch_size, flag", [(24, "false"), (32, "true")])
    def test_bitwise_invariant_in_every_header(self, tmp_path, batch_size, flag):
        # two workers: local batch 12 breaks tree composition, 16 keeps it
        cfg = spirals_cfg(tmp_path, batch_size=batch_size, workers=2, epochs=1, lars=True)
        res = runner.run_experiment(cfg, output_root=tmp_path)
        for name in ("log.csv", "lambdas.csv", "cost.csv"):
            meta, _ = runner.read_csv(res.out_dir / name)
            assert meta["run.bitwise_invariant"] == flag

    def test_profile_counts_the_built_parameters(self):
        assert runner.network_profile(MLP_SPECS).num_params == 4803

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
