"""End-to-end command-line runs, in process via cli.main(argv)."""

import csv
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import rewrite_checkpoint

from hsiatl import cli
from hsiatl import transfer as transfer_module
from hsiatl.data import load_labels, synth_cube


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic dataset, small-model config, and one trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "window": 4, "d_model": 8, "n_layers": 1, "n_heads": 2,
        "epochs": 2, "batch_size": 16, "query_size": 4, "rounds": 2,
        "ratios": [0.05, 0.45, 0.5], "sample_count": 32,
    }
    (root / "cfg.json").write_text(json.dumps(cfg))
    code = cli.main([
        "synth", "--classes", "3", "--size", "20x20x8", "--seed", "7",
        "--cube", str(root / "a.hsic"), "--labels", str(root / "a.hsil"),
    ])
    assert code == 0
    code = cli.main([
        "train", "--config", str(root / "cfg.json"), "--seed", "3",
        "--cube", str(root / "a.hsic"), "--labels", str(root / "a.hsil"),
        "--manifest", str(root / "a.split.json"),
        "--checkpoint", str(root / "a.sstc"), "--out", str(root / "train.json"),
    ])
    assert code == 0
    return root


# run-config lines printed before RunConfig took its fields from the component
# configs; the line must stay byte for byte the same
DEFAULT_RUN_CONFIG_LINE = (
    'run-config {"bandwidth": null, "batch_size": 56, "beta": 5, "calibration": 0.5, '
    '"d_ff": null, "d_model": 56, "decay": 1e-06, "dropout": 0.1, "epochs": 50, '
    '"kernel": "rbf", "lr": 0.001, "n_heads": 8, "n_layers": 4, "n_neighborhood": 3, '
    '"query_size": 16, "ratios": [0.01, 0.49, 0.5], "renormalize": false, "rho": 0.5, '
    '"rounds": 6, "sample_count": 256, "seed": 0, "strategy": "hybrid", "subpatch": 2, '
    '"target_fraction": 0.1, "window": 8}'
)
GOLDEN_CONFIG = {
    "window": 2, "subpatch": 1, "d_model": 4, "n_heads": 2, "n_layers": 1, "d_ff": 8,
    "dropout": 0, "calibration": 0.25, "renormalize": True, "epochs": 1, "batch_size": 4,
    "lr": 0.01, "decay": 0, "kernel": "linear", "bandwidth": 2, "sample_count": 8,
    "target_fraction": 0.2, "ratios": [0.25, 0.25, 0.5],
}
FILE_AND_FLAGS_RUN_CONFIG_LINE = (
    'run-config {"bandwidth": 2, "batch_size": 4, "beta": 2, "calibration": 0.25, '
    '"d_ff": 8, "d_model": 4, "decay": 0, "dropout": 0, "epochs": 1, "kernel": "linear", '
    '"lr": 0.01, "n_heads": 2, "n_layers": 1, "n_neighborhood": 5, "query_size": 2, '
    '"ratios": [0.25, 0.25, 0.5], "renormalize": true, "rho": 0.5, "rounds": 1, '
    '"sample_count": 8, "seed": 4, "strategy": "margin", "subpatch": 1, '
    '"target_fraction": 0.2, "window": 2}'
)


def run(argv):
    return cli.main([str(a) for a in argv])


def run_process(argv):
    """``python -m hsiatl.cli`` in a fresh interpreter that prints every
    warning, as a user's shell would see it."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-W", "default", "-m", "hsiatl.cli", *map(str, argv)],
        cwd=src, capture_output=True, text=True, timeout=120,
    )


def assert_one_line(done, code, prefix):
    assert done.returncode == code, done.stderr
    assert done.stderr.startswith(prefix) and done.stderr.count("\n") == 1, done.stderr


class TestSynth:
    def test_reruns_byte_identical(self, tmp_path):
        for stem in ("one", "two"):
            code = run(["synth", "--classes", 3, "--size", "16x16x8",
                        "--seed", 11, "--noise", 0.2,
                        "--cube", tmp_path / f"{stem}.hsic",
                        "--labels", tmp_path / f"{stem}.hsil"])
            assert code == 0
        assert (tmp_path / "one.hsic").read_bytes() == (tmp_path / "two.hsic").read_bytes()
        assert (tmp_path / "one.hsil").read_bytes() == (tmp_path / "two.hsil").read_bytes()

    def test_labels_match_library_generation(self, tmp_path):
        code = run(["synth", "--classes", 4, "--size", "16x16x8", "--seed", 5,
                    "--cube", tmp_path / "c.hsic", "--labels", tmp_path / "c.hsil"])
        assert code == 0
        _, expected = synth_cube(4, 16, 16, 8, noise=0.1, seed=5)
        written = load_labels(tmp_path / "c.hsil")
        np.testing.assert_array_equal(written.labels, expected.labels)
        hist = np.bincount(written.labels.ravel(), minlength=5)
        assert hist[0] == 0 and (hist[1:] > 0).all()

    def test_zero_classes_is_usage_error(self, tmp_path, capsys):
        code = run(["synth", "--classes", 0,
                    "--cube", tmp_path / "x.hsic", "--labels", tmp_path / "x.hsil"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_size_is_usage_error(self, tmp_path):
        code = run(["synth", "--classes", 3, "--size", "16x16",
                    "--cube", tmp_path / "x.hsic", "--labels", tmp_path / "x.hsil"])
        assert code == 1

    def test_missing_output_paths_is_usage_error(self):
        assert run(["synth", "--classes", 3]) == 1

    def test_closed_stdout_exits_1_without_traceback(self, tmp_path):
        # as `hsiatl synth ... | head -0`: the reader is gone before any line
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = Path(cli.__file__).resolve().parents[1]
        try:
            done = subprocess.run(
                [sys.executable, "-m", "hsiatl.cli", "synth", "--size", "4x4x4",
                 "--classes", "2", "--cube", tmp_path / "x.hsic", "--labels", tmp_path / "x.hsil"],
                cwd=src, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == ""

    def test_size_the_loader_would_refuse(self, tmp_path):
        # more values than load_cube accepts: refused before any allocation
        done = run_process(["synth", "--size", "100000x100000x200",
                            "--cube", tmp_path / "x.hsic", "--labels", tmp_path / "x.hsil"])
        assert_one_line(done, 1, "error: a 100000x100000x200 cube has more than 2147483648")
        assert list(tmp_path.iterdir()) == []


class TestSystemErrors:
    """An OSError or a MemoryError ends in one line and exit 2."""

    @pytest.mark.parametrize("command, flag", [("al", "--manifest"), ("train", "--out")])
    def test_path_under_a_regular_file(self, workdir, tmp_path, command, flag):
        # a NotADirectoryError traceback, exit 1
        (tmp_path / "plain").write_text("")
        paths = {"--manifest": workdir / "a.split.json", flag: tmp_path / "plain" / "x.json"}
        done = run_process([command, "--config", workdir / "cfg.json",
                            "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                            *(item for pair in paths.items() for item in pair)])
        assert_one_line(done, 2, "data error: [Errno 20] Not a directory: ")

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 1.00 TiB"), "data error: Unable to allocate 1.00 TiB\n"),
        (MemoryError(), "data error: MemoryError\n"),
    ], ids=["numpy", "bare"])
    def test_memory_error(self, monkeypatch, tmp_path, capsys, error, line):
        def synth_cube(**kwargs):
            raise error

        monkeypatch.setattr(cli, "synth_cube", synth_cube)
        code = run(["synth", "--cube", tmp_path / "x.hsic", "--labels", tmp_path / "x.hsil"])
        assert code == 2
        assert capsys.readouterr().err == line


class TestConfigResolution:
    def test_flags_beat_config_file(self, workdir, capsys):
        code = run(["eval", "--config", workdir / "cfg.json", "--seed", 99,
                    "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                    "--manifest", workdir / "a.split.json",
                    "--checkpoint", workdir / "a.sstc"])
        assert code == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("run-config ")
        resolved = json.loads(line.removeprefix("run-config "))
        assert resolved["seed"] == 99
        assert resolved["epochs"] == 2
        assert resolved["d_model"] == 8

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"no_such_knob": 1}')
        code = run(["synth", "--config", bad, "--classes", 3,
                    "--cube", tmp_path / "x.hsic", "--labels", tmp_path / "x.hsil"])
        assert code == 1
        assert "no_such_knob" in capsys.readouterr().err

    def test_malformed_config_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["synth", "--config", bad, "--classes", 3,
                    "--cube", tmp_path / "x.hsic",
                    "--labels", tmp_path / "x.hsil"]) == 1

    @pytest.mark.parametrize("key, value, expected", [
        ("epochs", "5", "int"),
        ("rounds", "2", "int"),
        ("query_size", None, "int"),
        ("d_ff", "x", "int or null"),
        ("epochs", 1.5, "int"),
        ("seed", 1.5, "int"),
        ("renormalize", 1, "bool"),
        ("ratios", [0.1, 0.4], "[float, float, float]"),
    ])
    def test_config_value_of_wrong_type_is_one_line_usage_error(
        self, workdir, tmp_path, key, value, expected
    ):
        cfg = json.loads((workdir / "cfg.json").read_text())
        cfg[key] = value
        (tmp_path / "bad.json").write_text(json.dumps(cfg))
        done = run_process(["al", "--config", tmp_path / "bad.json",
                            "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                            "--manifest", tmp_path / "new.split.json",
                            "--out", tmp_path / "rounds.ndjson"])
        assert_one_line(done, 1, "error: ")
        assert f"'{key}' must be {expected}, got {json.dumps(value)}" in done.stderr

    @pytest.mark.parametrize("command, fields, flags, expected", [
        ("al", '"decay": -1', [], "decay must be >= 0, got -1"),
        ("transfer", '"decay": -1', [], "decay must be >= 0, got -1"),
        ("transfer", '"bandwidth": NaN', [], "'bandwidth' must be finite, got NaN"),
        ("al", '"calibration": NaN', [], "'calibration' must be finite, got NaN"),
        ("al", '"lr": Infinity', [], "'lr' must be finite, got Infinity"),
        ("al", '"ratios": [0.1, -Infinity, 0.5]', [],
         "'ratios' must be finite, got [0.1, -Infinity, 0.5]"),
        ("transfer", '"rho": 0.5', ["--rho", "nan"], "'rho' must be finite, got NaN"),
    ])
    def test_nonfinite_or_negative_decay_is_one_line_usage_error(
        self, workdir, tmp_path, command, fields, flags, expected
    ):
        # JSON's NaN and Infinity parse as floats; NaN passed every range
        # check, and a negative decay divided by zero in the optimizer
        (tmp_path / "bad.json").write_text("{" + fields + "}")
        data = ["--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil"]
        if command == "al":
            data += ["--manifest", tmp_path / "new.split.json"]
        else:
            data += ["--source-ckpt", workdir / "a.sstc", "--target-cube", workdir / "a.hsic",
                     "--target-labels", workdir / "a.hsil", "--out", tmp_path / "t.json"]
        done = run_process([command, "--config", tmp_path / "bad.json", *flags, *data])
        assert_one_line(done, 1, "error: ")
        assert expected in done.stderr

    @pytest.mark.parametrize("command, fields, expected", [
        ("al", '"decay": -1', "decay must be >= 0, got -1"),
        ("al", '"batch_size": 0', "batch_size must be >= 1"),
        ("al", '"beta": 0', "beta must be >= 1"),
        ("al", '"window": 7', "window must be even and >= 2, got 7"),
        ("al", '"rounds": -1', "rounds must be >= 0, got -1"),
        ("train", '"decay": -1', "decay must be >= 0, got -1"),
        ("train", '"batch_size": 0', "batch_size must be >= 1"),
        ("train", '"window": 7', "window must be even and >= 2, got 7"),
        ("al", '"lr": 0', "lr must be > 0, got 0"),
        ("al", '"lr": -1', "lr must be > 0, got -1"),
        ("train", '"lr": 0', "lr must be > 0, got 0"),
        ("train", '"lr": -1', "lr must be > 0, got -1"),
        ("al", '"window": 64', "window 64 exceeds cube extent (20, 20)"),
        ("train", '"window": 64', "window 64 exceeds cube extent (20, 20)"),
    ])
    def test_bad_setting_writes_no_manifest(self, workdir, tmp_path, command, fields, expected):
        (tmp_path / "bad.json").write_text("{" + fields + "}")
        manifest = tmp_path / "new.split.json"
        done = run_process([command, "--config", tmp_path / "bad.json",
                            "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                            "--manifest", manifest])
        assert_one_line(done, 1, "error: ")
        assert expected in done.stderr
        assert "manifest" not in done.stdout
        assert not manifest.exists()

    @pytest.mark.parametrize("command, fields, expected", [
        ("train", '"lr": 0', "lr must be > 0, got 0"),
        ("al", '"lr": 0', "lr must be > 0, got 0"),
        ("al", '"rounds": -1', "rounds must be >= 0, got -1"),
        ("transfer", '"lr": 0', "lr must be > 0, got 0"),
        ("transfer", '"sample_count": 1', "sample_count must be >= 2"),
        ("transfer", '"target_fraction": 1', "target_fraction must be in (0, 1), got 1"),
        ("ablate", '"lr": 0', "lr must be > 0, got 0"),
        ("ablate", '"query_size": 0', "query_size must be >= 1"),
        ("ablate", '"rho": 2', "rho must be in [0, 1], got 2"),
    ])
    def test_bad_setting_is_named_before_any_file_is_read(self, tmp_path, command, fields,
                                                          expected):
        # every data file is missing, which alone would exit 2
        (tmp_path / "bad.json").write_text("{" + fields + "}")
        missing = [tmp_path / name for name in ("a.hsic", "a.hsil", "b.hsic", "b.hsil", "m.sstc")]
        data = ["--cube", missing[0], "--labels", missing[1]]
        if command in ("transfer", "ablate"):
            data += ["--target-cube", missing[2], "--target-labels", missing[3]]
        if command == "transfer":
            data += ["--source-ckpt", missing[4]]
        done = run_process([command, "--config", tmp_path / "bad.json", *data])
        assert_one_line(done, 1, "error: ")
        assert expected in done.stderr

    def test_setting_a_subcommand_ignores_is_left_alone(self, workdir, tmp_path):
        # transfer takes the model's settings from its source checkpoint, and
        # queries no pixel
        cfg = json.loads((workdir / "cfg.json").read_text())
        for key, value in (("window", 7), ("n_neighborhood", 1000001)):
            (tmp_path / "cfg.json").write_text(json.dumps({**cfg, key: value}))
            code = run(["transfer", "--config", tmp_path / "cfg.json",
                        "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                        "--source-ckpt", workdir / "a.sstc", "--target-cube", workdir / "a.hsic",
                        "--target-labels", workdir / "a.hsil"])
            assert code == 0, key

    @pytest.mark.parametrize("source", ["file", "flag"])
    @pytest.mark.parametrize("command", ["synth", "train", "al", "transfer"])
    def test_negative_seed_is_one_line_usage_error(self, workdir, tmp_path, command, source):
        # numpy's own message named nothing: "expected non-negative integer"
        (tmp_path / "seed.json").write_text('{"seed": -1}')
        setting = ["--config", tmp_path / "seed.json"] if source == "file" else ["--seed", -1]
        if command == "synth":
            data = ["--size", "8x8x4", "--cube", tmp_path / "x.hsic", "--labels", tmp_path / "x.hsil"]
        else:
            data = ["--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil"]
        if command == "transfer":
            data += ["--source-ckpt", workdir / "a.sstc", "--target-cube", workdir / "a.hsic",
                     "--target-labels", workdir / "a.hsil"]
        outputs = ["--manifest", tmp_path / "new.split.json",
                   "--checkpoint", tmp_path / "new.sstc", "--out", tmp_path / "out.json"]
        done = run_process([command, *setting, *data, *outputs])
        assert_one_line(done, 1, "error: ")
        assert "seed must be >= 0, got -1" in done.stderr
        assert sorted(tmp_path.iterdir()) == [tmp_path / "seed.json"]

    def test_eval_ignores_a_negative_seed(self, workdir):
        assert run(["eval", "--seed", -1, "--cube", workdir / "a.hsic",
                    "--labels", workdir / "a.hsil", "--checkpoint", workdir / "a.sstc"]) == 0

    @pytest.mark.parametrize("key", ["ln_eps", "bands", "n_classes"])
    def test_component_fields_that_are_not_settings_are_unknown_keys(self, tmp_path, capsys, key):
        # bands and n_classes come from the data; ln_eps is fixed
        (tmp_path / "cfg.json").write_text(json.dumps({key: 2}))
        code = run(["synth", "--config", tmp_path / "cfg.json",
                    "--cube", tmp_path / "x.hsic", "--labels", tmp_path / "x.hsil"])
        assert code == 1
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "x.hsic").exists()

    def test_run_config_line_for_defaults(self, tmp_path, capsys):
        code = run(["synth", "--size", "4x4x4", "--classes", 2,
                    "--cube", tmp_path / "x.hsic", "--labels", tmp_path / "x.hsil"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == DEFAULT_RUN_CONFIG_LINE

    def test_run_config_line_for_a_file_and_flags(self, tmp_path, capsys):
        data = ["--cube", tmp_path / "y.hsic", "--labels", tmp_path / "y.hsil"]
        assert run(["synth", "--size", "8x8x4", "--classes", 2, *data]) == 0
        (tmp_path / "cfg.json").write_text(json.dumps(GOLDEN_CONFIG))
        capsys.readouterr()
        code = run(["al", "--config", tmp_path / "cfg.json", "--seed", 4, "--strategy", "margin",
                    "--query-size", 2, "--rounds", 1, "--beta", 2, "--neighborhood", 5,
                    *data, "--manifest", tmp_path / "y.split.json"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == FILE_AND_FLAGS_RUN_CONFIG_LINE

    def test_defaults_the_benchmark_reads(self):
        defaults = cli.RunConfig()
        assert (defaults.ratios, defaults.seed, defaults.n_layers) == ((0.01, 0.49, 0.50), 0, 4)

    def test_config_values_that_fit_their_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"dropout": 0, "lr": 1, "d_ff": None, "bandwidth": 2, "ratios": [0, 0.5, 1]}
        ))
        run = cli.resolve_config(cli.build_parser().parse_args(["synth", "--config", str(path)]))
        assert (run.dropout, run.lr, run.d_ff, run.bandwidth) == (0, 1, None, 2)
        assert run.ratios == (0, 0.5, 1)

    def test_no_command_prints_help(self, capsys):
        assert cli.main([]) == 1
        assert "synth" in capsys.readouterr().out


class TestTrainEval:
    def test_artifacts_written(self, workdir):
        assert (workdir / "a.sstc").exists()
        metrics = json.loads((workdir / "train.json").read_text())
        assert set(metrics) == {"final_loss", "train_size", "test"}
        assert 0.0 <= metrics["test"]["oa"] <= 1.0
        assert metrics["train_size"] == 20

    def test_eval_agrees_with_train_metrics(self, workdir, capsys, tmp_path):
        code = run(["eval", "--cube", workdir / "a.hsic",
                    "--labels", workdir / "a.hsil",
                    "--manifest", workdir / "a.split.json",
                    "--checkpoint", workdir / "a.sstc",
                    "--out", tmp_path / "eval.json"])
        assert code == 0
        capsys.readouterr()
        trained = json.loads((workdir / "train.json").read_text())["test"]
        scored = json.loads((tmp_path / "eval.json").read_text())["metrics"]
        assert scored == trained

    def test_retrain_checkpoint_byte_identical(self, workdir, tmp_path):
        code = run(["train", "--config", workdir / "cfg.json", "--seed", 3,
                    "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                    "--manifest", workdir / "a.split.json",
                    "--checkpoint", tmp_path / "again.sstc"])
        assert code == 0
        assert (tmp_path / "again.sstc").read_bytes() == (workdir / "a.sstc").read_bytes()

    def test_auto_manifest_created_and_reused(self, workdir, tmp_path):
        manifest = tmp_path / "fresh.split.json"
        argv = ["train", "--config", workdir / "cfg.json",
                "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                "--manifest", manifest]
        assert run(argv) == 0
        first = manifest.read_bytes()
        assert run(argv) == 0
        assert manifest.read_bytes() == first

    def test_truncated_cube_is_data_error(self, workdir, tmp_path, capsys):
        clipped = tmp_path / "clipped.hsic"
        clipped.write_bytes((workdir / "a.hsic").read_bytes()[:-8])
        code = run(["train", "--cube", clipped, "--labels", workdir / "a.hsil"])
        assert code == 2
        assert "data error" in capsys.readouterr().err


class TestActiveLearning:
    def al_argv(self, workdir, out, strategy="hybrid", seed=3):
        return ["al", "--config", workdir / "cfg.json", "--seed", seed,
                "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                "--manifest", workdir / "a.split.json",
                "--strategy", strategy, "--out", out]

    def test_round_log_structure(self, workdir, tmp_path):
        out = tmp_path / "rounds.ndjson"
        assert run(self.al_argv(workdir, out)) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 3
        keys = {"round", "strategy", "train_size", "queried_indices",
                "oa", "aa", "kappa", "wall_seconds"}
        for i, record in enumerate(records):
            assert set(record) == keys
            assert record["round"] == i
        assert [r["train_size"] for r in records] == [20, 24, 28]

    def test_rerun_identical_modulo_wall_clock(self, workdir, tmp_path):
        logs = []
        for stem in ("p", "q"):
            out = tmp_path / f"{stem}.ndjson"
            assert run(self.al_argv(workdir, out)) == 0
            records = [json.loads(line) for line in out.read_text().splitlines()]
            for record in records:
                record.pop("wall_seconds")
            logs.append(records)
        assert logs[0] == logs[1]

    def test_log_appends_across_runs(self, workdir, tmp_path):
        out = tmp_path / "grow.ndjson"
        assert run(self.al_argv(workdir, out)) == 0
        assert run(self.al_argv(workdir, out)) == 0
        assert len(out.read_text().splitlines()) == 6

    def test_bad_strategy_is_usage_error(self, workdir, tmp_path):
        argv = self.al_argv(workdir, tmp_path / "x.ndjson", strategy="psychic")
        assert run(argv) == 1


class TestAblate:
    def test_csv_rows_and_matched_budgets(self, workdir, tmp_path, capsys):
        out = tmp_path / "ablate.csv"
        code = run(["ablate", "--config", workdir / "cfg.json",
                    "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                    "--seeds", "0,1", "--out", out])
        assert code == 0
        capsys.readouterr()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        arms = ["random", "entropy", "margin", "diversity_only",
                "hybrid", "no_al", "no_diversity", "lambda0"]
        assert [r["strategy"] for r in rows] == arms * 2
        for seed in ("0", "1"):
            budgets = {r["budget"] for r in rows if r["seed"] == seed}
            assert len(budgets) == 1
        for row in rows:
            assert 0.0 <= float(row["oa"]) <= 100.0


    @pytest.mark.parametrize("seeds", ["-1", "0,-2"])
    def test_negative_seed_is_one_line_usage_error(self, workdir, capsys, seeds):
        # numpy's own message named neither the flag nor the value
        code = run(["ablate", "--config", workdir / "cfg.json", "--cube", workdir / "a.hsic",
                    "--labels", workdir / "a.hsil", "--seeds", seeds])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --seeds: ") and err.count("\n") == 1, err
        assert f"seeds must be >= 0, got {seeds.split(',')[-1]}" in err

    def test_transfer_arms_share_one_source_model_per_seed(self, tmp_path, monkeypatch, capsys):
        cfg = {
            "window": 4, "d_model": 8, "n_layers": 2, "n_heads": 2, "dropout": 0.0,
            "epochs": 1, "batch_size": 16, "query_size": 4, "rounds": 1,
            "ratios": [0.05, 0.45, 0.5], "sample_count": 32, "rho": 0.5,
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        for stem, seed, shift in (("a", 7, 0.0), ("b", 8, 1.5707963)):
            assert run(["synth", "--classes", 3, "--size", "16x16x8", "--seed", seed,
                        "--shift", shift, "--cube", tmp_path / f"{stem}.hsic",
                        "--labels", tmp_path / f"{stem}.hsil"]) == 0
        trained, starts = [], []
        train_model, run_transfer = cli.train_model, cli.run_transfer

        def train_spy(model, *args, **kwargs):
            trained.append(model)
            return train_model(model, *args, **kwargs)

        def transfer_spy(model, *args, rho, **kwargs):
            params = b"".join(p.data.tobytes() for p in model.parameters().values())
            starts.append((rho, model, params))
            return run_transfer(model, *args, rho=rho, **kwargs)

        monkeypatch.setattr(cli, "train_model", train_spy)
        monkeypatch.setattr(cli, "run_transfer", transfer_spy)
        out = tmp_path / "ablate.csv"
        code = run(["ablate", "--config", tmp_path / "cfg.json",
                    "--cube", tmp_path / "a.hsic", "--labels", tmp_path / "a.hsil",
                    "--target-cube", tmp_path / "b.hsic",
                    "--target-labels", tmp_path / "b.hsil",
                    "--seeds", "0,1", "--out", out])
        assert code == 0
        capsys.readouterr()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for seed in ("0", "1"):
            arms = [r["strategy"] for r in rows if r["seed"] == seed]
            assert arms[-2:] == ["freezing", "no_freezing"]
        # one source training per seed; each arm adapts a copy of it as trained
        assert len(trained) == 2
        assert [rho for rho, _, _ in starts] == [0.5, 0.0, 0.5, 0.0]
        for k, source in enumerate(trained):
            (_, first, first_params), (_, second, second_params) = starts[2 * k : 2 * k + 2]
            assert first is not source and second is not source and first is not second
            source_params = b"".join(p.data.tobytes() for p in source.parameters().values())
            assert first_params == second_params == source_params

    def test_transfer_budget_is_the_tuned_pixel_count(self, tmp_path, monkeypatch, capsys):
        # make_split rounds each class and keeps one pixel per class: 15 of
        # the 144 target pixels are tuned at 0.10, not round(14.4)
        cfg = {
            "window": 4, "d_model": 8, "n_layers": 1, "n_heads": 2, "epochs": 1,
            "batch_size": 16, "query_size": 2, "rounds": 1,
            "ratios": [0.1, 0.4, 0.5], "sample_count": 16,
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        for stem in ("a", "b"):
            assert run(["synth", "--classes", 3, "--size", "12x12x6", "--seed", 1,
                        "--cube", tmp_path / f"{stem}.hsic",
                        "--labels", tmp_path / f"{stem}.hsil"]) == 0
        tuned = []
        fine_tune = transfer_module.fine_tune

        def spy(model, features, *args, **kwargs):
            tuned.append(len(features))
            return fine_tune(model, features, *args, **kwargs)

        monkeypatch.setattr(transfer_module, "fine_tune", spy)
        out = tmp_path / "ablate.csv"
        assert run(["ablate", "--config", tmp_path / "cfg.json",
                    "--cube", tmp_path / "a.hsic", "--labels", tmp_path / "a.hsil",
                    "--target-cube", tmp_path / "b.hsic",
                    "--target-labels", tmp_path / "b.hsil",
                    "--seeds", "1", "--out", out]) == 0
        capsys.readouterr()
        with open(out, newline="") as fh:
            budgets = [int(r["budget"]) for r in csv.DictReader(fh)
                       if r["strategy"] in ("freezing", "no_freezing")]
        assert budgets == tuned == [15, 15]


class TestTransfer:
    def test_report_written(self, workdir, tmp_path, capsys):
        code = run(["synth", "--classes", 3, "--size", "20x20x8", "--seed", 8,
                    "--shift", 1.5707963,
                    "--cube", tmp_path / "b.hsic", "--labels", tmp_path / "b.hsil"])
        assert code == 0
        out = tmp_path / "transfer.json"
        code = run(["transfer", "--config", workdir / "cfg.json", "--seed", 3,
                    "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                    "--source-ckpt", workdir / "a.sstc",
                    "--target-cube", tmp_path / "b.hsic",
                    "--target-labels", tmp_path / "b.hsil",
                    "--checkpoint", tmp_path / "tuned.sstc", "--out", out])
        assert code == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert {"per_layer_mmd", "frozen", "zero_shot", "fine_tuned",
                "source", "target"} <= set(report)
        assert report["fine_tuned"]["n_samples"] > 0
        assert (tmp_path / "tuned.sstc").exists()

    def test_missing_target_flags_is_usage_error(self, workdir):
        assert run(["transfer", "--cube", workdir / "a.hsic",
                    "--labels", workdir / "a.hsil",
                    "--source-ckpt", workdir / "a.sstc"]) == 1


def with_config(**fields):
    return lambda header: {**header, "config": {**header["config"], **fields}}


class TestMalformedCheckpoint:
    """Every malformed SSTC header ends in exit 2, naming what is wrong."""

    def eval_bad(self, workdir, tmp_path, capsys, **rewrite):
        bad = tmp_path / "bad.sstc"
        rewrite_checkpoint(workdir / "a.sstc", bad, **rewrite)
        code = run(["eval", "--cube", workdir / "a.hsic",
                    "--labels", workdir / "a.hsil",
                    "--manifest", workdir / "a.split.json",
                    "--checkpoint", bad])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("data error:"), err
        return err

    def test_header_that_is_a_list(self, workdir, tmp_path, capsys):
        err = self.eval_bad(workdir, tmp_path, capsys, edit_header=lambda h: [h])
        assert "header must be a JSON object" in err

    def test_unknown_config_key(self, workdir, tmp_path, capsys):
        err = self.eval_bad(workdir, tmp_path, capsys, edit_header=with_config(depth=3))
        assert "unknown config field 'depth'" in err

    def test_missing_params(self, workdir, tmp_path, capsys):
        def drop_params(header):
            return {k: v for k, v in header.items() if k != "params"}

        err = self.eval_bad(workdir, tmp_path, capsys, edit_header=drop_params)
        assert "'params'" in err

    def test_config_field_of_wrong_type(self, workdir, tmp_path, capsys):
        err = self.eval_bad(workdir, tmp_path, capsys, edit_header=with_config(n_layers="x"))
        assert "config field 'n_layers' must be int, got 'x'" in err

    def test_nonfinite_payload(self, workdir, tmp_path, capsys):
        err = self.eval_bad(workdir, tmp_path, capsys, nan_at=3)
        assert "parameter embed.weight has non-finite values" in err

    @pytest.mark.parametrize("name, expected", [
        ("embed.weight", [32, 8]),
        ("enc0.ln1_gain", [8]),
        ("pool.class_query", [1, 8]),
        ("head.b1", [8]),
    ])
    def test_parameter_shape_against_config(self, workdir, tmp_path, capsys, name, expected):
        def reshape(header):
            for entry in header["params"]:
                if entry["name"] == name:
                    entry["shape"] = [2, 4]
            return header

        err = self.eval_bad(workdir, tmp_path, capsys, edit_header=reshape)
        assert f"parameter {name} has shape [2, 4], expected {expected}" in err

    def test_unknown_parameter(self, workdir, tmp_path, capsys):
        # the checkpoint has one encoder block, enc0
        for name in ("head.b3", "head.w3", "enc1.attn_q", "enc00.attn_q", "enc0.attn"):
            def rename(header):
                header["params"][-1]["name"] = name
                return header

            err = self.eval_bad(workdir, tmp_path, capsys, edit_header=rename)
            assert f"unknown parameter {name!r}" in err

    def test_repeated_parameter(self, workdir, tmp_path):
        # the last entry, head.b2 (3 values), listed twice with its payload
        # repeated; the second copy used to win silently
        bad = tmp_path / "twice.sstc"
        rewrite_checkpoint(workdir / "a.sstc", bad, edit_header=lambda h: {
            **h, "params": h["params"] + h["params"][-1:]})
        bad.write_bytes(bad.read_bytes() + (workdir / "a.sstc").read_bytes()[-24:])
        done = run_process(["eval", "--checkpoint", bad, "--cube", workdir / "a.hsic",
                            "--labels", workdir / "a.hsil"])
        assert_one_line(done, 2, "data error:")
        assert "parameter head.b2 is listed twice" in done.stderr


class TestModelSizeBounds:
    """A head count of zero, or a model too big to hold, is rejected from its
    config before any arithmetic or allocation, in a fresh process."""

    @pytest.mark.parametrize("field, value, message", [
        ("n_heads", 0, "n_heads must be >= 1, got 0"),
        ("d_ff", 10**12, "d_ff 1000000000000 and n_classes 3 give"),
        ("n_layers", 10**12, "n_layers 1000000000000, d_ff 32 and n_classes 3 give"),
    ], ids=["n_heads", "d_ff", "n_layers"])
    def test_train_setting(self, workdir, tmp_path, field, value, message):
        config = json.loads((workdir / "cfg.json").read_text())
        (tmp_path / "cfg.json").write_text(json.dumps({**config, field: value}))
        done = run_process(["train", "--config", tmp_path / "cfg.json",
                            "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                            "--manifest", tmp_path / "split.json",
                            "--checkpoint", tmp_path / "model.sstc"])
        assert_one_line(done, 1, "error:")
        assert message in done.stderr
        assert not (tmp_path / "split.json").exists() and not (tmp_path / "model.sstc").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("n_heads", 0, "n_heads must be >= 1, got 0"),
        ("n_layers", 10**9, "n_layers 1000000000, d_ff 32 and n_classes 3 give"),
    ], ids=["n_heads", "n_layers"])
    def test_checkpoint_header(self, workdir, tmp_path, field, value, message):
        bad = tmp_path / "bad.sstc"
        rewrite_checkpoint(workdir / "a.sstc", bad, edit_header=with_config(**{field: value}))
        done = run_process(["eval", "--checkpoint", bad, "--cube", workdir / "a.hsic",
                            "--labels", workdir / "a.hsil",
                            "--manifest", workdir / "a.split.json"])
        assert_one_line(done, 2, "data error:")
        assert "invalid config: " in done.stderr and message in done.stderr


class TestNumericalFailure:
    def test_huge_finite_parameters_exit_3(self, workdir, tmp_path):
        # the loader accepts any finite values; evaluation used to print
        # numpy's overflow warnings, score garbage and exit 0
        raw = (workdir / "a.sstc").read_bytes()
        start = 8 + int.from_bytes(raw[4:8], "little")
        huge = np.full((len(raw) - start) // 8, 1e200, dtype="<f8").tobytes()
        (tmp_path / "huge.sstc").write_bytes(raw[:start] + huge)
        done = run_process(["eval", "--checkpoint", tmp_path / "huge.sstc",
                            "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil"])
        assert_one_line(done, 3, "numerical failure: ")
        assert "huge.sstc: the model's class probabilities are not finite" in done.stderr

    def test_huge_finite_parameters_exit_3_in_transfer(self, workdir, tmp_path):
        # the freeze plan's capture used to print numpy's overflow warnings,
        # and the message did not name the checkpoint
        raw = (workdir / "a.sstc").read_bytes()
        start = 8 + int.from_bytes(raw[4:8], "little")
        huge = np.full((len(raw) - start) // 8, 1e200, dtype="<f8").tobytes()
        (tmp_path / "huge.sstc").write_bytes(raw[:start] + huge)
        done = run_process(["transfer", "--config", workdir / "cfg.json",
                            "--source-ckpt", tmp_path / "huge.sstc",
                            "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                            "--target-cube", workdir / "a.hsic",
                            "--target-labels", workdir / "a.hsil",
                            "--out", tmp_path / "transfer.json"])
        assert_one_line(done, 3, f"numerical failure: {tmp_path / 'huge.sstc'}: ")
        assert "Warning" not in done.stderr


    def test_fine_tuning_divergence_does_not_blame_the_checkpoint(self, workdir, tmp_path):
        # every numerical failure in transfer used to be prefixed with the
        # source checkpoint's path
        cfg = json.loads((workdir / "cfg.json").read_text())
        (tmp_path / "lr.json").write_text(json.dumps({**cfg, "lr": 1e300}))
        done = run_process(["transfer", "--config", tmp_path / "lr.json",
                            "--source-ckpt", workdir / "a.sstc",
                            "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                            "--target-cube", workdir / "a.hsic",
                            "--target-labels", workdir / "a.hsil",
                            "--out", tmp_path / "transfer.json"])
        assert_one_line(done, 3, "numerical failure: fine-tuning: loss became nan")
        assert "a.sstc" not in done.stderr


def write_cube(path, rows, cols, bands, nan_at=None):
    values = np.random.default_rng(0).normal(size=rows * cols * bands).astype("<f4")
    if nan_at is not None:
        values[nan_at] = np.nan
    header = np.array([rows, cols, bands], dtype="<u4").tobytes()
    path.write_bytes(b"HSIC" + header + values.tobytes())


def write_labels(path, labels):
    rows, cols = labels.shape
    header = np.array([rows, cols], dtype="<u4").tobytes()
    path.write_bytes(b"HSIL" + header + labels.astype("<u2").tobytes())


class TestIncompatibleData:
    """Data the checkpoint cannot score, or that breaks a format's value
    rules, ends in exit 2 naming both values, with no traceback."""

    def eval_data(self, workdir, capsys, cube=None, labels=None, manifest=None):
        argv = ["eval", "--checkpoint", workdir / "a.sstc",
                "--cube", cube or workdir / "a.hsic",
                "--labels", labels or workdir / "a.hsil"]
        if manifest is not None:
            argv += ["--manifest", manifest]
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("data error:") and "Traceback" not in err, err
        return err

    def synth(self, tmp_path, stem, classes, size):
        cube, labels = tmp_path / f"{stem}.hsic", tmp_path / f"{stem}.hsil"
        assert run(["synth", "--classes", classes, "--size", size, "--seed", 1,
                    "--cube", cube, "--labels", labels]) == 0
        return cube, labels

    def test_band_count(self, workdir, tmp_path, capsys):
        cube, labels = self.synth(tmp_path, "six", 3, "20x20x6")
        err = self.eval_data(workdir, capsys, cube, labels)
        assert "cube has 6 bands, the checkpoint expects 8" in err

    def test_class_ids_beyond_the_head(self, workdir, tmp_path, capsys):
        cube, labels = self.synth(tmp_path, "four", 4, "20x20x8")
        err = self.eval_data(workdir, capsys, cube, labels)
        assert "labels have class ids up to 4, the checkpoint has 3 classes" in err

    def test_window_beyond_cube_extent_in_eval(self, workdir, tmp_path, capsys):
        cube, labels = self.synth(tmp_path, "tiny", 3, "3x3x8")
        err = self.eval_data(workdir, capsys, cube, labels)
        assert "checkpoint window 4 exceeds cube extent (3, 3)" in err

    def test_window_beyond_cube_extent_in_transfer(self, workdir, tmp_path, capsys):
        cube, labels = self.synth(tmp_path, "tiny", 3, "3x3x8")
        code = run(["transfer", "--config", workdir / "cfg.json",
                    "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                    "--source-ckpt", workdir / "a.sstc",
                    "--target-cube", cube, "--target-labels", labels])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "checkpoint window 4 exceeds cube extent (3, 3)" in err

    def test_nonfinite_cube_value(self, workdir, tmp_path, capsys):
        write_cube(tmp_path / "nan.hsic", 20, 20, 8, nan_at=17)
        err = self.eval_data(workdir, capsys, cube=tmp_path / "nan.hsic")
        assert "nan.hsic: cube values must be finite" in err

    def test_signalling_nan_cube_value_prints_one_line(self, workdir, tmp_path):
        # float32 0x7f800001 is a signalling NaN; casting it used to print
        # numpy's invalid-cast warning ahead of the data error
        write_cube(tmp_path / "snan.hsic", 20, 20, 8)
        raw = bytearray((tmp_path / "snan.hsic").read_bytes())
        raw[16 + 4 * 17 : 16 + 4 * 18] = (0x7F800001).to_bytes(4, "little")
        (tmp_path / "snan.hsic").write_bytes(raw)
        done = run_process(["eval", "--checkpoint", workdir / "a.sstc",
                            "--cube", tmp_path / "snan.hsic", "--labels", workdir / "a.hsil"])
        assert_one_line(done, 2, "data error:")
        assert "snan.hsic: cube values must be finite" in done.stderr

    def eval_manifest(self, workdir, tmp_path, edit):
        """stderr of ``eval`` with an edited copy of the manifest, checked to
        be one data-error line naming the copy and exit 2 (these used to
        exit 1)."""
        doc = json.loads((workdir / "a.split.json").read_text())
        edit(doc)
        (tmp_path / "edited.json").write_text(json.dumps(doc))
        done = run_process(["eval", "--checkpoint", workdir / "a.sstc",
                            "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                            "--manifest", tmp_path / "edited.json"])
        assert_one_line(done, 2, "data error: ")
        assert "edited.json: " in done.stderr
        return done.stderr

    @pytest.mark.parametrize("stray", ["missing", "extra"])
    def test_manifest_that_does_not_partition_the_labels(self, workdir, tmp_path, stray):
        # every pixel of the 20x20 map is labeled, so 400 is not
        pixel = json.loads((workdir / "a.split.json").read_text())["test"][0]
        if stray == "missing":
            err = self.eval_manifest(workdir, tmp_path, lambda doc: doc["test"].remove(pixel))
            assert f"pixel {pixel} is labeled but not listed" in err
        else:
            err = self.eval_manifest(workdir, tmp_path, lambda doc: doc["pool"].append(400))
            assert "pixel 400 is listed but not labeled" in err
        assert "manifest does not partition the labeled pixels" in err

    def test_manifest_class_without_a_train_pixel(self, workdir, tmp_path):
        flat = load_labels(workdir / "a.hsil").labels.ravel()

        def untrain_class_2(doc):
            doc["pool"] += [i for i in doc["train"] if flat[i] == 2]
            doc["train"] = [i for i in doc["train"] if flat[i] != 2]

        err = self.eval_manifest(workdir, tmp_path, untrain_class_2)
        assert "every class needs at least one train pixel; class 2 has none" in err

    def test_noncontiguous_class_ids(self, workdir, tmp_path, capsys):
        labels = np.ones((20, 20), dtype=np.int64)
        labels[:5] = 3
        write_labels(tmp_path / "gap.hsil", labels)
        err = self.eval_data(workdir, capsys, labels=tmp_path / "gap.hsil")
        assert "gap.hsil: class ids must be contiguous from 1" in err

    def test_overlapping_manifest_sets(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "a.split.json").read_text())
        doc["pool"].append(doc["train"][0])
        (tmp_path / "overlap.json").write_text(json.dumps(doc))
        err = self.eval_data(workdir, capsys, manifest=tmp_path / "overlap.json")
        assert "overlap.json: not a valid split manifest" in err
        assert "must be disjoint" in err

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize("size", [16, 24])
    def test_label_map_of_another_extent(self, workdir, tmp_path, capsys, command, size):
        labels = np.arange(size * size).reshape(size, size) % 3 + 1
        write_labels(tmp_path / "other.hsil", labels)
        argv = [command, "--config", workdir / "cfg.json", "--cube", workdir / "a.hsic",
                "--labels", tmp_path / "other.hsil"]
        if command == "eval":
            argv += ["--checkpoint", workdir / "a.sstc"]
        else:
            argv += ["--manifest", tmp_path / "split.json"]
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("data error:") and "Traceback" not in err, err
        assert f"label map is {size}x{size} but the cube is 20x20" in err

    def test_checkpoint_window_beyond_a_larger_cube(self, workdir, tmp_path, capsys):
        cube, labels = self.synth(tmp_path, "wide", 3, "48x48x8")
        rewrite_checkpoint(workdir / "a.sstc", tmp_path / "wide.sstc",
                           edit_header=with_config(window=65536))
        code = run(["eval", "--checkpoint", tmp_path / "wide.sstc",
                    "--cube", cube, "--labels", labels])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "checkpoint window 65536 exceeds cube extent (48, 48)" in err

    def test_manifest_with_no_test_pixel_in_eval(self, workdir, tmp_path):
        # scored nothing and ended in "error: confusion matrix is empty", exit 1
        def move_test_to_pool(doc):
            doc["pool"] += doc.pop("test")
            doc["test"] = []

        err = self.eval_manifest(workdir, tmp_path, move_test_to_pool)
        assert "edited.json: the manifest lists no test pixel" in err

    def test_manifest_with_no_test_pixel_in_train(self, workdir, tmp_path):
        # trained, then ended in "error: confusion matrix is empty", exit 1
        doc = json.loads((workdir / "a.split.json").read_text())
        doc["pool"] += doc.pop("test")
        (tmp_path / "notest.json").write_text(json.dumps({**doc, "test": []}))
        done = run_process(["train", "--config", workdir / "cfg.json",
                            "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                            "--manifest", tmp_path / "notest.json",
                            "--checkpoint", tmp_path / "model.sstc"])
        assert_one_line(done, 2, "data error: ")
        assert "notest.json: the manifest lists no test pixel" in done.stderr
        assert not (tmp_path / "model.sstc").exists()

    @pytest.mark.parametrize("field, value, expected", [
        ("seed", 1.5, "'seed' must be int"),
        ("seed", True, "'seed' must be int"),
        ("ratios", [0.5, 0.5], "'ratios' must be [float, float, float]"),
        ("train", lambda pixels: [pixels[0] + 0.5, *pixels[1:]], "'train' must be [int, ...]"),
        ("pool", lambda pixels: [float(pixels[0]), *pixels[1:]], "'pool' must be [int, ...]"),
        ("test", lambda pixels: [str(pixels[0]), *pixels[1:]], "'test' must be [int, ...]"),
    ], ids=["seed-float", "seed-bool", "ratios-two", "train-fraction", "pool-float",
            "test-string"])
    def test_manifest_field_of_wrong_json_type(self, workdir, tmp_path, capsys,
                                               field, value, expected):
        # each was read as another value, and eval scored with it (exit 0)
        doc = json.loads((workdir / "a.split.json").read_text())
        doc[field] = value(doc[field]) if callable(value) else value
        (tmp_path / "typed.json").write_text(json.dumps(doc))
        err = self.eval_data(workdir, capsys, manifest=tmp_path / "typed.json")
        assert f"typed.json: manifest field {expected}" in err


class TestCheckedBeforeAnyFile:
    """A split with nothing to test on, or a setting that used to reach numpy
    unchecked, ends in one line and exit 1 before any file is written or any
    model is trained, in a fresh process."""

    def run_with(self, workdir, tmp_path, command, **fields):
        config = json.loads((workdir / "cfg.json").read_text())
        (tmp_path / "cfg.json").write_text(json.dumps({**config, **fields}))
        argv = [command, "--config", tmp_path / "cfg.json",
                "--cube", workdir / "a.hsic", "--labels", workdir / "a.hsil",
                "--out", tmp_path / "out"]
        if command == "ablate":
            argv += ["--seeds", "0"]
        elif command == "transfer":
            argv += ["--source-ckpt", workdir / "a.sstc", "--target-cube", workdir / "a.hsic",
                     "--target-labels", workdir / "a.hsil", "--checkpoint", tmp_path / "t.sstc"]
        else:
            argv += ["--manifest", tmp_path / "split.json", "--checkpoint", tmp_path / "m.sstc"]
        done = run_process(argv)
        assert sorted(tmp_path.iterdir()) == [tmp_path / "cfg.json"]
        return done

    @pytest.mark.parametrize("command", ["train", "al", "ablate"])
    def test_ratios_that_leave_no_test_pixel(self, workdir, tmp_path, command):
        # trained every model, then ended in "error: confusion matrix is empty"
        done = self.run_with(workdir, tmp_path, command, ratios=[1, 0, 0])
        assert_one_line(done, 1, "error: ratios [1, 0, 0] leave no test pixel")

    @pytest.mark.parametrize("command", ["al", "ablate"])
    @pytest.mark.parametrize("width", [1000001, 1000000000001])
    def test_neighborhood_wider_than_the_cube(self, workdir, tmp_path, command, width):
        # numpy's _ArrayMemoryError traceback, or "array is too big", after training
        done = self.run_with(workdir, tmp_path, command, n_neighborhood=width)
        assert_one_line(done, 1, f"error: n_neighborhood {width} exceeds cube extent (20, 20)")

    @pytest.mark.parametrize("bandwidth", [1e-300, 1e-160])
    def test_bandwidth_without_a_finite_kernel_scale(self, workdir, tmp_path, bandwidth):
        # a ZeroDivisionError traceback, or exit 0 with a per-layer MMD of NaN
        done = self.run_with(workdir, tmp_path, "transfer", bandwidth=bandwidth)
        assert_one_line(done, 1, "error: bandwidth must be positive with a finite kernel scale")
        assert f"got {bandwidth!r}" in done.stderr


class TestAllocatorThresholds:
    """``main`` asks glibc once per process to keep freed memory."""

    @pytest.fixture(autouse=True)
    def fresh_process(self):
        cli._keep_freed_pages.cache_clear()
        yield
        cli._keep_freed_pages.cache_clear()

    def test_main_sets_both_thresholds_once(self, monkeypatch):
        calls = []

        class Mallopt:
            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        class Libc:
            mallopt = Mallopt()

        monkeypatch.setattr(cli, "_libc", Libc)
        assert cli.main([]) == 1
        assert cli.main([]) == 1
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
        assert Libc.mallopt.argtypes == [ctypes.c_int, ctypes.c_int]

    @pytest.mark.parametrize("libc", [object(), None])
    def test_no_mallopt_is_skipped(self, monkeypatch, libc):
        monkeypatch.setattr(cli, "_libc", lambda: libc)
        assert cli.main([]) == 1

    def test_importing_the_package_calls_nothing(self):
        src = Path(cli.__file__).resolve().parents[1]
        script = (
            "import ctypes, numpy\n"
            "opened = []\n"
            "real = ctypes.CDLL\n"
            "ctypes.CDLL = lambda *a, **k: opened.append(a) or real(*a, **k)\n"
            "import hsiatl, hsiatl.cli\n"
            "print(len(opened), hsiatl.cli._keep_freed_pages.cache_info().currsize)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], cwd=src,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "0"]
