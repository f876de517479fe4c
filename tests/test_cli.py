import csv
import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from boda import cli, losses, model, stats, trainer
from boda.datagen import (DatasetSpec, DomainShift, LabelProfile,
                          load_dataset, save_spec, spec_to_dict)
from boda.fileio import write_json
from boda.trainer import TrainConfig

from conftest import divergent_spec, tiny_spec


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    save_spec(tiny_spec(seed=13), path)
    return path


@pytest.fixture()
def dataset_path(tmp_path, spec_path):
    out = tmp_path / "data.csv"
    assert cli.main(["gen", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


def write_config(tmp_path, **kwargs):
    defaults = dict(steps=40, batch_per_domain=8, eval_every=20, seed=2,
                    hidden=(12,), rep_dim=5)
    defaults.update(kwargs)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(trainer.config_to_dict(TrainConfig(**defaults))))
    return path


@pytest.fixture()
def run_dir(tmp_path, dataset_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(dataset_path),
                     "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestGen:
    def test_writes_dataset_and_manifest(self, tmp_path, spec_path):
        out = tmp_path / "ds.csv"
        assert cli.main(["gen", "--spec", str(spec_path),
                         "--out", str(out)]) == 0
        assert out.exists()
        manifest = json.loads((tmp_path / "ds.csv.manifest.json").read_text())
        assert manifest["command"] == "gen"
        with open(out) as fh:
            n_rows = sum(1 for _ in fh) - 1
        # row count = train + val + test
        from boda.datagen import generate
        ds = generate(tiny_spec(seed=13))
        assert n_rows == len(ds.train) + len(ds.val) + len(ds.test)

    def test_deterministic_bytes(self, tmp_path, spec_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["gen", "--spec", str(spec_path), "--out", str(out1)])
        cli.main(["gen", "--spec", str(spec_path), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_field_exit_2(self, tmp_path, capsys):
        data = spec_to_dict(tiny_spec())
        del data["input_dim"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = cli.main(["gen", "--spec", str(bad),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "input_dim" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda data: data["profiles"][0].update(max_count="a"),
        lambda data: data.update(zero_pairs=[[0]]),
        lambda data: data.update(noise_std=float("nan")),
        lambda data: data.update(class_separation=float("inf")),
        lambda data: data["domain_shift"][1].update(rotation=float("nan")),
        lambda data: data["domain_shift"][1]["translation"].__setitem__(
            0, float("inf")),
        lambda data: data["profiles"][0].update(imbalance_ratio=float("nan")),
    ], ids=["max_count", "zero_pairs", "nan_noise", "inf_separation",
            "nan_rotation", "inf_translation", "nan_imbalance"])
    def test_bad_value_exit_2(self, tmp_path, capsys, edit):
        data = spec_to_dict(tiny_spec())
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "x.csv"
        assert cli.main(["gen", "--spec", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("validation error:")
        assert not out.exists()

    @pytest.mark.parametrize("document", ["null", "3"])
    def test_not_an_object_exit_2(self, tmp_path, capsys, document):
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        assert cli.main(["gen", "--spec", str(bad),
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "JSON object" in capsys.readouterr().err


class TestTrain:
    def test_outputs_exist(self, run_dir):
        assert (run_dir / "checkpoint.json").exists()
        assert (run_dir / "log.csv").exists()
        assert (run_dir / "manifest.json").exists()

    def test_omega_zero_boda_column_zero(self, tmp_path, dataset_path):
        cfg = write_config(tmp_path, omega=0.0)
        out = tmp_path / "erm"
        assert cli.main(["train", "--data", str(dataset_path),
                         "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["boda"]) == 0.0 for r in rows)

    def test_decouple_stage_marker(self, tmp_path, dataset_path):
        cfg = write_config(tmp_path, decouple=True, decouple_steps=20)
        out = tmp_path / "two_stage"
        assert cli.main(["train", "--data", str(dataset_path),
                         "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "log.csv") as fh:
            stages = {r["stage"] for r in csv.DictReader(fh)}
        assert stages == {"1", "2"}

    def test_missing_data_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli.main(["train", "--data", str(tmp_path / "nope.csv"),
                         "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 2

    def test_seed_flag_overrides_config(self, tmp_path, dataset_path):
        cfg = write_config(tmp_path, steps=25)
        ckpts = {}
        for seed in (1, 2):
            out = tmp_path / f"seed{seed}"
            assert cli.main(["train", "--data", str(dataset_path),
                             "--config", str(cfg), "--out", str(out),
                             "--seed", str(seed)]) == 0
            ckpts[seed] = (out / "checkpoint.json").read_bytes()
        assert ckpts[1] != ckpts[2]
        manifest = json.loads(
            (tmp_path / "seed2" / "manifest.json").read_text()
        )
        assert manifest["seed"] == 2


class TestAnalyze:
    def test_artifacts(self, tmp_path, dataset_path, run_dir):
        out = tmp_path / "analysis"
        assert cli.main(["analyze",
                         "--checkpoint", str(run_dir / "checkpoint.json"),
                         "--data", str(dataset_path),
                         "--out", str(out), "--nu", "1.0"]) == 0
        graph = json.loads((out / "graph.json").read_text())
        n_pairs = len(graph["keys"])
        assert len(graph["weights"]) == n_pairs * n_pairs
        stats = json.loads((out / "transfer_stats.json").read_text())
        assert {"alpha", "beta", "gamma", "calibrated"} <= set(stats)
        with open(out / "mds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n_pairs

    def test_distances_freed_before_mds(self, tmp_path, dataset_path,
                                        run_dir, monkeypatch):
        """``analyze`` needs only the graph, so the (N, K) distance array is
        released before MDS and the writers run."""
        refs, alive = [], []
        original, mds_2d = stats.distances, cli.mds_2d

        def recording(*args, **kwargs):
            dist = original(*args, **kwargs)
            refs.append(weakref.ref(dist))
            return dist

        def checking(graph):
            alive.extend(ref() is not None for ref in refs)
            return mds_2d(graph)

        monkeypatch.setattr(stats, "distances", recording)
        monkeypatch.setattr(cli, "mds_2d", checking)
        assert cli.main(["analyze",
                         "--checkpoint", str(run_dir / "checkpoint.json"),
                         "--data", str(dataset_path),
                         "--out", str(tmp_path / "analysis")]) == 0
        assert alive == [False]

    def test_graph_dimension_excludes_zero_pairs(self, tmp_path):
        import dataclasses

        from boda.datagen import save_spec

        spec = dataclasses.replace(tiny_spec(seed=17),
                                   zero_pairs=frozenset({(0, 0), (1, 2)}))
        spec_path = tmp_path / "zspec.json"
        save_spec(spec, spec_path)
        data_path = tmp_path / "zdata.csv"
        assert cli.main(["gen", "--spec", str(spec_path),
                         "--out", str(data_path)]) == 0
        cfg = write_config(tmp_path, steps=25)
        run = tmp_path / "zrun"
        assert cli.main(["train", "--data", str(data_path),
                         "--config", str(cfg), "--out", str(run)]) == 0
        out = tmp_path / "zanalysis"
        assert cli.main(["analyze",
                         "--checkpoint", str(run / "checkpoint.json"),
                         "--data", str(data_path),
                         "--out", str(out)]) == 0
        graph = json.loads((out / "graph.json").read_text())
        nonzero = spec.num_domains * spec.num_classes - 2
        assert len(graph["keys"]) == nonzero
        assert [0, 0] not in graph["keys"]

    def test_grid_above_512_pairs(self, tmp_path):
        # 2 x 257 = 514 pairs: past the size cap of the earlier eigensolver
        from boda import model

        spec = tiny_spec(seed=19, num_classes=257, max_count=2, ratio=1.0,
                         test_per_pair=1, val_per_pair=1)
        spec_path = tmp_path / "wide.json"
        save_spec(spec, spec_path)
        data_path = tmp_path / "wide.csv"
        assert cli.main(["gen", "--spec", str(spec_path),
                         "--out", str(data_path)]) == 0
        ckpt = tmp_path / "untrained.json"
        model.save_checkpoint(model.init(4, (8,), 4, 257, seed=1), ckpt)
        out = tmp_path / "wide_analysis"
        assert cli.main(["analyze", "--checkpoint", str(ckpt),
                         "--data", str(data_path), "--out", str(out)]) == 0
        with open(out / "mds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 257

    def test_nu_zero_calibrated_equals_plain(self, tmp_path, dataset_path,
                                             run_dir):
        out = tmp_path / "analysis0"
        assert cli.main(["analyze",
                         "--checkpoint", str(run_dir / "checkpoint.json"),
                         "--data", str(dataset_path),
                         "--out", str(out), "--nu", "0.0"]) == 0
        stats = json.loads((out / "transfer_stats.json").read_text())
        assert stats["calibrated"]["alpha"] == stats["alpha"]
        assert stats["calibrated"]["beta"] == stats["beta"]
        assert stats["calibrated"]["gamma"] == stats["gamma"]


def _corrupt_layers(ckpt):
    ckpt["encoder"] = ckpt["encoder"][:-1]


def _corrupt_bias(ckpt):
    ckpt["encoder"][0]["b"] = ckpt["encoder"][0]["b"][:-1]


def _corrupt_classifier_bias(ckpt):
    ckpt["classifier"]["b"] = ckpt["classifier"]["b"] + [0.0]


class TestMalformedInputs:
    @pytest.mark.parametrize("corrupt", [_corrupt_layers, _corrupt_bias,
                                         _corrupt_classifier_bias])
    def test_checkpoint_shape_exit_2(self, tmp_path, dataset_path, run_dir,
                                     capsys, corrupt):
        ckpt = json.loads((run_dir / "checkpoint.json").read_text())
        corrupt(ckpt)
        bad = tmp_path / "bad_ckpt.json"
        bad.write_text(json.dumps(ckpt))
        code = cli.main(["analyze", "--checkpoint", str(bad),
                         "--data", str(dataset_path),
                         "--out", str(tmp_path / "a")])
        assert code == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["drop_column", "extra_column",
                                      "negative_domain", "negative_class",
                                      "nan_feature", "inf_feature",
                                      "int64_overflow_class", "huge_class",
                                      "grid_over_cap"])
    def test_dataset_row_exit_2(self, tmp_path, dataset_path, run_dir,
                                capsys, edit):
        lines = dataset_path.read_text().splitlines()
        fields = lines[5].split(",")
        if edit == "drop_column":
            fields = fields[:-1]
        elif edit == "extra_column":
            fields = fields + ["0.5"]
        elif edit == "negative_domain":
            fields[1] = "-1"
        elif edit == "negative_class":
            fields[2] = "-2"
        elif edit == "int64_overflow_class":
            fields[2] = "99999999999999999999"
        elif edit == "huge_class":  # a dense grid would need 44.7 GiB
            fields[2] = "3000000000"
        elif edit == "grid_over_cap":  # each id alone is below the cap
            fields[1], fields[2] = "60000", "1"
        else:
            fields[3] = "nan" if edit == "nan_feature" else "-inf"
        lines[5] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = cli.main(["analyze",
                         "--checkpoint", str(run_dir / "checkpoint.json"),
                         "--data", str(bad), "--out", str(tmp_path / "a")])
        assert code == 2
        assert "dataset line 6" in capsys.readouterr().err


class TestVerifyBound:
    def test_report_and_exit_code(self, tmp_path, dataset_path, run_dir):
        out = tmp_path / "bound.json"
        code = cli.main(["verify-bound",
                         "--checkpoint", str(run_dir / "checkpoint.json"),
                         "--data", str(dataset_path),
                         "--out", str(out), "--calibrated"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["gap"] >= -1e-9
        assert {"empirical", "theoretical", "gap", "relative_gap"} \
            <= set(report)

    def test_untrained_model_still_valid(self, tmp_path, dataset_path):
        # the bound holds for any representations, trained or not
        from boda import model
        from boda.datagen import load_dataset
        ds = load_dataset(dataset_path)
        params = model.init(ds.input_dim, (8,), 4, ds.num_classes, seed=1)
        ckpt = tmp_path / "untrained.json"
        model.save_checkpoint(params, ckpt)
        out = tmp_path / "bound0.json"
        assert cli.main(["verify-bound", "--checkpoint", str(ckpt),
                         "--data", str(dataset_path),
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["gap"] >= -1e-9


def _on_full_disk(write):
    """``write`` run while ``json.dump`` writes a prefix and then fails, as
    it would on a full disk."""
    def bad(path, monkeypatch):
        def dump(obj, fh, **kwargs):
            fh.write("[")
            raise OSError("No space left on device")

        monkeypatch.setattr(json, "dump", dump)
        write(path)
    return bad


def _graph(path):
    stats.save_graph(stats.TransferabilityGraph(
        [(0, 0), (1, 0)], np.array([[0.0, 1.5], [2.5, 0.0]])), path)


def _stats(path):
    stats.save_stats(stats.StatsStore([0, 1], [0, 0], np.ones((2, 2)),
                                      np.zeros((2, 2, 2)), [1, 2]), path)


def _spec(path):
    save_spec(tiny_spec(seed=13), path)


_KEYS = [(0, 0), (1, 0)]
_LOG_ROW = trainer.LogRow(step=1, ce=0.5, boda=0.1, joint=0.51,
                          val_accuracy=50.0, alpha=1.0, beta=2.0, gamma=3.0,
                          bound_gap=0.2)
_TRIAL = trainer.TrialRecord(0, 1e-3, 16, 0, 50.0, 1.0, 2.0, 3.0)
_MISSING = SimpleNamespace(step=2, trial=1)  # a record missing its fields

# writer -> (a good write, a write that raises partway, its exception)
WRITERS = {
    "write_json": (lambda p: write_json({"a": 1}, p),
                   lambda p, _: write_json({"a": 2, "b": object()}, p),
                   TypeError),
    "save_graph": (_graph, _on_full_disk(_graph), OSError),
    "save_stats": (_stats, _on_full_disk(_stats), OSError),
    "save_spec": (_spec, _on_full_disk(_spec), OSError),
    "save_mds_csv": (
        lambda p: stats.save_mds_csv(_KEYS, [(0.5, 1.0), (2.0, 3.0)], p),
        lambda p, _: stats.save_mds_csv(_KEYS, [(0.5, 1.0), (2.0,)], p),
        ValueError),
    "save_log_csv": (
        lambda p: trainer.save_log_csv([_LOG_ROW, _LOG_ROW], p),
        lambda p, _: trainer.save_log_csv([_LOG_ROW, _MISSING], p),
        AttributeError),
    "save_trials_csv": (
        lambda p: trainer.save_trials_csv([_TRIAL, _TRIAL], p),
        lambda p, _: trainer.save_trials_csv([_TRIAL, _MISSING], p),
        AttributeError),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    good, bad, error = WRITERS[writer]
    path = tmp_path / "out"
    good(path)
    before = path.read_bytes()
    with pytest.raises(error):
        bad(path, monkeypatch)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestFileErrors:
    # A path that cannot be read or written, or a file that is not text,
    # is an input error (exit 2, no traceback), found before any training.
    @pytest.mark.parametrize("case", ["train_out_is_file", "data_is_dir",
                                      "checkpoint_is_dir", "spec_is_dir",
                                      "data_is_binary"])
    def test_exit_2(self, tmp_path, dataset_path, monkeypatch, capsys, case):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(trainer, "train", no_training)
        cfg, data, out = str(write_config(tmp_path)), str(dataset_path), \
            str(tmp_path / "out")
        a_file = tmp_path / "file.txt"
        a_file.write_text("x\n")
        binary = tmp_path / "binary.csv"
        binary.write_bytes(bytes(range(128, 256)) * 8)
        argv = {
            "train_out_is_file": ["train", "--data", data, "--config", cfg,
                                  "--out", str(a_file)],
            "data_is_dir": ["train", "--data", str(tmp_path),
                            "--config", cfg, "--out", out],
            "checkpoint_is_dir": ["analyze", "--checkpoint", str(tmp_path),
                                  "--data", data, "--out", out],
            "spec_is_dir": ["gen", "--spec", str(tmp_path),
                            "--out", str(tmp_path / "x.csv")],
            "data_is_binary": ["train", "--data", str(binary),
                               "--config", cfg, "--out", out],
        }[case]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error") and "Traceback" not in err


class TestParameterValidation:
    # A non-finite or negative nu, lr or omega is an input error (exit 2)
    # where it enters, not a NaN report or a traceback later on.
    @pytest.mark.parametrize("nu", ["nan", "inf", "-3"])
    def test_analyze_bad_nu_exit_2(self, tmp_path, dataset_path, run_dir,
                                   nu):
        out = tmp_path / "a"
        code = cli.main(["analyze",
                         "--checkpoint", str(run_dir / "checkpoint.json"),
                         "--data", str(dataset_path), "--out", str(out),
                         "--nu", nu])
        assert code == 2
        assert not (out / "transfer_stats.json").exists()

    @pytest.mark.parametrize("nu", ["nan", "inf", "-3"])
    @pytest.mark.parametrize("calibrated", [True, False])
    def test_verify_bound_bad_nu_exit_2(self, tmp_path, dataset_path, run_dir,
                                        nu, calibrated):
        out = tmp_path / "bound.json"
        code = cli.main(["verify-bound",
                         "--checkpoint", str(run_dir / "checkpoint.json"),
                         "--data", str(dataset_path), "--out", str(out),
                         "--nu", nu] + (["--calibrated"] if calibrated else []))
        assert code == 2
        assert not out.exists()

    # So is a value of the wrong JSON type or a layer width below 1; field
    # None stands for a config document that is not an object.
    @pytest.mark.parametrize("field,value", [
        ("lr", float("nan")), ("lr", float("inf")), ("omega", float("nan")),
        ("omega", float("inf")), ("nu", float("nan")), ("nu", -3.0),
        ("steps", "10"), ("steps", 1.5), ("hidden", "ab"), ("nu", "x"),
        (None, None), ("hidden", [-3]), ("hidden", [8, 0]),
    ])
    def test_train_bad_config_exit_2(self, tmp_path, dataset_path, capsys,
                                     field, value):
        data = trainer.config_to_dict(TrainConfig(steps=40))
        data[field] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data if field else value))
        out = tmp_path / "run"
        code = cli.main(["train", "--data", str(dataset_path),
                         "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert (field or "config") in capsys.readouterr().err
        assert not (out / "checkpoint.json").exists()

    def test_calibrated_bound_past_exp_overflow(self, tmp_path):
        # README data, untrained default model: at nu = 3 the calibrated
        # bound's exponent is past exp()'s float range.
        spec = tmp_path / "spec.json"
        data = tmp_path / "data.csv"
        save_spec(divergent_spec(seed=0), spec)
        assert cli.main(["gen", "--spec", str(spec), "--out", str(data)]) == 0
        ds = load_dataset(data)
        ckpt = tmp_path / "untrained.json"
        model.save_checkpoint(
            model.init(ds.input_dim, (64, 64), 16, ds.num_classes, seed=0),
            ckpt)
        out = tmp_path / "bound.json"
        assert cli.main(["verify-bound", "--checkpoint", str(ckpt),
                         "--data", str(data), "--out", str(out),
                         "--calibrated", "--nu", "3"]) == 0
        report = json.loads(out.read_text())
        assert all(np.isfinite(v) for v in report.values())
        assert report["gap"] >= 0


class TestDivergence:
    # A run whose loss, gradient or representations overflow is a numerical
    # failure (exit 3) and saves no checkpoint, whether it blows up inside
    # the loop (500 steps) or in the final diagnostics (1 step).
    # The one-line report is all it prints: no numpy RuntimeWarning.
    @pytest.mark.parametrize("steps", [1, 500])
    @pytest.mark.parametrize("omega,variant", [(0.0, "calibrated_boda"),
                                               (0.1, "calibrated_boda"),
                                               (0.1, "boda_m")],
                             ids=["erm", "calibrated_boda", "boda_m"])
    def test_lr_overflow_exit_3(self, tmp_path, capsys, omega, variant,
                                steps):
        spec, data = tmp_path / "spec.json", tmp_path / "data.csv"
        save_spec(divergent_spec(seed=0), spec)
        assert cli.main(["gen", "--spec", str(spec), "--out", str(data)]) == 0
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"lr": 1e308, "omega": omega,
                                   "variant": variant, "steps": steps}))
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["train", "--data", str(data), "--config",
                             str(cfg), "--out", str(out)]) == 3
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ")
        if steps > 1:
            assert "training diverged at step 2" in err
        assert not (out / "checkpoint.json").exists()


class TestGradcheck:
    def test_passes_and_reports(self, tmp_path):
        out = tmp_path / "grad.json"
        assert cli.main(["gradcheck", "--seed", "5", "--trials", "10",
                         "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"da", "boda", "calibrated_boda", "boda_m"}
        assert all(v <= 1e-4 for v in report.values())

    def test_zero_trials_exit_2(self, tmp_path):
        code = cli.main(["gradcheck", "--seed", "1", "--trials", "0",
                         "--out", str(tmp_path / "g.json")])
        assert code == 2

    def test_wrong_gradient_exit_3(self, tmp_path, monkeypatch, capsys):
        real = losses.alignment_grad

        def scaled(*args, **kwargs):
            result, grad = real(*args, **kwargs)
            return result, 1.01 * grad

        monkeypatch.setattr(losses, "alignment_grad", scaled)
        code = cli.main(["gradcheck", "--seed", "5", "--trials", "3",
                         "--out", str(tmp_path / "g.json")])
        assert code == 3
        assert "gradient check failed" in capsys.readouterr().err

    def test_fixed_seed_identical_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["gradcheck", "--seed", "3", "--trials", "5", "--out", str(a)])
        cli.main(["gradcheck", "--seed", "3", "--trials", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def test_rows_equal_trials(self, tmp_path, dataset_path):
        cfg = write_config(tmp_path, steps=25)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--data", str(dataset_path),
                         "--config", str(cfg), "--trials", "3",
                         "--out", str(out), "--seed", "4"]) == 0
        with open(out / "trials.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        corr = json.loads((out / "correlation.json").read_text())
        assert {"pearson", "spearman"} <= set(corr)

    def test_deterministic_outputs(self, tmp_path, dataset_path):
        cfg = write_config(tmp_path, steps=25)
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert cli.main(["sweep", "--data", str(dataset_path),
                             "--config", str(cfg), "--trials", "2",
                             "--out", str(out), "--seed", "4"]) == 0
            outs.append((out / "trials.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_thread_env_var(self, tmp_path, dataset_path, monkeypatch):
        cfg = write_config(tmp_path, steps=25)
        monkeypatch.setenv("BODA_THREADS", "2")
        out = tmp_path / "par"
        assert cli.main(["sweep", "--data", str(dataset_path),
                         "--config", str(cfg), "--trials", "2",
                         "--out", str(out), "--seed", "4"]) == 0
        seq = tmp_path / "seq"
        monkeypatch.setenv("BODA_THREADS", "1")
        assert cli.main(["sweep", "--data", str(dataset_path),
                         "--config", str(cfg), "--trials", "2",
                         "--out", str(seq), "--seed", "4"]) == 0
        assert (out / "trials.csv").read_bytes() == \
            (seq / "trials.csv").read_bytes()


class TestThreadCountDeterminism:
    """Every output of ``train`` and ``analyze`` is the same bytes whether
    BLAS runs on one thread or two."""

    # Runs each argv of a JSON list in turn; exits 1 at the first failure.
    SCRIPT = ("import json, sys\nfrom boda import cli\n"
              "sys.exit(any(cli.main(a) for a in json.loads(sys.argv[1])))")

    def _outputs(self, tmp_path, spec_path, cfg):
        """Files written by gen, train and analyze in one subprocess per BLAS
        thread count (1, 2); manifests without their duration."""
        commands = [
            ["gen", "--spec", str(spec_path), "--out", "data.csv"],
            ["train", "--data", "data.csv", "--config", str(cfg),
             "--out", "run"],
            ["analyze", "--data", "data.csv", "--checkpoint",
             "run/checkpoint.json", "--out", "analysis"],
        ]
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                               if p)
        procs = {}
        for threads in ("1", "2"):
            cwd = tmp_path / f"threads{threads}"
            cwd.mkdir()
            env = dict(os.environ, PYTHONPATH=path,
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            procs[threads] = subprocess.Popen(
                [sys.executable, "-c", self.SCRIPT, json.dumps(commands)],
                cwd=cwd, env=env, stderr=subprocess.PIPE, text=True)
        for proc in procs.values():
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err

        def outputs(root):
            files = {}
            for path in sorted(root.rglob("*")):
                if path.is_file():
                    data = path.read_bytes()
                    if path.name.endswith("manifest.json"):
                        data = json.loads(data)
                        del data["duration_seconds"]
                    files[str(path.relative_to(root))] = data
            return files

        return outputs(tmp_path / "threads1"), outputs(tmp_path / "threads2")

    def test_one_and_two_blas_threads_byte_identical(self, tmp_path,
                                                     spec_path):
        cfg = write_config(tmp_path, steps=30, variant="boda_m", omega=0.1)
        one, two = self._outputs(tmp_path, spec_path, cfg)
        assert len(one) == 10
        assert one.keys() == two.keys()
        differing = [name for name in one if one[name] != two[name]]
        assert not differing

    @pytest.mark.slow
    def test_officehome_grid_differs_only_in_mds_rounding(self, tmp_path):
        # At K = 260 LAPACK's eigh splits its work by thread count, so the
        # MDS coordinates may round differently; reruns are byte-identical
        # only at a fixed thread count. Every other output is the same bytes.
        dim = 24
        spec = DatasetSpec(
            num_domains=4, num_classes=65, input_dim=dim,
            profiles=(LabelProfile("forward_lt", 100, 100.0),
                      LabelProfile("backward_lt", 100, 100.0),
                      LabelProfile("uniform", 30),
                      LabelProfile("forward_lt", 60, 10.0)),
            domain_shift=tuple(
                DomainShift(0.05 * d, tuple([1.0 * d, -0.5 * d] + [
                    0.4 * d * (-1) ** i for i in range(dim - 2)]))
                for d in range(4)),
            class_separation=12.0, noise_std=0.5, test_per_pair=2,
            val_per_pair=2, seed=3)
        spec_path = tmp_path / "spec.json"
        save_spec(spec, spec_path)
        cfg = write_config(tmp_path, steps=20, omega=0.0, hidden=(32,),
                           rep_dim=16)
        one, two = self._outputs(tmp_path, spec_path, cfg)
        assert one.keys() == two.keys()
        mds = os.path.join("analysis", "mds.csv")
        differing = [name for name in one
                     if name != mds and one[name] != two[name]]
        assert not differing

        def rows(data):
            return list(csv.reader(data.decode().splitlines()))[1:]

        a, b = rows(one[mds]), rows(two[mds])
        assert len(a) == 260
        assert [r[:2] for r in a] == [r[:2] for r in b]
        xy_a = np.array([r[2:] for r in a], dtype=float)
        xy_b = np.array([r[2:] for r in b], dtype=float)
        np.testing.assert_allclose(xy_b, xy_a, rtol=0.0,
                                   atol=1e-12 * np.abs(xy_a).max())
