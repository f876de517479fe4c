"""The benchmark's own output checks (perfbench/checks.py, which imports no
boda code) accept what the command line writes on a small grid."""

import importlib.util
import json
from pathlib import Path

from boda import cli, trainer
from boda.datagen import save_spec
from boda.trainer import TrainConfig

from conftest import tiny_spec

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
NU = 1.0


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_analyze_verify_bound_and_gradcheck_pass_the_benchmark_checks(
        tmp_path):
    checks = load_checks()
    spec, data = tmp_path / "spec.json", tmp_path / "data.csv"
    save_spec(tiny_spec(seed=17), spec)
    assert cli.main(["gen", "--spec", str(spec), "--out", str(data)]) == 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(trainer.config_to_dict(TrainConfig(
        steps=60, batch_per_domain=8, eval_every=30, seed=2, hidden=(12,),
        rep_dim=5, nu=NU))))
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--config", str(config),
                     "--out", str(run)]) == 0
    ckpt = str(run / "checkpoint.json")
    analysis, bound = tmp_path / "analysis", tmp_path / "bound.json"
    grad = tmp_path / "gradcheck.json"
    assert cli.main(["analyze", "--checkpoint", ckpt, "--data", str(data),
                     "--out", str(analysis), "--nu", str(NU)]) == 0
    assert cli.main(["verify-bound", "--checkpoint", ckpt, "--data",
                     str(data), "--out", str(bound), "--nu", str(NU),
                     "--calibrated"]) == 0
    assert cli.main(["gradcheck", "--seed", "3", "--trials", "4",
                     "--out", str(grad)]) == 0

    parsed = checks.read_dataset(data)
    checks.check_analyze(analysis, ckpt, parsed, NU)
    checks.check_verify_bound(bound, ckpt, parsed, NU)
    checks.check_gradcheck(grad, ("da", "boda", "calibrated_boda", "boda_m"))
