import ast
import dataclasses
import json
from pathlib import Path

import boda
from boda import datagen, stats, trainer

from conftest import divergent_spec


def test_every_exported_name_resolves():
    assert len(boda.__all__) == len(set(boda.__all__))
    for name in boda.__all__:
        assert getattr(boda, name) is not None, name
    assert not [name for name in boda.__all__ if name.startswith("_")]


def _unused_imports(source: str) -> list:
    """Names a module imports but never reads (``annotations`` excepted)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name != "annotations")


def test_no_unused_imports():
    # __init__.py imports to re-export.
    for path in sorted(Path(boda.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            assert _unused_imports(path.read_text()) == [], path.name


def test_unused_import_guard_sees_one():
    assert _unused_imports("from x import a, b\nimport c.d\nb(c)\n") \
        == [(1, "a")]


def test_file_format_key_order():
    cfg = trainer.config_to_dict(trainer.TrainConfig())
    assert list(cfg) == [
        "steps", "batch_per_domain", "lr", "optimizer", "omega", "nu",
        "alpha_m", "variant", "decouple", "decouple_steps", "seed", "hidden",
        "rep_dim", "eval_every"]
    assert cfg["hidden"] == [64, 64]

    spec = datagen.spec_to_dict(dataclasses.replace(
        divergent_spec(input_dim=3), zero_pairs=frozenset({(1, 2), (0, 1)})))
    assert list(spec) == [
        "num_domains", "num_classes", "input_dim", "profiles", "domain_shift",
        "class_separation", "noise_std", "zero_pairs", "test_per_pair",
        "val_per_pair", "seed"]
    assert [list(p) for p in spec["profiles"]] \
        == [["kind", "max_count", "imbalance_ratio"]] * 2
    assert spec["domain_shift"][1] == {"rotation": 0.9,
                                       "translation": [1.5, -1.0, 0.5]}
    assert spec["zero_pairs"] == [[0, 1], [1, 2]]

    cal = stats.TransferStats(1.0, 2.0, 3.0,
                              stats.CalibratedStats(0.5, 4.0, 5.0, 6.0))
    assert json.dumps(stats.transfer_stats_to_dict(cal)) == (
        '{"alpha": 1.0, "beta": 2.0, "gamma": 3.0, "calibrated": '
        '{"nu": 0.5, "alpha": 4.0, "beta": 5.0, "gamma": 6.0}}')
    plain = dataclasses.replace(cal, calibrated=None)
    assert stats.transfer_stats_to_dict(plain) \
        == {"alpha": 1.0, "beta": 2.0, "gamma": 3.0}
