"""perfbench/spans.py wraps boda functions by name: every name it lists
must exist, and uninstalling must put every original back."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from boda import losses
from boda.stats import momentum_update

from conftest import random_features, stats_of

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces(spans):
    """Every namespace the tracer may patch: the boda modules and the
    classes that own traced methods."""
    owners = [importlib.import_module(f"boda.{m}") for m in spans.MODULES]
    owners.append(importlib.import_module("boda"))
    for targets in spans.LAYERS.values():
        for target in targets:
            mod_name, *path = target.split(".")
            if len(path) == 2:
                owners.append(getattr(
                    importlib.import_module(f"boda.{mod_name}"), path[0]))
    return owners


def test_install_wraps_every_name_and_uninstall_restores_it():
    spans = load_spans()
    owners = namespaces(spans)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for targets in spans.LAYERS.values():
            for target in targets:
                mod_name, *path = target.split(".")
                owner = importlib.import_module(f"boda.{mod_name}")
                for attr in path:
                    owner = getattr(owner, attr)
                assert hasattr(owner, "__wrapped__"), f"{target} not wrapped"
        z, doms, labs, groups = random_features(np.random.default_rng(0),
                                                2, 3, 4)
        store = stats_of(groups)
        losses.alignment_grad("boda_m", z, doms, labs, store)
        calls = tracer.snapshot()["calls"]
        assert calls["losses.align"] == 1
        assert calls["numerics.inverse_shrunk"] == 1
    finally:
        tracer.uninstall()
    after = [dict(vars(owner)) for owner in owners]
    for owner, old, new in zip(owners, before, after):
        assert old.keys() == new.keys(), owner
        changed = [k for k in old if old[k] is not new[k]]
        assert not changed, f"{owner}: {changed} not restored"


def test_inverses_cached_per_store():
    """A store inverts its covariances once, on its first Mahalanobis use;
    a momentum-updated store is a new store and inverts afresh."""
    spans = load_spans()
    z, doms, labs, groups = random_features(np.random.default_rng(1), 2, 3, 4)
    store = stats_of(groups)
    tracer = spans.Tracer()
    tracer.install()
    try:
        def inversions():
            return tracer.snapshot()["calls"].get("numerics.inverse_shrunk", 0)

        losses.alignment_grad("boda_m", z, doms, labs, store)
        assert inversions() == 1
        losses.alignment_loss("boda_m", z, doms, labs, store)
        losses.alignment_grad("boda_m", z, doms, labs, store)
        assert inversions() == 1
        losses.alignment_grad("calibrated_boda", z, doms, labs, store)
        assert inversions() == 1
        updated = momentum_update(store, stats_of(groups), 0.9)
        losses.alignment_grad("boda_m", z, doms, labs, updated)
        assert inversions() == 2
    finally:
        tracer.uninstall()


def test_store_arrays_are_read_only():
    """Writing through a store's arrays would make its cached inverses stale,
    so numpy refuses it."""
    store = stats_of(random_features(np.random.default_rng(2), 2, 2, 3)[3])
    with pytest.raises(ValueError):
        store.mu[0, 0] = 1.0
    with pytest.raises(ValueError):
        store.sigma[0] += 1.0
    with pytest.raises(ValueError):
        store.sigma[int(store.index([0], [0])[0])][0, 0] = 1.0
