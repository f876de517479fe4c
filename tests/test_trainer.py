import dataclasses

import numpy as np
import pytest

from boda import losses, model, stats, trainer
from boda.datagen import generate
from boda.errors import ValidationError
from boda.numerics import make_rng
from boda.trainer import TrainConfig, retrain_classifier, sweep, train

from conftest import tiny_spec


def fast_cfg(**kwargs):
    defaults = dict(steps=60, batch_per_domain=8, eval_every=30, seed=3,
                    hidden=(16,), rep_dim=6)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestTrain:
    def test_same_seed_identical_checkpoints(self, tiny_dataset):
        cfg = fast_cfg()
        p1, _ = train(tiny_dataset, cfg)
        p2, _ = train(tiny_dataset, cfg)
        np.testing.assert_array_equal(p1.flat, p2.flat)

    def test_omega_zero_is_pure_erm(self, tiny_dataset):
        # with omega = 0 the alignment machinery must not influence the run:
        # any variant setting produces the bitwise-identical checkpoint
        p1, log1 = train(tiny_dataset, fast_cfg(omega=0.0, variant="da"))
        p2, log2 = train(tiny_dataset, fast_cfg(omega=0.0,
                                                variant="calibrated_boda"))
        np.testing.assert_array_equal(p1.flat, p2.flat)
        assert all(r.boda == 0.0 for r in log1.rows)
        assert log1.step_joint == log2.step_joint

    def test_joint_loss_trend_decreases(self):
        ds = generate(tiny_spec(seed=5, max_count=80))
        _, log = train(ds, fast_cfg(steps=400, eval_every=200, omega=0.1))
        first = np.mean(log.step_joint[:100])
        last = np.mean(log.step_joint[-100:])
        assert last < first

    def test_log_rows_monotone_steps(self, tiny_dataset):
        _, log = train(tiny_dataset, fast_cfg(steps=90, eval_every=25))
        steps = [r.step for r in log.rows]
        assert steps == sorted(steps)
        assert steps[-1] == 90

    def test_empty_training_set_rejected(self, tiny_dataset):
        empty = dataclasses.replace(
            tiny_dataset,
            train=dataclasses.replace(
                tiny_dataset.train,
                x=tiny_dataset.train.x[:0],
                domain=tiny_dataset.train.domain[:0],
                label=tiny_dataset.train.label[:0],
            ),
        )
        with pytest.raises(ValidationError):
            train(empty, fast_cfg())

    def test_sgd_optimizer_runs(self, tiny_dataset):
        p, _ = train(tiny_dataset, fast_cfg(optimizer="sgd", lr=1e-2))
        assert np.all(np.isfinite(p.flat))

    def test_diagnostics_logged(self, tiny_dataset):
        _, log = train(tiny_dataset, fast_cfg())
        row = log.rows[-1]
        assert np.isfinite(row.alpha) and np.isfinite(row.beta)
        assert np.isfinite(row.gamma)
        assert row.bound_gap >= -1e-9

    def test_zero_shot_pairs_trainable(self):
        # removing (0, 2) leaves class 2 in domain 1 only: those samples
        # have no cross-domain positive and must be skipped, not crash
        spec = dataclasses.replace(tiny_spec(seed=9),
                                   zero_pairs=frozenset({(0, 2)}))
        ds = generate(spec)
        params, log = train(ds, fast_cfg())
        assert np.all(np.isfinite(params.flat))
        # the ragged grid makes the bound check inapplicable
        assert np.isnan(log.rows[-1].bound_gap)


class PerArrayOptimizer:
    """Reference update: Adam or SGD-with-momentum written per array, one
    expression per state update, as the textbook states it."""

    def __init__(self, arrays, kind, lr):
        self.kind, self.lr, self.t = kind, lr, 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def step(self, arrays, grads):
        self.t += 1
        if self.kind == "sgd":
            for a, g, m in zip(arrays, grads, self.m):
                m *= 0.9
                m += g
                a -= self.lr * m
            return
        b1, b2, eps = 0.9, 0.999, 1e-8
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            a -= self.lr * (m / corr1) / (np.sqrt(v / corr2) + eps)


class TestOptimizer:
    @pytest.mark.parametrize("kind,lr", [("adam", 1e-3), ("sgd", 1e-2),
                                         ("adam", 0.3)])
    def test_flat_matches_per_array_bit_for_bit(self, kind, lr):
        params = model.init(5, (8, 6), 4, 3, seed=1)
        ref = params.copy()
        ref_arrays = ref.weights + ref.biases + [ref.cls_w, ref.cls_b]
        opt = trainer._Optimizer(params.flat.size, kind, lr)
        oracle = PerArrayOptimizer(ref_arrays, kind, lr)
        rng = make_rng(2)
        for step in range(60):
            # magnitudes over many decades, some exact zeros
            grad = rng.standard_normal(params.flat.size) \
                * 10.0 ** rng.uniform(-8, 2, size=params.flat.size)
            grad[rng.random(params.flat.size) < 0.1] = 0.0
            opt.step(params.flat, grad)
            g = model.ModelParams(5, (8, 6), 4, 3, grad)
            oracle.step(ref_arrays, g.weights + g.biases + [g.cls_w, g.cls_b])
            assert params.flat.tobytes() == ref.flat.tobytes(), step

    def test_classifier_slice_only(self):
        params = model.init(5, (8,), 4, 3, seed=1)
        before = params.flat.copy()
        cls = params.flat[params.n_encoder:]
        opt = trainer._Optimizer(cls.size, "adam", 1e-2)
        opt.step(cls, np.ones(cls.size))
        assert np.array_equal(params.flat[:params.n_encoder],
                              before[:params.n_encoder])
        assert np.all(params.cls_b != before[-3:])


class TestDiagnostics:
    """One diagnostics pass builds one transferability graph and computes
    the (N, K) distances once, whether the bound check accepts the grid or
    rejects it."""

    def _count_calls(self, monkeypatch):
        calls = {"build_graph": [], "distances": []}
        for name, log in calls.items():
            original = getattr(stats, name)

            def counting(*args, _original=original, _log=log, **kwargs):
                _log.append(1)
                return _original(*args, **kwargs)

            # every namespace that holds the function by name
            for module in (stats, losses, trainer):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        return calls

    def _expected(self, params, ds):
        z = trainer.encode_features(params, ds.train)
        grouping = stats.pair_grouping(ds.train.domain, ds.train.label)
        store = stats.compute_stats(stats.group_by_pair(z, grouping), grouping)
        graph = stats.build_graph(store, stats.distances(z, store), grouping)
        return stats.transfer_stats(graph)

    def test_complete_grid(self, tiny_dataset, monkeypatch):
        params = model.init(tiny_dataset.input_dim, (8,), 4,
                            tiny_dataset.num_classes, seed=4)
        expected = self._expected(params, tiny_dataset)
        calls = self._count_calls(monkeypatch)
        alpha, beta, gamma, gap = trainer._diagnostics(params, tiny_dataset,
                                                       1.0)
        assert len(calls["build_graph"]) == 1
        assert len(calls["distances"]) == 1
        assert (alpha, beta, gamma) == (expected.alpha, expected.beta,
                                        expected.gamma)
        assert gap >= -1e-9

    def test_incomplete_grid_falls_back(self, monkeypatch):
        spec = dataclasses.replace(tiny_spec(seed=9),
                                   zero_pairs=frozenset({(1, 1)}))
        ds = generate(spec)
        params = model.init(ds.input_dim, (8,), 4, ds.num_classes, seed=4)
        expected = self._expected(params, ds)
        calls = self._count_calls(monkeypatch)
        alpha, beta, gamma, gap = trainer._diagnostics(params, ds, 1.0)
        assert len(calls["build_graph"]) == 1
        assert len(calls["distances"]) == 1
        assert (alpha, beta, gamma) == (expected.alpha, expected.beta,
                                        expected.gamma)
        assert np.isnan(gap)

    @pytest.mark.parametrize("calibrated", [False, True])
    def test_verify_bound_one_distance_pass(self, tiny_dataset, monkeypatch,
                                            calibrated):
        params = model.init(tiny_dataset.input_dim, (8,), 4,
                            tiny_dataset.num_classes, seed=4)
        z = trainer.encode_features(params, tiny_dataset.train)
        calls = self._count_calls(monkeypatch)
        losses.verify_bound(z, tiny_dataset.train.domain,
                            tiny_dataset.train.label, calibrated=calibrated)
        assert len(calls["build_graph"]) == 1
        assert len(calls["distances"]) == 1


class TestRetrainClassifier:
    def test_encoder_bit_identical(self, tiny_dataset):
        cfg = fast_cfg(decouple_steps=40)
        params, _ = train(tiny_dataset, cfg)
        encoder = slice(0, params.n_encoder)
        before = params.flat[encoder].copy()
        retrained, rows = retrain_classifier(params, tiny_dataset, cfg)
        np.testing.assert_array_equal(before, retrained.flat[encoder])
        np.testing.assert_array_equal(params.flat[encoder], before)
        assert all(r.stage == 2 for r in rows)

    def test_classifier_changes(self, tiny_dataset):
        cfg = fast_cfg(decouple_steps=40)
        params, _ = train(tiny_dataset, cfg)
        retrained, _ = retrain_classifier(params, tiny_dataset, cfg)
        assert not np.array_equal(params.cls_w, retrained.cls_w)

    def test_deterministic(self, tiny_dataset):
        cfg = fast_cfg(decouple_steps=30)
        params, _ = train(tiny_dataset, cfg)
        r1, _ = retrain_classifier(params, tiny_dataset, cfg)
        r2, _ = retrain_classifier(params, tiny_dataset, cfg)
        np.testing.assert_array_equal(r1.cls_w, r2.cls_w)

    def test_balanced_labels_leave_accuracy_unchanged(self):
        # with uniform labels pair-balanced sampling matches instance
        # sampling, so stage two has nothing to rebalance
        from boda.evaluation import accuracy_report
        from conftest import balanced_spec

        ds = generate(balanced_spec(seed=12, max_count=60, input_dim=6,
                                    num_classes=4, test_per_pair=50))
        cfg = fast_cfg(steps=800, eval_every=800, omega=0.0,
                       decouple_steps=400)
        params, _ = train(ds, cfg)
        before = accuracy_report(params, ds).average
        retrained, _ = retrain_classifier(params, ds, cfg)
        after = accuracy_report(retrained, ds).average
        assert abs(after - before) <= 1.0


class TestSweep:
    def test_single_trial(self, tiny_dataset):
        records = sweep(tiny_dataset, fast_cfg(), 1, seed=5)
        assert len(records) == 1

    def test_record_count_and_fields(self, tiny_dataset):
        records = sweep(tiny_dataset, fast_cfg(), 3, seed=5)
        assert len(records) == 3
        for r in records:
            assert 0.0 <= r.accuracy <= 100.0
            assert np.isfinite(r.score)
            assert r.hidden >= 16

    def test_deterministic(self, tiny_dataset):
        r1 = sweep(tiny_dataset, fast_cfg(), 2, seed=9)
        r2 = sweep(tiny_dataset, fast_cfg(), 2, seed=9)
        assert [(a.lr, a.accuracy, a.alpha) for a in r1] == \
               [(b.lr, b.accuracy, b.alpha) for b in r2]

    def test_parallel_matches_sequential(self, tiny_dataset):
        seq = sweep(tiny_dataset, fast_cfg(steps=30), 2, seed=4, workers=1)
        par = sweep(tiny_dataset, fast_cfg(steps=30), 2, seed=4, workers=2)
        assert [(a.trial, a.lr, a.accuracy) for a in seq] == \
               [(b.trial, b.lr, b.accuracy) for b in par]

    def test_one_diagnostics_pass_per_trial(self, tiny_dataset, monkeypatch):
        calls, diagnostics = [], trainer._diagnostics
        monkeypatch.setattr(trainer, "_diagnostics",
                            lambda *args: calls.append(1) or diagnostics(*args))
        records = sweep(tiny_dataset, fast_cfg(), 3, seed=5)
        assert len(calls) == 3
        # the logged statistics are those of the trial's final parameters
        r = records[0]
        params, _ = train(tiny_dataset, fast_cfg(
            lr=r.lr, hidden=(r.hidden, r.hidden), seed=r.seed, eval_every=60))
        assert (r.alpha, r.beta, r.gamma) \
            == diagnostics(params, tiny_dataset, fast_cfg().nu)[:3]

    def test_zero_trials_rejected(self, tiny_dataset):
        with pytest.raises(ValidationError):
            sweep(tiny_dataset, fast_cfg(), 0)


class TestConfigJson:
    def test_roundtrip(self):
        cfg = fast_cfg(omega=0.2, variant="boda_m", decouple=True)
        data = trainer.config_to_dict(cfg)
        assert trainer.config_from_dict(data) == cfg

    def test_unknown_field_rejected(self):
        data = trainer.config_to_dict(fast_cfg())
        data["learning_rate"] = 0.1
        with pytest.raises(ValidationError, match="learning_rate"):
            trainer.config_from_dict(data)
