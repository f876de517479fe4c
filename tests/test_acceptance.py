"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; a failure reads as
an assertion on the stated tolerance. The model-training criteria (5-8) run
full-length trainings and dominate the suite's runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from boda import cli, losses, model, trainer
from boda.datagen import generate, save_spec
from boda.evaluation import accuracy_report, stats_accuracy_correlation
from boda.gradcheck import central_difference, relative_error, run_gradcheck
from boda.losses import alignment_loss, verify_bound
from boda.numerics import make_rng
from boda.stats import (
    TransferabilityGraph,
    compute_stats,
    group_by_pair,
    mds_2d,
    pair_grouping,
    transfer_stats,
)
from boda.trainer import TrainConfig, retrain_classifier, sweep, train

from conftest import (balanced_spec, divergent_spec, graph_of,
                      random_features, stats_of, tiny_spec)


def ok(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS  {message}")


def random_bound_instance(rng):
    num_domains = int(rng.integers(2, 5))       # |D| in {2,3,4}
    num_classes = int(rng.integers(2, 7))       # |C| in {2..6}
    dim = int(rng.integers(2, 9))               # feature dim in {2..8}
    return random_features(rng, num_domains, num_classes, dim, max_count=50)


def test_criterion_1_theorem1_bound_property():
    rng = make_rng(101)
    started = time.time()
    min_slack = np.inf
    for _ in range(1000):
        z, doms, labs, _ = random_bound_instance(rng)
        report = verify_bound(z, doms, labs, calibrated=False)
        min_slack = min(min_slack, report.gap)
        assert report.gap >= -1e-9
    elapsed = time.time() - started
    assert elapsed < 60.0
    ok(1, f"1000 instances, min slack {min_slack:.3e}, {elapsed:.1f}s")


def test_criterion_2_theorem2_bound_property():
    rng = make_rng(102)
    min_slack = np.inf
    for i in range(1000):
        z, doms, labs, _ = random_bound_instance(rng)
        nu = (0.5, 1.0, 1.5)[i % 3]
        report = verify_bound(z, doms, labs, nu=nu, calibrated=True)
        min_slack = min(min_slack, report.gap)
        assert report.gap >= -1e-9
    ok(2, f"1000 calibrated instances over nu in {{0.5,1,1.5}}, "
          f"min slack {min_slack:.3e}")


def test_criterion_3_jensen_equality():
    # all positive distances a, all negative distances b, unit counts
    a, b = 1.0, 1.4
    h = math.sqrt(b * b - a * a / 2.0)
    z = np.array([
        [-a / 2, 0.0, 0.0],
        [0.0, -a / 2, h],
        [a / 2, 0.0, 0.0],
        [0.0, a / 2, h],
    ])
    report = verify_bound(z, [0, 0, 1, 1], [0, 1, 0, 1])
    assert abs(report.empirical - report.theoretical) \
        <= 1e-6 * abs(report.empirical)
    ok(3, f"equality instance gap {report.gap:.3e} vs "
          f"empirical {report.empirical:.6f}")


def test_criterion_4_gradient_checks():
    worst = run_gradcheck(seed=104, n_instances=100)
    assert all(err <= 1e-4 for err in worst.values()), worst

    # full-model check of the joint objective on a 2-hidden-layer MLP;
    # parameters are nudged off the zero-bias init so no pre-activation
    # sits on a ReLU kink where central differences are undefined
    rng = make_rng(105)
    params = model.init(4, (8, 8), 3, 3, seed=105)
    params.flat += 0.05 * rng.standard_normal(params.flat.shape)
    n = 14
    x = rng.standard_normal((n, 4))
    doms = rng.integers(0, 2, size=n)
    labs = rng.integers(0, 3, size=n)
    z0, _, cache0 = model.forward(params, x)
    kink_margin = min(float(np.abs(p).min()) for p in cache0["pre_acts"][:-1])
    assert kink_margin > 1e-4, "instance too close to a ReLU kink"
    grouping = pair_grouping(doms, labs)
    store = compute_stats(group_by_pair(z0, grouping), grouping)
    omega = 0.1

    def loss_at(flat):
        params.flat[...] = flat
        z, logits, _ = model.forward(params, x)
        ce = losses.ce_loss_batch(logits, labs)[0]
        align = alignment_loss("calibrated_boda", z, doms, labs, store,
                               reduction="mean").value
        return losses.joint_loss(ce, align, omega)

    flat0 = params.flat.copy()
    z, logits, cache = model.forward(params, x)
    _, grad_logits = losses.ce_loss_batch(logits, labs)
    _, g_align = losses.alignment_grad("calibrated_boda", z, doms, labs,
                                       store, reduction="mean")
    analytic = model.backward(params, cache, omega * g_align,
                              grad_logits).flat
    numeric = central_difference(loss_at, flat0)
    params.flat[...] = flat0
    full_err = relative_error(analytic, numeric)
    assert full_err <= 1e-4
    ok(4, f"per-variant max rel err {max(worst.values()):.2e}, "
          f"full-model {full_err:.2e}")


@pytest.mark.slow
def test_criterion_5_bound_tightness_after_training():
    started = time.time()
    gaps = []
    for seed in range(3):
        ds = generate(balanced_spec(seed=500 + seed))
        params, _ = train(ds, TrainConfig(steps=5000, eval_every=5000,
                                          seed=seed))
        z = trainer.encode_features(params, ds.train)
        report = verify_bound(z, ds.train.domain, ds.train.label,
                              calibrated=False)
        gaps.append(report.relative_gap)
        assert report.gap >= -1e-9
        assert report.relative_gap <= 0.02
    elapsed = time.time() - started
    assert elapsed < 900.0
    ok(5, "relative gaps "
          + ", ".join(f"{g * 100:.3f}%" for g in gaps)
          + f" over 3 seeds, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_6_alignment_beats_erm_under_divergence():
    gaps = []
    for seed in range(5):
        ds = generate(divergent_spec(seed=600 + seed))
        erm, _ = train(ds, TrainConfig(steps=5000, eval_every=5000,
                                       seed=seed, omega=0.0))
        aligned, _ = train(ds, TrainConfig(steps=5000, eval_every=5000,
                                           seed=seed, omega=0.1,
                                           variant="calibrated_boda"))
        acc_erm = accuracy_report(erm, ds).average
        acc_aligned = accuracy_report(aligned, ds).average
        gaps.append(acc_aligned - acc_erm)
    mean_gap = float(np.mean(gaps))
    assert mean_gap >= 2.0, gaps
    ok(6, "accuracy gains " + ", ".join(f"{g:+.1f}" for g in gaps)
          + f"; mean {mean_gap:+.2f} points")


@pytest.mark.slow
def test_criterion_7_transferability_accuracy_correlation():
    ds = generate(divergent_spec(seed=700))
    base = TrainConfig(steps=5000, eval_every=5000, omega=0.0)
    records = sweep(ds, base, n_trials=20, seed=7)
    out = stats_accuracy_correlation(records)
    assert out["spearman"] >= 0.5, out
    ok(7, f"spearman {out['spearman']:.3f}, pearson {out['pearson']:.3f} "
          f"over 20 ERM trials")


@pytest.mark.slow
def test_criterion_8_decoupling_benefit():
    changes = []
    for seed in range(5):
        ds = generate(divergent_spec(seed=800 + seed))
        cfg = TrainConfig(steps=5000, eval_every=5000, seed=seed,
                          omega=0.0, decouple_steps=1000)
        params, _ = train(ds, cfg)
        before = accuracy_report(params, ds).average
        encoder_before = params.flat[:params.n_encoder].copy()
        retrained, _ = retrain_classifier(params, ds, cfg)
        np.testing.assert_array_equal(encoder_before,
                                      retrained.flat[:retrained.n_encoder])
        after = accuracy_report(retrained, ds).average
        changes.append(after - before)
    mean_change = float(np.mean(changes))
    assert mean_change >= 0.0, changes
    ok(8, "stage-2 accuracy changes "
          + ", ".join(f"{c:+.1f}" for c in changes)
          + f"; mean {mean_change:+.2f}; encoder bit-identical")


def test_criterion_9_reductions_hold_exactly():
    rng = make_rng(109)
    from conftest import random_store
    # counts all one: balanced loss equals the unbalanced loss
    for _ in range(10):
        store = random_store(rng, 2, 3, dim=4, max_count=1)
        z = rng.standard_normal((5, 4))
        doms = rng.integers(0, 2, size=5)
        labs = rng.integers(0, 3, size=5)
        plain = alignment_loss("da", z, doms, labs, store,
                               reduction="sum").value
        balanced = alignment_loss("boda", z, doms, labs, store,
                                  reduction="sum").value
        assert abs(balanced - plain) <= 1e-12

    # nu = 0: calibrated loss is bitwise the uncalibrated loss
    store = random_store(rng, 3, 3, dim=4)
    z = rng.standard_normal((8, 4))
    doms = rng.integers(0, 3, size=8)
    labs = rng.integers(0, 3, size=8)
    calibrated = alignment_loss("calibrated_boda", z, doms, labs, store,
                                nu=0.0)
    uncalibrated = alignment_loss("boda", z, doms, labs, store)
    assert calibrated.value == uncalibrated.value
    np.testing.assert_array_equal(calibrated.per_sample,
                                  uncalibrated.per_sample)

    # equal counts: calibrated statistics equal the plain statistics
    z, doms, labs, groups = random_features(rng, 2, 4, 3, max_count=1)
    groups = {k: np.repeat(v, 6, axis=0) for k, v in groups.items()}
    store = stats_of(groups)
    graph = graph_of(store, groups)
    ts = transfer_stats(graph, nu=1.3, counts=store.counts)
    assert ts.calibrated.alpha == ts.alpha
    assert ts.calibrated.beta == ts.beta
    assert ts.calibrated.gamma == ts.gamma
    ok(9, "counts-one, nu-zero, and equal-count reductions all exact")


def test_criterion_10_mds_reconstruction():
    rng = make_rng(110)
    worst_rms = 0.0
    for n in (3, 5, 12, 20):
        pts = 4.0 * rng.standard_normal((n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        keys = [(0, i) for i in range(n)]
        _, coords = mds_2d(TransferabilityGraph(keys, dist))
        rdiff = coords[:, None, :] - coords[None, :, :]
        rdist = np.sqrt((rdiff ** 2).sum(axis=2))
        rms = float(np.sqrt(((rdist - dist) ** 2).mean()))
        worst_rms = max(worst_rms, rms)
        assert rms <= 1e-9

    # equilateral triangle: all pairwise distances exactly one
    w = np.ones((3, 3)) - np.eye(3)
    _, coords = mds_2d(TransferabilityGraph([(0, 0), (0, 1), (0, 2)], w))
    rdiff = coords[:, None, :] - coords[None, :, :]
    rdist = np.sqrt((rdiff ** 2).sum(axis=2))
    assert np.abs(rdist - w).max() <= 1e-9
    ok(10, f"planted configurations up to n=20, worst RMS {worst_rms:.2e}")


def test_criterion_11_cli_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    save_spec(tiny_spec(seed=31), spec_path)

    # gen twice
    gen_outs = []
    for name in ("d1.csv", "d2.csv"):
        out = tmp_path / name
        assert cli.main(["gen", "--spec", str(spec_path),
                         "--out", str(out)]) == 0
        gen_outs.append(out.read_bytes())
    assert gen_outs[0] == gen_outs[1]

    # train twice with the same seed
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(trainer.config_to_dict(TrainConfig(
        steps=40, batch_per_domain=8, eval_every=20, seed=5,
        hidden=(12,), rep_dim=5,
    ))))
    ckpts, logs = [], []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli.main(["train", "--data", str(tmp_path / "d1.csv"),
                         "--config", str(config), "--out", str(out)]) == 0
        ckpts.append((out / "checkpoint.json").read_bytes())
        logs.append((out / "log.csv").read_bytes())
    assert ckpts[0] == ckpts[1]
    assert logs[0] == logs[1]

    # sweep twice with the same seed
    sweeps = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert cli.main(["sweep", "--data", str(tmp_path / "d1.csv"),
                         "--config", str(config), "--trials", "2",
                         "--out", str(out), "--seed", "9"]) == 0
        sweeps.append((out / "trials.csv").read_bytes())
    assert sweeps[0] == sweeps[1]

    # analyze and verify-bound --calibrated twice in this process, as the
    # benchmark reruns them; manifests hold wall times and are left out
    ckpt = str(tmp_path / "r1" / "checkpoint.json")
    analyses, bounds = [], []
    for name in ("a1", "a2"):
        out = tmp_path / name
        assert cli.main(["analyze", "--checkpoint", ckpt,
                         "--data", str(tmp_path / "d1.csv"),
                         "--out", str(out)]) == 0
        analyses.append({f: (out / f).read_bytes() for f in (
            "graph.json", "transfer_stats.json", "mds.csv", "stats.json")})
        bound = tmp_path / f"{name}_bound.json"
        assert cli.main(["verify-bound", "--checkpoint", ckpt,
                         "--data", str(tmp_path / "d1.csv"),
                         "--out", str(bound), "--calibrated"]) == 0
        bounds.append(bound.read_bytes())
    assert analyses[0] == analyses[1]
    assert bounds[0] == bounds[1]
    ok(11, "gen, train, sweep, analyze, and verify-bound reruns "
           "byte-identical")
