import copy
import pickle

import numpy as np
import pytest

from boda import losses, model
from boda.errors import ValidationError
from boda.gradcheck import central_difference, relative_error
from boda.numerics import make_rng
from boda.stats import compute_stats, group_by_pair, pair_grouping


class TestInit:
    def test_deterministic(self):
        p1 = model.init(4, (8, 8), 3, 5, seed=9)
        p2 = model.init(4, (8, 8), 3, 5, seed=9)
        np.testing.assert_array_equal(p1.flat, p2.flat)

    def test_biases_zero_and_weights_bounded(self):
        p = model.init(6, (10,), 4, 3, seed=0)
        for b in p.biases:
            assert np.all(b == 0.0)
        assert np.all(p.cls_b == 0.0)
        sizes = [6, 10, 4]
        for w, (fi, fo) in zip(p.weights, zip(sizes[:-1], sizes[1:])):
            bound = np.sqrt(6.0 / (fi + fo))
            assert np.abs(w).max() <= bound
        assert np.abs(p.cls_w).max() <= np.sqrt(6.0 / (4 + 3))


class TestFlatBuffer:
    """``weights``, ``biases``, ``cls_w`` and ``cls_b`` are views of one
    contiguous ``flat`` vector, in that order, however params are made."""

    @pytest.mark.parametrize("make", ["init", "copy", "load_checkpoint",
                                      "pickle", "deepcopy", "backward"])
    def test_views_share_flat(self, tmp_path, make):
        p = model.init(5, (8, 6), 4, 7, seed=9)
        p.flat[p.n_encoder - 6:] += 0.5      # some nonzero biases
        if make == "backward":
            _, _, cache = model.forward(p, make_rng(9).standard_normal((3, 5)))
            p = q = model.backward(p, cache, np.ones((3, 4)), np.ones((3, 7)))
        elif make == "copy":
            q = p.copy()
        elif make == "load_checkpoint":
            model.save_checkpoint(p, tmp_path / "ckpt.json")
            q = model.load_checkpoint(tmp_path / "ckpt.json")
        elif make == "pickle":
            q = pickle.loads(pickle.dumps(p))
        elif make == "deepcopy":
            q = copy.deepcopy(p)
        else:
            q = p
        views = q.weights + q.biases + [q.cls_w, q.cls_b]
        assert q.flat.dtype == np.float64 and q.flat.flags.c_contiguous
        for view in views:
            assert np.shares_memory(q.flat, view)
        np.testing.assert_array_equal(
            np.concatenate([v.ravel() for v in views]), q.flat)
        np.testing.assert_array_equal(
            q.flat[q.n_encoder:], np.concatenate([q.cls_w.ravel(), q.cls_b]))
        np.testing.assert_array_equal(q.flat, p.flat)
        if q is not p:
            assert not np.shares_memory(q.flat, p.flat)

    def test_layout(self):
        p = model.ModelParams(3, (4,), 2, 3)
        assert p.flat.tolist() == [0.0] * 35 and p.n_encoder == 26
        p.cls_b[...] = 1.0
        p.weights[0][...] = 2.0
        assert p.flat[-3:].tolist() == [1.0, 1.0, 1.0]
        assert np.all(p.flat[:12] == 2.0) and np.all(p.flat[12:32] == 0.0)
        assert [w.shape for w in p.weights] == [(4, 3), (2, 4)]
        assert [b.shape for b in p.biases] == [(4,), (2,)]
        assert p.cls_w.shape == (3, 2)

    def test_wrong_buffer_rejected(self):
        with pytest.raises(ValidationError):
            model.ModelParams(3, (4,), 2, 3, np.zeros(5))


class TestForward:
    def test_zero_params_zero_input(self):
        p = model.init(3, (4,), 2, 3, seed=1)
        p.flat[...] = 0.0
        z, logits, _ = model.forward(p, np.zeros(3))
        np.testing.assert_array_equal(z, np.zeros(2))
        np.testing.assert_array_equal(logits, np.zeros(3))

    def test_identity_single_layer(self):
        p = model.init(3, (), 3, 2, seed=2)
        p.weights[0][...] = np.eye(3)
        p.biases[0][...] = 0.0
        x = np.array([1.0, 2.0, 3.0])
        z, _, _ = model.forward(p, x)
        np.testing.assert_array_equal(z, x)

    def test_matches_straight_line_reimplementation(self):
        rng = make_rng(3)
        p = model.init(5, (7, 6), 4, 3, seed=3)
        x = rng.standard_normal((8, 5))
        z, logits, _ = model.forward(p, x)
        # independent duplicate: unrolled affine/relu chain
        h = np.maximum(x @ p.weights[0].T + p.biases[0], 0.0)
        h = np.maximum(h @ p.weights[1].T + p.biases[1], 0.0)
        z_ref = h @ p.weights[2].T + p.biases[2]
        logits_ref = z_ref @ p.cls_w.T + p.cls_b
        np.testing.assert_allclose(z, z_ref, atol=1e-12)
        np.testing.assert_allclose(logits, logits_ref, atol=1e-12)

    def test_dimension_mismatch(self):
        p = model.init(3, (4,), 2, 2, seed=4)
        with pytest.raises(ValidationError):
            model.forward(p, np.zeros(5))


class TestBackward:
    def test_writes_into_out(self):
        p = model.init(3, (4,), 2, 3, seed=5)
        x = make_rng(5).standard_normal((6, 3))
        _, _, cache = model.forward(p, x)
        g_z = make_rng(6).standard_normal((6, 2))
        g_logits = make_rng(7).standard_normal((6, 3))
        fresh = model.backward(p, cache, g_z, g_logits)
        buf = model.ModelParams(3, (4,), 2, 3)
        buf.flat[...] = np.nan
        assert model.backward(p, cache, g_z, g_logits, out=buf) is buf
        assert buf.flat.tobytes() == fresh.flat.tobytes()

    def test_zero_upstream_gives_zero_grads(self):
        p = model.init(3, (4,), 2, 3, seed=5)
        x = make_rng(5).standard_normal((2, 3))
        _, _, cache = model.forward(p, x)
        grad = model.backward(p, cache, np.zeros((2, 2)), np.zeros((2, 3)))
        assert grad.flat.shape == p.flat.shape
        assert np.all(grad.flat == 0.0)

    def test_dead_relu_blocks_gradient(self):
        p = model.init(2, (2,), 2, 2, seed=6)
        p.weights[0][...] = np.array([[1.0, 0.0], [0.0, 1.0]])
        p.biases[0][...] = np.array([0.0, -10.0])  # second unit dead
        x = np.array([[1.0, 1.0]])
        _, _, cache = model.forward(p, x)
        gw = model.backward(p, cache, np.ones((1, 2)), np.zeros((1, 2))).weights
        np.testing.assert_array_equal(gw[0][1], np.zeros(2))
        assert np.abs(gw[0][0]).max() > 0

    def test_ce_gradient_full_model_finite_difference(self):
        rng = make_rng(7)
        p = model.init(4, (6,), 3, 4, seed=7)
        x = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, size=5)

        def loss_at(flat):
            p.flat[...] = flat
            _, logits, _ = model.forward(p, x)
            return losses.ce_loss_batch(logits, labels)[0]

        flat0 = p.flat.copy()
        _, logits, cache = model.forward(p, x)
        _, grad_logits = losses.ce_loss_batch(logits, labels)
        analytic = model.backward(p, cache, np.zeros((5, 3)), grad_logits).flat
        numeric = central_difference(loss_at, flat0)
        p.flat[...] = flat0
        assert relative_error(analytic, numeric) <= 1e-6

    def test_joint_loss_full_model_finite_difference(self):
        # complete objective: mean cross-entropy plus omega times the
        # calibrated alignment loss, statistics held fixed; parameters are
        # nudged off the zero-bias init to stay clear of ReLU kinks
        rng = make_rng(8)
        omega, nu = 0.25, 1.0
        p = model.init(4, (6, 5), 3, 3, seed=8)
        p.flat += 0.05 * rng.standard_normal(p.flat.shape)
        n = 12
        x = rng.standard_normal((n, 4))
        doms = rng.integers(0, 2, size=n)
        labs = rng.integers(0, 3, size=n)
        z0, _, cache0 = model.forward(p, x)
        assert min(float(np.abs(pre).min())
                   for pre in cache0["pre_acts"][:-1]) > 1e-4
        grouping = pair_grouping(doms, labs)
        store = compute_stats(group_by_pair(z0, grouping), grouping)

        def loss_at(flat):
            p.flat[...] = flat
            z, logits, _ = model.forward(p, x)
            ce = losses.ce_loss_batch(logits, labs)[0]
            align = losses.alignment_loss("calibrated_boda", z, doms, labs,
                                          store, nu=nu,
                                          reduction="mean").value
            return losses.joint_loss(ce, align, omega)

        flat0 = p.flat.copy()
        z, logits, cache = model.forward(p, x)
        ce, grad_logits = losses.ce_loss_batch(logits, labs)
        _, g_align = losses.alignment_grad(
            "calibrated_boda", z, doms, labs, store, nu=nu, reduction="mean",
        )
        analytic = model.backward(p, cache, omega * g_align, grad_logits).flat
        numeric = central_difference(loss_at, flat0)
        p.flat[...] = flat0
        assert relative_error(analytic, numeric) <= 1e-4


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        p = model.init(5, (8, 6), 4, 7, seed=9)
        path = tmp_path / "ckpt.json"
        model.save_checkpoint(p, path, seed=9, step=123)
        loaded = model.load_checkpoint(path)
        np.testing.assert_array_equal(p.flat, loaded.flat)
        assert loaded.hidden == (8, 6)
        assert loaded.num_classes == 7
