import math

import numpy as np
import pytest

from boda import losses
from boda.errors import ValidationError
from boda.gradcheck import central_difference, relative_error
from boda.losses import (
    alignment_grad,
    alignment_loss,
    boda_grad,
    ce_loss_batch,
    joint_loss,
    theorem1_rhs,
    theorem2_rhs,
    verify_bound,
)
from boda.numerics import inverse_shrunk, make_rng
from boda.stats import (
    TransferStats,
    CalibratedStats,
    distances,
    transfer_stats,
)

from conftest import (PairStats, graph_of, make_store, random_features,
                      random_store, stats_of)


# ---------------------------------------------------------------------------
# Brute-force oracle: a literal, loop-based transcription of the loss
# definitions, kept deliberately independent of the vectorized library path
# (no log-sum-exp shift, no masking tricks), and its scalar building blocks.
# ---------------------------------------------------------------------------

def balanced_distance(d_raw: float, n_src: int) -> float:
    """Distance divided by the source pair's training count."""
    if n_src < 1:
        raise ValidationError("source count must be >= 1")
    if d_raw < 0:
        raise ValidationError("distance must be nonnegative")
    return d_raw / n_src


def calibration_coeff(n_src: int, n_dst: int, nu: float) -> float:
    """Transfer preference ``(n_dst / n_src) ** nu``."""
    if n_src < 1 or n_dst < 1:
        raise ValidationError("counts must be >= 1")
    return (n_dst / n_src) ** nu


def boda_m_distance(z, stats: PairStats, eps_rel=1e-3) -> float:
    """Mahalanobis distance to a pair's centroid under its shrunk covariance."""
    diff = np.asarray(z, dtype=np.float64) - stats.mu
    a = inverse_shrunk(stats.sigma, eps_rel)
    return math.sqrt(max(float(diff @ a @ diff), 0.0))


def ce_loss(logits, label: int):
    """Cross-entropy of one logit vector; returns (loss, grad wrt logits)."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= label < logits.shape[0]:
        raise ValidationError("label out of range")
    shifted = logits - logits.max()
    expv = np.exp(shifted)
    probs = expv / expv.sum()
    loss = float(-shifted[label] + math.log(expv.sum()))
    grad = probs.copy()
    grad[label] -= 1.0
    return loss, grad


def reference_per_sample(z_i, key_i, store, *, balanced, calibrated=False,
                         nu=1.0, metric="euclidean", eps_rel=1e-3):
    d_i, c_i = key_i

    def row(key):
        i = int(store.index([key[0]], [key[1]])[0])
        return PairStats(key, store.mu[i], store.sigma[i],
                         int(store.counts[i]))

    n_src = row(key_i).count

    def raw(key):
        st = row(key)
        if metric == "euclidean":
            diff = np.asarray(z_i, dtype=float) - st.mu
            return math.sqrt(float(diff @ diff))
        return boda_m_distance(z_i, st, eps_rel)

    def scaled(key):
        value = raw(key)
        if balanced:
            value = balanced_distance(value, n_src)
        if calibrated:
            value = value * calibration_coeff(n_src, row(key).count, nu)
        return value

    keys = store.keys()
    positives = [k for k in keys if k[1] == c_i and k[0] != d_i]
    if not positives:
        return None
    denom_keys = [k for k in keys if k != tuple(key_i)]
    total = 0.0
    for p in positives:
        num = math.exp(-scaled(p))
        den = sum(math.exp(-scaled(k)) for k in denom_keys)
        total += -math.log(num / den)
    return total / len(positives)


def reference_total(z, doms, labs, store, reduction="sum", **kwargs):
    values = [
        reference_per_sample(z[i], (int(doms[i]), int(labs[i])), store,
                             **kwargs)
        for i in range(len(z))
    ]
    values = [v for v in values if v is not None]
    if reduction == "sum":
        return sum(values)
    return sum(values) / len(values)


class TestScalars:
    def test_balanced_distance(self):
        assert balanced_distance(3.0, 1) == 3.0
        assert balanced_distance(3.0, 3) == 1.0
        assert balanced_distance(0.0, 17) == 0.0
        with pytest.raises(ValidationError):
            balanced_distance(1.0, 0)

    def test_calibration_coeff(self):
        assert calibration_coeff(100, 25, 1.0) == pytest.approx(0.25)
        assert calibration_coeff(5, 9, 0.0) == 1.0
        for a, b, nu in [(3, 11, 0.7), (40, 2, 1.5)]:
            assert calibration_coeff(a, b, nu) * calibration_coeff(b, a, nu) \
                == pytest.approx(1.0)
        with pytest.raises(ValidationError):
            calibration_coeff(0, 1, 1.0)

    def test_joint_loss(self):
        assert joint_loss(2.0, 3.0, 0.0) == 2.0
        assert joint_loss(2.0, 3.0, 0.1) == pytest.approx(2.3)
        base = joint_loss(1.0, 4.0, 0.2)
        assert joint_loss(1.0, 4.0, 0.4) - base == pytest.approx(
            base - joint_loss(1.0, 4.0, 0.0)
        )

    def test_alignment_argument_validation(self):
        z, store = np.zeros((1, 2)), square_store()
        with pytest.raises(ValidationError):
            alignment_loss("nope", z, [0], [0], store)
        for nu in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                alignment_grad("calibrated_boda", z, [0], [0], store, nu=nu)
        with pytest.raises(ValidationError):
            alignment_loss("boda", z, [0], [0], store, reduction="median")
        with pytest.raises(ValidationError):
            alignment_loss("da", z, [0, 1], [0, 0], store)
        with pytest.raises(ValidationError, match=r"\(2, 0\)"):
            alignment_loss("da", z, [2], [0], store)

    @pytest.mark.parametrize("variant", ["da", "boda", "boda_m"])
    def test_one_domain_store_rejected(self, variant):
        one = make_store([PairStats((3, c), np.zeros(2), np.eye(2), 2)
                          for c in range(3)])
        assert not one.multi_domain and square_store().multi_domain
        with pytest.raises(ValidationError, match=">= 2 domains"):
            alignment_grad(variant, np.zeros((1, 2)), [3], [1], one)


def square_store(counts=(1, 1, 1, 1)):
    keys = [(0, 0), (0, 1), (1, 0), (1, 1)]
    mus = [np.array([0.0, 0.0]), np.array([1.0, 0.0]),
           np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    return make_store([
        PairStats(k, mu, np.zeros((2, 2)), n)
        for k, mu, n in zip(keys, mus, counts)
    ])


class TestDaLoss:
    def test_sample_at_own_centroid_matches_oracle(self):
        store = square_store()
        z = np.array([[0.0, 0.0]])
        res = alignment_loss("da", z, [0], [0], store, reduction="sum")
        expected = reference_per_sample(z[0], (0, 0), store, balanced=False)
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_all_distances_equal_gives_log_m_minus_1(self):
        # centroids on a circle around the sample: softmin is uniform
        keys = [(0, 0), (0, 1), (1, 0), (1, 1)]
        angles = np.linspace(0, 2 * np.pi, 4, endpoint=False)
        store = make_store([
            PairStats(k, 2.5 * np.array([np.cos(t), np.sin(t)]),
                         np.zeros((2, 2)), 1)
            for k, t in zip(keys, angles)
        ])
        res = alignment_loss("da", np.zeros((1, 2)), [0], [0], store,
                             reduction="sum")
        assert res.value == pytest.approx(math.log(3), rel=1e-12)

    def test_random_instances_match_oracle(self):
        rng = make_rng(10)
        for _ in range(25):
            store = random_store(rng, int(rng.integers(2, 4)),
                                 int(rng.integers(2, 5)),
                                 dim=int(rng.integers(2, 5)))
            z = 2.0 * rng.standard_normal((3, store.mu.shape[1]))
            doms = rng.integers(0, 2, size=3)
            labs = rng.integers(0, 2, size=3)
            res = alignment_loss("da", z, doms, labs, store, reduction="sum")
            expected = reference_total(z, doms, labs, store, balanced=False)
            assert res.value == pytest.approx(expected, rel=1e-10)
            assert res.value > 0

    def test_sample_without_positive_skipped(self):
        # class 1 exists only in domain 0: that sample is skipped, counted
        store = make_store([
            PairStats((0, 0), np.zeros(2), np.zeros((2, 2)), 1),
            PairStats((0, 1), np.ones(2), np.zeros((2, 2)), 1),
            PairStats((1, 0), np.array([0.0, 2.0]), np.zeros((2, 2)), 1),
        ])
        res = alignment_loss("da", np.zeros((2, 2)), [0, 0], [1, 0], store)
        assert res.skipped == 1
        assert bool(res.contributing[0]) is False
        assert bool(res.contributing[1]) is True
        assert np.isnan(res.per_sample[0])


class TestBodaLoss:
    def test_all_counts_one_equals_da(self):
        rng = make_rng(11)
        for _ in range(10):
            store = random_store(rng, 2, 3, dim=3, max_count=1)
            z = rng.standard_normal((4, 3))
            doms = rng.integers(0, 2, size=4)
            labs = rng.integers(0, 3, size=4)
            plain = alignment_loss("da", z, doms, labs, store, reduction="sum")
            bal = alignment_loss("boda", z, doms, labs, store,
                                 reduction="sum")
            calib = alignment_loss("calibrated_boda", z, doms, labs, store,
                                   reduction="sum")
            assert abs(bal.value - plain.value) <= 1e-12
            assert abs(calib.value - plain.value) <= 1e-12

    def test_nu_zero_is_bitwise_uncalibrated(self):
        rng = make_rng(12)
        store = random_store(rng, 2, 3, dim=4)
        z = rng.standard_normal((6, 4))
        doms = rng.integers(0, 2, size=6)
        labs = rng.integers(0, 3, size=6)
        a = alignment_loss("calibrated_boda", z, doms, labs, store, nu=0.0)
        b = alignment_loss("boda", z, doms, labs, store)
        assert a.value == b.value
        np.testing.assert_array_equal(a.per_sample, b.per_sample)

    @pytest.mark.parametrize("calibrated,nu", [(False, 1.0), (True, 0.5),
                                               (True, 1.0), (True, 1.5)])
    def test_matches_oracle(self, calibrated, nu):
        rng = make_rng(13)
        for _ in range(10):
            store = random_store(rng, 2, 2, dim=3)
            z = 2.0 * rng.standard_normal((4, 3))
            doms = rng.integers(0, 2, size=4)
            labs = rng.integers(0, 2, size=4)
            res = alignment_loss(
                "calibrated_boda" if calibrated else "boda", z, doms, labs,
                store, nu=nu, reduction="sum",
            )
            expected = reference_total(z, doms, labs, store, balanced=True,
                                       calibrated=calibrated, nu=nu)
            assert res.value == pytest.approx(expected, rel=1e-10)

    def test_mahalanobis_variant_matches_oracle(self):
        rng = make_rng(14)
        store = random_store(rng, 2, 3, dim=3)
        z = rng.standard_normal((5, 3))
        doms = rng.integers(0, 2, size=5)
        labs = rng.integers(0, 3, size=5)
        res = alignment_loss("boda_m", z, doms, labs, store, reduction="sum")
        expected = reference_total(z, doms, labs, store, balanced=True,
                                   calibrated=True, metric="mahalanobis")
        assert res.value == pytest.approx(expected, rel=1e-10)

    def test_identity_covariance_matches_euclid_variant(self):
        # second-order form with identity covariances reduces to the
        # first-order balanced loss up to the shrinkage perturbation
        rng = make_rng(15)
        keys = [(d, c) for d in range(2) for c in range(2)]
        store = make_store([
            PairStats(k, 2 * rng.standard_normal(3), np.eye(3),
                         int(rng.integers(1, 20)))
            for k in keys
        ])
        z = rng.standard_normal((6, 3))
        doms = rng.integers(0, 2, size=6)
        labs = rng.integers(0, 2, size=6)
        balanced = alignment_loss("boda", z, doms, labs, store,
                                  reduction="sum")
        second = alignment_loss("boda_m", z, doms, labs, store,
                                nu=0.0, reduction="sum")
        assert second.value == pytest.approx(balanced.value, rel=1e-3)

    def test_rigid_motion_invariance(self):
        rng = make_rng(16)
        z, doms, labs, groups = random_features(rng, 2, 3, 2, max_count=10)
        store = stats_of(groups)
        base = alignment_loss("calibrated_boda", z, doms, labs, store,
                              reduction="sum")
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        shift = np.array([5.0, -3.0])
        moved = {k: v @ rot.T + shift for k, v in groups.items()}
        z2 = z @ rot.T + shift
        res2 = alignment_loss("calibrated_boda", z2, doms, labs,
                              stats_of(moved), reduction="sum")
        assert res2.value == pytest.approx(base.value, rel=1e-9)


class TestBodaMDistance:
    def test_identity_covariance_is_euclid(self):
        st = PairStats((0, 0), np.array([1.0, 1.0]), np.eye(2), 3)
        d = boda_m_distance(np.array([4.0, 5.0]), st)
        assert d == pytest.approx(5.0, rel=1e-3)

    def test_zero_at_centroid(self):
        st = PairStats((0, 0), np.array([2.0, -1.0]), np.eye(2), 3)
        assert boda_m_distance(np.array([2.0, -1.0]), st) == 0.0

    def test_diagonal_closed_form(self):
        st = PairStats((0, 0), np.zeros(2), np.diag([4.0, 1.0]), 3)
        d = boda_m_distance(np.array([2.0, 0.0]), st)
        assert d == pytest.approx(1.0, rel=1e-3)


class TestGradients:
    @pytest.mark.parametrize("variant", ["da", "boda", "calibrated_boda",
                                         "boda_m"])
    def test_matches_finite_differences(self, variant):
        rng = make_rng(17)
        for _ in range(20):
            store = random_store(rng, int(rng.integers(2, 4)),
                                 int(rng.integers(2, 5)),
                                 dim=int(rng.integers(2, 6)))
            dim = store.mu.shape[1]
            z = 2.0 * rng.standard_normal(dim)
            key = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            _, grad = alignment_grad(variant, z, [key[0]], [key[1]], store,
                                     reduction="sum")
            numeric = central_difference(
                lambda zz: alignment_loss(
                    variant, zz, [key[0]], [key[1]], store, reduction="sum"
                ).value,
                z,
            )
            assert relative_error(grad[0], numeric) <= 1e-4

    def test_sign_structure_two_domains(self):
        # with two domains the positive-distance derivative is w*(1 - P) >= 0
        # and every negative-distance derivative is -w*P <= 0
        rng = make_rng(18)
        for _ in range(20):
            store = random_store(rng, 2, int(rng.integers(2, 5)), dim=3)
            z = 2.0 * rng.standard_normal(3)
            key = (int(rng.integers(0, 2)), 0)
            _, detail = boda_grad("calibrated_boda", z, key, store)
            for k, g in zip(detail.keys, detail.dloss_ddistance):
                if k[1] == key[1] and k[0] != key[0]:
                    assert g >= 0.0
                else:
                    assert g <= 0.0

    def test_detail_probabilities_sum_to_one(self):
        rng = make_rng(19)
        store = random_store(rng, 3, 3, dim=4)
        z = rng.standard_normal(4)
        _, detail = boda_grad("calibrated_boda", z, (1, 1), store, nu=0.7)
        assert detail.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(detail.probabilities >= 0)
        assert np.all(detail.probabilities <= 1)

    def test_negative_gradient_magnitude_increases_with_p(self):
        # uncalibrated: all destinations share the same distance scale, so
        # |d loss / d distance| for negatives is proportional to P
        rng = make_rng(20)
        store = random_store(rng, 2, 4, dim=3)
        z = rng.standard_normal(3)
        _, detail = boda_grad("boda", z, (0, 0), store)
        negs = [
            (p, abs(g)) for k, p, g in zip(detail.keys, detail.probabilities,
                                           detail.dloss_ddistance)
            if not (k[1] == 0 and k[0] != 0)
        ]
        negs.sort()
        probs = [p for p, _ in negs]
        mags = [m for _, m in negs]
        assert all(m2 >= m1 for m1, m2 in zip(mags, mags[1:]))
        assert len(set(probs)) > 1

    def test_skipped_sample_raises(self):
        store = make_store([
            PairStats((0, 0), np.zeros(2), np.zeros((2, 2)), 1),
            PairStats((1, 1), np.ones(2), np.zeros((2, 2)), 1),
        ])
        with pytest.raises(ValidationError):
            boda_grad("boda", np.zeros(2), (0, 0), store)


class TestBlockedDistances:
    # One block per sample row (Euclidean) or per destination (Mahalanobis)
    # must reproduce the single-block result bit for bit: blocking splits
    # rows or destinations, not the arithmetic of one distance.
    @pytest.mark.parametrize("variant",
                             ["da", "boda", "calibrated_boda", "boda_m"])
    def test_row_blocks_bitwise_equal(self, variant, monkeypatch):
        z, doms, labs, groups = random_features(make_rng(31), 3, 4, 5,
                                                max_count=20)
        store = stats_of(groups)
        whole, grad = alignment_grad(variant, z, doms, labs, store)
        monkeypatch.setattr("boda.stats.BLOCK_ELEMS", 1)
        blocked, grad_b = alignment_grad(variant, z, doms, labs, store)
        loss_b = alignment_loss(variant, z, doms, labs, store)
        assert blocked.value == whole.value == loss_b.value
        np.testing.assert_array_equal(blocked.per_sample, whole.per_sample)
        np.testing.assert_array_equal(grad_b, grad)


def grad_oracle(variant, z, doms, labs, store, nu, reduction):
    """The z-gradient summed one destination at a time: ``coeff_j (z -
    mu_j)`` (Euclidean) or ``coeff_j (z - mu_j) A_j`` (Mahalanobis), with
    ``coeff = dloss/ddist / dist`` from the library's softmin."""
    result, _, _, dl_ddist = losses._align(variant, z, doms, labs, store, nu,
                                           reduction, True)
    metric = losses.VARIANTS[variant][2]
    coeff = dl_ddist / np.maximum(distances(z, store, metric), 1e-12)
    if metric == "euclidean":
        grad = np.einsum("nk,nkh->nh", coeff, z[:, None, :] - store.mu[None])
    else:
        grad = np.zeros_like(z)
        for j, a in enumerate(store.inverses):
            grad += coeff[:, j:j + 1] * ((z - store.mu[j]) @ a)
    if reduction == "mean":
        grad /= max(int(result.contributing.sum()), 1)
    return grad


class TestGradientOracles:
    """The batched gradients equal the per-destination forms."""

    @staticmethod
    def uneven_batch(seed):
        """3 x 4 grid with one pair missing and two singleton pairs."""
        _, _, _, groups = random_features(make_rng(seed), 3, 4, 5,
                                          max_count=12)
        del groups[(2, 3)]
        groups[(0, 1)] = groups[(0, 1)][:1]
        groups[(1, 2)] = groups[(1, 2)][:1]
        keys = sorted(groups)
        sizes = [len(groups[k]) for k in keys]
        z = np.vstack([groups[k] for k in keys])
        return (z, np.repeat([k[0] for k in keys], sizes),
                np.repeat([k[1] for k in keys], sizes), stats_of(groups))

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    @pytest.mark.parametrize("variant", list(losses.VARIANTS))
    @pytest.mark.parametrize("rows", [None, 1], ids=["batch", "one_row"])
    def test_matches_per_destination_forms(self, variant, reduction, rows):
        for seed in (40, 41):
            z, doms, labs, store = self.uneven_batch(seed)
            z, doms, labs = z[:rows], doms[:rows], labs[:rows]
            _, grad = alignment_grad(variant, z, doms, labs, store, nu=1.3,
                                     reduction=reduction)
            want = grad_oracle(variant, z, doms, labs, store, 1.3, reduction)
            assert np.abs(want).max() > 0
            np.testing.assert_allclose(grad, want, rtol=0.0,
                                       atol=1e-12 * np.abs(want).max())


class TestCeLoss:
    def test_uniform_logits(self):
        loss, grad = ce_loss(np.zeros(10), 3)
        assert loss == pytest.approx(math.log(10), rel=1e-12)
        assert grad.sum() == pytest.approx(0.0, abs=1e-12)

    def test_confident_logit_drives_loss_to_zero(self):
        logits = np.zeros(5)
        logits[2] = 20.0
        loss, _ = ce_loss(logits, 2)
        assert loss < 1e-8

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(21)
        logits = rng.standard_normal(6)
        _, grad = ce_loss(logits, 4)
        numeric = central_difference(lambda v: ce_loss(v, 4)[0], logits)
        assert relative_error(grad, numeric) <= 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            ce_loss(np.zeros(3), 5)

    def test_batch_matches_per_row_oracle(self):
        rng = make_rng(22)
        logits = 3.0 * rng.standard_normal((9, 5))
        labels = rng.integers(0, 5, size=9)
        loss, grad = ce_loss_batch(logits.copy(), labels)
        rows = [ce_loss(row, int(lab)) for row, lab in zip(logits, labels)]
        assert loss == pytest.approx(np.mean([r[0] for r in rows]),
                                     rel=1e-13)
        np.testing.assert_allclose(grad, np.array([r[1] for r in rows]) / 9,
                                   rtol=1e-13, atol=1e-16)


class TestTheoremRhs:
    def test_hand_substitution(self):
        # alpha=1, beta=1, gamma=sqrt(2), N=4, |C|=|D|=2, evaluated
        # independently with a calculator before implementation
        ts = TransferStats(1.0, 1.0, math.sqrt(2.0))
        assert theorem1_rhs(ts, 4, 2, 2) == pytest.approx(
            3.861642496369036, rel=1e-12
        )

    def test_zero_statistics(self):
        ts = TransferStats(0.0, 0.0, 0.0)
        for d, c, n in [(2, 2, 4), (3, 5, 100)]:
            m = d * c
            assert theorem1_rhs(ts, n, d, c) == pytest.approx(
                n * math.log(m - 1), rel=1e-12
            )

    def test_monotonicity(self):
        base = theorem1_rhs(TransferStats(1.0, 2.0, 3.0), 10, 2, 3)
        assert theorem1_rhs(TransferStats(1.5, 2.0, 3.0), 10, 2, 3) > base
        assert theorem1_rhs(TransferStats(1.0, 2.5, 3.0), 10, 2, 3) < base
        assert theorem1_rhs(TransferStats(1.0, 2.0, 3.5), 10, 2, 3) < base

    def test_degenerate_dims_rejected(self):
        ts = TransferStats(1.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            theorem1_rhs(ts, 4, 1, 2)
        with pytest.raises(ValidationError):
            theorem1_rhs(ts, 4, 2, 1)

    def test_theorem2_equals_theorem1_when_calibrated_matches(self):
        cal = CalibratedStats(1.0, 1.0, 2.0, 3.0)
        ts = TransferStats(1.0, 2.0, 3.0, cal)
        assert theorem2_rhs(ts, 10, 2, 3) == theorem1_rhs(ts, 10, 2, 3)

    def test_exponent_past_exp_overflow(self):
        # expo = (c d / n) alpha = 1000: exp(expo) overflows a float, and
        # the bound is n (expo + log(d (c - 1))) up to a term below 1e-400
        ts = TransferStats(1000.0, 0.0, 0.0)
        assert theorem1_rhs(ts, 4, 2, 2) == 4 * (1000.0 + math.log(2))
        # just inside the float range, the two forms agree
        ts = TransferStats(700.0, 0.0, 0.0)
        assert theorem1_rhs(ts, 4, 2, 2) == pytest.approx(
            4 * (700.0 + math.log(2)), rel=1e-15
        )

    def test_theorem2_needs_calibrated(self):
        with pytest.raises(ValidationError):
            theorem2_rhs(TransferStats(1.0, 1.0, 1.0), 4, 2, 2)


class TestVerifyBound:
    def test_jensen_equality_instance(self):
        # two orthogonal segments: every positive distance is a, every
        # negative distance is b, all counts are 1
        a, b = 1.0, 1.3
        h = math.sqrt(b * b - a * a / 2.0)
        z = np.array([
            [-a / 2, 0.0, 0.0],   # (0,0)
            [0.0, -a / 2, h],     # (0,1)
            [a / 2, 0.0, 0.0],    # (1,0)
            [0.0, a / 2, h],      # (1,1)
        ])
        doms = np.array([0, 0, 1, 1])
        labs = np.array([0, 1, 0, 1])
        report = verify_bound(z, doms, labs)
        assert abs(report.gap) <= 1e-6 * abs(report.empirical)
        expected = 4 * math.log(1 + 2 * math.exp(a - b))
        assert report.empirical == pytest.approx(expected, rel=1e-9)

    def test_random_instances_bound_holds(self):
        rng = make_rng(22)
        for i in range(200):
            num_domains = int(rng.integers(2, 5))
            num_classes = int(rng.integers(2, 7))
            dim = int(rng.integers(2, 9))
            z, doms, labs, _ = random_features(rng, num_domains, num_classes,
                                               dim)
            calibrated = bool(i % 2)
            nu = [0.5, 1.0, 1.5][i % 3]
            report = verify_bound(z, doms, labs, nu=nu, calibrated=calibrated)
            assert report.gap >= -1e-9

    @pytest.mark.parametrize("calibrated", [False, True])
    def test_report_carries_its_transfer_stats(self, calibrated):
        z, doms, labs, groups = random_features(make_rng(25), 3, 3, 4)
        report = verify_bound(z, doms, labs, nu=0.7, calibrated=calibrated)
        store = stats_of(groups)
        ts = transfer_stats(graph_of(store, groups),
                            nu=0.7 if calibrated else None,
                            counts=store.counts)
        assert report.stats == ts

    def test_incomplete_grid_rejected(self):
        rng = make_rng(23)
        z, doms, labs, groups = random_features(rng, 2, 2, 3)
        keep = ~((doms == 0) & (labs == 0))
        with pytest.raises(ValidationError):
            verify_bound(z[keep], doms[keep], labs[keep])

    def test_single_domain_rejected(self):
        rng = make_rng(24)
        z = rng.standard_normal((10, 2))
        with pytest.raises(ValidationError):
            verify_bound(z, np.zeros(10, dtype=int),
                         np.arange(10) % 2)
