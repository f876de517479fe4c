"""Alignment losses over domain-class centroids, their gradients, and the
loss lower bounds.

The family shares one structure: per sample, a softmin over distances to
every other pair's centroid, with the same-class cross-domain pairs as the
positives. The variants differ only in how raw distances are scaled:

* plain alignment ("da"): raw distances;
* balanced ("boda"): distances divided by the sample's own pair count, so
  majority pairs cannot dominate the objective;
* calibrated ("calibrated_boda"): additionally multiplied by
  ``(N_dst / N_src) ** nu``, steering transfer toward the better-estimated
  majority centroids;
* second-order ("boda_m"): calibrated, with Mahalanobis distances under the
  destination pair's (shrunk) covariance.

Centroid statistics are treated as constants: gradients flow only through
the sample's representation.

``theorem1_rhs`` / ``theorem2_rhs`` evaluate the closed-form lower bounds on
the sum-reduced balanced (resp. calibrated) loss in terms of the
transferability statistics, and ``verify_bound`` checks the inequality on
actual features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .numerics import BLOCK_ELEMS, inverse_shrunk
from .stats import (
    FeatureStats,
    StatsStore,
    TransferStats,
    build_graph,
    compute_stats,
    group_by_pair,
    transfer_stats,
)

_DIST_FLOOR = 1e-12

VARIANTS = ("da", "boda", "calibrated_boda", "boda_m")


@dataclass(frozen=True)
class LossConfig:
    """Knobs shared by the alignment-loss family."""

    variant: str = "calibrated_boda"
    nu: float = 1.0
    omega: float = 0.1
    reduction: str = "mean"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}")
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise ValidationError("nu must be finite and nonnegative")
        if not (math.isfinite(self.omega) and self.omega >= 0):
            raise ValidationError("omega must be finite and nonnegative")
        if self.reduction not in ("mean", "sum"):
            raise ValidationError("reduction must be 'mean' or 'sum'")


def variant_settings(variant: str):
    """(balanced, calibrated, metric) triple for a named variant."""
    table = {
        "da": (False, False, "euclidean"),
        "boda": (True, False, "euclidean"),
        "calibrated_boda": (True, True, "euclidean"),
        "boda_m": (True, True, "mahalanobis"),
    }
    if variant not in table:
        raise ValidationError(f"unknown variant {variant!r}")
    return table[variant]


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


def boda_m_distance(z, stats: FeatureStats, eps_rel: float = 1e-3) -> float:
    """Mahalanobis distance to a pair's centroid under its shrunk covariance."""
    z = np.asarray(z, dtype=np.float64)
    a = inverse_shrunk(stats.sigma, eps_rel)
    diff = z - stats.mu
    return float(math.sqrt(max(float(diff @ a @ diff), 0.0)))


# ---------------------------------------------------------------------------
# Batched core
# ---------------------------------------------------------------------------

@dataclass
class AlignmentResult:
    value: float              # reduced loss over contributing samples
    per_sample: np.ndarray    # (n,), NaN where a sample had no positive pair
    contributing: np.ndarray  # (n,) bool
    skipped: int              # samples without any cross-domain positive


@dataclass
class BodaGradientDetail:
    """Softmin weights and distance-space gradients for one sample."""

    keys: list                  # destination pairs, the sample's own excluded
    probabilities: np.ndarray   # softmin over the destinations; sums to 1
    dloss_ddistance: np.ndarray  # d(per-sample loss)/d(raw distance)


def _distance_matrix(z, store: StatsStore, metric: str, eps_rel: float):
    mus = store.mu_matrix()
    if z.shape[1] != mus.shape[1]:
        raise ValidationError("feature dimension does not match statistics")
    if metric == "euclidean":
        dist = np.empty((z.shape[0], mus.shape[0]))
        step = max(1, BLOCK_ELEMS // mus.size)
        for r in range(0, z.shape[0], step):
            diff = z[r:r + step, None, :] - mus[None, :, :]
            dist[r:r + step] = np.sqrt(
                np.maximum(np.square(diff, out=diff).sum(axis=2), 0.0)
            )
        return dist
    if metric == "mahalanobis":
        keys = store.keys()
        dist = np.empty((z.shape[0], len(keys)))
        for j, key in enumerate(keys):
            a = inverse_shrunk(store[key].sigma, eps_rel)
            diff = z - store[key].mu
            dist[:, j] = np.sqrt(
                np.maximum(np.einsum("nh,hk,nk->n", diff, a, diff), 0.0)
            )
        return dist
    raise ValidationError(f"unknown metric {metric!r}")


def _terms(z, domains, labels, store, *, balanced, calibrated, nu, metric,
           eps_rel):
    """Shared setup: scaled distances, masks, softmin probabilities."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    domains = np.atleast_1d(np.asarray(domains, dtype=np.int64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n = z.shape[0]
    if calibrated and not balanced:
        raise ValidationError("calibration applies to the balanced loss only")
    if len(store) == 0:
        raise ValidationError("statistics store is empty")
    keys = store.keys()
    if len({k[0] for k in keys}) < 2:
        raise ValidationError("alignment loss needs >= 2 domains with statistics")
    key_index = {k: i for i, k in enumerate(keys)}
    src_idx = np.empty(n, dtype=np.int64)
    for i in range(n):
        key = (int(domains[i]), int(labels[i]))
        if key not in key_index:
            raise ValidationError(f"sample pair {key} has no statistics")
        src_idx[i] = key_index[key]

    counts = store.count_vector()
    dist = _distance_matrix(z, store, metric, eps_rel)

    if balanced:
        weights = np.repeat(1.0 / counts[src_idx][:, None], len(keys), axis=1)
        if calibrated:
            weights *= (counts[None, :] / counts[src_idx][:, None]) ** nu
    else:
        weights = np.ones((n, len(keys)))

    scaled = weights * dist

    key_dom = np.array([k[0] for k in keys])
    key_cls = np.array([k[1] for k in keys])
    valid = np.ones((n, len(keys)), dtype=bool)
    valid[np.arange(n), src_idx] = False
    pos = valid & (key_cls[None, :] == labels[:, None]) \
        & (key_dom[None, :] != domains[:, None])

    # Stable softmin over the valid destinations.
    neg_scaled = np.where(valid, -scaled, -np.inf)
    shift = neg_scaled.max(axis=1, keepdims=True)
    expo = np.exp(neg_scaled - shift)
    denom = expo.sum(axis=1, keepdims=True)
    prob = expo / denom
    lse = shift[:, 0] + np.log(denom[:, 0])
    return z, n, keys, dist, weights, scaled, valid, pos, prob, lse


def alignment_loss(z, domains, labels, store: StatsStore, *,
                   balanced: bool, calibrated: bool = False, nu: float = 1.0,
                   metric: str = "euclidean", eps_rel: float = 1e-3,
                   reduction: str = "mean") -> AlignmentResult:
    """Evaluate the alignment loss for a batch of representations.

    Samples whose class appears in no other domain of the store contribute
    nothing and are reported via ``skipped``.
    """
    if reduction not in ("mean", "sum"):
        raise ValidationError("reduction must be 'mean' or 'sum'")
    _, n, _, _, _, scaled, _, pos, _, lse = _terms(
        z, domains, labels, store, balanced=balanced, calibrated=calibrated,
        nu=nu, metric=metric, eps_rel=eps_rel,
    )
    npos = pos.sum(axis=1)
    contributing = npos > 0
    per_sample = np.full(n, np.nan)
    if contributing.any():
        pos_mean = np.where(pos, scaled, 0.0).sum(axis=1)[contributing] \
            / npos[contributing]
        per_sample[contributing] = pos_mean + lse[contributing]
    total = float(per_sample[contributing].sum()) if contributing.any() else 0.0
    if reduction == "mean":
        value = total / max(int(contributing.sum()), 1)
    else:
        value = total
    return AlignmentResult(value, per_sample, contributing,
                           int(n - contributing.sum()))


def alignment_grad(z, domains, labels, store: StatsStore, *,
                   balanced: bool, calibrated: bool = False, nu: float = 1.0,
                   metric: str = "euclidean", eps_rel: float = 1e-3,
                   reduction: str = "mean"):
    """Loss plus its gradient with respect to each representation.

    Centroids and covariances are constants; the gradient of the reduced
    loss lands on every contributing sample's ``z`` row (zero elsewhere).
    """
    z_arr, n, keys, dist, weights, scaled, valid, pos, prob, lse = _terms(
        z, domains, labels, store, balanced=balanced, calibrated=calibrated,
        nu=nu, metric=metric, eps_rel=eps_rel,
    )
    npos = pos.sum(axis=1)
    contributing = npos > 0
    per_sample = np.full(n, np.nan)
    if contributing.any():
        pos_mean = np.where(pos, scaled, 0.0).sum(axis=1)[contributing] \
            / npos[contributing]
        per_sample[contributing] = pos_mean + lse[contributing]
    n_contrib = max(int(contributing.sum()), 1)
    total = float(per_sample[contributing].sum()) if contributing.any() else 0.0
    value = total / n_contrib if reduction == "mean" else total

    dl_dscaled = np.where(
        pos, 1.0 / np.maximum(npos, 1)[:, None], 0.0
    ) - np.where(valid, prob, 0.0)
    dl_dscaled[~contributing] = 0.0
    dl_ddist = weights * dl_dscaled

    grad = np.zeros_like(z_arr)
    safe_dist = np.maximum(dist, _DIST_FLOOR)
    coeff = dl_ddist / safe_dist
    if metric == "euclidean":
        mus = store.mu_matrix()
        step = max(1, BLOCK_ELEMS // mus.size)
        for r in range(0, n, step):
            diff = z_arr[r:r + step, None, :] - mus[None, :, :]
            grad[r:r + step] = np.einsum("nk,nkh->nh", coeff[r:r + step], diff)
    else:
        for j, key in enumerate(keys):
            a = inverse_shrunk(store[key].sigma, eps_rel)
            diff = z_arr - store[key].mu
            grad += coeff[:, j:j + 1] * (diff @ a)
    if reduction == "mean":
        grad /= n_contrib
    result = AlignmentResult(value, per_sample, contributing,
                             int(n - contributing.sum()))
    return result, grad


# ---------------------------------------------------------------------------
# Named surfaces
# ---------------------------------------------------------------------------

def da_loss(z, domains, labels, store: StatsStore, metric: str = "euclidean",
            eps_rel: float = 1e-3, reduction: str = "mean") -> AlignmentResult:
    """Unbalanced alignment loss (raw distances)."""
    return alignment_loss(z, domains, labels, store, balanced=False,
                          metric=metric, eps_rel=eps_rel, reduction=reduction)


def boda_loss(z, domains, labels, store: StatsStore,
              metric: str = "euclidean", nu: float = 1.0,
              calibrated: bool = False, eps_rel: float = 1e-3,
              reduction: str = "mean") -> AlignmentResult:
    """Balanced alignment loss; optionally count-calibrated."""
    return alignment_loss(z, domains, labels, store, balanced=True,
                          calibrated=calibrated, nu=nu, metric=metric,
                          eps_rel=eps_rel, reduction=reduction)


def loss_by_variant(variant: str, z, domains, labels, store: StatsStore,
                    nu: float = 1.0, eps_rel: float = 1e-3,
                    reduction: str = "mean") -> AlignmentResult:
    balanced, calibrated, metric = variant_settings(variant)
    return alignment_loss(z, domains, labels, store, balanced=balanced,
                          calibrated=calibrated, nu=nu, metric=metric,
                          eps_rel=eps_rel, reduction=reduction)


def grad_by_variant(variant: str, z, domains, labels, store: StatsStore,
                    nu: float = 1.0, eps_rel: float = 1e-3,
                    reduction: str = "mean"):
    balanced, calibrated, metric = variant_settings(variant)
    return alignment_grad(z, domains, labels, store, balanced=balanced,
                          calibrated=calibrated, nu=nu, metric=metric,
                          eps_rel=eps_rel, reduction=reduction)


def boda_grad(z, key, store: StatsStore, metric: str = "euclidean",
              nu: float = 1.0, calibrated: bool = False,
              balanced: bool = True, eps_rel: float = 1e-3):
    """Per-sample loss gradient w.r.t. ``z`` plus its softmin detail."""
    domain, label = int(key[0]), int(key[1])
    result, grad = alignment_grad(
        z, [domain], [label], store, balanced=balanced, calibrated=calibrated,
        nu=nu, metric=metric, eps_rel=eps_rel, reduction="sum",
    )
    if result.skipped:
        raise ValidationError("sample has no cross-domain positive pair")
    _, _, keys, dist, weights, scaled, valid, pos, prob, _ = _terms(
        np.asarray(z, dtype=np.float64)[None, :], [domain], [label], store,
        balanced=balanced, calibrated=calibrated, nu=nu, metric=metric,
        eps_rel=eps_rel,
    )
    mask = valid[0]
    dl_dscaled = (pos[0] / max(int(pos[0].sum()), 1) - prob[0])[mask]
    detail = BodaGradientDetail(
        keys=[k for k, m in zip(keys, mask) if m],
        probabilities=prob[0][mask],
        dloss_ddistance=weights[0][mask] * dl_dscaled,
    )
    return grad[0], detail


# ---------------------------------------------------------------------------
# Cross-entropy and the joint objective
# ---------------------------------------------------------------------------

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


def ce_loss_batch(logits, labels):
    """Mean cross-entropy over a batch; gradient already includes the 1/n."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    picked = shifted[np.arange(n), labels]
    loss = float((-picked + np.log(expv.sum(axis=1))).mean())
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def joint_loss(ce: float, boda: float, omega: float) -> float:
    """Classification term plus ``omega`` times the alignment term."""
    return ce + omega * boda


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def _bound_rhs(alpha, beta, gamma, n_total, num_domains, num_classes) -> float:
    if num_domains <= 1 or num_classes <= 1:
        raise ValidationError("bound needs > 1 domain and > 1 class")
    if n_total < 1:
        raise ValidationError("n_total must be positive")
    d, c, n = num_domains, num_classes, n_total
    expo = (c * d / n) * alpha - (c / n) * beta - (c * (d - 1) / n) * gamma
    return n * math.log((d - 1) + d * (c - 1) * math.exp(expo))


def theorem1_rhs(ts: TransferStats, n_total: int, num_domains: int,
                 num_classes: int) -> float:
    """Lower bound on the sum-reduced balanced loss."""
    return _bound_rhs(ts.alpha, ts.beta, ts.gamma, n_total, num_domains,
                      num_classes)


def theorem2_rhs(ts: TransferStats, n_total: int, num_domains: int,
                 num_classes: int) -> float:
    """Lower bound on the sum-reduced calibrated loss."""
    if ts.calibrated is None:
        raise ValidationError("calibrated statistics are required")
    cal = ts.calibrated
    return _bound_rhs(cal.alpha, cal.beta, cal.gamma, n_total, num_domains,
                      num_classes)


@dataclass
class BoundReport:
    empirical: float
    theoretical: float
    gap: float
    relative_gap: float
    stats: TransferStats  # the graph summaries the bound was evaluated at


def verify_bound(z, domains, labels, nu: float = 1.0,
                 calibrated: bool = False) -> BoundReport:
    """Check the loss lower bound on a concrete feature set.

    Statistics, loss, and bound are all computed from the same features.
    Requires data for every pair in the observed domain x class grid (the
    bound's counting argument assumes a complete grid).
    """
    z = np.asarray(z, dtype=np.float64)
    groups = group_by_pair(z, domains, labels)
    obs_domains = sorted({k[0] for k in groups})
    obs_classes = sorted({k[1] for k in groups})
    if len(obs_domains) < 2 or len(obs_classes) < 2:
        raise ValidationError("bound check needs > 1 domain and > 1 class")
    for d in obs_domains:
        for c in obs_classes:
            if (d, c) not in groups:
                raise ValidationError(
                    f"bound check needs data for every pair; ({d},{c}) missing"
                )
    store = compute_stats(groups)
    result = boda_loss(z, domains, labels, store, nu=nu,
                       calibrated=calibrated, reduction="sum")
    graph = build_graph(store, groups, metric="euclidean")
    counts = {k: store[k].count for k in store.keys()}
    ts = transfer_stats(graph, nu=nu if calibrated else None, counts=counts)
    rhs_fn = theorem2_rhs if calibrated else theorem1_rhs
    theoretical = rhs_fn(ts, z.shape[0], len(obs_domains), len(obs_classes))
    gap = result.value - theoretical
    return BoundReport(result.value, theoretical, gap,
                       gap / abs(theoretical) if theoretical != 0 else 0.0, ts)
