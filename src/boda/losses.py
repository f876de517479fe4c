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

``VARIANTS`` maps each name to its (balanced, calibrated, metric) scaling,
and one kernel computes the loss, gradient and softmin detail of them all.
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

# variant -> (balanced, calibrated, metric)
VARIANTS = {
    "da": (False, False, "euclidean"),
    "boda": (True, False, "euclidean"),
    "calibrated_boda": (True, True, "euclidean"),
    "boda_m": (True, True, "mahalanobis"),
}


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


def boda_m_distance(z, stats: FeatureStats) -> float:
    """Mahalanobis distance to a pair's centroid under its shrunk covariance."""
    z = np.asarray(z, dtype=np.float64)
    a = inverse_shrunk(stats.sigma)
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


def _align(variant, z, domains, labels, store: StatsStore, nu, reduction,
           want_grad):
    """The alignment loss of a batch in one pass over its (N, K) distances.

    Returns ``(result, grad, prob, dloss_ddist)``. Unless ``want_grad``,
    only ``result`` is set; otherwise ``grad`` is the z-gradient of the
    reduced loss, ``prob`` the (N, K) softmin (zero at each sample's own
    pair) and ``dloss_ddist`` the derivative of each sample's loss with
    respect to each raw distance (zero for non-contributing samples).
    """
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
    if reduction not in ("mean", "sum"):
        raise ValidationError("reduction must be 'mean' or 'sum'")
    if not (math.isfinite(nu) and nu >= 0):
        raise ValidationError("nu must be finite and nonnegative")
    balanced, calibrated, metric = VARIANTS[variant]
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    domains = np.atleast_1d(np.asarray(domains, dtype=np.int64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n = z.shape[0]
    if domains.shape != (n,) or labels.shape != (n,):
        raise ValidationError("need one domain and one label per sample")
    src = store.index(domains, labels)
    if len(np.unique(store.key_domain)) < 2:
        raise ValidationError("alignment loss needs >= 2 domains with statistics")
    mus, counts = store.mu, store.counts
    if z.shape[1] != mus.shape[1]:
        raise ValidationError("feature dimension does not match statistics")

    # Raw distances: exact differences, in row blocks of about BLOCK_ELEMS.
    dist = np.empty((n, len(counts)))
    step = max(1, BLOCK_ELEMS // mus.size)
    if metric == "euclidean":
        for r in range(0, n, step):
            diff = z[r:r + step, None, :] - mus[None, :, :]
            dist[r:r + step] = np.sqrt(
                np.maximum(np.square(diff, out=diff).sum(axis=2), 0.0)
            )
    else:
        inverses = [inverse_shrunk(st.sigma) for st in store.values()]
        for j, a in enumerate(inverses):
            diff = z - mus[j]
            dist[:, j] = np.sqrt(
                np.maximum(np.einsum("nh,hk,nk->n", diff, a, diff), 0.0)
            )

    weights = (1.0 / counts[src])[:, None] if balanced else np.ones((n, 1))
    if calibrated:
        weights = weights * (counts[None, :] / counts[src][:, None]) ** nu
    # The loss alone needs no raw distance after this: scale in place.
    scaled = np.multiply(weights, dist, out=None if want_grad else dist)
    pos = (store.key_class[None, :] == labels[:, None]) \
        & (store.key_domain[None, :] != domains[:, None])
    npos = pos.sum(axis=1)
    contributing = npos > 0
    pos_sum = np.where(pos, scaled, 0.0).sum(axis=1)

    # Stable softmin over every pair but the sample's own, in place.
    prob = np.negative(scaled, out=scaled)
    prob[np.arange(n), src] = -np.inf
    shift = prob.max(axis=1, keepdims=True)
    prob -= shift
    np.exp(prob, out=prob)
    denom = prob.sum(axis=1, keepdims=True)
    prob /= denom
    lse = shift[:, 0] + np.log(denom[:, 0])

    per_sample = np.full(n, np.nan)
    per_sample[contributing] = pos_sum[contributing] / npos[contributing] \
        + lse[contributing]
    n_contrib = max(int(contributing.sum()), 1)
    total = float(per_sample[contributing].sum())
    result = AlignmentResult(total / n_contrib if reduction == "mean"
                             else total, per_sample, contributing,
                             int(n - contributing.sum()))
    if not want_grad:
        return result, None, None, None

    dl_ddist = np.where(pos, 1.0 / np.maximum(npos, 1)[:, None], 0.0)
    dl_ddist -= prob
    dl_ddist[~contributing] = 0.0
    dl_ddist *= weights
    coeff = dl_ddist / np.maximum(dist, _DIST_FLOOR, out=dist)
    grad = np.zeros_like(z)
    if metric == "euclidean":
        for r in range(0, n, step):
            diff = z[r:r + step, None, :] - mus[None, :, :]
            grad[r:r + step] = np.einsum("nk,nkh->nh", coeff[r:r + step], diff)
    else:
        for j, a in enumerate(inverses):
            grad += coeff[:, j:j + 1] * ((z - mus[j]) @ a)
    if reduction == "mean":
        grad /= n_contrib
    return result, grad, prob, dl_ddist


def alignment_loss(variant: str, z, domains, labels, store: StatsStore, *,
                   nu: float = 1.0, reduction: str = "mean") -> AlignmentResult:
    """Evaluate a variant's alignment loss for a batch of representations.

    Samples whose class appears in no other domain of the store contribute
    nothing and are reported via ``skipped``.
    """
    return _align(variant, z, domains, labels, store, nu, reduction, False)[0]


def alignment_grad(variant: str, z, domains, labels, store: StatsStore, *,
                   nu: float = 1.0, reduction: str = "mean"):
    """Loss plus its gradient with respect to each representation.

    Centroids and covariances are constants; the gradient of the reduced
    loss lands on every contributing sample's ``z`` row (zero elsewhere).
    """
    result, grad, _, _ = _align(variant, z, domains, labels, store, nu,
                                reduction, True)
    return result, grad


def boda_grad(variant: str, z, key, store: StatsStore, nu: float = 1.0):
    """Per-sample loss gradient w.r.t. ``z`` plus its softmin detail."""
    domain, label = int(key[0]), int(key[1])
    result, grad, prob, dl_ddist = _align(variant, z, [domain], [label],
                                          store, nu, "sum", True)
    if result.skipped:
        raise ValidationError("sample has no cross-domain positive pair")
    mask = (store.key_domain != domain) | (store.key_class != label)
    detail = BodaGradientDetail(
        keys=[k for k, m in zip(store.keys(), mask) if m],
        probabilities=prob[0][mask],
        dloss_ddistance=dl_ddist[0][mask],
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
    try:
        return n * math.log((d - 1) + d * (c - 1) * math.exp(expo))
    except OverflowError:
        # exp(expo) > 1e308, so dropping (d - 1) changes the log by < 1e-300.
        return n * (expo + math.log(d * (c - 1)))


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
    result = alignment_loss("calibrated_boda" if calibrated else "boda", z,
                            domains, labels, store, nu=nu, reduction="sum")
    graph = build_graph(store, groups, metric="euclidean")
    counts = {k: store[k].count for k in store.keys()}
    ts = transfer_stats(graph, nu=nu if calibrated else None, counts=counts)
    rhs_fn = theorem2_rhs if calibrated else theorem1_rhs
    theoretical = rhs_fn(ts, z.shape[0], len(obs_domains), len(obs_classes))
    gap = result.value - theoretical
    return BoundReport(result.value, theoretical, gap,
                       gap / abs(theoretical) if theoretical != 0 else 0.0, ts)
