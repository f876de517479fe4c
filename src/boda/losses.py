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
from .stats import (
    StatsStore,
    TransferStats,
    _distances,
    _graph_pass,
    pair_grouping,
)

_DIST_FLOOR = 1e-12

# variant -> (balanced, calibrated, metric)
VARIANTS = {
    "da": (False, False, "euclidean"),
    "boda": (True, False, "euclidean"),
    "calibrated_boda": (True, True, "euclidean"),
    "boda_m": (True, True, "mahalanobis"),
}


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
           want_grad, dist=None):
    """The alignment loss of a batch in one pass over its (N, K) distances.

    Returns ``(result, grad, prob, dloss_ddist)``. Unless ``want_grad``,
    only ``result`` is set; otherwise ``grad`` is the z-gradient of the
    reduced loss, ``prob`` the (N, K) softmin (zero at each sample's own
    pair) and ``dloss_ddist`` the derivative of each sample's loss with
    respect to each raw distance (zero for non-contributing samples).
    ``dist``, the batch's ``distances`` to ``store`` under the variant's
    metric when already computed (for the loss alone), is overwritten.
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
    counts = store.counts
    y = None
    if dist is None:
        dist, y = _distances(z, store, metric, want_grad)

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
    if metric == "euclidean":
        grad = z * coeff.sum(axis=1)[:, None] - coeff @ store.mu
    else:
        grad = (coeff[:, None, :] @ y.transpose(1, 0, 2))[:, 0]
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

def ce_loss_batch(logits, labels):
    """Mean cross-entropy over a batch; gradient already includes the 1/n."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    rows = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    picked = shifted[rows, labels]
    expv = np.exp(shifted, out=shifted)
    sums = expv.sum(axis=1, keepdims=True)
    loss = float((np.log(sums[:, 0]) - picked).sum() / n)
    grad = np.divide(expv, sums, out=expv)
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


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
    grouping = pair_grouping(domains, labels)
    keys = set(grouping[0])
    obs_domains = sorted({d for d, _ in keys})
    obs_classes = sorted({c for _, c in keys})
    if len(obs_domains) < 2 or len(obs_classes) < 2:
        raise ValidationError("bound check needs > 1 domain and > 1 class")
    missing = [(d, c) for d in obs_domains for c in obs_classes
               if (d, c) not in keys]
    if missing:
        raise ValidationError("bound check needs data for every pair; "
                              "({},{}) missing".format(*missing[0]))
    # One distance pass: the graph reads it before the loss scales it.
    store, dist, _, ts = _graph_pass(z, domains, labels,
                                     nu if calibrated else None, grouping)
    result = _align("calibrated_boda" if calibrated else "boda", z, domains,
                    labels, store, nu, "sum", False, dist)[0]
    rhs_fn = theorem2_rhs if calibrated else theorem1_rhs
    theoretical = rhs_fn(ts, z.shape[0], len(obs_domains), len(obs_classes))
    gap = result.value - theoretical
    return BoundReport(result.value, theoretical, gap,
                       gap / abs(theoretical) if theoretical != 0 else 0.0, ts)
