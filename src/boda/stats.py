"""Per-pair feature statistics, the transferability graph, and its summaries.

The transferability from pair (d,c) to (d',c') is the average distance from
(d,c)'s features to (d',c')'s centroid; collecting all ordered pairs gives a
directed graph whose summary statistics (same class across domains, other
classes within a domain, other classes across domains) and their
count-calibrated variants feed both the alignment losses and the bound
checks. A classical-scaling projection of the symmetrized graph provides
the standard 2D picture.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .numerics import BLOCK_ELEMS, inverse_shrunk, sym_eig


@dataclass
class FeatureStats:
    """First/second-order feature statistics of one domain-class pair."""

    key: tuple            # (domain, class)
    mu: np.ndarray        # (h,)
    sigma: np.ndarray     # (h, h), population covariance
    count: int


class StatsStore:
    """Ordered map from (domain, class) to FeatureStats.

    Keys are kept domain-major, class-minor; pairs without samples are
    simply absent. ``mu`` (K, h), ``counts`` (K,) and the key arrays
    ``key_domain`` / ``key_class`` (K,) are stacked once, in key order.
    """

    def __init__(self, stats=None):
        self._stats = dict(sorted({st.key: st for st in stats or []}.items()))
        values = list(self._stats.values())
        self.mu = np.stack([st.mu for st in values]) if values \
            else np.zeros((0, 0))
        self.counts = np.array([st.count for st in values], dtype=np.float64)
        self.key_domain = np.array([k[0] for k in self._stats], dtype=np.int64)
        self.key_class = np.array([k[1] for k in self._stats], dtype=np.int64)

    def index(self, domains, labels) -> np.ndarray:
        """Row of each sample's (domain, class) pair, in key order."""
        if not self._stats:
            raise ValidationError("statistics store is empty")
        d = np.atleast_1d(np.asarray(domains, dtype=np.int64))
        c = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        # Domain-major integer codes: the sorted keys' codes ascend, and a
        # class outside the keys' range can match no key.
        d0, c0 = self.key_domain[0], self.key_class.min()
        span = self.key_class.max() - c0 + 1
        key_code = (self.key_domain - d0) * span + self.key_class - c0
        code = (d - d0) * span + c - c0
        idx = np.minimum(np.searchsorted(key_code, code), len(key_code) - 1)
        found = (key_code[idx] == code) & (c >= c0) & (c - c0 < span)
        if not found.all():
            i = int(np.argmin(found))
            raise ValidationError(
                f"sample pair ({d[i]}, {c[i]}) has no statistics")
        return idx

    def __contains__(self, key):
        return tuple(key) in self._stats

    def __getitem__(self, key) -> FeatureStats:
        return self._stats[tuple(key)]

    def __len__(self):
        return len(self._stats)

    def keys(self):
        return list(self._stats.keys())

    def values(self):
        return list(self._stats.values())


def group_by_pair(z, domains, labels) -> dict:
    """Group feature rows by (domain, class) key, preserving row order."""
    z = np.asarray(z, dtype=np.float64)
    d = np.asarray(domains, dtype=np.int64)
    c = np.asarray(labels, dtype=np.int64)
    if d.size == 0:
        return {}
    # One integer per pair, domain-major; a stable sort keeps each group's
    # rows in their original order.
    code = (d - d.min()) * (int(c.max() - c.min()) + 1) + (c - c.min())
    order = np.argsort(code, kind="stable")
    starts = np.flatnonzero(np.diff(code[order], prepend=-1))
    return {
        (int(d[order[start]]), int(c[order[start]])): z[rows]
        for start, rows in zip(starts, np.split(order, starts[1:]))
    }


def compute_stats(features_by_key: dict) -> StatsStore:
    """Mean, population covariance, and count for each sampled pair.

    Empty groups are omitted (a pair with no data has no statistics);
    non-finite features are rejected.
    """
    stats = []
    for key in sorted(features_by_key):
        z = np.asarray(features_by_key[key], dtype=np.float64)
        if z.size == 0:
            continue
        if z.ndim != 2:
            raise ValidationError("features must be 2-D per group")
        if not np.all(np.isfinite(z)):
            raise ValidationError(f"non-finite feature in group {key}")
        mu = z.mean(axis=0)
        centered = z - mu
        sigma = centered.T @ centered / z.shape[0]
        stats.append(FeatureStats(tuple(key), mu, sigma, z.shape[0]))
    return StatsStore(stats)


def momentum_update(prev: StatsStore, current: StatsStore, alpha_m: float) -> StatsStore:
    """Blend two stores: ``alpha_m * prev + (1 - alpha_m) * current``.

    Keys present only in ``current`` are inserted as-is; keys missing from
    ``current`` keep their previous statistics. Counts always come from the
    most recent store that has the key.
    """
    if not 0.0 <= alpha_m <= 1.0:
        raise ValidationError("alpha_m must be in [0, 1]")
    merged = []
    for key in sorted(set(prev.keys()) | set(current.keys())):
        if key not in prev:
            merged.append(current[key])
        elif key not in current:
            merged.append(prev[key])
        else:
            p, c = prev[key], current[key]
            merged.append(
                FeatureStats(
                    key,
                    alpha_m * p.mu + (1.0 - alpha_m) * c.mu,
                    alpha_m * p.sigma + (1.0 - alpha_m) * c.sigma,
                    c.count,
                )
            )
    return StatsStore(merged)


def transferability(src_samples, mu_dst, metric: str = "euclidean",
                    sigma_inv=None) -> float:
    """Mean distance from source samples to a destination centroid."""
    src = np.asarray(src_samples, dtype=np.float64)
    mu_dst = np.asarray(mu_dst, dtype=np.float64)
    if src.ndim != 2 or src.shape[0] == 0:
        raise ValidationError("source sample set must be nonempty and 2-D")
    if src.shape[1] != mu_dst.shape[0]:
        raise ValidationError("feature dimension mismatch")
    diff = src - mu_dst
    if metric == "euclidean":
        d = np.sqrt(np.sum(diff * diff, axis=1))
    elif metric == "mahalanobis":
        if sigma_inv is None:
            raise ValidationError("mahalanobis metric needs sigma_inv")
        d = np.sqrt(np.maximum(np.einsum("nh,hk,nk->n", diff, sigma_inv, diff), 0.0))
    else:
        raise ValidationError(f"unknown metric {metric!r}")
    return float(d.mean())


@dataclass
class TransferabilityGraph:
    """Directed matrix of transferability values over sampled pairs."""

    keys: list            # ordered (domain, class) tuples, domain-major
    weights: np.ndarray   # (K, K); weights[i, j] = trans(key_i -> key_j)


def build_graph(store: StatsStore, features_by_key: dict,
                metric: str = "euclidean") -> TransferabilityGraph:
    """Full directed transferability matrix over the sampled pairs.

    Row i is ``transferability`` from pair i's samples to every centroid,
    over blocks of at most about ``BLOCK_ELEMS`` differences ``z - mu``
    (exact near a centroid, where an expanded square would cancel).
    """
    keys = [tuple(k) for k in sorted(features_by_key)]
    for key in keys:
        if key not in store:
            raise ValidationError(f"no statistics for sampled pair {key}")
    if metric not in ("euclidean", "mahalanobis"):
        raise ValidationError(f"unknown metric {metric!r}")
    k_count = len(keys)
    weights = np.zeros((k_count, k_count))
    mus = np.array([store[k].mu for k in keys])
    if metric == "mahalanobis":
        sigma_invs = np.array([inverse_shrunk(store[k].sigma) for k in keys])
    for i, key in enumerate(keys):
        src = np.asarray(features_by_key[key], dtype=np.float64)
        if src.ndim != 2 or src.size == 0 or src.shape[1] != mus.shape[1]:
            raise ValidationError(f"pair {key} needs a nonempty (n, h) sample")
        step = max(1, BLOCK_ELEMS // src.size)
        for j in range(0, k_count, step):
            diff = mus[j:j + step, None, :] - src[None, :, :]
            if metric == "euclidean":
                sq = np.square(diff, out=diff).sum(axis=2)
            else:
                sq = np.maximum(
                    ((diff @ sigma_invs[j:j + step]) * diff).sum(axis=2), 0.0
                )
            weights[i, j:j + step] = np.sqrt(sq).mean(axis=1)
    return TransferabilityGraph(keys, weights)


@dataclass
class CalibratedStats:
    nu: float
    alpha: float
    beta: float
    gamma: float


@dataclass
class TransferStats:
    alpha: float
    beta: float
    gamma: float
    calibrated: Optional[CalibratedStats] = None


def transfer_stats(graph: TransferabilityGraph, nu: Optional[float] = None,
                   counts=None) -> TransferStats:
    """Summarize the graph into its three ordered-pair averages.

    alpha averages same-class cross-domain edges, beta same-domain
    cross-class edges, gamma cross-domain cross-class edges; the diagonal is
    ignored. When ``nu`` is given, each edge is additionally weighted by
    ``(N_dst / N_src) ** nu`` to produce the calibrated variants.
    """
    keys = graph.keys
    dom = np.array([k[0] for k in keys])
    cls = np.array([k[1] for k in keys])
    if len(np.unique(dom)) < 2 or len(np.unique(cls)) < 2:
        raise ValidationError("need >= 2 domains and >= 2 classes with data")

    if nu is not None:
        if not (math.isfinite(nu) and nu >= 0):
            raise ValidationError("nu must be finite and nonnegative")
        if counts is None:
            counts = {}
        n = np.array(
            [float(counts.get(k, 0)) for k in keys], dtype=np.float64
        )
        if np.any(n < 1):
            raise ValidationError("calibration needs a positive count per pair")

    same_dom = dom[:, None] == dom[None, :]
    same_cls = cls[:, None] == cls[None, :]
    masks = {
        "alpha": same_cls & ~same_dom,
        "beta": same_dom & ~np.eye(len(keys), dtype=bool),
        "gamma": ~same_dom & ~same_cls,
    }
    for name, mask in masks.items():
        if not mask.any():
            raise ValidationError(f"no ordered pairs contribute to {name}")
    plain = {name: float(graph.weights[mask].mean())
             for name, mask in masks.items()}
    calibrated = None
    if nu is not None:
        cal_weights = (n[None, :] / n[:, None]) ** nu * graph.weights
        calibrated = CalibratedStats(
            nu=float(nu),
            **{name: float(cal_weights[mask].mean())
               for name, mask in masks.items()},
        )
    return TransferStats(plain["alpha"], plain["beta"], plain["gamma"], calibrated)


def mds_2d(graph: TransferabilityGraph):
    """Classical scaling of the symmetrized graph into two dimensions.

    Negative eigenvalues of the doubly-centered Gram matrix (possible for
    non-Euclidean dissimilarities) are clamped to zero.
    """
    k_count = len(graph.keys)
    if k_count < 2:
        raise ValidationError("need at least 2 pairs for a 2-D layout")
    d_sym = 0.5 * (graph.weights + graph.weights.T)
    center = np.eye(k_count) - np.ones((k_count, k_count)) / k_count
    gram = -0.5 * center @ (d_sym * d_sym) @ center
    evals, evecs = sym_eig(gram)
    lam = np.maximum(evals[:2], 0.0)
    coords = evecs[:, :2] * np.sqrt(lam)
    return graph.keys, coords


# ---------------------------------------------------------------------------
# File formats: graph JSON, MDS CSV, stats JSON
# ---------------------------------------------------------------------------

def save_graph(graph: TransferabilityGraph, path) -> None:
    payload = {
        "keys": [[int(d), int(c)] for d, c in graph.keys],
        "weights": [float(v) for v in graph.weights.ravel()],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_graph(path) -> TransferabilityGraph:
    with open(path) as fh:
        data = json.load(fh)
    keys = [(int(d), int(c)) for d, c in data["keys"]]
    k_count = len(keys)
    weights = np.array(data["weights"], dtype=np.float64).reshape(k_count, k_count)
    return TransferabilityGraph(keys, weights)


def save_mds_csv(keys, coords, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", "class", "x", "y"])
        for (d, c), (x, y) in zip(keys, coords):
            writer.writerow([int(d), int(c), repr(float(x)), repr(float(y))])


def save_stats(store: StatsStore, path) -> None:
    payload = [
        {
            "domain": int(st.key[0]),
            "class": int(st.key[1]),
            "mu": [float(v) for v in st.mu],
            "sigma": [[float(v) for v in row] for row in st.sigma],
            "count": int(st.count),
        }
        for st in store.values()
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def transfer_stats_to_dict(ts: TransferStats) -> dict:
    out = {"alpha": ts.alpha, "beta": ts.beta, "gamma": ts.gamma}
    if ts.calibrated is not None:
        out["calibrated"] = {
            "nu": ts.calibrated.nu,
            "alpha": ts.calibrated.alpha,
            "beta": ts.calibrated.beta,
            "gamma": ts.calibrated.gamma,
        }
    return out
