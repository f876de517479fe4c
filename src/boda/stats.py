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
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ValidationError
from .fileio import atomic_open, write_json
from .numerics import BLOCK_ELEMS, inverse_shrunk, sym_eig


class StatsStore:
    """Statistics of K sampled (domain, class) pairs, stacked in key order.

    ``key_domain`` / ``key_class`` (K,) hold the keys, domain-major; ``mu``
    (K, h), ``sigma`` (K, h, h) (population covariances) and ``counts`` (K,)
    their statistics; ``multi_domain`` tells whether the keys span two
    domains or more. Pairs without samples are absent. The arrays are
    read-only and a store never changes (``momentum_update`` makes a new
    one), so its shrunk inverses are computed once and cannot go stale.
    """

    def __init__(self, key_domain, key_class, mu, sigma, counts):
        self.key_domain = np.array(key_domain, dtype=np.int64)
        self.key_class = np.array(key_class, dtype=np.int64)
        self.mu = np.array(mu, dtype=np.float64)
        self.sigma = np.array(sigma, dtype=np.float64)
        self.counts = np.array(counts, dtype=np.float64)
        k, h = len(self.key_domain), self.mu.shape[-1]
        if (self.key_class.shape, self.counts.shape, self.mu.shape,
                self.sigma.shape) != ((k,), (k,), (k, h), (k, h, h)):
            raise ValidationError("store arrays do not share one K and h")
        # Domain-major integer codes: ascending iff the keys are sorted and
        # distinct; a class outside the keys' range can match no key.
        self._c0 = int(self.key_class.min(initial=0))
        self._span = int(self.key_class.max(initial=0)) - self._c0 + 1
        self.key_code = (self.key_domain - self.key_domain[:1]) * self._span \
            + self.key_class - self._c0
        if np.any(np.diff(self.key_code) <= 0):
            raise ValidationError("store keys must be distinct and sorted")
        self.multi_domain = bool(k and self.key_domain[0] != self.key_domain[-1])
        for a in (self.key_domain, self.key_class, self.mu, self.sigma,
                  self.counts, self.key_code):
            a.flags.writeable = False

    def index(self, domains, labels) -> np.ndarray:
        """Row of each sample's (domain, class) pair, in key order."""
        if not len(self):
            raise ValidationError("statistics store is empty")
        d = np.atleast_1d(np.asarray(domains, dtype=np.int64))
        c = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        code = (d - self.key_domain[0]) * self._span + c - self._c0
        idx = np.minimum(np.searchsorted(self.key_code, code), len(self) - 1)
        found = (self.key_code[idx] == code) & (c >= self._c0) \
            & (c - self._c0 < self._span)
        if not found.all():
            i = int(np.argmin(found))
            raise ValidationError(
                f"sample pair ({d[i]}, {c[i]}) has no statistics")
        return idx

    @cached_property
    def inverses(self) -> np.ndarray:
        """``inverse_shrunk`` of the (K, h, h) ``sigma`` stack, in one call
        on first use."""
        out = inverse_shrunk(self.sigma)
        out.flags.writeable = False
        return out

    def __len__(self):
        return len(self.key_domain)

    def keys(self):
        """The (domain, class) tuples of the rows, in key order."""
        return list(zip(self.key_domain.tolist(), self.key_class.tolist()))


def pair_grouping(domains, labels):
    """``(keys, order, bounds)``: the sampled pairs, domain-major; a stable
    sort of the rows by pair; pair i's rows ``order[bounds[i]:bounds[i+1]]``
    in their original order. A fixed dataset is grouped once."""
    d = np.asarray(domains, dtype=np.int64)
    c = np.asarray(labels, dtype=np.int64)
    # One nonnegative integer per pair, domain-major.
    c0 = c.min(initial=0)
    code = (d - d.min(initial=0)) * (c.max(initial=0) - c0 + 1) + (c - c0)
    order = np.argsort(code, kind="stable")
    starts = np.flatnonzero(np.diff(code[order], prepend=-1))
    first = order[starts]
    return (list(zip(d[first].tolist(), c[first].tolist())), order,
            np.append(starts, d.size))


def group_by_pair(z, grouping) -> np.ndarray:
    """The (N, h) rows of ``z`` gathered in the pair order of ``grouping``
    (a ``pair_grouping``): pair i's rows are ``[bounds[i]:bounds[i+1]]``."""
    return np.asarray(z, dtype=np.float64)[grouping[1]]


def compute_stats(rows, grouping) -> StatsStore:
    """Mean, population covariance, and count of each pair of ``grouping``,
    one contiguous segment of the ``group_by_pair`` rows at a time.

    A grouping has no empty segment, so every pair gets a row; non-finite
    features are rejected.
    """
    keys, _, bounds = grouping
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValidationError("features must be 2-D")
    b, h = bounds.tolist(), rows.shape[1]
    mu, sigma = np.empty((len(keys), h)), np.empty((len(keys), h, h))
    for i, key in enumerate(keys):
        z = rows[b[i]:b[i + 1]]
        if not np.all(np.isfinite(z)):
            raise ValidationError(f"non-finite feature in group {key}")
        mu[i] = z.mean(axis=0)
        centered = z - mu[i]
        sigma[i] = centered.T @ centered / z.shape[0]
    return StatsStore([k[0] for k in keys], [k[1] for k in keys], mu, sigma,
                      np.diff(bounds))


def momentum_update(prev: StatsStore, current: StatsStore,
                    alpha_m: float) -> StatsStore:
    """Blend two stores of the same pairs: ``alpha_m * prev + (1 - alpha_m)
    * current`` on ``mu`` and ``sigma``, with the counts of ``current``."""
    if not 0.0 <= alpha_m <= 1.0:
        raise ValidationError("alpha_m must be in [0, 1]")
    if prev.keys() != current.keys():
        raise ValidationError("momentum needs two stores of the same pairs")
    return StatsStore(current.key_domain, current.key_class,
                      alpha_m * prev.mu + (1.0 - alpha_m) * current.mu,
                      alpha_m * prev.sigma + (1.0 - alpha_m) * current.sigma,
                      current.counts)


@dataclass
class TransferabilityGraph:
    """Directed matrix of transferability values over sampled pairs."""

    keys: list            # ordered (domain, class) tuples, domain-major
    weights: np.ndarray   # (K, K); weights[i, j] = trans(key_i -> key_j)


def distances(z, store: StatsStore, metric: str = "euclidean") -> np.ndarray:
    """(N, K) distances from each row of ``z`` to each centroid of ``store``,
    from exact differences ``z - mu`` (an expanded square would cancel near a
    centroid) in blocks of about ``BLOCK_ELEMS``: Euclidean by rows,
    Mahalanobis by destinations, one batched product with the store's cached
    shrunk inverses per block."""
    return _distances(z, store, metric)[0]


def _distances(z, store, metric, keep=False):
    """``(dist, y)``: the ``distances`` and, for Mahalanobis when ``keep``,
    the (K, N, h) products ``y[j] = (z - mu_j) @ store.inverses[j]`` that
    the gradient reuses (else ``None``)."""
    if metric not in ("euclidean", "mahalanobis"):
        raise ValidationError(f"unknown metric {metric!r}")
    mus = store.mu
    if z.shape[1] != mus.shape[1]:
        raise ValidationError("feature dimension does not match statistics")
    dist = np.empty((len(z), len(mus)))
    if metric == "euclidean":
        step = max(1, BLOCK_ELEMS // mus.size)
        for r in range(0, len(z), step):
            diff = z[r:r + step, None, :] - mus[None, :, :]
            dist[r:r + step] = np.sqrt(
                np.maximum(np.square(diff, out=diff).sum(axis=2), 0.0)
            )
        return dist, None
    y = np.empty((len(mus),) + z.shape) if keep else None
    step = max(1, BLOCK_ELEMS // max(z.size, 1))
    for b in range(0, len(mus), step):
        diff = z[None] - mus[b:b + step, None]
        prod = np.matmul(diff, store.inverses[b:b + step],
                         out=None if y is None else y[b:b + step])
        dist[:, b:b + step] = np.sqrt(
            np.maximum(np.einsum("knh,knh->kn", diff, prod), 0.0)
        ).T
    return dist, y


def build_graph(store: StatsStore, dist, grouping) -> TransferabilityGraph:
    """Full directed transferability matrix over the sampled pairs.

    ``dist`` holds the (N, K) ``distances`` of the rows to the store's
    centroids and ``grouping`` the rows' ``pair_grouping``, whose pairs must
    be the store's. Row i is the mean of pair i's distance rows, reduced
    along a contiguous (K, n_i) copy.
    """
    keys, order, bounds = grouping
    if keys != store.keys() or dist.shape != (order.size, len(store)):
        raise ValidationError("distances do not match the store's pairs")
    b = bounds.tolist()
    weights = np.empty((len(keys), len(keys)))
    for i in range(len(keys)):
        weights[i] = dist[order[b[i]:b[i + 1]]].T.copy().mean(axis=1)
    return TransferabilityGraph(keys, weights)


def _graph_pass(z, grouping, nu=None):
    """``(store, dist, graph, ts)``: statistics of the rows of ``z`` grouped
    by their ``pair_grouping``, the one pass of (N, K) Euclidean distances,
    the graph built from them and its summaries (calibrated when ``nu`` is
    given)."""
    store = compute_stats(group_by_pair(z, grouping), grouping)
    dist = distances(z, store)
    graph = build_graph(store, dist, grouping)
    return store, dist, graph, transfer_stats(graph, nu, store.counts)


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
    ``(N_dst / N_src) ** nu`` to produce the calibrated variants, with the
    (K,) ``counts`` aligned with ``graph.keys``.
    """
    keys = graph.keys
    dom = np.array([k[0] for k in keys])
    cls = np.array([k[1] for k in keys])
    if len(np.unique(dom)) < 2 or len(np.unique(cls)) < 2:
        raise ValidationError("need >= 2 domains and >= 2 classes with data")

    if nu is not None:
        if not (math.isfinite(nu) and nu >= 0):
            raise ValidationError("nu must be finite and nonnegative")
        n = np.asarray(counts, dtype=np.float64)
        if n.shape != (len(keys),):
            raise ValidationError("need one count per pair of the graph")
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
    if len(graph.keys) < 2:
        raise ValidationError("need at least 2 pairs for a 2-D layout")
    d_sym = 0.5 * (graph.weights + graph.weights.T)
    d2 = d_sym * d_sym
    gram = -0.5 * (d2 - d2.mean(axis=0) - d2.mean(axis=1)[:, None] + d2.mean())
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
    write_json(payload, path)


def load_graph(path) -> TransferabilityGraph:
    with open(path) as fh:
        data = json.load(fh)
    keys = [(int(d), int(c)) for d, c in data["keys"]]
    weights = np.array(data["weights"],
                       dtype=np.float64).reshape(len(keys), len(keys))
    return TransferabilityGraph(keys, weights)


def save_mds_csv(keys, coords, path) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", "class", "x", "y"])
        for (d, c), (x, y) in zip(keys, coords):
            writer.writerow([int(d), int(c), repr(float(x)), repr(float(y))])


def save_stats(store: StatsStore, path) -> None:
    payload = [{"domain": d, "class": c, "mu": mu.tolist(),
                "sigma": sigma.tolist(), "count": int(count)}
               for (d, c), mu, sigma, count in zip(
                   store.keys(), store.mu, store.sigma, store.counts)]
    write_json(payload, path)


def transfer_stats_to_dict(ts: TransferStats) -> dict:
    return {k: v for k, v in asdict(ts).items() if v is not None}
