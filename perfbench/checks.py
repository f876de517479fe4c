"""Output checks computed apart from the program.

Nothing here imports boda. The dataset CSV and checkpoints are parsed with
the standard library and numpy, features come from a separate forward pass,
and every reference quantity (graph weights, transfer statistics, the MDS
spectrum, the calibrated loss and its bound) is recomputed in plain
vectorised numpy. Each check raises ``CheckError`` on the first mismatch.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

REL = 1e-9          # relative tolerance for recomputed float64 quantities
GRAD_TOL = 1e-4     # gradient-check acceptance, as in the paper's checks
BOUND_TOL = 1e-9    # the bound may be undercut by rounding only
CHUNK = 1024        # rows per distance block; keeps checks below the
                    # program's own peak memory


class CheckError(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _close(name, got, want, rel=REL):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    _require(got.shape == want.shape,
             f"{name}: shape {got.shape} != {want.shape}")
    scale = float(np.abs(want).max(initial=0.0))
    err = float(np.abs(got - want).max(initial=0.0))
    _require(np.all(np.isfinite(got)) and err <= rel * max(scale, 1e-300),
             f"{name}: max abs error {err:.3e} at scale {scale:.3e}")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def read_dataset(path) -> dict:
    """split name -> (x, domain, label), parsed from the dataset CSV."""
    rows = {"train": [], "val": [], "test": []}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            rows[row[0]].append(row[1:])
    out = {}
    for split, items in rows.items():
        arr = np.array(items, dtype=np.float64)
        out[split] = (arr[:, 2:], arr[:, 0].astype(np.int64),
                      arr[:, 1].astype(np.int64))
    return out


def read_checkpoint(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    dims = data["dims"]
    sizes = [dims["input"], *dims["hidden"], dims["rep"]]
    _require(len(data["encoder"]) == len(sizes) - 1,
             f"{path}: {len(data['encoder'])} encoder layers, "
             f"expected {len(sizes) - 1}")
    layers = []
    for layer, fan_in, fan_out in zip(data["encoder"], sizes[:-1], sizes[1:]):
        w = np.array(layer["w"], dtype=np.float64).reshape(fan_out, fan_in)
        b = np.array(layer["b"], dtype=np.float64).reshape(fan_out)
        layers.append((w, b))
    cls_w = np.array(data["classifier"]["w"], dtype=np.float64).reshape(
        dims["classes"], dims["rep"])
    cls_b = np.array(data["classifier"]["b"], dtype=np.float64).reshape(
        dims["classes"])
    for arr in [a for pair in layers for a in pair] + [cls_w, cls_b]:
        _require(np.all(np.isfinite(arr)), f"{path}: non-finite parameter")
    return {"layers": layers, "cls_w": cls_w, "cls_b": cls_b}


def forward(ckpt, x):
    """(representations, logits): affine layers, ReLU between them."""
    h = x
    last = len(ckpt["layers"]) - 1
    for i, (w, b) in enumerate(ckpt["layers"]):
        h = h @ w.T + b
        if i != last:
            h = np.maximum(h, 0.0)
    return h, h @ ckpt["cls_w"].T + ckpt["cls_b"]


# ---------------------------------------------------------------------------
# Reference computations over domain-class pairs
# ---------------------------------------------------------------------------

class Pairs:
    """Features grouped by (domain, class), keys domain-major."""

    def __init__(self, z, domain, label):
        keys = sorted(set(zip(domain.tolist(), label.tolist())))
        index = {k: i for i, k in enumerate(keys)}
        self.z = z
        self.keys = keys
        self.dom = np.array([k[0] for k in keys])
        self.cls = np.array([k[1] for k in keys])
        self.idx = np.array([index[k] for k in zip(domain.tolist(),
                                                   label.tolist())])
        self.counts = np.bincount(self.idx, minlength=len(keys)).astype(float)
        sums = np.zeros((len(keys), z.shape[1]))
        np.add.at(sums, self.idx, z)
        self.mu = sums / self.counts[:, None]

    def distance_blocks(self):
        """(rows, distances to every centroid) in blocks of CHUNK rows."""
        for start in range(0, self.z.shape[0], CHUNK):
            rows = slice(start, start + CHUNK)
            diff = self.z[rows, None, :] - self.mu[None, :, :]
            yield rows, np.sqrt((diff * diff).sum(axis=2))

    def graph_weights(self):
        """weights[i, j]: mean distance from pair i's rows to centroid j."""
        sums = np.zeros((len(self.keys), len(self.keys)))
        for rows, dist in self.distance_blocks():
            np.add.at(sums, self.idx[rows], dist)
        return sums / self.counts[:, None]

    def summaries(self, weights, nu=None):
        """(alpha, beta, gamma) as masked means over the weights, each edge
        scaled by (n_dst / n_src) ** nu when nu is given."""
        same_cls = self.cls[:, None] == self.cls[None, :]
        same_dom = self.dom[:, None] == self.dom[None, :]
        off_diag = ~np.eye(len(self.keys), dtype=bool)
        if nu is not None:
            weights = (self.counts[None, :] / self.counts[:, None]) ** nu \
                * weights
        return (float(weights[same_cls & ~same_dom].mean()),
                float(weights[same_dom & off_diag].mean()),
                float(weights[~same_cls & ~same_dom].mean()))

    def calibrated_loss_sum(self, nu):
        """Sum-reduced calibrated balanced alignment loss: per row, the mean
        scaled distance to its positives (same class, other domain) plus the
        log-sum-exp of minus the scaled distances to every other pair."""
        total = 0.0
        for rows, dist in self.distance_blocks():
            own = self.idx[rows]
            n_src = self.counts[own][:, None]
            scaled = dist / n_src * (self.counts[None, :] / n_src) ** nu
            pos = (self.cls[None, :] == self.cls[own][:, None]) \
                & (self.dom[None, :] != self.dom[own][:, None])
            neg = -scaled
            neg[np.arange(len(own)), own] = -np.inf
            top = neg.max(axis=1)
            lse = top + np.log(np.exp(neg - top[:, None]).sum(axis=1))
            npos = pos.sum(axis=1)
            keep = npos > 0
            pos_mean = np.where(pos, scaled, 0.0).sum(axis=1)[keep] \
                / npos[keep]
            total += float((pos_mean + lse[keep]).sum())
        return total


def bound_rhs(alpha, beta, gamma, n, d, c):
    expo = (c * d / n) * alpha - (c / n) * beta - (c * (d - 1) / n) * gamma
    return n * math.log((d - 1) + d * (c - 1) * math.exp(expo))


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------

def check_train(out_dir, steps, omega, data):
    ckpt = read_checkpoint(os.path.join(out_dir, "checkpoint.json"))
    with open(os.path.join(out_dir, "log.csv"), newline="") as fh:
        log = list(csv.DictReader(fh))
    _require(log and int(log[-1]["step"]) == steps,
             f"{out_dir}: log ends at step {log[-1]['step'] if log else None},"
             f" expected {steps}")
    for row in log:
        ce, boda, joint = (float(row[k]) for k in ("ce", "boda", "joint"))
        _require(joint == ce + omega * boda,
                 f"{out_dir}: step {row['step']} joint {joint!r} != "
                 f"ce + omega * boda = {ce + omega * boda!r}")
    x, domain, label = data["test"]
    _, logits = forward(ckpt, x)
    hit = logits.argmax(axis=1) == label
    _, pair = np.unique(domain * (label.max() + 1) + label,
                        return_inverse=True)
    per_pair = np.bincount(pair, weights=hit) / np.bincount(pair)
    chance = 1.0 / len(np.unique(label))
    _require(per_pair.mean() > 2.0 * chance,
             f"{out_dir}: balanced test accuracy {per_pair.mean():.4f} is "
             f"not above twice chance ({2.0 * chance:.4f})")


def check_gradcheck(path, variants):
    with open(path) as fh:
        worst = json.load(fh)
    _require(sorted(worst) == sorted(variants),
             f"{path}: variants {sorted(worst)}")
    for variant, err in worst.items():
        _require(math.isfinite(err) and 0.0 <= err <= GRAD_TOL,
                 f"{path}: {variant} worst relative error {err}")


def _train_pairs(ckpt_path, data):
    x, domain, label = data["train"]
    z, _ = forward(read_checkpoint(ckpt_path), x)
    return Pairs(z, domain, label)


def check_analyze(out_dir, ckpt_path, data, nu):
    pairs = _train_pairs(ckpt_path, data)
    k = len(pairs.keys)

    with open(os.path.join(out_dir, "graph.json")) as fh:
        graph = json.load(fh)
    _require([tuple(key) for key in graph["keys"]] == pairs.keys,
             "graph.json: keys differ from the pairs in the data")
    weights = np.array(graph["weights"], dtype=np.float64).reshape(k, k)
    _close("graph.json weights", weights, pairs.graph_weights())

    with open(os.path.join(out_dir, "transfer_stats.json")) as fh:
        ts = json.load(fh)
    _close("transfer_stats alpha/beta/gamma",
           [ts["alpha"], ts["beta"], ts["gamma"]], pairs.summaries(weights))
    cal = ts["calibrated"]
    _require(cal["nu"] == nu, f"transfer_stats: nu {cal['nu']} != {nu}")
    _close("transfer_stats calibrated",
           [cal["alpha"], cal["beta"], cal["gamma"]],
           pairs.summaries(weights, nu))

    with open(os.path.join(out_dir, "stats.json")) as fh:
        stats = json.load(fh)
    _require([(s["domain"], s["class"]) for s in stats] == pairs.keys,
             "stats.json: keys differ from the pairs in the data")
    _require([s["count"] for s in stats] == pairs.counts.astype(int).tolist(),
             "stats.json: counts differ from the data")
    _close("stats.json means", [s["mu"] for s in stats], pairs.mu)

    with open(os.path.join(out_dir, "mds.csv"), newline="") as fh:
        mds = list(csv.DictReader(fh))
    _require([(int(r["domain"]), int(r["class"])) for r in mds] == pairs.keys,
             "mds.csv: keys differ from the graph")
    xy = np.array([[float(r["x"]), float(r["y"])] for r in mds])
    norms = np.linalg.norm(xy, axis=0)
    _require(np.all(np.abs(xy.sum(axis=0)) <= 1e-8 * math.sqrt(k) * norms),
             f"mds.csv: columns not centred, sums {xy.sum(axis=0)}")
    _require(abs(xy[:, 0] @ xy[:, 1]) <= 1e-8 * norms[0] * norms[1],
             "mds.csv: columns not orthogonal")
    d_sym = 0.5 * (weights + weights.T)
    center = np.eye(k) - 1.0 / k
    gram = -0.5 * center @ (d_sym * d_sym) @ center
    top = np.maximum(np.linalg.eigvalsh(gram)[::-1][:2], 0.0)
    _require(np.all(np.abs(norms ** 2 - top) <= 1e-8 * top[0]),
             f"mds.csv: squared norms {norms ** 2} != top eigenvalues {top}")


def check_verify_bound(path, ckpt_path, data, nu):
    pairs = _train_pairs(ckpt_path, data)
    with open(path) as fh:
        report = json.load(fh)
    _require(report["gap"] >= -BOUND_TOL, f"{path}: gap {report['gap']}")
    _close("verify-bound gap", report["gap"],
           report["empirical"] - report["theoretical"])
    _close("verify-bound empirical", report["empirical"],
           pairs.calibrated_loss_sum(nu))
    alpha, beta, gamma = pairs.summaries(pairs.graph_weights(), nu)
    _close("verify-bound theoretical", report["theoretical"],
           bound_rhs(alpha, beta, gamma, pairs.z.shape[0],
                     len(set(pairs.dom.tolist())),
                     len(set(pairs.cls.tolist()))))
