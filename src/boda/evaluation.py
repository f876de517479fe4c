"""Accuracy breakdowns, feature-discrepancy analysis, and the
statistics-vs-accuracy correlation report."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model
from .datagen import Dataset
from .errors import ValidationError
from .stats import group_by_pair


@dataclass
class AccuracyReport:
    per_domain: dict            # domain -> accuracy in [0, 100]
    average: float              # mean of per-domain accuracies
    worst: float                # min over domains
    many: Optional[float]       # shot-region accuracies; None if region empty
    medium: Optional[float]
    few: Optional[float]
    zero: Optional[float]
    per_pair: dict              # (domain, class) -> accuracy
    shot_region: dict           # (domain, class) -> region name


def shot_region(count: int, many_min: int = 100, few_max: int = 20) -> str:
    """Region of a pair by its training count.

    zero: no samples; few: under ``few_max``; medium: ``few_max`` to
    ``many_min`` inclusive; many: above ``many_min``.
    """
    if count == 0:
        return "zero"
    if count < few_max:
        return "few"
    if count <= many_min:
        return "medium"
    return "many"


def accuracy_report(params: model.ModelParams, ds: Dataset,
                    many_min: int = 100, few_max: int = 20) -> AccuracyReport:
    """Argmax-of-logits accuracy over the balanced test split."""
    if len(ds.test) == 0:
        raise ValidationError("test split is empty")
    _, logits, _ = model.forward(params, ds.test.x)
    correct = logits.argmax(axis=1) == ds.test.label
    grid = (ds.num_domains, ds.num_classes)
    code = np.ravel_multi_index((ds.test.domain, ds.test.label), grid)
    size = np.bincount(code, minlength=grid[0] * grid[1]).reshape(grid)
    hits = np.bincount(code[correct], minlength=size.size).reshape(grid)
    with np.errstate(invalid="ignore"):  # no test rows: NaN
        pair_acc = hits / size * 100.0
        domain_acc = hits.sum(axis=1) / size.sum(axis=1) * 100.0

    per_pair = {(d, c): float(pair_acc[d, c])
                for d, c in np.argwhere(size).tolist()}
    regions = {(d, c): shot_region(ds.counts.get((d, c), 0), many_min, few_max)
               for d in range(grid[0]) for c in range(grid[1])}
    per_domain = {d: float(acc) for d, acc in enumerate(domain_acc)}
    region_acc = {}
    for name in ("many", "medium", "few", "zero"):
        vals = [per_pair[k] for k in per_pair if regions[k] == name]
        region_acc[name] = float(np.mean(vals)) if vals else None

    return AccuracyReport(
        per_domain=per_domain,
        average=float(np.mean(list(per_domain.values()))),
        worst=float(min(per_domain.values())),
        many=region_acc["many"],
        medium=region_acc["medium"],
        few=region_acc["few"],
        zero=region_acc["zero"],
        per_pair=per_pair,
        shot_region=regions,
    )


def feature_discrepancy(params: model.ModelParams, ds: Dataset):
    """Per-pair train/test centroid distances in representation space.

    ``within`` is the distance between a pair's train and test centroids;
    ``best_cross`` the smallest distance from its test centroid to another
    domain's train centroid of the same class. Also returns the Pearson
    correlation between log count ratios and log distance ratios over all
    ordered same-class cross-domain pairs.
    """
    def centroids(split):
        z, _, _ = model.forward(params, split.x)
        groups = group_by_pair(z, split.domain, split.label)
        return {key: rows.mean(axis=0) for key, rows in groups.items()}

    mu_train, mu_test = centroids(ds.train), centroids(ds.test)

    per_pair = {}
    for key in sorted(mu_test):
        d, c = key
        within = (
            float(np.linalg.norm(mu_train[key] - mu_test[key]))
            if key in mu_train else None
        )
        cross = [
            float(np.linalg.norm(mu_train[(d2, c)] - mu_test[key]))
            for d2, c2 in mu_train
            if c2 == c and d2 != d
        ]
        per_pair[key] = {
            "within": within,
            "best_cross": min(cross) if cross else None,
            "count": ds.counts.get(key, 0),
        }

    xs, ys = [], []
    for (d, c) in mu_train:
        for (d2, c2) in mu_train:
            if c2 != c or d2 == d:
                continue
            within = per_pair.get((d, c), {}).get("within")
            other = float(np.linalg.norm(mu_train[(d2, c)] - mu_test[(d, c)])) \
                if (d, c) in mu_test else None
            if within is None or other is None or within <= 0 or other <= 0:
                continue
            xs.append(math.log(ds.counts[(d2, c)] / ds.counts[(d, c)]))
            ys.append(math.log(within / other))
    correlation = _pearson(np.array(xs), np.array(ys)) if len(xs) >= 2 else 0.0
    return per_pair, correlation


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    if x.size < 2 or x.std() == 0 or y.std() == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def _rankdata(x: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean of their positions)."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size)
    sorted_x = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    return _pearson(_rankdata(x), _rankdata(y))


def stats_accuracy_correlation(records) -> dict:
    """Correlations of (beta + gamma) - alpha against test accuracy.

    Degenerate inputs (zero variance on either side) report 0 with a flag
    rather than failing, so sweeps over flat regions stay usable.
    """
    if len(records) < 3:
        raise ValidationError("need at least 3 records")

    x = np.array([float(r.score) for r in records])
    y = np.array([float(r.accuracy) for r in records])
    degenerate = bool(x.std() == 0 or y.std() == 0)
    if degenerate:
        return {"pearson": 0.0, "spearman": 0.0, "degenerate": True}
    return {
        "pearson": _pearson(x, y),
        "spearman": _spearman(x, y),
        "degenerate": False,
    }
