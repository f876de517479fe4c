"""Accuracy breakdowns and the statistics-vs-accuracy correlation
report."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model
from .datagen import Dataset
from .errors import ValidationError


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


MANY_MIN = 100  # the paper's many-shot pairs have over 100 training rows
FEW_MAX = 20    # and its few-shot pairs under 20


def shot_region(count: int) -> str:
    """Region of a pair by its training count.

    zero: no samples; few: under ``FEW_MAX``; medium: ``FEW_MAX`` to
    ``MANY_MIN`` inclusive; many: above ``MANY_MIN``.
    """
    if count == 0:
        return "zero"
    if count < FEW_MAX:
        return "few"
    if count <= MANY_MIN:
        return "medium"
    return "many"


def accuracy_report(params: model.ModelParams, ds: Dataset) -> AccuracyReport:
    """Argmax-of-logits accuracy over the balanced test split."""
    if len(ds.test) == 0:
        raise ValidationError("test split is empty")
    _, logits, _ = model.forward(params, ds.test.x)
    correct = logits.argmax(axis=1) == ds.test.label
    grid = ds.counts.shape
    code = np.ravel_multi_index((ds.test.domain, ds.test.label), grid)
    size = np.bincount(code, minlength=grid[0] * grid[1]).reshape(grid)
    hits = np.bincount(code[correct], minlength=size.size).reshape(grid)
    with np.errstate(invalid="ignore"):  # no test rows: NaN
        pair_acc = hits / size * 100.0
        domain_acc = hits.sum(axis=1) / size.sum(axis=1) * 100.0

    per_pair = {(d, c): float(pair_acc[d, c])
                for d, c in np.argwhere(size).tolist()}
    regions = {k: shot_region(n) for k, n in np.ndenumerate(ds.counts)}
    per_domain = {d: float(acc) for d, acc in enumerate(domain_acc)}
    region_acc = {}
    for name in ("many", "medium", "few", "zero"):
        vals = [per_pair[k] for k in per_pair if regions[k] == name]
        region_acc[name] = float(np.mean(vals)) if vals else None
    return AccuracyReport(
        per_domain=per_domain,
        average=float(np.mean(list(per_domain.values()))),
        worst=float(min(per_domain.values())),
        per_pair=per_pair,
        shot_region=regions,
        **region_acc,
    )


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    if x.size < 2 or x.std() == 0 or y.std() == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def _rankdata(x: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean of their positions; each NaN is
    its own tie, ranked in input order: ``return_index`` makes the sort
    stable)."""
    _, _, inv, n = np.unique(x, return_index=True, return_inverse=True,
                             return_counts=True, equal_nan=False)
    return (np.cumsum(n) - 0.5 * (n - 1))[inv]


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
        "spearman": _pearson(_rankdata(x), _rankdata(y)),
        "degenerate": False,
    }
