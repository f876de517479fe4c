"""Finite-difference verification of the analytical loss gradients."""

from __future__ import annotations

import numpy as np

from . import losses
from .errors import ValidationError
from .numerics import make_rng
from .stats import FeatureStats, StatsStore


def central_difference(fn, x, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        up = fn(x)
        xf[i] = orig - h
        down = fn(x)
        xf[i] = orig
        flat[i] = (up - down) / (2.0 * h)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Norm-relative disagreement between two gradient estimates.

    When both norms sit below the central-difference noise floor the
    gradients agree (a saturated softmin makes them genuinely zero at
    double precision), so the error is defined as zero there.
    """
    analytic = np.asarray(analytic).ravel()
    numeric = np.asarray(numeric).ravel()
    norm_a = float(np.linalg.norm(analytic))
    norm_n = float(np.linalg.norm(numeric))
    if max(norm_a, norm_n) < 1e-8:
        return 0.0
    return float(np.linalg.norm(analytic - numeric)) / max(norm_a, norm_n)


def random_instance(rng: np.random.Generator):
    """A random statistics store plus one sample to differentiate at."""
    dim = int(rng.integers(2, 9))
    num_domains = int(rng.integers(2, 4))
    num_classes = int(rng.integers(2, 5))
    stats = []
    for d in range(num_domains):
        for c in range(num_classes):
            mu = 2.0 * rng.standard_normal(dim)
            a = rng.standard_normal((dim, dim)) / np.sqrt(dim)
            sigma = a @ a.T + 0.1 * np.eye(dim)
            count = int(rng.integers(1, 51))
            stats.append(FeatureStats((d, c), mu, sigma, count))
    store = StatsStore(stats)
    z = 2.0 * rng.standard_normal(dim)
    d_i = int(rng.integers(0, num_domains))
    c_i = int(rng.integers(0, num_classes))
    return store, z, (d_i, c_i)


def run_gradcheck(seed: int, n_instances: int, h: float = 1e-5) -> dict:
    """Max relative error of analytic vs numeric z-gradients per variant."""
    if n_instances < 1:
        raise ValidationError("n_instances must be >= 1")
    rng = make_rng(seed, stream=31)
    worst = {variant: 0.0 for variant in losses.VARIANTS}
    for _ in range(n_instances):
        store, z, key = random_instance(rng)
        for variant in losses.VARIANTS:
            _, grad = losses.alignment_grad(
                variant, z, [key[0]], [key[1]], store, reduction="sum"
            )
            analytic = grad[0]
            numeric = central_difference(
                lambda zz: losses.alignment_loss(
                    variant, zz, [key[0]], [key[1]], store, reduction="sum"
                ).value,
                z, h,
            )
            err = relative_error(analytic, numeric)
            worst[variant] = max(worst[variant], err)
    return worst
