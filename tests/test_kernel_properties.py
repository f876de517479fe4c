"""Property tests of the distance and alignment kernels near centroids.

Samples sit at ``mu_j + delta`` with ``|delta|`` on a log grid from 0 to 1,
the regime where an expanded-form distance cancels. Every oracle here uses
exact differences ``z - mu_j``, one destination at a time; grids of 2..4
domains and 2..6 classes hold singleton and missing pairs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from boda import losses
from boda.losses import alignment_grad
from boda.numerics import inverse_shrunk, make_rng
from boda.stats import distances

from conftest import stats_of

PROFILE = settings(derandomize=True, max_examples=200, deadline=None)
DELTAS = np.concatenate([[0.0], 10.0 ** np.arange(-12, 1)])

cases = st.fixed_dictionaries({
    "num_domains": st.integers(2, 4),
    "num_classes": st.integers(2, 6),
    "dim": st.integers(1, 24),
    "n": st.integers(1, 64),
    "seed": st.integers(0, 2 ** 32 - 1),
})
variants = st.sampled_from(list(losses.VARIANTS))
nus = st.sampled_from([0.0, 0.5, 1.0, 1.5])
reductions = st.sampled_from(["mean", "sum"])


def near_batch(case, own):
    """``(z, domains, labels, store)``: a store over a grid whose pairs hold
    0 (missing), 1 (singleton) or up to 6 rows, and ``n`` samples of its
    pairs, each at ``mu_j + delta``, where ``j`` is the sample's own pair
    when ``own`` and any pair otherwise."""
    rng = make_rng(case["seed"])
    d, c, h = case["num_domains"], case["num_classes"], case["dim"]
    counts = rng.choice([0, 1, 1, 2, 3, 6], size=(d, c))
    counts[0, 0] = counts[1, 0] = max(counts[0, 0], 1)
    centers = 3.0 * rng.standard_normal((d, c, h))
    groups = {(i, k): centers[i, k] + rng.standard_normal((counts[i, k], h))
              for i in range(d) for k in range(c) if counts[i, k]}
    store = stats_of(groups)
    src = rng.integers(0, len(store), case["n"])
    dst = src if own else rng.integers(0, len(store), case["n"])
    direction = rng.standard_normal((case["n"], h))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    z = store.mu[dst] + rng.choice(DELTAS, (case["n"], 1)) * direction
    return z, store.key_domain[src], store.key_class[src], store


def distance_oracle(z, store, metric):
    out = np.empty((len(z), len(store)))
    for j, mu in enumerate(store.mu):
        diff = z - mu
        if metric == "euclidean":
            out[:, j] = np.sqrt(np.square(diff).sum(axis=1))
        else:
            a = inverse_shrunk(store.sigma[j])
            out[:, j] = np.sqrt(np.maximum(
                np.einsum("nh,hk,nk->n", diff, a, diff), 0.0))
    return out


def align_oracle(variant, z, domains, labels, store, nu, reduction):
    """``(per_sample, row_scale, grad, grad_scale)`` one sample and one
    destination at a time: ``per_sample`` is NaN without a cross-domain
    positive, ``row_scale`` the largest scaled distance of the sample's
    row and ``grad_scale`` the largest entry of the summed absolute terms
    that the library's gradient adds: ``c_j z`` and ``c_j mu_j``
    (Euclidean, whose gradient is ``z sum(c) - c @ mu``) or ``c_j (z - mu_j)
    A_j`` (Mahalanobis)."""
    balanced, calibrated, metric = losses.VARIANTS[variant]
    dist = distance_oracle(z, store, metric)
    inverses = [inverse_shrunk(s) for s in store.sigma]
    keys = store.keys()
    per_sample = np.full(len(z), np.nan)
    scale = np.zeros(len(z))
    grad = np.zeros_like(z)
    magnitude = np.zeros_like(z)
    for i, key in enumerate(zip(domains.tolist(), labels.tolist())):
        own = keys.index(key)
        n_src = store.counts[own]
        w = np.ones(len(keys))
        if balanced:
            w /= n_src
        if calibrated:
            w *= (store.counts / n_src) ** nu
        s = w * dist[i]
        scale[i] = s.max()
        others = [j for j in range(len(keys)) if j != own]
        pos = [j for j in others
               if keys[j][1] == key[1] and keys[j][0] != key[0]]
        if not pos:
            continue
        shift = max(-s[j] for j in others)
        terms = {j: math.exp(-s[j] - shift) for j in others}
        denom = math.fsum(terms.values())
        per_sample[i] = math.fsum(s[j] for j in pos) / len(pos) \
            + shift + math.log(denom)
        for j in others:
            dloss = w[j] * ((j in pos) / len(pos) - terms[j] / denom)
            step = z[i] - store.mu[j]
            if metric == "mahalanobis":
                step = step @ inverses[j]
            coeff = dloss / max(dist[i, j], 1e-12)
            grad[i] += coeff * step
            magnitude[i] += abs(coeff) * (
                np.abs(step) if metric == "mahalanobis"
                else np.abs(z[i]) + np.abs(store.mu[j]))
    if reduction == "mean":
        grad /= max(int(np.sum(~np.isnan(per_sample))), 1)
        magnitude /= max(int(np.sum(~np.isnan(per_sample))), 1)
    return per_sample, scale, grad, magnitude.max()


@PROFILE
@given(case=cases, own=st.booleans())
def test_distances_match_exact_differences(case, own):
    z, _, _, store = near_batch(case, own)
    got = distances(z, store)
    want = distance_oracle(z, store, "euclidean")
    tol = 1e-13 * want + 1e-13 * want.max(axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= tol)


@PROFILE
@given(case=cases, variant=variants, nu=nus, reduction=reductions)
def test_loss_and_gradient_match_oracle(case, variant, nu, reduction):
    # Near its own centroid a sample's gradient has no term from that
    # centroid, so the split Euclidean gradient does not cancel.
    z, domains, labels, store = near_batch(case, own=True)
    result, grad = alignment_grad(variant, z, domains, labels, store, nu=nu,
                                  reduction=reduction)
    per_sample, scale, want, grad_scale = align_oracle(variant, z, domains, labels, store,
                                           nu, reduction)
    np.testing.assert_array_equal(np.isnan(result.per_sample),
                                  np.isnan(per_sample))
    ok = ~np.isnan(per_sample)
    # A loss is a difference of scaled distances: their size bounds its error.
    assert np.all(np.abs(result.per_sample[ok] - per_sample[ok])
                  <= 1e-12 * (np.abs(per_sample[ok]) + scale[ok]))
    total = per_sample[ok].sum()
    if reduction == "mean" and ok.any():
        total /= ok.sum()
    assert abs(result.value - total) \
        <= 1e-12 * (abs(total) + scale[ok].sum())
    # Where the terms cancel, their size stands in for the gradient's.
    np.testing.assert_allclose(grad, want, rtol=0.0, atol=1e-12 * grad_scale)


@PROFILE
@given(case=cases, variant=variants, nu=nus, reduction=reductions)
def test_rows_follow_a_permutation(case, variant, nu, reduction):
    z, domains, labels, store = near_batch(case, own=True)
    perm = make_rng(case["seed"], stream=1).permutation(len(z))
    kwargs = dict(nu=nu, reduction=reduction)
    whole, grad = alignment_grad(variant, z, domains, labels, store, **kwargs)
    moved, grad_p = alignment_grad(variant, z[perm], domains[perm],
                                   labels[perm], store, **kwargs)
    np.testing.assert_allclose(moved.per_sample, whole.per_sample[perm],
                               rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(grad_p, grad[perm], rtol=1e-13,
                               atol=1e-13 * np.abs(grad).max())
    for r in range(min(len(z), 4)):
        alone, _ = alignment_grad(variant, z[r:r + 1], domains[r:r + 1],
                                  labels[r:r + 1], store, nu=nu,
                                  reduction="sum")
        np.testing.assert_allclose(alone.per_sample, whole.per_sample[r:r + 1],
                                   rtol=1e-13, atol=0.0)
