"""The gradient check evaluates all central differences of an instance in
one batched kernel call. That is an exact oracle only if no row of the batch
sees another: each row must give what it gives alone."""

import numpy as np
import pytest

from boda import gradcheck, losses
from boda.gradcheck import (batched_gradients, central_difference,
                            random_instance, relative_error)
from boda.numerics import make_rng

H = 1e-5


def spy_batches(monkeypatch):
    """Record the arguments of every ``alignment_grad`` call."""
    calls, real = [], losses.alignment_grad

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(losses, "alignment_grad", spy)
    return calls, real


@pytest.mark.parametrize("variant", sorted(losses.VARIANTS))
def test_batch_rows_equal_rows_alone(monkeypatch, variant):
    calls, real = spy_batches(monkeypatch)
    rng = make_rng(7)
    for _ in range(300):
        store, z, key = random_instance(rng)
        calls.clear()
        batched_gradients(variant, store, z, key, H)
        assert len(calls) == 1
        (_, zs, doms, labs, _), kwargs = calls[0]
        dim = z.size
        assert zs.shape == (2 * dim + 1, dim)
        assert np.array_equal(zs[0], z)
        for i in range(dim):
            up, down = z.copy(), z.copy()
            up[i], down[i] = z[i] + H, z[i] - H
            assert np.array_equal(zs[2 * i + 1], up)
            assert np.array_equal(zs[2 * i + 2], down)
        batch, grads = real(variant, zs, doms, labs, store, **kwargs)
        for r, row in enumerate(zs):
            alone, grad = real(variant, row, [key[0]], [key[1]], store,
                               reduction="sum")
            assert abs(batch.per_sample[r] - alone.value) \
                <= 1e-13 * abs(alone.value)
            assert np.abs(grads[r] - grad[0]).max() \
                <= 1e-13 * np.abs(grad[0]).max()


@pytest.mark.parametrize("variant", sorted(losses.VARIANTS))
def test_numeric_vector_matches_central_difference(variant):
    rng = make_rng(8)
    for _ in range(50):
        store, z, key = random_instance(rng)
        analytic, numeric = batched_gradients(variant, store, z, key, H)
        oracle = central_difference(
            lambda zz: losses.alignment_loss(variant, zz, [key[0]], [key[1]],
                                             store, reduction="sum").value,
            z, H)
        assert relative_error(numeric, oracle) <= 1e-6
        assert relative_error(analytic, numeric) <= 1e-4


def test_run_gradcheck_one_kernel_call_per_variant_and_instance(monkeypatch):
    calls, _ = spy_batches(monkeypatch)
    worst = gradcheck.run_gradcheck(seed=3, n_instances=5)
    assert len(calls) == 5 * len(losses.VARIANTS)
    assert set(worst) == set(losses.VARIANTS)
