"""Dense symmetric linear algebra and deterministic randomness.

Everything here is dense float64 work: covariances of learned
representations and dissimilarity matrices over domain-class pairs. The
symmetric eigensolver is LAPACK's ``eigh`` (through numpy) with no size
cap.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Upper bound on the float64 elements of one blocked distance temporary
# (8 MB), so N x K x h passes never materialise at full size.
BLOCK_ELEMS = 1 << 20


def _as_square_float(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains non-finite entries")
    return m


def check_symmetric(m, tol: float = 1e-8) -> np.ndarray:
    """Validate symmetry within ``tol`` and return the symmetrized matrix."""
    m = _as_square_float(m)
    scale = 1.0 + float(np.abs(m).max(initial=0.0))
    if float(np.abs(m - m.T).max(initial=0.0)) > tol * scale:
        raise ValidationError("matrix is not symmetric within tolerance")
    return 0.5 * (m + m.T)


def sym_eig(m, tol: float = 1e-8):
    """Eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Parameters
    ----------
    m : (n, n) array_like
        Symmetric matrix, any size.
    tol : float
        Symmetry validation tolerance (relative to the largest entry).

    Returns
    -------
    eigenvalues : (n,) ndarray
        Sorted in descending order; ties keep LAPACK's order.
    eigenvectors : (n, n) ndarray
        Orthonormal, column k pairs with eigenvalue k. Each column is
        signed so that its largest-magnitude entry (the first, on ties) is
        positive, which makes the decomposition deterministic.
    """
    evals, evecs = np.linalg.eigh(check_symmetric(m, tol))
    order = np.argsort(-evals, kind="stable")
    evals, evecs = evals[order], evecs[:, order]
    lead = evecs[np.abs(evecs).argmax(axis=0), np.arange(evecs.shape[1])]
    evecs *= np.where(lead < 0, -1.0, 1.0)
    return evals, evecs


def inverse_shrunk(sigma, eps_rel: float = 1e-3) -> np.ndarray:
    """Inverse of a covariance after diagonal shrinkage.

    Returns ``(sigma + eps * I)^-1`` with ``eps = eps_rel * trace / dim
    + 1e-9``, which is symmetric positive definite even for rank-deficient
    input (minority pairs often have fewer samples than dimensions).
    """
    sigma = check_symmetric(sigma, 1e-8)
    if eps_rel < 0:
        raise ValidationError("eps_rel must be nonnegative")
    dim = sigma.shape[0]
    eps = eps_rel * float(np.trace(sigma)) / dim + 1e-9
    shrunk = sigma + eps * np.eye(dim)
    inv = np.linalg.inv(shrunk)
    return 0.5 * (inv + inv.T)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic counter-based generator.

    The Philox bit generator produces the same stream for the same
    ``(seed, stream)`` key on every platform; distinct streams are
    statistically independent, so parallel workers can each own one. The
    seed is taken modulo 2**64, so each seed in [-2**63, 2**63) has its own
    key.
    """
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, int(stream)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
