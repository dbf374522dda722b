"""Dense matrix functions on small real matrices.

Symmetric eigendecomposition, SPD square roots, spectral norm and the
matrix exponential, sized for coefficient matrices of modest order.
"""

import numpy as np
import scipy.linalg

from .errors import EigenFailure, NotPositiveDefinite

__all__ = [
    "symmetrize",
    "as_real_matrix",
    "sym_eigen",
    "spd_roots",
    "spd_sqrt",
    "spd_inv_sqrt",
    "spectral_norm",
    "matrix_exp",
    "canonical_sign",
]

MAX_ORDER = 64


def symmetrize(entries) -> np.ndarray:
    """Return the exactly symmetric part 0.5*(M + M^T) as a float array."""
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return 0.5 * (m + m.T)


def as_real_matrix(entries) -> np.ndarray:
    """Validate a finite real matrix and return it as a float array."""
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def canonical_sign(vec) -> np.ndarray:
    """Pick the lexicographically smaller of {v, -v} (reproducible maximizers)."""
    v = np.asarray(vec, dtype=float) + 0.0  # drop negative zeros
    w = -v + 0.0
    return v if tuple(v) <= tuple(w) else w


def sym_eigen(m):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(w, V)`` with eigenvalues sorted in descending order and
    orthonormal eigenvector columns such that ``M = V @ diag(w) @ V.T``.
    """
    m = symmetrize(m)
    if m.shape[0] > MAX_ORDER:
        raise ValueError(f"matrix order {m.shape[0]} exceeds supported {MAX_ORDER}")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        off = m - np.diag(np.diag(m))
        raise EigenFailure(np.max(np.abs(off))) from exc
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def spd_roots(m, message=None):
    """SPD root family of a stack of symmetric matrices, shape (K, n, n).

    Returns ``(eigenvalues, sqrt, inv_sqrt, inv)``: the eigenvalues in
    descending order, shape (K, n), and ``V f(w) V^T`` for f = sqrt, 1/sqrt
    and 1/x, each exactly symmetric. Raises NotPositiveDefinite (with
    ``message``, if given) when a smallest eigenvalue is at or below
    1e-12 * max(1, largest eigenvalue).
    """
    try:
        eig, vec = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(np.max(np.abs(np.tril(m, -1)))) from exc
    eig = eig[:, ::-1]
    vec = vec[:, :, ::-1]
    floors = 1e-12 * np.maximum(1.0, np.abs(eig[:, 0]))
    if np.any(eig[:, -1] <= floors):
        k = int(np.argmax(eig[:, -1] <= floors))
        raise NotPositiveDefinite(eig[k, -1], floors[k], message)
    sqrt_eig = np.sqrt(eig)
    # V diag(f(eig)) V^T for f = sqrt, 1/sqrt and 1/x in one pass
    powers = np.stack([sqrt_eig, 1.0 / sqrt_eig, 1.0 / eig])
    family = np.einsum("kij,skj,klj->skil", vec, powers, vec)
    root, inv_root, inv = 0.5 * (family + np.swapaxes(family, -1, -2))
    return eig, root, inv_root, inv


def spd_sqrt(m) -> np.ndarray:
    """Symmetric positive definite square root of an SPD matrix."""
    return spd_roots(symmetrize(m)[None])[1][0]


def spd_inv_sqrt(m) -> np.ndarray:
    """Inverse of the SPD square root of an SPD matrix."""
    return spd_roots(symmetrize(m)[None])[2][0]


def spectral_norm(b):
    """Spectral norm of a real matrix.

    Returns ``(value, z)`` where ``value = max_{|z|=1} |B z|`` and ``z`` is a
    maximizing unit vector (sign-canonicalized).
    """
    b = as_real_matrix(b)
    _, s, vt = np.linalg.svd(b)
    return float(s[0]), canonical_sign(vt[0])


def matrix_exp(b) -> np.ndarray:
    """Matrix exponential (scipy's Pade scaling and squaring, Al-Mohy & Higham 2009).

    Accepts one square matrix or a stack of them, shape (..., m, m).
    """
    b = np.asarray(b, dtype=float)
    if b.ndim < 2 or b.shape[-1] != b.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("matrix entries must be finite")
    return scipy.linalg.expm(b)
