"""Dense matrix functions on small real matrices.

Symmetric eigendecomposition, SPD inverse square roots, spectral norm and the
matrix exponential, sized for coefficient matrices of modest order, and
norms over the short component axis of grid data.
"""

import numpy as np

from .errors import EigenFailure, NotPositiveDefinite

__all__ = [
    "symmetrize",
    "as_real_matrix",
    "sym_eigen",
    "spd_roots",
    "spectral_norm",
    "matrix_exp",
    "canonical_sign",
    "component_norms",
    "squared_norms",
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
    """Pick the one of {v, -v} whose first nonzero entry is positive
    (reproducible maximizers)."""
    v = np.asarray(vec, dtype=float) + 0.0  # drop negative zeros
    w = -v + 0.0
    return v if tuple(v) >= tuple(w) else w


def squared_norms(values) -> np.ndarray:
    """Sums of squares over the last axis, ((v_0^2 + v_1^2) + v_2^2) + ...,
    one elementwise pass per component (numpy reduces a short trailing axis
    element by element); of points - center, the squared distances."""
    values = np.asarray(values, dtype=float)
    total = np.square(values[..., 0])
    for k in range(1, values.shape[-1]):
        total += np.square(values[..., k])
    return total


def component_norms(values) -> np.ndarray:
    """Euclidean norms over the last axis, the roots of squared_norms: below
    eight components, ``np.linalg.norm(values, axis=-1)`` bit for bit."""
    total = squared_norms(values)
    return np.sqrt(total, out=total)


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
    """SPD inverse-root family of a stack of symmetric matrices, shape (K, n, n).

    Returns ``(eigenvalues, inv_sqrt, inv)``: the eigenvalues in descending
    order, shape (K, n), and ``V f(w) V^T`` for f = 1/sqrt and 1/x, each
    exactly symmetric. Raises NotPositiveDefinite (with
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
    # V diag(f(eig)) V^T for f = 1/sqrt and 1/x in one pass
    powers = np.stack([1.0 / np.sqrt(eig), 1.0 / eig])
    family = np.einsum("kij,skj,klj->skil", vec, powers, vec)
    inv_root, inv = 0.5 * (family + np.swapaxes(family, -1, -2))
    return eig, inv_root, inv


def spectral_norm(b):
    """Spectral norm of a real matrix.

    Returns ``(value, z)`` where ``value = max_{|z|=1} |B z|`` and ``z`` is a
    maximizing unit vector (sign-canonicalized).
    """
    b = as_real_matrix(b)
    _, s, vt = np.linalg.svd(b)
    return float(s[0]), canonical_sign(vt[0])


# [13/13] Pade coefficients b_0..b_13 and the theta_13 of Al-Mohy & Higham 2009
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 4.25


def _pade13(a):
    """exp of each matrix of a stack (K, m, m) by [13/13] Pade with scaling and
    squaring, the squarings chosen per matrix from the 1-norms of A^6, A^8 and
    A^10 (not of A, which overscales non-normal matrices)."""
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    d6, d8, d10 = (np.max(np.sum(np.abs(x), axis=1), axis=1) ** (1.0 / k)
                   for x, k in ((a6, 6), (a4 @ a4, 8), (a4 @ a6, 10)))
    with np.errstate(divide="ignore"):  # a nilpotent matrix has eta = 0
        eta = np.minimum(np.maximum(d6, d8), np.maximum(d8, d10))
        s = np.maximum(np.ceil(np.log2(eta / _THETA13)), 0.0).astype(int)
    a, a2, a4, a6 = (np.ldexp(x, -k * s[:, None, None])
                     for x, k in ((a, 1), (a2, 2), (a4, 4), (a6, 6)))
    eye = np.eye(a.shape[-1])
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    x = np.linalg.solve(v - u, v + u)
    for level in range(int(s.max())):
        square = s > level
        x[square] = x[square] @ x[square]
    return x


def matrix_exp(b) -> np.ndarray:
    """Matrix exponential of one square matrix or a stack, shape (..., m, m).

    A diagonal matrix gives diag(exp(diag)) (np.exp for m = 1), as
    ``scipy.linalg.expm`` does. Any other takes [13/13] Pade with scaling
    and squaring (``_pade13``). Each matrix of a stack is bit-identical to
    the same matrix alone.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim < 2 or b.shape[-1] != b.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("matrix entries must be finite")
    if b.shape[-1] == 1:
        return np.exp(b)
    flat = b.reshape((-1,) + b.shape[-2:])
    general = np.any(flat[:, ~np.eye(b.shape[-1], dtype=bool)] != 0.0, axis=1)
    out = np.zeros_like(flat)
    np.einsum("kii->ki", out)[~general] = np.exp(np.einsum("kii->ki", flat[~general]))
    if np.any(general):
        out[general] = _pade13(flat[general])
    return out.reshape(b.shape)
