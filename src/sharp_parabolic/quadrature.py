"""Quadrature rules: ``fejer_rule``, its composite form ``piecewise_rule``
(the rule of every source-time integral) and that rule's error bound
``piecewise_error`` from the Chebyshev tail of the values it sums; and
``adaptive_quadrature``, adaptive composite Gauss-Legendre (7-point panels
with an embedded 5-point estimate, bisected where the two disagree beyond
their share of the tolerance; scalar, vector and matrix integrands).
"""

import functools
from dataclasses import dataclass

import numpy as np

_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X5, _W5 = np.polynomial.legendre.leggauss(5)

DEFAULT_TOL = 1e-10


@functools.lru_cache(maxsize=64)
def _sines(K):
    """Read-only sin(j k pi / (K + 1)), j, k = 1..K: the DST-I of the K-node rule."""
    k = np.arange(1, K + 1)
    sines = np.sin(np.pi * (np.outer(k, k) % (2 * K + 2)) / (K + 1))
    sines.flags.writeable = False
    return sines


@functools.lru_cache(maxsize=64)
def fejer_rule(K, e=0.0):
    """Fejer's second rule on [0, 1] for integrands u^(-e) * smooth, e < 1:
    read-only (nodes, weights). The nodes sin^2(k pi / (2K + 2)), k = 1..K,
    ascending, are the zeros of U_K in x = 2u - 1; those of K are those of
    2K + 1 at [1::2], bit for bit. The weights integrate u^(-e) times the
    smooth factor's interpolant exactly, from the Chebyshev moments of
    (1 + x)^(-e) by QUADPACK ``dqmomo``'s forward recurrence (Piessens and
    Branders 1973); for e > 1/2 they alternate in sign.
    """
    a, k = -float(e), np.arange(1, K + 1)
    t = [2.0 ** (1.0 + a) / (1.0 + a)]  # t_j = int (1 + x)^a T_j(x) dx
    t.append(t[0] * a / (a + 2.0))
    for j in range(2, K):
        t.append(-(2.0 ** (1.0 + a) + j * (j - a - 2.0) * t[-1]) / ((j - 1.0) * (j + a + 1.0)))
    t = np.array(t[:K])
    u = np.empty(K)  # the same for U_j = 2 (T_j + T_(j-2) + ...), less T_0 for even j
    u[0::2], u[1::2] = 2.0 * np.cumsum(t[0::2]) - t[0], 2.0 * np.cumsum(t[1::2])
    sines = _sines(K)
    # interpolation in U_j at x = -cos(k pi / (K + 1)), where U_j(x) =
    # (-1)^j U_j(-x); 2^(e - 1) maps the weight (1 + x)^(-e) to u^(-e) on [0, 1]
    weights = 2.0**e / (K + 1) * sines[0] * (sines @ (u * (-1.0) ** np.arange(K)))
    nodes = np.sin(k * np.pi / (2 * K + 2)) ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def piecewise_rule(ends, nodes, e=0.0):
    """Fejer's second rule of ``nodes`` nodes on each piece of [0, ends[-1]]
    that ends at ``ends``: flat (points, weights). The first piece takes the
    product weights of u^(-e), u^e folded in; the others those of e = 0.
    """
    starts = np.append(0.0, ends[:-1])
    lengths = (ends - starts)[:, None]
    u, weights = fejer_rule(nodes)
    weights = lengths * weights
    weights[0] = lengths[0] * fejer_rule(nodes, e)[1] * u**e
    return (starts[:, None] + lengths * u).ravel(), weights.ravel()


def chebyshev_tail(values, e=0.0):
    """Error bound of ``fejer_rule(K, e)`` on u^(-e) * smooth per unit of
    int u^(-e), from smooth's values at its K nodes (axis 0; components in
    the 2-norm). A DST-I gives the interpolant's coefficients c_j in
    U_j(2u - 1); the rule is exact on it, and each c_j past K costs about
    m_j = |int u^(-e) U_j| / int u^(-e) plus, aliased to U_(2K - j), that m.
    From c, the larger of the last two, and r, their rate against the two
    before (at most 1 - 1/K), it is 13 c (max m_tail / (1 - r) + sum_j
    r^(K - j) m_j): tests/test_sharp.py needs at least 10 to run its
    strong-damping rows to rounding level and at most 17 to keep its
    honesty rows within 100 times their real error. A tail within K eps of
    the largest c is rounding: 0; one above 1e-3 of it resolves nothing: inf."""
    K, sines = len(values), _sines(len(values))
    coefs = np.linalg.norm(sines @ (sines[0][:, None] * np.reshape(values, (K, -1))), axis=1)
    tail, before, top = coefs[-2:].max(), coefs[-4:-2].max(), coefs.max()
    if tail <= K * np.finfo(float).eps * top:
        return 0.0
    if not tail <= 1e-3 * top:
        return np.inf
    moments = (1.0 - e) * np.abs(sines @ (fejer_rule(K, e)[1] / sines[0]))
    r = min(np.sqrt(tail / max(before, tail)), 1.0 - 1.0 / K)
    spread = moments[-2:].max() / (1.0 - r) + r ** np.arange(K, 0, -1) @ moments
    return float(13.0 * 2.0 / (K + 1) * tail * spread)  # 2 / (K + 1) scales the DST


def piecewise_error(ends, values, e=0.0):
    """Error bound of ``piecewise_rule(ends, K, e)`` on the integrand's
    ``values`` at its points (axis 0): each piece's ``chebyshev_tail`` (the
    first piece's values times u^e) times its integral of |u^(-e)|."""
    pieces = np.reshape(values, (len(ends), -1) + np.shape(values)[1:])
    u = fejer_rule(pieces.shape[1])[0].reshape((-1,) + (1,) * (pieces.ndim - 2))
    lengths = np.diff(ends, prepend=0.0)
    return (lengths[0] / (1.0 - e) * chebyshev_tail(pieces[0] * u**e, e)
            + sum(w * chebyshev_tail(p) for w, p in zip(lengths[1:], pieces[1:])))


@dataclass(frozen=True)
class QuadResult:
    """Integral value with an accumulated disagreement-based error estimate."""

    value: np.ndarray | float
    error: float
    panels: tuple  # (lo, hi) bounds of the accepted panels, in order


def _panel_estimates(f, lo, hi):
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    y7 = np.stack([np.asarray(f(c + h * x), dtype=float) for x in _X7])
    y5 = np.stack([np.asarray(f(c + h * x), dtype=float) for x in _X5])
    i7 = h * np.tensordot(_W7, y7, axes=1)
    i5 = h * np.tensordot(_W5, y5, axes=1)
    return i7, i5


def adaptive_quadrature(f, a, b, tol=DEFAULT_TOL, max_depth=60, max_panels=4096):
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    ``f`` may return a float or an ndarray; adaptivity keys on the largest
    componentwise disagreement. Panels are traversed left to right so the
    summation order (numpy pairwise reduction) is deterministic.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    width = b - a
    accepted = []  # (lo, hi, value, err)

    def recurse(lo, hi, depth):
        i7, i5 = _panel_estimates(f, lo, hi)
        err = float(np.max(np.abs(i7 - i5)))
        share = tol * (hi - lo) / width
        if err <= share or depth >= max_depth or len(accepted) >= max_panels:
            accepted.append((lo, hi, i7, err))
            return
        mid = 0.5 * (lo + hi)
        recurse(lo, mid, depth + 1)
        recurse(mid, hi, depth + 1)

    recurse(a, b, 0)
    value = np.add.reduce([v for _, _, v, _ in accepted])
    error = float(np.add.reduce([e for _, _, _, e in accepted]))
    if np.ndim(value) == 0:
        value = float(value)
    return QuadResult(value, error, tuple((lo, hi) for lo, hi, _, _ in accepted))

