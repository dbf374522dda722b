"""Quadrature rules: ``fejer_rule`` and its composite form
``piecewise_rule``, the nested rule of every source-time integral, and
``adaptive_quadrature``, adaptive composite Gauss-Legendre
(7-point panels with an embedded 5-point estimate; panels bisect where the
two rules disagree beyond their share of the tolerance; scalar, vector and
matrix valued integrands).
"""

import functools
from dataclasses import dataclass

import numpy as np

_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X5, _W5 = np.polynomial.legendre.leggauss(5)

DEFAULT_TOL = 1e-10


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
    sines = np.sin(np.pi * (np.outer(k, k) % (2 * K + 2)) / (K + 1))  # sin(j k pi / (K + 1))
    # interpolation in U_j at x = -cos(k pi / (K + 1)), where U_j(x) =
    # (-1)^j U_j(-x); 2^(e - 1) maps the weight (1 + x)^(-e) to u^(-e) on [0, 1]
    weights = 2.0**e / (K + 1) * sines[0] * (sines @ (u * (-1.0) ** np.arange(K)))
    nodes = np.sin(k * np.pi / (2 * K + 2)) ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def piecewise_rule(ends, nodes, e=0.0):
    """Fejer's second rule of ``nodes`` nodes (odd) on each piece of [0,
    ends[-1]] that ends at ``ends``: flat (points, weights, nested).

    The first piece takes the product weights of u^(-e), u^e folded in; the
    others those of e = 0. ``nested`` holds the weights of the nodes // 2
    rule, which sits on every other node ([1::2] of a piece), 0 elsewhere.
    """
    starts = np.append(0.0, ends[:-1])
    lengths = (ends - starts)[:, None]
    u = fejer_rule(nodes)[0]

    def rule(size, on):  # weights of the size-node rule on the nodes u[on]
        weights = np.zeros((len(ends), nodes))
        weights[:, on] = lengths * fejer_rule(size)[1]
        weights[0, on] = lengths[0] * fejer_rule(size, e)[1] * u[on] ** e
        return weights.ravel()

    points = (starts[:, None] + lengths * u).ravel()
    return points, rule(nodes, slice(None)), rule(nodes // 2, slice(1, None, 2))


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

