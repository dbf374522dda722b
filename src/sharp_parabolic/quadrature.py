"""Adaptive composite Gauss-Legendre quadrature.

7-point panels with an embedded 5-point estimate; panels bisect where the
two rules disagree beyond their share of the tolerance. Works for scalar,
vector and matrix valued integrands.
"""

from dataclasses import dataclass

import numpy as np

_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X5, _W5 = np.polynomial.legendre.leggauss(5)

DEFAULT_TOL = 1e-10


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

