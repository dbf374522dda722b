"""Time-dependent coefficient triples and their accumulated window integrals.

A coefficient set holds the diffusion matrix A(t), drift vector b(t) and
coupling matrix C(t) on [0, T]. Everything downstream depends on them only
through the window integrals ``int_F(t, tau) = integral of F over [tau, t]``
and the SPD/exponential functions derived from those.

Every preset integrates in closed form. A window is keyed by its end and
length ``(t, w)``, so callers that think in window lengths (the source-time
integrals, with ``w = sigma^2``) never round through ``tau = t - w``.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import matfun
from .errors import DomainError, InconclusiveEstimate, NotPositiveDefinite
from .quadrature import DEFAULT_TOL
from .quadrature import adaptive_quadrature  # noqa: F401  (wrapped by bench/tracer.py)

# Fraction of T below which a window (t - tau) counts as degenerate.
WINDOW_FLOOR = 1e-13
# Windows kept per CoefficientSet; the least recently used one is dropped.
WINDOW_CACHE_SIZE = 4096
# quad_error is this many units of roundoff of w * sup|F| over the window:
# it covers the few roundings of each closed form with a wide margin.
_ROUNDING_ULPS = 64

_SPD_PROBE_POINTS = 33
_LADDER_WINDOWS = 8


def _column(v, ndim):
    """Reshape a (K,) array to broadcast against (K, *shape) of rank ndim."""
    return np.reshape(v, v.shape + (1,) * (ndim - 1))


@dataclass(frozen=True)
class Constant:
    """Coefficient that does not depend on time."""

    value: np.ndarray

    is_constant = True

    def __call__(self, t):
        return self.value

    def span(self):
        return None

    def integral(self, t, w):
        """value * w over the windows [t - w, t]; arrays (K,) in, (K, *shape) out."""
        return _column(w, 1 + self.value.ndim) * self.value

    @cached_property
    def _sup(self):
        return float(np.max(np.abs(self.value)))

    def bound(self, t):
        """An upper bound of |entries| over [0, t]."""
        return self._sup


@dataclass(frozen=True)
class Affine:
    """Coefficient value0 + t * slope."""

    value0: np.ndarray
    slope: np.ndarray

    is_constant = False

    def __call__(self, t):
        return self.value0 + t * self.slope

    def span(self):
        return None

    def integral(self, t, w):
        """w * (value0 + slope * (t - w/2)) over the windows [t - w, t]."""
        ndim = 1 + self.value0.ndim
        mid = _column(t - 0.5 * w, ndim)
        return _column(w, ndim) * (self.value0 + mid * self.slope)

    @cached_property
    def _sups(self):
        return float(np.max(np.abs(self.value0))), float(np.max(np.abs(self.slope)))

    def bound(self, t):
        return self._sups[0] + t * self._sups[1]


def _taylor(c, h):
    """Taylor coefficients d_0..d_3 at u = h of the cubics sum_k c_k u^(3-k)."""
    c0, c1, c2, c3 = c
    return np.stack([
        ((c0 * h + c1) * h + c2) * h + c3,
        (3.0 * c0 * h + 2.0 * c1) * h + c2,
        3.0 * c0 * h + c1,
        c0,
    ])


def _left_integral(d, w):
    """Integral over [s - w, s] of the cubic with Taylor coefficients d at s.

    ``sum_j (-1)^j d_j w^(j+1) / (j+1)`` in Horner form: no antiderivative
    differences, so the relative error stays at roundoff for any w.
    """
    return w * (d[0] - w * (0.5 * d[1] - w * (d[2] / 3.0 - 0.25 * w * d[3])))


class Tabulated:
    """Coefficient given by samples, joined by monotone cubic interpolation."""

    is_constant = False

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise DomainError("tabulated preset needs at least two samples")
        if not np.all(np.diff(times) > 0):
            raise DomainError("tabulated sample times must be strictly increasing")
        if values.shape[0] != times.size:
            raise DomainError("tabulated times and values disagree in length")
        if not np.all(np.isfinite(values)):
            raise DomainError("tabulated values must be finite")
        self.times = times
        self.values = values
        self._interp = PchipInterpolator(times, values, axis=0)
        # per piece: the cubic's coefficients, highest power first, in
        # u = s - times[i]; its Taylor coefficients at the right end; its
        # whole integral; and a bound on its entries
        self._cubics = self._interp.c
        lengths = np.diff(times)
        col = _column(lengths, values.ndim)
        self._right = _taylor(self._cubics, col)
        self._whole = _left_integral(self._right, col)
        powers = col ** np.arange(3, -1, -1).reshape((4,) + (1,) * values.ndim)
        sup = float(np.max(np.sum(np.abs(self._cubics) * powers, axis=0)))
        # widened by the roundoff of summing up to every whole piece
        self._sup = sup * (1.0 + lengths.size / _ROUNDING_ULPS)

    def __call__(self, t):
        lo, hi = self.times[0], self.times[-1]
        if t < lo or t > hi:
            raise DomainError(
                f"tabulated samples cover [{lo:g}, {hi:g}], requested t={t:g}"
            )
        return self._interp(t)

    def span(self):
        return float(self.times[0]), float(self.times[-1])

    def integral(self, t, w):
        """Exact integrals of the interpolant over the windows [t - w, t].

        The piece containing t is expanded about t; a window reaching below
        that piece adds the whole pieces it covers and, expanded about its
        right end, the piece where it starts.
        """
        x = self.times
        ndim = self.values.ndim
        last = x.size - 2
        near = np.clip(np.searchsorted(x, t, side="left") - 1, 0, last)
        gap = t - x[near]  # t minus the sample time at or below it
        cross = w > gap
        # the piece holding t - w; a start rounded across a sample time
        # moves an ulp of the window between two pieces
        far = np.searchsorted(x, t - w, side="right") - 1
        far = np.where(cross, np.clip(far, 0, near - 1), near)

        d = _taylor(self._cubics[:, near], _column(gap, ndim))
        out = _left_integral(d, _column(np.where(cross, gap, w), ndim))
        if np.any(cross):
            rest = np.where(cross, w - (t - x[far + 1]), 0.0)
            out = out + _left_integral(self._right[:, far], _column(rest, ndim))
            for i, j in set(zip(far[cross].tolist(), near[cross].tolist())):
                if j > i + 1:
                    hit = cross & (far == i) & (near == j)
                    out[hit] = out[hit] + self._whole[i + 1:j].sum(axis=0)
        return out

    def bound(self, t):
        return self._sup


def _as_preset(raw, shape):
    """Wrap plain arrays in a Constant preset; validate the shape either way."""
    if isinstance(raw, (Constant, Affine, Tabulated)):
        probe = np.asarray(raw(raw.span()[0] if raw.span() else 0.0), dtype=float)
        if probe.shape != shape:
            raise DomainError(f"preset has shape {probe.shape}, expected {shape}")
        return raw
    value = np.asarray(raw, dtype=float)
    if value.shape != shape:
        raise DomainError(f"coefficient has shape {value.shape}, expected {shape}")
    return Constant(value)


@dataclass(frozen=True)
class AccumulatedIntegrals:
    """Window integrals of (A, b, C) over [tau, t] and their derived functions.

    ``ia``/``ib``/``ic`` are the entrywise integrals; the remaining fields are
    the SPD square-root family of ``ia`` and the exponentials of ``ic`` and
    its transpose that the kernels and sharp constants are built from.
    ``quad_error`` bounds the rounding error of the closed-form integrals.
    """

    tau: float
    t: float
    ia: np.ndarray
    ib: np.ndarray
    ic: np.ndarray
    ia_sqrt: np.ndarray
    ia_inv_sqrt: np.ndarray
    ia_inv: np.ndarray
    ia_eigenvalues: np.ndarray  # descending
    det_ia_sqrt: float
    exp_ic: np.ndarray
    exp_ic_star: np.ndarray
    quad_error: float

    @property
    def n(self):
        return self.ia.shape[0]

    @property
    def log_gauss_norm(self):
        """log of the kernel normalization (2 sqrt(pi))^n * det ia_sqrt."""
        return self.n * np.log(2.0 * np.sqrt(np.pi)) + np.log(self.det_ia_sqrt)


@dataclass(frozen=True)
class CoefficientSet:
    """The triple (A(t), b(t), C(t)) on [0, T] for an n-dim, m-component system."""

    n: int
    m: int
    T: float
    A: object
    b: object
    C: object
    _cache: OrderedDict = field(default_factory=OrderedDict, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DomainError("dimensions n and m must be >= 1")
        if not self.T > 0:
            raise DomainError("final time T must be positive")
        for preset, name, lo_hi in (
            (self.A, "A", None),
            (self.b, "b", None),
            (self.C, "C", None),
        ):
            span = preset.span()
            if span is not None and (span[0] > 0.0 or span[1] < self.T):
                raise DomainError(
                    f"tabulated samples for {name} cover [{span[0]:g}, {span[1]:g}] "
                    f"but must cover [0, {self.T:g}]"
                )
        for t in _spd_check_times(self.A, self.T):
            a = matfun.symmetrize(self.A(t))
            w = np.linalg.eigvalsh(a)
            if w[0] <= 0.0:
                raise NotPositiveDefinite(
                    w[0], 0.0, f"A({t:g}) is not positive definite"
                )

    def accumulated(self, tau, t, tol=DEFAULT_TOL) -> AccumulatedIntegrals:
        """Cached window integrals for [tau, t], keyed by (t, t - tau).

        ``tol`` is accepted for compatibility and ignored: windows are exact.
        """
        return self.window(t, window_length(self, tau, t))

    def window(self, t, w) -> AccumulatedIntegrals:
        """Cached window integrals for [t - w, t]."""
        return self.windows(t, (w,))[0]

    def windows(self, t, w) -> list:
        """Cached window integrals for [t - w, t], one per entry of ``w``.

        ``t`` is a scalar or matches ``w``. Windows not in the cache are
        computed in one batched call of integrate_windows.
        """
        w = np.asarray(w, dtype=float).reshape(-1)
        t = np.broadcast_to(np.asarray(t, dtype=float), w.shape)
        keys = list(zip(t.tolist(), w.tolist()))
        with self._lock:
            found = {k: self._cache[k] for k in keys if k in self._cache}
            for k in found:
                self._cache.move_to_end(k)
        missing = list(dict.fromkeys(k for k in keys if k not in found))
        if missing:
            mt, mw = np.array(missing).T
            computed = integrate_windows(self, mt, mw)
            with self._lock:
                for k, acc in zip(missing, computed):
                    found[k] = self._cache.setdefault(k, acc)
                    self._cache.move_to_end(k)
                while len(self._cache) > WINDOW_CACHE_SIZE:
                    self._cache.popitem(last=False)
        return [found[k] for k in keys]


def _spd_check_times(A, T):
    """Times at which A(t) is checked to be SPD at construction.

    Constant A once. Affine A at both ends: the smallest eigenvalue of an
    affine symmetric family is concave in t, so the ends decide [0, T].
    Tabulated A at the probe grid and at every sample time in [0, T].
    """
    if A.is_constant:
        return [0.0]
    if isinstance(A, Affine):
        return [0.0, T]
    samples = A.times[(A.times >= 0.0) & (A.times <= T)]
    return np.union1d(np.linspace(0.0, T, _SPD_PROBE_POINTS), samples)


def coefficient_set(n=1, m=1, T=1.0, A=None, b=None, C=None) -> CoefficientSet:
    """Build a CoefficientSet, wrapping plain values in constant presets.

    ``A`` defaults to the identity, ``b`` and ``C`` to zero. Scalars are
    accepted for A and C and are placed on the diagonal / as 1x1 blocks.
    """
    if A is None:
        A = np.eye(n)
    if b is None:
        b = np.zeros(n)
    if C is None:
        C = np.zeros((m, m))
    if np.isscalar(A):
        A = float(A) * np.eye(n)
    if np.isscalar(C):
        C = np.array([[float(C)]]) if m == 1 else float(C) * np.eye(m)
    if np.isscalar(b):
        b = np.full(n, float(b))
    A = _as_preset(A, (n, n))
    b = _as_preset(b, (n,))
    C = _as_preset(C, (m, m))
    return CoefficientSet(n=n, m=m, T=float(T), A=A, b=b, C=C)


def window_length(cs, tau, t) -> float:
    """t - tau for a window [tau, t], raising DomainError unless 0 <= tau < t <= T."""
    tau = float(tau)
    t = float(t)
    if tau < 0.0 or t > cs.T or not tau < t:
        raise DomainError(f"window [{tau:g}, {t:g}] must satisfy 0 <= tau < t <= T")
    return t - tau


def integrate_coefficients(cs, tau, t, tol=DEFAULT_TOL) -> AccumulatedIntegrals:
    """Closed-form window integrals of (A, b, C) over [tau, t].

    ``tol`` is accepted for compatibility and ignored. Raises the errors of
    integrate_windows, and DomainError unless 0 <= tau < t <= T.
    """
    return integrate_windows(cs, float(t), [window_length(cs, tau, t)])[0]


def integrate_windows(cs, t, w) -> list:
    """Closed-form window integrals of (A, b, C) over [t - w, t], batched.

    ``w`` is a sequence of window lengths and ``t`` a scalar or one end per
    window. Every window of a batch is bit-identical to the same window
    computed alone. Raises NotPositiveDefinite when an accumulated diffusion
    integral is degenerate and DomainError when a window is not inside
    [0, T] or is shorter than the window floor.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    t = np.array(np.broadcast_to(np.asarray(t, dtype=float), w.shape))
    floor = WINDOW_FLOOR * cs.T
    bad = ~((t > 0.0) & (t <= cs.T) & (w <= t) & (w >= floor))
    if np.any(bad):
        k = int(np.argmax(bad))
        if 0.0 < t[k] <= cs.T and w[k] < floor:
            raise DomainError(f"window {w[k]:g} is below the degeneracy floor {floor:g}")
        raise DomainError(
            f"window of length {w[k]:g} ending at t={t[k]:g} must lie in [0, {cs.T:g}]"
        )

    ia = cs.A.integral(t, w)
    ia = 0.5 * (ia + np.swapaxes(ia, -1, -2))
    ib = cs.b.integral(t, w)
    ic = cs.C.integral(t, w)
    scale = np.maximum(np.maximum(cs.A.bound(t), cs.b.bound(t)), cs.C.bound(t))
    quad_err = _ROUNDING_ULPS * np.finfo(float).eps * w * scale

    eig, ia_sqrt, ia_inv_sqrt, ia_inv = matfun.spd_roots(
        ia, "accumulated A integral is degenerate"
    )
    det = np.prod(np.sqrt(eig), axis=1)
    exp_ic = matfun.matrix_exp(ic)
    # copies, so that a cached window does not keep its whole batch alive
    return [
        AccumulatedIntegrals(
            tau=float(t[k] - w[k]),
            t=float(t[k]),
            ia=ia[k].copy(),
            ib=ib[k].copy(),
            ic=ic[k].copy(),
            ia_sqrt=ia_sqrt[k].copy(),
            ia_inv_sqrt=ia_inv_sqrt[k].copy(),
            ia_inv=ia_inv[k].copy(),
            ia_eigenvalues=eig[k].copy(),
            det_ia_sqrt=float(det[k]),
            exp_ic=exp_ic[k].copy(),
            exp_ic_star=exp_ic[k].T.copy(),
            quad_error=float(quad_err[k]),
        )
        for k in range(w.size)
    ]


def window_scaling_exponents(cs, t, tol=DEFAULT_TOL):
    """Power-law exponents of the kernel ingredients as the window shrinks.

    Returns ``(kernel_exponent, gradient_exponent)`` such that, as tau -> t,
    ``det ia_sqrt(t, tau) ~ (t - tau)^kernel_exponent`` and
    ``|ia_inv_sqrt(t, tau)| ~ (t - tau)^(-gradient_exponent)``.

    Exact (n/2, 1/2) for constant A; otherwise a log-log least-squares fit
    over a geometric ladder of windows, raising InconclusiveEstimate when the
    fit does not look like a power law.
    """
    if cs.A.is_constant:
        return 0.5 * cs.n, 0.5
    t = float(t)
    if not 0.0 < t <= cs.T:
        raise DomainError(f"t={t:g} outside (0, T]")
    widths = t * 2.0 ** -(np.arange(_LADDER_WINDOWS) + 3.0)
    log_det = []
    log_grad = []
    for acc in cs.windows(t, widths):
        norm_inv_sqrt = 1.0 / np.sqrt(acc.ia_eigenvalues[-1])
        log_det.append(np.log(acc.det_ia_sqrt))
        log_grad.append(np.log(norm_inv_sqrt))
    log_h = np.log(widths)
    design = np.stack([log_h, np.ones_like(log_h)], axis=1)
    (k_slope, _), res_k, _, _ = np.linalg.lstsq(design, np.asarray(log_det), rcond=None)
    (g_slope, _), res_g, _, _ = np.linalg.lstsq(design, np.asarray(log_grad), rcond=None)
    misfit = max(float(res_k[0]) if res_k.size else 0.0,
                 float(res_g[0]) if res_g.size else 0.0)
    if not np.isfinite(k_slope) or not np.isfinite(g_slope) or misfit > 1e-2:
        raise InconclusiveEstimate(
            f"log-log fit residual {misfit:.3g}; scaling exponents unreliable"
        )
    return float(k_slope), float(-g_slope)


def commutation_defect(cs, t, tol=DEFAULT_TOL) -> float:
    """Spectral norm of C(t) int_C(t,0) - int_C(t,0) C(t).

    Zero when C commutes with its own running integral (constant C, or
    mutually commuting values), which is when the exponential-substitution
    form of the kernels is classically valid.
    """
    acc = cs.accumulated(0.0, t, tol)
    c = np.asarray(cs.C(t), dtype=float)
    defect = c @ acc.ic - acc.ic @ c
    value, _ = matfun.spectral_norm(defect)
    return value
