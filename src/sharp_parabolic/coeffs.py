"""Time-dependent coefficient triples and their accumulated window integrals.

A coefficient set holds the diffusion matrix A(t), drift vector b(t) and
coupling matrix C(t) on [0, T]. Everything downstream depends on them only
through the window integrals ``int_F(t, tau) = integral of F over [tau, t]``
and the SPD/exponential functions derived from those.

Every preset integrates in closed form. A window is keyed by its end and
length ``(t, w)``, so callers that think in window lengths (the source-time
integrals, with ``w = sigma^2``) never round through ``tau = t - w``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matfun
from .errors import DomainError, NotPositiveDefinite
from .quadrature import adaptive_quadrature  # noqa: F401  (wrapped by bench/tracer.py)

# Fraction of T below which a window (t - tau) counts as degenerate.
WINDOW_FLOOR = 1e-13
# quad_error is this many units of roundoff of w * sup|F| over the window:
# it covers the few roundings of each closed form with a wide margin.
_ROUNDING_ULPS = 64
# A pencil eigenvalue u of a piece of length h counts as real when
# |Im u| <= _REAL_ROOT_TOL * h.
_REAL_ROOT_TOL = 1e-8


def _column(v, ndim):
    """Reshape a (K,) array to broadcast against (K, *shape) of rank ndim."""
    return np.reshape(v, v.shape + (1,) * (ndim - 1))


@dataclass(frozen=True)
class Constant:
    """Coefficient that does not depend on time."""

    value: np.ndarray

    def __call__(self, t):
        return self.value

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

    def __call__(self, t):
        return self.value0 + t * self.slope

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


def _sorted_unique(values):
    """np.unique without the numpy.ma import of numpy's set functions."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])]


def _pchip_end(h0, h1, m0, m1):
    """Moler's one-sided three-point end derivative, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    keep = np.sign(d) == np.sign(m0)
    overshoot = keep & (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(overshoot, 3.0 * m0, np.where(keep, d, 0.0))


def _pchip_cubics(h, values):
    """PCHIP coefficients per piece, highest power first, in u = s - times[i],
    by the formulas of scipy's ``PchipInterpolator(times, values, axis=0).c``
    operation for operation (Fritsch-Carlson weighted harmonic mean inside,
    the secant for two samples), so they are bit-identical. ``h`` holds the
    piece lengths shaped to broadcast against ``values``."""
    slope = np.diff(values, axis=0) / h
    if values.shape[0] == 2:
        d = np.concatenate([slope, slope])
    else:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = (np.sign(slope[1:]) != np.sign(slope[:-1])) | (slope[1:] == 0) | (slope[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = 1.0 / ((w1 / slope[:-1] + w2 / slope[1:]) / (w1 + w2))
        d = np.concatenate([[_pchip_end(h[0], h[1], slope[0], slope[1])],
                            np.where(flat, 0.0, inner),
                            [_pchip_end(h[-1], h[-2], slope[-1], slope[-2])]])
    t = (d[:-1] + d[1:] - 2 * slope) / h
    return np.stack([t / h, (slope - d[:-1]) / h - t, d[:-1], values[:-1]])


class Tabulated:
    """Coefficient given by samples, joined by monotone cubic interpolation."""

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
        # per piece: the cubic's coefficients, highest power first, in
        # u = s - times[i]; its Taylor coefficients at the right end; its
        # whole integral; and a bound on its entries
        lengths = np.diff(times)
        col = _column(lengths, values.ndim)
        self._cubics = _pchip_cubics(col, values)
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
        # as scipy's PPoly: the piece x_i <= t < x_(i+1) (the last for t = hi)
        i = min(int(np.searchsorted(self.times, t, side="right")) - 1, self.times.size - 2)
        u = t - self.times[i]
        c0, c1, c2, c3 = self._cubics[:, i]
        return ((c3 + c2 * u) + c1 * (u * u)) + c0 * (u * u * u)

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
        probe = np.asarray(raw(raw.times[0] if isinstance(raw, Tabulated) else 0.0), dtype=float)
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
    the inverse square root, inverse, eigenvalues and root determinant of
    ``ia`` and the exponentials of ``ic`` and its transpose that the kernels
    and sharp constants are built from.
    ``quad_error`` bounds the rounding error of the closed-form integrals.
    """

    tau: float
    t: float
    ia: np.ndarray
    ib: np.ndarray
    ic: np.ndarray
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
        """log of the kernel normalization (2 sqrt(pi))^n * det_ia_sqrt."""
        return self.n * np.log(2.0 * np.sqrt(np.pi)) + np.log(self.det_ia_sqrt)


@dataclass(frozen=True)
class WindowBatch:
    """The fields of AccumulatedIntegrals for K windows, each stacked along
    a leading axis of length K (``exp_ic_star`` C-contiguous). ``batch[k]``
    and iteration give the windows as AccumulatedIntegrals whose arrays are
    read-only views of the batch."""

    tau: np.ndarray
    t: np.ndarray
    ia: np.ndarray
    ib: np.ndarray
    ic: np.ndarray
    ia_inv_sqrt: np.ndarray
    ia_inv: np.ndarray
    ia_eigenvalues: np.ndarray
    det_ia_sqrt: np.ndarray
    exp_ic: np.ndarray
    exp_ic_star: np.ndarray
    quad_error: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            value.setflags(write=False)

    def __len__(self):
        return self.t.size

    def __getitem__(self, k) -> AccumulatedIntegrals:
        return AccumulatedIntegrals(**{
            name: float(v[k]) if v.ndim == 1 else v[k] for name, v in vars(self).items()
        })

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True)
class CoefficientSet:
    """The triple (A(t), b(t), C(t)) on [0, T] for an n-dim, m-component system."""

    n: int
    m: int
    T: float
    A: object
    b: object
    C: object

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DomainError("dimensions n and m must be >= 1")
        if not self.T > 0:
            raise DomainError("final time T must be positive")
        for name, preset in (("A", self.A), ("b", self.b), ("C", self.C)):
            if isinstance(preset, Tabulated):
                lo, hi = preset.times[0], preset.times[-1]
                if lo > 0.0 or hi < self.T:
                    raise DomainError(
                        f"tabulated samples for {name} cover [{lo:g}, {hi:g}] "
                        f"but must cover [0, {self.T:g}]"
                    )
        for t in _spd_check_times(self.A, self.T):
            a = matfun.symmetrize(self.A(t))
            w = np.linalg.eigvalsh(a)
            if w[0] <= 0.0:
                raise NotPositiveDefinite(
                    w[0], 0.0, f"A({t:g}) is not positive definite"
                )
        singular = _singular_times(self.A, self.T)
        if singular:
            raise NotPositiveDefinite(
                0.0, 0.0, f"A({min(singular):g}) is singular between sample times"
            )

    def accumulated(self, tau, t) -> AccumulatedIntegrals:
        """Window integrals for [tau, t]; see integrate_coefficients."""
        return integrate_coefficients(self, tau, t)

    def windows(self, t, w) -> "WindowBatch":
        """Window integrals for [t - w, t], one per entry of ``w``, in one batch."""
        return integrate_windows(self, t, w)

    def check_window_floor(self, t, w):
        """Raise DomainError unless the window length w ending at t clears the
        SPD floor: a window w has smallest eigenvalue about w lambda_min(A(t)),
        which must clear 1e-12."""
        lam_min = float(np.linalg.eigvalsh(matfun.symmetrize(self.A(t)))[0])
        floor = max(WINDOW_FLOOR * self.T, 2e-12 / lam_min)
        if w < floor:
            raise DomainError(f"time t={t:g} is too small for the window floor {floor:g}")

    def window_breaks(self, t) -> np.ndarray:
        """Window lengths at which [t - w, t] reaches a sample time of a
        tabulated A, b or C, ascending and ending with t itself: the window
        integrals are smooth in w between two breaks. A sample time within
        1e-6 t of t makes no break: that piece would put nodes below the floor."""
        s = [p.times for p in (self.A, self.b, self.C) if isinstance(p, Tabulated)]
        s = np.concatenate([[]] + s)
        return _sorted_unique(np.append(t - s[(s > 0.0) & (s < (1.0 - 1e-6) * t)], t))


def _spd_check_times(A, T):
    """Times at which A(t) is checked to be SPD at construction.

    Constant A once. Affine A at both ends: the smallest eigenvalue of an
    affine symmetric family is concave in t, so the ends decide [0, T].
    Tabulated A at 0, T and every sample time in [0, T]; between them
    _singular_times decides.
    """
    if isinstance(A, Constant):
        return [0.0]
    if isinstance(A, Affine):
        return [0.0, T]
    return _sorted_unique(np.append([0.0, T], A.times[(A.times >= 0.0) & (A.times <= T)]))


def _singular_times(A, T):
    """Times in [0, T] between sample times where a tabulated A(t) is singular.

    About lo, the start of a piece or 0 if later, A(lo + u) = d0 + d1 u +
    d2 u^2 + d3 u^3, so its singular points are the eigenvalues u > 0 of the
    pencil (M, B), M = [[0, I, 0], [0, 0, I], [-d0, -d1, -d2]] and
    B = diag(I, I, d3): u = 1/mu for the eigenvalues mu != 0 of M^-1 B. M is
    invertible, as A(lo) was found SPD. An A that is SPD at one point of a
    piece and nowhere singular on it is SPD on the whole piece. Other
    presets give [].
    """
    if not isinstance(A, Tabulated):
        return []
    n = A.values.shape[-1]
    eye, zero = np.eye(n), np.zeros((n, n))
    found = []
    for i, h in enumerate(np.diff(A.times)):
        lo, hi = max(A.times[i], 0.0), A.times[i + 1]
        if lo >= min(T, hi):
            continue
        d0, d1, d2, d3 = (matfun.symmetrize(d) for d in _taylor(A._cubics[:, i], lo - A.times[i]))
        pencil = np.block([[zero, eye, zero], [zero, zero, eye], [-d0, -d1, -d2]])
        b = np.block([[eye, zero, zero], [zero, eye, zero], [zero, zero, d3]])
        mu = np.linalg.eigvals(np.linalg.solve(pencil, b))
        u = 1.0 / mu[mu != 0.0]
        u = u[np.abs(u.imag) <= _REAL_ROOT_TOL * h].real
        found.extend(float(s) for s in lo + u[(u > 0.0) & (u <= hi - lo)] if s <= T)
    return found


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


def integrate_coefficients(cs, tau, t) -> AccumulatedIntegrals:
    """Closed-form window integrals of (A, b, C) over [tau, t].

    Raises the errors of integrate_windows, and DomainError unless
    0 <= tau < t <= T.
    """
    return integrate_windows(cs, float(t), [window_length(cs, tau, t)])[0]


def integrate_windows(cs, t, w) -> "WindowBatch":
    """Closed-form window integrals of (A, b, C) over [t - w, t], batched.

    ``w`` is a sequence of window lengths and ``t`` a scalar or one end per
    window. Returns a WindowBatch: each field stacked over the windows, with
    window k as ``batch[k]``. Every window of a batch is bit-identical to the
    same window computed alone. Raises NotPositiveDefinite when an
    accumulated diffusion integral is degenerate and DomainError when a
    window is not inside [0, T] or is shorter than the window floor.
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
    ic = cs.C.integral(t, w)
    scale = np.maximum(np.maximum(cs.A.bound(t), cs.b.bound(t)), cs.C.bound(t))
    eig, ia_inv_sqrt, ia_inv = matfun.spd_roots(ia, "accumulated A integral is degenerate")
    exp_ic = matfun.matrix_exp(ic)
    return WindowBatch(
        tau=t - w, t=t, ia=ia, ib=cs.b.integral(t, w), ic=ic, ia_inv_sqrt=ia_inv_sqrt,
        ia_inv=ia_inv, ia_eigenvalues=eig, det_ia_sqrt=np.prod(np.sqrt(eig), axis=1),
        exp_ic=exp_ic, exp_ic_star=np.ascontiguousarray(np.swapaxes(exp_ic, -1, -2)),
        quad_error=_ROUNDING_ULPS * np.finfo(float).eps * w * scale,
    )


def window_scaling_exponents(cs, t):
    """Power-law exponents of the kernel ingredients as the window shrinks.

    Deprecated: the exponents are exactly ``(n/2, 1/2)`` for every preset.
    As tau -> t, ``det_ia_sqrt(t, tau) ~ (t - tau)^(n/2)`` and
    ``|ia_inv_sqrt(t, tau)| ~ (t - tau)^(-1/2)``, because the window integral
    of a continuous SPD A is ``(t - tau) A(t) + o(t - tau)``; they do not
    depend on ``t``.
    """
    return 0.5 * cs.n, 0.5


def commutation_defect(cs, t) -> float:
    """Spectral norm of C(t) int_C(t,0) - int_C(t,0) C(t).

    Zero when C commutes with its own running integral (constant C, or
    mutually commuting values), which is when the exponential-substitution
    form of the kernels is classically valid.
    """
    acc = cs.accumulated(0.0, t)
    c = np.asarray(cs.C(t), dtype=float)
    defect = c @ acc.ic - acc.ic @ c
    value, _ = matfun.spectral_norm(defect)
    return value
