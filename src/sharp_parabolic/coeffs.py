"""Time-dependent coefficient triples and their accumulated window integrals.

A coefficient set holds the diffusion matrix A(t), drift vector b(t) and
coupling matrix C(t) on [0, T]. Everything downstream depends on them only
through the window integrals ``int_F(t, tau) = integral of F over [tau, t]``
and the SPD/exponential functions derived from those.

Every preset is a piecewise polynomial and integrates in closed form. A
window is keyed by its end and length ``(t, w)``, so callers that think in
window lengths (the source-time integrals, with ``w = sigma^2``) never
round through ``tau = t - w``.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from . import matfun
from .errors import COUNT, POSITIVE, DomainError, NotPositiveDefinite, checked
from .quadrature import adaptive_quadrature  # noqa: F401  (wrapped by bench/tracer.py)

# Fraction of T below which a window (t - tau) counts as degenerate.
WINDOW_FLOOR = 1e-13
# quad_error is this many units of roundoff of w * sup|F| over the window:
# it covers the few roundings of each closed form with a wide margin.
_ROUNDING_ULPS = 64
_ROUNDING_ERROR = _ROUNDING_ULPS * np.finfo(float).eps
# A pencil eigenvalue u of a piece of length h, or T if shorter, counts as
# real when |Im u| <= _REAL_ROOT_TOL * h.
_REAL_ROOT_TOL = 1e-8


def _column(v, ndim):
    """Reshape a (K,) array to broadcast against (K, *shape) of rank ndim."""
    return v[(...,) + (None,) * (ndim - 1)]


def _taylor(c, h):
    """Taylor coefficients d_0..d_k at u = h of the polynomials
    sum_i c_i u^(k-i), as a list: d_j = sum_i binom(k-i, j) c_i h^(k-i-j),
    in Horner form."""
    k = len(c) - 1
    out = []
    for j in range(k + 1):  # for j = 0 every binomial is 1
        d = comb(k, j) * c[0] if j else c[0]
        for i in range(1, k - j + 1):
            d = d * h + (comb(k - i, j) * c[i] if j else c[i])
        out.append(d)
    return out


def _left_integral(d, w):
    """Integral over [s - w, s] of the polynomial with Taylor coefficients d at s.

    ``sum_j (-1)^j d_j w^(j+1) / (j+1)`` in Horner form: no antiderivative
    differences, so the relative error stays at roundoff for any w.
    """
    k = len(d) - 1
    acc = d[k] / (k + 1) if k else d[0]
    for j in range(k - 1, -1, -1):
        acc = (d[j] / (j + 1) if j else d[j]) - w * acc
    return w * acc


def _sorted_unique(values):
    """np.unique without the numpy.ma import of numpy's set functions."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])]


class _Piecewise:
    """A coefficient that is a polynomial on each piece [times[i], times[i+1]].

    ``coefs[:, i]`` holds piece i's coefficients at its degree, highest
    power first, in u = s - times[i]. Either every piece is closed or there
    is one open piece [times[0], inf), as for constant and affine
    coefficients.
    """

    def __init__(self, times, coefs):
        self.times = times
        self.coefs = coefs
        self.shape = coefs.shape[2:]

    def __call__(self, t):
        x = self.times
        if not x[0] <= t <= x[-1]:
            raise DomainError(f"coefficient is given on [{x[0]:g}, {x[-1]:g}], requested t={t:g}")
        # as scipy's PPoly: the piece x_i <= t < x_(i+1) (the last for t = x[-1])
        i = bisect_right(x, t, 1, x.size - 1) - 1
        u = t - x[i]
        c = self.coefs[:, i]
        # lowest power first, u^k by repeated products: scipy's PPoly order
        value, power = c[-1], 1.0
        for coef in c[-2::-1]:
            power = power * u
            value = value + coef * power
        return value

    def integral(self, t, w):
        """Exact integrals over the windows [t - w, t]; arrays (K,) in, (K, *shape) out.

        The piece containing t is expanded about t; a window reaching below
        that piece adds the whole pieces it covers and, expanded about its
        right end, the piece where it starts.
        """
        x = self.times
        ndim = self.coefs.ndim - 1
        # the piece x_i < t <= x_(i+1), or the first; no search for one piece
        near = np.searchsorted(x[1:-1], t) if x.size > 2 else 0
        gap = t - x[near]  # t minus the break at or below it
        d = _taylor(self.coefs[:, near], _column(gap, ndim))
        cross = w > gap  # never with one piece, which holds every window in [0, t]
        if x.size == 2 or not cross.any():
            return _left_integral(d, _column(w, ndim))
        out = _left_integral(d, _column(np.minimum(w, gap), ndim))
        # the piece holding t - w; a start rounded across a break moves an
        # ulp of the window between two pieces
        far = np.searchsorted(x, t - w, side="right") - 1
        far = np.where(cross, np.clip(far, 0, near - 1), near)
        rest = np.where(cross, w - (t - x[far + 1]), 0.0)
        right, whole = self._ends
        out = out + _left_integral(right[:, far], _column(rest, ndim))
        for i, j in set(zip(far[cross].tolist(), near[cross].tolist())):
            if j > i + 1:
                hit = cross & (far == i) & (near == j)
                out[hit] = out[hit] + whole[i + 1:j].sum(axis=0)
        return out

    @cached_property
    def _ends(self):
        """Per closed piece, the Taylor coefficients at its right end and its
        whole integral."""
        h = _column(np.diff(self.times), self.coefs.ndim - 1)
        right = np.stack(_taylor(self.coefs, h))
        return right, _left_integral(right, h)

    @cached_property
    def _bound_coefs(self):
        """Coefficients, highest power first, of bound's polynomial in u = t
        minus the last finite break: of an open piece, the maxima of
        |coefficient| per power; of closed pieces, the sup of |entries|
        widened by the roundoff of summing up to every piece."""
        k, pieces = self.coefs.shape[:2]
        if self.times[-1] == np.inf:
            return np.abs(self.coefs[:, -1]).reshape(k, -1).max(axis=1).tolist()
        col = _column(np.diff(self.times), self.coefs.ndim - 1)
        powers = col ** np.arange(k - 1, -1, -1).reshape((k,) + (1,) * col.ndim)
        sup = float(np.max(np.sum(np.abs(self.coefs) * powers, axis=0)))
        return [sup * (1.0 + pieces / _ROUNDING_ULPS)]

    def bound(self, t):
        """An upper bound of |entries| over [times[0], t]."""
        value, *rest = self._bound_coefs
        for m in rest:
            value = value * (t - self.times[-2]) + m
        return value


def Constant(value):
    """Coefficient that does not depend on time: degree 0 on [0, inf)."""
    return _Piecewise(np.array([0.0, np.inf]), np.asarray(value, dtype=float)[None, None])


def Affine(value0, slope):
    """Coefficient value0 + t * slope: degree 1 on [0, inf)."""
    coefs = np.stack([np.asarray(slope, dtype=float), np.asarray(value0, dtype=float)])
    return _Piecewise(np.array([0.0, np.inf]), coefs[:, None])


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


def Tabulated(times, values):
    """Coefficient given by samples, joined by monotone cubic interpolation:
    one cubic per interval between sample times."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise DomainError("tabulated preset needs at least two samples")
    if values.shape[0] != times.size:
        raise DomainError("tabulated times and values disagree in length")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise DomainError("tabulated sample times and values must be finite")
    if not np.all(np.diff(times) > 0):
        raise DomainError("tabulated sample times must be strictly increasing")
    return _Piecewise(times, _pchip_cubics(_column(np.diff(times), values.ndim), values))


def _as_preset(raw, shape):
    """Wrap plain arrays in a constant preset; validate the shape either way."""
    preset = raw if hasattr(raw, "integral") else Constant(raw)
    if preset.shape != shape:
        raise DomainError(f"coefficient has shape {preset.shape}, expected {shape}")
    return preset


class _Normalized:
    """The kernel normalization of one window, or of each of a stack."""

    @property
    def n(self):
        return self.ia.shape[-1]

    @property
    def log_gauss_norm(self):
        """log of the kernel normalization (2 sqrt(pi))^n * det_ia_sqrt."""
        return self.n * np.log(2.0 * np.sqrt(np.pi)) + np.log(self.det_ia_sqrt)


@dataclass(frozen=True)
class AccumulatedIntegrals(_Normalized):
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


@dataclass(frozen=True)
class WindowBatch(_Normalized):
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
        for name in "nm":
            checked(getattr(self, name), f"dimension {name}", *COUNT)
        object.__setattr__(self, "T", checked(self.T, "final time T", *POSITIVE))
        for name, preset in (("A", self.A), ("b", self.b), ("C", self.C)):
            lo, hi = preset.times[0], preset.times[-1]
            if lo > 0.0 or hi < self.T:
                raise DomainError(f"{name} is given on [{lo:g}, {hi:g}] but must cover [0, {self.T:g}]")
        # SPD at 0, T and every break in [0, T]; between them _singular_times decides
        times = sorted({0.0, self.T, *(s for s in self.A.times.tolist() if 0.0 <= s <= self.T)})
        lowest = np.linalg.eigvalsh([matfun.symmetrize(self.A(t)) for t in times])[:, 0]
        for t, w in zip(times, lowest):
            if w <= 0.0:
                raise NotPositiveDefinite(w, 0.0, f"A({t:g}) is not positive definite")
        singular = _singular_times(self.A, self.T)
        if singular:
            raise NotPositiveDefinite(0.0, 0.0, f"A({min(singular):g}) is singular")

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

    def window_breaks(self, t, drift=True) -> np.ndarray:
        """Window lengths at which [t - w, t] reaches a break of A, C and,
        unless ``drift`` is False, b, ascending and ending with t itself: the
        window integrals are smooth in w between two breaks. A break within
        1e-6 t of t makes no break: that piece would put nodes below the floor."""
        s = np.concatenate([self.A.times, self.C.times] + ([self.b.times] if drift else []))
        return _sorted_unique(np.append(t - s[(s > 0.0) & (s < (1.0 - 1e-6) * t)], t))


def _singular_times(A, T):
    """Times in (0, T] where A(t) is singular, found piece by piece.

    About lo, the start of a piece or 0 if later, A(lo + u) = d_0 + d_1 u +
    ... + d_k u^k, so its singular points are the eigenvalues u > 0 of the
    companion pencil (M, B): M has identity blocks above its block diagonal
    and the last block row [-d_0, ..., -d_(k-1)], and B = diag(I, ..., I, d_k);
    u = 1/mu for the eigenvalues mu != 0 of M^-1 B. M is invertible, as A(lo)
    was found SPD. For k = 1 these are the generalized eigenvalues of
    (d_0, -d_1); degree 0 has none. An A that is SPD at one point of a piece
    and nowhere singular on it is SPD on the whole piece.
    """
    k, n = A.coefs.shape[0] - 1, A.shape[-1]
    found = []
    for i, (start, hi) in enumerate(zip(A.times[:-1], A.times[1:])):
        lo = max(start, 0.0)
        if k == 0 or lo >= min(T, hi):
            continue
        d = [matfun.symmetrize(c) for c in _taylor(A.coefs[:, i], lo - start)]
        pencil = np.eye(k * n, k=n)
        pencil[-n:] = -np.hstack(d[:-1])
        b = np.eye(k * n)
        b[-n:, -n:] = d[-1]
        mu = np.linalg.eigvals(np.linalg.solve(pencil, b))
        u = 1.0 / mu[mu != 0.0]
        u = u[np.abs(u.imag) <= _REAL_ROOT_TOL * min(hi - start, T)].real
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
    return CoefficientSet(n=n, m=m, T=T, A=A, b=b, C=C)


def integrate_coefficients(cs, tau, t) -> AccumulatedIntegrals:
    """Closed-form window integrals of (A, b, C) over [tau, t]; raises the
    errors of integrate_windows, and DomainError unless tau >= 0 and t are numbers."""
    tau = checked(tau, "tau", lambda v: v >= 0.0, "must be a finite number >= 0")
    t = checked(t, "t", lambda v: True, "must be a finite number")
    return integrate_windows(cs, t, [t - tau])[0]


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
    t = np.full(w.shape, np.asarray(t, dtype=float))
    floor = WINDOW_FLOOR * cs.T
    bad = ~((t > 0.0) & (t <= cs.T) & (w <= t) & (w >= floor))
    if bad.any():
        k = int(np.argmax(bad))
        window = f"window [{t[k] - w[k]:g}, {t[k]:g}]"
        if 0.0 < t[k] <= cs.T and 0.0 < w[k] < floor:
            raise DomainError(f"{window} is shorter than the degeneracy floor {floor:g}")
        raise DomainError(f"{window} must satisfy 0 <= tau < t <= T={cs.T:g}")

    ia = cs.A.integral(t, w)
    ia = 0.5 * (ia + ia.swapaxes(-1, -2))
    ic = cs.C.integral(t, w)
    scale = np.maximum(np.maximum(cs.A.bound(t), cs.b.bound(t)), cs.C.bound(t))
    eig, ia_inv_sqrt, ia_inv = matfun.spd_roots(ia, "accumulated A integral is degenerate")
    exp_ic = matfun.matrix_exp(ic)
    return WindowBatch(
        tau=t - w, t=t, ia=ia, ib=cs.b.integral(t, w), ic=ic, ia_inv_sqrt=ia_inv_sqrt,
        ia_inv=ia_inv, ia_eigenvalues=eig, det_ia_sqrt=np.sqrt(eig).prod(axis=1),
        exp_ic=exp_ic, exp_ic_star=np.ascontiguousarray(exp_ic.swapaxes(-1, -2)),
        quad_error=_ROUNDING_ERROR * w * scale,
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
