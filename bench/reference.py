"""Reference values the benchmark checks the CLI against.

Everything here is computed independently of ``sharp_parabolic``: the
Gaussian L^p' norms in closed form, window integrals of tabulated
coefficients from the exact antiderivative of the same monotone cubic
interpolant, and source-time integrals with a Gauss-Jacobi rule that carries
the endpoint singularity w^(-e) exactly.

Conventions match the package: a window [t - w, t] has accumulated diffusion
``ia(w)``, the kernel's spatial profile is the normal density with covariance
2 ia(w), and its coupling factor is exp(ic(w)).
"""

import math

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.linalg import expm
from scipy.optimize import minimize, minimize_scalar
from scipy.special import roots_jacobi, roots_legendre

NODES_PER_PIECE = 48


def conjugate(p):
    """Hoelder conjugate p' (p = inf gives 1); p > 1 is assumed."""
    return 1.0 if math.isinf(p) else p / (p - 1.0)


def threshold(n, kind):
    """Exact convergence threshold in p of the source constants."""
    return (n + 2.0) if kind.startswith("C") else (n + 2.0) / 2.0


def endpoint_exponent(n, pp, gradient):
    """e with integrand ~ w^(-e) as the window w -> 0."""
    return 0.5 * n * (pp - 1.0) + (0.5 * pp if gradient else 0.0)


def _log_profile_power(n, pp, log_det_sigma):
    """log of the integral of g^p' for g = N(0, Sigma), n = dim."""
    log_c0 = -(0.5 * n * math.log(2.0 * math.pi) + 0.5 * log_det_sigma)
    return pp * log_c0 + 0.5 * log_det_sigma + 0.5 * n * math.log(2.0 * math.pi / pp)


def _log_slope_power(n, pp):
    """log of the integral of |s|^p' exp(-p' s^2 / 2) over the real line."""
    return 0.5 * (pp + 1.0) * math.log(2.0 / pp) + math.lgamma(0.5 * (pp + 1.0))


def profile_norm_pp(ia, pp):
    """||g||_{p'}^{p'} for the normal density with covariance 2 ia."""
    n = ia.shape[-1]
    log_det = np.log(np.linalg.det(2.0 * ia))
    return np.exp(np.vectorize(lambda ld: _log_profile_power(n, pp, ld))(log_det))


def gradient_norm_pp(ia, ell_scale, pp):
    """||d_ell g||_{p'}^{p'} given |Sigma^(-1/2) ell| = ell_scale, Sigma = 2 ia.

    With y = Sigma^(1/2) u the directional factor (ell, Sigma^-1 y) becomes
    ell_scale * u_1, so one axis carries |u_1|^p' and the rest are Gaussian.
    """
    n = ia.shape[-1]
    log_det = np.log(np.linalg.det(2.0 * ia))
    base = np.vectorize(lambda ld: _log_profile_power(n, pp, ld))(log_det)
    # one axis: replace the Gaussian factor sqrt(2 pi / p') by the slope power
    log_axis = _log_slope_power(n, pp) - 0.5 * math.log(2.0 * math.pi / pp)
    return ell_scale**pp * np.exp(base + log_axis)


def heat_source_constant(n, kind, p, t):
    """Closed form of N_p or C_{p,l} for the unit heat kernel (A = I, C = 0).

    The integrand is prefactor * w^(-e) with e = n(p'-1)/2 (+ p'/2 for C), so
    the constant is (prefactor * t^(1-e) / (1-e))^(1/p').
    """
    if p <= threshold(n, kind):
        return math.inf
    pp = conjugate(p)
    gradient = kind.startswith("C")
    e = endpoint_exponent(n, pp, gradient)
    unit = np.eye(n)[None]
    if gradient:
        factor = float(gradient_norm_pp(unit, 1.0 / math.sqrt(2.0), pp)[0])
    else:
        factor = float(profile_norm_pp(unit, pp)[0])
    return (factor * t ** (1.0 - e) / (1.0 - e)) ** (1.0 / pp)


class WindowIntegrals:
    """Exact window integrals of coefficients given as samples or affine data.

    ``a_antideriv(s)`` and ``c_antideriv(s)`` return antiderivatives at times
    ``s`` (shape (k,)) as arrays (k, n, n) and (k, m, m); ``knots`` are the
    times where the coefficients lose smoothness.
    """

    def __init__(self, a_antideriv, c_antideriv, knots):
        self.a_antideriv = a_antideriv
        self.c_antideriv = c_antideriv
        self.knots = np.asarray(knots, dtype=float)

    @classmethod
    def tabulated(cls, times, a_samples, c_samples):
        ia = PchipInterpolator(times, a_samples, axis=0).antiderivative()
        ic = PchipInterpolator(times, c_samples, axis=0).antiderivative()
        return cls(ia, ic, times)

    @classmethod
    def affine(cls, a0, a1, c):
        a0, a1, c = (np.asarray(v, dtype=float) for v in (a0, a1, c))

        def ia(s):
            s = np.asarray(s, dtype=float)[:, None, None]
            return s * a0 + 0.5 * s * s * a1

        def ic(s):
            return np.asarray(s, dtype=float)[:, None, None] * c

        return cls(ia, ic, [])

    def windows(self, t, w):
        """(ia, ic) over the windows [t - w, t]; t is a scalar or matches w."""
        w = np.asarray(w, dtype=float)
        t = np.broadcast_to(np.asarray(t, dtype=float), w.shape)
        lo = t - w
        ia = self.a_antideriv(t) - self.a_antideriv(lo)
        ic = self.c_antideriv(t) - self.c_antideriv(lo)
        return 0.5 * (ia + np.swapaxes(ia, -1, -2)), ic

    def window_rule(self, t, e, nodes=NODES_PER_PIECE):
        """Nodes and weights in w on [0, t] for integrands w^(-e) * smooth.

        Pieces end where a knot enters the window; the first piece uses the
        Gauss-Jacobi rule for the weight w^(-e), the others Gauss-Legendre.
        """
        breaks = sorted({0.0, t} | {t - k for k in self.knots if 0.0 < t - k < t})
        xj, wj = roots_jacobi(nodes, 0.0, -e)
        xl, wl = roots_legendre(nodes)
        ws, weights = [], []
        for i, (a, b) in enumerate(zip(breaks[:-1], breaks[1:])):
            half = 0.5 * (b - a)
            if i == 0:
                w = a + half * (1.0 + xj)
                weights.append(half ** (1.0 - e) * wj * w**e)
            else:
                w = a + half * (1.0 + xl)
                weights.append(half * wl)
            ws.append(w)
        return np.concatenate(ws), np.concatenate(weights)


def initial_constant(wi, kind, p, t):
    """H_p or K_p over the window [0, t]; both maximizations are exact."""
    pp = conjugate(p)
    ia, ic = wi.windows(t, np.array([t]))
    coupling = float(np.linalg.norm(expm(ic[0]), 2))
    if kind == "H":
        return coupling * float(profile_norm_pp(ia, pp)[0]) ** (1.0 / pp)
    ell_scale = 1.0 / math.sqrt(2.0 * float(np.linalg.eigvalsh(ia[0])[0]))
    return coupling * float(gradient_norm_pp(ia, ell_scale, pp)[0]) ** (1.0 / pp)


def _half_circle(angle):
    return np.stack([np.cos(angle), np.sin(angle)], axis=-1)


def source_constant(wi, kind, p, t):
    """N_p or C_p (both spheres maximized) for n = m = 2 coefficient data.

    sup over unit z (and ell for C) of the window integral of
    |exp(ic)^T z|^p' times the profile or gradient norm; the sup is a grid
    search over half circles refined by a local optimizer.
    """
    pp = conjugate(p)
    gradient = kind == "C"
    if p <= threshold(2, kind):
        return math.inf
    w, qw = wi.window_rule(t, endpoint_exponent(2, pp, gradient))
    ia, ic = wi.windows(t, w)
    if ia.shape[-1] != 2 or ic.shape[-1] != 2:
        raise ValueError("the source-constant reference covers n = m = 2")
    exp_t = np.swapaxes(expm(ic), -1, -2)
    if gradient:
        vals, vecs = np.linalg.eigh(2.0 * ia)
        inv_sqrt = vecs @ (vecs / np.sqrt(vals)[:, None, :]).swapaxes(-1, -2)
        weights = qw * gradient_norm_pp(ia, 1.0, pp)
    else:
        weights = qw * profile_norm_pp(ia, pp)

    def objective(angles):
        z = _half_circle(np.asarray(angles[0]))
        total = weights * np.linalg.norm(exp_t @ z, axis=-1) ** pp
        if gradient:
            ell = _half_circle(np.asarray(angles[1]))
            total = total * np.linalg.norm(inv_sqrt @ ell, axis=-1) ** pp
        return float(np.sum(total))

    grid = np.linspace(0.0, math.pi, 90, endpoint=False)
    if gradient:
        best = max(((a, b) for a in grid for b in grid), key=objective)
        res = minimize(lambda x: -objective(x), best, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 4000})
        value = max(-res.fun, objective(best))
    else:
        a0 = max(grid, key=lambda a: objective((a,)))
        step = grid[1] - grid[0]
        res = minimize_scalar(lambda a: -objective((a,)), bounds=(a0 - step, a0 + step),
                              method="bounded", options={"xatol": 1e-12})
        value = max(-res.fun, objective((a0,)))
    return value ** (1.0 / pp)


def source_solution(wi, t, x, b, center, width, amplitude, ell=None, nodes=64):
    """u(x, t) or (ell, grad) u for a Gaussian source constant in time.

    The spatial convolution of two Gaussians is closed form; what remains is
    a smooth integral over the window length w, done by Gauss-Legendre.
    """
    xg, wg = roots_legendre(nodes)
    w = 0.5 * t * (1.0 + xg)
    ia, ic = wi.windows(t, w)
    n = ia.shape[-1]
    cov = 2.0 * ia + width * width * np.eye(n)
    v = np.asarray(x, dtype=float) + w[:, None] * np.asarray(b, dtype=float) - center
    sol = np.linalg.solve(cov, v[..., None])[..., 0]
    dens = np.exp(-0.5 * np.einsum("ki,ki->k", v, sol)) / np.sqrt(
        np.linalg.det(2.0 * math.pi * cov)
    )
    inner = (2.0 * math.pi * width * width) ** (0.5 * n) * dens
    if ell is not None:
        inner = -inner * (sol @ np.asarray(ell, dtype=float))
    vecs = expm(ic) @ np.asarray(amplitude, dtype=float)
    return 0.5 * t * np.einsum("k,k,ki->i", wg, inner, vecs)
