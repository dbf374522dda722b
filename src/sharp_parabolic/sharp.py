"""Sharp coefficients of the pointwise solution and gradient estimates.

Six constants are exposed: the solution bound H_p and gradient bounds
K_{p,l} / K_p for the initial-value problem, and their source-problem
analogues N_p and C_{p,l} / C_p, which involve a window integral over the
source time with an endpoint singularity and a maximization over unit
vectors. The p=1 and p=infinity branches are explicit code paths carrying
the analytic limits of the general-p formulas.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import matfun
from .coeffs import WINDOW_FLOOR, window_scaling_exponents
from .errors import DomainError
from .quadrature import DEFAULT_TOL, QuadResult, adaptive_quadrature, panel_nodes

INF = math.inf
KINDS = ("H", "K_ell", "K", "N", "C_ell", "C")

_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


def holder_conjugate(p: float) -> float:
    """Conjugate exponent p' with 1/p + 1/p' = 1; pairs 1 <-> infinity."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise DomainError(f"exponent p={p} must satisfy p >= 1")
    if p == 1.0:
        return INF
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


# ---------------------------------------------------------------------------
# sphere maximization


@dataclass(frozen=True)
class SphereSettings:
    """Deterministic seeding and polish controls for sphere maximization."""

    seeds_per_dim: int = 64
    rel_tol: float = 1e-9
    max_iter: int = 200


_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def sphere_lattice(dim: int, count: int) -> np.ndarray:
    """Deterministic seed points on the unit sphere (half of it: objectives
    here are even), plus the coordinate axes."""
    if dim < 1:
        raise DomainError("sphere dimension must be >= 1")
    if dim == 1:
        return np.array([[1.0]])
    if dim == 2:
        thetas = (np.arange(count) + 0.5) * np.pi / count
        pts = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    elif dim == 3:
        i = np.arange(count) + 0.5
        z = i / count  # upper hemisphere
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = 2.0 * np.pi * i / _GOLDEN
        pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    else:
        rng = np.random.default_rng(20260810)
        pts = rng.standard_normal((count, dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return np.vstack([pts, np.eye(dim)])


def _tangent_gradient(grad, z):
    return grad - np.dot(grad, z) * z


def _polish_on_sphere(objective, gradient, z0, settings):
    """Projected-gradient ascent from z0; returns (z, value, residual)."""
    z = np.asarray(z0, dtype=float)
    z = z / np.linalg.norm(z)
    value = float(objective(z))
    step = 0.5
    residual = INF
    for _ in range(settings.max_iter):
        g = _tangent_gradient(np.asarray(gradient(z), dtype=float), z)
        scale = max(abs(value), 1e-300)
        residual = float(np.linalg.norm(g)) / scale
        if residual <= settings.rel_tol:
            break
        moved = False
        while step >= 1e-14:
            trial = z + step * g / max(np.linalg.norm(g), 1e-300)
            trial /= np.linalg.norm(trial)
            trial_value = float(objective(trial))
            if trial_value > value:
                z, value = trial, trial_value
                step *= 1.3
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return z, value, residual


def _numeric_gradient(objective, h=1e-6):
    def grad(z):
        g = np.empty_like(z)
        for i in range(z.size):
            e = np.zeros_like(z)
            e[i] = h
            g[i] = (objective(z + e) - objective(z - e)) / (2.0 * h)
        return g

    return grad


def sphere_max(objective, dim, settings=None, gradient=None):
    """Maximize an even continuous objective over the unit sphere.

    Deterministic lattice seeding followed by projected-gradient polish.
    Returns ``(argmax, value)`` with the argmax sign-canonicalized.
    """
    settings = settings or SphereSettings()
    seeds = sphere_lattice(dim, settings.seeds_per_dim * dim)
    values = np.array([float(objective(s)) for s in seeds])
    best = int(np.argmax(values))
    if gradient is None:
        gradient = _numeric_gradient(objective)
    z, value, _ = _polish_on_sphere(objective, gradient, seeds[best], settings)
    return matfun.canonical_sign(z), value


# ---------------------------------------------------------------------------
# results and requests


@dataclass(frozen=True)
class SharpDiagnostics:
    quad_error: float = 0.0
    search_residual: float = 0.0
    threshold_exact: bool = True


@dataclass(frozen=True)
class SharpResult:
    """Value of a sharp coefficient with its maximizers and convergence flag."""

    value: float
    maximizer_z: np.ndarray | None
    maximizer_ell: np.ndarray | None
    convergent: bool
    diagnostics: SharpDiagnostics = field(default_factory=SharpDiagnostics)

    def __post_init__(self):
        if math.isfinite(self.value) != self.convergent:
            raise ValueError("finite value and convergent flag must agree")


@dataclass(frozen=True)
class SharpRequest:
    """Which constant to evaluate, at which exponent, time and direction."""

    kind: str
    p: float
    t: float
    ell: np.ndarray | None = None
    quad_tol: float = DEFAULT_TOL
    sphere: SphereSettings | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown sharp-coefficient kind {self.kind!r}")
        if self.p < 1.0:
            raise DomainError("p must be >= 1")
        if self.kind in ("K_ell", "C_ell") and self.ell is None:
            raise DomainError(f"kind {self.kind} requires a direction ell")


def evaluate_sharp(cs, request: SharpRequest) -> SharpResult:
    """Dispatch a SharpRequest to the matching coefficient function."""
    kw = dict(quad_tol=request.quad_tol)
    if request.kind == "H":
        return sharp_H(cs, request.p, request.t, **kw)
    if request.kind == "K_ell":
        return sharp_K_ell(cs, request.p, request.t, request.ell, **kw)
    if request.kind == "K":
        return sharp_K(cs, request.p, request.t, **kw)
    kw["sphere"] = request.sphere
    if request.kind == "N":
        return sharp_N(cs, request.p, request.t, **kw)
    if request.kind == "C_ell":
        return sharp_C_ell(cs, request.p, request.t, request.ell, **kw)
    return sharp_C(cs, request.p, request.t, **kw)


def _validate_time(cs, t):
    t = float(t)
    if not 0.0 < t <= cs.T:
        raise DomainError(f"t={t:g} outside (0, T={cs.T:g}]")
    return t


def _validate_ell(ell, n):
    ell = np.asarray(ell, dtype=float)
    if ell.shape != (n,):
        raise DomainError(f"direction ell has shape {ell.shape}, expected ({n},)")
    if abs(np.linalg.norm(ell) - 1.0) > 1e-12:
        raise DomainError("direction ell must be a unit vector")
    return ell


# ---------------------------------------------------------------------------
# closed-form prefactors (log space; explicit limits at the endpoints)


def _pprime_power(n, pp):
    """(p')^(-n/(2 p')); its p'->infinity limit is 1."""
    if math.isinf(pp):
        return 1.0
    return math.exp(-0.5 * n * math.log(pp) / pp)


def _gamma_bracket(n, pp):
    """{Gamma((p'+1)/2) / p'^((n+p')/2)}^(1/p'); limit 1/sqrt(2e) at p'=inf."""
    if math.isinf(pp):
        return 1.0 / math.sqrt(2.0 * math.e)
    return math.exp(
        (math.lgamma(0.5 * (pp + 1.0)) - 0.5 * (n + pp) * math.log(pp)) / pp
    )


def _gradient_prefactor(n, p, pp):
    """1 / {2^n pi^((n+p-1)/2)}^(1/p) times the Gamma bracket.

    The p=infinity limit of the pi factor is 1/sqrt(pi) and is hard-coded;
    naive exponent arithmetic at p=infinity would silently drop it.
    """
    if math.isinf(p):
        return 1.0 / math.sqrt(math.pi)
    log_denom = (n * math.log(2.0) + 0.5 * (n + p - 1.0) * math.log(math.pi)) / p
    return math.exp(-log_denom) * _gamma_bracket(n, pp)


def _solution_prefactor(n, p, pp, log_det=0.0):
    """(2 sqrt(pi))^(-n/p) det^( -1/p ) (p')^(-n/(2p'))."""
    if math.isinf(p):
        return 1.0
    return math.exp(-(n * math.log(_TWO_SQRT_PI) + log_det) / p) * _pprime_power(n, pp)


# ---------------------------------------------------------------------------
# initial-value constants (single window [0, t])


def sharp_H(cs, p, t, quad_tol=DEFAULT_TOL) -> SharpResult:
    """Sharp coefficient of |u(x,t)| <= H_p(t) ||initial data||_p."""
    pp = holder_conjugate(p)
    t = _validate_time(cs, t)
    acc = cs.accumulated(0.0, t, quad_tol)
    norm, z = matfun.spectral_norm(acc.exp_ic_star)
    value = norm * _solution_prefactor(
        cs.n, p, pp, log_det=math.log(acc.det_ia_sqrt)
    )
    return SharpResult(
        value=float(value),
        maximizer_z=z,
        maximizer_ell=None,
        convergent=True,
        diagnostics=SharpDiagnostics(quad_error=acc.quad_error),
    )


def _k_value(cs, acc, p, pp, direction_factor):
    norm, z = matfun.spectral_norm(acc.exp_ic_star)
    base = direction_factor * norm
    if math.isinf(p):
        return base / math.sqrt(math.pi), z
    log_denom = (
        cs.n * math.log(2.0)
        + 0.5 * (cs.n + p - 1.0) * math.log(math.pi)
        + math.log(acc.det_ia_sqrt)
    ) / p
    return base * math.exp(-log_denom) * _gamma_bracket(cs.n, pp), z


def sharp_K_ell(cs, p, t, ell, quad_tol=DEFAULT_TOL) -> SharpResult:
    """Sharp coefficient of |du/dell (x,t)| <= K_{p,ell}(t) ||initial data||_p."""
    pp = holder_conjugate(p)
    t = _validate_time(cs, t)
    ell = _validate_ell(ell, cs.n)
    acc = cs.accumulated(0.0, t, quad_tol)
    value, z = _k_value(cs, acc, p, pp, float(np.linalg.norm(acc.ia_inv_sqrt @ ell)))
    return SharpResult(
        value=value,
        maximizer_z=z,
        maximizer_ell=ell,
        convergent=True,
        diagnostics=SharpDiagnostics(quad_error=acc.quad_error),
    )


def sharp_K(cs, p, t, quad_tol=DEFAULT_TOL) -> SharpResult:
    """max over unit directions of K_{p,ell}: uses the norm of ia_inv_sqrt."""
    pp = holder_conjugate(p)
    t = _validate_time(cs, t)
    acc = cs.accumulated(0.0, t, quad_tol)
    direction_factor, ell_star = matfun.spectral_norm(acc.ia_inv_sqrt)
    value, z = _k_value(cs, acc, p, pp, direction_factor)
    return SharpResult(
        value=value,
        maximizer_z=z,
        maximizer_ell=ell_star,
        convergent=True,
        diagnostics=SharpDiagnostics(quad_error=acc.quad_error),
    )


# ---------------------------------------------------------------------------
# convergence of the source-problem window integrals


@dataclass(frozen=True)
class ConvergenceReport:
    convergent: bool
    exact: bool
    exponent: float


def _convergence(cs, p, kind) -> ConvergenceReport:
    pp = holder_conjugate(p)
    with_gradient = kind == "C"
    if cs.A.is_constant:
        threshold = (cs.n + 2.0) if with_gradient else (cs.n + 2.0) / 2.0
        if math.isinf(pp):
            exponent = INF
        else:
            exponent = 0.5 * cs.n * (pp - 1.0) + (0.5 * pp if with_gradient else 0.0)
        return ConvergenceReport(p > threshold, True, exponent)
    kernel_exp, grad_exp = window_scaling_exponents(cs, cs.T)
    if math.isinf(pp):
        exponent = INF
    else:
        exponent = kernel_exp * (pp - 1.0) + (grad_exp * pp if with_gradient else 0.0)
    return ConvergenceReport(exponent < 1.0, False, exponent)


def converges_N(cs, p) -> bool:
    """Whether the solution-bound window integral converges at exponent p."""
    return _convergence(cs, p, "N").convergent


def converges_C(cs, p) -> bool:
    """Whether the gradient-bound window integral converges at exponent p."""
    return _convergence(cs, p, "C").convergent


# ---------------------------------------------------------------------------
# source-problem constants (window integrals over the source time)


@dataclass(frozen=True)
class _WindowTables:
    """Fixed quadrature nodes in sigma = sqrt(t - tau) with per-node data."""

    sigmas: np.ndarray
    weights: np.ndarray  # GL weight * 2 sigma * det^(1 - p')
    exps: np.ndarray  # exp_ic_star per node, (K, m, m)
    inv_sqrts: np.ndarray | None  # ia_inv_sqrt per node, (K, n, n)


def _sigma_bounds(cs, t):
    """Integration bounds in sigma = sqrt(t - tau).

    The lower bound keeps the accumulated diffusion integral above its SPD
    floor: for a window w the smallest eigenvalue of the integral is about
    w * lambda_min(A), which must clear 1e-12.
    """
    lam_min = float(np.linalg.eigvalsh(matfun.symmetrize(cs.A(t)))[0])
    floor = max(WINDOW_FLOOR * cs.T, 2e-12 / lam_min)
    lo = math.sqrt(floor)
    hi = math.sqrt(t)
    if not lo < 0.5 * hi:
        raise DomainError(f"time t={t:g} is too small for the window floor")
    return lo, hi


def _window_tables(cs, t, pp, with_gradient, quad_tol) -> _WindowTables:
    lo, hi = _sigma_bounds(cs, t)

    def probe(sigma):
        acc = cs.window(t, sigma * sigma)
        r = acc.det_ia_sqrt ** (1.0 - pp)
        r *= matfun.spectral_norm(acc.exp_ic_star)[0] ** pp
        if with_gradient:
            r *= (1.0 / math.sqrt(acc.ia_eigenvalues[-1])) ** pp
        return 2.0 * sigma * r

    rough = adaptive_quadrature(probe, lo, hi, max_depth=0)
    tol = max(quad_tol, 1e-8) * max(1.0, abs(float(rough.value)))
    res = adaptive_quadrature(probe, lo, hi, tol=tol)
    sigmas, gl_weights = panel_nodes(res.panels)
    accs = cs.windows(t, sigmas * sigmas)
    dets = np.array([acc.det_ia_sqrt for acc in accs])
    weights = gl_weights * 2.0 * sigmas * dets ** (1.0 - pp)
    exps = np.stack([acc.exp_ic_star for acc in accs])
    inv_sqrts = np.stack([acc.ia_inv_sqrt for acc in accs]) if with_gradient else None
    return _WindowTables(sigmas, weights, exps, inv_sqrts)


def _z_objective(tables, pp, ell_factors=None):
    w = tables.weights if ell_factors is None else tables.weights * ell_factors

    def objective(z):
        mags = np.linalg.norm(tables.exps @ z, axis=1)
        return float(np.dot(w, mags**pp))

    def gradient(z):
        vecs = tables.exps @ z
        mags = np.linalg.norm(vecs, axis=1)
        coef = pp * w * mags ** (pp - 2.0)
        return np.einsum("k,kij,kj->i", coef, np.transpose(tables.exps, (0, 2, 1)), vecs)

    return objective, gradient


def _gram_maximizer(tables, ell_factors=None):
    """Exact z-maximizer at p'=2: top eigenvector of the Gram matrix."""
    w = tables.weights if ell_factors is None else tables.weights * ell_factors
    gram = np.einsum("k,kji,kjl->il", w, tables.exps, tables.exps)
    vals, vecs = matfun.sym_eigen(gram)
    return vecs[:, 0], float(vals[0])


def _maximize_z(cs, tables, pp, settings):
    if cs.m == 1:
        return np.array([1.0]), 0.0
    if pp == 2.0:
        z, _ = _gram_maximizer(tables)
        return z, 0.0
    settings = settings or SphereSettings()
    objective, gradient = _z_objective(tables, pp)
    seeds = sphere_lattice(cs.m, settings.seeds_per_dim * cs.m)
    mags = np.linalg.norm(np.einsum("kij,sj->ksi", tables.exps, seeds), axis=2)
    vals = tables.weights @ mags**pp
    z0 = seeds[int(np.argmax(vals))]
    z, _, residual = _polish_on_sphere(objective, gradient, z0, settings)
    return z, residual


def _tau_integral(cs, t, pp, quad_tol, z, ell=None):
    """Adaptive sigma-substituted window integral at fixed maximizers.

    The windows below the degeneracy floor are covered by a one-rectangle
    endpoint correction, which is exact to O(sigma_floor^2) for integrands
    bounded at the endpoint.
    """
    lo, hi = _sigma_bounds(cs, t)

    def integrand(sigma):
        acc = cs.window(t, sigma * sigma)
        val = float(np.linalg.norm(acc.exp_ic_star @ z)) ** pp
        val *= acc.det_ia_sqrt ** (1.0 - pp)
        if ell is not None:
            val *= float(np.linalg.norm(acc.ia_inv_sqrt @ ell)) ** pp
        return 2.0 * sigma * val

    rough = adaptive_quadrature(integrand, lo, hi, max_depth=0)
    tol = quad_tol * max(1.0, abs(float(rough.value)))
    res = adaptive_quadrature(integrand, lo, hi, tol=tol)
    endpoint = lo * integrand(lo)
    return QuadResult(float(res.value) + endpoint, res.error, res.panels)


def _window_result(pref, integral, pp, z, ell, residual, exact):
    value = pref * float(integral.value) ** (1.0 / pp)
    if integral.value > 0.0:
        quad_err = value * integral.error / (pp * integral.value)
    else:
        quad_err = integral.error
    return SharpResult(
        value=value,
        maximizer_z=matfun.canonical_sign(z),
        maximizer_ell=None if ell is None else matfun.canonical_sign(ell),
        convergent=True,
        diagnostics=SharpDiagnostics(
            quad_error=quad_err, search_residual=residual, threshold_exact=exact
        ),
    )


def _divergent_result(report):
    return SharpResult(
        value=INF,
        maximizer_z=None,
        maximizer_ell=None,
        convergent=False,
        diagnostics=SharpDiagnostics(threshold_exact=report.exact),
    )


def sharp_N(cs, p, t, quad_tol=DEFAULT_TOL, sphere=None) -> SharpResult:
    """Sharp coefficient of |u(x,t)| <= N_p(t) ||source||_{p,t}."""
    pp = holder_conjugate(p)
    t = _validate_time(cs, t)
    report = _convergence(cs, p, "N")
    if not report.convergent:
        return _divergent_result(report)
    if cs.m == 1:
        z, residual = np.array([1.0]), 0.0
    else:
        tables = _window_tables(cs, t, pp, with_gradient=False, quad_tol=quad_tol)
        z, residual = _maximize_z(cs, tables, pp, sphere)
    integral = _tau_integral(cs, t, pp, quad_tol, z)
    pref = _solution_prefactor(cs.n, p, pp)
    result = _window_result(pref, integral, pp, z, None, residual, report.exact)
    return result


def sharp_C_ell(cs, p, t, ell, quad_tol=DEFAULT_TOL, sphere=None) -> SharpResult:
    """Sharp coefficient of |du/dell (x,t)| <= C_{p,ell}(t) ||source||_{p,t}."""
    pp = holder_conjugate(p)
    t = _validate_time(cs, t)
    ell = _validate_ell(ell, cs.n)
    report = _convergence(cs, p, "C")
    if not report.convergent:
        return _divergent_result(report)
    if cs.m == 1:
        z, residual = np.array([1.0]), 0.0
    else:
        tables = _window_tables(cs, t, pp, with_gradient=True, quad_tol=quad_tol)
        ell_factors = np.linalg.norm(tables.inv_sqrts @ ell, axis=1) ** pp
        if pp == 2.0:
            z, _ = _gram_maximizer(tables, ell_factors)
            residual = 0.0
        else:
            settings = sphere or SphereSettings()
            objective, gradient = _z_objective(tables, pp, ell_factors)
            seeds = sphere_lattice(cs.m, settings.seeds_per_dim * cs.m)
            vals = np.array([objective(s) for s in seeds])
            z, _, residual = _polish_on_sphere(
                objective, gradient, seeds[int(np.argmax(vals))], settings
            )
    integral = _tau_integral(cs, t, pp, quad_tol, z, ell=ell)
    pref = _gradient_prefactor(cs.n, p, pp)
    result = _window_result(pref, integral, pp, z, ell, residual, report.exact)
    return result


def _joint_polish(tables, pp, ell0, z0, settings):
    w = tables.weights
    exps = tables.exps
    smats = tables.inv_sqrts

    def split_value(ell, z):
        a = np.linalg.norm(smats @ ell, axis=1) ** pp
        b = np.linalg.norm(exps @ z, axis=1) ** pp
        return float(np.dot(w, a * b))

    ell = ell0 / np.linalg.norm(ell0)
    z = z0 / np.linalg.norm(z0)
    value = split_value(ell, z)
    step = 0.5
    residual = INF
    for _ in range(settings.max_iter):
        svec = smats @ ell
        evec = exps @ z
        smag = np.linalg.norm(svec, axis=1)
        emag = np.linalg.norm(evec, axis=1)
        coef_l = pp * w * smag ** (pp - 2.0) * emag**pp
        coef_z = pp * w * smag**pp * emag ** (pp - 2.0)
        g_l = _tangent_gradient(
            np.einsum("k,kij,kj->i", coef_l, np.transpose(smats, (0, 2, 1)), svec), ell
        )
        g_z = _tangent_gradient(
            np.einsum("k,kij,kj->i", coef_z, np.transpose(exps, (0, 2, 1)), evec), z
        )
        scale = max(abs(value), 1e-300)
        residual = math.hypot(np.linalg.norm(g_l), np.linalg.norm(g_z)) / scale
        if residual <= settings.rel_tol:
            break
        norm_g = max(math.hypot(np.linalg.norm(g_l), np.linalg.norm(g_z)), 1e-300)
        moved = False
        while step >= 1e-14:
            ell_t = ell + step * g_l / norm_g
            z_t = z + step * g_z / norm_g
            ell_t /= np.linalg.norm(ell_t)
            z_t /= np.linalg.norm(z_t)
            trial = split_value(ell_t, z_t)
            if trial > value:
                ell, z, value = ell_t, z_t, trial
                step *= 1.3
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return ell, z, residual


def sharp_C(cs, p, t, quad_tol=DEFAULT_TOL, sphere=None) -> SharpResult:
    """max over unit directions of C_{p,ell}: joint search over both spheres.

    The two maximizations do not separate because the direction factor under
    the window integral depends on the source time.
    """
    pp = holder_conjugate(p)
    t = _validate_time(cs, t)
    report = _convergence(cs, p, "C")
    if not report.convergent:
        return _divergent_result(report)
    settings = sphere or SphereSettings()
    tables = _window_tables(cs, t, pp, with_gradient=True, quad_tol=quad_tol)
    ell_seeds = sphere_lattice(cs.n, settings.seeds_per_dim * cs.n)
    z_seeds = sphere_lattice(cs.m, settings.seeds_per_dim * cs.m)
    a = np.linalg.norm(np.einsum("kij,sj->ksi", tables.inv_sqrts, ell_seeds), axis=2)
    b = np.linalg.norm(np.einsum("kij,sj->ksi", tables.exps, z_seeds), axis=2)
    grid = (tables.weights[:, None] * a**pp).T @ b**pp
    i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
    if cs.n == 1 and cs.m == 1:
        ell, z, residual = np.array([1.0]), np.array([1.0]), 0.0
    else:
        ell, z, residual = _joint_polish(
            tables, pp, ell_seeds[i], z_seeds[j], settings
        )
    integral = _tau_integral(cs, t, pp, quad_tol, z, ell=ell)
    pref = _gradient_prefactor(cs.n, p, pp)
    return _window_result(pref, integral, pp, z, ell, residual, report.exact)


# ---------------------------------------------------------------------------
# closed forms of the proof-level integral identities (verified by
# quadrature in the test suite)


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)


def radial_gauss_integral(n: int, pp: float) -> float:
    """omega_n * integral of rho^(n-1) exp(-p' rho^2 / 4): 2^n pi^(n/2) / p'^(n/2)."""
    return 2.0**n * math.pi ** (0.5 * n) / pp ** (0.5 * n)


def sphere_angle_integral(n: int, pp: float, v) -> float:
    """Integral over the unit sphere of |(e_sigma, v)|^p' for a fixed vector v."""
    mag = float(np.linalg.norm(np.asarray(v, dtype=float)))
    return (
        mag**pp
        * 2.0
        * math.pi ** (0.5 * (n - 1.0))
        * math.gamma(0.5 * (pp + 1.0))
        / math.gamma(0.5 * (n + pp))
    )
