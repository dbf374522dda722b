"""Sharp coefficients of the pointwise solution and gradient estimates.

Six constants are exposed: the solution bound H_p and gradient bounds
K_{p,l} / K_p for the initial-value problem, and their source-problem
analogues N_p and C_{p,l} / C_p, which involve a window integral over the
source time with an endpoint singularity and a maximization over unit
vectors. The p=1 and p=infinity branches are explicit code paths carrying
the analytic limits of the general-p formulas.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import matfun
from .coeffs import WINDOW_FLOOR, Tabulated
from .coeffs import window_scaling_exponents  # noqa: F401  (wrapped by bench/tracer.py)
from .errors import DomainError
from .quadrature import DEFAULT_TOL
from .quadrature import adaptive_quadrature  # noqa: F401  (wrapped by bench/tracer.py)

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
    """Deterministic seeding and power-iteration controls for sphere search."""

    seeds_per_dim: int = 64
    rel_tol: float = 1e-9
    max_iter: int = 1000


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
    """Monotone power iteration from z0; returns (z, value, residual).

    Each step sets z <- g/|g| with g = grad f(z). For a convex f it cannot
    lower f: f(g/|g|) >= f(z) + g.(g/|g| - z) >= f(z), as |g| >= g.z. For a
    product of spheres ``z0`` is a tuple of start vectors, ``objective`` and
    ``gradient`` take one vector per sphere, the gradient returns one block
    per sphere, the blocks step in turn and ``z`` is a tuple. The residual
    is |tangent gradient| / |gradient| at ``z`` (blocks combined with
    ``math.hypot``); the loop stops once it is at most ``settings.rel_tol``,
    so a larger one means that ``settings.max_iter`` steps ran out.
    """
    product = isinstance(z0, tuple)
    zs = [np.asarray(b, dtype=float) for b in (z0 if product else (z0,))]
    zs = [b / np.linalg.norm(b) for b in zs]

    def blocks():
        grads = gradient(*zs)
        return [np.asarray(g, dtype=float) for g in (grads if product else (grads,))]

    def sine(g, z):
        norm = np.linalg.norm(g)  # zero only where f vanishes: nothing to climb
        return np.linalg.norm(_tangent_gradient(g, z)) / norm if norm > 0.0 else 0.0

    for step in range(settings.max_iter + 1):
        grads = blocks()
        residual = math.hypot(*map(sine, grads, zs))
        if residual <= settings.rel_tol or step == settings.max_iter:
            break
        for i in range(len(zs)):
            g = grads[i] if i == 0 else blocks()[i]
            zs[i] = g / np.linalg.norm(g)
    value = float(objective(*zs))
    return (tuple(zs) if product else zs[0]), value, residual


def sphere_max(objective, dim, settings=None, gradient=None):
    """Maximize an even convex objective over the unit sphere.

    Deterministic lattice seeding followed by the power iteration of
    ``_polish_on_sphere``, which needs ``gradient`` (a gradient or
    subgradient of the objective) for dim > 1; at dim = 1 the seed is the
    answer. Returns ``(argmax, value)`` with the argmax sign-canonicalized.
    """
    settings = settings or SphereSettings()
    seeds = sphere_lattice(dim, settings.seeds_per_dim * dim)
    values = np.array([float(objective(s)) for s in seeds])
    best = int(np.argmax(values))
    if dim == 1:
        return seeds[best], float(values[best])
    if gradient is None:
        raise DomainError("sphere search in dimension > 1 needs the gradient")
    z, value, _ = _polish_on_sphere(objective, gradient, seeds[best], settings)
    return matfun.canonical_sign(z), value


# ---------------------------------------------------------------------------
# results and requests


@dataclass(frozen=True)
class SharpDiagnostics:
    quad_error: float = 0.0
    search_residual: float = 0.0


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
    if request.kind == "H":
        return sharp_H(cs, request.p, request.t)
    if request.kind == "K_ell":
        return sharp_K_ell(cs, request.p, request.t, request.ell)
    if request.kind == "K":
        return sharp_K(cs, request.p, request.t)
    kw = dict(quad_tol=request.quad_tol, sphere=request.sphere)
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


def _gradient_prefactor(n, p, pp, log_det=0.0):
    """1 / {2^n pi^((n+p-1)/2) det}^(1/p) times the Gamma bracket.

    The p=infinity limit of the pi factor is 1/sqrt(pi) and is hard-coded;
    naive exponent arithmetic at p=infinity would silently drop it.
    """
    if math.isinf(p):
        return 1.0 / math.sqrt(math.pi)
    log_denom = (
        n * math.log(2.0) + 0.5 * (n + p - 1.0) * math.log(math.pi) + log_det
    ) / p
    return math.exp(-log_denom) * _gamma_bracket(n, pp)


def _solution_prefactor(n, p, pp, log_det=0.0):
    """(2 sqrt(pi))^(-n/p) det^( -1/p ) (p')^(-n/(2p'))."""
    if math.isinf(p):
        return 1.0
    return math.exp(-(n * math.log(_TWO_SQRT_PI) + log_det) / p) * _pprime_power(n, pp)


# ---------------------------------------------------------------------------
# initial-value constants (single window [0, t])


def _initial_value_result(acc, factor, pref, ell) -> SharpResult:
    """H or K on the window [0, t]: factor * |exp_ic_star| * prefactor."""
    norm, z = matfun.spectral_norm(acc.exp_ic_star)
    return SharpResult(
        value=float(factor * norm * pref),
        maximizer_z=z,
        maximizer_ell=ell,
        convergent=True,
        diagnostics=SharpDiagnostics(quad_error=acc.quad_error),
    )


def sharp_H(cs, p, t) -> SharpResult:
    """Sharp coefficient of |u(x,t)| <= H_p(t) ||initial data||_p."""
    pp = holder_conjugate(p)
    acc = cs.accumulated(0.0, _validate_time(cs, t))
    pref = _solution_prefactor(cs.n, p, pp, log_det=math.log(acc.det_ia_sqrt))
    return _initial_value_result(acc, 1.0, pref, None)


def sharp_K_ell(cs, p, t, ell) -> SharpResult:
    """Sharp coefficient of |du/dell (x,t)| <= K_{p,ell}(t) ||initial data||_p."""
    pp = holder_conjugate(p)
    t = _validate_time(cs, t)
    ell = _validate_ell(ell, cs.n)
    acc = cs.accumulated(0.0, t)
    pref = _gradient_prefactor(cs.n, p, pp, log_det=math.log(acc.det_ia_sqrt))
    factor = float(np.linalg.norm(acc.ia_inv_sqrt @ ell))
    return _initial_value_result(acc, factor, pref, ell)


def sharp_K(cs, p, t) -> SharpResult:
    """max over unit directions of K_{p,ell}: uses the norm of ia_inv_sqrt."""
    pp = holder_conjugate(p)
    acc = cs.accumulated(0.0, _validate_time(cs, t))
    pref = _gradient_prefactor(cs.n, p, pp, log_det=math.log(acc.det_ia_sqrt))
    factor, ell_star = matfun.spectral_norm(acc.ia_inv_sqrt)
    return _initial_value_result(acc, factor, pref, ell_star)


# ---------------------------------------------------------------------------
# convergence of the source-problem window integrals


def _convergence(cs, p, kind) -> bool:
    """Whether the window integral of a source constant converges at p.

    As the window w shrinks the integrand grows like w^(-e), with
    e = n (p' - 1) / 2, plus p' / 2 for the gradient kinds, for every
    continuous SPD A(t), since int A = w A(t) + o(w). So e < 1 exactly when
    p > (n + 2) / 2 for N and p > n + 2 for C_ell and C.
    """
    holder_conjugate(p)  # raises DomainError unless p >= 1
    threshold = (cs.n + 2.0) / 2.0 if kind == "N" else cs.n + 2.0
    return p > threshold


def converges_N(cs, p) -> bool:
    """Whether the solution-bound window integral converges at exponent p."""
    return _convergence(cs, p, "N")


def converges_C(cs, p) -> bool:
    """Whether the gradient-bound window integral converges at exponent p."""
    return _convergence(cs, p, "C")


# ---------------------------------------------------------------------------
# source-problem constants (window integrals over the source time)


# Nodes per piece of a window table: doubled from the start until two tables
# agree to quad_tol, or up to the cap. A sample time within _MIN_PIECE * t
# of t does not split the window: that piece would put nodes below the floor.
_NODES_START, _NODES_CAP, _MIN_PIECE = 16, 512, 1e-6


@dataclass(frozen=True)
class _WindowTables:
    """Quadrature nodes in the window length w with per-node data."""

    sigmas: np.ndarray  # sqrt(w) per node
    weights: np.ndarray  # rule weight * det^(1 - p')
    exps: np.ndarray  # exp_ic_star per node, (K, m, m)
    inv_sqrts: np.ndarray | None  # ia_inv_sqrt per node, (K, n, n)


@functools.lru_cache(maxsize=64)
def _gauss_jacobi(nodes, e):
    """Gauss rule on [-1, 1] for the weight (1 + x)^(-e), by Golub-Welsch.

    e = 0 is Gauss-Legendre. At 512 nodes this stays at roundoff, where
    scipy's ``roots_jacobi`` loses up to 1e-9 of an integral.
    """
    b = -e
    k = np.arange(1, nodes, dtype=float)
    s = 2.0 * k + b
    diag = np.concatenate([[b / (b + 2.0)], b * b / (s * (s + 2.0))])
    off = np.sqrt(4.0 * k * k * (k + b) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    x, vecs = eigh_tridiagonal(diag, off)
    return x, 2.0 ** (1.0 + b) / (1.0 + b) * vecs[0] ** 2


def _window_tables(cs, t, pp, with_gradient, nodes) -> _WindowTables:
    """Node table in w on [0, t] for the integrand w^(-e) * smooth.

    Pieces end where a sample time of a tabulated A or C enters the window.
    The first piece takes the Gauss-Jacobi rule of the weight w^(-e), with
    w^e folded into its weights; the others take Gauss-Legendre. Raises
    DomainError when a node is below the SPD floor: a window w has smallest
    eigenvalue about w lambda_min(A(t)), which must clear 1e-12.
    """
    e = 0.5 * cs.n * (pp - 1.0) + (0.5 * pp if with_gradient else 0.0)
    s = np.concatenate([[]] + [p.times for p in (cs.A, cs.C) if isinstance(p, Tabulated)])
    ends = np.unique(np.append(t - s[(s > 0.0) & (s < (1.0 - _MIN_PIECE) * t)], t))
    half = 0.5 * np.diff(ends, prepend=0.0)
    (xj, wj), (xl, wl) = _gauss_jacobi(nodes, e), _gauss_jacobi(nodes, 0.0)
    first = half[0] * (1.0 + xj)
    ws = np.concatenate([first, (ends[:-1, None] + half[1:, None] * (1.0 + xl)).ravel()])
    jacobi = half[0] ** (1.0 - e) * wj * first**e
    rule = np.concatenate([jacobi, np.outer(half[1:], wl).ravel()])
    lam_min = float(np.linalg.eigvalsh(matfun.symmetrize(cs.A(t)))[0])
    floor = max(WINDOW_FLOOR * cs.T, 2e-12 / lam_min)
    if ws[0] < floor:
        raise DomainError(f"time t={t:g} is too small for the window floor {floor:g}")
    accs = cs.windows(t, ws)
    dets = np.array([acc.det_ia_sqrt for acc in accs])
    exps = np.stack([acc.exp_ic_star for acc in accs])
    inv_sqrts = np.stack([acc.ia_inv_sqrt for acc in accs]) if with_gradient else None
    return _WindowTables(np.sqrt(ws), rule * dets ** (1.0 - pp), exps, inv_sqrts)


def _z_objective(weights, exps, pp):
    """Objective sum_k weights_k |exps_k z|^p' over z, and its gradient."""

    def objective(z):
        mags = np.linalg.norm(exps @ z, axis=1)
        return float(np.dot(weights, mags**pp))

    def gradient(z):
        vecs = exps @ z
        mags = np.linalg.norm(vecs, axis=1)
        coef = pp * weights * mags ** (pp - 2.0)
        return np.einsum("k,kij,kj->i", coef, np.transpose(exps, (0, 2, 1)), vecs)

    return objective, gradient


def _gram_maximizer(tables, ell_factors=None):
    """Exact z-maximizer at p'=2: top eigenvector of the Gram matrix."""
    w = tables.weights if ell_factors is None else tables.weights * ell_factors
    gram = np.einsum("k,kji,kjl->il", w, tables.exps, tables.exps)
    vals, vecs = matfun.sym_eigen(gram)
    return vecs[:, 0], float(vals[0])


def _maximize_z(tables, pp, settings, ell_factors=None):
    """z-maximizer of the node-table objective, weighted by ``ell_factors``.

    Exact at p'=2; otherwise the best lattice seed, polished. Returns
    (z, search residual).
    """
    if pp == 2.0:
        return _gram_maximizer(tables, ell_factors)[0], 0.0
    settings = settings or SphereSettings()
    m = tables.exps.shape[1]
    seeds = sphere_lattice(m, settings.seeds_per_dim * m)
    mags = np.linalg.norm(np.einsum("kij,sj->ksi", tables.exps, seeds), axis=2)
    w = tables.weights if ell_factors is None else tables.weights * ell_factors
    z0 = seeds[int(np.argmax(w @ mags**pp))]
    objective, gradient = _z_objective(w, tables.exps, pp)
    z, _, residual = _polish_on_sphere(objective, gradient, z0, settings)
    return z, residual


def _joint_objective(tables, pp):
    """Objective and gradient in (ell, z) of the C_p node-table integral."""
    w, exps, smats = tables.weights, tables.exps, tables.inv_sqrts

    def objective(ell, z):
        a = np.linalg.norm(smats @ ell, axis=1) ** pp
        b = np.linalg.norm(exps @ z, axis=1) ** pp
        return float(np.dot(w, a * b))

    def gradient(ell, z):
        svec = smats @ ell
        evec = exps @ z
        smag = np.linalg.norm(svec, axis=1)
        emag = np.linalg.norm(evec, axis=1)
        coef_l = pp * w * smag ** (pp - 2.0) * emag**pp
        coef_z = pp * w * smag**pp * emag ** (pp - 2.0)
        return (
            np.einsum("k,kij,kj->i", coef_l, np.transpose(smats, (0, 2, 1)), svec),
            np.einsum("k,kij,kj->i", coef_z, np.transpose(exps, (0, 2, 1)), evec),
        )

    return objective, gradient


def _maximize_ell_z(cs, tables, pp, settings):
    """Joint (ell, z) maximizer: best pair of lattice seeds, polished on the
    product of spheres. Returns (ell, z, search residual)."""
    settings = settings or SphereSettings()
    ell_seeds = sphere_lattice(cs.n, settings.seeds_per_dim * cs.n)
    z_seeds = sphere_lattice(cs.m, settings.seeds_per_dim * cs.m)
    a = np.linalg.norm(np.einsum("kij,sj->ksi", tables.inv_sqrts, ell_seeds), axis=2)
    b = np.linalg.norm(np.einsum("kij,sj->ksi", tables.exps, z_seeds), axis=2)
    grid = (tables.weights[:, None] * a**pp).T @ b**pp
    i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
    objective, gradient = _joint_objective(tables, pp)
    (ell, z), _, residual = _polish_on_sphere(
        objective, gradient, (ell_seeds[i], z_seeds[j]), settings
    )
    return ell, z, residual


def _tau_integral(tables, pp, z, ell=None):
    """Node-table sum of the window integrand at the maximizers z (and ell)."""
    terms = tables.weights * np.linalg.norm(tables.exps @ z, axis=1) ** pp
    if ell is not None:
        terms = terms * np.linalg.norm(tables.inv_sqrts @ ell, axis=1) ** pp
    return float(np.sum(terms))


def _table_maximum(kind, cs, t, pp, ell, sphere, nodes):
    """(integral, z, ell, search residual, node count) on one node table.

    The C maximization runs over both spheres jointly: it does not separate
    because the direction factor under the window integral depends on the
    source time.
    """
    tables = _window_tables(cs, t, pp, kind != "N", nodes)
    if cs.m == 1 and (kind != "C" or cs.n == 1):
        z, residual = np.array([1.0]), 0.0
        ell = np.array([1.0]) if kind == "C" else ell
    elif kind == "C":
        ell, z, residual = _maximize_ell_z(cs, tables, pp, sphere)
    else:
        factors = None
        if ell is not None:
            factors = np.linalg.norm(tables.inv_sqrts @ ell, axis=1) ** pp
        z, residual = _maximize_z(tables, pp, sphere, factors)
    return _tau_integral(tables, pp, z, ell), z, ell, residual, tables.sigmas.size


def _source_constant(kind, cs, p, t, ell, quad_tol, sphere) -> SharpResult:
    """N, C_ell or C: maximizers and window integral on one node table.

    The nodes per piece double until the maxima on K and 2K nodes agree to
    ``quad_tol`` relative, or until ``_NODES_CAP``. The integral's error is
    their difference, at least the rounding of a sum of that many terms, so
    a ``quad_error`` above ``quad_tol * value`` means the cap ran out.
    """
    pp = holder_conjugate(p)
    t = _validate_time(cs, t)
    if kind == "C_ell":
        ell = _validate_ell(ell, cs.n)
    if not _convergence(cs, p, kind):
        return SharpResult(
            value=INF, maximizer_z=None, maximizer_ell=None, convergent=False
        )
    nodes = _NODES_START
    coarse = _table_maximum(kind, cs, t, pp, ell, sphere, nodes)[0]
    while True:
        nodes *= 2
        integral, z, ell_star, residual, size = _table_maximum(
            kind, cs, t, pp, ell, sphere, nodes
        )
        error = max(abs(integral - coarse), size * np.finfo(float).eps * integral)
        if error <= quad_tol * integral or nodes >= _NODES_CAP:
            break
        coarse = integral
    prefactor = _solution_prefactor if kind == "N" else _gradient_prefactor
    value = prefactor(cs.n, p, pp) * integral ** (1.0 / pp)
    return SharpResult(
        value=value,
        maximizer_z=matfun.canonical_sign(z),
        maximizer_ell=None if ell_star is None else matfun.canonical_sign(ell_star),
        convergent=True,
        diagnostics=SharpDiagnostics(
            quad_error=value * error / (pp * integral), search_residual=residual
        ),
    )


def sharp_N(cs, p, t, quad_tol=DEFAULT_TOL, sphere=None) -> SharpResult:
    """Sharp coefficient of |u(x,t)| <= N_p(t) ||source||_{p,t}."""
    return _source_constant("N", cs, p, t, None, quad_tol, sphere)


def sharp_C_ell(cs, p, t, ell, quad_tol=DEFAULT_TOL, sphere=None) -> SharpResult:
    """Sharp coefficient of |du/dell (x,t)| <= C_{p,ell}(t) ||source||_{p,t}."""
    return _source_constant("C_ell", cs, p, t, ell, quad_tol, sphere)


def sharp_C(cs, p, t, quad_tol=DEFAULT_TOL, sphere=None) -> SharpResult:
    """max over unit directions of C_{p,ell}: joint search over both spheres."""
    return _source_constant("C", cs, p, t, None, quad_tol, sphere)


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
