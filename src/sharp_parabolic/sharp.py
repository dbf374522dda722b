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
from .coeffs import window_scaling_exponents  # noqa: F401  (wrapped by bench/tracer.py)
from .errors import COUNT, POSITIVE, DomainError, checked
from .quadrature import DEFAULT_TOL, piecewise_error, piecewise_rule
from .quadrature import adaptive_quadrature  # noqa: F401  (wrapped by bench/tracer.py)

INF = math.inf
KINDS = ("H", "K_ell", "K", "N", "C_ell", "C")

_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


def holder_conjugate(p: float) -> float:
    """Conjugate exponent p' with 1/p + 1/p' = 1; pairs 1 <-> infinity."""
    if p != INF:
        p = checked(p, "exponent p", lambda v: v >= 1.0, "must be a number with p >= 1, or inf")
    if p == 1.0:
        return INF
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


# ---------------------------------------------------------------------------
# sphere maximization


@dataclass(frozen=True)
class SphereSettings:
    """Deterministic seeding and stop test of the sphere search (Newton
    steps, power steps where those would not climb): ``seeds_per_dim``
    lattice seeds per sphere dimension (an integer >= 1) and the residual
    ``rel_tol`` (> 0) at which a polish stops; a larger one means that the
    1000-step budget ran out."""

    seeds_per_dim: int = 64
    rel_tol: float = 1e-9

    def __post_init__(self):
        checked(self.seeds_per_dim, "seeds_per_dim", *COUNT)
        checked(self.rel_tol, "sphere rel_tol", *POSITIVE)


# steps a polish may take before it stops short of rel_tol
_MAX_STEPS = 1000


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


def _newton_point(zs, grads, tangents, hess):
    """The Riemannian Newton point from the blocks zs, each renormalized, or
    None unless the tangent Hessian P H P - diag((z_j.g_j) I_j) (P projects
    onto the tangent space) is negative definite. It maps each normal z_j to
    -(z_j.g_j) z_j and the tangent space to itself, where the step lies."""
    sizes = [z.size for z in zs]
    block = np.repeat(np.arange(len(zs)), sizes)
    z = np.concatenate(zs)
    proj = np.eye(z.size) - np.where(block[:, None] == block, np.outer(z, z), 0.0)
    shift = np.repeat([np.dot(g, b) for g, b in zip(grads, zs)], sizes)
    vals, vecs = np.linalg.eigh(proj @ hess @ proj - np.diag(shift))
    if vals[-1] >= 0.0:
        return None
    z = z - vecs @ ((vecs.T @ np.concatenate(tangents)) / vals)
    return [b / np.linalg.norm(b) for b in np.split(z, np.cumsum(sizes)[:-1])]


def _polish_on_sphere(objective, gradient, hessian, z0, settings):
    """Monotone Newton iteration on a product of spheres from the tuple of
    start vectors z0; returns (z, value, residual) with z a tuple.

    Each callable takes one vector per sphere: the gradient returns one block
    per sphere (only block i with block=i), the Hessian the Euclidean one of
    the stacked vectors. A step is the Riemannian Newton step, quadratic near
    a nondegenerate maximum, where the tangent Hessian is negative definite
    and f does not fall; else each block takes a power step in turn, z_i <-
    g_i/|g_i| with g_i its block of grad f(z). For a convex f that cannot
    lower f: f(g/|g|) >= f(z) + g.(g/|g| - z) >= f(z), as |g| >= g.z. A
    node-table sum with weights of both signs (e > 1/2) is convex only up to
    its quadrature error, and so is monotone only up to it. The residual is
    |tangent gradient| / |gradient| at ``z`` (blocks combined with
    ``math.hypot``); the loop stops once it is at most ``settings.rel_tol``,
    so a larger one means that the ``_MAX_STEPS`` steps ran out.
    """
    zs = [np.asarray(b, dtype=float) for b in z0]
    zs = [b / np.linalg.norm(b) for b in zs]
    value = float(objective(*zs))

    def sine(g, tangent):
        norm = np.linalg.norm(g)  # zero only where f vanishes: nothing to climb
        return np.linalg.norm(tangent) / norm if norm > 0.0 else 0.0

    for step in range(_MAX_STEPS + 1):
        grads = [np.asarray(g, dtype=float) for g in gradient(*zs)]
        tangents = [_tangent_gradient(g, z) for g, z in zip(grads, zs)]
        residual = math.hypot(*map(sine, grads, tangents))
        if residual <= settings.rel_tol or step == _MAX_STEPS:
            break
        trial = _newton_point(zs, grads, tangents, hessian(*zs))
        if trial is not None and (trial_value := float(objective(*trial))) >= value:
            zs, value = trial, trial_value
            continue
        for i, g in enumerate(grads):
            if i:  # the blocks before it have moved
                (g,) = gradient(*zs, block=i)
            zs[i] = g / np.linalg.norm(g)
        value = float(objective(*zs))
    return tuple(zs), value, residual


def _objective(weights, mats, pp):
    """Objective sum_k weights_k prod_j |mats[j]_k v_j|^p' over one unit
    vector v_j per stack, its gradient, one block per stack, and its
    Hessian over the stacked v. A zero term (|mats[j]_k v_j| = 0, from
    underflow) adds no slope and no curvature."""

    def terms(vs):
        vecs = [m @ v for m, v in zip(mats, vs)]
        mags = [np.linalg.norm(x, axis=1) for x in vecs]
        safe = [np.where(mag > 0.0, mag, 1.0) for mag in mags]
        # d|x|^p'/dv = p' |x|^(p'-2) E^T x; slopes holds p' |x|^(p'-2)
        slopes = [pp * (mag > 0.0) * s ** (pp - 2.0) for mag, s in zip(mags, safe)]
        etxs = [np.einsum("kji,kj->ki", m, x) for m, x in zip(mats, vecs)]  # E^T x
        return [mag**pp for mag in mags], safe, slopes, etxs

    def others(powers, *skip):
        return weights * math.prod(power for j, power in enumerate(powers) if j not in skip)

    def objective(*vs):
        powers = [np.linalg.norm(m @ v, axis=1) ** pp for m, v in zip(mats, vs)]
        return float(np.dot(weights, math.prod(powers)))

    def gradient(*vs, block=None):
        powers, _, slopes, etxs = terms(vs)
        return tuple((others(powers, b) * slopes[b]) @ etxs[b]
                     for b in (range(len(mats)) if block is None else (block,)))

    def hessian(*vs):
        powers, safe, slopes, etxs = terms(vs)
        rows = [[None] * len(mats) for _ in mats]
        for i in range(len(mats)):
            # d2|x|^p'/dv2 = p' |x|^(p'-2) E^T E + p' (p'-2) |x|^(p'-4) (E^T x)(E^T x)^T
            coef = others(powers, i) * slopes[i]
            units = etxs[i] / safe[i][:, None]
            rows[i][i] = (np.einsum("k,kai,kaj->ij", coef, mats[i], mats[i])
                          + (pp - 2.0) * np.einsum("k,ki,kj->ij", coef, units, units))
            for j in range(i):
                rows[i][j] = np.einsum("k,ki,kj->ij", others(powers, i, j) * slopes[i] * slopes[j],
                                       etxs[i], etxs[j])
                rows[j][i] = rows[i][j].T
        return np.block(rows)

    return objective, gradient, hessian


def _maximize(weights, mats, pp, settings):
    """Maximizer over unit vectors v_j, one per (K, d, d) stack in the tuple
    ``mats`` (one or two stacks), of sum_k weights_k prod_j |mats[j]_k v_j|^p',
    or of max_k weights_k |mats[0]_k v| at p' = inf.

    Returns (vs, value, search residual). One stack has exact cases: a
    one-column stack gives v = [1]; with one term or at p' = inf the
    maximum is max_k w_k sigma_k^p' (w_k sigma_k at p' = inf) by one batched
    SVD; at p' = 2 it is the Gram matrix's top eigenpair. Otherwise each
    stack's lattice seeds are scored in one batch (an outer-product grid for
    two stacks) and the best is polished. Every v but [1] is sign-canonical.
    """
    if len(mats) == 1:
        (a,) = mats
        if a.shape[2] == 1:
            mags = np.linalg.norm(a[:, :, 0], axis=1)
            value = np.max(weights * mags) if math.isinf(pp) else np.dot(weights, mags**pp)
            return (np.array([1.0]),), float(value), 0.0
        if len(weights) == 1 or math.isinf(pp):
            _, sigmas, vts = np.linalg.svd(a)
            tops = weights * (sigmas[:, 0] if math.isinf(pp) else sigmas[:, 0] ** pp)
            k = int(np.argmax(tops))
            return (matfun.canonical_sign(vts[k, 0]),), float(tops[k]), 0.0
        if pp == 2.0:
            vals, vecs = matfun.sym_eigen(np.einsum("k,kji,kjl->il", weights, a, a))
            return (matfun.canonical_sign(vecs[:, 0]),), float(vals[0]), 0.0
    settings = settings or SphereSettings()
    seeds = [sphere_lattice(m.shape[2], settings.seeds_per_dim * m.shape[2]) for m in mats]
    # |m_k s|^p' for every term k and seed s: (K, d, S) products, squares summed per component
    powers = [matfun.squared_norms(np.moveaxis(m @ s.T, 1, 2)) ** (0.5 * pp)
              for m, s in zip(mats, seeds)]
    grid = weights @ powers[0] if len(mats) == 1 else (weights[:, None] * powers[0]).T @ powers[1]
    best = np.unravel_index(int(np.argmax(grid)), grid.shape)
    vs, value, residual = _polish_on_sphere(
        *_objective(weights, mats, pp), tuple(s[i] for s, i in zip(seeds, best)), settings
    )
    return tuple(map(matfun.canonical_sign, vs)), value, residual


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
        holder_conjugate(self.p)  # raises DomainError unless p >= 1
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
    return checked(t, "t", lambda v: 0.0 < v <= cs.T, f"outside (0, T={cs.T:g}]")


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


# Nodes per piece of a window table: 2K + 1 from the start while the
# error bound exceeds quad_tol, up to the cap.
_NODES_START, _NODES_CAP = 31, 511


@dataclass(frozen=True)
class _WindowTables:
    """Quadrature nodes in the window length w with per-node data."""

    sigmas: np.ndarray  # sqrt(w) per node
    weights: np.ndarray  # rule weight * dets
    dets: np.ndarray  # det^(1 - p') per node
    exps: np.ndarray  # exp_ic_star per node, (K, m, m)
    inv_sqrts: np.ndarray | None  # ia_inv_sqrt per node, (K, n, n)
    ends: np.ndarray  # the pieces' ends in w
    e: float  # the integrand's endpoint exponent, w^(-e)


def _window_tables(cs, t, pp, with_gradient, nodes) -> _WindowTables:
    """Node table in w on [0, t] for the integrand w^(-e) * smooth.

    Pieces end at the breaks of A and C (b enters no constant), each with
    ``piecewise_rule``'s ``nodes`` nodes, the first with the product weights
    of w^(-e). Raises DomainError when a node is below the SPD floor
    (``check_window_floor``).
    """
    e = 0.5 * cs.n * (pp - 1.0) + (0.5 * pp if with_gradient else 0.0)
    ends = cs.window_breaks(t, drift=False)
    ws, weights = piecewise_rule(ends, nodes, e)
    cs.check_window_floor(t, ws[0])
    batch = cs.windows(t, ws)
    dets = batch.det_ia_sqrt ** (1.0 - pp)
    return _WindowTables(np.sqrt(ws), weights * dets, dets, batch.exp_ic_star,
                         batch.ia_inv_sqrt if with_gradient else None, ends, e)


def _integrand(tables, pp, z, ell=None):
    """The window integrand at the nodes over det^(1 - p'): |exp_ic_star z|^p',
    times |ia_inv_sqrt ell|^p' when ``ell`` is given."""
    terms = np.linalg.norm(tables.exps @ z, axis=1) ** pp
    if ell is not None:
        terms = terms * np.linalg.norm(tables.inv_sqrts @ ell, axis=1) ** pp
    return terms


def _tau_integral(tables, pp, z, ell=None):
    """Node-table sum of the window integrand at the maximizers z (and ell),
    as ``_source_constant`` forms it."""
    return float(np.dot(tables.weights, _integrand(tables, pp, z, ell)))


def _source_constant(kind, cs, p, t, ell, quad_tol, sphere) -> SharpResult:
    """N, C_ell or C: one node table and one search per level.

    C is maximized over both spheres jointly: the direction factor under the
    window integral depends on the source time. The error is the integrand's
    ``piecewise_error`` at the maximizers, at least the rounding of sum
    |weight * term| (the weights alternate in sign for e > 1/2) over that
    many terms plus that of |exp(int C)|^p', about eps p' m t sup|C_ij|
    relative. K -> 2K + 1 nodes per piece until the error is within
    ``quad_tol`` relative or K is ``_NODES_CAP``, where it may stay above.
    """
    pp = holder_conjugate(p)
    t = _validate_time(cs, t)
    checked(quad_tol, "quad_tol", *POSITIVE)
    if kind == "C_ell":
        ell = _validate_ell(ell, cs.n)
    if not _convergence(cs, p, kind):
        return SharpResult(
            value=INF, maximizer_z=None, maximizer_ell=None, convergent=False
        )
    ic_bound = cs.m * t * cs.C.bound(t)
    nodes = _NODES_START
    while True:
        tables = _window_tables(cs, t, pp, kind != "N", nodes)
        if kind == "C" and cs.m * cs.n > 1:
            stacks = (tables.inv_sqrts, tables.exps)
            (ell, z), _, residual = _maximize(tables.weights, stacks, pp, sphere)
        else:
            ell = np.array([1.0]) if kind == "C" else ell
            factors = 1.0 if ell is None else np.linalg.norm(tables.inv_sqrts @ ell, axis=1) ** pp
            (z,), _, residual = _maximize(tables.weights * factors, (tables.exps,), pp, sphere)
        terms = _integrand(tables, pp, z, ell)
        integral = float(np.dot(tables.weights, terms))
        magnitude = np.dot(np.abs(tables.weights), terms)
        rounding = (tables.sigmas.size + pp * ic_bound) * np.finfo(float).eps * magnitude
        error = max(piecewise_error(tables.ends, tables.dets * terms, tables.e), rounding)
        if error <= quad_tol * integral or nodes >= _NODES_CAP:
            break
        nodes = 2 * nodes + 1
    prefactor = _solution_prefactor if kind == "N" else _gradient_prefactor
    value = prefactor(cs.n, p, pp) * integral ** (1.0 / pp)
    return SharpResult(
        value=value,
        maximizer_z=z,
        maximizer_ell=ell,
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
