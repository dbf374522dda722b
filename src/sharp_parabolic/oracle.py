"""Brute-force operator-norm machinery validating the sharp constants.

The solution functionals are linear in the data, so their norms equal the
supremum over unit output directions z of the conjugate-exponent norm of
the transposed kernel applied to z. This module computes those norms by
direct tensor-grid quadrature plus sphere search, with no use of the
closed-form constants, and builds near-extremal inputs that saturate the
estimates.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, matfun, sharp
from .errors import POSITIVE, DomainError, TruncationError, checked
from .solve import GridFunction, SolveSettings, directional_derivative, solve_homogeneous

HOMOGENEOUS_KINDS = ("H", "K")
SOURCE_KINDS = ("N", "C")
# The sharp constant that bounds each operator kind; K and C take its ell.
SHARP_KINDS = {"H": "H", "K": "K_ell", "N": "N", "C": "C_ell"}


@dataclass(frozen=True)
class IntegralOperatorSpec:
    """A solution functional at (x, t) whose operator norm is wanted.

    Kinds: 'H' (initial data -> solution value), 'K' (initial data ->
    directional derivative, needs ell), 'N' and 'C' (same for the source
    problem). ``truncation_radius`` is in units of the largest kernel
    standard deviation, ``grid_resolution`` is the odd cell count per axis and
    ``sigma_slices`` the source kinds' Gauss-Legendre nodes in sqrt(t - tau).
    The oracle also runs a coarse pass on (grid_resolution // 2) | 1 cells
    and half the nodes: at p > 1 the value is the h^2 extrapolation of the
    two passes, at p = 1 the fine pass's zoomed sup.
    """

    kind: str
    cs: object
    x: np.ndarray
    t: float
    p: float
    ell: np.ndarray | None = None
    truncation_radius: float = 8.0
    grid_resolution: int = 257
    sigma_slices: int = 16

    def __post_init__(self):
        if self.kind not in HOMOGENEOUS_KINDS + SOURCE_KINDS:
            raise DomainError(f"unknown operator kind {self.kind!r}")
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "t", sharp._validate_time(self.cs, self.t))
        checked(self.truncation_radius, "truncation radius", lambda v: v >= 6,
                "must be a finite number >= 6 (standard deviations)")
        checked(self.sigma_slices, "sigma_slices", lambda v: v >= 2, "must be an integer >= 2", int)
        checked(self.grid_resolution, "grid resolution", lambda v: v >= 17 and v % 2 == 1,
                "must be an odd integer >= 17", int)
        sharp.holder_conjugate(self.p)  # raises DomainError unless p >= 1
        if self.kind in ("K", "C"):
            if self.ell is None:
                raise DomainError(f"kind {self.kind} requires a direction ell")
            object.__setattr__(self, "ell", sharp._validate_ell(self.ell, self.cs.n))

    @property
    def gradient(self):
        return self.kind in ("K", "C")


@dataclass(frozen=True)
class OracleResult:
    value: float
    argmax_z: np.ndarray
    error_estimate: float
    truncation_bound: float


@dataclass(frozen=True)
class ExtremalInput:
    """Normalized near-extremal initial data aligned with an output direction."""

    mode: str  # 'p-power' or 'sign-aligned'
    z: np.ndarray
    samples: GridFunction


@dataclass(frozen=True)
class SaturationResult:
    ratio: float
    refined_ratio: float | None


def _boundary_max(mag):
    """Largest magnitude on the faces of the grid box."""
    return max(float(np.max(np.take(mag, [0, -1], axis=axis))) for axis in range(mag.ndim))


def _magnitude(spec, acc, u, gaussian):
    """|kernel factor| of ``spec`` on a grid whose Gaussian is given. The
    Gaussian is >= 0, so only a gradient-weighted field is abs'd, in place."""
    if not spec.gradient:
        return gaussian
    mag = kernels.kernel_weight(acc, u, spec.ell, gaussian)
    return np.abs(mag, out=mag)


def _grid_sup(mag, axes):
    """Largest magnitude on an open grid and the node where it sits."""
    index = np.unravel_index(int(np.argmax(mag)), mag.shape)
    return float(np.max(mag)), np.array([axis.ravel()[i] for axis, i in zip(axes, index)])


def _zoom(spec, acc, resolution, best, center, spacings, levels=3):
    """Refine a grid supremum on boxes four cells wide around the best node."""
    for _ in range(levels):
        axes, spacings = kernels.cell_grid(center, 2.0 * spacings, resolution)
        u = kernels.displacement(acc, spec.x, axes)
        local, node = _grid_sup(_magnitude(spec, acc, u, kernels.gaussian_field(acc, u)), axes)
        if local > best:
            best, center = local, node
    return best


def _slice_terms(specs, pps, acc, time_w, grid):
    """(weight, tail) of every spec of a family on one slice, all reduced
    from one Gaussian on the slice's ``grid`` (its rows of slice_grids): the
    quadrature of |field|^p' and a bound on its part beyond the grid, or at
    p' = inf the field's sup and boundary max. The sup zooms run after that
    Gaussian is released, so a zoom box never shares memory with it."""
    radii, spacings, axes, u = grid
    resolution, axes, u = axes.shape[-1], kernels.open_grid(axes), kernels.open_grid(u)
    cell, box = float(np.prod(spacings)), float(np.prod(2.0 * radii))
    gaussian = kernels.gaussian_field(acc, u)

    def reduce(spec, pp, mag):  # (weight or grid sup, tail, node of the sup)
        if math.isinf(pp):
            sup, node = _grid_sup(mag, axes)
            return sup, _boundary_max(mag), node
        tail = time_w * _boundary_max(mag) ** pp * box
        if pp != 1.0:  # x**1.0 == x; a weighted field is ours to overwrite
            if spec.gradient:
                mag **= pp
            else:
                mag = mag**pp
        return time_w * cell * float(np.sum(mag)), tail, None

    level = [reduce(spec, pp, _magnitude(spec, acc, u, gaussian)) for spec, pp in zip(specs, pps)]
    del gaussian
    return [
        (weight if node is None else _zoom(spec, acc, resolution, weight, node, spacings), tail)
        for spec, (weight, tail, node) in zip(specs, level)
    ]


def _slices(spec, endpoint_gap, sigma_slices):
    """Time weights and windows (a WindowBatch) of the slices: Gauss-Legendre
    nodes in sigma = sqrt(t - tau) on [sqrt(gap), sqrt(t)], weight 2 sigma
    dsigma. A (t - tau)^(-e) factor becomes sigma^(1 - 2e), smooth at e = 0
    and 1/2. The homogeneous kinds have the one window [0, t]."""
    if spec.kind in HOMOGENEOUS_KINDS:
        return [1.0], spec.cs.windows(spec.t, [spec.t])
    lo, hi = math.sqrt(endpoint_gap), math.sqrt(spec.t)
    if not lo < hi:
        raise DomainError("endpoint gap leaves an empty time window")
    nodes, weights = np.polynomial.legendre.leggauss(sigma_slices)
    half = 0.5 * (hi - lo)
    sigmas = lo + half * (nodes + 1.0)
    return (2.0 * half * weights * sigmas).tolist(), spec.cs.windows(spec.t, sigmas * sigmas)


def _collect(specs, pps, resolution, sigma_slices, endpoint_gap):
    """Per spec: slice weights (|field|^p' quadratures; sups at p' = inf),
    the transposed coupling factors and the slice tails. Every slice grid
    comes from one slice_grids pass."""
    head = specs[0]
    time_ws, windows = _slices(head, endpoint_gap, sigma_slices)
    grids = zip(*kernels.slice_grids(windows, head.x, head.truncation_radius, resolution))
    terms = [_slice_terms(specs, pps, acc, time_w, grid)
             for time_w, acc, grid in zip(time_ws, windows, grids)]
    exps_t = np.array(windows.exp_ic_star)
    return [
        (np.array(weights), exps_t, np.array(tails))
        for weights, tails in (zip(*per_slice) for per_slice in zip(*terms))
    ]


def family_key(spec):
    """Specs with equal keys form one oracle family: they share every slice
    grid and its Gaussian, and may differ in kind, p and ell."""
    return (id(spec.cs), spec.kind in HOMOGENEOUS_KINDS, spec.t, tuple(spec.x.tolist()),
            spec.truncation_radius, spec.grid_resolution, spec.sigma_slices)


def opnorm_family(specs, endpoint_gap=0.0, rel_tol=1e-6) -> list[OracleResult]:
    """Operator norms of a family of solution functionals by grid quadrature.

    One pass over the slices serves every spec: each slice builds its grid
    and Gaussian once. A second pass, with about twice the cell spacing and
    half the sigma nodes, gives the error estimate and, at p > 1, the h^2
    extrapolation that is the value (p = 1 sups are not extrapolated). For
    the source kinds a positive ``endpoint_gap`` truncates the time
    integral to tau <= t - gap, which is how divergent cases are probed.
    Raises DomainError when the specs are not one family (see family_key),
    or when ``endpoint_gap`` is not a number >= 0 or ``rel_tol`` one > 0,
    and TruncationError when a spec's spatial tail bound exceeds
    ``rel_tol`` of its computed value.
    """
    checked(endpoint_gap, "endpoint_gap", lambda v: v >= 0, "must be a finite number >= 0")
    checked(rel_tol, "rel_tol", *POSITIVE)
    specs = list(specs)
    if len({family_key(spec) for spec in specs}) != 1:
        raise DomainError("an oracle family is one or more specs with one family_key")
    pps = [sharp.holder_conjugate(spec.p) for spec in specs]
    head = specs[0]
    fine = _collect(specs, pps, head.grid_resolution, head.sigma_slices, endpoint_gap)
    coarse_res = (head.grid_resolution // 2) | 1  # odd, about twice the spacing
    coarse = _collect(specs, pps, coarse_res, max(2, head.sigma_slices // 2), endpoint_gap)
    ratio = head.grid_resolution / coarse_res
    return [_result(*args, ratio, rel_tol) for args in zip(specs, pps, fine, coarse)]


def opnorm_bruteforce(spec: IntegralOperatorSpec, endpoint_gap=0.0, rel_tol=1e-6):
    """Operator norm of one solution functional: its own family's pass."""
    return opnorm_family([spec], endpoint_gap, rel_tol)[0]


def _result(spec, pp, fine, coarse, ratio, rel_tol):
    """A spec's OracleResult from its fine and coarse slice terms, whose cell
    spacings differ by ``ratio``. At p' < inf the value is the h^2
    (Richardson) extrapolation of the two maximized slice sums; the zoomed
    sups at p' = inf (p = 1) are the fine pass's. The distance to the coarse
    pass's value is the error estimate."""
    weights, exps_t, tails = fine
    (z,), best, _ = sharp._maximize(weights, (exps_t,), pp, None)
    best_c = sharp._maximize(coarse[0], (coarse[1],), pp, None)[1]
    if math.isinf(pp):
        value, value_c = best, best_c
        tail_value = float(np.max(tails * matfun.component_norms(exps_t @ z)))
    else:
        best += (best - best_c) / (ratio * ratio - 1.0)
        value, value_c = best ** (1.0 / pp), best_c ** (1.0 / pp)
        tail_f = float(np.dot(tails, matfun.component_norms(exps_t @ z) ** pp))
        tail_value = (best + tail_f) ** (1.0 / pp) - value
    if value > 0.0 and tail_value > rel_tol * value:
        raise TruncationError(
            f"truncation tail bound {tail_value:.3g} exceeds {rel_tol:.1g} "
            f"of the computed norm {value:.6g}; enlarge the truncation radius"
        )
    return OracleResult(value=float(value), argmax_z=z, error_estimate=float(abs(value - value_c)),
                        truncation_bound=float(tail_value))


def build_extremal(spec, z, mode="p-power", resolution=None):
    """Near-extremal initial data for the homogeneous kinds.

    'p-power' follows the conjugate-power construction (needs p > 1);
    'sign-aligned' multiplies the unit sign field of the transposed kernel
    by a Gaussian profile, an eighth of the kernel's width, at its peak. The
    samples are normalized to unit discrete p-norm.
    """
    if spec.kind not in HOMOGENEOUS_KINDS:
        raise DomainError("extremal construction is implemented for the initial-data kinds")
    z = np.asarray(z, dtype=float)
    z = z / np.linalg.norm(z)
    # the samples live on a cubic grid (a GridFunction), sized by the
    # largest principal deviation
    acc = spec.cs.accumulated(0.0, spec.t)
    center = spec.x + acc.ib
    radius = spec.truncation_radius * kernels.kernel_std(acc)
    axes, _ = kernels.cell_grid(center, radius, resolution or spec.grid_resolution)
    ell = spec.ell if spec.gradient else None
    field = kernels.kernel_weight(acc, kernels.displacement(acc, spec.x, axes), ell)
    field = field[..., None] * (acc.exp_ic.T @ z)
    mags = matfun.component_norms(field)
    nonzero = mags > 0.0
    if mode == "p-power":
        if spec.p <= 1.0:
            raise DomainError("the conjugate-power extremal needs p > 1; "
                              "use mode='sign-aligned' at p = 1")
        pp = sharp.holder_conjugate(spec.p)
        power = np.zeros_like(mags)
        power[nonzero] = mags[nonzero] ** (pp - 2.0)
        values = field * power[..., None]
    elif mode == "sign-aligned":
        sign = np.zeros_like(field)
        sign[nonzero] = field[nonzero] / mags[nonzero][..., None]
        width = kernels.kernel_std(acc) / 8.0
        profile = np.exp(-sum(np.square(a - c) for a, c in zip(axes, center))
                         / (2.0 * width * width))
        values = sign * profile[..., None]
    else:
        raise DomainError(f"unknown extremal mode {mode!r}")
    gf = GridFunction(center=center, radius=radius, values=values)
    norm = gf.norm(spec.p)
    if norm <= 0.0:
        raise DomainError("extremal construction produced a zero field")
    gf = GridFunction(center=center, radius=radius, values=values / norm)
    return ExtremalInput(mode=mode, z=z, samples=gf)


def sharp_value(spec, **options) -> float:
    """The sharp constant that bounds the functional of ``spec``.

    ``spec`` is an IntegralOperatorSpec or has the same kind, cs, p, t and
    ell; ``options`` are the SharpRequest fields quad_tol and sphere.
    """
    request = sharp.SharpRequest(
        kind=SHARP_KINDS[spec.kind], p=spec.p, t=spec.t, ell=spec.ell, **options
    )
    return sharp.evaluate_sharp(spec.cs, request).value


def _achieved(spec, data):
    if spec.kind == "H":
        return solve_homogeneous(spec.cs, data, spec.x, spec.t)
    return directional_derivative(spec.cs, "homogeneous", data, spec.x, spec.t, spec.ell)


def saturation_ratio(spec, extremal: ExtremalInput, refine=True) -> SaturationResult:
    """Achieved fraction of the sharp bound for a given input.

    Evaluates the solution functional at (x, t) and divides by the sharp
    coefficient times the discrete input norm; approaches 1 from below for
    the extremal constructions as the grid refines.
    """
    bound = sharp_value(spec)
    ratio = _one_ratio(spec, extremal.samples, bound)
    refined = None
    if refine:
        finer = build_extremal(spec, extremal.z, mode=extremal.mode,
                               resolution=2 * extremal.samples.points_per_axis - 1)
        refined = _one_ratio(spec, finer.samples, bound)
    return SaturationResult(ratio=ratio, refined_ratio=refined)


def _one_ratio(spec, samples, bound):
    achieved = _achieved(spec, samples)
    return float(np.linalg.norm(achieved.value) / (bound * samples.norm(spec.p)))
