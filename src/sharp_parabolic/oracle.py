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
from .errors import DomainError, TruncationError
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
    standard deviation.
    """

    kind: str
    cs: object
    x: np.ndarray
    t: float
    p: float
    ell: np.ndarray | None = None
    truncation_radius: float = 8.0
    grid_resolution: int = 257
    sigma_slices: int = 64

    def __post_init__(self):
        if self.kind not in HOMOGENEOUS_KINDS + SOURCE_KINDS:
            raise DomainError(f"unknown operator kind {self.kind!r}")
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        if self.truncation_radius < 6.0:
            raise DomainError("truncation radius must be at least 6 standard deviations")
        if self.grid_resolution < 17 or self.grid_resolution % 2 == 0:
            raise DomainError("grid resolution must be odd and >= 17")
        if self.p < 1.0:
            raise DomainError("p must be >= 1")
        if self.kind in ("K", "C"):
            if self.ell is None:
                raise DomainError(f"kind {self.kind} requires a direction ell")
            ell = np.asarray(self.ell, dtype=float)
            if abs(np.linalg.norm(ell) - 1.0) > 1e-12:
                raise DomainError("direction ell must be a unit vector")
            object.__setattr__(self, "ell", ell)

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


def _kernel_field(spec, acc, axes):
    """Scalar kernel factor on an open grid, including the gradient weight."""
    ell = spec.ell if spec.gradient else None
    return kernels.kernel_weight(acc, kernels.displacement(acc, spec.x, axes), ell)


def _boundary_max(mag):
    """Largest magnitude on the faces of the grid box."""
    return max(float(np.max(np.take(mag, [0, -1], axis=axis))) for axis in range(mag.ndim))


def _refined_sup(spec, acc, resolution, zoom_levels=3):
    """Supremum of the field magnitude: grid argmax plus local zooming."""
    axes, spacings, _ = kernels.slice_grid(acc, spec.x, spec.truncation_radius, resolution)
    mag = np.abs(_kernel_field(spec, acc, axes))
    best, boundary = -math.inf, _boundary_max(mag)
    for level in range(zoom_levels + 1):
        if level > 0:  # a box four cells wide around the best node so far
            axes, spacings = kernels.cell_grid(center, 2.0 * spacings, resolution)
            mag = np.abs(_kernel_field(spec, acc, axes))
        local = float(np.max(mag))
        if local > best:
            best = local
            index = np.unravel_index(int(np.argmax(mag)), mag.shape)
            center = np.array([axis.ravel()[i] for axis, i in zip(axes, index)])
    return best, boundary


def _slices(spec, endpoint_gap, sigma_slices):
    """(time weight, accumulated integrals) per quadrature slice."""
    if spec.kind in HOMOGENEOUS_KINDS:
        return [(1.0, spec.cs.accumulated(0.0, spec.t))]
    lo = math.sqrt(endpoint_gap) if endpoint_gap > 0.0 else 0.0
    hi = math.sqrt(spec.t)
    if not lo < hi:
        raise DomainError("endpoint gap leaves an empty time window")
    d_sigma = (hi - lo) / sigma_slices
    sigmas = lo + (np.arange(sigma_slices) + 0.5) * d_sigma
    accs = spec.cs.windows(spec.t, sigmas * sigmas)
    return [(2.0 * sigma * d_sigma, acc) for sigma, acc in zip(sigmas.tolist(), accs)]


def _collect(spec, resolution, sigma_slices, pp, endpoint_gap):
    """Per-slice quadrature of |field|^p' plus transposed coupling factors."""
    slices = _slices(spec, endpoint_gap, sigma_slices)
    weights = np.empty(len(slices))
    exps_t = np.empty((len(slices), spec.cs.m, spec.cs.m))
    tails = np.empty(len(slices))
    for k, (time_w, acc) in enumerate(slices):
        if math.isinf(pp):
            sup, boundary = _refined_sup(spec, acc, resolution)
            weights[k] = sup  # sup over y; combined by max across slices
            tails[k] = boundary
        else:
            axes, spacings, radii = kernels.slice_grid(
                acc, spec.x, spec.truncation_radius, resolution
            )
            mag = np.abs(_kernel_field(spec, acc, axes))
            cell = float(np.prod(spacings))
            weights[k] = time_w * cell * float(np.sum(mag**pp))
            tails[k] = (
                time_w * _boundary_max(mag) ** pp * float(np.prod(2.0 * radii))
            )
        exps_t[k] = acc.exp_ic.T
    return weights, exps_t, tails


def _z_max(weights, exps_t, pp, m, settings=None):
    """Sphere search of the discrete objective; trivial for m = 1."""
    if math.isinf(pp):

        def objective(z):
            return float(np.max(weights * matfun.component_norms(exps_t @ z)))

        def gradient(z):  # subgradient of the active term w_k |E_k z|
            vecs = exps_t @ z
            k = int(np.argmax(weights * matfun.component_norms(vecs)))
            return weights[k] / np.linalg.norm(vecs[k]) * (exps_t[k].T @ vecs[k])

    else:
        objective, gradient = sharp._z_objective(weights, exps_t, pp)
    return sharp.sphere_max(objective, m, settings, gradient=gradient)


def opnorm_bruteforce(spec: IntegralOperatorSpec, endpoint_gap=0.0, rel_tol=1e-6):
    """Operator norm of the solution functional by grid quadrature.

    For the source kinds a positive ``endpoint_gap`` truncates the time
    integral to tau <= t - gap, which is how divergent cases are probed.
    Raises TruncationError when the spatial tail bound exceeds ``rel_tol``
    of the computed value.
    """
    pp = sharp.holder_conjugate(spec.p)
    weights, exps_t, tails = _collect(
        spec, spec.grid_resolution, spec.sigma_slices, pp, endpoint_gap
    )
    z, best = _z_max(weights, exps_t, pp, spec.cs.m)
    value = best if math.isinf(pp) else best ** (1.0 / pp)

    coarse_res = _odd(max(17, spec.grid_resolution // 2))
    coarse_slices = max(2, spec.sigma_slices // 2)
    w_c, e_c, _ = _collect(spec, coarse_res, coarse_slices, pp, endpoint_gap)
    _, best_c = _z_max(w_c, e_c, pp, spec.cs.m)
    value_c = best_c if math.isinf(pp) else best_c ** (1.0 / pp)
    err = abs(value - value_c)

    if math.isinf(pp):
        tail_value = float(np.max(tails * matfun.component_norms(exps_t @ z)))
    else:
        tail_f = float(np.dot(tails, matfun.component_norms(exps_t @ z) ** pp))
        tail_value = (best + tail_f) ** (1.0 / pp) - value
    if value > 0.0 and tail_value > rel_tol * value:
        raise TruncationError(
            f"truncation tail bound {tail_value:.3g} exceeds {rel_tol:.1g} "
            f"of the computed norm {value:.6g}; enlarge the truncation radius"
        )
    return OracleResult(
        value=float(value),
        argmax_z=z,
        error_estimate=float(err),
        truncation_bound=float(tail_value),
    )


def _odd(k):
    return k if k % 2 == 1 else k + 1


def _transposed_kernel_field(spec, z, resolution):
    # The extremal lives on a cubic grid (a GridFunction), sized by the
    # largest principal deviation.
    acc = spec.cs.accumulated(0.0, spec.t)
    center = spec.x + acc.ib
    radius = spec.truncation_radius * kernels.kernel_std(acc)
    axes, _ = kernels.cell_grid(center, radius, resolution)
    field = _kernel_field(spec, acc, axes)[..., None] * (acc.exp_ic.T @ z)
    return field, axes, center, radius


def _default_profile(center, width):
    def profile(pts):
        return np.exp(-matfun.squared_distances(pts, center) / (2.0 * width * width))

    return profile


def build_extremal(spec, z, mode="p-power", profile=None, resolution=None):
    """Near-extremal initial data for the homogeneous kinds.

    'p-power' follows the conjugate-power construction (needs p > 1);
    'sign-aligned' multiplies the unit sign field of the transposed kernel
    by a scalar profile concentrated near the kernel peak. The samples are
    normalized to unit discrete p-norm.
    """
    if spec.kind not in HOMOGENEOUS_KINDS:
        raise DomainError(
            "extremal construction is implemented for the initial-data kinds"
        )
    z = np.asarray(z, dtype=float)
    z = z / np.linalg.norm(z)
    resolution = resolution or spec.grid_resolution
    field, axes, center, radius = _transposed_kernel_field(spec, z, resolution)
    mags = matfun.component_norms(field)
    nonzero = mags > 0.0
    if mode == "p-power":
        if spec.p <= 1.0:
            raise DomainError(
                "the conjugate-power extremal needs p > 1; "
                "use mode='sign-aligned' at p = 1"
            )
        pp = sharp.holder_conjugate(spec.p)
        power = np.zeros_like(mags)
        power[nonzero] = mags[nonzero] ** (pp - 2.0)
        values = field * power[..., None]
    elif mode == "sign-aligned":
        sign = np.zeros_like(field)
        sign[nonzero] = field[nonzero] / mags[nonzero][..., None]
        acc = spec.cs.accumulated(0.0, spec.t)
        if profile is None:
            profile = _default_profile(center, kernels.kernel_std(acc) / 8.0)
        values = sign * np.asarray(profile(kernels.grid_nodes(axes)), float)[..., None]
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
    return directional_derivative(
        spec.cs, "homogeneous", data, spec.x, spec.t, spec.ell
    )


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
        finer = build_extremal(
            spec,
            extremal.z,
            mode=extremal.mode,
            resolution=2 * extremal.samples.points_per_axis - 1,
        )
        refined = _one_ratio(spec, finer.samples, bound)
    return SaturationResult(ratio=ratio, refined_ratio=refined)


def _one_ratio(spec, samples, bound):
    achieved = _achieved(spec, samples)
    return float(np.linalg.norm(achieved.value) / (bound * samples.norm(spec.p)))
