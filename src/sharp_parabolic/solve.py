"""Solution evaluation by convolution quadrature against the kernels.

The initial-value solution convolves the kernel against sampled data on a
uniform grid (midpoint rule); the source-problem solution adds a time
integral with the substitution tau = t - sigma^2 that removes the endpoint
singularity of the kernel ingredients.
"""

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels, matfun
from .errors import CoverageWarning, DomainError
from .quadrature import piecewise_error, piecewise_rule
from .sharp import _validate_ell

__all__ = [
    "GridFunction",
    "SourceFunction",
    "SolveResult",
    "SolveSettings",
    "solve_homogeneous",
    "solve_nonhomogeneous",
    "directional_derivative",
    "solve_with_norm",
    "spacetime_norm",
]


@dataclass(frozen=True)
class GridFunction:
    """Vector field sampled at the cell midpoints of a uniform cube grid.

    ``values`` has shape (N,)*n + (m,), with node i at
    center - radius + (i + 1/2) * spacing along each axis.
    """

    center: np.ndarray
    radius: float
    values: np.ndarray

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        n = center.size
        if self.values.ndim != n + 1:
            raise DomainError(
                f"values must have {n} grid axes plus a component axis"
            )
        pts = self.values.shape[0]
        if any(s != pts for s in self.values.shape[:n]):
            raise DomainError("grid must have equal points per axis")
        if pts % 2 == 0 or pts < 3:
            raise DomainError("points per axis must be odd and >= 3")
        if not self.radius > 0:
            raise DomainError("grid radius must be positive")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid values must be finite")

    @property
    def n(self):
        return self.center.size

    @property
    def m(self):
        return self.values.shape[-1]

    @property
    def points_per_axis(self):
        return self.values.shape[0]

    @property
    def spacing(self):
        return 2.0 * self.radius / self.points_per_axis

    def axes(self):
        """The grid as an open grid: one coordinate array per axis."""
        return kernels.cell_grid(self.center, self.radius, self.points_per_axis)[0]

    def axis_nodes(self, axis):
        return self.axes()[axis].ravel()

    def nodes(self):
        """All grid nodes, shape (N,)*n + (n,)."""
        return kernels.grid_nodes(self.axes())

    def norm(self, p) -> float:
        """Discrete L^p norm (midpoint rule); p may be math.inf."""
        mags = matfun.component_norms(self.values)
        if math.isinf(p):
            return float(np.max(mags))
        cell = self.spacing**self.n
        return float((np.sum(mags**p) * cell) ** (1.0 / p))

    @classmethod
    def from_callable(cls, fn, center, radius, points_per_axis):
        """Sample ``fn(points) -> (..., m)`` on the grid."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        pts = kernels.grid_nodes(kernels.cell_grid(center, radius, points_per_axis)[0])
        vals = np.asarray(fn(pts), dtype=float)
        if vals.ndim == pts.ndim - 1:  # scalar-valued callable
            vals = vals[..., None]
        return cls(center=center, radius=radius, values=vals)


@dataclass(frozen=True)
class SourceFunction:
    """Right-hand side f(y, tau) evaluated on the fly.

    ``evaluator(points, tau)`` maps an (..., n) array of spatial points and a
    scalar time to an (..., m) array.
    """

    evaluator: object

    def __call__(self, points, tau):
        vals = np.asarray(self.evaluator(points, tau), dtype=float)
        points = np.asarray(points, dtype=float)
        if vals.ndim == points.ndim - 1:
            vals = vals[..., None]
        return vals


@dataclass(frozen=True)
class SolveResult:
    value: np.ndarray
    error_estimate: float


@dataclass(frozen=True)
class SolveSettings:
    """Tensor-quadrature controls for the source problem: S = ``sigma_slices``
    angle intervals of Fejer's second rule per piece in sigma (S - 1 nodes,
    an even integer >= 4), ``grid_points`` cells per axis (an odd integer
    >= 3) and a grid reach of ``truncation_sigmas`` (>= 6) kernel deviations.
    The error estimate leaves out the kernel's mass beyond that reach, about
    erfc(T / sqrt(2)) per axis at T = ``truncation_sigmas``: 2e-9 at T = 6."""

    sigma_slices: int = 32
    grid_points: int = 129
    truncation_sigmas: float = 8.0

    def __post_init__(self):
        for name in ("sigma_slices", "grid_points"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.sigma_slices < 4 or self.sigma_slices % 2:
            raise DomainError("sigma_slices must be even and >= 4")
        if self.grid_points < 3 or self.grid_points % 2 == 0:
            raise DomainError("grid_points must be odd and >= 3")
        if not self.truncation_sigmas >= 6.0:  # NaN fails too
            raise DomainError("truncation_sigmas must be at least 6")


def _check_coverage(phi, peak, std):
    reach = np.abs(peak - phi.center) + 8.0 * std
    if np.any(reach > phi.radius + 1e-12):
        warnings.warn(
            "data grid does not cover the kernel's 8-sigma neighborhood; "
            "the convolution is truncated",
            CoverageWarning,
            stacklevel=4,
        )


def _convolve(cs, phi, x, t, gradient_ell=None) -> SolveResult:
    """Midpoint convolution of grid data against the kernel, or against its
    derivative along ``gradient_ell``, with a coarse-grid error estimate."""
    if phi.n != cs.n or phi.m != cs.m:
        raise DomainError("grid dimensions do not match the coefficient set")
    acc = cs.accumulated(0.0, t)
    _check_coverage(phi, x + acc.ib, kernels.kernel_std(acc))
    u = kernels.displacement(acc, x, phi.axes())
    weight = kernels.kernel_weight(acc, u, gradient_ell)
    cell = phi.spacing**phi.n
    fine, coarse = (  # all nodes, and every other node per axis
        scale * cell * (acc.exp_ic @ np.tensordot(weight[sl], phi.values[sl], phi.n))
        for scale, sl in ((1.0, ()), (2.0**phi.n, (slice(None, None, 2),) * phi.n))
    )
    return SolveResult(value=fine, error_estimate=float(np.linalg.norm(fine - coarse)))


def _check_time(cs, t):
    t = float(t)
    if not 0.0 < t <= cs.T:
        raise DomainError(f"t={t:g} outside (0, T]")
    if t < 1e-10 * cs.T:
        raise DomainError(f"t={t:g} below the evaluation floor 1e-10 T")
    return t


def solve_homogeneous(cs, phi: GridFunction, x, t) -> SolveResult:
    """u(x, t) for initial data phi: midpoint convolution against the kernel."""
    return _convolve(cs, phi, x, _check_time(cs, t))


def _source_quadrature(cs, f, x, t, settings, gradient_ell=None, p=None):
    """One walk over Fejer's second rule in sigma = sqrt(t - tau) on each
    piece between the square roots of the window breaks; every node has its
    own cell grid. f is sampled once per node, that sample is contracted
    with the kernel weights by one matvec over the flattened grid, and it
    feeds ||f||_{p,t} with the solution's weights when ``p`` is given. The
    estimate is the Chebyshev tail bound of the per-node integrand
    (``piecewise_error``), at least the rounding of the node and cell sums,
    without the truncated kernel mass. Returns (SolveResult, norm or None)."""
    ends = np.sqrt(cs.window_breaks(t))
    sigmas, rule = piecewise_rule(ends, settings.sigma_slices - 1)
    cs.check_window_floor(t, sigmas[0] ** 2)
    value, terms, norm_terms = np.zeros(cs.m), [], []
    for sigma, weight_s, acc in zip(sigmas.tolist(), (2.0 * sigmas * rule).tolist(),
                                    cs.windows(t, np.square(sigmas))):
        axes, spacings, _ = kernels.slice_grid(
            acc, x, settings.truncation_sigmas, settings.grid_points
        )
        cell = float(np.prod(spacings))
        vals = f(kernels.grid_nodes(axes), t - sigma * sigma)
        weight = kernels.kernel_weight(acc, kernels.displacement(acc, x, axes), gradient_ell)
        if vals.shape != weight.shape + (cs.m,):
            raise DomainError(f"source values must have shape {weight.shape + (cs.m,)}, "
                              f"not {vals.shape}")
        inner = acc.exp_ic @ (weight.ravel() @ vals.reshape(-1, cs.m))
        # weights in tau = t - sigma^2: d tau = 2 sigma d sigma
        value = value + weight_s * cell * inner
        terms.append(2.0 * sigma * cell * inner)
        if p is not None:
            mags = matfun.component_norms(vals)
            norm_terms.append(np.max(mags) if math.isinf(p) else weight_s * cell * np.sum(mags**p))
    # at least the rounding of the sums: eps per node and per grid cell
    rounding = (rule.size + settings.grid_points**cs.n) * np.finfo(float).eps * (
        np.abs(rule) @ np.linalg.norm(terms, axis=1))
    result = SolveResult(value=value, error_estimate=max(piecewise_error(ends, terms), rounding))
    if p is None:
        return result, None
    return result, float(max(norm_terms) if math.isinf(p) else sum(norm_terms) ** (1.0 / p))


def solve_nonhomogeneous(cs, f: SourceFunction, x, t, settings=None) -> SolveResult:
    """u(x, t) for source f and zero initial data, by tensor quadrature."""
    return _source_quadrature(cs, f, x, _check_time(cs, t), settings or SolveSettings())[0]


def solve_with_norm(cs, problem, data, x, t, p=None, ell=None, settings=None):
    """u(x, t), or (ell, grad_x) u when ``ell`` is given, for either problem
    kind, with the data norm that its pointwise bound multiplies.

    ``problem`` is 'homogeneous' (data: GridFunction, norm ``phi.norm(p)``)
    or 'nonhomogeneous' (data: SourceFunction, norm ||f||_{p,t} from the
    solver's own pass, as ``spacetime_norm`` gives it). Returns
    (SolveResult, norm); the norm is None without ``p``.
    """
    if ell is not None:
        ell = _validate_ell(ell, cs.n)
    t = _check_time(cs, t)
    if problem == "homogeneous":
        return _convolve(cs, data, x, t, ell), None if p is None else data.norm(p)
    if problem == "nonhomogeneous":
        return _source_quadrature(cs, data, x, t, settings or SolveSettings(), ell, p)
    raise DomainError(f"unknown problem kind {problem!r}")


def directional_derivative(cs, problem, data, x, t, ell, settings=None) -> SolveResult:
    """(ell, grad_x) u at (x, t) for either problem kind (see solve_with_norm)."""
    ell = _validate_ell(ell, cs.n)  # a missing ell is not the plain value
    return solve_with_norm(cs, problem, data, x, t, ell=ell, settings=settings)[0]


def spacetime_norm(cs, f: SourceFunction, x, t, p, settings=None):
    """Discrete ||f||_{p,t}, read from the source solver's own pass: matching
    its nodes makes the discrete Hoelder chain, and hence the pointwise
    bounds, exact on the grid."""
    t = _check_time(cs, t)
    return _source_quadrature(cs, f, x, t, settings or SolveSettings(), p=p)[1]
