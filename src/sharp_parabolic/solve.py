"""Solution evaluation by convolution quadrature against the kernels.

The initial-value solution convolves the kernel against sampled data on a
uniform grid (midpoint rule); the source-problem solution adds a time
integral with the substitution tau = t - sigma^2 that removes the endpoint
singularity of the kernel ingredients.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import CoverageWarning, DomainError
from .quadrature import DEFAULT_TOL

__all__ = [
    "GridFunction",
    "SourceFunction",
    "SolveResult",
    "SolveSettings",
    "solve_homogeneous",
    "solve_nonhomogeneous",
    "directional_derivative",
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

    def axis_nodes(self, axis):
        idx = np.arange(self.points_per_axis)
        return self.center[axis] - self.radius + (idx + 0.5) * self.spacing

    def nodes(self):
        """All grid nodes, shape (N,)*n + (n,)."""
        return kernels.cell_grid(self.center, self.radius, self.points_per_axis)[0]

    def norm(self, p) -> float:
        """Discrete L^p norm (midpoint rule); p may be math.inf."""
        mags = np.linalg.norm(self.values, axis=-1)
        if math.isinf(p):
            return float(np.max(mags))
        cell = self.spacing**self.n
        return float((np.sum(mags**p) * cell) ** (1.0 / p))

    @classmethod
    def from_callable(cls, fn, center, radius, points_per_axis, m=None):
        """Sample ``fn(points) -> (..., m)`` on the grid."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        probe = cls(
            center=center,
            radius=radius,
            values=np.zeros((points_per_axis,) * center.size + (1,)),
        )
        pts = probe.nodes()
        vals = np.asarray(fn(pts), dtype=float)
        if vals.ndim == pts.ndim - 1:  # scalar-valued callable
            vals = vals[..., None]
        return cls(center=center, radius=radius, values=vals)


@dataclass(frozen=True)
class SourceFunction:
    """Right-hand side f(y, tau) evaluated on the fly.

    ``evaluator(points, tau)`` maps an (..., n) array of spatial points and a
    scalar time to an (..., m) array. ``bound`` is a declared sup norm used
    for coverage diagnostics.
    """

    evaluator: object
    bound: float = 1.0

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
    """Tensor-quadrature controls for the source problem."""

    sigma_slices: int = 64
    grid_points: int = 129
    truncation_sigmas: float = 8.0


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
    x = np.asarray(x, dtype=float)
    _check_coverage(phi, x + acc.ib, kernels.kernel_std(acc))
    u = (x - phi.nodes()) + acc.ib
    weight = kernels.kernel_weight(acc, u, gradient_ell)
    flat_w = weight.reshape(-1)
    flat_v = phi.values.reshape(-1, phi.m)
    inner = flat_w @ flat_v
    coarse_w = weight[(slice(None, None, 2),) * phi.n].reshape(-1)
    coarse_v = phi.values[(slice(None, None, 2),) * phi.n].reshape(-1, phi.m)
    inner_coarse = coarse_w @ coarse_v
    cell = phi.spacing**phi.n
    fine = cell * (acc.exp_ic @ inner)
    coarse = (2.0**phi.n) * cell * (acc.exp_ic @ inner_coarse)
    return SolveResult(value=fine, error_estimate=float(np.linalg.norm(fine - coarse)))


def _check_time(cs, t):
    t = float(t)
    if not 0.0 < t <= cs.T:
        raise DomainError(f"t={t:g} outside (0, T]")
    if t < 1e-10 * cs.T:
        raise DomainError(f"t={t:g} below the evaluation floor 1e-10 T")
    return t


def solve_homogeneous(cs, phi: GridFunction, x, t, tol=DEFAULT_TOL) -> SolveResult:
    """u(x, t) for initial data phi: midpoint convolution against the kernel."""
    return _convolve(cs, phi, x, _check_time(cs, t))


def _source_slices(cs, x, t, settings):
    """Midpoint slices in sigma = sqrt(t - tau), each on its own cell grid.

    Yields (time weight, tau, window integrals, grid nodes, cell volume).
    """
    d_sigma = math.sqrt(t) / settings.sigma_slices
    sigmas = ((np.arange(settings.sigma_slices) + 0.5) * d_sigma).tolist()
    for sigma, acc in zip(sigmas, cs.windows(t, np.square(sigmas))):
        nodes, spacings, _ = kernels.slice_grid(
            acc, x, settings.truncation_sigmas, settings.grid_points
        )
        cell = float(np.prod(spacings))
        yield 2.0 * sigma * d_sigma, t - sigma * sigma, acc, nodes, cell


def _source_quadrature(cs, f, x, t, settings, gradient_ell=None):
    x = np.asarray(x, dtype=float)
    total = np.zeros(cs.m)
    for time_w, tau, acc, nodes, cell in _source_slices(cs, x, t, settings):
        weight = kernels.kernel_weight(acc, (x - nodes) + acc.ib, gradient_ell)
        inner = weight.reshape(-1) @ f(nodes, tau).reshape(-1, cs.m)
        total = total + time_w * cell * (acc.exp_ic @ inner)
    return total


def _source_solution(cs, f, x, t, settings, gradient_ell=None) -> SolveResult:
    """Source quadrature with its error estimate against a coarser pass."""
    settings = settings or SolveSettings()
    value = _source_quadrature(cs, f, x, t, settings, gradient_ell)
    coarse_settings = replace(
        settings,
        sigma_slices=max(2, settings.sigma_slices // 2),
        grid_points=_halve_odd(settings.grid_points),
    )
    coarse = _source_quadrature(cs, f, x, t, coarse_settings, gradient_ell)
    return SolveResult(value=value, error_estimate=float(np.linalg.norm(value - coarse)))


def solve_nonhomogeneous(
    cs, f: SourceFunction, x, t, settings=None, tol=DEFAULT_TOL
) -> SolveResult:
    """u(x, t) for source f and zero initial data, by tensor quadrature."""
    return _source_solution(cs, f, x, _check_time(cs, t), settings)


def _halve_odd(points):
    half = max(9, points // 2)
    return half if half % 2 == 1 else half + 1


def directional_derivative(
    cs, problem, data, x, t, ell, settings=None, tol=DEFAULT_TOL
) -> SolveResult:
    """(ell, grad_x) u at (x, t) for either problem kind.

    ``problem`` is 'homogeneous' (data: GridFunction) or 'nonhomogeneous'
    (data: SourceFunction).
    """
    ell = np.asarray(ell, dtype=float)
    if abs(np.linalg.norm(ell) - 1.0) > 1e-12:
        raise DomainError("direction ell must be a unit vector")
    t = _check_time(cs, t)
    if problem == "homogeneous":
        return _convolve(cs, data, x, t, gradient_ell=ell)
    if problem == "nonhomogeneous":
        return _source_solution(cs, data, x, t, settings, gradient_ell=ell)
    raise DomainError(f"unknown problem kind {problem!r}")


def spacetime_norm(cs, f: SourceFunction, x, t, p, settings=None, tol=DEFAULT_TOL):
    """Discrete ||f||_{p,t} on the same tensor grid the source solver uses.

    Matching the solver's nodes makes the discrete Hoelder chain, and hence
    the pointwise bounds, exact on the grid.
    """
    settings = settings or SolveSettings()
    t = _check_time(cs, t)
    acc_p = 0.0
    sup = 0.0
    for time_w, tau, _, nodes, cell in _source_slices(cs, x, t, settings):
        mags = np.linalg.norm(f(nodes, tau), axis=-1)
        if math.isinf(p):
            sup = max(sup, float(np.max(mags)))
        else:
            acc_p += time_w * cell * float(np.sum(mags**p))
    if math.isinf(p):
        return sup
    return acc_p ** (1.0 / p)
