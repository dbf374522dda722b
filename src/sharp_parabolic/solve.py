"""Solution evaluation by convolution quadrature against the kernels.

The initial-value solution convolves the kernel against sampled data on a
uniform grid (midpoint rule); the source-problem solution adds a time
integral with the substitution tau = t - sigma^2 that removes the endpoint
singularity of the kernel ingredients.
"""

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import kernels, matfun
from .errors import POSITIVE, CoverageWarning, DomainError, checked
from .quadrature import piecewise_error, piecewise_rule
from .sharp import _validate_ell, holder_conjugate

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

# what kernels.gaussian_field reads of a window
_Window = namedtuple("_Window", "ia_inv log_gauss_norm")


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
            raise DomainError(f"values must have {n} grid axes plus a component axis")
        pts = self.values.shape[0]
        if any(s != pts for s in self.values.shape[:n]):
            raise DomainError("grid must have equal points per axis")
        if pts % 2 == 0 or pts < 3:
            raise DomainError("points per axis must be odd and >= 3")
        checked(self.radius, "grid radius", *POSITIVE)
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
        """Discrete L^p norm (midpoint rule) for p >= 1; p may be math.inf."""
        holder_conjugate(p)  # raises DomainError unless p >= 1
        mags = matfun.component_norms(self.values)
        if math.isinf(p):
            return float(np.max(mags))
        cell = self.spacing**self.n
        return float((np.sum(mags**p) * cell) ** (1.0 / p))

    @classmethod
    def from_callable(cls, fn, center, radius, points_per_axis):
        """Sample ``fn(points) -> (..., m)`` on the grid."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        radius = checked(radius, "grid radius", *POSITIVE)  # before it sizes the grid
        pts = kernels.grid_nodes(kernels.cell_grid(center, radius, points_per_axis)[0])
        vals = np.asarray(fn(pts), dtype=float)
        vals = vals[..., None] if vals.ndim == pts.ndim - 1 else vals  # scalar-valued fn
        return cls(center=center, radius=radius, values=vals)


@dataclass(frozen=True)
class SourceFunction:
    """Right-hand side f(y, tau) evaluated on the fly: ``evaluator(points,
    tau)`` maps an (..., n) array of spatial points and a scalar time to an
    (..., m) array, or to an (...) one for m = 1. The source solver calls it
    once per sigma node with a fresh (G,)*n + (n,) array of that node's grid
    nodes, planar (one contiguous plane per axis), which the callable may keep."""

    evaluator: object

    def __call__(self, points, tau):
        vals = np.asarray(self.evaluator(points, tau), dtype=float)
        return vals[..., None] if vals.ndim == np.ndim(points) - 1 else vals


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
        checked(self.sigma_slices, "sigma_slices", lambda v: v >= 4 and v % 2 == 0,
                "must be an even integer >= 4", int)
        checked(self.grid_points, "grid_points", lambda v: v >= 3 and v % 2 == 1,
                "must be an odd integer >= 3", int)
        checked(self.truncation_sigmas, "truncation_sigmas", lambda v: v >= 6,
                "must be a finite number >= 6")


def _check_coverage(phi, peak, std):
    reach = np.abs(peak - phi.center) + 8.0 * std
    if np.any(reach > phi.radius + 1e-12):
        warnings.warn("data grid does not cover the kernel's 8-sigma neighborhood; "
                      "the convolution is truncated", CoverageWarning, stacklevel=4)


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
    return checked(t, "t", lambda v: 1e-10 * cs.T <= v <= cs.T,
                   f"outside [1e-10 T, T={cs.T:g}], the evaluation range")


def solve_homogeneous(cs, phi: GridFunction, x, t) -> SolveResult:
    """u(x, t) for initial data phi: midpoint convolution against the kernel."""
    return _convolve(cs, phi, x, _check_time(cs, t))


def _source_quadrature(cs, f, x, t, settings, gradient_ell=None, p=None):
    """One walk over Fejer's second rule in sigma = sqrt(t - tau) on each
    piece between the square roots of the window breaks. Every node has its
    own cell grid; those grids and all else that depends on the window alone
    are built once per walk. Per node f is sampled once, contracted with the
    kernel weights by one matvec, and feeds ||f||_{p,t} when ``p`` is given.
    The estimate is the Chebyshev tail bound of the per-node integrand, at
    least the rounding of the sums, without the truncated kernel mass. Returns
    (SolveResult, norm or None); non-finite source values raise DomainError."""
    if p is not None:
        holder_conjugate(p)  # raises DomainError unless p >= 1
    ends = np.sqrt(cs.window_breaks(t))
    sigmas, rule = piecewise_rule(ends, settings.sigma_slices - 1)
    cs.check_window_floor(t, sigmas[0] ** 2)
    batch = cs.windows(t, np.square(sigmas))
    _, spacings, axes, u = kernels.slice_grids(batch, x, settings.truncation_sigmas,
                                               settings.grid_points)
    slopes = ([()] * len(batch) if gradient_ell is None else  # -(1/2)(ia_inv u, ell) per axis
              zip(*kernels.open_grid(u * (-0.5 * (batch.ia_inv @ gradient_ell))[..., None])))
    windows = map(_Window, batch.ia_inv, batch.log_gauss_norm.tolist())
    shape, inners, norm_terms = (settings.grid_points,) * cs.n + (cs.m,), [], []
    for tau, window, y, u_k, slope, exp_ic in zip(
            (t - sigmas * sigmas).tolist(), windows, zip(*kernels.open_grid(axes)),
            zip(*kernels.open_grid(u)), slopes, batch.exp_ic):
        vals = f(kernels.grid_nodes(y), tau)
        if vals.shape != shape:
            raise DomainError(f"source values must have shape {shape}, not {vals.shape}")
        weight = kernels.gaussian_field(window, u_k)
        if slope:
            weight *= sum(slope)
        inner = weight.ravel() @ vals.reshape(-1, cs.m)
        term = 0.0
        if p is not None:  # at p = inf, the largest sum of squares; its root at the end
            squares = matfun.squared_norms(vals)
            term = np.max(squares) if math.isinf(p) else np.sum(np.sqrt(squares, out=squares) ** p)
        if not (np.isfinite(inner).all() and math.isfinite(term)):  # as a bad sample makes them
            raise DomainError("source values must be finite")
        inners.append(exp_ic @ inner)
        norm_terms.append(term)
    # weights in tau = t - sigma^2: d tau = 2 sigma d sigma, times the cell
    cells = np.prod(spacings, axis=1)
    weights, inners = 2.0 * sigmas * rule * cells, np.array(inners)
    terms = (2.0 * sigmas * cells)[:, None] * inners
    # at least the rounding of the sums: eps per node and per grid cell
    rounding = (rule.size + settings.grid_points**cs.n) * np.finfo(float).eps * (
        np.abs(rule) @ np.linalg.norm(terms, axis=1))
    result = SolveResult(value=sum(weights[:, None] * inners),  # node by node, in order
                         error_estimate=max(piecewise_error(ends, terms), rounding))
    if p is None:
        return result, None
    return result, float(np.sqrt(max(norm_terms)) if math.isinf(p)
                         else sum((weights * norm_terms).tolist()) ** (1.0 / p))


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
