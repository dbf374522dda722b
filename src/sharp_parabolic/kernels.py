"""Fundamental-matrix kernels of the coupled system and their gradients.

Both kernels share one Gaussian profile: a scalar factor determined by the
accumulated diffusion/drift integrals times the exponential of the
accumulated coupling matrix. The initial-value kernel uses the window
[0, t]; the source kernel uses [tau, t].
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelValue:
    """Kernel matrix at one space-time point, or at an array of points.

    ``matrix`` is scalar_part times the coupling exponential, and
    ``drift_shifted_point`` is the Gaussian argument x + int_b. For points x
    of shape (..., n) the fields have shapes (..., m, m), (...) and (..., n);
    for a single point ``scalar_part`` is a float.
    """

    matrix: np.ndarray
    scalar_part: float
    drift_shifted_point: np.ndarray


def gaussian_field(acc, u):
    """Scalar Gaussian factor at the displacement ``u``: n components that
    broadcast against each other (one point, or the axes of an open grid).

    The normalization and the terms -(1/4) m_ii u_i^2 are summed on the
    components; only the cross terms -(1/2) m_ij u_i u_j (i < j) are grid
    products, added in place before one in-place exp. Grid and dense values
    agree bit for bit, and with einsum("...i,ij,...j") to 1e-14.
    """
    m = acc.ia_inv
    logs = np.asarray(sum((np.square(u_i) * (-0.25 * m[i, i]) for i, u_i in enumerate(u)),
                          -acc.log_gauss_norm))
    for i in range(len(u)):
        for j in range(i):
            logs += (u[j] * (-0.5 * m[j, i])) * u[i]
    return np.exp(logs, out=logs)


def kernel_weight(acc, u, ell=None, gaussian=None):
    """Scalar kernel factor at the displacement ``u`` (as in gaussian_field),
    times the gradient weight -(1/2) (ia_inv u, ell) when a direction is given.
    ``gaussian`` is gaussian_field(acc, u) when the caller already has it."""
    weight = gaussian_field(acc, u) if gaussian is None else gaussian
    if ell is not None:
        v = -0.5 * (acc.ia_inv @ np.asarray(ell, dtype=float))
        slope = np.asarray(sum(u_i * v_i for u_i, v_i in zip(u, v)))  # new: ours to scale
        weight = np.multiply(slope, weight, out=slope)
    return weight


def displacement(acc, x, axes):
    """Kernel argument (x - y) + int_b over an open grid of y, per axis."""
    x = np.broadcast_to(x, acc.ib.shape)
    return [(x_i - y_i) + b_i for x_i, y_i, b_i in zip(x, axes, acc.ib)]


def open_grid(rows):
    """Rows (..., n, G) as an open grid: row i shaped along grid axis i."""
    *lead, n, g = rows.shape
    return [rows[..., i, :].reshape(lead + [g if j == i else 1 for j in range(n)])
            for i in range(n)]


def _cell_rows(center, radii, points):
    """Cell midpoints (center - radii) + (i + 1/2) spacing, (..., n, points)."""
    steps = 2.0 * radii / points
    return (center - radii)[..., None] + (np.arange(points) + 0.5) * steps[..., None], steps


def cell_grid(center, radii, points):
    """Cell midpoints of the box center +- radii (a scalar or one radius per
    axis) with ``points`` cells per axis: the open grid and the spacings."""
    center = np.asarray(center, dtype=float)
    radii = np.broadcast_to(np.asarray(radii, dtype=float), center.shape)
    rows, spacings = _cell_rows(center, radii, points)
    return open_grid(rows), spacings


def grid_nodes(axes):
    """Dense nodes (points,)*n + (n,) of an open grid: a view of n planes."""
    planes = np.empty((len(axes),) + tuple(a.size for a in axes))
    for plane, axis in zip(planes, axes):
        plane[...] = axis
    return planes.transpose(tuple(range(1, len(axes) + 1)) + (0,))


def slice_grids(windows, x, truncation, points):
    """Cell grids around the kernel peaks x + int_b of the K windows of a
    WindowBatch (one window leaves K out), built in one array pass. Axis i
    reaches ``truncation`` marginal deviations sqrt(2 ia_ii), so the spacing
    resolves the kernel equally well along every axis. Returns the radii and
    spacings, each (K, n), and the axes and kernel arguments (x - y) + int_b,
    each (K, n, points) (see open_grid): window k's are bit-identical to
    cell_grid and displacement on it alone."""
    x = np.asarray(x, dtype=float)
    radii = truncation * np.sqrt(2.0 * np.diagonal(windows.ia, axis1=-2, axis2=-1))
    axes, spacings = _cell_rows(x + windows.ib, radii, points)
    return radii, spacings, axes, (x[..., None] - axes) + windows.ib[..., None]


def _kernel_values(acc, x, gradient=False):
    """The kernel at the points x of shape (..., n), or, with ``gradient``,
    the list of its spatial-derivative components."""
    u = np.asarray(x, dtype=float) + acc.ib
    parts = [gaussian_field(acc, np.moveaxis(u, -1, 0))]
    if gradient:
        weights = -0.5 * (acc.ia_inv @ u[..., None])[..., 0]
        parts = [weights[..., j] * parts[0] for j in range(u.shape[-1])]
    values = [
        KernelValue(part[..., None, None] * acc.exp_ic, part if part.ndim else float(part), u)
        for part in parts
    ]
    return values if gradient else values[0]


def eval_G(cs, x, t) -> KernelValue:
    """Initial-value kernel G(x, t) for t > 0, at one point or at the points
    of an array of shape (..., n)."""
    return _kernel_values(cs.accumulated(0.0, t), x)


def eval_grad_G(cs, x, t):
    """Spatial gradient of G: component j is -(1/2){ia_inv (x + int_b)}_j G,
    one KernelValue per component; x as in eval_G."""
    return _kernel_values(cs.accumulated(0.0, t), x, gradient=True)


def eval_P(cs, x, t, tau) -> KernelValue:
    """Source kernel P(x, t, tau) for 0 <= tau < t; P(., t, 0) == G(., t)."""
    return _kernel_values(cs.accumulated(tau, t), x)


def eval_grad_P(cs, x, t, tau):
    """Spatial gradient of P, window analogue of eval_grad_G."""
    return _kernel_values(cs.accumulated(tau, t), x, gradient=True)


def kernel_std(acc) -> float:
    """Largest principal standard deviation sqrt(2 lambda_max(ia)) of the kernel."""
    return float(np.sqrt(2.0 * acc.ia_eigenvalues[0]))
