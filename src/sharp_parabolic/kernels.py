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

    The quadratic form is summed in the order einsum("...i,ij,...j") takes on
    dense points, so grid values match it bit for bit, and exponentiated once.
    """
    m = acc.ia_inv
    q = 0.0
    for i in range(len(u)):
        for j in range(len(u)):
            q = q + (u[i] * m[i, j]) * u[j]
    logs = np.asarray(q)
    logs *= -0.25
    logs -= acc.log_gauss_norm
    return np.exp(logs, out=logs)


def kernel_weight(acc, u, ell=None, gaussian=None):
    """Scalar kernel factor at the displacement ``u`` (as in gaussian_field),
    times the gradient weight -(1/2) (ia_inv u, ell) when a direction is given.
    ``gaussian`` is gaussian_field(acc, u) when the caller already has it."""
    weight = gaussian_field(acc, u) if gaussian is None else gaussian
    if ell is not None:
        v = acc.ia_inv @ np.asarray(ell, dtype=float)
        weight = weight * (-0.5 * sum(u_i * v_i for u_i, v_i in zip(u, v)))
    return weight


def displacement(acc, x, axes):
    """Kernel argument (x - y) + int_b over an open grid of y, per axis."""
    x = np.broadcast_to(x, acc.ib.shape)
    return [(x_i - y_i) + b_i for x_i, y_i, b_i in zip(x, axes, acc.ib)]


def cell_grid(center, radii, points):
    """Cell midpoints of the box center +- radii with ``points`` cells per axis.

    ``radii`` is a scalar or one radius per axis. Returns the open grid, one
    coordinate array per axis shaped along that axis, and the spacings.
    """
    center = np.asarray(center, dtype=float)
    radii = np.broadcast_to(np.asarray(radii, dtype=float), center.shape)
    spacings = 2.0 * radii / points
    offsets = np.arange(points) + 0.5
    axes = [center[i] - radii[i] + offsets * spacings[i] for i in range(center.size)]
    return np.meshgrid(*axes, indexing="ij", sparse=True), spacings


def grid_nodes(axes):
    """Dense nodes, shape (points,)*n + (n,), of an open grid for callables."""
    return np.stack(np.broadcast_arrays(*axes), axis=-1)


def slice_grid(acc, x, truncation, points):
    """Open cell grid around the kernel peak x + int_b of one window.

    Each axis reaches ``truncation`` marginal deviations sqrt(2 ia_ii), so
    the spacing resolves the kernel equally well along every axis. Returns
    the axes, the spacings and the radii.
    """
    radii = truncation * np.sqrt(2.0 * np.diag(acc.ia))
    axes, spacings = cell_grid(np.asarray(x, dtype=float) + acc.ib, radii, points)
    return axes, spacings, radii


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
