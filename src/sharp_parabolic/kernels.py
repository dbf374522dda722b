"""Fundamental-matrix kernels of the coupled system and their gradients.

Both kernels share one Gaussian profile: a scalar factor determined by the
accumulated diffusion/drift integrals times the exponential of the
accumulated coupling matrix. The initial-value kernel uses the window
[0, t]; the source kernel uses [tau, t].
"""

from dataclasses import dataclass

import numpy as np

from .quadrature import DEFAULT_TOL

# Below this log value the Gaussian factor is returned as exact zero.
LOG_UNDERFLOW = -745.0


@dataclass(frozen=True)
class KernelValue:
    """Kernel matrix at one space-time point.

    ``matrix`` is scalar_part times the coupling exponential, and
    ``drift_shifted_point`` is the Gaussian argument x + int_b.
    """

    matrix: np.ndarray
    scalar_part: float
    drift_shifted_point: np.ndarray


def gaussian_field(acc, u):
    """Scalar Gaussian factor at displaced points ``u`` of shape (..., n).

    Evaluated in log space and exponentiated once; underflow below
    exp(LOG_UNDERFLOW) yields exact zero.
    """
    u = np.asarray(u, dtype=float)
    q = np.einsum("...i,ij,...j->...", u, acc.ia_inv, u)
    logs = -0.25 * q - acc.log_gauss_norm
    out = np.exp(np.maximum(logs, LOG_UNDERFLOW))
    return np.where(logs < LOG_UNDERFLOW, 0.0, out)


def directional_weight(acc, u, ell):
    """Gradient weight -(1/2) (ia_inv u, ell) at points ``u`` of shape (..., n)."""
    u = np.asarray(u, dtype=float)
    return -0.5 * (u @ (acc.ia_inv @ np.asarray(ell, dtype=float)))


def kernel_weight(acc, u, ell=None):
    """Scalar kernel factor at displaced points ``u``, times the gradient
    weight along ``ell`` when a direction is given."""
    weight = gaussian_field(acc, u)
    if ell is not None:
        weight = weight * directional_weight(acc, u, ell)
    return weight


def cell_grid(center, radii, points):
    """Cell midpoints of the box center +- radii with ``points`` cells per axis.

    ``radii`` is a scalar or one radius per axis. Returns the nodes, shape
    (points,)*n + (n,), and the per-axis spacings.
    """
    center = np.asarray(center, dtype=float)
    radii = np.broadcast_to(np.asarray(radii, dtype=float), center.shape)
    spacings = 2.0 * radii / points
    offsets = np.arange(points) + 0.5
    axes = [center[i] - radii[i] + offsets * spacings[i] for i in range(center.size)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1), spacings


def slice_grid(acc, x, truncation, points):
    """Cell grid around the kernel peak x + int_b of one window.

    Each axis reaches ``truncation`` marginal deviations sqrt(2 ia_ii), so
    the spacing resolves the kernel equally well along every axis. Returns
    the nodes, the spacings and the radii.
    """
    radii = truncation * np.sqrt(2.0 * np.diag(acc.ia))
    nodes, spacings = cell_grid(np.asarray(x, dtype=float) + acc.ib, radii, points)
    return nodes, spacings, radii


def _kernel_value(acc, x):
    u = np.asarray(x, dtype=float) + acc.ib
    s = float(gaussian_field(acc, u))
    return KernelValue(matrix=s * acc.exp_ic, scalar_part=s, drift_shifted_point=u)


def _kernel_gradient(acc, x):
    u = np.asarray(x, dtype=float) + acc.ib
    s = float(gaussian_field(acc, u))
    weights = -0.5 * (acc.ia_inv @ u)
    return [
        KernelValue(matrix=w * s * acc.exp_ic, scalar_part=w * s, drift_shifted_point=u)
        for w in weights
    ]


def eval_G(cs, x, t, tol=DEFAULT_TOL) -> KernelValue:
    """Initial-value kernel G(x, t) for t > 0."""
    return _kernel_value(cs.accumulated(0.0, t, tol), x)


def eval_grad_G(cs, x, t, tol=DEFAULT_TOL):
    """Spatial gradient of G: component j is -(1/2){ia_inv (x + int_b)}_j G."""
    return _kernel_gradient(cs.accumulated(0.0, t, tol), x)


def eval_P(cs, x, t, tau, tol=DEFAULT_TOL) -> KernelValue:
    """Source kernel P(x, t, tau) for 0 <= tau < t; P(., t, 0) == G(., t)."""
    return _kernel_value(cs.accumulated(tau, t, tol), x)


def eval_grad_P(cs, x, t, tau, tol=DEFAULT_TOL):
    """Spatial gradient of P, window analogue of eval_grad_G."""
    return _kernel_gradient(cs.accumulated(tau, t, tol), x)


def kernel_std(acc) -> float:
    """Largest principal standard deviation sqrt(2 lambda_max(ia)) of the kernel."""
    return float(np.sqrt(2.0 * acc.ia_eigenvalues[0]))
