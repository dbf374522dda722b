import math

import numpy as np
import pytest

import sharp_parabolic as sp
from sharp_parabolic import kernels
from sharp_parabolic.solve import GridFunction

PEAK = 1.0 / (2.0 * math.sqrt(math.pi))


def heat():
    return sp.coefficient_set(n=1, m=1, T=2.0)


def test_heat_kernel_peak():
    g = sp.eval_G(heat(), np.array([0.0]), 1.0)
    assert g.matrix[0, 0] == pytest.approx(PEAK, rel=1e-12)
    assert g.scalar_part > 0


def test_heat_kernel_off_peak():
    g = sp.eval_G(heat(), np.array([2.0]), 1.0)
    assert g.matrix[0, 0] == pytest.approx(math.exp(-1.0) * PEAK, rel=1e-12)


def test_constant_drift_shifts_kernel():
    beta = 0.8
    cs = sp.coefficient_set(n=1, m=1, T=2.0, b=np.array([beta]))
    plain = heat()
    for x in (-1.0, 0.0, 0.7):
        for t in (0.5, 1.0, 1.7):
            shifted = sp.eval_G(cs, np.array([x]), t).matrix[0, 0]
            reference = sp.eval_G(plain, np.array([x + beta * t]), t).matrix[0, 0]
            assert shifted == pytest.approx(reference, rel=1e-12)


def test_kernel_value_invariant():
    cs = sp.coefficient_set(n=2, m=2, T=1.0, C=np.array([[0.1, 0.4], [0.0, -0.2]]))
    kv = sp.eval_G(cs, np.array([0.3, -0.2]), 0.8)
    acc = cs.accumulated(0.0, 0.8)
    np.testing.assert_allclose(
        kv.matrix, kv.scalar_part * acc.exp_ic, rtol=1e-12, atol=1e-300
    )
    np.testing.assert_allclose(kv.drift_shifted_point, np.array([0.3, -0.2]) + acc.ib)


def test_gradient_vanishes_at_peak():
    cs = sp.coefficient_set(n=2, m=1, T=1.0, b=np.array([0.3, -0.6]))
    acc = cs.accumulated(0.0, 1.0)
    x = -acc.ib
    for comp in sp.eval_grad_G(cs, x, 1.0):
        assert abs(comp.scalar_part) < 1e-15


def test_gradient_heat_value():
    g = sp.eval_grad_G(heat(), np.array([1.0]), 1.0)[0]
    expected = -0.5 * math.exp(-0.25) * PEAK
    assert g.matrix[0, 0] == pytest.approx(expected, rel=1e-12)


def test_gradient_matches_finite_differences():
    cs = sp.coefficient_set(
        n=2,
        m=2,
        T=1.0,
        A=np.array([[1.0, 0.3], [0.3, 2.0]]),
        b=np.array([0.2, -0.1]),
        C=np.array([[0.1, 0.5], [-0.2, 0.0]]),
    )
    x = np.array([0.4, -0.9])
    t = 0.7
    grads = sp.eval_grad_G(cs, x, t)
    for j in range(2):
        h = 1e-5 * (1.0 + np.linalg.norm(x))
        e = np.zeros(2)
        e[j] = h
        fd = (sp.eval_G(cs, x + e, t).matrix - sp.eval_G(cs, x - e, t).matrix) / (
            2.0 * h
        )
        np.testing.assert_allclose(grads[j].matrix, fd, rtol=1e-6)


def test_gradient_anisotropic_ratio():
    cs = sp.coefficient_set(n=2, m=1, T=1.0, A=np.diag([1.0, 4.0]))
    grads = sp.eval_grad_G(cs, np.array([1.0, 1.0]), 1.0)
    # ia_inv = diag(1, 1/4) weights the components 4:1
    assert grads[0].scalar_part / grads[1].scalar_part == pytest.approx(4.0, rel=1e-12)


def test_P_at_zero_tau_equals_G():
    cs = sp.coefficient_set(n=1, m=2, T=1.5, C=np.array([[0.0, 1.0], [0.0, 0.0]]))
    x = np.array([0.4])
    g = sp.eval_G(cs, x, 1.2)
    p = sp.eval_P(cs, x, 1.2, 0.0)
    np.testing.assert_array_equal(g.matrix, p.matrix)


def test_P_time_translation_invariance():
    cs = sp.coefficient_set(n=1, m=1, T=2.0, A=np.array([[1.3]]), b=np.array([0.5]), C=0.2)
    x = np.array([0.6])
    first = sp.eval_P(cs, x, 1.0, 0.25).matrix[0, 0]
    second = sp.eval_P(cs, x, 1.75, 1.0).matrix[0, 0]
    assert first == pytest.approx(second, rel=1e-12)


def test_P_scalar_coupling_value():
    cs = sp.coefficient_set(n=1, m=1, T=2.0, C=1.0)
    value = sp.eval_P(cs, np.array([0.0]), 1.5, 0.5).matrix[0, 0]
    assert value == pytest.approx(math.e * PEAK, rel=1e-12)


def test_underflow_returns_exact_zero():
    g = sp.eval_G(heat(), np.array([200.0]), 1.0)
    assert g.scalar_part == 0.0


def test_mass_identity():
    # integral of G over space equals the coupling exponential
    cs = sp.coefficient_set(
        n=1, m=2, T=1.0, A=np.array([[1.4]]), b=np.array([-0.3]),
        C=np.array([[0.2, 0.7], [0.1, -0.1]]),
    )
    t = 0.9
    acc = cs.accumulated(0.0, t)
    std = kernels.kernel_std(acc)
    ys = np.linspace(-10.0 * std, 10.0 * std, 4001)[:, None]
    values = np.stack([sp.eval_P(cs, y, t, 0.0).matrix for y in ys])
    integral = np.trapezoid(values, ys[:, 0], axis=0)
    np.testing.assert_allclose(integral, acc.exp_ic, atol=1e-8)


def _pde_residual(cs, x, t, h_t, h_x):
    """Centered second-order residual of the evolution equation for G."""
    n = cs.n
    a = np.asarray(cs.A(t), dtype=float)
    b = np.asarray(cs.b(t), dtype=float)
    c = np.asarray(cs.C(t), dtype=float)
    g = lambda xx, tt: sp.eval_G(cs, xx, tt).matrix
    dt = (g(x, t + h_t) - g(x, t - h_t)) / (2.0 * h_t)
    residual = dt - c @ g(x, t)
    for j in range(n):
        e_j = np.zeros(n)
        e_j[j] = h_x
        residual -= b[j] * (g(x + e_j, t) - g(x - e_j, t)) / (2.0 * h_x)
        for k in range(n):
            e_k = np.zeros(n)
            e_k[k] = h_x
            second = (
                g(x + e_j + e_k, t)
                - g(x + e_j - e_k, t)
                - g(x - e_j + e_k, t)
                + g(x - e_j - e_k, t)
            ) / (4.0 * h_x * h_x)
            residual -= a[j, k] * second
    return residual


@pytest.mark.parametrize(
    "cs,x",
    [
        (sp.coefficient_set(n=1, m=1, T=2.0), np.array([0.7])),
        (
            sp.coefficient_set(
                n=1,
                m=1,
                T=2.0,
                A=sp.Affine(np.array([[1.0]]), np.array([[0.5]])),
                b=np.array([0.4]),
                C=sp.Affine(np.array([[0.2]]), np.array([[-0.3]])),
            ),
            np.array([-0.5]),
        ),
        (
            sp.coefficient_set(
                n=2, m=2, T=2.0, A=np.diag([1.0, 2.0]), b=np.array([0.1, 0.2]),
                C=np.array([[0.0, 1.0], [0.0, 0.0]]),
            ),
            np.array([0.3, -0.4]),
        ),
    ],
)
def test_pde_residual_with_richardson(cs, x):
    t = 1.0
    scale = np.max(np.abs(sp.eval_G(cs, x, t).matrix)) / t
    coarse = _pde_residual(cs, x, t, 2e-3, 2e-3)
    fine = _pde_residual(cs, x, t, 1e-3, 1e-3)
    extrapolated = (4.0 * fine - coarse) / 3.0
    assert np.max(np.abs(extrapolated)) <= 1e-4 * scale


def test_chapman_kolmogorov_constant_coupling():
    cs = sp.coefficient_set(
        n=1, m=2, T=2.0, A=np.array([[1.2]]), b=np.array([0.3]),
        C=np.array([[0.1, 0.6], [0.2, -0.3]]),
    )
    t, s, tau = 1.6, 0.9, 0.2
    x = np.array([0.5])
    w = np.array([-0.4])
    acc = cs.accumulated(tau, t)
    std = kernels.kernel_std(acc)
    ys = np.linspace(-12.0 * std, 12.0 * std, 4001)[:, None]
    left = np.stack([sp.eval_P(cs, x - y, t, s).matrix for y in ys])
    right = np.stack([sp.eval_P(cs, y - w, s, tau).matrix for y in ys])
    composed = np.trapezoid(np.matmul(left, right), ys[:, 0], axis=0)
    direct = sp.eval_P(cs, x - w, t, tau).matrix
    np.testing.assert_allclose(composed, direct, atol=1e-6 * np.max(np.abs(direct)))


def test_cell_grid_matches_axis_nodes():
    gf = GridFunction(
        center=[0.3, -1.2, 2.0], radius=1.7, values=np.zeros((5, 5, 5, 1))
    )
    axes, spacings = kernels.cell_grid(gf.center, gf.radius, gf.points_per_axis)
    for axis in range(3):
        shape = [1, 1, 1]
        shape[axis] = 5
        assert axes[axis].shape == tuple(shape)
        np.testing.assert_array_equal(axes[axis].ravel(), gf.axis_nodes(axis))
        np.testing.assert_array_equal(gf.axes()[axis], axes[axis])
    nodes = gf.nodes()
    assert nodes.shape == (5, 5, 5, 3)
    for axis in range(3):
        line = [2, 2, 2]
        line[axis] = slice(None)
        np.testing.assert_array_equal(nodes[tuple(line) + (axis,)], gf.axis_nodes(axis))
        assert nodes[..., axis].flags.c_contiguous  # one plane per axis
    np.testing.assert_array_equal(spacings, np.full(3, gf.spacing))


def _rotated(n):
    """SPD matrix with distinct eigenvalues along rotated axes."""
    q, _ = np.linalg.qr(np.random.default_rng(7 + n).standard_normal((n, n)))
    return q @ np.diag(np.linspace(0.6, 2.2, n)) @ q.T


OPEN_GRID_SETS = [
    sp.coefficient_set(n=1, m=1, T=1.0, A=np.array([[1.7]]), b=np.array([0.4])),
    sp.coefficient_set(n=2, m=1, T=1.0, A=_rotated(2), b=np.array([0.3, -0.5])),
    sp.coefficient_set(
        n=2, m=2, T=1.0, A=sp.Affine(_rotated(2), np.array([[0.2, -0.3], [-0.3, 0.5]])),
        b=np.array([-0.2, 0.1]), C=np.array([[0.1, 0.4], [0.0, -0.2]]),
    ),
    sp.coefficient_set(n=3, m=1, T=1.0, A=_rotated(3), b=np.array([0.2, -0.1, 0.3])),
]


def _dense_reference(acc, x, nodes, ell):
    """The kernel weight evaluated point by point on dense nodes: the
    quadratic form by einsum and one exp per node."""
    u = (x - nodes) + acc.ib
    q = np.einsum("...i,ij,...j->...", u, acc.ia_inv, u)
    logs = -0.25 * q - acc.log_gauss_norm
    weight = np.exp(logs)
    if ell is not None:
        weight = weight * (-0.5 * (u @ (acc.ia_inv @ ell)))
    return weight, logs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_slice_grids_match_cell_grid_around_each_kernel_peak(n):
    cs = sp.coefficient_set(n=n, m=1, T=1.0, A=sp.Affine(_rotated(n), 0.3 * _rotated(n)),
                            b=np.linspace(0.4, -0.3, n))
    x, points = np.linspace(0.3, -0.4, n), 9
    batch = cs.windows(0.9, np.square(np.linspace(0.1, 0.9, 7)))
    radii, spacings, axes, u = kernels.slice_grids(batch, x, 8.0, points)
    assert radii.shape == spacings.shape == (7, n)
    assert axes.shape == u.shape == (7, n, points)
    for k, acc in enumerate(batch):
        reach = 8.0 * np.sqrt(2.0 * np.diag(acc.ia))
        grid, steps = kernels.cell_grid(x + acc.ib, reach, points)
        # the grid as np.meshgrid builds it from per-axis cell midpoints
        center, step = x + acc.ib, 2.0 * reach / points
        mesh = np.meshgrid(*(center[i] - reach[i] + (np.arange(points) + 0.5) * step[i]
                             for i in range(n)), indexing="ij", sparse=True)
        np.testing.assert_array_equal(radii[k], reach)
        np.testing.assert_array_equal(spacings[k], steps)
        np.testing.assert_array_equal(steps, step)
        pairs = [(kernels.open_grid(axes[k]), grid), (grid, mesh),
                 (kernels.open_grid(u[k]), kernels.displacement(acc, x, grid))]
        for built, expected in pairs:
            for a, b in zip(built, expected, strict=True):
                assert a.shape == b.shape
                np.testing.assert_array_equal(a, b)
    # one window alone gives its row of the batch
    for alone, stacked in zip(kernels.slice_grids(batch[3], x, 8.0, points),
                              (radii, spacings, axes, u), strict=True):
        np.testing.assert_array_equal(alone, stacked[3])


@pytest.mark.parametrize("cs", OPEN_GRID_SETS, ids=lambda cs: f"n{cs.n}")
@pytest.mark.parametrize("directional", [False, True])
@pytest.mark.parametrize("grid", ["slice", "wide", "zoom"])
def test_open_grid_field_matches_dense_reference(cs, directional, grid):
    acc = cs.accumulated(0.2, 0.9)
    x = np.linspace(0.3, -0.4, cs.n)
    ell = np.linspace(1.0, 2.0, cs.n) / np.linalg.norm(np.linspace(1.0, 2.0, cs.n))
    ell = ell if directional else None
    points = {1: 257, 2: 65, 3: 17}[cs.n]
    if grid == "zoom":
        # an off-centre zoom box as the oracle's local refinement builds it
        spacings = kernels.slice_grids(acc, x, 8.0, points)[1]
        axes, _ = kernels.cell_grid(x + acc.ib + 1.5 * kernels.kernel_std(acc),
                                    2.0 * spacings, points)
    else:
        # "wide" reaches 45 marginal deviations, far past the exp underflow
        axes = kernels.open_grid(
            kernels.slice_grids(acc, x, 8.0 if grid == "slice" else 45.0, points)[2])
    field = kernels.kernel_weight(acc, kernels.displacement(acc, x, axes), ell)
    reference, logs = _dense_reference(acc, x, kernels.grid_nodes(axes), ell)
    if ell is None:  # dense points take the grid's operations
        dense = sp.eval_P(cs, x - kernels.grid_nodes(axes), 0.9, 0.2).scalar_part
        np.testing.assert_array_equal(field, dense)
    assert field.shape == reference.shape == (points,) * cs.n
    assert field.size == reference.size
    scale = np.max(np.abs(reference))
    assert scale > 0.0
    assert np.max(np.abs(field - reference)) <= 1e-14 * scale
    tail = logs < -746.0
    if grid == "wide":
        assert np.any(tail)
    assert np.all(field[tail] == 0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_point_arrays_match_single_points_bitwise(n):
    cs = sp.coefficient_set(n=n, m=2, T=1.5, A=np.array([[1.3, 0.2], [0.2, 0.7]])[:n, :n],
                            b=np.array([0.4, -0.3])[:n], C=np.array([[0.1, 0.5], [-0.2, 0.3]]))
    xs = np.random.default_rng(17).normal(scale=2.0, size=(3, 5, n))
    for evaluate in (lambda x: sp.eval_G(cs, x, 1.2), lambda x: sp.eval_P(cs, x, 1.2, 0.3)):
        batch = evaluate(xs)
        assert batch.matrix.shape == (3, 5, 2, 2)
        for index in np.ndindex(xs.shape[:-1]):
            single = evaluate(xs[index])
            assert isinstance(single.scalar_part, float)
            assert batch.scalar_part[index] == single.scalar_part
            np.testing.assert_array_equal(batch.matrix[index], single.matrix)
            np.testing.assert_array_equal(batch.drift_shifted_point[index],
                                          single.drift_shifted_point)
    for gradient in (lambda x: sp.eval_grad_G(cs, x, 1.2),
                     lambda x: sp.eval_grad_P(cs, x, 1.2, 0.3)):
        batch = gradient(xs)
        assert len(batch) == n
        for index in np.ndindex(xs.shape[:-1]):
            for component, single in zip(batch, gradient(xs[index])):
                assert component.scalar_part[index] == single.scalar_part
                np.testing.assert_array_equal(component.matrix[index], single.matrix)
