import math

import numpy as np
import pytest

import sharp_parabolic as sp
from sharp_parabolic.errors import CoverageWarning, DomainError
from sharp_parabolic.solve import GridFunction, SolveSettings, SourceFunction, spacetime_norm

INF = math.inf


def heat(T=2.0):
    return sp.coefficient_set(n=1, m=1, T=T)


def gaussian_grid(fn, radius=14.0, points=513, n=1):
    return GridFunction.from_callable(fn, center=np.zeros(n), radius=radius,
                                      points_per_axis=points)


def test_gridfunction_geometry_and_norms():
    values = np.zeros((5, 2))
    values[2] = [3.0, 4.0]
    gf = GridFunction(center=np.array([1.0]), radius=2.5, values=values)
    assert gf.spacing == pytest.approx(1.0)
    np.testing.assert_allclose(gf.axis_nodes(0), [-1.0, 0.0, 1.0, 2.0, 3.0])
    assert gf.norm(INF) == pytest.approx(5.0)
    assert gf.norm(1.0) == pytest.approx(5.0 * gf.spacing)
    assert gf.norm(2.0) == pytest.approx(5.0 * math.sqrt(gf.spacing))


def test_gridfunction_invariants():
    with pytest.raises(DomainError):
        GridFunction(center=np.zeros(1), radius=1.0, values=np.zeros((4, 1)))
    with pytest.raises(DomainError):
        GridFunction(center=np.zeros(1), radius=-1.0, values=np.zeros((5, 1)))
    with pytest.raises(DomainError):
        GridFunction(center=np.zeros(2), radius=1.0, values=np.zeros((5, 1)))


def test_constant_data_reproduced():
    # kernel mass identity: constant initial data propagates unchanged
    cs = sp.coefficient_set(n=1, m=2, T=2.0, A=np.array([[1.5]]), b=np.array([0.4]))
    c = np.array([0.7, -1.2])
    phi = gaussian_grid(lambda pts: np.broadcast_to(c, pts.shape[:-1] + (2,)),
                        radius=24.0, points=801)
    for x in (np.array([0.0]), np.array([1.3])):
        for t in (0.5, 1.8):
            res = sp.solve_homogeneous(cs, phi, x, t)
            np.testing.assert_allclose(res.value, c, rtol=1e-9)


def test_gaussian_gaussian_convolution_closed_form():
    s = 0.5
    cs = heat()
    phi = gaussian_grid(lambda pts: np.exp(-pts[..., 0] ** 2 / (4.0 * s)))
    for x in (0.0, 0.8, -1.6):
        for t in (0.4, 1.0):
            res = sp.solve_homogeneous(cs, phi, np.array([x]), t)
            expected = math.sqrt(s / (s + t)) * math.exp(-x * x / (4.0 * (s + t)))
            assert res.value[0] == pytest.approx(expected, rel=1e-8)
            assert abs(res.value[0] - expected) <= max(res.error_estimate * 5, 1e-8)


def test_nilpotent_coupling_mixes_components():
    # constant C = [[0,1],[0,0]]: first component picks up t * heat(phi_2)
    cs = sp.coefficient_set(n=1, m=2, T=2.0, C=np.array([[0.0, 1.0], [0.0, 0.0]]))
    scalar = heat()
    phi1 = lambda y: np.exp(-((y - 0.5) ** 2))
    phi2 = lambda y: np.exp(-2.0 * (y + 0.3) ** 2)
    phi = gaussian_grid(
        lambda pts: np.stack([phi1(pts[..., 0]), phi2(pts[..., 0])], axis=-1)
    )
    g1 = gaussian_grid(lambda pts: phi1(pts[..., 0]))
    g2 = gaussian_grid(lambda pts: phi2(pts[..., 0]))
    t = 0.9
    x = np.array([0.2])
    coupled = sp.solve_homogeneous(cs, phi, x, t).value
    heat1 = sp.solve_homogeneous(scalar, g1, x, t).value[0]
    heat2 = sp.solve_homogeneous(scalar, g2, x, t).value[0]
    assert coupled[0] == pytest.approx(heat1 + t * heat2, rel=1e-10)
    assert coupled[1] == pytest.approx(heat2, rel=1e-10)


def test_linearity():
    cs = heat()
    rng = np.random.default_rng(61)
    values_a = rng.standard_normal((129, 1))
    values_b = rng.standard_normal((129, 1))
    mk = lambda v: GridFunction(center=np.zeros(1), radius=12.0, values=v)
    x, t = np.array([0.3]), 1.0
    ua = sp.solve_homogeneous(cs, mk(values_a), x, t).value
    ub = sp.solve_homogeneous(cs, mk(values_b), x, t).value
    uab = sp.solve_homogeneous(cs, mk(2.0 * values_a - 3.0 * values_b), x, t).value
    np.testing.assert_allclose(uab, 2.0 * ua - 3.0 * ub, rtol=1e-12, atol=1e-15)


def test_coverage_warning_for_small_grid():
    cs = heat()
    phi = gaussian_grid(lambda pts: np.ones(pts.shape[:-1]), radius=2.0, points=33)
    with pytest.warns(CoverageWarning):
        sp.solve_homogeneous(cs, phi, np.array([0.0]), 1.5)


def test_directional_derivative_zero_at_symmetry_point():
    cs = heat()
    phi = gaussian_grid(lambda pts: np.exp(-pts[..., 0] ** 2))
    res = sp.directional_derivative(
        cs, "homogeneous", phi, np.array([0.0]), 1.0, np.array([1.0])
    )
    assert abs(res.value[0]) < 1e-12


def test_directional_derivative_sign_flip():
    cs = sp.coefficient_set(n=2, m=1, T=1.0)
    phi = GridFunction.from_callable(
        lambda pts: np.exp(-np.sum((pts - 0.4) ** 2, axis=-1)),
        center=np.zeros(2), radius=13.0, points_per_axis=129,
    )
    x, t = np.array([0.1, -0.2]), 0.8
    ell = np.array([0.6, 0.8])
    plus = sp.directional_derivative(cs, "homogeneous", phi, x, t, ell).value
    minus = sp.directional_derivative(cs, "homogeneous", phi, x, t, -ell).value
    np.testing.assert_allclose(plus, -minus, rtol=1e-12)


def test_directional_derivative_matches_finite_difference():
    cs = sp.coefficient_set(n=1, m=1, T=1.0, b=np.array([0.3]))
    phi = gaussian_grid(lambda pts: np.exp(-((pts[..., 0] - 0.7) ** 2)))
    x, t = np.array([0.25]), 0.9
    ell = np.array([1.0])
    exact = sp.directional_derivative(cs, "homogeneous", phi, x, t, ell).value[0]
    h = 1e-5
    fd = (
        sp.solve_homogeneous(cs, phi, x + h, t).value[0]
        - sp.solve_homogeneous(cs, phi, x - h, t).value[0]
    ) / (2.0 * h)
    assert exact == pytest.approx(fd, rel=1e-5)


def test_constant_source_grows_linearly():
    cs = sp.coefficient_set(n=1, m=2, T=1.5, b=np.array([-0.2]))
    c = np.array([0.8, -0.5])
    f = SourceFunction(lambda pts, tau: np.broadcast_to(c, pts.shape[:-1] + (2,)))
    for t in (0.5, 1.2):
        res = sp.solve_nonhomogeneous(cs, f, np.array([0.4]), t)
        np.testing.assert_allclose(res.value, t * c, rtol=1e-6)


def test_scalar_coupled_constant_source():
    c = 0.6
    cs = sp.coefficient_set(n=1, m=1, T=1.5, C=c)
    f = SourceFunction(lambda pts, tau: np.ones(pts.shape[:-1] + (1,)))
    t = 1.0
    res = sp.solve_nonhomogeneous(
        cs, f, np.array([0.0]), t, settings=SolveSettings(sigma_slices=256)
    )
    expected = (math.exp(c * t) - 1.0) / c
    assert res.value[0] == pytest.approx(expected, rel=2e-5)
    coarse = sp.solve_nonhomogeneous(cs, f, np.array([0.0]), t)
    assert abs(coarse.value[0] - expected) <= max(3.0 * coarse.error_estimate, 1e-6)


def test_gaussian_source_duhamel_closed_form():
    # f(y, tau) = heat kernel at width s + tau: the inner convolution is the
    # semigroup identity, so u(0, t) = t * G(0, s + t)
    s = 0.5
    cs = heat()

    def f_eval(pts, tau):
        y = pts[..., 0]
        return (
            np.exp(-y * y / (4.0 * (s + tau)))
            / (2.0 * math.sqrt(math.pi * (s + tau)))
        )[..., None]

    t = 1.0
    res = sp.solve_nonhomogeneous(
        cs, SourceFunction(f_eval), np.array([0.0]), t,
        settings=SolveSettings(sigma_slices=256, grid_points=257),
    )
    expected = t / (2.0 * math.sqrt(math.pi * (s + t)))
    assert res.value[0] == pytest.approx(expected, rel=1e-4)


def test_nonhomogeneous_directional_derivative_sign_flip():
    cs = sp.coefficient_set(n=1, m=1, T=1.0)
    f = SourceFunction(
        lambda pts, tau: np.exp(-((pts[..., 0] - 0.5) ** 2))[..., None]
    )
    x, t = np.array([0.2]), 0.8
    plus = sp.directional_derivative(
        cs, "nonhomogeneous", f, x, t, np.array([1.0])
    ).value
    minus = sp.directional_derivative(
        cs, "nonhomogeneous", f, x, t, np.array([-1.0])
    ).value
    np.testing.assert_allclose(plus, -minus, rtol=1e-12)


def test_spacetime_norm_sup():
    cs = heat()
    f = SourceFunction(lambda pts, tau: 3.0 * np.ones(pts.shape[:-1] + (1,)))
    assert spacetime_norm(cs, f, np.zeros(1), 1.0, INF) == pytest.approx(3.0)


@pytest.mark.parametrize("t", [-0.5, 0.0, 2.0])
def test_spacetime_norm_rejects_times_outside_the_horizon(t):
    cs = heat(T=1.0)
    f = SourceFunction(lambda pts, tau: np.ones(pts.shape[:-1] + (1,)))
    with pytest.raises(DomainError):
        spacetime_norm(cs, f, np.zeros(1), t, 2.0)


def test_initial_trace_recovered_as_t_shrinks():
    # u(., t) -> phi in the discrete L2 sense along t = 4^{-k}
    cs = heat(T=1.0)
    phi_fn = lambda y: np.exp(-((y - 0.3) ** 2)) * (1.0 + 0.5 * np.sin(2.0 * y))
    phi = gaussian_grid(lambda pts: phi_fn(pts[..., 0]), radius=10.0, points=257)
    xs = np.linspace(-2.0, 2.0, 33)
    errors = []
    for t in (0.25, 0.25**2, 0.25**3, 0.25**4):
        diffs = [
            sp.solve_homogeneous(cs, phi, np.array([x]), t).value[0] - phi_fn(x)
            for x in xs
        ]
        errors.append(float(np.linalg.norm(diffs)))
    assert errors[0] > errors[1] > errors[2] > errors[3]
    assert errors[3] < 0.05 * errors[0]


def test_time_floor_rejected():
    cs = heat(T=1.0)
    phi = gaussian_grid(lambda pts: np.ones(pts.shape[:-1]), radius=10.0, points=65)
    with pytest.raises(DomainError):
        sp.solve_homogeneous(cs, phi, np.array([0.0]), 1e-12)


def test_pointwise_bounds_hold_for_rough_data():
    # the discrete Hoelder chain: |u| <= sharp * discrete data norm
    rng = np.random.default_rng(71)
    cs = sp.coefficient_set(n=1, m=2, T=1.0, C=np.array([[0.1, 0.7], [0.0, -0.2]]))
    for trial in range(10):
        values = rng.standard_normal((257, 2))
        phi = GridFunction(center=np.zeros(1), radius=12.0, values=values)
        x = np.array([rng.uniform(-1, 1)])
        t = rng.uniform(0.3, 1.0)
        p = [1.0, 2.0, INF][trial % 3]
        u = sp.solve_homogeneous(cs, phi, x, t).value
        bound = sp.sharp_H(cs, p, t).value * phi.norm(p)
        assert np.linalg.norm(u) <= bound * (1.0 + 5e-4) + 1e-12
