import math

import numpy as np
import pytest

import sharp_parabolic as sp
from sharp_parabolic import kernels
from sharp_parabolic.errors import CoverageWarning, DomainError
from sharp_parabolic.quadrature import piecewise_rule
from sharp_parabolic.solve import (
    GridFunction,
    SolveSettings,
    SourceFunction,
    solve_with_norm,
    spacetime_norm,
)

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


@pytest.mark.parametrize("problem", ["homogeneous", "nonhomogeneous"])
def test_directional_derivative_rejects_a_direction_of_the_wrong_shape(problem):
    cs = sp.coefficient_set(n=2, m=1, T=1.0)
    data = (
        GridFunction(center=np.zeros(2), radius=8.0, values=np.ones((17, 17, 1)))
        if problem == "homogeneous"
        else SourceFunction(lambda pts, tau: np.ones(pts.shape[:-1] + (1,)))
    )
    with pytest.raises(DomainError, match="shape"):
        sp.directional_derivative(cs, problem, data, np.zeros(2), 0.5,
                                  np.array([0.6, 0.8, 0.0]))


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
    # semigroup identity, so u(x, t) = t * G(x, s + t)
    s = 0.5
    cs = heat()

    def f_eval(pts, tau):
        y = pts[..., 0]
        return (
            np.exp(-y * y / (4.0 * (s + tau)))
            / (2.0 * math.sqrt(math.pi * (s + tau)))
        )[..., None]

    f, x, t = SourceFunction(f_eval), np.array([0.3]), 1.0
    value = sp.solve_nonhomogeneous(cs, f, x, t).value[0]
    slope = sp.directional_derivative(cs, "nonhomogeneous", f, x, t, np.array([1.0]))
    expected = t * math.exp(-x[0] ** 2 / (4.0 * (s + t))) / (2.0 * math.sqrt(math.pi * (s + t)))
    assert value == pytest.approx(expected, rel=1e-12)
    assert slope.value[0] == pytest.approx(-x[0] / (2.0 * (s + t)) * expected, rel=1e-12)


def test_source_solution_splits_at_a_tabulated_sample_time():
    # the PCHIP A is only C^1 at its sample time 0.3, and so is the integrand
    # in sigma at sqrt(t - 0.3): with a piece break there 32 and 512 intervals
    # agree to rounding, where one piece over [0, sqrt(t)] leaves them 1.1e-7
    # apart
    a = sp.Tabulated(np.array([0.0, 0.3, 1.0]), np.array([[[1.0]], [[2.0]], [[0.8]]]))
    cs = sp.coefficient_set(n=1, m=1, T=1.0, A=a, b=np.array([0.3]))
    f = SourceFunction(
        lambda pts, tau: (np.exp(-((pts[..., 0] - 0.2) ** 2)) * (1.0 + tau))[..., None]
    )
    x, t = np.array([0.1]), 1.0
    coarse, fine = (
        sp.solve_nonhomogeneous(cs, f, x, t, settings=SolveSettings(sigma_slices=s)).value[0]
        for s in (32, 512)
    )
    assert abs(coarse - fine) <= 1e-12 * abs(fine)


@pytest.mark.parametrize(
    "fields", [{"sigma_slices": 31}, {"sigma_slices": 2}, {"grid_points": 64},
               {"grid_points": 1}, {"truncation_sigmas": 0.0}, {"truncation_sigmas": -3.0},
               {"truncation_sigmas": math.nan}, {"truncation_sigmas": 5.9},
               {"grid_points": 129.5}, {"grid_points": 129.0}, {"grid_points": True},
               {"sigma_slices": 32.5}, {"sigma_slices": 32.0}, {"sigma_slices": True}],
)
def test_solve_settings_need_an_even_rule_and_an_odd_grid(fields):
    with pytest.raises(DomainError):
        SolveSettings(**fields)


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


@pytest.mark.parametrize("p", [1.0, 3.0, INF])
def test_spacetime_norm_is_the_norm_of_the_solver_pass(p):
    cs = sp.coefficient_set(n=2, m=2, T=1.0, A=np.array([[1.2, 0.3], [0.3, 0.8]]),
                            b=np.array([0.2, -0.1]))
    f = SourceFunction(lambda pts, tau: np.stack(
        [np.exp(-np.sum(pts**2, axis=-1)) * (1.0 + tau), np.cos(pts[..., 0])], axis=-1
    ))
    x, t = np.array([0.3, -0.4]), 0.7
    settings = SolveSettings(sigma_slices=16, grid_points=33)
    norm = spacetime_norm(cs, f, x, t, p, settings=settings)
    for ell in (None, np.array([0.6, 0.8])):
        res, shared = solve_with_norm(cs, "nonhomogeneous", f, x, t, p, ell=ell,
                                      settings=settings)
        assert shared == norm
        assert res.value.shape == (2,)


def test_spacetime_norm_of_a_constant_is_the_exact_integral_over_slice_boxes():
    # each node's box has half-width 8 sqrt(2 a_i) sigma along axis i, so the
    # integrand 2 sigma * box * 2^3 is a cubic in sigma, which the rule
    # integrates exactly: 8 * 256 sqrt(3) * t^2 / 2 in all
    a = np.array([1.5, 0.5])
    cs = sp.coefficient_set(n=2, m=1, T=1.0, A=np.diag(a))
    f = SourceFunction(lambda pts, tau: 2.0 * np.ones(pts.shape[:-1] + (1,)))
    t = 0.8
    total = 2.0**3 * 256.0 * math.sqrt(3.0) * t * t / 2.0
    settings = SolveSettings(sigma_slices=16, grid_points=17)
    norm = spacetime_norm(cs, f, np.array([0.1, 0.2]), t, 3.0, settings=settings)
    assert norm == pytest.approx(total ** (1.0 / 3.0), rel=1e-12)
    assert norm == pytest.approx(10.431502, rel=1e-7)


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


def test_source_solve_below_the_window_floor_is_a_domain_error():
    # the first Fejer node in sigma is a window of sin^4(pi / 64) t = 5.8e-13
    # at t = 1e-7, below the SPD floor 2e-12 of A = I
    f = SourceFunction(lambda pts, tau: np.ones(pts.shape[:-1] + (1,)))
    with pytest.raises(DomainError, match="window floor"):
        sp.solve_nonhomogeneous(heat(T=1.0), f, np.zeros(1), 1e-7)
    assert sp.solve_nonhomogeneous(heat(T=1.0), f, np.zeros(1), 1e-6).value[0] == \
        pytest.approx(1e-6, rel=1e-12)


@pytest.mark.parametrize(
    "shape", [(5, 5, 1), (5, 5), (5, 5, 3), (2,), (2, 5, 5)],
    ids=["one-component", "scalar", "three-components", "one-vector", "components-first"],
)
def test_source_values_of_the_wrong_shape_are_a_domain_error(shape):
    # a flat contraction would misread (m, G, G) silently
    cs = sp.coefficient_set(n=2, m=2, T=1.0)
    f = SourceFunction(lambda pts, tau: np.ones(shape))
    settings = SolveSettings(sigma_slices=4, grid_points=5)
    with pytest.raises(DomainError, match=r"\(5, 5, 2\)"):
        sp.solve_nonhomogeneous(cs, f, np.zeros(2), 0.5, settings=settings)


def test_a_scalar_source_field_serves_one_component():
    cs = sp.coefficient_set(n=2, m=1, T=1.0)
    settings = SolveSettings(sigma_slices=4, grid_points=5)
    scalar, column = (
        sp.solve_nonhomogeneous(cs, SourceFunction(fn), np.zeros(2), 0.5, settings=settings)
        for fn in (lambda pts, tau: np.exp(-np.sum(pts**2, axis=-1)),
                   lambda pts, tau: np.exp(-np.sum(pts**2, axis=-1))[..., None])
    )
    assert scalar.value.shape == (1,)
    assert scalar.value[0] == column.value[0] > 0.0


def _source_set(n, m):
    q, _ = np.linalg.qr(np.random.default_rng(3 + n).standard_normal((n, n)))
    a = q @ np.diag(np.linspace(0.6, 1.4, n)) @ q.T
    return sp.coefficient_set(n=n, m=m, T=1.0, A=sp.Affine(a, 0.3 * a),
                              b=np.linspace(0.2, -0.1, n),
                              C=np.array([[-0.2, 0.5], [0.1, -0.4]])[:m, :m])


def _source_field(m):
    def fn(pts, tau):
        bump = np.exp(-np.sum((pts - 0.3) ** 2, axis=-1)) * (1.0 + tau)
        return np.stack([bump, np.cos(pts[..., 0]) * bump][:m], axis=-1)

    return fn


def test_each_sigma_node_samples_the_source_once_on_its_slice_grid():
    cs, x, t = _source_set(2, 2), np.array([0.3, -0.2]), 0.7
    settings = SolveSettings(sigma_slices=8, grid_points=9)
    calls = []

    def record(pts, tau):
        calls.append((pts.copy(), tau))
        return _source_field(2)(pts, tau)

    sp.solve_nonhomogeneous(cs, SourceFunction(record), x, t, settings=settings)
    sigmas, _ = piecewise_rule(np.sqrt(cs.window_breaks(t)), settings.sigma_slices - 1)
    assert len(calls) == sigmas.size == settings.sigma_slices - 1
    for (pts, tau), sigma, acc in zip(calls, sigmas.tolist(), cs.windows(t, np.square(sigmas))):
        axes = kernels.slice_grid(acc, x, settings.truncation_sigmas, settings.grid_points)[0]
        assert pts.shape == (9, 9, 2)
        np.testing.assert_array_equal(pts, kernels.grid_nodes(axes))
        assert tau == t - sigma * sigma


def _tensordot_reference(cs, f, x, t, settings, ell):
    """The source solution node by node: dense nodes, the kernel weight by
    einsum, and the contraction by tensordot."""
    sigmas, rule = piecewise_rule(np.sqrt(cs.window_breaks(t)), settings.sigma_slices - 1)
    value = np.zeros(cs.m)
    for sigma, weight_s, acc in zip(sigmas, 2.0 * sigmas * rule, cs.windows(t, sigmas**2)):
        axes, spacings, _ = kernels.slice_grid(acc, x, settings.truncation_sigmas,
                                               settings.grid_points)
        nodes = np.stack(np.broadcast_arrays(*axes), axis=-1)
        u = (x - nodes) + acc.ib
        weight = np.exp(-0.25 * np.einsum("...i,ij,...j->...", u, acc.ia_inv, u)
                        - acc.log_gauss_norm)
        if ell is not None:
            weight = weight * (-0.5 * (u @ (acc.ia_inv @ ell)))
        inner = acc.exp_ic @ np.tensordot(weight, f(nodes, t - sigma**2), cs.n)
        value = value + weight_s * np.prod(spacings) * inner
    return value


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("directional", [False, True])
def test_source_solution_matches_a_per_node_tensordot_reference(n, m, directional):
    cs, f = _source_set(n, m), SourceFunction(_source_field(m))
    x, t = np.linspace(0.4, -0.3, n), 0.8
    settings = SolveSettings(sigma_slices=8, grid_points={1: 33, 2: 17, 3: 9}[n])
    if directional:
        ell = np.linspace(1.0, 2.0, n) / np.linalg.norm(np.linspace(1.0, 2.0, n))
        value = sp.directional_derivative(cs, "nonhomogeneous", f, x, t, ell,
                                          settings=settings).value
    else:
        ell = None
        value = sp.solve_nonhomogeneous(cs, f, x, t, settings=settings).value
    reference = _tensordot_reference(cs, f, x, t, settings, ell)
    assert value.shape == reference.shape == (m,)
    assert np.max(np.abs(value - reference)) <= 1e-14 * np.max(np.abs(reference))
