import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.linalg import expm
from scipy.special import gamma, gammainc, hyp1f1

import sharp_parabolic as sp
from sharp_parabolic import coeffs, matfun, sharp
from sharp_parabolic.errors import DomainError

INF = math.inf

# Heat-case reference constants (n = m = 1, A = 1, b = 0, C = 0, t = 1),
# frozen from independent scipy quadrature of the kernel norms
# (sup / L2 / L1 of the kernel and its derivative; space-time L2 via the
# u = sqrt(1 - tau) substitution).
HEAT_H1 = 0.28209479177387814
HEAT_H2 = 0.44662192086900115
HEAT_K_INF = 0.5641895835477564
HEAT_K2 = 0.22331096043450058
HEAT_N_INF = 1.0
HEAT_N2 = 0.6316187777460647
HEAT_C_INF = 1.1283791670955126


def heat(T=1.0):
    return sp.coefficient_set(n=1, m=1, T=T)


def test_holder_conjugate():
    assert sp.holder_conjugate(2.0) == 2.0
    assert sp.holder_conjugate(1.0) == INF
    assert sp.holder_conjugate(INF) == 1.0
    assert sp.holder_conjugate(3.0) == pytest.approx(1.5)
    assert sp.holder_conjugate(1.5) == pytest.approx(3.0)
    with pytest.raises(DomainError):
        sp.holder_conjugate(0.5)


def test_heat_constants_match_frozen_oracles():
    cs = heat()
    ell = np.array([1.0])
    assert sp.sharp_H(cs, 1.0, 1.0).value == pytest.approx(HEAT_H1, abs=1e-6)
    assert sp.sharp_H(cs, 2.0, 1.0).value == pytest.approx(HEAT_H2, abs=1e-6)
    assert sp.sharp_K_ell(cs, INF, 1.0, ell).value == pytest.approx(
        HEAT_K_INF, abs=1e-6
    )
    assert sp.sharp_K_ell(cs, 2.0, 1.0, ell).value == pytest.approx(HEAT_K2, abs=1e-6)
    assert sp.sharp_N(cs, INF, 1.0).value == pytest.approx(HEAT_N_INF, abs=1e-6)
    assert sp.sharp_N(cs, 2.0, 1.0).value == pytest.approx(HEAT_N2, abs=1e-6)
    assert sp.sharp_C(cs, INF, 1.0).value == pytest.approx(HEAT_C_INF, abs=1e-6)


def test_H_infinity_is_one_without_coupling():
    for n in (1, 2):
        cs = sp.coefficient_set(n=n, m=1, T=1.0, A=2.3 * np.eye(n), b=0.4 * np.ones(n))
        for t in (0.3, 1.0):
            assert sp.sharp_H(cs, INF, t).value == pytest.approx(1.0, rel=1e-14)


def test_H_p1_equals_kernel_sup_by_quadrature():
    cs = sp.coefficient_set(n=1, m=1, T=1.0, A=np.array([[1.6]]))
    value = sp.sharp_H(cs, 1.0, 1.0).value
    xs = np.linspace(-12.0, 12.0, 400001)[:, None]
    sup = float(np.max(sp.eval_G(cs, xs, 1.0).scalar_part))
    assert value == pytest.approx(sup, rel=1e-8)


def test_K_ell_anisotropic_direction():
    cs = sp.coefficient_set(n=2, m=1, T=1.0, A=np.diag([1.0, 4.0]))
    result = sp.sharp_K_ell(cs, INF, 1.0, np.array([0.0, 1.0]))
    assert result.value == pytest.approx(0.5 / math.sqrt(math.pi), rel=1e-12)


def test_K_maximizes_over_directions():
    cs = sp.coefficient_set(n=2, m=1, T=1.0, A=np.diag([1.0, 4.0]))
    result = sp.sharp_K(cs, INF, 1.0)
    assert result.value == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
    np.testing.assert_allclose(np.abs(result.maximizer_ell), [1.0, 0.0], atol=1e-12)


def test_K_isotropic_matches_any_direction():
    cs = sp.coefficient_set(n=2, m=2, T=1.0, C=np.array([[0.0, 1.0], [0.0, 0.0]]))
    k = sp.sharp_K(cs, 2.0, 0.8).value
    for ell in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
        assert sp.sharp_K_ell(cs, 2.0, 0.8, ell).value == pytest.approx(k, rel=1e-12)


def test_K_single_dimension_reduces_to_K_ell():
    cs = heat()
    for p in (1.0, 2.0, 3.0, INF):
        assert sp.sharp_K(cs, p, 1.0).value == pytest.approx(
            sp.sharp_K_ell(cs, p, 1.0, np.array([1.0])).value, rel=1e-14
        )


def test_N_infinity_scalar_coupling():
    for c in (0.0, 0.6, -0.8):
        cs = sp.coefficient_set(n=1, m=1, T=1.0, C=c)
        for t in (0.4, 1.0):
            expected = t if c == 0.0 else (math.exp(c * t) - 1.0) / c
            assert sp.sharp_N(cs, INF, t).value == pytest.approx(expected, rel=1e-9)


def test_C_single_equation_display_constant_and_affine():
    # C_inf for A = a(t) I and scalar coupling equals the explicit window
    # integral (1/sqrt(pi)) int exp(int c) / sqrt(int a)
    presets = [
        (sp.Constant(1.3 * np.eye(2)), lambda s: 1.3, sp.Constant(np.array([[-0.4]])),
         lambda s: -0.4),
        (sp.Affine(np.eye(2), 0.5 * np.eye(2)), lambda s: 1.0 + 0.5 * s,
         sp.Affine(np.array([[0.2]]), np.array([[0.3]])), lambda s: 0.2 + 0.3 * s),
    ]
    t = 0.9
    for a_preset, a_fn, c_preset, c_fn in presets:
        cs = sp.coefficient_set(n=2, m=1, T=1.0, A=a_preset, C=c_preset)

        def display(tau):
            int_a = quad(a_fn, tau, t, epsabs=1e-14)[0]
            int_c = quad(c_fn, tau, t, epsabs=1e-14)[0]
            return math.exp(int_c) / math.sqrt(int_a)

        expected = (
            quad(lambda u: 2.0 * u * display(t - u * u), 0.0, math.sqrt(t),
                 epsabs=1e-13)[0]
            / math.sqrt(math.pi)
        )
        for value in (
            sp.sharp_C(cs, INF, t).value,
            sp.sharp_C_ell(cs, INF, t, np.array([1.0, 0.0])).value,
        ):
            assert value == pytest.approx(expected, rel=1e-10)


def test_single_equation_displays_H_and_K():
    # H_inf = exp(int c); K_inf = exp(int c) / sqrt(pi int a) for A = a(t) I
    a_fn = lambda s: 0.8 + 0.4 * s
    c_fn = lambda s: -0.1 + 0.6 * s
    cs = sp.coefficient_set(
        n=2,
        m=1,
        T=1.0,
        A=sp.Affine(0.8 * np.eye(2), 0.4 * np.eye(2)),
        C=sp.Affine(np.array([[-0.1]]), np.array([[0.6]])),
    )
    t = 0.7
    int_a = quad(a_fn, 0.0, t, epsabs=1e-14)[0]
    int_c = quad(c_fn, 0.0, t, epsabs=1e-14)[0]
    assert sp.sharp_H(cs, INF, t).value == pytest.approx(math.exp(int_c), rel=1e-10)
    assert sp.sharp_K(cs, INF, t).value == pytest.approx(
        math.exp(int_c) / math.sqrt(math.pi * int_a), rel=1e-10
    )


def test_divergent_cases_flagged_not_raised():
    cs = heat()
    result = sp.sharp_C(cs, 3.0, 1.0)  # n=1: C needs p > 3
    assert result.value == INF
    assert not result.convergent
    result = sp.sharp_N(cs, 1.2, 1.0)  # n=1: N needs p > 1.5
    assert result.value == INF
    assert not result.convergent


@pytest.mark.parametrize("n", [1, 2, 3])
def test_convergence_thresholds_strict(n):
    cs = sp.coefficient_set(n=n, m=1, T=1.0, A=1.7 * np.eye(n), C=0.3)
    n_threshold = (n + 2.0) / 2.0
    c_threshold = n + 2.0
    eps = 1e-9
    assert not sp.converges_N(cs, n_threshold)
    assert sp.converges_N(cs, n_threshold + eps)
    assert not sp.converges_N(cs, n_threshold - eps)
    assert not sp.converges_C(cs, c_threshold)
    assert sp.converges_C(cs, c_threshold + eps)
    assert not sp.converges_C(cs, c_threshold - eps)
    # p = infinity always converges; p = 1 never does (n >= 1)
    assert sp.converges_N(cs, INF) and sp.converges_C(cs, INF)
    assert not sp.converges_N(cs, 1.0) and not sp.converges_C(cs, 1.0)


def test_convergence_examples():
    assert sp.converges_N(heat(), 2.0)
    assert not sp.converges_N(sp.coefficient_set(n=2, m=1, T=1.0), 2.0)
    assert sp.converges_C(heat(), 4.0)


def test_convergence_estimated_for_time_dependent_A():
    a = sp.Affine(np.eye(1), np.eye(1))
    cs = sp.coefficient_set(n=1, m=1, T=1.0, A=a)
    assert sp.converges_N(cs, 2.0)
    assert not sp.converges_C(cs, 2.0)
    result = sp.sharp_N(cs, 2.0, 1.0)
    assert result.convergent


def _time_dependent_A(n, preset):
    if preset == "affine":
        return sp.Affine(np.eye(n), 3.0 * np.eye(n))
    ts = np.linspace(0.0, 1.0, 5)
    values = np.stack([(1.0 + np.sin(3.0 * t) ** 2) * np.eye(n) for t in ts])
    return sp.Tabulated(ts, values)


@pytest.mark.parametrize("preset", ["affine", "tabulated"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_convergence_thresholds_exact_for_time_dependent_A(n, preset):
    cs = sp.coefficient_set(n=n, m=1, T=1.0, A=_time_dependent_A(n, preset))
    n_threshold = (n + 2.0) / 2.0
    c_threshold = n + 2.0
    eps = 1e-12
    assert not sp.converges_N(cs, n_threshold)
    assert sp.converges_N(cs, n_threshold * (1.0 + eps))
    assert not sp.converges_N(cs, n_threshold * (1.0 - eps))
    assert not sp.converges_C(cs, c_threshold)
    assert sp.converges_C(cs, c_threshold * (1.0 + eps))
    assert not sp.converges_C(cs, c_threshold * (1.0 - eps))


def test_source_constants_diverge_just_below_threshold_for_affine_A():
    # n = 2, A(t) = (1 + 3t) I: N needs p > 2 and C_ell needs p > 4
    cs = sp.coefficient_set(n=2, m=1, T=1.0, A=_time_dependent_A(2, "affine"))
    for result in (
        sp.sharp_N(cs, 1.995, 1.0),
        sp.sharp_C_ell(cs, 3.98, 1.0, np.array([1.0, 0.0])),
    ):
        assert result.value == INF
        assert not result.convergent


@pytest.mark.parametrize(
    "fields", [{"seeds_per_dim": 0}, {"seeds_per_dim": -2}, {"seeds_per_dim": 2.5},
               {"seeds_per_dim": True}, {"rel_tol": 0.0}, {"rel_tol": -1e-9},
               {"rel_tol": math.nan}],
)
def test_sphere_settings_need_seeds_and_a_positive_tolerance(fields):
    with pytest.raises(DomainError):
        sp.SphereSettings(**fields)


def _lattice_search(objective, gradient, dim, settings=sp.SphereSettings()):
    """Best lattice seed polished by ``_polish_on_sphere``: the search of
    ``sharp._maximize`` for an objective given as a callable."""
    seeds = sharp.sphere_lattice(dim, settings.seeds_per_dim * dim)
    z0 = seeds[int(np.argmax([objective(s) for s in seeds]))]
    (z,), value, _ = sharp._polish_on_sphere(objective, gradient, (z0,), settings)
    return z, value


def test_sphere_max_spectral_example():
    b = np.diag([3.0, 4.0])
    z, value = _lattice_search(
        lambda v: float(np.linalg.norm(b @ v)),
        lambda v: (b.T @ b @ v / np.linalg.norm(b @ v),),
        2,
    )
    assert value == pytest.approx(4.0, rel=1e-14)
    np.testing.assert_allclose(np.abs(z), [0.0, 1.0], atol=1e-9)


def test_sphere_max_three_dimensions():
    m = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 2.5]])
    z, value = _lattice_search(lambda v: float(v @ m @ v), lambda v: (2.0 * m @ v,), 3)
    w, vecs = np.linalg.eigh(m)
    assert value == pytest.approx(w[-1], rel=1e-14)
    assert abs(abs(np.dot(z, vecs[:, -1])) - 1.0) < 1e-9


def test_gram_route_matches_direct_search():
    rng = np.random.default_rng(31)
    c = rng.standard_normal((3, 3))
    cs = sp.coefficient_set(n=1, m=3, T=1.0, C=c)
    tables = sharp._window_tables(cs, 1.0, 2.0, with_gradient=False, nodes=31)
    (z_gram,), gram_value, _ = sharp._maximize(tables.weights, (tables.exps,), 2.0, None)
    objective, gradient = sharp._objective(tables.weights, (tables.exps,), 2.0)
    z_search, search_value = _lattice_search(
        objective, gradient, 3, sp.SphereSettings(rel_tol=1e-12)
    )
    assert search_value == pytest.approx(gram_value, rel=1e-8)
    assert min(
        np.linalg.norm(z_search - z_gram), np.linalg.norm(z_search + z_gram)
    ) < 1e-4


@pytest.mark.parametrize("pp", [1.0, 1.5, 3.0])
def test_two_stack_search_matches_a_dense_angle_scan(pp):
    # sum_k w_k |A_k ell|^p' |E_k z|^p' on S^1 x S^1 at the default settings;
    # both factors are even, so half circles cover the product
    rng = np.random.default_rng(int(20 * pp))
    angles = np.linspace(0.0, np.pi, 2001)
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for _ in range(3):
        mats = (rng.standard_normal((4, 2, 2)), rng.standard_normal((4, 2, 2)))
        weights = rng.uniform(0.5, 1.5, 4)
        (ell, z), value, residual = sharp._maximize(weights, mats, pp, None)
        a, b = (np.linalg.norm(np.einsum("kij,sj->ksi", m, circle), axis=2) ** pp
                for m in mats)
        scan = float(np.max((weights[:, None] * a).T @ b))
        assert scan * (1.0 - 1e-14) <= value <= scan * (1.0 + 1e-5)
        assert value == sharp._objective(weights, mats, pp)[0](ell, z)
        assert residual <= sp.SphereSettings().rel_tol
        assert all(np.array_equal(v, matfun.canonical_sign(v)) for v in (ell, z))


def test_polish_on_product_of_spheres_reaches_top_singular_value():
    # f(ell, z) = (ell^T M z)^2 peaks at sigma_max(M)^2 on S^1 x S^1.
    m = np.array([[2.0, 1.0], [0.5, -1.5]])
    settings = sp.SphereSettings()

    def objective(ell, z):
        return float(ell @ m @ z) ** 2

    asked = []

    def gradient(ell, z, block=None):
        asked.append(block)
        inner = float(ell @ m @ z)
        blocks = 2.0 * inner * (m @ z), 2.0 * inner * (m.T @ ell)
        return blocks if block is None else blocks[block:block + 1]

    start = (np.array([1.0, 0.2]), np.array([0.3, 1.0]))
    (ell, z), value, residual = sharp._polish_on_sphere(
        objective, gradient, start, settings
    )
    # each step takes the full gradient, then only the block of z, which
    # is the one that sees ell's step
    assert asked[::2] == [None] * len(asked[::2]) and set(asked[1::2]) == {1}
    sigma_max = np.linalg.svd(m, compute_uv=False)[0]
    assert value == pytest.approx(sigma_max**2, rel=1e-12)
    assert residual <= settings.rel_tol
    assert np.linalg.norm(ell) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-15)


def _searched_sets():
    """A seeded tabulated n = m = 2 set and a random constant n = 2, m = 3 set."""
    rng = np.random.default_rng(7)
    ts = np.linspace(0.0, 1.0, 6)
    lam = np.stack(
        [1.0 + 0.25 * np.sin(2.0 * np.pi * ts), 0.6 + 0.15 * np.cos(np.pi * ts)]
    )
    lam *= rng.uniform(0.97, 1.03, (2, 1))
    cos, sin = np.cos(0.4 + 0.8 * ts), np.sin(0.4 + 0.8 * ts)
    rot = np.array([[cos, -sin], [sin, cos]]).transpose(2, 0, 1)
    a = np.einsum("kij,jk,klj->kil", rot, lam, rot)
    c = 0.4 * rng.standard_normal((2, 2)) + np.multiply.outer(
        np.sin(np.pi * ts), 0.2 * rng.standard_normal((2, 2))
    )
    tabulated = sp.coefficient_set(
        n=2, m=2, T=1.0, A=sp.Tabulated(ts, a), C=sp.Tabulated(ts, c)
    )
    q = rng.standard_normal((2, 2))
    constant = sp.coefficient_set(
        n=2, m=3, T=1.0, A=q @ q.T + np.eye(2), C=rng.standard_normal((3, 3))
    )
    return tabulated, constant


@pytest.mark.parametrize("p", [INF, 8.0, 5.5])
def test_searched_source_constants_meet_the_search_tolerance(p):
    rel_tol = sp.SphereSettings().rel_tol
    for cs in _searched_sets():
        for result in (sp.sharp_N(cs, p, 1.0), sp.sharp_C(cs, p, 1.0)):
            assert result.convergent
            assert result.diagnostics.search_residual <= rel_tol


def test_radial_gauss_identity_by_quadrature():
    for n in (1, 2, 3):
        for pp in (1.0, 2.0, 4.0):
            integrand = lambda r: r ** (n - 1) * math.exp(-pp * r * r / 4.0)
            radial = quad(integrand, 0.0, 60.0, epsabs=1e-14)[0]
            value = sharp.sphere_surface_area(n) * radial
            assert value == pytest.approx(
                sharp.radial_gauss_integral(n, pp), abs=1e-10, rel=1e-12
            )


def test_sphere_angle_identity_by_quadrature():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        for pp in (1.0, 2.0, 4.0):
            v = rng.standard_normal(n)
            if n == 1:
                numeric = 2.0 * abs(v[0]) ** pp  # counting measure on {-1, +1}
            elif n == 2:
                numeric = quad(
                    lambda th: abs(v[0] * math.cos(th) + v[1] * math.sin(th)) ** pp,
                    0.0,
                    2.0 * math.pi,
                    epsabs=1e-12,
                )[0]
            else:
                # spherical coordinates with the pole along v: the inner
                # product is |v| cos(theta) and the azimuth integrates to 2 pi
                mag = float(np.linalg.norm(v))
                numeric = 2.0 * math.pi * quad(
                    lambda th: (mag * abs(math.cos(th))) ** pp * math.sin(th),
                    0.0,
                    math.pi,
                    points=[math.pi / 2.0],
                    epsabs=1e-12,
                )[0]
            assert numeric == pytest.approx(
                sharp.sphere_angle_integral(n, pp, v), abs=1e-8, rel=1e-8
            )


def test_drift_independence_bitwise():
    drifts = [None, np.array([0.9, -0.4]), sp.Affine(np.zeros(2), np.ones(2))]
    values = []
    for b in drifts:
        cs = sp.coefficient_set(
            n=2, m=2, T=1.0, A=np.diag([1.0, 2.0]), b=b,
            C=np.array([[0.1, 0.5], [0.0, -0.2]]),
        )
        ell = np.array([0.6, 0.8])
        values.append(
            (
                sp.sharp_H(cs, 2.0, 0.9).value,
                sp.sharp_K_ell(cs, 3.0, 0.9, ell).value,
                sp.sharp_K(cs, INF, 0.9).value,
                sp.sharp_N(cs, INF, 0.9).value,
                sp.sharp_C_ell(cs, INF, 0.9, ell).value,
                sp.sharp_C(cs, INF, 0.9).value,
            )
        )
    assert values[0] == values[1] == values[2]


def test_infinity_branch_matches_large_p():
    cases = [
        sp.coefficient_set(n=1, m=1, T=1.0, A=np.array([[1.5]]), C=0.4),
        sp.coefficient_set(
            n=2, m=2, T=1.0, A=np.diag([1.0, 3.0]),
            C=np.array([[0.0, 1.0], [0.0, 0.0]]),
        ),
    ]
    big = 1e3
    for cs in cases:
        t = 0.8
        ell = np.zeros(cs.n)
        ell[0] = 1.0
        pairs = [
            (sp.sharp_H(cs, INF, t).value, sp.sharp_H(cs, big, t).value),
            (sp.sharp_K(cs, INF, t).value, sp.sharp_K(cs, big, t).value),
            (sp.sharp_N(cs, INF, t).value, sp.sharp_N(cs, big, t).value),
            (
                sp.sharp_C_ell(cs, INF, t, ell).value,
                sp.sharp_C_ell(cs, big, t, ell).value,
            ),
        ]
        for limit_value, large_p_value in pairs:
            assert large_p_value == pytest.approx(limit_value, rel=0.01)


def test_p1_branch_matches_p_near_one():
    cs = sp.coefficient_set(n=2, m=1, T=1.0, A=np.diag([1.0, 2.0]), C=0.3)
    ell = np.array([1.0, 0.0])
    near = 1.0 + 1e-4
    assert sp.sharp_H(cs, near, 0.7).value == pytest.approx(
        sp.sharp_H(cs, 1.0, 0.7).value, rel=1e-2
    )
    assert sp.sharp_K_ell(cs, near, 0.7, ell).value == pytest.approx(
        sp.sharp_K_ell(cs, 1.0, 0.7, ell).value, rel=1e-2
    )


def test_gamma_bracket_limit():
    # the p' -> infinity limit of the gradient bracket is 1/sqrt(2e)
    assert sharp._gamma_bracket(1, 1e8) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.e), rel=1e-6
    )
    assert sharp._gamma_bracket(3, INF) == 1.0 / math.sqrt(2.0 * math.e)


def test_diffusion_scaling():
    base = sp.coefficient_set(n=2, m=1, T=1.0)
    for kappa in (0.5, 2.0, 7.0):
        scaled = sp.coefficient_set(n=2, m=1, T=1.0, A=kappa * np.eye(2))
        assert sp.sharp_K(scaled, INF, 1.0).value == pytest.approx(
            sp.sharp_K(base, INF, 1.0).value / math.sqrt(kappa), rel=1e-12
        )
        assert sp.sharp_H(scaled, INF, 1.0).value == pytest.approx(
            sp.sharp_H(base, INF, 1.0).value, rel=1e-14
        )


def test_N_argmax_stability():
    cs = sp.coefficient_set(
        n=1, m=2, T=1.0, C=np.array([[0.0, 1.0], [0.0, 0.0]])
    )
    for p in (INF, 2.0, 2.5):
        result = sp.sharp_N(cs, p, 1.0)
        pp = sp.holder_conjugate(p)
        tables = sharp._window_tables(cs, 1.0, pp, with_gradient=False, nodes=511)
        integral = sharp._tau_integral(tables, pp, result.maximizer_z)
        pref = sharp._solution_prefactor(cs.n, p, pp)
        assert pref * integral ** (1.0 / pp) == pytest.approx(result.value, rel=1e-9)


# ---------------------------------------------------------------------------
# source-time integrals against independent references
#
# For a window w with accumulated diffusion w A, the kernel is the normal
# density with covariance 2 w A. Its L^p' norm to the p', times the
# |A^(-1/2) ell|-weighted slope factor for the gradient kinds, is
# k * w^(-e) in closed form; a scalar coupling c adds exp(p' c w).


def _gaussian_window_factor(n, pp, det_a, ell_scale=None):
    """k in ||kernel(w)||_p'^p' = k w^(-e) for constant A (det_a = det A).

    With ``ell_scale`` = |A^(-1/2) ell| the norm is that of the derivative
    along ell: one axis of the normalized Gaussian carries |u_1|^p'.
    """
    k = (4.0 * math.pi) ** (-0.5 * n * (pp - 1.0)) * det_a ** (0.5 * (1.0 - pp))
    if ell_scale is None:
        return k * pp ** (-0.5 * n)
    slope = gamma(0.5 * (pp + 1.0)) * (2.0 / pp) ** (0.5 * (pp + 1.0))
    return (
        k * pp ** (-0.5 * (n - 1)) * (2.0 * math.pi) ** (-0.5)
        * (ell_scale / math.sqrt(2.0)) ** pp * slope
    )


def _endpoint_exponent(n, pp, gradient):
    return 0.5 * n * (pp - 1.0) + (0.5 * pp if gradient else 0.0)


def _kummer_constant(n, kind, p, t, a, c, ell=None):
    """N_p or C_{p,ell} for constant SPD A, m = 1 and scalar coupling c.

    int_0^t w^(-e) exp(a w) dw = t^(1-e)/(1-e) 1F1(1-e; 2-e; a t), a = p' c.
    """
    pp = p / (p - 1.0)
    gradient = kind == "C_ell"
    ell_scale = None
    if gradient:
        vals, vecs = np.linalg.eigh(a)
        ell_scale = float(np.linalg.norm((vecs / np.sqrt(vals)) @ vecs.T @ ell))
    e = _endpoint_exponent(n, pp, gradient)
    k = _gaussian_window_factor(n, pp, float(np.linalg.det(a)), ell_scale)
    j = t ** (1.0 - e) / (1.0 - e) * hyp1f1(1.0 - e, 2.0 - e, pp * c * t)
    return (k * j) ** (1.0 / pp)


@pytest.mark.parametrize("gap", [1e-3, 0.05, 0.1, 0.5, 2.0])
@pytest.mark.parametrize("n", [1, 2])
def test_unit_heat_source_constants_match_closed_form_near_threshold(n, gap):
    cs = sp.coefficient_set(n=n, m=1, T=1.0)
    ell = np.eye(n)[0]
    a = np.eye(n)
    p_n = (n + 2.0) / 2.0 + gap
    p_c = n + 2.0 + gap
    assert sp.sharp_N(cs, p_n, 1.0).value == pytest.approx(
        _kummer_constant(n, "N", p_n, 1.0, a, 0.0), rel=1e-10
    )
    assert sp.sharp_C_ell(cs, p_c, 1.0, ell).value == pytest.approx(
        _kummer_constant(n, "C_ell", p_c, 1.0, a, 0.0, ell), rel=1e-10
    )


@pytest.mark.parametrize("p", [1.6, 3.0])
@pytest.mark.parametrize("c", [-5.0, -50.0, -500.0])
def test_reported_quad_error_bounds_the_real_error_under_strong_damping(c, p):
    # |exp(int C)|^p' carries about eps p' |int C| of relative rounding, which
    # dominates at c = -500; the reference is the lower incomplete gamma
    # int_0^1 w^(-e) exp(a w) dw = Gamma(1-e) P(1-e, |a|) |a|^(e-1), a = p' c
    cs = sp.coefficient_set(n=1, m=1, T=1.0, C=c)
    pp = p / (p - 1.0)
    e = 0.5 * (pp - 1.0)
    a = abs(pp * c)
    integral = gamma(1.0 - e) * gammainc(1.0 - e, a) * a ** (e - 1.0)
    exact = sharp._solution_prefactor(1, p, pp) * integral ** (1.0 / pp)
    result = sp.sharp_N(cs, p, 1.0)
    assert abs(result.value - exact) <= result.diagnostics.quad_error
    assert result.diagnostics.quad_error <= 1e-12 * exact


@pytest.mark.parametrize("c", [-1.5, 0.8])
def test_anisotropic_constant_A_matches_kummer_reference(c):
    a = np.array([[1.3, 0.4], [0.4, 0.7]])
    cs = sp.coefficient_set(n=2, m=1, T=1.0, A=a, C=c)
    ell = np.array([0.6, 0.8])
    for p in (2.05, 2.2, 3.0, 6.0):
        assert sp.sharp_N(cs, p, 0.9).value == pytest.approx(
            _kummer_constant(2, "N", p, 0.9, a, c), rel=1e-10
        )
    for p in (4.05, 4.2, 6.0, 10.0):
        assert sp.sharp_C_ell(cs, p, 0.9, ell).value == pytest.approx(
            _kummer_constant(2, "C_ell", p, 0.9, a, c, ell), rel=1e-10
        )


def _qaws(f, e, lo, hi):
    """int_lo^hi f(w) (w - lo)^(-e) dw by QUADPACK's algebraic-weight rule."""
    return quad(f, lo, hi, weight="alg", wvar=(-e, 0.0), epsabs=0.0, epsrel=1e-13,
                limit=200)[0]


@pytest.mark.parametrize("p", [4.2, 8.0])
def test_sharp_C_matches_qaws_at_its_maximizers(p):
    rng = np.random.default_rng(5)
    q = rng.standard_normal((2, 2))
    a = q @ q.T + np.eye(2)
    c = rng.standard_normal((2, 2))
    cs = sp.coefficient_set(n=2, m=2, T=1.0, A=a, C=c)
    t = 0.8
    result = sp.sharp_C(cs, p, t)
    pp = p / (p - 1.0)
    vals, vecs = np.linalg.eigh(a)
    ell_scale = float(np.linalg.norm((vecs / np.sqrt(vals)) @ vecs.T @ result.maximizer_ell))
    k = _gaussian_window_factor(2, pp, float(np.linalg.det(a)), ell_scale)
    z = result.maximizer_z
    integral = _qaws(lambda w: np.linalg.norm(expm(w * c).T @ z) ** pp,
                     _endpoint_exponent(2, pp, True), 0.0, t)
    assert result.value == pytest.approx((k * integral) ** (1.0 / pp), rel=1e-10)


@pytest.mark.parametrize("p", [2.2, 3.0])
def test_sharp_N_tabulated_matches_split_qaws_at_its_maximizer(p):
    # t = 0.7 lies past the sample time 0.6: the window integrand changes
    # its cubic piece at w = 0.1, where the reference integral is split
    cs = _searched_sets()[0]
    ts = cs.A.times
    a_int = PchipInterpolator(ts, np.array([cs.A(s) for s in ts]), axis=0)
    c_int = PchipInterpolator(ts, np.array([cs.C(s) for s in ts]), axis=0)
    t = 0.7
    pp = p / (p - 1.0)
    result = sp.sharp_N(cs, p, t)
    z = result.maximizer_z

    def smooth(w):
        # the integrand times w^e: det(2 ia)^((1-p')/2) = w^(-e) det(2 ia / w)^(...)
        mean = a_int.integrate(t - w, t) / w if w > 0.0 else a_int(t)
        det = float(np.linalg.det(2.0 * mean))
        norm = (2.0 * math.pi) ** (1.0 - pp) / pp * det ** (0.5 * (1.0 - pp))
        return norm * np.linalg.norm(expm(c_int.integrate(t - w, t)).T @ z) ** pp

    e = _endpoint_exponent(2, pp, False)
    split = t - 0.6
    near = _qaws(smooth, e, 0.0, split)
    far = quad(lambda w: smooth(w) * w ** (-e), split, t, points=[t - 0.4, t - 0.2],
               epsabs=0.0, epsrel=1e-13, limit=200)[0]
    assert result.value == pytest.approx((near + far) ** (1.0 / pp), rel=1e-10)


def test_time_just_past_a_sample_time_keeps_one_first_piece():
    # a sample time 1e-12 before t would make a first piece whose nodes lie
    # below the SPD floor; it does not split the window
    cs = _searched_sets()[0]
    for p in (INF, 3.0):
        at = sp.sharp_N(cs, p, 0.6).value
        assert sp.sharp_N(cs, p, 0.6 + 1e-12).value == pytest.approx(at, rel=1e-9)


def _source_results(quad_tol):
    a = np.array([[1.3, 0.4], [0.4, 0.7]])
    ell = np.array([0.6, 0.8])
    constant = sp.coefficient_set(n=2, m=1, T=1.0, A=a, C=0.8)
    tabulated = _searched_sets()[0]
    return [
        sp.sharp_N(constant, 2.05, 0.9, quad_tol=quad_tol),
        sp.sharp_C_ell(constant, 4.2, 0.9, ell, quad_tol=quad_tol),
        sp.sharp_N(tabulated, 3.0, 0.7, quad_tol=quad_tol),
        sp.sharp_C(tabulated, 8.0, 0.7, quad_tol=quad_tol),
    ]


def test_quad_error_within_default_tolerance_and_positive():
    for result in _source_results(sharp.DEFAULT_TOL):
        assert 0.0 < result.diagnostics.quad_error <= sharp.DEFAULT_TOL * result.value


def test_unreachable_quad_tol_runs_to_the_cap_and_says_so(monkeypatch):
    sizes = []
    tables = sharp._window_tables

    def recording(cs, t, pp, with_gradient, nodes):
        sizes.append(nodes)
        return tables(cs, t, pp, with_gradient, nodes)

    monkeypatch.setattr(sharp, "_window_tables", recording)
    for result, default in zip(_source_results(1e-300), _source_results(sharp.DEFAULT_TOL)):
        assert math.isfinite(result.value)
        assert result.diagnostics.quad_error > 1e-300 * result.value
        assert result.value == pytest.approx(default.value, rel=1e-12)
    assert max(sizes) == sharp._NODES_CAP


@pytest.mark.parametrize("quad_tol", [-1.0, 0.0, math.nan], ids=["-1", "0", "nan"])
@pytest.mark.parametrize("kind", ["N", "C_ell", "C"])
def test_a_non_positive_quad_tol_is_refused(kind, quad_tol):
    # each ran every doubling to the node cap without an error
    cs = sp.coefficient_set()
    ell = np.array([1.0]) if kind == "C_ell" else None
    request = sharp.SharpRequest(kind=kind, p=5.0, t=1.0, ell=ell, quad_tol=quad_tol)
    with pytest.raises(DomainError, match="quad_tol"):
        sharp.evaluate_sharp(cs, request)


def test_a_tabulated_drift_does_not_split_the_source_rule(monkeypatch):
    # b enters no sharp constant, so its sample times make no pieces; solve
    # keeps them, since int b moves the kernel
    ts = np.array([0.0, 0.3, 0.6, 1.0])
    cs = sp.coefficient_set(n=1, m=1, T=1.0, b=sp.Tabulated(ts, [[0.2], [-0.1], [0.4], [0.3]]))
    windows = []
    integrate = coeffs.integrate_windows
    monkeypatch.setattr(coeffs, "integrate_windows",
                        lambda cs, t, w: windows.append(len(w)) or integrate(cs, t, w))
    assert sp.sharp_N(cs, 3.0, 1.0).value == 0.6940547977977204
    assert windows == [31]
    assert cs.window_breaks(1.0).tolist() == pytest.approx([0.4, 0.7, 1.0], rel=1e-15)


def test_one_component_maximizers_are_one_and_directions_are_the_given_ones():
    # every kind reports z = [1] for m = 1 (the oracle's sign), and K_ell
    # and C_ell report the ell they were given, not its sign-flipped copy
    cs = sp.coefficient_set(n=2, m=1, T=1.0, A=np.diag([1.0, 0.5]), C=0.3)
    ell = np.array([-0.6, 0.8])
    for kind in sharp.KINDS:
        given = ell if kind.endswith("_ell") else None
        result = sp.evaluate_sharp(cs, sp.SharpRequest(kind, 8.0, 1.0, given))
        assert np.array_equal(result.maximizer_z, [1.0]), kind
        if given is not None:
            assert np.array_equal(result.maximizer_ell, ell), kind
        elif kind in ("K", "C"):
            assert result.maximizer_ell[np.flatnonzero(result.maximizer_ell)[0]] > 0.0, kind


@pytest.mark.parametrize("scale, t", [(1e-6, 1e-6), (1.0, 5e-10)])
def test_too_small_time_raises_domain_error(scale, t):
    cs = sp.coefficient_set(n=2, m=1, T=1.0, A=scale * np.eye(2))
    with pytest.raises(DomainError, match="window floor"):
        sp.sharp_N(cs, INF, t)
    with pytest.raises(DomainError, match="window floor"):
        sp.sharp_C_ell(cs, 8.0, t, np.array([1.0, 0.0]))


def test_smallest_usable_time_matches_the_closed_form():
    # the first node is about 2.4e-3 t for every e, so with A = I the
    # smallest usable t is about 4e-10
    cs = sp.coefficient_set(n=2, m=1, T=1.0)
    ell = np.array([1.0, 0.0])
    for kind, p in (("N", 2.5), ("C_ell", 8.0), ("C_ell", 4.1)):
        got = sp.sharp_N(cs, p, 1e-9) if kind == "N" else sp.sharp_C_ell(cs, p, 1e-9, ell)
        want = _kummer_constant(2, kind, p, 1e-9, np.eye(2), 0.0, ell)
        assert got.value == pytest.approx(want, rel=1e-14)


def test_joint_maximization_exceeds_fixed_directions():
    cs = sp.coefficient_set(
        n=2, m=2, T=1.0, A=np.diag([1.0, 4.0]),
        C=np.array([[0.2, 0.8], [0.0, -0.1]]),
    )
    joint = sp.sharp_C(cs, INF, 0.8)
    for ell in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.6, 0.8])):
        fixed = sp.sharp_C_ell(cs, INF, 0.8, ell).value
        assert joint.value >= fixed - 1e-9
    recomputed = sp.sharp_C_ell(cs, INF, 0.8, joint.maximizer_ell).value
    assert recomputed == pytest.approx(joint.value, rel=1e-7)


def test_request_validation_and_dispatch():
    cs = heat()
    with pytest.raises(DomainError):
        sp.SharpRequest(kind="Q", p=2.0, t=1.0)
    with pytest.raises(DomainError):
        sp.SharpRequest(kind="K_ell", p=2.0, t=1.0)  # no direction
    with pytest.raises(DomainError):
        sp.SharpRequest(kind="H", p=0.3, t=1.0)
    with pytest.raises(DomainError, match="p >= 1"):
        sp.SharpRequest(kind="H", p=math.nan, t=1.0)  # NaN passed p < 1
    with pytest.raises(DomainError):
        sp.sharp_K_ell(cs, 2.0, 1.0, np.array([2.0]))  # not unit
    request = sp.SharpRequest(kind="N", p=2.0, t=1.0)
    assert sp.evaluate_sharp(cs, request).value == pytest.approx(
        sp.sharp_N(cs, 2.0, 1.0).value
    )


def test_result_invariant_value_iff_convergent():
    with pytest.raises(ValueError):
        sp.SharpResult(
            value=INF, maximizer_z=None, maximizer_ell=None, convergent=True
        )
    with pytest.raises(ValueError):
        sp.SharpResult(
            value=1.0, maximizer_z=None, maximizer_ell=None, convergent=False
        )


# ---------------------------------------------------------------------------
# the reported quad_error against the real error
#
# Each row is N, C_ell or C with A constant, affine or tabulated and
# C = c I, so that |exp(int C) z|^p' = exp(p' c w) for every unit z. The
# reference is the window integral k(w) w^(-e) exp(p' c w) (k from the mean
# of A over the window): the lower incomplete gamma for a constant A,
# QUADPACK's QAWS otherwise. The real error is known only up to the
# reference's own error, which the checks allow for.

_HONEST_A = np.array([[1.3, 0.4], [0.4, 0.7]])
_HONEST_SLOPE = np.array([[0.3, -0.1], [-0.1, 0.2]])


def _honest_set(preset, n, m, c):
    """(coefficient set, t, mean of A over [t - w, t] as a function of w)."""
    if preset == "constant":
        a = _HONEST_A[:n, :n]
        return sp.coefficient_set(n=n, m=m, T=1.0, A=a, C=c * np.eye(m)), 1.0, lambda w: a
    if preset == "affine":
        a0, a1, t = _HONEST_A[:n, :n], _HONEST_SLOPE[:n, :n], 0.75
        cs = sp.coefficient_set(n=n, m=m, T=1.0, A=sp.Affine(a0, a1), C=c * np.eye(m))
        return cs, t, lambda w: a0 + a1 * (t - 0.5 * w)
    tab = _searched_sets()[0].A
    pchip = PchipInterpolator(tab.times, np.array([tab(s) for s in tab.times]), axis=0)
    t = 0.7
    i = int(np.searchsorted(pchip.x, t)) - 1
    st = t - pchip.x[i]

    def mean(w):
        if w > st:
            return pchip.integrate(t - w, t) / w
        # inside the last piece, sum_k c_k (st^(k+1) - s0^(k+1)) / ((k+1) w)
        # without the cancellation: sum_k c_k sum_j st^j s0^(k-j) / (k+1)
        s0 = st - w
        return sum(pchip.c[3 - k, i] * sum(st**j * s0 ** (k - j) for j in range(k + 1)) / (k + 1)
                   for k in range(4))

    cs = sp.coefficient_set(n=2, m=m, T=1.0, A=tab, C=c * np.eye(m))
    return cs, t, mean


def _honest_reference(preset, kind, cs, t, mean, c, pp, ell):
    """(window integral, its error) for the row's maximizer ell."""
    ell = None if kind == "N" else ell
    e = _endpoint_exponent(cs.n, pp, ell is not None)
    if preset == "constant":
        b = abs(pp * c)  # int_0^t w^(-e) exp(-b w) dw by the incomplete gamma
        value = (_window_factor(cs.n, pp, mean(0.0), ell) * gamma(1.0 - e)
                 * gammainc(1.0 - e, b * t) * b ** (e - 1.0))
        return value, 4.0 * np.finfo(float).eps * value

    def smooth(w):
        return _window_factor(cs.n, pp, mean(w), ell) * math.exp(pp * c * w)

    ends = [0.0] + sorted(t - s for s in cs.A.times if 0.0 < s < t) + [t]
    total = error = 0.0
    for i, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])):
        if i == 0:
            got = quad(smooth, lo, hi, weight="alg", wvar=(-e, 0.0), epsabs=0.0,
                       epsrel=2e-14, limit=400)
        else:
            got = quad(lambda w: smooth(w) * w**-e, lo, hi, epsabs=0.0, epsrel=2e-14, limit=400)
        total, error = total + got[0], error + got[1]
    return total, error


def _window_factor(n, pp, a, ell):
    """k with ||kernel(w)||_p'^p' = k w^(-e) for the window mean a of A."""
    scale = None
    if ell is not None:
        vals, vecs = np.linalg.eigh(a)
        scale = float(np.linalg.norm((vecs / np.sqrt(vals)) @ vecs.T @ ell))
    return _gaussian_window_factor(n, pp, float(np.linalg.det(a)), scale)


@pytest.mark.parametrize("kind", ["N", "C_ell", "C"])
@pytest.mark.parametrize("preset", ["constant", "affine", "tabulated"])
def test_reported_quad_error_is_honest_and_tight(monkeypatch, preset, kind):
    tails = []
    tail = sharp.piecewise_error
    monkeypatch.setattr(sharp, "piecewise_error", lambda *a: tails.append(tail(*a)) or tails[-1])
    for n in (1, 2) if preset != "tabulated" else (2,):
        threshold = (n + 2.0) / 2.0 if kind == "N" else n + 2.0
        ps = (threshold + 1e-3, threshold + 0.05, threshold + 0.4, 2.0 * threshold, 10.0, INF)
        for m, c, p in itertools.product((1, 2), (-5.0, -50.0, -500.0), ps):
            cs, t, mean = _honest_set(preset, n, m, c)
            ell = np.array([0.6, 0.8])[:n] / np.linalg.norm([0.6, 0.8][:n])
            request = sp.SharpRequest(kind, p, t, ell if kind == "C_ell" else None)
            result = sp.evaluate_sharp(cs, request)
            pp = sp.holder_conjugate(p)
            integral, ref_error = _honest_reference(preset, kind, cs, t, mean, c, pp,
                                                    result.maximizer_ell)
            exact = integral ** (1.0 / pp)
            real = abs(result.value - exact)
            slack = exact * ref_error / (pp * integral)  # the reference's own error
            quad_error = result.diagnostics.quad_error
            row = (preset, kind, n, m, c, p, real / exact, quad_error / exact)
            assert real - slack <= quad_error, row
            prefactor = sharp._solution_prefactor if kind == "N" else sharp._gradient_prefactor
            computed = (result.value / prefactor(n, p, pp)) ** pp  # the row's window integral
            from_tail = result.value * tails[-1] / (pp * computed) >= quad_error * (1 - 1e-9)
            if from_tail:  # else quad_error is the row's rounding term
                assert quad_error <= max(100.0 * (real + slack), 1e-13 * exact), row
