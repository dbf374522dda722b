import math
import tracemalloc

import numpy as np
import pytest

import sharp_parabolic as sp
from sharp_parabolic import kernels, matfun, oracle, sharp, verification
from sharp_parabolic.errors import DomainError, TruncationError
from sharp_parabolic.oracle import (
    IntegralOperatorSpec,
    build_extremal,
    opnorm_bruteforce,
    opnorm_family,
    saturation_ratio,
)
from sharp_parabolic.solve import GridFunction

INF = math.inf


def heat(T=1.0):
    return sp.coefficient_set(n=1, m=1, T=T)


def hspec(kind="H", p=2.0, cs=None, t=1.0, ell=None, res=513, slices=64):
    cs = cs or heat()
    return IntegralOperatorSpec(
        kind=kind, cs=cs, x=np.zeros(cs.n), t=t, p=p, ell=ell,
        grid_resolution=res, sigma_slices=slices,
    )


def test_spec_validation():
    with pytest.raises(DomainError):
        hspec(kind="X")
    with pytest.raises(DomainError):
        IntegralOperatorSpec(kind="H", cs=heat(), x=np.zeros(1), t=1.0, p=2.0,
                             truncation_radius=4.0)
    with pytest.raises(DomainError):
        IntegralOperatorSpec(kind="H", cs=heat(), x=np.zeros(1), t=1.0, p=2.0,
                             grid_resolution=16)
    with pytest.raises(DomainError):
        IntegralOperatorSpec(kind="K", cs=heat(), x=np.zeros(1), t=1.0, p=2.0)


@pytest.mark.parametrize(
    "field",
    [{"sigma_slices": -3}, {"sigma_slices": 0}, {"sigma_slices": 2.5},
     {"truncation_radius": math.nan}, {"grid_resolution": 257.5},
     {"grid_resolution": 17.9}, {"grid_resolution": True}],
    ids=["slices=-3", "slices=0", "slices=2.5", "radius=nan", "res=257.5", "res=17.9",
         "res=True"],
)
def test_spec_rejects_slice_counts_and_radii_that_give_wrong_norms(field):
    # these used to give 0.0, a bare ZeroDivisionError and nan; a fractional
    # resolution built cells whose count and width disagreed
    with pytest.raises(DomainError):
        IntegralOperatorSpec(kind="N", cs=heat(), x=np.zeros(1), t=1.0, p=INF, **field)


@pytest.mark.parametrize("ell", [[0.6, 0.8, 0.0], [[0.6, 0.8]]], ids=["(3,)", "(1, 2)"])
def test_spec_rejects_directions_of_the_wrong_shape(ell):
    # a unit ell of shape (3,) or (1, 2) at n = 2 passed the spec and failed
    # in opnorm_bruteforce with a numpy matmul error
    cs = sp.coefficient_set(n=2, m=1, T=1.0)
    with pytest.raises(DomainError, match="shape"):
        IntegralOperatorSpec(kind="K", cs=cs, x=np.zeros(2), t=1.0, p=2.0, ell=np.array(ell))


@pytest.mark.parametrize("kind", ["H", "K"])
def test_spec_rejects_a_nan_exponent(kind):
    with pytest.raises(DomainError, match="p >= 1"):
        hspec(kind, p=math.nan, ell=np.array([1.0]))


@pytest.mark.parametrize("kind", ["H", "N"])
@pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, 2.0], ids=["-1", "0", "nan", "T+1"])
def test_spec_rejects_times_outside_the_horizon(kind, t):
    # a source spec at t = -1 ended in a bare math domain error, and at
    # t = nan in a misleading empty-window error
    with pytest.raises(DomainError, match="outside"):
        IntegralOperatorSpec(kind=kind, cs=heat(T=1.0), x=np.zeros(1), t=t, p=INF)


def test_opnorm_matches_solution_constant():
    result = opnorm_bruteforce(hspec("H", 2.0))
    expected = sp.sharp_H(heat(), 2.0, 1.0).value
    assert result.value == pytest.approx(expected, rel=1e-4)
    assert result.error_estimate < 1e-4


def test_opnorm_matches_gradient_constant():
    result = opnorm_bruteforce(hspec("K", 2.0, ell=np.array([1.0])))
    expected = sp.sharp_K_ell(heat(), 2.0, 1.0, np.array([1.0])).value
    assert result.value == pytest.approx(expected, rel=1e-4)


def test_opnorm_scalar_system_z_is_trivial():
    result = opnorm_bruteforce(hspec("H", 3.0))
    np.testing.assert_array_equal(result.argmax_z, [1.0])


def test_opnorm_independent_of_x():
    cs = sp.coefficient_set(n=1, m=1, T=1.0, b=np.array([0.6]))
    values = []
    for x in (np.array([0.0]), np.array([2.5]), np.array([-1.0])):
        spec = IntegralOperatorSpec(kind="H", cs=cs, x=x, t=1.0, p=2.0,
                                    grid_resolution=257)
        values.append(opnorm_bruteforce(spec).value)
    assert values[0] == pytest.approx(values[1], rel=1e-12)
    assert values[0] == pytest.approx(values[2], rel=1e-12)


def test_opnorm_argmax_consistent_with_sharp():
    cs = sp.coefficient_set(n=1, m=2, T=1.0, C=np.array([[0.2, 0.5], [0.0, -0.1]]))
    oracle = opnorm_bruteforce(hspec("H", 2.0, cs=cs, t=0.75, res=257))
    closed = sp.sharp_H(cs, 2.0, 0.75)
    assert oracle.value == pytest.approx(closed.value, rel=1e-4)
    dist = min(
        np.linalg.norm(oracle.argmax_z - closed.maximizer_z),
        np.linalg.norm(oracle.argmax_z + closed.maximizer_z),
    )
    assert dist < 1e-2


def test_opnorm_nonhomogeneous_matches_sharp():
    cs = sp.coefficient_set(n=1, m=2, T=1.0, C=np.array([[0.0, 1.0], [0.0, 0.0]]))
    oracle = opnorm_bruteforce(hspec("N", INF, cs=cs, res=257))
    closed = sp.sharp_N(cs, INF, 1.0)
    assert oracle.value == pytest.approx(closed.value, rel=5e-3)


def test_truncation_refusal():
    # p' = 1 has the fattest tail; at 6 sigma it is ~1e-7 of the norm
    spec = IntegralOperatorSpec(
        kind="H", cs=heat(), x=np.zeros(1), t=1.0, p=INF,
        truncation_radius=6.0, grid_resolution=257,
    )
    with pytest.raises(TruncationError):
        opnorm_bruteforce(spec, rel_tol=1e-13)
    # the same spec passes at a realistic tolerance
    assert opnorm_bruteforce(spec, rel_tol=1e-4).value > 0


def test_divergent_truncated_oracle_grows():
    spec = hspec("N", 1.2, res=129)  # n=1: divergent (p <= 3/2)
    assert not sp.converges_N(heat(), 1.2)
    values = [
        opnorm_bruteforce(spec, endpoint_gap=gap).value
        for gap in (1e-2, 1e-3, 1e-4)
    ]
    assert values[0] < values[1] < values[2]
    assert values[2] > 2.0 * values[0]


def test_divergent_truncated_gradient_oracle_grows():
    spec = hspec("C", 2.0, ell=np.array([1.0]), res=129)
    assert not sp.converges_C(heat(), 2.0)
    values = [
        opnorm_bruteforce(spec, endpoint_gap=gap).value
        for gap in (1e-2, 1e-3, 1e-4)
    ]
    assert values[0] < values[1] < values[2]


def test_extremal_p2_is_normalized_kernel():
    spec = hspec("H", 2.0)
    ext = build_extremal(spec, np.array([1.0]))
    assert ext.samples.norm(2.0) == pytest.approx(1.0, abs=1e-10)
    # p' = 2 leaves the kernel shape untouched: proportional to the kernel
    samples = ext.samples.values[:, 0]
    nodes = ext.samples.nodes()[:, 0]
    kernel = np.array(
        [sp.eval_G(heat(), np.array([y]), 1.0).scalar_part for y in nodes]
    )
    scale = samples[len(samples) // 2] / kernel[len(kernel) // 2]
    np.testing.assert_allclose(samples, scale * kernel, rtol=1e-10)


def test_extremal_sup_mode_is_sign_field():
    spec = hspec("K", INF, ell=np.array([1.0]))
    ext = build_extremal(spec, np.array([1.0]))
    mags = np.linalg.norm(ext.samples.values, axis=-1)
    inner = mags[1:-1]
    assert np.all((np.abs(inner - 1.0) < 1e-12) | (inner == 0.0))
    assert ext.samples.norm(INF) == pytest.approx(1.0)


def test_extremal_p1_requires_sign_mode():
    spec = hspec("H", 1.0)
    with pytest.raises(DomainError):
        build_extremal(spec, np.array([1.0]), mode="p-power")
    ext = build_extremal(spec, np.array([1.0]), mode="sign-aligned")
    assert ext.samples.norm(1.0) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sign_aligned_samples_match_the_dense_node_profile_bitwise(n):
    # the profile is summed on the open grid's axes; the dense-node formula
    # it replaced, written out here, gives the same samples bit for bit
    q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    cs = sp.coefficient_set(n=n, m=2, T=1.0, A=q @ np.diag(np.linspace(0.7, 1.3, n)) @ q.T,
                            b=np.linspace(0.3, -0.2, n), C=np.array([[0.1, 0.4], [0.0, -0.2]]))
    spec = IntegralOperatorSpec(kind="K", cs=cs, x=np.linspace(0.2, -0.4, n), t=0.8, p=1.0,
                                ell=np.ones(n) / math.sqrt(n),
                                grid_resolution={1: 65, 2: 33, 3: 17}[n])
    z = np.array([0.6, 0.8])
    samples = build_extremal(spec, z, mode="sign-aligned").samples
    acc = cs.accumulated(0.0, spec.t)
    axes = samples.axes()
    field = kernels.kernel_weight(acc, kernels.displacement(acc, spec.x, axes), spec.ell)
    field = field[..., None] * (acc.exp_ic.T @ z)
    mags = matfun.component_norms(field)
    sign = np.zeros_like(field)
    sign[mags > 0.0] = field[mags > 0.0] / mags[mags > 0.0][..., None]
    width = kernels.kernel_std(acc) / 8.0
    nodes = np.stack(np.broadcast_arrays(*axes), axis=-1)
    profile = np.exp(-matfun.squared_distances(nodes, spec.x + acc.ib) / (2.0 * width * width))
    values = sign * profile[..., None]
    norm = GridFunction(center=samples.center, radius=samples.radius, values=values).norm(1.0)
    assert np.count_nonzero(values) > 0
    np.testing.assert_array_equal(samples.values, values / norm)


def test_extremal_rejects_source_kinds():
    with pytest.raises(DomainError):
        build_extremal(hspec("N", 2.0), np.array([1.0]))


def test_saturation_mass_identity_case():
    # p = infinity without coupling: the extremal is constant initial data
    spec = hspec("H", INF)
    ext = build_extremal(spec, np.array([1.0]))
    sat = saturation_ratio(spec, ext, refine=False)
    assert sat.ratio == pytest.approx(1.0, abs=1e-9)


def test_saturation_achieves_sharp_bounds():
    for kind, p in (("H", 2.0), ("K", 2.0), ("K", INF)):
        ell = np.array([1.0]) if kind == "K" else None
        spec = hspec(kind, p, ell=ell)
        ext = build_extremal(spec, np.array([1.0]))
        sat = saturation_ratio(spec, ext)
        assert sat.ratio >= 0.99
        assert sat.refined_ratio >= 0.999
        assert sat.ratio <= 1.0 + 1e-6
        assert sat.refined_ratio <= 1.0 + 1e-6


def test_saturation_coarse_grid_trend():
    # heavy discretization loses value; refinement recovers it
    spec = hspec("K", INF, ell=np.array([1.0]), res=17)
    ext = build_extremal(spec, np.array([1.0]))
    sat = saturation_ratio(spec, ext)
    assert sat.ratio < 1.0
    assert sat.refined_ratio > sat.ratio
    # coarse midpoint sums on Gaussians may exceed the continuous integral
    # slightly, so the generic upper bound carries the grid's quadrature slack
    spec2 = hspec("H", 2.0, res=17)
    ext2 = build_extremal(spec2, np.array([1.0]))
    sat2 = saturation_ratio(spec2, ext2)
    assert sat2.ratio <= 1.0 + 1e-4


def test_saturation_coupled_system():
    cs = sp.coefficient_set(n=1, m=2, T=1.0, C=np.array([[0.0, 1.0], [0.0, 0.0]]))
    closed = sp.sharp_H(cs, 2.0, 1.0)
    spec = hspec("H", 2.0, cs=cs)
    ext = build_extremal(spec, closed.maximizer_z)
    sat = saturation_ratio(spec, ext, refine=False)
    assert 0.99 <= sat.ratio <= 1.0 + 1e-6


@pytest.mark.parametrize("m", [2, 3])
def test_z_max_p1_on_one_slice_is_the_spectral_norm(m):
    # at p' = inf the objective is w |E z|, whose top is w sigma_max(E)
    rng = np.random.default_rng(40 + m)
    e = rng.standard_normal((m, m))
    w = 0.7
    (z,), value, _ = sharp._maximize(np.array([w]), (e[None],), INF, None)
    sigma, z_top = matfun.spectral_norm(e)
    assert value == pytest.approx(w * sigma, rel=1e-14)
    assert abs(abs(np.dot(z, z_top)) - 1.0) < 1e-9


def _searched_z_max(weights, exps, pp):
    """The same objective by lattice seeds and power iteration (_polish_on_sphere)."""
    if math.isinf(pp):

        def objective(z):
            return float(np.max(weights * np.linalg.norm(exps @ z, axis=1)))

        def gradient(z):  # subgradient of the active term w_k |E_k z|
            vecs = exps @ z
            k = int(np.argmax(weights * np.linalg.norm(vecs, axis=1)))
            return (weights[k] / np.linalg.norm(vecs[k]) * (exps[k].T @ vecs[k]),)

    else:
        objective, gradient = sharp._objective(weights, (exps,), pp)
    settings = sp.SphereSettings(rel_tol=1e-12)
    seeds = sharp.sphere_lattice(exps.shape[1], settings.seeds_per_dim * exps.shape[1])
    z0 = seeds[int(np.argmax([objective(s) for s in seeds]))]
    (z,), value, _ = sharp._polish_on_sphere(objective, gradient, (z0,), settings)
    return z, value


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize(
    "k, pp", [(1, 1.0), (1, 1.5), (1, 3.0), (1, INF), (5, INF)],
    ids=["K1-pp1", "K1-pp1.5", "K1-pp3", "K1-ppinf", "K5-ppinf"],
)
def test_exact_z_max_matches_the_sphere_search(m, k, pp):
    # one term, or terms combined by a max: the maximum is a spectral norm
    rng = np.random.default_rng(100 * m + k)
    for _ in range(4):
        exps = rng.standard_normal((k, m, m))
        weights = rng.uniform(0.5, 1.5, k)
        (z,), exact, _ = sharp._maximize(weights, (exps,), pp, None)
        _, searched = _searched_z_max(weights, exps, pp)
        assert exact == pytest.approx(searched, rel=1e-12)
        assert exact >= searched * (1.0 - 1e-15)
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(z, matfun.canonical_sign(z))


@pytest.mark.parametrize("kind, p", [("H", 3.0), ("K", INF), ("N", 2.0), ("C", INF)])
def test_one_component_maximizer_is_one(kind, p):
    ell = np.array([1.0]) if kind in ("K", "C") else None
    result = opnorm_bruteforce(hspec(kind, p, ell=ell, res=129, slices=16))
    assert np.array_equal(result.argmax_z, [1.0])


NON_DIAGONAL = sp.coefficient_set(
    n=2, m=2, T=1.0, A=np.array([[1.3, 0.4], [0.4, 0.7]]), b=np.array([0.7, -0.3]),
    C=np.array([[0.2, 0.5], [0.0, -0.1]]),
)


@pytest.mark.parametrize(
    "case",
    [
        verification.VerificationCase(
            "H[n2m2-offdiag,p=2]", NON_DIAGONAL, "H", 2.0, 0.75, None,
            verification.HOMOGENEOUS_TOL,
        ),
        verification.VerificationCase(
            "C[n2m2-offdiag,p=inf]", NON_DIAGONAL, "C", INF, 0.75,
            np.array([0.6, 0.8]), verification.NONHOMOGENEOUS_TOL,
        ),
    ],
    ids=lambda case: case.name,
)
def test_oracle_matches_sharp_on_non_diagonal_A(case):
    # the check-matrix presets have diagonal A, so only this exercises the
    # kernel field's cross term
    row = verification.run_case(case)
    assert row.passed, row


def family(cs, kinds, ps, t=0.75, res=65, slices=16):
    """One oracle family: each kind at each p, gradient kinds along every
    direction of the check matrices."""
    specs = []
    for p in ps:
        for kind in kinds:
            ells = verification._directions(cs.n) if kind in ("K", "C") else [None]
            specs += [
                IntegralOperatorSpec(kind=kind, cs=cs, x=np.zeros(cs.n), t=t, p=p, ell=ell,
                                     grid_resolution=res, sigma_slices=slices)
                for ell in ells
            ]
    return specs


PRESETS = {
    **{f"n{n}m{m}": verification.constant_presets(n, m)[1][1]
       for n, m in ((1, 1), (1, 2), (2, 1), (2, 2))},
    "n2m2-offdiag": NON_DIAGONAL,
}


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize(
    "kinds, ps", [("HK", (1.0, 2.0, 3.0, INF)), ("NC", (INF, 2.0))], ids=["HK", "NC"]
)
def test_family_pass_equals_per_spec_calls(preset, kinds, ps):
    specs = family(PRESETS[preset], kinds, ps)
    for spec, got in zip(specs, opnorm_family(specs)):
        want = opnorm_bruteforce(spec)
        assert got.value == want.value, (spec.kind, spec.p, spec.ell)
        assert np.array_equal(got.argmax_z, want.argmax_z)
        assert got.error_estimate == want.error_estimate
        assert got.truncation_bound == want.truncation_bound


def test_every_verify_N_row_is_exact_to_rounding():
    # the sigma-integrand of every N check is sigma^0 or sigma^1 times a
    # smooth factor, which the Gauss-Legendre slices integrate geometrically
    rows = verification.run_cases(verification.cases_for("all"))
    assert all(row.passed for row in rows)
    n_rows = [row for row in rows if row.name.startswith("N[")]
    assert len(n_rows) == 12
    assert max(row.rel_diff for row in n_rows) <= 1e-12, n_rows


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kinds, ps", [("N", (INF, 2.0)), ("C", (INF,))], ids=["N", "C"])
def test_sixteen_slices_are_converged_in_time(n, kinds, ps):
    # the verify families' exponents (p = 2 is divergent for N at n = 2)
    cs = PRESETS[f"n{n}m2"]
    ps = [p for p in ps if kinds == "C" or p > (n + 2.0) / 2.0]
    values = [[r.value for r in opnorm_family(family(cs, kinds, ps, res=33, slices=k))]
              for k in (16, 32)]
    np.testing.assert_allclose(values[0], values[1], rtol=1e-13, atol=0.0)


def test_default_slices_on_a_non_integer_time_exponent():
    # N at n = 1, p = 3: the sigma-integrand is sigma^(1/2) times a smooth
    # factor, so the rule is not geometric here; 64 midpoints gave 1.4e-4
    cs = dict(verification.constant_presets(1, 1))["n1m1-aniso"]
    spec = IntegralOperatorSpec(kind="N", cs=cs, x=np.zeros(1), t=0.75, p=3.0)
    want = sp.sharp_N(cs, 3.0, 0.75).value
    assert spec.sigma_slices == 16
    assert opnorm_bruteforce(spec).value == pytest.approx(want, rel=1e-4)


def test_family_rejects_specs_that_do_not_share_their_slices():
    cs = heat()
    base = hspec("H", 2.0, cs=cs)
    for other in (hspec("H", 2.0, cs=heat()), hspec("H", 2.0, cs=cs, t=0.5),
                  hspec("N", 2.0, cs=cs)):
        with pytest.raises(DomainError):
            opnorm_family([base, other])
    with pytest.raises(DomainError):
        opnorm_family([])


def test_run_cases_equals_run_case_per_case():
    cases = verification.quick_cases()
    assert verification.run_cases(cases) == [verification.run_case(c) for c in cases]


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kinds, ps", [("NC", (INF,)), ("HK", (1.0,))], ids=["NC", "HK-p1"])
def test_family_peak_memory_is_that_of_one_spec(kinds, ps):
    # The n2m2-aniso verify family against its specs one at a time at
    # p = inf, where nothing zooms. At p = 1 each spec also zooms, which
    # must wait until the shared Gaussian is released.
    cs = PRESETS["n2m2"]
    specs = family(cs, kinds, ps, res=257, slices=64)
    singles = max(traced_peak(lambda spec=spec: opnorm_bruteforce(spec))
                  for spec in family(cs, kinds, (INF,), res=257, slices=64))
    grid_bytes = 257**2 * 8
    # the family keeps a few result tuples per spec beyond one spec's pass;
    # a second live grid would add grid_bytes
    assert traced_peak(lambda: opnorm_family(specs)) <= singles + grid_bytes // 16
