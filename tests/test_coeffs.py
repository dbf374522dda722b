import csv
import json
import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import sharp_parabolic as sp
from sharp_parabolic.cli import main
from sharp_parabolic.coeffs import WINDOW_CACHE_SIZE, commutation_defect, integrate_windows
from sharp_parabolic.errors import DomainError, NotPositiveDefinite


def test_constant_coefficients_integrate_exactly():
    cs = sp.coefficient_set(n=2, m=2, T=2.0)
    acc = cs.accumulated(0.0, 2.0)
    np.testing.assert_allclose(acc.ia, 2.0 * np.eye(2), atol=1e-13)
    np.testing.assert_allclose(acc.ib, np.zeros(2), atol=1e-15)
    np.testing.assert_allclose(acc.ic, np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(acc.exp_ic, np.eye(2), atol=1e-15)


def test_affine_diagonal_integral():
    a = sp.Affine(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
    cs = sp.coefficient_set(n=2, m=1, T=1.0, A=a)
    acc = cs.accumulated(0.0, 1.0)
    np.testing.assert_allclose(acc.ia, np.diag([1.5, 1.0]), rtol=1e-12)


def test_tabulated_exponential_integral():
    # 33 uniform samples of e^t on [0,1]; monotone cubic interpolation keeps
    # the quadrature within 1e-6 of e - 1
    ts = np.linspace(0.0, 1.0, 33)
    tab = sp.Tabulated(ts, np.exp(ts)[:, None, None])
    cs = sp.coefficient_set(n=1, m=1, T=1.0, A=tab)
    acc = cs.accumulated(0.0, 1.0)
    assert acc.ia[0, 0] == pytest.approx(math.e - 1.0, abs=1e-6)


def test_derived_fields_consistent():
    rng = np.random.default_rng(23)
    g = rng.standard_normal((3, 3))
    a = g @ g.T + 0.3 * np.eye(3)
    c = rng.standard_normal((2, 2))
    cs = sp.coefficient_set(n=3, m=2, T=1.0, A=a, C=c)
    acc = cs.accumulated(0.2, 0.9)
    np.testing.assert_allclose(acc.ia_sqrt @ acc.ia_sqrt, acc.ia, rtol=1e-10)
    np.testing.assert_allclose(
        acc.ia_inv_sqrt @ acc.ia_sqrt, np.eye(3), atol=1e-11
    )
    assert acc.det_ia_sqrt == pytest.approx(
        math.sqrt(np.linalg.det(acc.ia)), rel=1e-10
    )
    np.testing.assert_allclose(
        acc.exp_ic_star, acc.exp_ic.T, rtol=1e-12, atol=1e-14
    )


def test_additivity_of_windows():
    a = sp.Affine(np.array([[1.0]]), np.array([[0.5]]))
    b = sp.Affine(np.array([0.0]), np.array([1.0]))
    cs = sp.coefficient_set(n=1, m=1, T=2.0, A=a, b=b, C=-0.2)
    whole = cs.accumulated(0.1, 1.7)
    left = cs.accumulated(0.1, 0.9)
    right = cs.accumulated(0.9, 1.7)
    np.testing.assert_allclose(left.ia + right.ia, whole.ia, rtol=1e-10)
    np.testing.assert_allclose(left.ib + right.ib, whole.ib, rtol=1e-10)
    np.testing.assert_allclose(left.ic + right.ic, whole.ic, rtol=1e-10)


def test_min_eigenvalue_monotone_in_t():
    a = sp.Affine(np.array([[1.0, 0.2], [0.2, 2.0]]), np.eye(2))
    cs = sp.coefficient_set(n=2, m=1, T=2.0, A=a)
    previous = 0.0
    for t in np.linspace(0.2, 2.0, 10):
        low = cs.accumulated(0.1, float(t)).ia_eigenvalues[-1]
        assert low >= previous - 1e-12
        previous = low


def test_degenerate_window_rejected():
    cs = sp.coefficient_set(n=1, m=1, T=1.0)
    with pytest.raises(DomainError):
        cs.accumulated(0.5, 0.5 + 1e-15)
    with pytest.raises(DomainError):
        cs.accumulated(0.7, 0.3)


def test_tabulated_coverage_enforced():
    ts = np.linspace(0.0, 0.5, 9)
    tab = sp.Tabulated(ts, np.ones((9, 1, 1)))
    with pytest.raises(DomainError):
        sp.coefficient_set(n=1, m=1, T=1.0, A=tab)


def test_tabulated_requires_increasing_times():
    with pytest.raises(DomainError):
        sp.Tabulated(np.array([0.0, 0.5, 0.4]), np.ones((3, 1)))


def test_construction_rejects_indefinite_A():
    with pytest.raises(NotPositiveDefinite):
        sp.coefficient_set(n=2, m=1, T=1.0, A=np.diag([1.0, -0.5]))
    # sign flip midway caught by the probe grid
    a = sp.Affine(np.array([[0.5]]), np.array([[-1.0]]))
    with pytest.raises(NotPositiveDefinite):
        sp.coefficient_set(n=1, m=1, T=1.0, A=a)


def test_construction_checks_tabulated_A_at_every_sample_time():
    # A(0.3) = -1 lies between the points of the 33-probe grid
    times = np.array([0.0, 0.299, 0.3, 0.301, 1.0])
    values = np.array([1.0, 1.0, -1.0, 1.0, 1.0]).reshape(-1, 1, 1)
    with pytest.raises(NotPositiveDefinite):
        sp.coefficient_set(n=1, m=1, T=1.0, A=sp.Tabulated(times, values))


def test_window_scaling_exponents_constant():
    assert sp.window_scaling_exponents(
        sp.coefficient_set(n=2, m=1, T=1.0), 1.0
    ) == (1.0, 0.5)
    assert sp.window_scaling_exponents(
        sp.coefficient_set(n=1, m=1, T=1.0), 1.0
    ) == (0.5, 0.5)


def test_window_scaling_exponents_affine_fit():
    a = sp.Affine(np.eye(1), np.eye(1))  # A(t) = (1 + t) I
    cs = sp.coefficient_set(n=1, m=1, T=1.0, A=a)
    kernel_exp, grad_exp = sp.window_scaling_exponents(cs, 1.0)
    assert kernel_exp == pytest.approx(0.5, abs=0.01)
    assert grad_exp == pytest.approx(0.5, abs=0.01)


def test_commutation_defect():
    constant = sp.coefficient_set(
        n=1, m=2, T=1.0, C=np.array([[0.0, 1.0], [0.0, 0.0]])
    )
    assert commutation_defect(constant, 1.0) == pytest.approx(0.0, abs=1e-12)
    c = sp.Affine(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))
    varying = sp.coefficient_set(n=1, m=2, T=1.0, C=c)
    assert commutation_defect(varying, 1.0) > 1e-3


def test_quadrature_error_scales_with_tolerance():
    ts = np.linspace(0.0, 1.0, 65)
    tab = sp.Tabulated(ts, (1.0 + np.sin(3.0 * ts) ** 2)[:, None, None])
    cs = sp.coefficient_set(n=1, m=1, T=1.0, A=tab)
    loose = sp.integrate_coefficients(cs, 0.0, 1.0, tol=1e-4)
    tight = sp.integrate_coefficients(cs, 0.0, 1.0, tol=1e-12)
    assert abs(loose.ia[0, 0] - tight.ia[0, 0]) < 1e-4


# ---------------------------------------------------------------------------
# closed-form window engine

SAMPLE_TIMES = np.linspace(0.0, 1.0, 3)  # one interior sample time, at 0.5


def _smooth_samples(times):
    """SPD A(t) (2x2) and coupling C(t) (2x2) samples of smooth functions."""
    a11 = 1.0 + 0.3 * np.sin(2.0 * times)
    a12 = 0.2 * np.cos(times)
    a22 = 0.8 + times**2
    a = np.stack([np.stack([a11, a12], -1), np.stack([a12, a22], -1)], -2)
    c = np.stack([np.stack([0.2 + times, 0.6 - times], -1),
                  np.stack([-0.3 * np.exp(times), 0.1 + 0.0 * times], -1)], -2)
    return a, c


def _tabulated_set(times=SAMPLE_TIMES):
    a, c = _smooth_samples(times)
    b = sp.Affine(np.array([0.3, -0.2]), np.array([0.5, 1.0]))
    cs = sp.coefficient_set(n=2, m=2, T=1.0, A=sp.Tabulated(times, a), b=b,
                            C=sp.Tabulated(times, c))
    return cs, PchipInterpolator(times, a, axis=0), PchipInterpolator(times, c, axis=0)


def _rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def test_wide_windows_match_closed_forms():
    a0 = np.array([[1.0, 0.2], [0.2, 0.7]])
    a1 = np.array([[0.3, -0.1], [-0.1, 0.2]])
    c = np.array([[-0.2, 0.5], [0.1, -0.4]])
    cs = sp.coefficient_set(n=2, m=2, T=1.0, A=sp.Affine(a0, a1), C=c)
    tab, interp_a, interp_c = _tabulated_set()
    for t in np.linspace(0.05, 1.0, 12):
        for frac in (0.02, 0.3, 0.5, 0.77, 1.0):
            tau = t * (1.0 - frac)
            acc = cs.accumulated(tau, t)
            assert _rel(acc.ia, a0 * (t - tau) + 0.5 * a1 * (t * t - tau * tau)) <= 1e-13
            assert _rel(acc.ic, c * (t - tau)) <= 1e-13
            acc = tab.accumulated(tau, t)
            assert _rel(acc.ia, interp_a.integrate(tau, t)) <= 1e-13
            assert _rel(acc.ic, interp_c.integrate(tau, t)) <= 1e-13


@pytest.mark.parametrize("t", [0.5, 0.3])
@pytest.mark.parametrize("w", [1e-12, 1e-9, 1e-6])
def test_tiny_windows_match_midpoint_value(t, w):
    # exact to roundoff: the midpoint rule's own error w^2 F''/24 is below
    # 1e-12 relative here, while F(t) - F(t - w) loses digits as w shrinks
    # (at w = 1e-12 the window is below the SPD floor of the derived fields,
    # so the presets' integrals are checked directly)
    cs, interp_a, interp_c = _tabulated_set()
    ia = cs.A.integral(np.array([t]), np.array([w]))[0]
    ic = cs.C.integral(np.array([t]), np.array([w]))[0]
    assert _rel(ia, w * interp_a(t - 0.5 * w)) <= 1e-12
    assert _rel(ic, w * interp_c(t - 0.5 * w)) <= 1e-12


def test_additivity_across_a_sample_time():
    cs, _, _ = _tabulated_set(np.linspace(0.0, 1.0, 5))
    for lo, mid, hi in ((0.2, 0.5, 0.9), (0.1, 0.25, 0.8), (0.3, 0.5, 0.5 + 1e-7)):
        whole = cs.accumulated(lo, hi)
        left = cs.accumulated(lo, mid)
        right = cs.accumulated(mid, hi)
        assert _rel(left.ia + right.ia, whole.ia) <= 1e-14
        assert _rel(left.ic + right.ic, whole.ic) <= 1e-14


def test_batched_window_is_bit_identical_to_single():
    cs, _, _ = _tabulated_set(np.linspace(0.0, 1.0, 6))
    rng = np.random.default_rng(8)
    ends = rng.uniform(0.05, 1.0, 40)
    lengths = ends * rng.uniform(1e-9, 1.0, 40)
    batch = integrate_windows(cs, ends, lengths)
    for k in range(ends.size):
        alone = integrate_windows(cs, ends[k], [lengths[k]])[0]
        for name in ("ia", "ib", "ic", "ia_sqrt", "ia_inv_sqrt", "ia_inv",
                     "ia_eigenvalues", "exp_ic", "exp_ic_star"):
            assert np.array_equal(getattr(alone, name), getattr(batch[k], name)), name
        assert alone.det_ia_sqrt == batch[k].det_ia_sqrt
        assert alone.quad_error == batch[k].quad_error


def test_coeffs_csv_on_benchmark_lattice_matches_antiderivative(tmp_path):
    a, c = _smooth_samples(SAMPLE_TIMES)
    for name, header, rows in (
        ("a.csv", "t,entry_11,entry_12,entry_22", [[m[0, 0], m[0, 1], m[1, 1]] for m in a]),
        ("c.csv", "t,entry_11,entry_12,entry_21,entry_22", [m.reshape(-1) for m in c]),
    ):
        lines = [header] + [",".join(f"{v:.17g}" for v in [s, *row])
                            for s, row in zip(SAMPLE_TIMES, rows)]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    ends, fracs = np.meshgrid(np.linspace(0.05, 1.0, 50), np.linspace(0.02, 1.0, 30))
    ends = ends.reshape(-1)
    starts = ends * (1.0 - fracs.reshape(-1))
    body = {
        "problem": {"n": 2, "m": 2, "T": 1.0},
        "coefficients": {"A": {"preset": "tabulated", "path": "a.csv"},
                         "C": {"preset": "tabulated", "path": "c.csv"}},
        "request": {"command": "coeffs",
                    "windows": [[float(lo), float(hi)] for lo, hi in zip(starts, ends)]},
    }
    config = tmp_path / "coeffs.json"
    config.write_text(json.dumps(body))
    out = tmp_path / "coeffs.csv"
    assert main(["coeffs", "--config", str(config), "--out", str(out)]) == 0
    with open(out) as handle:
        rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
    assert len(rows) == ends.size
    anti_a = PchipInterpolator(SAMPLE_TIMES, a, axis=0).antiderivative()
    anti_c = PchipInterpolator(SAMPLE_TIMES, c, axis=0).antiderivative()
    for row, lo, hi in zip(rows, starts, ends):
        assert float(row["tau"]) == lo and float(row["t"]) == hi
        ia = np.array([[float(row["ia_11"]), float(row["ia_12"])],
                       [float(row["ia_12"]), float(row["ia_22"])]])
        ic = np.array([[float(row[f"ic_{i}{j}"]) for j in (1, 2)] for i in (1, 2)])
        ref_a = anti_a(hi) - anti_a(lo)
        ref_c = anti_c(hi) - anti_c(lo)
        assert np.linalg.norm(ia - ref_a) <= 1e-12 * np.linalg.norm(ref_a)
        assert np.linalg.norm(ic - ref_c) <= 1e-12 * np.linalg.norm(ref_c)
        assert 0.0 < float(row["quad_error"]) <= 1e-12 * np.linalg.norm(ref_a)


def test_window_cache_stays_bounded():
    cs = sp.coefficient_set(n=1, m=1, T=1.0)
    lengths = np.linspace(1e-3, 0.9, WINDOW_CACHE_SIZE + 100)
    cs.windows(1.0, lengths)
    cs.windows(1.0, lengths[:10] + 0.05)
    assert len(cs._cache) <= WINDOW_CACHE_SIZE
    # tol does not enter the key: the same window comes back from the cache
    assert cs.accumulated(0.5, 1.0, 1e-4) is cs.accumulated(0.5, 1.0)
    assert cs.accumulated(0.5, 1.0) is cs.window(1.0, 0.5)
