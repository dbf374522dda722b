import csv
import dataclasses
import json
import math
import threading

import numpy as np
import pytest
import scipy.linalg
from scipy.interpolate import PchipInterpolator

import sharp_parabolic as sp
from sharp_parabolic import coeffs, sharp
from sharp_parabolic.cli import format_cell, main
from sharp_parabolic.coeffs import (
    AccumulatedIntegrals, _singular_times, commutation_defect, integrate_windows,
)
from sharp_parabolic.config import load_config
from sharp_parabolic.errors import DomainError, NotPositiveDefinite
from sharp_parabolic.quadrature import fejer_rule


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
    np.testing.assert_allclose(acc.ia_inv_sqrt @ acc.ia_inv_sqrt, acc.ia_inv, rtol=1e-10)
    np.testing.assert_allclose(
        acc.ia_inv_sqrt @ acc.ia @ acc.ia_inv_sqrt, np.eye(3), atol=1e-11
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


@pytest.mark.parametrize("times", [[0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0], [0.0, 1.0, np.nan]],
                         ids=["inf", "-inf", "nan"])
def test_tabulated_refuses_sample_times_that_are_not_finite(times):
    # an infinite end time passed as increasing and gave NaN PCHIP end slopes
    with pytest.raises(DomainError, match="finite"):
        sp.Tabulated(np.array(times), np.ones((3, 1)))


def test_construction_rejects_indefinite_A():
    with pytest.raises(NotPositiveDefinite):
        sp.coefficient_set(n=2, m=1, T=1.0, A=np.diag([1.0, -0.5]))
    # sign flip midway caught at the ends
    a = sp.Affine(np.array([[0.5]]), np.array([[-1.0]]))
    with pytest.raises(NotPositiveDefinite):
        sp.coefficient_set(n=1, m=1, T=1.0, A=a)


def test_construction_checks_tabulated_A_at_every_sample_time():
    # A(0.3) = -1 only at a sample time
    times = np.array([0.0, 0.299, 0.3, 0.301, 1.0])
    values = np.array([1.0, 1.0, -1.0, 1.0, 1.0]).reshape(-1, 1, 1)
    with pytest.raises(NotPositiveDefinite):
        sp.coefficient_set(n=1, m=1, T=1.0, A=sp.Tabulated(times, values))


# (a11, a12, a22) of an A that is SPD at every sample time, while its
# monotone cubic is singular at 0.1259 and 0.1493 and indefinite between
DIPPING_TIMES = np.array([0.0, 0.159474, 0.213307, 0.353258, 1.0])
DIPPING_ENTRIES = np.array([
    [0.773375, -0.214626, 0.063041],
    [0.134235, 0.108846, 0.092205],
    [0.768709, -0.586369, 0.813652],
    [0.189288, 0.184156, 0.585749],
    [3.561443, 0.287781, 0.099164],
])


def _dipping_A():
    a11, a12, a22 = DIPPING_ENTRIES.T
    values = np.stack([np.stack([a11, a12], -1), np.stack([a12, a22], -1)], -2)
    assert np.all(np.linalg.eigvalsh(values)[:, 0] > 0.0)
    assert np.linalg.eigvalsh(PchipInterpolator(DIPPING_TIMES, values)(0.1367))[0] < 0.0
    return sp.Tabulated(DIPPING_TIMES, values)


def test_construction_rejects_tabulated_A_singular_between_samples():
    with pytest.raises(NotPositiveDefinite, match=r"A\(0\.125883\) is singular"):
        sp.coefficient_set(n=2, m=1, T=1.0, A=_dipping_A())
    # the singular points lie after T = 0.12, so A is SPD on [0, T]
    sp.coefficient_set(n=2, m=1, T=0.12, A=_dipping_A())


def _pchip_tables(rng):
    """Random sample tables of 2 to 8 samples with scalar, vector and matrix
    values, rounded to halves so that flat runs and sign changes are common."""
    for k in range(300):
        size = 2 + k % 7
        shape = [(), (3,), (2, 2)][k % 3]
        times = np.cumsum(rng.uniform(0.05, 1.0, size)) - 0.3
        yield times, np.round(2.0 * rng.normal(size=(size,) + shape)) / 2.0


def test_pchip_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20)
    for times, values in _pchip_tables(rng):
        tab = sp.Tabulated(times, values)
        ref = PchipInterpolator(times, values, axis=0)
        assert np.array_equal(tab.coefs, ref.c)
        for t in np.concatenate([times, rng.uniform(times[0], times[-1], 8)]):
            assert np.array_equal(tab(t), ref(t))


def _singular_times_by_qz(A, T):
    """_singular_times with every piece expanded about its start and the
    pencil's roots taken from scipy's generalized eigenvalues (QZ)."""
    n = A(A.times[0]).shape[-1]
    eye, zero = np.eye(n), np.zeros((n, n))
    found = []
    for i, h in enumerate(np.diff(A.times)):
        c0, c1, c2, c3 = (0.5 * (c + c.T) for c in A.coefs[:, i])
        pencil = np.block([[zero, eye, zero], [zero, zero, eye], [-c3, -c2, -c1]])
        u = scipy.linalg.eigvals(pencil, scipy.linalg.block_diag(eye, eye, c0))
        u = u[np.isfinite(u) & (np.abs(u.imag) <= 1e-8 * h)].real
        found.extend(s for s in A.times[i] + u[(u > 0.0) & (u <= h)] if 0.0 <= s <= T)
    return sorted(found)


@pytest.mark.parametrize("data", ["random", "linear", "partly linear"])
def test_singular_times_match_the_generalized_eigenvalues(data):
    # "linear" pieces have c0 = c1 = 0 and "partly linear" ones a singular
    # c0 != 0, so the pencil has infinite eigenvalues; the first table
    # starts before 0, where its first piece is expanded about 0. QZ places
    # a few roots up to 1.5e-8 away, where A(s) is still 1e-4 from singular;
    # the roots found here leave A(s) singular to roundoff
    rng = np.random.default_rng(21)
    hits = 0
    for k in range(40):
        inner = np.sort(rng.uniform(0.05, 0.95, 2 + k % 3))
        times = np.concatenate([[-0.2 if k == 0 else 0.0], inner, [1.0 + 0.1 * (k % 2)]])
        values = rng.normal(size=(times.size, 3, 3))
        values = values + np.swapaxes(values, 1, 2)
        if data == "linear":
            values = values[0] + times[:, None, None] * values[1]
        elif data == "partly linear":
            values[:, 0, :] = values[0, 0] + times[:, None] * values[1, 0]
            values[:, :, 0] = values[:, 0, :]
        A = sp.Tabulated(times, values)
        got, want = sorted(_singular_times(A, 1.0)), _singular_times_by_qz(A, 1.0)
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-7)
        for s in got:
            eig = np.abs(np.linalg.eigvalsh(A(s)))
            assert eig.min() <= 1e-12 * eig.max()
        hits += len(got)
    assert hits > 10


def test_affine_singular_times_are_the_generalized_eigenvalues():
    # A(t) = A0 + t A1 is singular where A0 v = -t A1 v: one crossing in (0, 1)
    a0 = np.array([[1.0, 0.2], [0.2, 0.7]])
    a1 = np.array([[-1.5, 0.3], [0.3, 0.4]])
    want = scipy.linalg.eigvals(a0, -a1)
    want = np.sort(want[(want.imag == 0.0) & (want.real > 0.0) & (want.real <= 1.0)].real)
    assert want.size == 1
    got = np.sort(_singular_times(sp.Affine(a0, a1), 1.0))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def test_constant_A_runs_no_pencil(monkeypatch):
    def no_pencil(*args):
        raise AssertionError("a pencil was solved for a constant A")

    monkeypatch.setattr(np.linalg, "eigvals", no_pencil)
    A = sp.Constant(np.array([[1.0, 0.3], [0.3, 2.0]]))
    assert _singular_times(A, 1.0) == []
    sp.coefficient_set(n=2, m=1, T=1.0, A=A)


def test_constant_and_affine_presets_live_on_the_half_line():
    v, s = np.array([[1.0, 0.5], [0.5, 2.0]]), np.eye(2)
    for preset in (sp.Constant(v), sp.Affine(v, s)):
        np.testing.assert_array_equal(preset(0.0), v)
        assert np.all(np.isfinite(preset(1e9)))
        with pytest.raises(DomainError):
            preset(-1e-9)


def test_constant_integral_is_the_window_times_the_value():
    v = np.random.default_rng(26).normal(size=(3, 3))
    t, w = np.full(5, 0.9), np.array([1e-13, 0.1, 1.0 / 3.0, 0.7, 0.9])
    assert np.array_equal(sp.Constant(v).integral(t, w), w[:, None, None] * v)


def test_bounds_and_quad_error_keep_their_closed_forms_bit_for_bit():
    # constant: max|value|; affine: max|value0| + t max|slope|; tabulated:
    # the sup of every piece's sum_k |c_k| h^(3-k), widened by the piece count
    rng = np.random.default_rng(26)
    v, s = rng.normal(size=(2, 2, 2))
    times = np.array([0.0, 0.3, 0.55, 1.0])
    values = rng.normal(size=(times.size, 1, 1))
    t = np.linspace(0.05, 1.0, 7)
    A, b, C = sp.Constant(v @ v.T + np.eye(2)), sp.Affine(v[0], s[0]), sp.Tabulated(times, values)
    assert A.bound(t) == np.max(np.abs(v @ v.T + np.eye(2)))
    np.testing.assert_array_equal(b.bound(t), np.max(np.abs(v[0])) + t * np.max(np.abs(s[0])))
    c = PchipInterpolator(times, values, axis=0).c
    h = np.diff(times)[:, None, None]
    sup = float(np.max(np.sum(np.abs(c) * h ** np.arange(3, -1, -1).reshape(4, 1, 1, 1), axis=0)))
    assert C.bound(t) == sup * (1.0 + 3 / 64)
    cs = sp.coefficient_set(n=2, m=1, T=1.0, A=A, b=b, C=C)
    w = 0.5 * t
    scale = np.maximum(np.maximum(A.bound(t), b.bound(t)), C.bound(t))
    np.testing.assert_array_equal(integrate_windows(cs, t, w).quad_error,
                                  64 * np.finfo(float).eps * w * scale)


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
    assert sp.window_scaling_exponents(cs, 1.0) == (0.5, 0.5)


def test_window_scaling_exponents_tabulated():
    ts = np.linspace(0.0, 1.0, 5)
    values = np.stack([np.diag([1.0 + t, 2.0 - t, 1.5]) for t in ts])
    cs = sp.coefficient_set(n=3, m=1, T=1.0, A=sp.Tabulated(ts, values))
    assert sp.window_scaling_exponents(cs, 0.5) == (1.5, 0.5)


def test_commutation_defect():
    constant = sp.coefficient_set(
        n=1, m=2, T=1.0, C=np.array([[0.0, 1.0], [0.0, 0.0]])
    )
    assert commutation_defect(constant, 1.0) == pytest.approx(0.0, abs=1e-12)
    c = sp.Affine(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))
    varying = sp.coefficient_set(n=1, m=2, T=1.0, C=c)
    assert commutation_defect(varying, 1.0) > 1e-3


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


def _assert_same_windows(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def test_batched_window_is_bit_identical_to_single():
    cs, _, _ = _tabulated_set(np.linspace(0.0, 1.0, 6))
    rng = np.random.default_rng(8)
    ends = rng.uniform(0.05, 1.0, 40)
    lengths = ends * rng.uniform(1e-9, 1.0, 40)
    alone = [integrate_windows(cs, t, [w])[0] for t, w in zip(ends, lengths)]
    _assert_same_windows(integrate_windows(cs, ends, lengths), alone)


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


def test_accumulated_is_the_one_window_batch():
    cs, _, _ = _tabulated_set(np.linspace(0.0, 1.0, 6))
    _assert_same_windows([cs.accumulated(0.5, 1.0)], cs.windows(1.0, [0.5]))


def test_threads_computing_the_same_windows_agree_bit_for_bit():
    cs, _, _ = _tabulated_set(np.linspace(0.0, 1.0, 6))
    lengths = np.linspace(1e-3, 0.9, 50)
    single = cs.windows(1.0, lengths)
    results = [None] * 4

    def run(k):
        results[k] = cs.windows(1.0, lengths)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive()
    for got in results:
        _assert_same_windows(got, single)


def _scalar_tabulated_set(times=SAMPLE_TIMES):
    """The n = m = 1 counterpart of _tabulated_set: the (1, 1) entries."""
    a, c = _smooth_samples(times)
    return sp.coefficient_set(n=1, m=1, T=1.0, A=sp.Tabulated(times, a[:, :1, :1]),
                              b=sp.Affine(np.array([0.3]), np.array([0.5])),
                              C=sp.Tabulated(times, c[:, :1, :1]))


@pytest.mark.parametrize("make", [lambda: _tabulated_set()[0], _scalar_tabulated_set],
                         ids=["n2m2", "n1m1"])
def test_window_batch_fields_are_the_stacked_windows(make):
    cs = make()
    lengths = np.linspace(1e-3, 0.9, 17)
    batch = cs.windows(0.95, lengths)
    assert len(batch) == lengths.size
    items = list(batch)
    for f in dataclasses.fields(batch):
        stacked = getattr(batch, f.name)
        assert stacked.shape[0] == lengths.size
        for k, item in enumerate(items):
            assert np.array_equal(getattr(item, f.name), stacked[k]), f.name
            assert np.array_equal(getattr(batch[k], f.name), stacked[k]), f.name
    assert batch.exp_ic_star.flags.c_contiguous
    assert np.array_equal(batch.exp_ic_star, np.swapaxes(batch.exp_ic, -1, -2))
    assert isinstance(batch[0].det_ia_sqrt, float) and isinstance(batch[0].tau, float)
    with pytest.raises(ValueError):
        batch.ia[0, 0, 0] = 1.0  # read-only: items are views of the batch


def test_window_tables_read_the_batch_arrays():
    cs, _, _ = _tabulated_set()
    pp = 1.2  # e = 0.8 < 1 with the gradient at n = 2
    tables = sharp._window_tables(cs, 0.9, pp, with_gradient=True, nodes=31)
    # the node table's rule, as _window_tables builds it
    e = 0.5 * cs.n * (pp - 1.0) + 0.5 * pp
    ends = cs.window_breaks(0.9, drift=False)
    starts = np.append(0.0, ends[:-1])
    u = fejer_rule(31)[0]
    ws = (starts[:, None] + (ends - starts)[:, None] * u).ravel()
    rule = (ends - starts)[:, None] * fejer_rule(31)[1]
    rule[0] = ends[0] * fejer_rule(31, e)[1] * u**e
    items = list(cs.windows(0.9, ws))
    dets = np.array([acc.det_ia_sqrt for acc in items]) ** (1.0 - pp)
    assert np.array_equal(tables.sigmas, np.sqrt(ws))
    assert np.array_equal(tables.weights, rule.ravel() * dets)
    assert np.array_equal(tables.dets, dets) and tables.e == e
    assert np.array_equal(tables.ends, ends)
    for got, name in ((tables.exps, "exp_ic_star"), (tables.inv_sqrts, "ia_inv_sqrt")):
        want = np.stack([getattr(acc, name) for acc in items])
        assert np.array_equal(got, want) and got.flags.c_contiguous, name


def _count_windows(monkeypatch):
    """Count the AccumulatedIntegrals that the package builds from here on."""
    made = []

    def counting(**fields):
        made.append(1)
        return AccumulatedIntegrals(**fields)

    monkeypatch.setattr(coeffs, "AccumulatedIntegrals", counting)
    return made


def test_node_tables_and_coeffs_rows_build_no_window_objects(monkeypatch, tmp_path):
    cs, _, _ = _tabulated_set()
    made = _count_windows(monkeypatch)
    cs.windows(0.5, [0.1, 0.2])[1]
    assert len(made) == 1  # the counter sees items built on demand
    made.clear()
    sharp._window_tables(cs, 0.9, 1.2, with_gradient=True, nodes=31)
    _write_coeffs_csv(tmp_path, 2, [[0.1, 0.9], [0.0, 0.5], [0.45, 0.55]])
    assert made == []


def _write_coeffs_csv(tmp_path, n, windows):
    """Run the coeffs command on _tabulated_set's samples (their leading
    n x n blocks, b = 0) and return the set, the CSV header and its rows."""
    a, c = _smooth_samples(SAMPLE_TIMES)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    square = [(i, j) for i in range(n) for j in range(n)]
    for name, samples, entries in (("a.csv", a, upper), ("c.csv", c, square)):
        lines = [",".join(["t"] + [f"entry_{i + 1}{j + 1}" for i, j in entries])]
        lines += [",".join(f"{v:.17g}" for v in [s, *(m[i, j] for i, j in entries)])
                  for s, m in zip(SAMPLE_TIMES, samples)]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    body = {
        "problem": {"n": n, "m": n, "T": 1.0},
        "coefficients": {"A": {"preset": "tabulated", "path": "a.csv"},
                         "C": {"preset": "tabulated", "path": "c.csv"}},
        "request": {"command": "coeffs", "windows": windows},
    }
    (tmp_path / "coeffs.json").write_text(json.dumps(body))
    out = tmp_path / "coeffs.csv"
    assert main(["coeffs", "--config", str(tmp_path / "coeffs.json"), "--out", str(out)]) == 0
    with open(out) as handle:
        header, *rows = list(csv.reader(line for line in handle if not line.startswith("#")))
    return load_config(str(tmp_path / "coeffs.json")).coefficient_set, header, rows


@pytest.mark.parametrize("n", [1, 2])
def test_coeffs_rows_print_the_per_window_fields(tmp_path, n):
    rng = np.random.default_rng(5)
    ends = rng.uniform(0.05, 1.0, 20)
    windows = [[float(t - w), float(t)] for t, w in zip(ends, ends * rng.uniform(1e-6, 1.0, 20))]
    cs, header, rows = _write_coeffs_csv(tmp_path, n, windows)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    assert header[2:2 + len(upper)] == [f"ia_{i + 1}{j + 1}" for i, j in upper]
    assert len(rows) == len(windows)
    for row, (tau, t) in zip(rows, windows):
        acc = cs.accumulated(tau, t)
        want = ([tau, t] + [acc.ia[i, j] for i, j in upper] + list(acc.ib)
                + list(acc.ic.reshape(-1)) + [acc.det_ia_sqrt, acc.quad_error])
        assert row == [format_cell(v) for v in want]


def test_window_breaks_collect_the_sample_times_of_every_tabulated_coefficient():
    # a window ending at t = 0.8 reaches A's sample 0.3 at length 0.5 and b's
    # 0.6 at 0.2; C's sample just below t is too close to split it, and 0.9
    # is past t
    def tab(times, shape):
        times = np.array(times)
        return sp.Tabulated(times, np.ones((times.size,) + shape))

    cs = sp.coefficient_set(n=1, m=1, T=1.0, A=tab([0.0, 0.3, 1.0], (1, 1)),
                            b=tab([0.0, 0.6, 1.0], (1,)),
                            C=tab([0.0, 0.8 - 1e-7, 0.9, 1.0], (1, 1)))
    np.testing.assert_allclose(cs.window_breaks(0.8), [0.2, 0.5, 0.8], rtol=1e-15)
    assert sp.coefficient_set(n=1, m=1, T=1.0).window_breaks(0.8).tolist() == [0.8]
