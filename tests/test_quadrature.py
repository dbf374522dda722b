import math

import numpy as np
import pytest
from scipy.integrate import quad

import sharp_parabolic as sp
from sharp_parabolic import coeffs, sharp
from sharp_parabolic.quadrature import adaptive_quadrature, fejer_rule, piecewise_rule

EPS = np.finfo(float).eps


def test_polynomial_exact():
    res = adaptive_quadrature(lambda x: x**4, 0.0, 2.0)
    assert res.value == pytest.approx(32.0 / 5.0, rel=1e-14)
    assert len(res.panels) == 1


def test_oscillatory_integrand():
    res = adaptive_quadrature(lambda x: math.sin(40.0 * x), 0.0, 1.0, tol=1e-12)
    exact = (1.0 - math.cos(40.0)) / 40.0
    assert res.value == pytest.approx(exact, abs=1e-12)


def test_vector_integrand():
    res = adaptive_quadrature(lambda x: np.array([1.0, x, x * x]), 0.0, 1.0)
    np.testing.assert_allclose(res.value, [1.0, 0.5, 1.0 / 3.0], rtol=1e-13)


def test_matrix_integrand():
    res = adaptive_quadrature(lambda x: np.array([[x, 0.0], [0.0, x**2]]), 0.0, 2.0)
    np.testing.assert_allclose(res.value, [[2.0, 0.0], [0.0, 8.0 / 3.0]], rtol=1e-13)


def test_integrable_endpoint_singularity():
    # 1/sqrt(x) on (0, 1]: integrable, value 2; bisection localizes the panel
    res = adaptive_quadrature(lambda x: x**-0.5, 1e-14, 1.0, tol=1e-9)
    assert res.value == pytest.approx(2.0, abs=1e-6)
    assert len(res.panels) > 10


def test_error_estimate_bounds_true_error():
    f = lambda x: math.exp(-x) * math.cos(5.0 * x)
    exact = (1.0 - math.exp(-1.0) * (math.cos(5.0) - 5.0 * math.sin(5.0))) / 26.0
    res = adaptive_quadrature(f, 0.0, 1.0, tol=1e-10)
    assert abs(res.value - exact) <= max(res.error * 10.0, 1e-12)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda x: x, 1.0, 1.0)



# ---------------------------------------------------------------------------
# Fejer's second rule with product weights for u^(-e)


@pytest.mark.parametrize("K", [15, 31, 511])
@pytest.mark.parametrize("e", [0.0, 0.3, 0.9, 0.99])
def test_fejer_rule_integrates_monomials_against_the_singular_weight(K, e):
    # for e > 1/2 the weights alternate in sign and cancel (at e = 0.99 and
    # K = 511 the plain relative error is 2.3e-11), so the bound is a few
    # eps of sum |w u^j|
    nodes, weights = fejer_rule(K, e)
    assert np.all(np.diff(nodes) > 0.0) and 0.0 < nodes[0] and nodes[-1] < 1.0
    for j in range(min(K, 16)):
        terms = weights * nodes**j
        assert abs(terms.sum() - 1.0 / (j + 1.0 - e)) <= 32.0 * EPS * np.abs(terms).sum(), j


@pytest.mark.parametrize("K", [31, 63, 511])
@pytest.mark.parametrize("e", [0.0, 0.3, 0.9, 0.99])
def test_fejer_rule_matches_qaws_on_a_smooth_factor(K, e):
    smooth = lambda u: np.exp(-3.0 * u) * np.cos(2.0 * u)
    want = quad(smooth, 0.0, 1.0, weight="alg", wvar=(-e, 0.0), epsabs=1e-15, epsrel=1e-13)[0]
    nodes, weights = fejer_rule(K, e)
    terms = weights * smooth(nodes)
    assert abs(terms.sum() - want) <= 1e-14 * abs(want) + 16.0 * EPS * np.abs(terms).sum()


@pytest.mark.parametrize("K", [1, 3, 7, 15, 31, 255])
def test_fejer_rule_nests_bit_for_bit(K):
    assert np.array_equal(fejer_rule(K)[0], fejer_rule(2 * K + 1)[0][1::2])
    assert np.array_equal(fejer_rule(K, 0.7)[0], fejer_rule(K)[0])  # nodes do not depend on e


@pytest.mark.parametrize("intervals", [4, 8, 32, 64])
def test_fejer_rule_is_the_solvers_sigma_rule(intervals):
    # the closed form that the source solver used before, with S intervals
    theta = np.arange(1, intervals) * math.pi / intervals
    odd = np.arange(1, intervals, 2)
    sums = np.sin(np.outer(theta, odd)) @ (1.0 / odd)
    nodes, weights = fejer_rule(intervals - 1)
    assert np.array_equal(nodes, np.sin(0.5 * theta) ** 2)
    want = 2.0 / intervals * np.sin(theta) * sums
    np.testing.assert_allclose(weights, want, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("e", [0.0, 0.3, 0.9])
def test_piecewise_rule_integrates_across_the_pieces(e):
    # x^(-e) * smooth on [0, 1] in three pieces: the first piece's weights
    # carry x^(-e); the nested rule sits on [1::2] of every piece
    ends = np.array([0.3, 0.5, 1.0])
    points, weights, nested = piecewise_rule(ends, 31, e)
    assert np.all(np.diff(points) > 0.0) and 0.0 < points[0] and points[-1] < 1.0
    assert not np.any(nested.reshape(3, 31)[:, 0::2])
    smooth = lambda x: np.exp(-3.0 * x) * np.cos(2.0 * x)
    want = (quad(smooth, 0.0, 0.3, weight="alg", wvar=(-e, 0.0), epsabs=1e-15, epsrel=1e-13)[0]
            + quad(lambda x: x**-e * smooth(x), 0.3, 1.0, epsabs=1e-15, epsrel=1e-13)[0])
    for rule in (weights, nested):
        assert rule @ (points**-e * smooth(points)) == pytest.approx(want, rel=1e-13)


def test_a_source_row_that_converges_at_once_makes_one_batch_and_one_search(monkeypatch):
    # C sampled at 0, 0.5 and 1 splits [0, 1] into two pieces of 31 nodes
    ts = np.array([0.0, 0.5, 1.0])
    c = np.array([[[0.1, 0.4], [-0.2, 0.3]], [[0.0, 0.5], [0.1, -0.2]], [[0.3, 0.2], [0.0, 0.1]]])
    cs = sp.coefficient_set(n=2, m=2, T=1.0, A=np.diag([1.0, 0.5]), C=sp.Tabulated(ts, c))
    batches, searches = [], []
    integrate, polish = coeffs.integrate_windows, sharp._polish_on_sphere
    monkeypatch.setattr(coeffs, "integrate_windows",
                        lambda cs, t, w: batches.append(len(w)) or integrate(cs, t, w))
    monkeypatch.setattr(sharp, "_polish_on_sphere",
                        lambda *args: searches.append(1) or polish(*args))
    result = sp.sharp_N(cs, 3.0, 1.0)
    assert batches == [2 * 31] and len(searches) == 1
    assert 0.0 < result.diagnostics.quad_error <= sharp.DEFAULT_TOL * result.value
