import math

import numpy as np
import pytest

from sharp_parabolic.quadrature import adaptive_quadrature


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

