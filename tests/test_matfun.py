import math

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from sharp_parabolic import matfun
from sharp_parabolic.errors import NotPositiveDefinite


def test_sym_eigen_diagonal():
    w, v = matfun.sym_eigen(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(w, [3.0, 1.0])
    np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-14)


def test_sym_eigen_two_by_two():
    # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 => l = 3, 1
    w, v = matfun.sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(w, [3.0, 1.0], rtol=1e-14)
    np.testing.assert_allclose(np.abs(v[:, 0]), [1, 1] / np.sqrt(2), rtol=1e-14)
    np.testing.assert_allclose(np.abs(v[:, 1]), [1, 1] / np.sqrt(2), rtol=1e-14)
    assert np.sign(v[0, 1]) != np.sign(v[1, 1])


def test_sym_eigen_identity():
    w, _ = matfun.sym_eigen(np.eye(4))
    np.testing.assert_allclose(w, np.ones(4))


def test_sym_eigen_reconstruction_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        order = rng.integers(1, 9)
        m = matfun.symmetrize(rng.standard_normal((order, order)))
        w, v = matfun.sym_eigen(m)
        scale = max(1.0, np.max(np.abs(w)))
        np.testing.assert_allclose(v @ np.diag(w) @ v.T, m, atol=1e-12 * scale)
        np.testing.assert_allclose(v.T @ v, np.eye(order), atol=1e-12)
        assert np.all(np.diff(w) <= 1e-14)


def test_spd_sqrt_diagonal():
    np.testing.assert_allclose(
        matfun.spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14
    )


def test_spd_sqrt_two_by_two():
    # entries (sqrt(3) +/- 1) / 2 from the eigendecomposition
    root = matfun.spd_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]]))
    a = (math.sqrt(3) + 1) / 2
    b = (math.sqrt(3) - 1) / 2
    np.testing.assert_allclose(root, [[a, b], [b, a]], rtol=1e-14)


def test_spd_sqrt_identity():
    np.testing.assert_allclose(matfun.spd_sqrt(np.eye(5)), np.eye(5), atol=1e-15)


def test_spd_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        order = rng.integers(1, 9)
        g = rng.standard_normal((order, order))
        m = matfun.symmetrize(g @ g.T + 0.1 * np.eye(order))
        root = matfun.spd_sqrt(m)
        np.testing.assert_allclose(root @ root, m, rtol=1e-9, atol=1e-12)
        inv_root = matfun.spd_inv_sqrt(m)
        np.testing.assert_allclose(
            root @ inv_root, np.eye(order), rtol=0, atol=1e-10
        )


def test_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite) as err:
        matfun.spd_sqrt(np.diag([1.0, -1.0]))
    assert err.value.eigenvalue == pytest.approx(-1.0)


def test_spd_rejects_near_singular():
    with pytest.raises(NotPositiveDefinite):
        matfun.spd_inv_sqrt(np.diag([1.0, 1e-15]))


def test_spd_roots_stack_matches_single_roots():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 3, 3))
    stack = g @ np.swapaxes(g, -1, -2) + 0.1 * np.eye(3)
    stack = 0.5 * (stack + np.swapaxes(stack, -1, -2))
    eig, root, inv_root, inv = matfun.spd_roots(stack)
    for k in range(stack.shape[0]):
        np.testing.assert_array_equal(root[k], matfun.spd_sqrt(stack[k]))
        np.testing.assert_array_equal(inv_root[k], matfun.spd_inv_sqrt(stack[k]))
        np.testing.assert_allclose(inv[k] @ stack[k], np.eye(3), atol=1e-10)
        assert np.all(np.diff(eig[k]) <= 0.0)
    stack[4] = np.diag([1.0, -0.5, 2.0])
    with pytest.raises(NotPositiveDefinite) as err:
        matfun.spd_roots(stack)
    assert err.value.eigenvalue == pytest.approx(-0.5)


def test_spectral_norm_examples():
    value, z = matfun.spectral_norm(np.diag([3.0, -4.0]))
    assert value == pytest.approx(4.0)
    np.testing.assert_allclose(np.abs(z), [0.0, 1.0], atol=1e-14)

    value, _ = matfun.spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert value == pytest.approx(1.0)

    value, _ = matfun.spectral_norm(np.array([[1.0, 1.0], [0.0, 1.0]]))
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert value == pytest.approx(golden, rel=1e-12)


def test_spectral_norm_maximizer_attains_value():
    rng = np.random.default_rng(3)
    for _ in range(20):
        b = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
        value, z = matfun.spectral_norm(b)
        assert np.linalg.norm(b @ z) == pytest.approx(value, rel=1e-12)
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_transpose_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        b = rng.standard_normal((4, 3))
        v1, _ = matfun.spectral_norm(b)
        v2, _ = matfun.spectral_norm(b.T)
        assert v1 == pytest.approx(v2, rel=1e-12)


def test_matrix_exp_examples():
    np.testing.assert_allclose(matfun.matrix_exp(np.zeros((3, 3))), np.eye(3))
    np.testing.assert_allclose(
        matfun.matrix_exp(np.diag([1.0, 2.0])),
        np.diag([math.e, math.e**2]),
        rtol=1e-14,
    )
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(
        matfun.matrix_exp(nilpotent), [[1.0, 1.0], [0.0, 1.0]], atol=1e-16
    )


def test_matrix_exp_against_scipy():
    rng = np.random.default_rng(13)
    for _ in range(30):
        order = rng.integers(1, 7)
        b = rng.standard_normal((order, order))
        np.testing.assert_allclose(
            matfun.matrix_exp(b), scipy_expm(b), rtol=1e-12, atol=1e-13
        )


def test_matrix_exp_inverse_identity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        b = rng.standard_normal((4, 4))
        b *= 5.0 / max(1.0, np.linalg.norm(b, 2))
        prod = matfun.matrix_exp(b) @ matfun.matrix_exp(-b)
        np.testing.assert_allclose(prod, np.eye(4), atol=1e-9)


def test_matrix_exp_transpose_identity():
    rng = np.random.default_rng(19)
    for _ in range(20):
        b = rng.standard_normal((3, 3))
        np.testing.assert_allclose(
            matfun.matrix_exp(b).T, matfun.matrix_exp(b.T), rtol=1e-12, atol=1e-14
        )


def test_canonical_sign_picks_lexicographic_min():
    z = np.array([0.0, 1.0])
    np.testing.assert_array_equal(matfun.canonical_sign(z), [0.0, -1.0])
    np.testing.assert_array_equal(
        matfun.canonical_sign(np.array([-2.0, 5.0])), [-2.0, 5.0]
    )


def test_symmetrize_rejects_bad_input():
    with pytest.raises(ValueError):
        matfun.symmetrize(np.ones((2, 3)))
    with pytest.raises(ValueError):
        matfun.symmetrize(np.array([[np.nan, 0.0], [0.0, 1.0]]))
