import math

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from sharp_parabolic import matfun
from sharp_parabolic.errors import NotPositiveDefinite


def roots(m):
    """(inv_sqrt, inv) of one SPD matrix, from the root family of a stack of one."""
    _, inv_root, inv = matfun.spd_roots(np.asarray(m, dtype=float)[None])
    return inv_root[0], inv[0]


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
        roots(np.diag([4.0, 9.0]))[0], np.diag([1.0 / 2.0, 1.0 / 3.0]), atol=1e-14
    )


def test_spd_sqrt_two_by_two():
    # entries (1/sqrt(3) +/- 1) / 2 from the eigendecomposition
    inv_root = roots(np.array([[2.0, 1.0], [1.0, 2.0]]))[0]
    a = (1 / math.sqrt(3) + 1) / 2
    b = (1 / math.sqrt(3) - 1) / 2
    np.testing.assert_allclose(inv_root, [[a, b], [b, a]], rtol=1e-14)


def test_spd_sqrt_identity():
    np.testing.assert_allclose(roots(np.eye(5))[0], np.eye(5), atol=1e-15)


def test_spd_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        order = rng.integers(1, 9)
        g = rng.standard_normal((order, order))
        m = matfun.symmetrize(g @ g.T + 0.1 * np.eye(order))
        inv_root, inv = roots(m)
        np.testing.assert_allclose(inv_root @ inv_root, inv, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            inv_root @ m @ inv_root, np.eye(order), rtol=0, atol=1e-10
        )


def test_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite) as err:
        roots(np.diag([1.0, -1.0]))
    assert err.value.eigenvalue == pytest.approx(-1.0)


def test_spd_rejects_near_singular():
    with pytest.raises(NotPositiveDefinite):
        roots(np.diag([1.0, 1e-15]))


def test_spd_roots_stack_matches_single_roots():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((6, 3, 3))
    stack = g @ np.swapaxes(g, -1, -2) + 0.1 * np.eye(3)
    stack = 0.5 * (stack + np.swapaxes(stack, -1, -2))
    eig, inv_root, inv = matfun.spd_roots(stack)
    for k in range(stack.shape[0]):
        single_inv_root, single_inv = roots(stack[k])
        np.testing.assert_array_equal(inv_root[k], single_inv_root)
        np.testing.assert_array_equal(inv[k], single_inv)
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


NORMS = (1e-8, 1e-4, 1.0, 10.0, 100.0, 1000.0)


def _exp_stacks(rng, norm):
    """General and triangular stacks of 1-norm ``norm`` whose exponentials
    stay in range: a scaled skew-symmetric part plus an O(1) perturbation,
    and a scaled strict triangle on a diagonal in [-1, 1]."""
    for m in (2, 3, 4):
        skew = rng.standard_normal((6, m, m))
        general = norm * (skew - np.swapaxes(skew, 1, 2))
        general += min(norm, 1.0) * rng.standard_normal((6, m, m))
        upper = np.triu(rng.standard_normal((6, m, m)), 1)
        upper = norm * upper / np.abs(upper).sum(axis=1).max(axis=1)[:, None, None]
        upper += np.apply_along_axis(np.diag, 1, rng.uniform(-1.0, 1.0, (6, m)) * min(norm, 1.0))
        for stack in (general, upper, np.swapaxes(upper, 1, 2)):
            yield stack


def _normwise(got, want):
    return np.linalg.norm(got - want, axis=(-2, -1)) / np.linalg.norm(want, axis=(-2, -1))


def test_matrix_exp_of_diagonal_stacks_is_exp_of_the_diagonal():
    rng = np.random.default_rng(23)
    scalars = rng.normal(scale=20.0, size=(7, 1, 1))
    assert np.array_equal(matfun.matrix_exp(scalars), np.exp(scalars))
    assert np.array_equal(matfun.matrix_exp(scalars[0]), np.exp(scalars[0]))
    for m in (2, 3, 5):
        diag = rng.normal(scale=20.0, size=(7, m))
        diag[0] = 0.0
        stack = np.apply_along_axis(np.diag, 1, diag)
        want = np.apply_along_axis(np.diag, 1, np.exp(diag))
        assert np.array_equal(matfun.matrix_exp(stack), want)
        assert np.array_equal(matfun.matrix_exp(stack), scipy_expm(stack))


@pytest.mark.parametrize("norm", NORMS)
def test_matrix_exp_matches_scipy_expm(norm):
    # on the general stacks, scipy's own normwise error against a 50-digit
    # mpmath reference reached 3.6e-13 at 1-norm 10, 2.9e-12 at 100 and
    # 2.0e-11 at 1000 (matrix_exp's: 1.1e-15, 2.1e-14, 2.2e-13), so the bound
    # grows with the norm beyond 1
    rng = np.random.default_rng(24)
    for stack in _exp_stacks(rng, norm):
        got = matfun.matrix_exp(stack)
        assert np.all(_normwise(got, scipy_expm(stack)) <= 1e-12 * max(1.0, norm))


@pytest.mark.parametrize("norm", NORMS)
def test_matrix_exp_matches_the_two_by_two_closed_form(norm):
    # exp(B) = e^h (cosh(d) I + sinh(d)/d (B - h I)) with h = tr B / 2 and
    # d^2 = ((b11 - b22) / 2)^2 + b12 b21, in complex arithmetic for d^2 < 0
    rng = np.random.default_rng(25)
    for stack in _exp_stacks(rng, norm):
        if stack.shape[-1] != 2:
            continue
        half = 0.5 * (stack[:, 0, 0] + stack[:, 1, 1])
        d = np.sqrt((0.25 * (stack[:, 0, 0] - stack[:, 1, 1]) ** 2
                     + stack[:, 0, 1] * stack[:, 1, 0]).astype(complex))
        sinhc = np.where(d == 0.0, 1.0, np.sinh(d) / np.where(d == 0.0, 1.0, d))
        shifted = stack - half[:, None, None] * np.eye(2)
        want = np.exp(half)[:, None, None] * (
            np.cosh(d)[:, None, None] * np.eye(2) + sinhc[:, None, None] * shifted).real
        assert np.all(_normwise(matfun.matrix_exp(stack), want) <= 1e-12)


def test_matrix_exp_batch_is_bit_identical_to_each_matrix_alone():
    # norms from 1e-8 to 1e3 take 0 to 9 squarings; diagonal matrices take exp
    rng = np.random.default_rng(26)
    for m in (2, 3):
        mats = [s for norm in NORMS for s in _exp_stacks(rng, norm) if s.shape[-1] == m]
        stack = np.concatenate(mats + [np.apply_along_axis(np.diag, 1, rng.normal(size=(4, m)))])
        stack = rng.permutation(stack)
        batch = matfun.matrix_exp(stack)
        for k in range(len(stack)):
            assert np.array_equal(batch[k], matfun.matrix_exp(stack[k]))
        grid = stack.reshape((2, -1, m, m))
        assert np.array_equal(matfun.matrix_exp(grid), batch.reshape(grid.shape))


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


def test_canonical_sign_makes_the_first_nonzero_entry_positive():
    for v, want in (([0.0, -1.0], [0.0, 1.0]), ([-2.0, 5.0], [2.0, -5.0]),
                    ([2.0, -5.0], [2.0, -5.0]), ([-1.0], [1.0]), ([-0.0, 0.0], [0.0, 0.0])):
        got = matfun.canonical_sign(np.array(v))
        np.testing.assert_array_equal(got, want)
        assert not np.any(np.signbit(got[got == 0.0]))  # no negative zeros


def test_symmetrize_rejects_bad_input():
    with pytest.raises(ValueError):
        matfun.symmetrize(np.ones((2, 3)))
    with pytest.raises(ValueError):
        matfun.symmetrize(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_component_norms_equal_numpy_norm_bitwise(m):
    rng = np.random.default_rng(m)
    values = rng.standard_normal((33, 17, m)) * 10.0 ** rng.uniform(-8, 8, (33, 17, m))
    constant = np.broadcast_to(values[0, 0], (33, 17, m))  # stride-0 grid axes
    for v in (values, values[::2, ::3], values[:, 0], constant):
        np.testing.assert_array_equal(matfun.component_norms(v), np.linalg.norm(v, axis=-1))
