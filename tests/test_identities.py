"""Exact identities between two runs of the library: no closed form, no oracle.

Each test maps the problem by a symmetry whose effect on the sharp constants
is known exactly and compares the constants of the two problems, at 1e-13
relative:

- an orthogonal change Q of x (A -> Q A Qᵀ, b -> Q b, ell -> Q ell) changes
  no constant;
- an orthogonal change P of the unknown (C -> P C Pᵀ) changes no constant;
- the time rescaling X(s) -> lam X(lam s) of A, b and C, with T -> T / lam and
  t -> t / lam, leaves H, K_ell and K unchanged and multiplies N, C_ell and C
  by lam^(-1/p');
- the scalar shift C -> C + c I multiplies H, K_ell and K by exp(c t);
- ell -> -ell changes neither K_ell nor C_ell.

Constant and affine presets map onto presets of the same kind, so every map
is exact. The cases take every n, m in {1, 2} plus n = m = 3, with constant
and affine presets, and p from each kind's convergence threshold + 1e-3 to
infinity. The sphere search of each pair of runs follows the same path,
except under the two rotations, which move it to another frame; it
converges on every row there too, next to the threshold included, so the
rotations also hold on every row.
"""

import functools
import math

import numpy as np
import pytest

import sharp_parabolic as sp

REL = 1e-13
T, TIME = 1.0, 0.9
LAM = 3.0  # time rescaling factor
SHIFT = 0.37  # scalar shift of C
SEARCH_TOL = sp.SphereSettings().rel_tol  # a search_residual above it: the step budget ran out
KINDS = ("H", "K_ell", "K", "N", "C_ell", "C")
SOURCE_KINDS = ("N", "C_ell", "C")
CASES = [(1, 1, "constant"), (1, 1, "affine"), (1, 2, "constant"), (2, 1, "affine"),
         (2, 2, "affine"), (3, 3, "affine")]


def exponents(kind, n):
    """p from the convergence threshold + 1e-3 (from 1 for H and K) to infinity."""
    threshold = {"N": (n + 2) / 2, "C_ell": n + 2, "C": n + 2}.get(kind)
    if threshold is None:
        return (1.0, 2.5, math.inf)
    return (threshold + 1e-3, 2 * threshold + 1, math.inf)


def orthogonal(rng, size):
    q, r = np.linalg.qr(rng.normal(size=(size, size)))
    return q * np.sign(np.diag(r))


@functools.lru_cache(maxsize=None)
def problem(n, m, preset_name):
    """(A, b, C, ell): each coefficient as a (value, slope) pair, the slope
    None for a constant preset. A(t) >= 0.1 I for t in [0, 1]."""
    rng = np.random.default_rng(100 * n + 10 * m + (preset_name == "affine"))
    root, sym = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    sym = (sym + sym.T) / 2
    affine = preset_name == "affine"
    A = (root @ root.T / n + 0.5 * np.eye(n), 0.4 * sym / np.linalg.norm(sym, 2) if affine else None)
    b = (rng.normal(size=n), rng.normal(size=n) if affine else None)
    C = (rng.normal(size=(m, m)), 0.5 * rng.normal(size=(m, m)) if affine else None)
    ell = rng.normal(size=n)
    return A, b, C, ell / np.linalg.norm(ell)


def preset(pair):
    value, slope = pair
    return sp.Constant(value) if slope is None else sp.Affine(value, slope)


def mapped(pair, fn):
    value, slope = pair
    return fn(value), None if slope is None else fn(slope)


def keys_of(n, kinds=KINDS):
    return tuple((kind, p) for kind in kinds for p in exponents(kind, n))


def constants(n, m, A, b, C, ell, keys, T=T, t=TIME):
    """{(kind, p): SharpResult} of the problem's constants at time t, for each key."""
    cs = sp.coefficient_set(n=n, m=m, T=T, A=preset(A), b=preset(b), C=preset(C))
    return {(kind, p): sp.evaluate_sharp(cs, sp.SharpRequest(
                kind=kind, p=p, t=t, ell=ell if kind.endswith("_ell") else None))
            for kind, p in keys}


@functools.lru_cache(maxsize=None)
def base_constants(n, m, preset_name):
    return constants(n, m, *problem(n, m, preset_name), keys_of(n))


def converged(results):
    """The keys of the rows whose sphere search converged; a search_residual
    above rel_tol is the library's own report that its 1000 steps ran out."""
    return tuple(key for key, r in results.items() if r.diagnostics.search_residual <= SEARCH_TOL)


def x_rotated_constants(n, m, preset_name, keys):
    A, b, C, ell = problem(n, m, preset_name)
    Q = orthogonal(np.random.default_rng(7 * n + m), n)
    return constants(n, m, mapped(A, lambda a: Q @ a @ Q.T), mapped(b, lambda v: Q @ v), C,
                     Q @ ell, keys)


def unknown_rotated_constants(n, m, preset_name, keys):
    A, b, C, ell = problem(n, m, preset_name)
    P = orthogonal(np.random.default_rng(11 * n + m), m)
    return constants(n, m, A, b, mapped(C, lambda c: P @ c @ P.T), ell, keys)


def assert_close(got, want, factor=lambda kind, p: 1.0):
    """got[key].value == want[key].value * factor(*key) to REL, for every key of got."""
    for key, result in got.items():
        value, expected = result.value, want[key].value * factor(*key)
        assert math.isfinite(value) and math.isfinite(expected), key
        assert abs(value - expected) <= REL * abs(expected), (key, value, expected)


# The sphere search runs in the frames of x (C's joint (ell, z) search) and of
# the unknown (every z-search), so the rotations hold to 1e-13 only where the
# search converges in both frames: every row, p = threshold + 1e-3 included.
@pytest.mark.parametrize("rotated_constants", [x_rotated_constants, unknown_rotated_constants],
                         ids=["x", "unknown"])
@pytest.mark.parametrize("n, m, preset_name", CASES)
def test_an_orthogonal_change_leaves_every_converged_constant(rotated_constants, n, m,
                                                              preset_name):
    want = base_constants(n, m, preset_name)
    got = rotated_constants(n, m, preset_name, keys_of(n))
    assert converged(want) == tuple(want) and converged(got) == tuple(got)
    assert_close(got, want)


def test_the_search_converges_next_to_the_threshold_in_every_frame():
    n, m, preset_name = 2, 2, "affine"
    got = unknown_rotated_constants(n, m, preset_name, keys_of(n, SOURCE_KINDS))
    assert converged(got) == tuple(got)
    assert_close(got, base_constants(n, m, preset_name))


@pytest.mark.parametrize("n, m, preset_name", CASES)
def test_time_rescaling_scales_the_source_constants_by_lambda_to_minus_one_over_p_prime(
        n, m, preset_name):
    def rescaled(pair):  # X(s) -> lam X(lam s): value -> lam value, slope -> lam^2 slope
        value, slope = pair
        return LAM * value, None if slope is None else LAM * LAM * slope

    A, b, C, ell = problem(n, m, preset_name)
    got = constants(n, m, rescaled(A), rescaled(b), rescaled(C), ell, keys_of(n), T=T / LAM,
                    t=TIME / LAM)

    def factor(kind, p):
        return LAM ** (-1.0 / sp.holder_conjugate(p)) if kind in SOURCE_KINDS else 1.0

    assert_close(got, base_constants(n, m, preset_name), factor)


@pytest.mark.parametrize("n, m, preset_name", CASES)
def test_a_scalar_shift_of_C_scales_H_and_K_by_exp_ct(n, m, preset_name):
    A, b, C, ell = problem(n, m, preset_name)
    got = constants(n, m, A, b, (C[0] + SHIFT * np.eye(m), C[1]), ell,
                    keys_of(n, ("H", "K_ell", "K")))
    assert_close(got, base_constants(n, m, preset_name), lambda kind, p: math.exp(SHIFT * TIME))


@pytest.mark.parametrize("n, m, preset_name", CASES)
def test_reversing_ell_leaves_K_ell_and_C_ell(n, m, preset_name):
    A, b, C, ell = problem(n, m, preset_name)
    got = constants(n, m, A, b, C, -ell, keys_of(n, ("K_ell", "C_ell")))
    assert_close(got, base_constants(n, m, preset_name))
