"""Cross-validation cases: closed-form constants against the brute-force oracle.

Used by the `verify` command and by the acceptance test suite, so both run
the same matrix of constant-coefficient presets.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import coefficient_set
from .oracle import (
    IntegralOperatorSpec,
    family_key,
    opnorm_bruteforce,
    opnorm_family,
    sharp_value,
)

HOMOGENEOUS_TOL = 1e-3
NONHOMOGENEOUS_TOL = 5e-3


@dataclass(frozen=True)
class VerificationCase:
    name: str
    cs: object
    kind: str  # oracle kind: H | K | N | C
    p: float
    t: float
    ell: np.ndarray | None
    tol: float


@dataclass(frozen=True)
class CheckRow:
    name: str
    closed_form: float
    oracle: float
    rel_diff: float
    tol: float
    passed: bool


def constant_presets(n, m):
    """Two constant-coefficient presets per (n, m), with nonzero drift."""
    if n == 1:
        a_iso, a_aniso = np.eye(1), np.array([[1.7]])
        b = np.array([0.7])
    else:
        a_iso, a_aniso = np.eye(n), np.diag([1.0, 4.0][:n])
        b = np.array([0.7, -0.3][:n])
    if m == 1:
        c_first, c_second = np.array([[0.4]]), np.array([[-0.3]])
    else:
        c_first = np.array([[0.0, 1.0], [0.0, 0.0]])
        c_second = np.array([[0.2, 0.5], [0.0, -0.1]])
    return [
        (f"n{n}m{m}-iso", coefficient_set(n=n, m=m, T=1.0, A=a_iso, b=b, C=c_first)),
        (f"n{n}m{m}-aniso", coefficient_set(n=n, m=m, T=1.0, A=a_aniso, b=b, C=c_second)),
    ]


def _directions(n):
    if n == 1:
        return [np.array([1.0]), np.array([-1.0])]
    e1 = np.zeros(n)
    e1[0] = 1.0
    e2 = np.zeros(n)
    e2[1] = 1.0
    diag = np.ones(n) / math.sqrt(n)
    return [e1, e2, diag]


def _case(kind, label, cs, p, t, ell=None, j=None):
    """One check named like ``K[n2m2-iso,p=3,ell1]`` (``ell<j>`` when the
    direction has an index), with the tolerance of its kind."""
    p_label = "inf" if math.isinf(p) else f"{p:g}"
    name = f"{kind}[{label},p={p_label}" + ("" if j is None else f",ell{j}") + "]"
    tol = HOMOGENEOUS_TOL if kind in "HK" else NONHOMOGENEOUS_TOL
    return VerificationCase(name, cs, kind, p, t, ell, tol)


# (n, m) of the presets in both check matrices, and the time of every check
_DIMS = ((1, 1), (1, 2), (2, 1), (2, 2))
_T = 0.75


def homogeneous_cases():
    """Solution and gradient constants for the initial-value problem."""
    cases = []
    for n, m in _DIMS:
        for label, cs in constant_presets(n, m):
            for p in (1.0, 2.0, 3.0, math.inf):
                cases.append(_case("H", label, cs, p, _T))
                cases += [_case("K", label, cs, p, _T, ell, j)
                          for j, ell in enumerate(_directions(n))]
    return cases


def nonhomogeneous_cases():
    """Source-problem constants, convergent exponents only."""
    cases = []
    for n, m in _DIMS:
        for label, cs in constant_presets(n, m):
            ps = [math.inf] + ([2.0] if 2.0 > (n + 2.0) / 2.0 else [])
            cases += [_case("N", label, cs, p, _T) for p in ps]
            cases += [_case("C", label, cs, math.inf, _T, ell, j)
                      for j, ell in enumerate(_directions(n))]
    return cases


def quick_cases():
    """A small smoke subset: the unit heat problem plus one coupled preset."""
    heat = coefficient_set(n=1, m=1, T=1.0)
    coupled = constant_presets(2, 2)[0][1]
    ell, ell2 = np.array([1.0]), np.array([0.0, 1.0])
    return [
        _case("H", "heat", heat, 1.0, 1.0),
        _case("H", "heat", heat, 2.0, 1.0),
        _case("K", "heat", heat, math.inf, 1.0, ell),
        _case("K", "heat", heat, 2.0, 1.0, ell),
        _case("N", "heat", heat, 2.0, 1.0),
        _case("C", "heat", heat, math.inf, 1.0, ell),
        _case("H", "n2m2", coupled, 2.0, 0.75),
        _case("C", "n2m2", coupled, math.inf, 0.75, ell2),
    ]


def cases_for(selection):
    if selection == "quick":
        return quick_cases()
    if selection == "homogeneous":
        return homogeneous_cases()
    if selection == "nonhomogeneous":
        return nonhomogeneous_cases()
    if selection == "all":
        return homogeneous_cases() + nonhomogeneous_cases()
    raise ValueError(f"unknown verification selection {selection!r}")


def closed_form_value(case):  # bench/tracer.py times it by this name
    return sharp_value(case)


def _oracle_spec(case):
    # the |.|^(p'-1) kink of the gradient kinds converges at O(spacing^2)
    resolution = 513 if case.cs.n == 1 else 257
    return IntegralOperatorSpec(
        kind=case.kind, cs=case.cs, x=np.zeros(case.cs.n), t=case.t, p=case.p,
        ell=case.ell, grid_resolution=resolution,
    )


def oracle_value(case):  # one case alone; bench/tracer.py times it by this name
    return opnorm_bruteforce(_oracle_spec(case))


def families(cases):
    """Runs of consecutive cases whose oracle specs form one family; the
    check matrices list each preset's cases together."""
    groups = itertools.groupby(cases, key=lambda case: family_key(_oracle_spec(case)))
    return [list(group) for _, group in groups]


def run_cases(cases, tol_override=None) -> list[CheckRow]:
    """Check rows in case order; each family of cases shares one oracle pass."""
    rows = []
    for family in families(cases):
        for case, oracle in zip(family, opnorm_family(map(_oracle_spec, family))):
            closed = closed_form_value(case)
            rel = abs(closed - oracle.value) / max(abs(closed), 1e-300)
            tol = case.tol if tol_override is None else tol_override
            rows.append(CheckRow(case.name, closed, oracle.value, rel, tol, rel <= tol))
    return rows


def run_case(case, tol_override=None) -> CheckRow:
    return run_cases([case], tol_override)[0]
