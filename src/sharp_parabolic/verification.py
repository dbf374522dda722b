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


def homogeneous_cases(t=0.75, dims=((1, 1), (1, 2), (2, 1), (2, 2)),
                      ps=(1.0, 2.0, 3.0, math.inf)):
    """Solution and gradient constants for the initial-value problem."""
    cases = []
    for n, m in dims:
        for label, cs in constant_presets(n, m):
            for p in ps:
                p_label = "inf" if math.isinf(p) else f"{p:g}"
                cases.append(
                    VerificationCase(
                        f"H[{label},p={p_label}]", cs, "H", p, t, None, HOMOGENEOUS_TOL
                    )
                )
                for j, ell in enumerate(_directions(n)):
                    cases.append(
                        VerificationCase(
                            f"K[{label},p={p_label},ell{j}]",
                            cs,
                            "K",
                            p,
                            t,
                            ell,
                            HOMOGENEOUS_TOL,
                        )
                    )
    return cases


def nonhomogeneous_cases(t=0.75, dims=((1, 1), (1, 2), (2, 1), (2, 2))):
    """Source-problem constants, convergent exponents only."""
    cases = []
    for n, m in dims:
        for label, cs in constant_presets(n, m):
            ps = [math.inf] + ([2.0] if 2.0 > (n + 2.0) / 2.0 else [])
            for p in ps:
                p_label = "inf" if math.isinf(p) else f"{p:g}"
                cases.append(
                    VerificationCase(
                        f"N[{label},p={p_label}]", cs, "N", p, t, None,
                        NONHOMOGENEOUS_TOL,
                    )
                )
            for j, ell in enumerate(_directions(n)):
                cases.append(
                    VerificationCase(
                        f"C[{label},p=inf,ell{j}]", cs, "C", math.inf, t, ell,
                        NONHOMOGENEOUS_TOL,
                    )
                )
    return cases


def quick_cases():
    """A small smoke subset: the unit heat problem plus one coupled preset."""
    heat = coefficient_set(n=1, m=1, T=1.0)
    coupled = constant_presets(2, 2)[0][1]
    ell = np.array([1.0])
    ell2 = np.array([0.0, 1.0])
    return [
        VerificationCase("H[heat,p=1]", heat, "H", 1.0, 1.0, None, HOMOGENEOUS_TOL),
        VerificationCase("H[heat,p=2]", heat, "H", 2.0, 1.0, None, HOMOGENEOUS_TOL),
        VerificationCase("K[heat,p=inf]", heat, "K", math.inf, 1.0, ell, HOMOGENEOUS_TOL),
        VerificationCase("K[heat,p=2]", heat, "K", 2.0, 1.0, ell, HOMOGENEOUS_TOL),
        VerificationCase("N[heat,p=2]", heat, "N", 2.0, 1.0, None, NONHOMOGENEOUS_TOL),
        VerificationCase("C[heat,p=inf]", heat, "C", math.inf, 1.0, ell,
                         NONHOMOGENEOUS_TOL),
        VerificationCase("H[n2m2,p=2]", coupled, "H", 2.0, 0.75, None, HOMOGENEOUS_TOL),
        VerificationCase("C[n2m2,p=inf]", coupled, "C", math.inf, 0.75, ell2,
                         NONHOMOGENEOUS_TOL),
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
