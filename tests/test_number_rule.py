"""One number rule for every scalar input: ``errors.checked``.

A scalar input is a finite real number (an integer where the field counts
something), never a boolean, a string or an integer too large for a float;
an exponent p may also be infinite. Each row below fed junk that the entry
point accepted (and ran with), or that ended in an OverflowError, a
TypeError or a TruncationError, before the library and the config shared
the rule.
"""

import json
import math
import re

import numpy as np
import pytest

import sharp_parabolic as sp
from sharp_parabolic.config import load_config
from sharp_parabolic.errors import ConfigError, DomainError

HEAT = sp.coefficient_set(n=1, m=1, T=4.0)  # T = 4: the string "3" names a time inside (0, T]
_GRID = sp.GridFunction(center=[0.0], radius=8.0, values=np.zeros((33, 1)))


def _coefficients(**field):
    presets = dict(A=sp.Constant([[1.0]]), b=sp.Constant([0.0]), C=sp.Constant([[0.0]]))
    return sp.CoefficientSet(**{"n": 1, "m": 1, "T": 1.0, **presets, **field})


def _spec(**field):
    return sp.IntegralOperatorSpec(
        **{"kind": "H", "cs": HEAT, "x": [0.0], "t": 1.0, "p": 2.0, "grid_resolution": 17, **field})


def _tabulated(name):
    """load_config of an n = m = 1 config whose ``name`` is tabulated with a
    sample time ``value``."""
    header = {"A": "t,entry_11", "b": "t,b_1", "C": "t,entry_11"}[name]

    def load(value, tmp_path):
        times = [value, 0.0, 1.0] if value < 0 else [0.0, 1.0, value]
        (tmp_path / "s.csv").write_text(header + "\n" + "".join(f"{t},1\n" for t in times))
        body = {"problem": {"n": 1, "m": 1, "T": 1.0},
                "coefficients": {name: {"preset": "tabulated", "path": "s.csv"}},
                "request": {"command": "sharp", "kind": "H", "p": [2.0], "t": [1.0]}}
        (tmp_path / "run.json").write_text(json.dumps(body))
        return load_config(str(tmp_path / "run.json"))

    return load


_JUNK = {"true": True, "str": "3", "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
         "1e400": 10**400, "2.5": 2.5}
# entry point: (call with the junk and tmp_path, the error it raises, the
# start of its message, the junk it took or failed on otherwise)
_ENTRIES = {
    "holder_conjugate": (lambda v, _: sp.holder_conjugate(v), DomainError, "exponent p=",
                         ["true", "str", "1e400"]),
    "sharp_H.t": (lambda v, _: sp.sharp_H(HEAT, 2.0, v), DomainError, "t=",
                  ["true", "str", "1e400"]),
    "CoefficientSet.n": (lambda v, _: _coefficients(n=v), DomainError, "dimension n=",
                         ["true", "str", "nan", "inf", "1e400", "2.5"]),
    "CoefficientSet.m": (lambda v, _: _coefficients(m=v), DomainError, "dimension m=",
                         ["true", "str", "nan", "inf", "1e400", "2.5"]),
    "CoefficientSet.T": (lambda v, _: _coefficients(T=v), DomainError, "final time T=",
                         ["true", "str", "inf", "1e400"]),
    "coefficient_set.T": (lambda v, _: sp.coefficient_set(T=v), DomainError, "final time T=",
                          ["true", "str", "inf", "1e400"]),
    "SphereSettings.seeds_per_dim": (lambda v, _: sp.SphereSettings(seeds_per_dim=v),
                                     DomainError, "seeds_per_dim=", ["1e400"]),
    "SphereSettings.rel_tol": (lambda v, _: sp.SphereSettings(rel_tol=v), DomainError,
                               "sphere rel_tol=", ["true", "str", "inf", "1e400"]),
    "SolveSettings.sigma_slices": (lambda v, _: sp.SolveSettings(sigma_slices=v), DomainError,
                                   "sigma_slices=", ["1e400"]),
    "SolveSettings.truncation_sigmas": (lambda v, _: sp.SolveSettings(truncation_sigmas=v),
                                        DomainError, "truncation_sigmas=", ["str", "1e400"]),
    "integrate_coefficients.tau": (lambda v, _: sp.integrate_coefficients(HEAT, v, 4.0),
                                   DomainError, "tau=", ["true", "str", "1e400"]),
    "integrate_coefficients.t": (lambda v, _: sp.integrate_coefficients(HEAT, 0.0, v),
                                 DomainError, "t=", ["true", "str", "1e400"]),
    "solve_homogeneous.t": (lambda v, _: sp.solve_homogeneous(HEAT, _GRID, [0.0], v),
                            DomainError, "t=", ["true", "str", "1e400"]),
    "IntegralOperatorSpec.t": (lambda v, _: _spec(t=v), DomainError, "t=",
                               ["true", "str", "1e400"]),
    "IntegralOperatorSpec.p": (lambda v, _: _spec(p=v), DomainError, "exponent p=",
                               ["true", "str", "1e400"]),
    "IntegralOperatorSpec.truncation_radius": (lambda v, _: _spec(truncation_radius=v),
                                               DomainError, "truncation radius=", ["str", "1e400"]),
    "IntegralOperatorSpec.sigma_slices": (lambda v, _: _spec(sigma_slices=v), DomainError,
                                          "sigma_slices=", ["1e400"]),
    "GridFunction.radius": (
        lambda v, _: sp.GridFunction(center=[0.0], radius=v, values=np.zeros((3, 1))),
        DomainError, "grid radius=", ["true", "str", "1e400"]),
    "GridFunction.from_callable.radius": (
        lambda v, _: sp.GridFunction.from_callable(np.cos, [0.0], v, points_per_axis=3),
        DomainError, "grid radius=", ["1e400"]),
    "sharp_N.quad_tol": (lambda v, _: sp.sharp_N(HEAT, 4.0, 1.0, quad_tol=v), DomainError,
                         "quad_tol=", ["true", "str", "inf", "1e400"]),
    # rel_tol = nan turned the truncation check off
    "opnorm_bruteforce.rel_tol": (lambda v, _: sp.opnorm_bruteforce(_spec(), rel_tol=v),
                                  DomainError, "rel_tol=",
                                  ["true", "str", "nan", "inf", "-inf", "1e400"]),
    "opnorm_bruteforce.endpoint_gap": (
        lambda v, _: sp.opnorm_bruteforce(_spec(kind="N"), endpoint_gap=v), DomainError,
        "endpoint_gap=", ["str", "nan", "-inf", "1e400"]),
    # an infinite sample time gave NaN PCHIP end slopes and a value
    **{f"load_config.{name}": (_tabulated(name), ConfigError, f"coefficients.{name}:",
                               ["inf", "-inf"]) for name in "AbC"},
}
_ROWS = [(entry, junk) for entry, (*_, junks) in _ENTRIES.items() for junk in junks]


@pytest.mark.parametrize("entry, junk", _ROWS, ids=[f"{e}={j}" for e, j in _ROWS])
def test_junk_numbers_are_refused_by_the_one_rule(tmp_path, entry, junk):
    call, error, name, _ = _ENTRIES[entry]
    with pytest.raises(error, match="^" + re.escape(name)):
        call(_JUNK[junk], tmp_path)
