import re

import numpy as np
import pytest

from sharp_parabolic import verification

NAME = re.compile(r"^([HKNC])\[([^,\]]+),p=([^,\]]+)(?:,ell(\d+))?\]$")


@pytest.mark.parametrize(
    "selection,count",
    [("quick", 8), ("homogeneous", 112), ("nonhomogeneous", 32), ("all", 144)],
)
def test_check_matrix_names_parse_back_to_their_cases(selection, count):
    cases = verification.cases_for(selection)
    assert len(cases) == count
    assert len({case.name for case in cases}) == count
    for case in cases:
        kind, _, p, j = NAME.match(case.name).groups()
        assert kind == case.kind
        assert float(p) == case.p
        assert (case.ell is None) == (kind in "HN")
        if j is not None:
            assert kind in "KC"
            np.testing.assert_array_equal(
                case.ell, verification._directions(case.cs.n)[int(j)]
            )
        elif selection != "quick":
            assert kind in "HN"
        tol = verification.HOMOGENEOUS_TOL if kind in "HK" else verification.NONHOMOGENEOUS_TOL
        assert case.tol == tol
