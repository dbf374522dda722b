"""The package's public names, listed by hand: adding or removing one from
``sharp_parabolic/__init__.py`` must change this list too (and CHANGES.md)."""

from types import ModuleType

import sharp_parabolic

PUBLIC_NAMES = {
    # coeffs
    "AccumulatedIntegrals", "Affine", "CoefficientSet", "Constant", "Tabulated",
    "coefficient_set", "integrate_coefficients", "integrate_windows",
    "window_scaling_exponents",
    # errors
    "ConfigError", "CoverageWarning", "DomainError", "EigenFailure",
    "NotPositiveDefinite", "TruncationError",
    # kernels
    "KernelValue", "eval_G", "eval_grad_G", "eval_grad_P", "eval_P",
    # sharp
    "SharpRequest", "SharpResult", "SphereSettings", "converges_C", "converges_N",
    "evaluate_sharp", "holder_conjugate", "sharp_C", "sharp_C_ell", "sharp_H",
    "sharp_K", "sharp_K_ell", "sharp_N",
    # solve
    "GridFunction", "SolveResult", "SolveSettings", "SourceFunction",
    "directional_derivative", "solve_homogeneous", "solve_nonhomogeneous",
    # oracle
    "ExtremalInput", "IntegralOperatorSpec", "OracleResult", "build_extremal",
    "opnorm_bruteforce", "saturation_ratio",
}


def test_package_exports_exactly_the_listed_names():
    exported = {
        name for name, value in vars(sharp_parabolic).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported == PUBLIC_NAMES
