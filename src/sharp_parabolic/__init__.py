"""Sharp pointwise-estimate constants and Gaussian fundamental matrices
for weakly coupled second-order parabolic systems with time-dependent
coefficients, with a brute-force operator-norm oracle for validation."""

from .coeffs import (
    AccumulatedIntegrals,
    Affine,
    CoefficientSet,
    Constant,
    Tabulated,
    coefficient_set,
    integrate_coefficients,
    integrate_windows,
    window_scaling_exponents,
)
from .errors import (
    ConfigError,
    CoverageWarning,
    DomainError,
    EigenFailure,
    InconclusiveEstimate,
    NotPositiveDefinite,
    TruncationError,
)
from .kernels import KernelValue, eval_G, eval_grad_G, eval_grad_P, eval_P
from .sharp import (
    SharpRequest,
    SharpResult,
    SphereSettings,
    converges_C,
    converges_N,
    evaluate_sharp,
    holder_conjugate,
    sharp_C,
    sharp_C_ell,
    sharp_H,
    sharp_K,
    sharp_K_ell,
    sharp_N,
)
from .solve import (
    GridFunction,
    SolveResult,
    SolveSettings,
    SourceFunction,
    directional_derivative,
    solve_homogeneous,
    solve_nonhomogeneous,
)
from .oracle import (
    ExtremalInput,
    IntegralOperatorSpec,
    OracleResult,
    build_extremal,
    opnorm_bruteforce,
    saturation_ratio,
)

__version__ = "0.1.0"
