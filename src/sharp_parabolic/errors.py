"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NotPositiveDefinite(ArithmeticError):
    """A matrix required to be SPD has an eigenvalue at or below the floor.

    Attributes
    ----------
    eigenvalue : float
        The offending (smallest) eigenvalue.
    floor : float
        The positivity floor that was violated.
    """

    def __init__(self, eigenvalue, floor, message=None):
        self.eigenvalue = float(eigenvalue)
        self.floor = float(floor)
        if message is None:
            message = (
                f"matrix is not positive definite: smallest eigenvalue "
                f"{self.eigenvalue:.6g} <= floor {self.floor:.6g}"
            )
        super().__init__(message)


class EigenFailure(ArithmeticError):
    """The symmetric eigensolver did not converge.

    Carries the largest off-diagonal residual for diagnosis.
    """

    def __init__(self, off_diagonal_residual, message=None):
        self.off_diagonal_residual = float(off_diagonal_residual)
        if message is None:
            message = (
                "symmetric eigendecomposition failed to converge "
                f"(off-diagonal residual {self.off_diagonal_residual:.6g})"
            )
        super().__init__(message)


class TruncationError(RuntimeError):
    """A truncated-domain computation is dominated by its tail bound."""


class ConfigError(ValueError):
    """A run configuration failed validation; message carries field context."""


class CoverageWarning(UserWarning):
    """Sampled data does not cover the kernel's effective support."""
