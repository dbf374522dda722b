"""Exception types shared across the package, and its one number rule."""

import math
import numbers


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


def is_number(value):
    """A finite real number: never a boolean, a string, or an integer too
    large for a float."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def checked(value, name, ok, rule, kind=float, error=DomainError):
    """``value`` as a finite number (an integer if ``kind`` is int) for which
    ``ok`` holds, or ``error`` saying "name=value rule", a float shown in up
    to 15 digits. NaN fails every bound."""
    if not (is_number(value) and (kind is float or isinstance(value, numbers.Integral))
            and ok(value)):
        shown = format(value, ".15g") if isinstance(value, float) else repr(value)
        raise error(f"{name}={shown} {rule}")
    return kind(value)


POSITIVE = (lambda v: v > 0, "must be a finite number > 0")  # the ``ok, rule`` of a number > 0
COUNT = (lambda v: v >= 1, "must be an integer >= 1", int)  # ``ok, rule, kind`` of a count
