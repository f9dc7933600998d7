"""Exception types shared across the package, and its input checks.

Every error raised by the solvers derives from BiflogisError so the CLI can
map any solver failure to a single exit code. An input outside the
documented domain is a ValueError instead.
"""

import math


def check_positive(name: str, v: float) -> None:
    """ValueError unless v is finite and positive."""
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {v}")


def check_exponent(name: str, v: float) -> None:
    """ValueError unless v is finite and > 1: the exponent p, or a norm's q."""
    if not (math.isfinite(v) and v > 1.0):
        raise ValueError(f"{name} must be finite and > 1, got {v}")


def check_weights(a1: float, a2: float) -> None:
    """ValueError unless the weights a1, a2 are finite and nonnegative;
    ZeroCoefficients if both are zero."""
    if not (0.0 <= a1 < math.inf and 0.0 <= a2 < math.inf):
        raise ValueError(f"a1, a2 must be finite and nonnegative, "
                         f"got {a1}, {a2}")
    if a1 + a2 <= 0.0:
        raise ZeroCoefficients("a1 + a2 must be positive")


class BiflogisError(Exception):
    """Base class for all package errors."""


class NonFinite(BiflogisError):
    """An integrand returned NaN or infinity at an interior node."""


class NoConvergence(BiflogisError):
    """An iteration failed to reach its tolerance within its budget."""


class InvalidBracket(BiflogisError):
    """A function was evaluated outside its validity region."""


class BracketFailure(BiflogisError):
    """Monotone bracket expansion exceeded its bounds."""


class InvalidRegime(BiflogisError):
    """An operation was requested outside the exponent range it serves: the
    E constants, g and theorems 1 and 3 at p = 3, theorem 2 at p != 3."""


class ZeroCoefficients(BiflogisError):
    """Both nonlocal weights are zero; the problem degenerates."""


class MonotonicityViolation(BiflogisError):
    """A runtime monotonicity check of a bracketing assumption failed."""


class Overflow(BiflogisError):
    """A trajectory exceeded the divergence bound, or a value left the
    double range."""


class NoSolution(BiflogisError):
    """No positive solution exists for the requested parameters."""


class DegenerateFit(BiflogisError):
    """An order fit was requested on degenerate abscissae."""

