"""Exception types, and the one argument intake of every public entry point."""

import cmath
import math
import sys


class SquigError(Exception):
    """Base class for all library-specific failures."""


class ParameterError(SquigError, ValueError):
    """An argument is outside the supported parameter range (e.g. bad n)."""


class DomainError(SquigError, ValueError):
    """A point lies outside the region on which the requested map is defined.

    The message names the offending region so callers can report it.
    """

    def __init__(self, message: str, region: str = ""):
        super().__init__(message)
        self.region = region


class SingularityError(SquigError):
    """Reserved: evaluation inside the guard band of a singular point.

    Exported for callers that catch it; no function of the package raises it.
    """


class QuadratureError(SquigError):
    """A quadrature did not converge to the requested tolerance."""

    def __init__(self, message: str, last_estimates=()):
        super().__init__(message)
        self.last_estimates = tuple(last_estimates)


class DivergenceError(QuadratureError):
    """The integrand decays too slowly for the improper integral to exist."""


class InvalidSeriesError(SquigError, ValueError):
    """A power series does not satisfy the preconditions of an operation."""


class ConvergenceError(SquigError):
    """Iterative root finding stalled; carries the last residual seen."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class DegenerateLoopError(SquigError):
    """A discrete loop passes through (or too close to) the target point."""


class RefinementNeededError(SquigError):
    """Loop samples are too coarse for an unambiguous winding count."""


class TableFileError(SquigError):
    """The package's series table file is missing, short, or of another format.

    The message names the file and the command that writes it again.
    """


def _shown(value) -> str:
    """``repr(value)`` for a refusal message.  An int of more than 4,300
    digits (the interpreter's limit on int-to-str), alone or inside a
    container, has no repr; it is shown by its type instead."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value, least: int) -> bool:
    """An int from ``least`` to sys.maxsize, the most a list or range can index."""
    return _is_int(value) and least <= value <= sys.maxsize


def _is_real(value) -> bool:
    """A float or int within the float range: not NaN, an infinity or an int float() refuses."""
    return (isinstance(value, float) or _is_int(value)) and abs(value) <= sys.float_info.max


def _is_finite_number(value) -> bool:
    return isinstance(value, complex) and cmath.isfinite(value) or _is_real(value)


def _as_point(z, where: str = "", region: str = "") -> complex:
    """``z`` as a complex, for any number; ParameterError for anything else:
    a str, bytes, None, a bool, or what ``complex()`` refuses.

    With ``where``, a map's domain ("the slit plane Sigma_5"), a point that
    is not finite raises DomainError naming it and ``region``; without, an
    int beyond the float range becomes the infinity of its sign.  Callers
    test ``z.__class__ is not complex`` (or not finite) first, so a finite
    complex point makes no call.
    """
    if isinstance(z, (str, bool)):
        raise ParameterError(f"a point must be a number, not {type(z).__name__}")
    try:
        z = complex(z)
    except OverflowError:  # an int beyond the float range
        if where:
            raise DomainError(f"point beyond the float range lies outside {where}",
                              region=region) from None
        return complex(math.inf if z > 0 else -math.inf)
    except (TypeError, ValueError):
        raise ParameterError(f"a point must be a number, not {type(z).__name__}") from None
    if where and not cmath.isfinite(z):
        raise DomainError(f"point {z} lies outside {where}", region=region)
    return z
