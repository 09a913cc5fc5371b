"""Exception types shared across the package."""


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
    """Evaluation was requested inside the guard band of a singular point."""


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
