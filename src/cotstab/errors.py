"""Exception hierarchy shared across the library.

Every error raised by cotstab derives from :class:`CotstabError`, so callers
can catch broadly, while subclasses keep config errors, numeric breakdowns
and modelling mistakes distinguishable (the CLI maps them to exit codes).
"""


class CotstabError(Exception):
    """Base class for all cotstab errors."""


class DimensionError(CotstabError, ValueError):
    """Array argument has the wrong shape (non-square, mismatched rows, ...)."""


class DomainError(CotstabError, ValueError):
    """Scalar or array argument outside the mathematical domain (NaN, t < 0, ...)."""


class NumericError(CotstabError, RuntimeError):
    """An iterative numeric routine failed to converge."""


class SingularMatrixError(NumericError):
    """Linear solve hit a (near-)singular matrix.

    ``condition`` carries the estimated condition number when available.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class BracketError(CotstabError, ValueError):
    """Root bracket invalid: endpoints do not straddle a sign change."""


class UsageError(CotstabError, ValueError):
    """Arguments are individually valid but mutually inconsistent
    (formula/scheme mismatch, missing sense resistance, ...)."""


class DegenerateSwitchingError(CotstabError, ValueError):
    """Ramp slope equals the feedback slope at the switching instant, so the
    switching instant is not a differentiable function of the state."""


class MissedSwitchingError(CotstabError, RuntimeError):
    """The simulator found no ramp crossing within its scan horizon.

    ``cycle`` is the index of the offending cycle when raised from a run.
    """

    def __init__(self, message, cycle=None):
        super().__init__(message)
        self.cycle = cycle


class PoleEvaluationError(CotstabError, ValueError):
    """Transfer function or resolvent evaluated exactly on a pole."""


class InfiniteLoopGainError(CotstabError, ValueError):
    """Loop gain requested with zero ramp slope: the gain normalisation
    divides by the ramp amplitude."""


class ConfigError(CotstabError, ValueError):
    """Bad CLI configuration: unknown key, bad literal, missing field."""


__all__ = [name for name, value in globals().items()
           if isinstance(value, type) and issubclass(value, CotstabError)]
