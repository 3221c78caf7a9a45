"""Exception types shared across the package."""


class GridMismatchError(ValueError):
    """A time step was requested that is not an integer multiple of the grid spacing."""


class EmptyDomainError(ValueError):
    """A difference or seminorm was requested on an empty (or single-point) index set."""


class InsufficientResolutionError(ValueError):
    """Too few admissible dyadic steps to run a sweep or slope estimate."""


class PreconditionError(ValueError):
    """An inequality check was invoked outside its stated hypotheses.

    Raised instead of reporting a failure: the estimate makes no claim there.
    """


class DegeneratePairError(ValueError):
    """Equivalence ratios were requested for an identical matrix pair (0/0)."""


class UnreachableTargetError(ValueError):
    """The requested regularity exponent lies at or beyond the regime's ceiling."""


class GeometryError(ValueError):
    """A sub-cylinder or ball violates the interior-margin requirements."""


class TrajectoryFormatError(ValueError):
    """A stored trajectory is incomplete: missing model parameters or a size that
    does not match its header."""


class TimeStepError(ValueError):
    """A time step or final time that is not a finite positive number, or a final
    time that is not a whole number of time steps."""


class UnsupportedDimensionError(ValueError):
    """Requested spatial dimension is outside the supported set."""


class SolverFailureError(RuntimeError):
    """Newton iteration failed to converge.

    Attributes:
        residual_history: sup-norm residuals of every Newton iterate attempted.
        step_index: time-step index at which the failure occurred (set by ``solve``).
    """

    def __init__(self, message, residual_history=None, step_index=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])
        self.step_index = step_index
