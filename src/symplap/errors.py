"""Exception types shared across the package, and its rules for numeric parameters
and for real arrays.

Each rule has one home here, and the library function that consumes a parameter
calls it: :func:`require_integer` for an integer >= k, never a ``bool`` (orders,
sample and step counts, sizes, ``ndim``), :func:`require_finite` for a finite
positive number, a finite number >= k, or, with ``at_least=-math.inf``, any
finite number (a start time, an amplitude, an exponent), and
:func:`require_real` for a parameter that only order comparisons read.  ``TorusGrid``'s size and ``initial_condition``'s
``seed`` and ``cutoff`` keep rules of their own, whose messages state more.
"""

import math
import numbers

import numpy as np


def require_finite(name: str, value, at_least=None, error=ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a finite positive number,
    or a finite number >= ``at_least`` when that is given (any finite number for
    ``-math.inf``).  NaN and infinities fail, and a complex number raises
    ``TypeError`` naming ``name``."""
    require_real(name, value)
    if at_least is None:
        ok, what = value > 0, "a finite positive number"
    else:
        bound = f" >= {at_least:g}" if at_least > -math.inf else ""
        ok, what = value >= at_least, f"a finite number{bound}"
    if not (math.isfinite(value) and ok):
        raise error(f"{name} must be {what}, got {value!r}")


def require_integer(name: str, value, at_least: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer (any
    ``numbers.Integral`` but ``bool``, which would pass ``True`` as 1) >= ``at_least``."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= at_least):
        raise ValueError(f"{name} must be an integer >= {at_least}, got {value!r}")


def require_real(name: str, value) -> None:
    """Raise ``TypeError`` naming ``name`` if ``value`` is a complex number, which no
    order comparison takes."""
    if isinstance(value, (complex, np.complexfloating)):
        raise TypeError(f"{name} must be a real number, got {value!r}")


def real_array(name: str, value) -> np.ndarray:
    """``value`` as a float array, float64 arrays uncopied; raises ``TypeError``
    naming ``name`` for complex data, whose imaginary part a cast would drop."""
    if np.iscomplexobj(value):
        raise TypeError(f"{name} must hold real numbers, got complex data")
    return np.asarray(value, dtype=float)


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
