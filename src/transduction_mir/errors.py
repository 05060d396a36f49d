"""Exception types shared across the package, and how the batched kernels
carry them per row."""

import numpy as np


class MirError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MirError, ValueError):
    """A constructed object violates its contract."""


class ConfigError(ValidationError):
    """Bad configuration; the message names the offending field."""


class StepTooLarge(MirError):
    """I + Q*dt produced an entry outside [0, 1]; the first-order step is invalid."""


class NotIrreducible(MirError):
    """The positive-rate transition graph has no single recurrent class."""


class OrderTooHigh(MirError):
    """Requested moment or series order exceeds the stability ceiling."""


class NoConvergence(MirError):
    """Quadrature refinement did not stabilize within the doubling budget."""


class DomainError(MirError, ValueError):
    """Scalar argument outside the function's domain."""


class OutOfConvergenceRegion(MirError):
    """Series evaluation requested outside 0 < a and b <= 2."""


class DegenerateArgument(MirError):
    """Remainder function evaluated too close to its expansion point."""


class InsufficientData(MirError):
    """Trajectory too short or inconsistent for the requested estimate."""


class EmptySweep(MirError):
    """No rows to reduce."""


def unwrap(entry):
    """The value of one row of a batched result, or raise that row's error.

    The batched kernels return, per row, either a value or the MirError a
    scalar call on that row raises; the error is raised where the scalar
    call would have raised it.  A stored error may be read many times, so
    each raise starts a fresh traceback rather than growing the last one.
    """
    if isinstance(entry, MirError):
        raise entry.with_traceback(None)
    return entry


def mark_rows(errors: list, failed, make) -> None:
    """Give each row that the mask ``failed`` selects, and that has no error
    yet, the error ``make(row)``.

    Run in the order a scalar call makes its checks, this leaves each row
    the first error that call raises.
    """
    for row in np.nonzero(failed)[0].tolist():
        if errors[row] is None:
            errors[row] = make(row)
