"""Exception types shared across the package, and how the batched kernels
carry them per row."""

import numbers

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


def check_integer(value, name: str, error=ValidationError) -> None:
    """Raise ``error`` unless ``value`` is an integer: a count or an order
    given as a float, even a whole one, is refused, never truncated."""
    if not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")


def unwrap(error) -> None:
    """Raise one row's error from a batched result, if it has one.

    Every batched kernel returns value columns, float arrays with nan on the
    rows that fail, and one error list: per row the MirError a scalar call
    on that row raises, or None.  A scalar call reads row 0 and unwraps its
    error.  A stored error may be raised many times, so each raise starts a
    fresh traceback rather than growing the last one.
    """
    if error is not None:
        raise error.with_traceback(None)


def live_rows(errors: list) -> np.ndarray:
    """True on the rows that have no error."""
    return np.array([error is None for error in errors], dtype=bool)


def merge_rows(errors: list, *others: list) -> list:
    """Per row the first error in ``errors`` and then ``others``, or None: the
    first error wins, as in a scalar call that stops at its first failure."""
    merged = list(errors)
    for other in others:
        merged = [first if first is not None else e for first, e in zip(merged, other)]
    return merged


def mark_rows(errors: list, failed, make) -> None:
    """Give each row that the mask ``failed`` selects, and that has no error
    yet, the error ``make(row)``.

    Run in the order a scalar call makes its checks, this leaves each row
    the first error that call raises.
    """
    for row in np.nonzero(failed)[0].tolist():
        if errors[row] is None:
            errors[row] = make(row)
