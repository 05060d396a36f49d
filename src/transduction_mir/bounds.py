"""Closed-form Jensen-gap bounds on the continuous-time information rate.

The gap E[f(x)] - f(E[x]) of the convex f(x) = x ln x is sandwiched by
Taylor-remainder bounds of even order s: with h the normalized remainder and
mu_i the central moments,

    sum_{i<s} mu_i f^(i)(mu)/i!  +  h(b; mu) mu_s   <=   gap
    gap   <=  sum_{i<s} mu_i f^(i)(mu)/i!  +  h(a; mu) mu_s

because h is monotonically decreasing in x (f^(s-1) is concave for both
s = 2 and s = 4: f''' = -1/x^2 < 0 and f^(5) = -6/x^4 < 0).  Multiplying by
the receptor gain turns gap bounds in nats into rate bounds in bits/s.

The bounds of many distributions are one array pass (``_bounds_rows``):
moment tables, remainders and checks run on arrays, one row per
distribution, and end in the package's one row format: value columns, nan
where a row fails, and one error list holding the error that rejected it.
``mir_bounds``, ``jensen_gap_bounds`` and ``h_s`` are the one-row case.
Powers are running products (``truncgauss._powers``), logs come from
``np.log`` and sums of terms from ``math.fsum``, so a row has the bits of
the formulas above evaluated in that arithmetic, one float at a time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    DegenerateArgument,
    DomainError,
    ValidationError,
    check_integer,
    live_rows,
    mark_rows,
    merge_rows,
    unwrap,
)

# A name marked noqa: F401 is not called here: perfbench's tracer wraps it
# (tests/test_layering.py); remove it together with that wrap.
from .receptor import ReceptorSpec, mean_chain_rows
from .receptor import stationary_distribution  # noqa: F401
from .truncgauss import (
    TruncatedGaussianSpec,
    _columns,
    _fsum_rows,
    _moment_rows,
    _powers,
    _xlogx,
    raw_moments,  # noqa: F401
)

#: Below this separation the remainder quotient is numerically meaningless;
#: its value at x = mu is the Taylor limit f^(s)(mu)/s!.
MIN_SEPARATION = 1e-10

_SUPPORTED_ORDERS = (2, 4)


@dataclass(frozen=True)
class BoundPair:
    """Lower/upper rate bounds in bits/s for one remainder order s.

    ``diagnostics`` holds what the bounds were built from: the receptor
    ``gain``, the truncated ``mu`` and ``sigma2``, and ``central_s``, the
    central moment of order s in the remainder term.
    """

    lower: float
    upper: float
    s: int
    gap_bounds_nats: tuple[float, float]
    diagnostics: Mapping = field(default_factory=dict)

    def __post_init__(self):
        _check_order(self.s)
        errors = [None]
        _mark_pair_errors(errors, np.array([self.lower]), np.array([self.upper]), self.s)
        unwrap(errors[0])

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _check_order(s: int) -> None:
    check_integer(s, "s")
    if s not in _SUPPORTED_ORDERS:
        raise ValidationError(f"s must be one of {_SUPPORTED_ORDERS}, got {s}")


def _mark_pair_errors(errors: list, lower: np.ndarray, upper: np.ndarray, s: int) -> None:
    """The ``BoundPair`` checks on rows of rate bounds, marked as by ``mark_rows``."""
    mark_rows(
        errors,
        lower > upper + 1e-12 * np.maximum(1.0, np.abs(upper)),
        lambda i: ValidationError(f"lower bound {lower[i]} exceeds upper bound {upper[i]}"),
    )
    # nonnegativity of the lower bound is a theorem only for s = 2
    if s == 2:
        mark_rows(
            errors,
            lower < -1e-9,
            lambda i: ValidationError(f"s=2 lower bound {lower[i]} is negative"),
        )


def _f_derivatives(mu: np.ndarray, log_mu: np.ndarray) -> tuple:
    """(f', f'', f''') of x ln x at each mu: ln(mu)+1, 1/mu, -1/mu^2."""
    return (log_mu + 1.0, 1.0 / mu, -1.0 / (mu * mu))


def _h_rows(x: np.ndarray, mu: np.ndarray, s: int) -> tuple[np.ndarray, list]:
    """h(x[r]; mu[r]) of order s for every row r (see ``h_s``).

    Returns the values, nan where a row fails, and per row the error
    ``h_s`` raises there, or None.  Only the rows that pass are evaluated.
    """
    errors: list = [None] * len(x)
    dx = x - mu
    mark_rows(errors, x < 0.0, lambda i: DomainError(f"h_s requires x >= 0, got {x[i]}"))
    mark_rows(errors, mu <= 0.0, lambda i: DomainError(f"h_s requires mu > 0, got {mu[i]}"))
    mark_rows(
        errors,
        np.abs(dx) < MIN_SEPARATION,
        lambda i: DegenerateArgument(
            f"|x - mu| = {abs(dx[i]):.2e} is below {MIN_SEPARATION}; "
            f"the continuous extension there is the limit f^(s)(mu)/s!"
        ),
    )
    ok = live_rows(errors)
    x, mu, dx = x[ok], mu[ok], dx[ok]
    log_mu = np.log(mu)
    derivs = _f_derivatives(mu, log_mu)
    dx_pow = list(_powers(dx, s))
    value = (_xlogx(x, np.log) - mu * log_mu) / dx_pow[s]
    for i in range(1, s):
        value -= derivs[i - 1] / (math.factorial(i) * dx_pow[s - i])
    values = np.full(len(ok), np.nan)
    values[ok] = value
    return values, errors


def h_s(x: float, mu: float, s: int) -> float:
    """Normalized Taylor remainder of x ln x about mu.

        h(x; mu) = (f(x) - f(mu)) / (x - mu)^s
                   - sum_{i=1..s-1} f^(i)(mu) / (i! (x - mu)^(s-i))

    Only f(x) itself is evaluated at x, so x = 0 is fine via the continuous
    extension.  Raises DomainError unless x and mu are finite numbers, and
    DegenerateArgument when |x - mu| < 1e-10; at the expansion point h is
    its limit f^(s)(mu)/s!.  The one-row case of the remainder kernel of
    ``_bounds_rows``.
    """
    _check_order(s)
    if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in (x, mu)):
        raise DomainError(f"h_s requires finite numbers, got x={x!r}, mu={mu!r}")
    values, (error,) = _h_rows(np.array([x], dtype=float), np.array([mu], dtype=float), s)
    unwrap(error)
    return float(values[0])


def _bounds_rows(columns, s: int, chains=None) -> tuple:
    """Gap and rate bounds of order s for every row of ``columns``, as one
    array pass over every row.

    ``chains`` holds the distributions' rows of ``mean_chain_rows``;
    without it no gain enters and only the gap bounds are checked.  Returns
    (gap_lower, gap_upper, mu_s, gain, errors): the gap bounds in nats, the
    central moment of order s and the gain (nan without ``chains``), nan on
    failed rows, and per row the MirError a one-point call raises, or None.
    The checks keep the one-point order: the moment table, h(b), h(a), the
    mean chain, then the ``BoundPair`` checks on gain times the gap bounds.
    """
    _check_order(s)
    _, central, errors = _moment_rows(columns, s)
    mu, a, b, n = columns.mu, columns.a, columns.b, len(columns.mu)
    derivs = _f_derivatives(mu, np.log(mu))
    terms = [central[:, i] * derivs[i - 1] / math.factorial(i) for i in range(1, s)]
    prefix = _fsum_rows(np.stack(terms, axis=1))
    # h at b and at a, as one call on 2n rows
    h, h_errors = _h_rows(np.concatenate((b, a)), np.concatenate((mu, mu)), s)
    errors = merge_rows(errors, h_errors[:n], h_errors[n:])
    mu_s = central[:, s]
    gap_lower = prefix + h[:n] * mu_s
    gap_upper = prefix + h[n:] * mu_s
    gain = np.full(n, np.nan)
    if chains is not None:
        errors = merge_rows(errors, chains[2])
        gain = chains[1]
        _mark_pair_errors(errors, gain * gap_lower, gain * gap_upper, s)
    ok = live_rows(errors)
    columns = (np.where(ok, column, np.nan) for column in (gap_lower, gap_upper, mu_s, gain))
    return (*columns, errors)


def jensen_gap_bounds(
    dist: TruncatedGaussianSpec, s: int
) -> tuple[float, float]:
    """Lower and upper bounds on E[x ln x] - mu ln mu, in nats.

    h is decreasing in x, so its infimum over the support sits at b and its
    supremum at a.  For s = 2 the first-order term vanishes (mu_1 = 0) and
    the bounds reduce to h(endpoint; mu) * sigma^2; for s = 4 the second and
    third central moments enter through the Taylor prefix.

    a = 0 is admitted: only f(0) = 0 is needed there.  The one-row case of
    ``_bounds_rows``, without a mean chain.
    """
    lower, upper, _, _, (error,) = _bounds_rows(_columns([dist]), s)
    unwrap(error)
    return float(lower[0]), float(upper[0])


def mir_bounds(
    spec: ReceptorSpec, dist: TruncatedGaussianSpec, s: int
) -> BoundPair:
    """Rate bounds in bits/s: gain times the gap bounds; the one-row case of
    ``_bounds_rows``."""
    *columns, (error,) = _bounds_rows(_columns([dist]), s, mean_chain_rows(spec, [dist.mu]))
    unwrap(error)
    gap_lower, gap_upper, mu_s, gain = (float(column[0]) for column in columns)
    return BoundPair(
        lower=gain * gap_lower,
        upper=gain * gap_upper,
        s=s,
        gap_bounds_nats=(gap_lower, gap_upper),
        diagnostics={"gain": gain, "mu": dist.mu, "sigma2": dist.sigma2, "central_s": mu_s},
    )
