"""Closed-form Jensen-gap bounds on the continuous-time information rate.

The gap E[f(x)] - f(E[x]) of the convex f(x) = x ln x is sandwiched by
Taylor-remainder bounds of even order s: with h the normalized remainder and
mu_i the central moments,

    sum_{i<s} mu_i f^(i)(mu)/i!  +  h(b; mu) mu_s   <=   gap
    gap   <=  sum_{i<s} mu_i f^(i)(mu)/i!  +  h(a; mu) mu_s

because h is monotonically decreasing in x (f^(s-1) is concave for both
s = 2 and s = 4: f''' = -1/x^2 < 0 and f^(5) = -6/x^4 < 0).  Multiplying by
the receptor gain turns gap bounds in nats into rate bounds in bits/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateArgument, DomainError, ValidationError
from .mir import xlnx
from .receptor import ReceptorSpec, sensitive_gain, stationary_distribution
from .truncgauss import TruncatedGaussianSpec, raw_moments

#: Below this separation the remainder quotient is numerically meaningless;
#: its value at x = mu is the Taylor limit f^(s)(mu)/s!.
MIN_SEPARATION = 1e-10

_SUPPORTED_ORDERS = (2, 4)


@dataclass(frozen=True)
class BoundPair:
    """Lower/upper rate bounds in bits/s for one remainder order s."""

    lower: float
    upper: float
    s: int
    gap_bounds_nats: tuple[float, float]

    def __post_init__(self):
        if self.s not in _SUPPORTED_ORDERS:
            raise ValidationError(f"s must be one of {_SUPPORTED_ORDERS}, got {self.s}")
        if self.lower > self.upper + 1e-12 * max(1.0, abs(self.upper)):
            raise ValidationError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )
        # nonnegativity of the lower bound is a theorem only for s = 2
        if self.s == 2 and self.lower < -1e-9:
            raise ValidationError(f"s=2 lower bound {self.lower} is negative")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _f_derivatives(mu: float) -> tuple[float, float, float]:
    """(f', f'', f''') of x ln x at mu: ln(mu)+1, 1/mu, -1/mu^2."""
    return (math.log(mu) + 1.0, 1.0 / mu, -1.0 / (mu * mu))


def h_s(x: float, mu: float, s: int) -> float:
    """Normalized Taylor remainder of x ln x about mu.

        h(x; mu) = (f(x) - f(mu)) / (x - mu)^s
                   - sum_{i=1..s-1} f^(i)(mu) / (i! (x - mu)^(s-i))

    Only f(x) itself is evaluated at x, so x = 0 is fine via the continuous
    extension.  Raises DegenerateArgument when |x - mu| < 1e-10; at the
    expansion point h is its limit f^(s)(mu)/s!.
    """
    if s not in _SUPPORTED_ORDERS:
        raise ValidationError(f"s must be one of {_SUPPORTED_ORDERS}, got {s}")
    if x < 0.0:
        raise DomainError(f"h_s requires x >= 0, got {x}")
    if mu <= 0.0:
        raise DomainError(f"h_s requires mu > 0, got {mu}")
    dx = x - mu
    if abs(dx) < MIN_SEPARATION:
        raise DegenerateArgument(
            f"|x - mu| = {abs(dx):.2e} is below {MIN_SEPARATION}; "
            f"the continuous extension there is the limit f^(s)(mu)/s!"
        )
    derivs = _f_derivatives(mu)
    value = (xlnx(x) - xlnx(mu)) / dx**s
    for i in range(1, s):
        value -= derivs[i - 1] / (math.factorial(i) * dx ** (s - i))
    return value


def jensen_gap_bounds(
    dist: TruncatedGaussianSpec, s: int
) -> tuple[float, float]:
    """Lower and upper bounds on E[x ln x] - mu ln mu, in nats.

    h is decreasing in x, so its infimum over the support sits at b and its
    supremum at a.  For s = 2 the first-order term vanishes (mu_1 = 0) and
    the bounds reduce to h(endpoint; mu) * sigma^2; for s = 4 the second and
    third central moments enter through the Taylor prefix.

    a = 0 is admitted: only f(0) = 0 is needed there.
    """
    if s not in _SUPPORTED_ORDERS:
        raise ValidationError(f"s must be one of {_SUPPORTED_ORDERS}, got {s}")
    table = raw_moments(dist, s)
    mu = dist.mu
    derivs = _f_derivatives(mu)
    prefix = math.fsum(
        float(table.central[i]) * derivs[i - 1] / math.factorial(i)
        for i in range(1, s)
    )
    mu_s = float(table.central[s])
    lower = prefix + h_s(dist.b, mu, s) * mu_s
    upper = prefix + h_s(dist.a, mu, s) * mu_s
    return lower, upper


def mir_bounds(
    spec: ReceptorSpec, dist: TruncatedGaussianSpec, s: int
) -> BoundPair:
    """Rate bounds in bits/s: gain times the gap bounds."""
    gap_lower, gap_upper = jensen_gap_bounds(dist, s)
    pi = stationary_distribution(spec, dist.mu)
    gain = sensitive_gain(spec, pi)
    return BoundPair(
        lower=gain * gap_lower,
        upper=gain * gap_upper,
        s=s,
        gap_bounds_nats=(gap_lower, gap_upper),
    )
