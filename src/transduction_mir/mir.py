"""Mutual information rate of the receptor channel, three ways.

* ``mir_discrete``   -- finite-step rate at delta_t, the per-pair entropy
  difference of the input-conditioned and input-averaged chains.
* ``mir_quadrature`` -- continuous-time limit: gain * Jensen gap of x*ln(x).
* ``mir_series``     -- power-series approximation of the gap, truncated at
  a chosen order, valid on 0 < a and b <= 2.

All three return values in bits/s.  The gain factor carries the 1/ln 2
conversion, so the recorded Jensen gap stays in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import (
    DomainError,
    OrderTooHigh,
    OutOfConvergenceRegion,
    ValidationError,
)
from .receptor import ReceptorSpec, sensitive_gain, stationary_distribution, step_kernel

# raw_moments is not called here: perfbench's tracer wraps ``mir.raw_moments``
# and perfbench/tests/test_tracer.py looks up every wrapped name without a
# default.  Remove it together with that wrap.
from .truncgauss import (
    MAX_MOMENT_ORDER,
    TruncatedGaussianSpec,
    expectation,
    raw_moments,  # noqa: F401
    shifted_moment_vector,
)


@dataclass(frozen=True)
class MirResult:
    """An information rate in bits/s plus how it was obtained.

    ``value = gain * gap_nats`` holds exactly for the quadrature and series
    methods; the discrete method additionally carries the finite-step
    diagonal contribution, reported in ``diagnostics``.
    """

    value: float
    method: str
    gain: float
    gap_nats: float
    order: Optional[int] = None
    diagnostics: Mapping = field(default_factory=dict)

    def __post_init__(self):
        kind = self.method.split("(")[0]
        if kind in ("quadrature", "discrete"):
            floor = -1e-9
        elif kind == "series":
            if not self.order or self.order < 2:
                raise ValidationError("series results must carry their order")
            # a truncated tail can undershoot zero by up to gain/order
            floor = -(self.gain / self.order + 1e-9)
        else:
            floor = -math.inf
        if self.value < floor:
            raise ValidationError(
                f"{self.method} rate {self.value} below admissible floor {floor}"
            )
        if kind in ("quadrature", "series"):
            if abs(self.value - self.gain * self.gap_nats) > 1e-12 * max(
                abs(self.value), 1e-300
            ):
                raise ValidationError("value must equal gain * gap_nats")


def plogp(p: float) -> float:
    """p * log2(p), continuously extended by 0 at p = 0.

    Raises DomainError outside [0, 1].
    """
    if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
        raise DomainError(f"plogp requires 0 <= p <= 1, got {p!r}")
    if p == 0.0:
        return 0.0
    return p * math.log2(p)


def _plogp_vec(p: np.ndarray) -> np.ndarray:
    """Vectorized p*log2(p) with the 0 log 0 = 0 extension; no domain check."""
    safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, p * np.log2(safe), 0.0)


def _xlnx_vec(x: np.ndarray) -> np.ndarray:
    """x * ln(x) extended by continuity to 0 at x = 0."""
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, x * np.log(safe), 0.0)


def xlnx(x: float) -> float:
    """Scalar x * ln(x), 0 at x = 0; the convex function whose gap is the rate."""
    if x < 0.0:
        raise DomainError(f"x*ln(x) requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return x * math.log(x)


def jensen_gap(dist: TruncatedGaussianSpec) -> float:
    """E[x ln x] - mu ln(mu) in nats, by quadrature."""
    e_xlnx = expectation(dist, _xlnx_vec)
    return e_xlnx - dist.mu * math.log(dist.mu)


def sensitive_pairs(spec: ReceptorSpec) -> list[tuple[int, int]]:
    """Entries of P(x) that depend on x: sensitive off-diagonals plus the
    diagonals of rows that contain one."""
    pairs = [(t.source, t.target) for t in spec.transitions if t.sensitive]
    pairs.extend((i, i) for i in spec.sensitive_rows())
    return pairs


def mir_discrete(
    spec: ReceptorSpec,
    dist: TruncatedGaussianSpec,
    delta_t: float,
) -> MirResult:
    """Information rate at a finite step, in bits/s.

    For every x-dependent entry (y, y') of P(x), accumulates

        pi_y * ( E[ phi(p_yy'(x)) ] - phi( E[p_yy'(x)] ) ) / delta_t

    with phi(p) = p log2 p.  x-independent entries cancel exactly.  The
    diagonal pairs contribute O(delta_t); they are included, not assumed
    away, so the vanishing in the continuous-time limit is observable.
    Each entry is c + m*x, so E[p_yy'(x)] = c + m*mu in closed form; only
    E[phi(p_yy'(x))] needs quadrature.

    Raises StepTooLarge if the step is inadmissible at the worst-case
    intensity x = b.
    """
    const, lin = step_kernel(spec, delta_t, dist.b)
    pi = stationary_distribution(spec, dist.mu)
    gain = sensitive_gain(spec, pi)

    total = 0.0
    diagonal = 0.0
    for (i, j) in sensitive_pairs(spec):
        c, m = const[i, j], lin[i, j]
        e_phi = expectation(dist, lambda x: _plogp_vec(c + m * x))
        mean_entry = min(max(c + m * dist.mu, 0.0), 1.0)
        term = pi[i] * (e_phi - plogp(mean_entry))
        total += term
        if i == j:
            diagonal += term

    value = total / delta_t
    gap = jensen_gap(dist)
    return MirResult(
        value=value,
        method=f"discrete({delta_t!r})",
        gain=gain,
        gap_nats=gap,
        diagnostics={
            "diagonal_bits_per_s": diagonal / delta_t,
            "off_diagonal_bits_per_s": (total - diagonal) / delta_t,
            "delta_t": delta_t,
        },
    )


def mir_quadrature(spec: ReceptorSpec, dist: TruncatedGaussianSpec) -> MirResult:
    """Continuous-time information rate: gain * (E[x ln x] - mu ln mu)."""
    pi = stationary_distribution(spec, dist.mu)
    gain = sensitive_gain(spec, pi)
    gap = jensen_gap(dist)
    return MirResult(
        value=gain * gap,
        method="quadrature",
        gain=gain,
        gap_nats=gap,
        diagnostics={"pi": tuple(float(p) for p in pi)},
    )


def mir_series(
    spec: ReceptorSpec,
    dist: TruncatedGaussianSpec,
    order: int = 40,
) -> MirResult:
    """Series approximation of the continuous-time rate, truncated at ``order``.

    Expands ln(x) about 1, turning the Jensen gap into

        sum_{k=2..order} (-1)^k E[(x-1)^k] / (k (k-1))  -  mu ln(mu/e)  -  1.

    Requires 0 < a and b <= 2 so the expansion converges on the support; the
    truncation error is bounded by 1/order in nats (reported as
    ``diagnostics["tail_bound_nats"]``), so the rate lies within gain/order
    of the quadrature value; that bound is the series' only guarantee.
    E[(x-1)^k] is computed by quadrature (bounded integrand, no
    cancellation).

    Raises OutOfConvergenceRegion when the support leaves (0, 2], and
    OrderTooHigh above the shared order ceiling.
    """
    if dist.a <= 0.0 or dist.b > 2.0:
        raise OutOfConvergenceRegion(
            f"series needs support within (0, 2], got [{dist.a}, {dist.b}]"
        )
    if order < 2:
        raise ValidationError(f"series order must be >= 2, got {order}")
    if order > MAX_MOMENT_ORDER:
        raise OrderTooHigh(f"series order {order} exceeds ceiling {MAX_MOMENT_ORDER}")

    moments = shifted_moment_vector(dist, 1.0, order)
    series_sum = math.fsum(
        (-1.0) ** k * float(moments[k]) / (k * (k - 1)) for k in range(2, order + 1)
    )
    mu = dist.mu
    gap = series_sum - mu * (math.log(mu) - 1.0) - 1.0

    pi = stationary_distribution(spec, dist.mu)
    gain = sensitive_gain(spec, pi)
    return MirResult(
        value=gain * gap,
        method=f"series({order})",
        gain=gain,
        gap_nats=gap,
        order=order,
        diagnostics={"tail_bound_nats": 1.0 / order},
    )
