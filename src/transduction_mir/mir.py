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
    MirError,
    OrderTooHigh,
    OutOfConvergenceRegion,
    ValidationError,
    live_rows,
    mark_rows,
    merge_rows,
    unwrap,
)

# raw_moments and stationary_distribution are not called here: perfbench's
# tracer wraps ``mir.raw_moments`` and ``mir.stationary_distribution``, and
# perfbench/tests/test_tracer.py looks up every wrapped name without a
# default.  Remove them together with those wraps.
from .receptor import (
    ReceptorSpec,
    mean_chain_rows,
    stationary_distribution,  # noqa: F401
    step_kernel,
)
from .truncgauss import (
    MAX_MOMENT_ORDER,
    TruncatedGaussianSpec,
    _columns,
    _fsum_rows,
    expectation,
    expectation_rows,
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
            floor = _RATE_FLOOR
        elif kind == "series":
            if not self.order or self.order < 2:
                raise ValidationError("series results must carry their order")
            # a truncated tail can undershoot zero by up to gain/order
            floor = -(self.gain / self.order + 1e-9)
        else:
            floor = -math.inf
        errors = [None]
        _mark_floor(errors, self.method, np.array([self.value]), floor)
        unwrap(errors[0])
        if kind in ("quadrature", "series"):
            if abs(self.value - self.gain * self.gap_nats) > 1e-12 * max(
                abs(self.value), 1e-300
            ):
                raise ValidationError("value must equal gain * gap_nats")


#: Lowest admissible quadrature or discrete rate: zero less rounding slack.
_RATE_FLOOR = -1e-9


def _mark_floor(errors: list, method: str, values: np.ndarray, floor: float) -> None:
    """The ``MirResult`` floor check on rows of rates, marked as by ``mark_rows``."""
    mark_rows(
        errors,
        values < floor,
        lambda i: ValidationError(f"{method} rate {values[i]} below admissible floor {floor}"),
    )


def plogp(p: float) -> float:
    """p * log2(p), continuously extended by 0 at p = 0; the one-value
    case of ``_plogp_vec``.

    Raises DomainError outside [0, 1].
    """
    if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
        raise DomainError(f"plogp requires 0 <= p <= 1, got {p!r}")
    return float(_plogp_vec(np.float64(p)))


def _plogp_vec(p: np.ndarray) -> np.ndarray:
    """Vectorized p*log2(p) with the 0 log 0 = 0 extension; no domain check."""
    safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, p * np.log2(safe), 0.0)


def _plogp_entry(x: np.ndarray, c, m) -> np.ndarray:
    """phi(p(x)) for the step-kernel entry p(x) = c + m * x."""
    return _plogp_vec(c + m * x)


def _xlnx_vec(x: np.ndarray) -> np.ndarray:
    """x * ln(x) extended by continuity to 0 at x = 0."""
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, x * np.log(safe), 0.0)


def xlnx(x: float) -> float:
    """Scalar x * ln(x), 0 at x = 0; the convex function whose gap is the
    rate, and the one-value case of ``_xlnx_vec``."""
    if x < 0.0:
        raise DomainError(f"x*ln(x) requires x >= 0, got {x}")
    return float(_xlnx_vec(np.float64(x)))


def jensen_gap(dist: TruncatedGaussianSpec) -> float:
    """E[x ln x] - mu ln(mu) in nats, by quadrature."""
    return float(_gap(np.array([expectation(dist, _xlnx_vec)]), np.array([dist.mu]))[0])


def _gap(e_xlnx: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """E[x ln x] - mu ln(mu) per row."""
    return e_xlnx - mu * np.log(mu)


def sensitive_pairs(spec: ReceptorSpec) -> list[tuple[int, int]]:
    """Entries of P(x) that depend on x: the nonzero entries of the slope,
    sensitive off-diagonals plus the diagonals of rows that contain one."""
    rows, cols = np.nonzero(spec.slope)
    return list(zip(rows.tolist(), cols.tolist()))


def mir_discrete(
    spec: ReceptorSpec,
    dist: TruncatedGaussianSpec,
    delta_t: float,
) -> MirResult:
    """Information rate at a finite step, in bits/s.

    For every x-dependent entry (y, y') of P(x), accumulates

        pi_y * ( E[ phi(p_yy'(x)) ] - phi( E[p_yy'(x)] ) ) / delta_t

    with phi(p) = p log2 p, summed with math.fsum so the result does not
    depend on the pair order.  x-independent entries cancel exactly.  The
    diagonal pairs contribute O(delta_t); they are included, not assumed
    away, so the vanishing in the continuous-time limit is observable.
    Each entry is c + m*x, so E[p_yy'(x)] = c + m*mu in closed form; only
    E[phi(p_yy'(x))] needs quadrature.  The one-row case of
    ``_discrete_rows``.

    Raises StepTooLarge if the step is inadmissible at the worst-case
    intensity x = b.
    """
    columns = _columns([dist])
    chains = mean_chain_rows(spec, [dist.mu])
    e_xlnx = expectation_rows(columns, _xlnx_vec)
    rates, (error,) = _discrete_rows(spec, columns, dist.b, delta_t, chains, e_xlnx)
    unwrap(error)
    value, gap_nats, diagonal, off_diagonal = rates[0].tolist()
    return MirResult(
        value=value,
        method=f"discrete({delta_t!r})",
        gain=float(chains[1][0]),
        gap_nats=gap_nats,
        diagnostics={
            "diagonal_bits_per_s": diagonal,
            "off_diagonal_bits_per_s": off_diagonal,
            "delta_t": delta_t,
        },
    )


def _discrete_rows(spec, columns, b, delta_t, chains, e_xlnx) -> tuple[np.ndarray, list]:
    """``mir_discrete`` at every distribution of the ``SpecColumns`` on a
    support that ends at ``b``, from their rows of ``mean_chain_rows`` and
    of ``expectation_rows`` with x ln x.

    The E[phi(p_yy'(x))] of every sensitive pair of every distribution are
    one ``expectation_rows`` pass.  Returns (rates, errors): per row the
    rate, its Jensen gap in nats and its diagonal and off-diagonal parts in
    bits/s, as a (rows, 4) array with nan on failed rows, and the MirError
    ``mir_discrete`` raises for the row, or None.  The errors keep the
    one-row order: ``step_kernel`` at b, which every row shares, the mean
    chain, the pairs in ``sensitive_pairs`` order, E[x ln x], then the
    ``MirResult`` floor.
    """
    rates = np.full((len(columns.mu), 4), np.nan)
    try:
        const, lin = step_kernel(spec, delta_t, b)
    except MirError as exc:
        return rates, [exc] * len(columns.mu)
    errors = list(chains[2])
    live = np.flatnonzero(live_rows(errors))
    if not live.size:
        return rates, errors

    pairs = sensitive_pairs(spec)
    y, y_next = (np.array(index) for index in zip(*pairs))
    c, m = const[y, y_next], lin[y, y_next]
    e_phi, _, _, pair_errors = expectation_rows(
        columns.take(np.repeat(live, len(pairs))),
        _plogp_entry,
        np.tile(np.stack((c, m), axis=1), (len(live), 1)),
    )
    by_pair = (pair_errors[k :: len(pairs)] for k in range(len(pairs)))
    stage = merge_rows(*by_pair, [e_xlnx[3][i] for i in live])
    ok = live_rows(stage)
    e_phi = e_phi.reshape(len(live), len(pairs))
    mu = columns.mu[live]
    pi = chains[0][live]

    mean_entry = np.minimum(np.maximum(c + m * mu[:, None], 0.0), 1.0)
    terms = pi[:, y] * (e_phi - _plogp_vec(mean_entry))
    diagonal = y == y_next
    total = _fsum_rows(terms, [(0, len(pairs))])[:, 0]
    diag = _fsum_rows(terms[:, diagonal], [(0, int(diagonal.sum()))])[:, 0]
    value = total / delta_t
    _mark_floor(stage, f"discrete({delta_t!r})", value, _RATE_FLOOR)

    gap = np.full(len(live), np.nan)
    gap[ok] = _gap(e_xlnx[0][live][ok], mu[ok])
    rates[live] = np.stack((value, gap, diag / delta_t, (total - diag) / delta_t), axis=1)
    for i, error in zip(live.tolist(), stage):
        errors[i] = error
    rates[~live_rows(errors)] = np.nan
    return rates, errors


def mir_quadrature(spec: ReceptorSpec, dist: TruncatedGaussianSpec) -> MirResult:
    """Continuous-time information rate: gain * (E[x ln x] - mu ln mu).

    ``diagnostics`` holds the stationary vector ``pi``, the Gauss-Legendre
    nodes per panel of the accepted E[x ln x] estimate (``nodes``) and its
    change from the estimate before (``refine_delta``, nats).  The one-row
    case of ``_quadrature_rows``.
    """
    chains = mean_chain_rows(spec, [dist.mu])
    e_xlnx = expectation_rows(_columns([dist]), _xlnx_vec)
    values, gaps, (error,) = _quadrature_rows(np.array([dist.mu]), chains, e_xlnx)
    unwrap(error)
    pi, gain, _ = chains
    _, nodes, delta, _ = e_xlnx
    return MirResult(
        value=float(values[0]),
        method="quadrature",
        gain=float(gain[0]),
        gap_nats=float(gaps[0]),
        diagnostics={
            "pi": tuple(pi[0].tolist()),
            "nodes": int(nodes[0]),
            "refine_delta": float(delta[0]),
        },
    )


def _quadrature_rows(mu: np.ndarray, chains: tuple, e_xlnx: tuple) -> tuple:
    """``mir_quadrature`` at every distribution, from its truncated mean
    ``mu[i]`` and its rows of ``mean_chain_rows`` and of
    ``expectation_rows`` with x ln x.

    Returns (values, gaps, errors): per row the rate gain * (E[x ln x] -
    mu ln mu) in bits/s and the gap in nats, nan on failed rows, and the
    MirError ``mir_quadrature`` raises for the row, or None: the mean
    chain's, E[x ln x]'s, then the ``MirResult`` floor's.
    """
    errors = merge_rows(chains[2], e_xlnx[3])
    ok = live_rows(errors)
    gaps = np.full(len(mu), np.nan)
    gaps[ok] = _gap(e_xlnx[0][ok], mu[ok])
    values = chains[1] * gaps
    _mark_floor(errors, "quadrature", values, _RATE_FLOOR)
    failed = ~live_rows(errors)
    values[failed], gaps[failed] = np.nan, np.nan
    return values, gaps, errors


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
    _, gain, (error,) = mean_chain_rows(spec, [dist.mu])
    return _series(dist, order, float(gain[0]), error)


def _series(dist, order, gain, chain_error) -> MirResult:
    """``mir_series`` from its row of ``mean_chain_rows``: the gain, or the
    error the mean chain fails with."""
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

    unwrap(chain_error)
    return MirResult(
        value=gain * gap,
        method=f"series({order})",
        gain=gain,
        gap_nats=gap,
        order=order,
        diagnostics={"tail_bound_nats": 1.0 / order},
    )
