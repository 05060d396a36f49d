"""Mutual information rate of the receptor channel, three ways.

* ``mir_discrete``   -- finite-step rate at delta_t: the continuous-time
  rate plus the entropy difference of the input-conditioned and
  input-averaged chains on the x-dependent diagonal entries, O(delta_t).
* ``mir_quadrature`` -- continuous-time limit: gain * Jensen gap of x*ln(x).
* ``mir_series``     -- power-series approximation of the gap, truncated at
  a chosen order, valid on 0 < a and b <= 2.

All three return values in bits/s.  The gain factor carries the 1/ln 2
conversion, so the recorded Jensen gap stays in nats.  Each is the one-row
case of a row kernel (``_discrete_rows``, ``_quadrature_rows``,
``_series_rows``) that a sweep runs over all its points at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import (
    DomainError,
    MirError,
    OrderTooHigh,
    OutOfConvergenceRegion,
    ValidationError,
    check_integer,
    live_rows,
    mark_rows,
    merge_rows,
    unwrap,
)

# raw_moments, shifted_moment_vector and stationary_distribution are not
# called here: perfbench's tracer wraps ``mir.raw_moments``,
# ``mir.shifted_moment_vector`` and ``mir.stationary_distribution``, and
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
    _shifted_moment_rows,
    expectation,
    expectation_rows,
    raw_moments,  # noqa: F401
    shifted_moment_vector,  # noqa: F401
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
            floor = _series_floor(self.gain, self.order)
        else:
            raise ValidationError(f"unknown method {self.method!r}")
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


def _series_floor(gain, order: int):
    """Lowest admissible series rate: a truncated tail undershoots zero by up to gain/order."""
    return -(gain / order + 1e-9)


def _mark_floor(errors: list, method: str, values: np.ndarray, floor) -> None:
    """The ``MirResult`` floor check (one floor, or one per row) on rows of
    rates, marked as by ``mark_rows``."""
    floor = np.broadcast_to(floor, values.shape)
    mark_rows(
        errors,
        values < floor,
        lambda i: ValidationError(f"{method} rate {values[i]} below admissible floor {floor[i]}"),
    )


def plogp(p: float) -> float:
    """p * log2(p), continuously extended by 0 at p = 0; the one-value
    case of ``_plogp_vec``.

    Raises DomainError outside [0, 1].
    """
    if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
        raise DomainError(f"plogp requires 0 <= p <= 1, got {p!r}")
    return float(_plogp_vec(np.float64(p)))


def _xlogx(x: np.ndarray, log) -> np.ndarray:
    """x * log(x) of every entry, 0 where x is not positive (0 log 0 = 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, x * log(x), 0.0)


def _plogp_vec(p: np.ndarray) -> np.ndarray:
    """Vectorized p*log2(p) with the 0 log 0 = 0 extension; no domain check."""
    return _xlogx(p, np.log2)


def _plogp_entry(x: np.ndarray, c, m) -> np.ndarray:
    """phi(p(x)) for the step-kernel entry p(x) = c + m * x."""
    return _plogp_vec(c + m * x)


def _xlnx_vec(x: np.ndarray) -> np.ndarray:
    """x * ln(x) extended by continuity to 0 at x = 0."""
    return _xlogx(x, np.log)


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


def mir_discrete(spec: ReceptorSpec, dist: TruncatedGaussianSpec, delta_t: float) -> MirResult:
    """Information rate at a finite step, in bits/s.

    Every x-dependent entry (y, y') of P(x) contributes

        pi_y * ( E[ phi(p_yy'(x)) ] - phi( E[p_yy'(x)] ) ) / delta_t

    with phi(p) = p log2 p; x-independent entries cancel exactly.  An
    x-dependent off-diagonal entry is delta_t * rate * x, since a pair is
    listed once, so its term is pi_y * rate * gap / ln 2: these terms sum to
    the continuous-time rate gain * gap, and ``off_diagonal_bits_per_s`` is
    the ``mir_quadrature`` value.  Only the x-dependent diagonal entries
    c + m*x need quadrature of E[phi(p_yy(x))], as E[p_yy(x)] = c + m*mu is
    closed form; their terms, summed with math.fsum, are the O(delta_t)
    ``diagonal_bits_per_s``, included, not assumed away, so the vanishing in
    the continuous-time limit is observable.  The rate is the sum of the
    two parts.  The one-row case of ``_discrete_rows``.

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

    The off-diagonal part is gain * gap from those rows.  The
    E[phi(p_yy(x))] of every x-dependent diagonal entry of every
    distribution are one ``expectation_rows`` pass.  Returns (rates,
    errors): per row the rate, its Jensen gap in nats and its diagonal and
    off-diagonal parts in bits/s, as a (rows, 4) array with nan on failed
    rows, and the MirError ``mir_discrete`` raises for the row, or None.
    The errors keep the one-row order: ``step_kernel`` at b, which every row
    shares, the mean chain, the diagonal entries in state order, E[x ln x],
    then the ``MirResult`` floor.
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

    y = np.flatnonzero(np.diagonal(spec.slope))
    c, m = const[y, y], lin[y, y]
    e_phi, _, _, entry_errors = expectation_rows(
        columns.take(np.repeat(live, len(y))),
        _plogp_entry,
        np.tile(np.stack((c, m), axis=1), (len(live), 1)),
    )
    by_entry = (entry_errors[k :: len(y)] for k in range(len(y)))
    stage = merge_rows(*by_entry, [e_xlnx[3][i] for i in live])
    ok = live_rows(stage)
    mu = columns.mu[live]
    pi = chains[0][live]

    mean_entry = np.minimum(np.maximum(c + m * mu[:, None], 0.0), 1.0)
    terms = pi[:, y] * (e_phi.reshape(len(live), len(y)) - _plogp_vec(mean_entry))
    diagonal = _fsum_rows(terms, [(0, len(y))])[:, 0] / delta_t
    gap = np.full(len(live), np.nan)
    gap[ok] = _gap(e_xlnx[0][live][ok], mu[ok])
    off_diagonal = chains[1][live] * gap
    value = diagonal + off_diagonal
    _mark_floor(stage, f"discrete({delta_t!r})", value, _RATE_FLOOR)

    rates[live] = np.stack((value, gap, diagonal, off_diagonal), axis=1)
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


def mir_series(spec: ReceptorSpec, dist: TruncatedGaussianSpec, order: int = 40) -> MirResult:
    """Series approximation of the continuous-time rate, truncated at ``order``.

    Expands ln(x) about 1, turning the Jensen gap into

        sum_{k=2..order} (-1)^k E[(x-1)^k] / (k (k-1))  -  mu ln(mu/e)  -  1.

    Requires 0 < a and b <= 2 so the expansion converges on the support; the
    truncation error is bounded by 1/order in nats (reported as
    ``diagnostics["tail_bound_nats"]``), so the rate lies within gain/order
    of the quadrature value; that bound is the series' only guarantee.
    E[(x-1)^k] is computed by quadrature (bounded integrand, no
    cancellation).  The one-row case of ``_series_rows``.

    Raises OutOfConvergenceRegion when the support leaves (0, 2], and
    OrderTooHigh above the shared order ceiling.
    """
    check_integer(order, "series order")
    chains = mean_chain_rows(spec, [dist.mu])
    values, gaps, (error,) = _series_rows(_columns([dist]), order, chains)
    unwrap(error)
    value, gain, gap = float(values[0]), float(chains[1][0]), float(gaps[0])
    return MirResult(value, f"series({order})", gain, gap, order, {"tail_bound_nats": 1.0 / order})


def _series_rows(columns, order: int, chains: tuple) -> tuple:
    """``mir_series`` at every distribution of ``columns``, from their rows
    of ``mean_chain_rows``; the E[(x-1)^k] of all rows are one
    ``_shifted_moment_rows`` pass, unless the order is out of range.  Returns (values, gaps, errors) as
    ``_quadrature_rows`` does, each row's error in the order of a one-row
    call: the convergence region, the order, the moment quadrature, the
    mean chain, then the ``MirResult`` floor.
    """
    n = len(columns.mu)
    errors: list = [None] * n
    mark_rows(
        errors,
        (columns.a <= 0.0) | (columns.b > 2.0),
        lambda i: OutOfConvergenceRegion(
            f"series needs support within (0, 2], got [{columns.a[i]}, {columns.b[i]}]"
        ),
    )
    if not 2 <= order <= MAX_MOMENT_ORDER:
        error = OrderTooHigh(f"series order {order} exceeds ceiling {MAX_MOMENT_ORDER}")
        if order < 2:
            error = ValidationError(f"series order must be >= 2, got {order}")
        return np.full(n, np.nan), np.full(n, np.nan), merge_rows(errors, [error] * n)
    moments, moment_errors = _shifted_moment_rows(columns, 1.0, order)
    k = np.arange(2, order + 1)
    terms = (-1.0) ** k * moments[:, 2:] / (k * (k - 1))
    mu = columns.mu
    gaps = _fsum_rows(terms, [(0, order - 1)])[:, 0] - mu * (np.log(mu) - 1.0) - 1.0
    errors = merge_rows(errors, moment_errors, chains[2])
    values = chains[1] * gaps
    _mark_floor(errors, f"series({order})", values, _series_floor(chains[1], order))
    failed = ~live_rows(errors)
    values[failed], gaps[failed] = np.nan, np.nan
    return values, gaps, errors
