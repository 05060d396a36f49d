"""Truncated Gaussian input distribution.

A parent Gaussian with mean ``mu_bar`` and standard deviation ``sigma_bar``
is conditioned on the interval ``[a, b]``.  This module provides the
closed-form truncated mean/variance, raw and recentred moments (through the
two-term recursion for the moments of the truncated standard normal up to
order 20, for many specs as one array pass, by quadrature above),
inverse-CDF sampling, and a node-doubling Gauss-Legendre expectation
engine, on one fixed node schedule, used throughout the package for
integrals against the density.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri, roots_legendre

from .errors import NoConvergence, OrderTooHigh, ValidationError, mark_rows, unwrap

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Hard ceiling on moment order, for moment tables and the series order;
#: higher orders are refused outright.
MAX_MOMENT_ORDER = 64

#: Highest order taken from the L-recursion; higher orders come from
#: quadrature.  The forward recursion loses about a digit every four orders
#: (on the canonical input E[x^m] is 2e-14 relative off at m = 20, 1e-8 at
#: 44 and 5% at 64), while the quadrature stays near 5e-13 at every order.
_RECURSION_MAX_ORDER = 20

#: Truncations keeping less parent mass than this are rejected as numerically
#: empty: every downstream formula divides by the kept mass.
MIN_TRUNCATION_MASS = 1e-12

# Integration support is clipped to this many parent sigmas around mu_bar;
# the discarded normal mass underflows double precision (exp(-800)), while
# a narrow spike inside a wide [a, b] becomes resolvable by the nodes.
_SUPPORT_SIGMAS = 40.0

# The one quadrature schedule: Gauss-Legendre nodes per panel start at
# _INITIAL_NODES and double until two successive estimates agree to _RTOL
# relative (_ATOL absolute near zero).  Node computation is O(n^2), so the
# cap keeps a non-convergent integrand a fast NoConvergence, not a hang.
_INITIAL_NODES = 200
_MAX_NODES = 1600
_RTOL = 1e-12
_ATOL = 1e-14

# Most nodes one block of rows holds in ``_gl_rows`` (a block keeps at least
# one row).  On the capacity-surface grid 32 single-panel rows at 400 nodes
# was the fastest block measured; 256 rows was slower and held more memory.
_BLOCK_NODES = 32 * 400


def _norm_pdf(t):
    return np.exp(-0.5 * np.square(t)) / _SQRT_2PI


def _powers(x: np.ndarray, order: int) -> np.ndarray:
    """x^0, ..., x^order of every entry, along a new last axis.

    Running products, x^0 = 1 and x^k = x^(k-1) * x: plain IEEE ``*``
    steps, so any code that multiplies in the same order gets the same
    bits, and x^k is within about k ulps of the exact power (Higham 2002,
    ch. 3).  A power past the float range is +-inf.
    """
    steps = np.repeat(np.asarray(x, dtype=float)[..., None], order + 1, axis=-1)
    steps[..., 0] = 1.0
    with np.errstate(over="ignore"):
        return np.cumprod(steps, axis=-1)


def _fsum_rows(terms: np.ndarray, spans) -> np.ndarray:
    """Correctly rounded sums, by ``math.fsum``: entry (r, k) sums the
    slice ``start:stop`` of row r of ``terms``, for the k-th (start, stop)
    in ``spans``.  A sum fsum cannot form (inf - inf, or an intermediate
    overflow) is nan, which the callers' checks reject."""
    sums = [list(map(_fsum_or_nan, terms[:, start:stop].tolist())) for start, stop in spans]
    return np.array(sums, dtype=float).reshape(len(spans), len(terms)).T


def _fsum_or_nan(values: list) -> float:
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def _l_coefficients(alpha, beta, z, order: int) -> list:
    """Raw moments L_i of the standard normal truncated to [alpha, beta], mass z.

    L_0 = 1
    L_1 = -(phi(beta) - phi(alpha)) / z
    L_i = -(beta^(i-1) phi(beta) - alpha^(i-1) phi(alpha)) / z + (i-1) L_{i-2}

    The arguments are row arrays; returns [L_0, ..., L_order], one array
    per order (L_0 stays the float 1.0).
    """
    pdf_a = _norm_pdf(alpha)
    pdf_b = _norm_pdf(beta)
    L = [1.0, -(pdf_b - pdf_a) / z]
    pow_a, pow_b = _powers(alpha, order), _powers(beta, order)
    for i in range(2, order + 1):
        # phi is exactly 0.0 at a huge endpoint: its term is 0.0, not inf * 0
        with np.errstate(invalid="ignore"):
            tb = np.where(pdf_b == 0.0, 0.0, pow_b[..., i - 1] * pdf_b)
            ta = np.where(pdf_a == 0.0, 0.0, pow_a[..., i - 1] * pdf_a)
        L.append(-(tb - ta) / z + (i - 1) * L[i - 2])
    return L[: order + 1]


@dataclass(frozen=True)
class TruncatedGaussianSpec:
    """Parent Gaussian parameters plus truncation interval, with derived moments.

    Attributes
    ----------
    mu_bar, sigma_bar : parent mean and standard deviation.
    a, b : truncation interval, ``0 <= a < b < inf``.
    alpha, beta : standardized truncation points ``(a - mu_bar)/sigma_bar`` etc.
    z : parent mass kept by the truncation, ``ndtr(beta) - ndtr(alpha)``; when
      ``alpha > 0`` it is formed on the reflected upper tail as
      ``ndtr(-alpha) - ndtr(-beta)``, which keeps its digits where
      ``ndtr(alpha)`` rounds toward 1.
    mu, sigma2 : mean and variance of the truncated variable, in closed form
      from the first two raw moments L_1, L_2 of the truncated standard
      normal (see ``_l_coefficients``)::

        mu     = mu_bar + sigma_bar * L_1
        sigma2 = sigma_bar^2 * (L_2 - L_1^2)
    """

    mu_bar: float
    sigma_bar: float
    a: float
    b: float
    alpha: float = field(init=False, repr=False)
    beta: float = field(init=False, repr=False)
    z: float = field(init=False, repr=False)
    mu: float = field(init=False, repr=False)
    sigma2: float = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("mu_bar", "sigma_bar", "a", "b"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        columns, (error,) = _spec_rows((self.mu_bar,), (self.sigma_bar,), (self.a,), (self.b,))
        unwrap(error)
        for name in SpecColumns._fields[4:]:  # the derived fields, alpha to sigma2
            object.__setattr__(self, name, float(getattr(columns, name)[0]))


class SpecColumns(namedtuple("SpecColumns", "mu_bar sigma_bar a b alpha beta z mu sigma2")):
    """Many specs as one float array per spec field: what every row kernel reads."""

    def take(self, rows) -> SpecColumns:
        """The given rows, in the given order."""
        return SpecColumns(*(column[rows] for column in self))


def _columns(specs) -> SpecColumns:
    """The columns of a list of specs; how a scalar call enters a row kernel."""
    fields = ([getattr(spec, name) for spec in specs] for name in SpecColumns._fields)
    return SpecColumns(*(np.array(column, dtype=float) for column in fields))


def _spec_at(columns: SpecColumns, row: int) -> TruncatedGaussianSpec:
    """The spec of a row of checked ``_spec_rows`` columns, without rerunning the checks."""
    spec = object.__new__(TruncatedGaussianSpec)
    vars(spec).update((name, float(column[row])) for name, column in zip(columns._fields, columns))
    return spec


def _spec_rows(mu_bar, sigma_bar, a, b) -> tuple[SpecColumns, list]:
    """The fields of ``TruncatedGaussianSpec`` for whole columns.

    Each argument holds one finite number per row.  Returns the
    ``SpecColumns`` of the rows, and per row the ValidationError the
    constructor raises there, or None: the checks run as masks in the
    constructor's order, and a message shows each parameter as the caller
    passed it.  Each row has the bits of the scalar formulas; ``z`` takes
    the reflected upper tail on the rows where alpha > 0.
    """
    mb, sb, lo, hi = (np.asarray(column, dtype=float) for column in (mu_bar, sigma_bar, a, b))
    errors: list = [None] * len(mb)
    mark_rows(
        errors,
        sb <= 0.0,
        lambda i: ValidationError(f"sigma_bar must be positive, got {sigma_bar[i]}"),
    )
    mark_rows(
        errors,
        ~((0.0 <= lo) & (lo < hi)),
        lambda i: ValidationError(f"truncation must satisfy 0 <= a < b, got [{a[i]}, {b[i]}]"),
    )
    # rows already rejected may divide by zero; their values are never read
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha = (lo - mb) / sb
        beta = (hi - mb) / sb
        z = np.where(alpha > 0.0, ndtr(-alpha) - ndtr(-beta), ndtr(beta) - ndtr(alpha))
        mark_rows(
            errors,
            z <= MIN_TRUNCATION_MASS,
            lambda i: ValidationError(
                f"truncation [{a[i]}, {b[i]}] keeps only {z[i]:.3e} of the parent "
                f"mass (minimum {MIN_TRUNCATION_MASS:.0e})"
            ),
        )
        _, L1, L2 = _l_coefficients(alpha, beta, z, 2)
        mu = mb + sb * L1
        sigma_sq = sb * sb
        sigma2 = sigma_sq * (L2 - L1 * L1)

    span = hi - lo
    mark_rows(
        errors,
        ~((lo - 1e-9 * span <= mu) & (mu <= hi + 1e-9 * span)),
        lambda i: ValidationError(f"truncated mean {float(mu[i])} escaped [{a[i]}, {b[i]}]"),
    )
    # an overflowed sigma_bar^2 leaves an infinite variance, rejected here
    mark_rows(
        errors,
        ~((0.0 < sigma2) & (sigma2 <= sigma_sq * (1.0 + 1e-12)) & (sigma2 < math.inf)),
        lambda i: ValidationError(
            f"truncated variance {float(sigma2[i])} outside (0, sigma_bar^2]"
        ),
    )
    return SpecColumns(mb, sb, lo, hi, alpha, beta, z, mu, sigma2), errors


@dataclass(frozen=True)
class MomentTable:
    """Raw and central moments of a truncated Gaussian up to ``order``.

    ``raw[m] = E[x^m]`` and ``central[i] = E[(x - mu)^i]``.
    """

    raw: np.ndarray
    central: np.ndarray
    order: int

    def __post_init__(self):
        if len(self.raw) != self.order + 1 or len(self.central) != self.order + 1:
            raise ValidationError("moment vectors must have length order + 1")
        errors = [None]
        _mark_table_errors(errors, self.raw[None], self.central[None])
        unwrap(errors[0])
        self.raw.flags.writeable = False
        self.central.flags.writeable = False


def _mark_table_errors(errors: list, raw: np.ndarray, central: np.ndarray) -> None:
    """The ``MomentTable`` checks on rows of (rows, order + 1) moment arrays,
    marked as by ``mark_rows``."""
    zeroth = (np.abs(raw[:, 0] - 1.0) > 1e-12) | (np.abs(central[:, 0] - 1.0) > 1e-12)
    mark_rows(errors, zeroth, lambda i: ValidationError("zeroth moments must equal 1"))
    if central.shape[1] > 1:
        mark_rows(
            errors,
            np.abs(central[:, 1]) > 1e-12,
            lambda i: ValidationError(f"first central moment must vanish, got {central[i, 1]}"),
        )
    # a sum past the float range (see ``_fsum_rows``)
    mark_rows(
        errors,
        np.isnan(raw).any(axis=1) | np.isnan(central).any(axis=1),
        lambda i: ValidationError("a moment is nan: its sum is past the float range"),
    )


@lru_cache(maxsize=None)
def _binomial_layout(width: int):
    """The terms of the binomial expansions of orders m < width, flattened:
    (m, i, C(m, i)) per term with i <= m, m-major, and per order its
    (start, stop) in that flat order."""
    m, i = np.tril_indices(width)
    comb = np.array([math.comb(*pair) for pair in zip(m.tolist(), i.tolist())], dtype=float)
    for shared in (m, i, comb):
        shared.flags.writeable = False
    spans = tuple((k * (k + 1) // 2, (k + 1) * (k + 2) // 2) for k in range(width))
    return m, i, comb, spans


def _moments_about(mu_bar, sigma_bar, center, L: np.ndarray) -> np.ndarray:
    """E[(x - center)^m] for m = 0..order via the binomial expansion in L_i.

    Row arrays: row r has parent mean ``mu_bar[r]``, standard deviation
    ``sigma_bar[r]``, center ``center[r]`` and L_0..L_order in ``L[r]``.
    x - center = (mu_bar - center) + sigma_bar * t, so the m-th moment is
    sum_i C(m, i) sigma_bar^i (mu_bar - center)^(m-i) L_i.  Summed with
    compensated summation; the terms stay O(|x - center|^m) when the center
    is near the mass, which keeps small-sigma cases exact.
    """
    width = L.shape[1]
    m, i, comb, spans = _binomial_layout(width)
    sigma_pow = _powers(sigma_bar, width - 1)
    d_pow = _powers(mu_bar - center, width - 1)
    return _fsum_rows(comb * sigma_pow[:, i] * d_pow[:, m - i] * L[:, i], spans)


@np.errstate(over="ignore", invalid="ignore")
def _moment_rows(columns: SpecColumns, order: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Raw and central moments up to ``order`` of every row, as one array pass.

    Returns (raw, central, errors): (rows, order + 1) arrays and, per row,
    the ValidationError ``raw_moments`` raises for it, or None.  Orders up
    to 20 come from the L-recursion: the moments about 0 and about the mean
    of every row are one expansion.  Higher orders come from
    ``shifted_moment_vector``, row by row (see ``raw_moments``).
    """
    mu_bar, sigma_bar, a, b, alpha, beta, z, mu, sigma2 = columns
    n = len(mu)
    low = min(order, _RECURSION_MAX_ORDER)
    L = np.column_stack([np.broadcast_to(c, n) for c in _l_coefficients(alpha, beta, z, low)])
    # the expansions about 0 and about the mean, as one of 2n rows
    both = _moments_about(
        np.concatenate((mu_bar, mu_bar)),
        np.concatenate((sigma_bar, sigma_bar)),
        np.concatenate((np.zeros(n), mu)),
        np.concatenate((L, L)),
    )
    raw, central = both[:n], both[n:]
    if order > _RECURSION_MAX_ORDER:
        high = slice(_RECURSION_MAX_ORDER + 1, None)
        specs = [_spec_at(columns, row) for row in range(n)]
        raw = np.hstack((raw, [shifted_moment_vector(s, 0.0, order)[high] for s in specs]))
        central = np.hstack(
            (central, [shifted_moment_vector(s, s.mu, order)[high] for s in specs])
        )

    # support bounds a^m <= E[x^m] <= b^m and, since x^(m-1) (x - a) >= 0 on
    # [a, b], a E[x^(m-1)] <= E[x^m] <= b E[x^(m-1)], with float slack; the
    # forward recursion is unstable on narrow windows and breaks the ratio
    # form long before the power form.
    errors: list = [None] * n
    pow_a, pow_b = _powers(a, order), _powers(b, order)
    for m in range(order + 1):
        value = raw[:, m]
        lo, hi = pow_a[:, m], pow_b[:, m]
        slack = 1e-9 * np.maximum(1.0, hi)
        if m > 0:
            # Python's max(lo, v) and min(hi, v), which keep lo and hi on ties
            lo_ratio, hi_ratio = a * raw[:, m - 1], b * raw[:, m - 1]
            lo = np.where(lo_ratio > lo, lo_ratio, lo)
            hi = np.where(hi_ratio < hi, hi_ratio, hi)
        mark_rows(
            errors,
            ~((lo - slack <= value) & (value <= hi + slack)),
            lambda i: ValidationError(
                f"raw moment E[x^{m}] = {float(value[i])} escaped support bound "
                f"[{float(lo[i])}, {float(hi[i])}]"
            ),
        )
    # then central[2] against sigma2, and the MomentTable checks
    if order >= 2:
        rel = np.abs(central[:, 2] - sigma2) / sigma2
        mark_rows(
            errors,
            rel > 1e-10,
            lambda i: ValidationError(
                f"central[2] = {central[i, 2]} disagrees with sigma2 = {sigma2[i]} "
                f"(relative {rel[i]:.2e})"
            ),
        )
    _mark_table_errors(errors, raw, central)
    return raw, central, errors


def raw_moments(spec: TruncatedGaussianSpec, order: int) -> MomentTable:
    """Moment table up to ``order``; the one-spec case of ``_moment_rows``.

    Orders up to 20 come from the L-recursion.  Central moments are expanded
    about the truncated mean using the same recursion coefficients, which
    avoids the catastrophic cancellation of differencing large raw moments
    when sigma_bar is small.  Higher orders, where the recursion loses its
    digits, come from ``shifted_moment_vector`` about 0 and about the mean.

    Raises OrderTooHigh for order > MAX_MOMENT_ORDER, and ValidationError
    when a moment escapes its support bound or central[2] disagrees with
    sigma2.
    """
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    if order > MAX_MOMENT_ORDER:
        raise OrderTooHigh(f"order {order} exceeds ceiling {MAX_MOMENT_ORDER}")
    raw, central, (error,) = _moment_rows(_columns([spec]), order)
    unwrap(error)
    return MomentTable(raw=raw[0], central=central[0], order=order)


def sample(spec: TruncatedGaussianSpec, rng: np.random.Generator, size=None):
    """Inverse-CDF draw(s) from the truncated Gaussian.

    The uniform variate is mapped into the kept CDF mass and pushed through
    the standard normal quantile function.  When ``alpha > 0`` it is drawn
    on the reflected upper-tail mass instead, as for ``z``, so a far-tail
    window keeps distinct draws.  Deterministic for a given generator state;
    the caller owns the generator.
    """
    if spec.alpha > 0.0:
        u = rng.uniform(float(ndtr(-spec.beta)), float(ndtr(-spec.alpha)), size)
        x = spec.mu_bar - spec.sigma_bar * ndtri(u)
    else:
        u = rng.uniform(float(ndtr(spec.alpha)), float(ndtr(spec.beta)), size)
        x = spec.mu_bar + spec.sigma_bar * ndtri(u)
    # ndtri(0) = -inf can occur with probability 2^-53; clipping keeps the
    # support contract without distorting the distribution measurably
    x = np.clip(x, spec.a, spec.b)
    if size is None:
        return float(x)
    return x


@lru_cache(maxsize=64)
def _gl_nodes(n: int):
    nodes, weights = roots_legendre(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _panel_edges(columns: SpecColumns) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Quadrature panels, graded toward a near-zero lower edge, as {panel
    count: (rows, edges)}: the rows with that many panels and their edges.

    Integration runs in the standardized variable t = (x - mu_bar)/sigma_bar,
    over [alpha, beta] clipped to +-40 sigmas: forming t from exact
    Gauss-Legendre nodes avoids the cancellation of x - mu_bar when
    sigma_bar is tiny relative to the interval.

    The integrands of interest (x ln x, p log p with p linear in x) are
    smooth except for unbounded derivatives as x -> 0.  When the window's
    lower x-edge sits close to zero relative to its span, plain
    Gauss-Legendre converges only algebraically; panels whose widths shrink
    geometrically toward that edge keep the singularity at least one panel
    width away from every panel but the innermost, whose contribution is
    negligible.  Away from that regime a single panel is used.
    """
    lo = np.maximum(columns.alpha, -_SUPPORT_SIGMAS)
    hi = np.minimum(columns.beta, _SUPPORT_SIGMAS)
    x_lo = columns.mu_bar + columns.sigma_bar * lo
    span = (columns.mu_bar + columns.sigma_bar * hi) - x_lo
    graded = np.flatnonzero((span > 0.0) & (x_lo <= 1e-2 * span))
    ratio = span[graded] / np.maximum(x_lo[graded], span[graded] * 2.0**-40)
    # ceil(log2(ratio)), exactly: ratio = mantissa * 2^exponent with the
    # mantissa in [0.5, 1), so it is the exponent, less 1 at a power of 2
    mantissa, exponent = np.frexp(ratio)
    levels = np.zeros(len(lo), dtype=int)
    levels[graded] = np.clip(exponent - (mantissa == 0.5), 1, 40)
    groups = {}
    for count in dict.fromkeys(levels.tolist()):
        rows = np.flatnonzero(levels == count)
        x_edge = x_lo[rows, None] + span[rows, None] * np.ldexp(1.0, -np.arange(count, 0, -1))
        inner = (x_edge - columns.mu_bar[rows, None]) / columns.sigma_bar[rows, None]
        groups[count + 1] = rows, np.column_stack((lo[rows], inner, hi[rows]))
    return groups


def _refine(estimate: Callable[[int, np.ndarray], list], count: int, what: str) -> tuple:
    """Run ``estimate(n, rows)`` on the fixed node schedule until each row settles.

    ``estimate(n, rows)`` returns one estimate per row index in the array
    ``rows``: a float, or a vector compared entry by entry.  n starts at
    ``_INITIAL_NODES`` and doubles; a row whose every entry agrees with its
    predecessor to ``_RTOL`` relative (``_ATOL`` absolute near zero) keeps
    its estimate, and only the unsettled rows go on to the next n.  Returns
    (values, nodes, deltas, errors): per row the accepted estimate, its n
    and its change |estimate - previous estimate|, nan on the rows still
    unsettled once ``_MAX_NODES`` was tried, whose error is NoConvergence.
    """
    n = _INITIAL_NODES
    rows = np.arange(count)
    previous = np.asarray(estimate(n, rows), dtype=float)
    values, deltas = np.full(previous.shape, np.nan), np.full(previous.shape, np.nan)
    nodes = np.full(count, np.nan)
    while rows.size and n < _MAX_NODES:
        n *= 2
        current = np.asarray(estimate(n, rows), dtype=float)
        delta = np.abs(current - previous)
        agree = delta <= np.maximum(_RTOL * np.abs(current), _ATOL)
        settled = agree.reshape(rows.size, -1).all(axis=1)
        done = rows[settled]
        values[done], nodes[done], deltas[done] = current[settled], n, delta[settled]
        rows, previous = rows[~settled], current[~settled]
    errors: list = [None] * count
    for row in rows.tolist():
        errors[row] = NoConvergence(f"{what} did not stabilize by n={_MAX_NODES} nodes per panel")
    return values, nodes, deltas, errors


def _gl_rows(edges, loc, scale, mass, f, n: int, params=None) -> list:
    """n-node Gauss-Legendre estimates of E[f(x)], one per row.

    Row i integrates f against the density of parent mean ``loc[i]``,
    standard deviation ``scale[i]`` and kept mass ``mass[i]`` over the
    standardized panels ``edges[i]``, n nodes on each; every row has the
    same panel count.  Rows go through in blocks of at most
    ``_BLOCK_NODES`` nodes (and at least one row) as node arrays of shape
    (rows, panels * n); ``f`` gets a block's nodes in that 2-D shape, then,
    when ``params`` (one row of parameters per row) is given, one (rows, 1)
    column per parameter, and must act entry by entry.  The sum over a
    row's nodes is a stacked matmul, the same dot product as for that row
    alone, so a row's value does not depend on the rows batched with it.
    """
    nodes, weights = _gl_nodes(n)
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    block = max(1, _BLOCK_NODES // (half.shape[1] * n))
    values = []
    for start in range(0, len(edges), block):
        b = slice(start, start + block)
        ts = half[b, :, None] * nodes + mid[b, :, None]
        xs = loc[b, None, None] + scale[b, None, None] * ts
        ws = half[b, :, None] * weights * _norm_pdf(ts) / mass[b, None, None]
        ws = ws.reshape(len(ts), -1)
        columns = () if params is None else params[b].T[:, :, None]
        fx = np.asarray(f(xs.reshape(len(ts), -1), *columns), dtype=float)
        values += (ws[:, None, :] @ fx[:, :, None])[:, 0, 0].tolist()
    return values


def expectation_rows(columns: SpecColumns, f: Callable[..., np.ndarray], params=None) -> tuple:
    """E[f(x)] under each row of ``columns``, by one Gauss-Legendre pass.

    Rows are grouped by panel count (``_panel_edges``), never padded, and
    each group runs the fixed node schedule with a per-row agreement test
    (``_refine``), so only unsettled rows go on to more nodes.  ``f`` must
    act entry by entry; with ``params``, a (rows, k) float array, row i
    integrates ``f(x, *params[i])`` (see ``_gl_rows``).  Returns (values,
    nodes, deltas, errors) as ``_refine`` does: per row E[f(x)], the nodes
    per panel of the accepted estimate and its change from the estimate
    before, and NoConvergence where the schedule ran out.
    """
    values, nodes, deltas = (np.full(len(columns.mu), np.nan) for _ in range(3))
    errors: list = [None] * len(columns.mu)
    for members, edges in _panel_edges(columns).values():
        table = np.stack((columns.mu_bar, columns.sigma_bar, columns.z))[:, members]
        group_params = None if params is None else params[members]

        # called only by the _refine below, so the loop's current values hold
        def estimate(n: int, rows: np.ndarray) -> list:
            row_params = None if group_params is None else group_params[rows]
            return _gl_rows(edges[rows], *table[:, rows], f, n, row_params)

        group = _refine(estimate, len(members), "expectation")
        values[members], nodes[members], deltas[members] = group[:3]
        for i, error in zip(members.tolist(), group[3]):
            errors[i] = error
    return values, nodes, deltas, errors


def expectation(
    spec: TruncatedGaussianSpec, f: Callable[[np.ndarray], np.ndarray]
) -> float:
    """E[f(x)] by Gauss-Legendre quadrature with node-doubling refinement.

    ``f`` must accept an ndarray of evaluation points.  The node count per
    panel doubles from 200 until two successive estimates agree to 1e-12
    relative (or 1e-14 absolute near zero); integration is restricted to the
    part of [a, b] within 40 parent sigmas of mu_bar, outside which the
    density underflows to zero.  The one-spec case of ``expectation_rows``.

    Raises NoConvergence if the estimates have not stabilized by 1600 nodes.
    """
    values, _, _, (error,) = expectation_rows(_columns([spec]), f)
    unwrap(error)
    return float(values[0])


def shifted_moment_vector(
    spec: TruncatedGaussianSpec, center: float, order: int
) -> np.ndarray:
    """E[(x - center)^m] for m = 0..order by quadrature, all orders at once.

    Stable for any truncation: the integrand is bounded by max(|a - center|,
    |b - center|)^m, so no cancellation occurs.  Used as the production path
    for the series evaluation, for which the recursion loses too many digits
    beyond order ~25.  Refined on the same node schedule as ``expectation``,
    every order from 2 up to the same tolerance; orders 0 and 1 are the
    closed forms 1 and ``mu - center``.

    A one-sided window (alpha > 0 or beta < 0) keeps its mass at the near
    edge, and a far end many sigmas away stalls the node schedule.  It is cut
    where every integrand is e^-40 below its near-edge value: the density
    falls by e^-40 at t^2 = edge^2 + 80, and |x - center|^m rises at most by
    (s_far / s_near)^m, which adds 2 * order * ln(s_far / s_near).
    """
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    lo, hi = max(spec.alpha, -_SUPPORT_SIGMAS), min(spec.beta, _SUPPORT_SIGMAS)
    if lo > 0.0 or hi < 0.0:
        near, far = (lo, hi) if lo > 0.0 else (hi, lo)
        s_near = abs(spec.mu_bar - center + spec.sigma_bar * near)
        s_far = abs(spec.mu_bar - center + spec.sigma_bar * far)
        if s_near > 0.0:
            rise = math.log(max(s_far, s_near)) - math.log(s_near)
            cut = math.sqrt(near * near + 80.0 + 2.0 * order * rise)
            lo, hi = max(lo, -cut), min(hi, cut)

    def moment_block(n: int) -> np.ndarray:
        nodes, weights = _gl_nodes(n)
        half = 0.5 * (hi - lo)
        ts = half * nodes + 0.5 * (hi + lo)
        dens_t = _norm_pdf(ts) / spec.z
        # (x - center) built from exact t keeps full relative precision
        shifted = (spec.mu_bar - center) + spec.sigma_bar * ts
        powers = np.vander(shifted, order + 1, increasing=True)  # (n, order+1)
        block = half * (powers.T @ (weights * dens_t))
        # orders 0 and 1 have closed forms; the rounding noise of their
        # quadrature (order 1 is near 0) must not hold back the agreement test
        block[:2] = (1.0, spec.mu - center)[: order + 1]
        return block

    values, _, _, (error,) = _refine(lambda n, rows: [moment_block(n)], 1, "moment quadrature")
    unwrap(error)
    return values[0]
