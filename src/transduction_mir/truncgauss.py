"""Truncated Gaussian input distribution.

A parent Gaussian with mean ``mu_bar`` and standard deviation ``sigma_bar``
is conditioned on the interval ``[a, b]``.  This module provides the
closed-form truncated mean/variance, raw and recentred moments (by the
two-term recursion for the truncated standard normal up to order 20, by
quadrature above), inverse-CDF sampling, and the one Gauss-Legendre driver
behind every integral against the density: ``_integrate`` runs the
node-doubling schedule over groups of rows, each pass one ``_gl_rows``
call over many specs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Callable

import numpy as np

from .errors import (
    NoConvergence,
    OrderTooHigh,
    ValidationError,
    check_integer,
    live_rows,
    mark_rows,
    merge_rows,
    unwrap,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)

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

# Newton steps allowed per Gauss-Legendre rule.  From Tricomi's guess every
# rule up to n = 3200 settles in at most four.
_NEWTON_STEPS = 10


def _norm_pdf(t):
    return np.exp(-0.5 * np.square(t)) / _SQRT_2PI


def _ndtr(t) -> np.ndarray:
    """Standard normal CDF of every entry, ``0.5 * erfc(-t / sqrt(2))``.

    One stdlib ``math.erfc`` call per entry.  Against 50-digit mpmath it is
    within 1.8e-15 relative on [-3, 3], 1.5e-14 on [-10, -3] and 1.5e-13 on
    [-30, -10], where the rounding of ``t / sqrt(2)`` is amplified by the
    tail's slope; below -37.5 it is subnormal, far under
    ``MIN_TRUNCATION_MASS``.
    """
    args = (-np.asarray(t, dtype=float) * _SQRT_HALF).tolist()
    return 0.5 * np.fromiter(map(math.erfc, args), dtype=float, count=len(args))


def _powers(x: np.ndarray, order: int):
    """x^0, ..., x^order of every entry, one array per order.

    Running products, x^0 = 1 and x^k = x^(k-1) * x: plain IEEE ``*``
    steps, so any code that multiplies in the same order gets the same
    bits, and x^k is within about k ulps of the exact power (Higham 2002,
    ch. 3).  A power past the float range is +-inf.  Yielded one order at a
    time, so an integrand of many orders never holds a table of them.
    """
    power = np.ones_like(x, dtype=float)
    yield power
    for _ in range(order):
        with np.errstate(over="ignore"):
            power = power * x
        yield power


def _fsum_rows(terms: np.ndarray, spans) -> np.ndarray:
    """Correctly rounded sums, by ``math.fsum``: entry (r, k) sums the
    slice ``start:stop`` of row r of ``terms``, for the k-th (start, stop)
    in ``spans``.  A sum fsum cannot form (inf - inf, or an intermediate
    overflow) is nan, which the callers' checks reject."""
    sums = [_fsum_each(terms[:, start:stop].tolist()) for start, stop in spans]
    return np.array(sums, dtype=float).reshape(len(spans), len(terms)).T


def _fsum_each(rows: list) -> list:
    """``math.fsum`` of every row; where one fails, row by row with nan there."""
    try:
        return list(map(math.fsum, rows))
    except (OverflowError, ValueError):
        return list(map(_fsum_or_nan, rows))


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
    pow_a, pow_b = list(_powers(alpha, order)), list(_powers(beta, order))
    for i in range(2, order + 1):
        # phi is exactly 0.0 at a huge endpoint: its term is 0.0, not inf * 0
        with np.errstate(invalid="ignore"):
            tb = np.where(pdf_b == 0.0, 0.0, pow_b[i - 1] * pdf_b)
            ta = np.where(pdf_a == 0.0, 0.0, pow_a[i - 1] * pdf_a)
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
    z : parent mass kept by the truncation, ``Phi(beta) - Phi(alpha)`` with
      the standard normal CDF ``Phi`` (``_ndtr``); when ``alpha > 0`` it is
      formed on the reflected upper tail as ``Phi(-alpha) - Phi(-beta)``,
      which keeps its digits where ``Phi(alpha)`` rounds toward 1.
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
        upper = alpha > 0.0
        z = _ndtr(np.where(upper, -alpha, beta)) - _ndtr(np.where(upper, -beta, alpha))
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
            np.abs(central[:, 1]) > 1e-12 * np.maximum(1.0, np.abs(raw[:, 1])),
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
    sigma_pow = np.stack(list(_powers(sigma_bar, width - 1)), axis=1)
    d_pow = np.stack(list(_powers(mu_bar - center, width - 1)), axis=1)
    return _fsum_rows(comb * sigma_pow[:, i] * d_pow[:, m - i] * L[:, i], spans)


@np.errstate(over="ignore", invalid="ignore")
def _moment_rows(columns: SpecColumns, order: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Raw and central moments up to ``order`` of every row, as one array pass.

    Returns (raw, central, errors): (rows, order + 1) arrays and, per row,
    the MirError ``raw_moments`` raises for it, or None.  Orders up
    to 20 come from the L-recursion: the moments about 0 and about the mean
    of every row are one expansion.  Higher orders come from
    ``_shifted_moment_rows``, whose NoConvergence comes before every check.
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
    errors: list = [None] * n
    if order > _RECURSION_MAX_ORDER:
        # by quadrature, about 0 and about the mean as one call on 2n rows
        high, quad_errors = _shifted_moment_rows(
            columns.take(np.tile(np.arange(n), 2)), np.concatenate((np.zeros(n), mu)), order
        )
        high = high[:, _RECURSION_MAX_ORDER + 1 :]
        raw, central = np.hstack((raw, high[:n])), np.hstack((central, high[n:]))
        errors = merge_rows(quad_errors[:n], quad_errors[n:])

    # support bounds a^m <= E[x^m] <= b^m and, since x^(m-1) (x - a) >= 0 on
    # [a, b], a E[x^(m-1)] <= E[x^m] <= b E[x^(m-1)], with float slack; the
    # forward recursion is unstable on narrow windows and breaks the ratio
    # form long before the power form.
    for m, (lo, hi) in enumerate(zip(_powers(a, order), _powers(b, order))):
        value = raw[:, m]
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
    digits, come from the moment quadrature about 0 and about the mean.

    Raises OrderTooHigh for order > MAX_MOMENT_ORDER, and ValidationError
    when a moment escapes its support bound or central[2] disagrees with
    sigma2; NoConvergence when the quadrature of a high order does not settle.
    """
    check_integer(order, "order")
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
    the caller owns the generator.  The quantile function is scipy's
    ``ndtri``, imported here: only Monte Carlo loads scipy.
    """
    from scipy.special import ndtri

    if spec.alpha > 0.0:
        lo, hi = _ndtr((-spec.beta, -spec.alpha)).tolist()
        x = spec.mu_bar - spec.sigma_bar * ndtri(rng.uniform(lo, hi, size))
    else:
        lo, hi = _ndtr((spec.alpha, spec.beta)).tolist()
        x = spec.mu_bar + spec.sigma_bar * ndtri(rng.uniform(lo, hi, size))
    # ndtri(0) = -inf can occur with probability 2^-53; clipping keeps the
    # support contract without distorting the distribution measurably
    x = np.clip(x, spec.a, spec.b)
    if size is None:
        return float(x)
    return x


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) at every entry, by the three-term recurrence
    j P_j = (2j - 1) x P_(j-1) - (j - 1) P_(j-2), with 1 - x^2 formed as
    (1 - x)(1 + x) in the derivative n (P_(n-1) - x P_n) / (1 - x^2)."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=64)
def _gl_nodes(n: int):
    """The n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence, after Hale & Townsend
    (2013), run on the ceil(n/2) nonnegative nodes at once from Tricomi's
    first-order guess and mirrored; the middle node of an odd rule is
    exactly 0.  The weights are 2 / ((1 - x^2) P_n'(x)^2) at the converged
    nodes.  The guesses take the stdlib cosine and the rest is +, * and /,
    so the rule has the same bits whichever SIMD path numpy takes.

    Against 40-digit mpmath the nodes are within 1 ulp, except next to 0,
    where the recurrence's rounding is absolute: under 5e-18, which is up
    to 3.5 ulp of the innermost nodes at n = 800 and 1600.  The weights are
    within 3e-13 relative at n = 200 and 5e-11 at n = 1600.  O(n^2) work:
    about 5 ms at n = 200 and 60 ms at n = 1600.
    """
    theta = np.pi * (4.0 * np.arange((n + 1) // 2, 0, -1) - 1.0) / (4.0 * n + 2.0)
    cos = np.fromiter(map(math.cos, theta.tolist()), dtype=float, count=len(theta))
    x = cos * (1.0 - (n - 1.0) / (8.0 * n**3))
    if n % 2:
        x[0] = 0.0
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= 1e-15:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    nodes = np.concatenate((-x[::-1], x[n % 2 :]))
    weights = np.concatenate((w[::-1], w[n % 2 :]))
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


def _gl_rows(edges, loc, scale, mass, f, n: int, outputs: int, params=None) -> np.ndarray:
    """n-node Gauss-Legendre estimates of E[f(x)], a (rows, outputs) array.

    Row i integrates f against the density of parent mean ``loc[i]``,
    standard deviation ``scale[i]`` and kept mass ``mass[i]`` over the
    standardized panels ``edges[i]``, n nodes on each; every row has the
    same panel count.  Rows go through in blocks of at most
    ``_BLOCK_NODES`` nodes (and at least one row) as node arrays of shape
    (rows, panels * n); ``f`` gets a block's nodes in that 2-D shape, then,
    when ``params`` (one row of parameters per row) is given, one (rows, 1)
    column per parameter, and must act entry by entry: it yields one array
    of that shape per output.  Each array's sum over a row's nodes is a
    stacked matmul, the same dot product as for that row alone, so a row's
    value does not depend on the rows batched with it.
    """
    nodes, weights = _gl_nodes(n)
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    block = max(1, _BLOCK_NODES // (half.shape[1] * n))
    values = np.empty((len(edges), outputs))
    for start in range(0, len(edges), block):
        b = slice(start, start + block)
        # ts = half * nodes + mid, xs = loc + scale * ts and
        # ws = half * weights * pdf / mass, in place in the same order
        ts = half[b, :, None] * nodes
        ts += mid[b, :, None]
        xs = scale[b, None, None] * ts
        xs += loc[b, None, None]
        ws = half[b, :, None] * weights
        ws *= _norm_pdf(ts)
        ws /= mass[b, None, None]
        ws = ws.reshape(len(ts), -1)
        columns = () if params is None else params[b].T[:, :, None]
        for k, fx in enumerate(f(xs.reshape(len(ts), -1), *columns)):
            values[b, k] = (ws[:, None, :] @ fx[:, :, None])[:, 0, 0]
    return values


def _integrate(groups, loc, scale, mass, f, outputs: int, what: str, params=None) -> tuple:
    """E[f(x)] of every row by ``_gl_rows``, on the one node schedule.

    ``groups`` holds (rows, edges) pairs that between them take each row of
    ``loc``, ``scale``, ``mass`` (and ``params``) once: the row indices of
    one panel count and their standardized panel edges.  Per group, n starts
    at ``_INITIAL_NODES`` and doubles; a row whose every output agrees with
    its estimate at n / 2 to ``_RTOL`` relative (``_ATOL`` absolute near
    zero) keeps its estimate, and only the unsettled rows go on to the next
    n.  Returns (values, nodes, deltas, errors): per row its accepted
    estimate of each output, its n, and the change of each output from the
    estimate before, nan on the rows still unsettled once ``_MAX_NODES`` was
    tried, whose error is NoConvergence.
    """
    values, deltas = np.full((2, len(loc), outputs), np.nan)
    nodes = np.full(len(loc), np.nan)
    errors: list = [None] * len(loc)
    failure = f"{what} did not stabilize by n={_MAX_NODES} nodes per panel"
    for rows, edges in groups:
        n, previous = _INITIAL_NODES, None
        while rows.size and n <= _MAX_NODES:
            part = None if params is None else params[rows]
            current = _gl_rows(edges, loc[rows], scale[rows], mass[rows], f, n, outputs, part)
            if previous is not None:
                delta = np.abs(current - previous)
                settled = (delta <= np.maximum(_RTOL * np.abs(current), _ATOL)).all(axis=1)
                done = rows[settled]
                values[done], nodes[done], deltas[done] = current[settled], n, delta[settled]
                rows, edges, current = rows[~settled], edges[~settled], current[~settled]
            n, previous = 2 * n, current
        for row in rows.tolist():
            errors[row] = NoConvergence(failure)
    return values, nodes, deltas, errors


def expectation_rows(columns: SpecColumns, f: Callable[..., np.ndarray], params=None) -> tuple:
    """E[f(x)] under each row of ``columns``, by one ``_integrate`` pass.

    Rows are grouped by panel count (``_panel_edges``), never padded.  ``f``
    must act entry by entry and return one array; with ``params``, a (rows,
    k) float array, row i integrates ``f(x, *params[i])`` (see ``_gl_rows``).
    Returns (values, nodes, deltas, errors) as ``_integrate`` does, with one
    value and one delta per row.
    """
    one = lambda *args: (f(*args),)  # the one output
    values, nodes, deltas, errors = _integrate(
        _panel_edges(columns).values(), columns.mu_bar, columns.sigma_bar, columns.z,
        one, 1, "expectation", params,
    )
    return values[:, 0], nodes, deltas[:, 0], errors


def expectation(spec: TruncatedGaussianSpec, f: Callable[[np.ndarray], np.ndarray]) -> float:
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


@np.errstate(divide="ignore", invalid="ignore")
def _shifted_moment_rows(columns: SpecColumns, center, order: int) -> tuple[np.ndarray, list]:
    """E[(x - center)^m] for m = 0..order of every row by quadrature, with
    one ``center`` or one per row.  Returns (moments, errors): a (rows,
    order + 1) array, nan where the estimates never settled, and per row
    NoConvergence there, or None.

    The integrand, bounded by max(|a - center|, |b - center|)^m, yields its
    powers order by order (``_powers``) of x - center, built from exact t
    with ``mu_bar - center`` as the location.  Orders 0 and 1 are the closed
    forms 1 and ``mu - center``, so the rounding noise of their quadrature
    (order 1 is near 0) never holds back the agreement test.

    A one-sided window (alpha > 0 or beta < 0) keeps its mass at the near
    edge, and a far end many sigmas away stalls the node schedule.  It is cut
    where every integrand is e^-40 below its near-edge value: the density
    falls by e^-40 at t^2 = edge^2 + 80, and |x - center|^m rises at most by
    (s_far / s_near)^m, which adds 2 * order * ln(s_far / s_near).
    """
    mu_bar, sigma_bar, _, _, alpha, beta, z, mu, _ = columns
    loc = mu_bar - center
    lo, hi = np.maximum(alpha, -_SUPPORT_SIGMAS), np.minimum(beta, _SUPPORT_SIGMAS)
    near, far = np.where(lo > 0.0, lo, hi), np.where(lo > 0.0, hi, lo)
    s_near, s_far = np.abs(loc + sigma_bar * near), np.abs(loc + sigma_bar * far)
    rise = np.log(np.maximum(s_far, s_near)) - np.log(s_near)
    cut = np.sqrt(near * near + 80.0 + 2.0 * order * rise)
    cut = np.where(((lo > 0.0) | (hi < 0.0)) & (s_near > 0.0), cut, np.inf)
    edges = np.column_stack((np.maximum(lo, -cut), np.minimum(hi, cut)))
    closed = np.column_stack((np.ones(len(mu)), mu - center))[:, : order + 1]
    if order < 2:
        return closed, [None] * len(mu)
    powers = lambda x: islice(_powers(x, order), 2, None)
    one = [(np.arange(len(mu)), edges)]  # one group: every row has one panel
    quad, _, _, errors = _integrate(one, loc, sigma_bar, z, powers, order - 1, "moment quadrature")
    closed[~live_rows(errors)] = np.nan
    return np.hstack((closed, quad)), errors


def shifted_moment_vector(spec: TruncatedGaussianSpec, center: float, order: int) -> np.ndarray:
    """E[(x - center)^m] for m = 0..order by quadrature; the one-spec case of
    ``_shifted_moment_rows``.  Raises NoConvergence when it does not settle."""
    check_integer(order, "order")
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    values, (error,) = _shifted_moment_rows(_columns([spec]), center, order)
    unwrap(error)
    return values[0]
