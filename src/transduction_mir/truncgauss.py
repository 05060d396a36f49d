"""Truncated Gaussian input distribution.

A parent Gaussian with mean ``mu_bar`` and standard deviation ``sigma_bar``
is conditioned on the interval ``[a, b]``.  This module provides the
closed-form truncated mean/variance, moment tables (orders up to 2 from
those closed forms, higher orders by a three-term recurrence), inverse-CDF
sampling through the module's own AS 241 quantile, and the one
Gauss-Legendre engine behind every integral against the density:
``_integrate`` groups the rows of many specs by panel count, each pass one
``_gl_rows`` call.  Integrals against the same density can be the outputs
of one pass; each output settles on its own, so it has the bits of a pass
that integrates it alone.  The rate integrals, s q ln q with q linear in x,
enter as lines (c, m, s) through ``_rate_rows``, which evaluates each line
and settles it by proof on the rungs of ``_LADDER`` (``_rate_proof``);
other integrands (``expectation_rows``), and outputs no rung settles, settle
where the node-doubling schedule's estimates agree.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    NoConvergence,
    OrderTooHigh,
    ValidationError,
    check_integer,
    mark_rows,
    merge_rows,
    unwrap,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)

#: Hard ceiling on moment order, for moment tables and the series order;
#: higher orders are refused outright.
MAX_MOMENT_ORDER = 64

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

# The rate integrals' certified ladder (``_rate_proof``): nodes per panel
# at which an output may settle by proof, smallest first.
_LADDER = (32, 64, 128)

# Most nodes one block of rows holds in ``_gl_rows`` (a block keeps at least
# one row).  On the capacity-surface grid 32 single-panel rows at 400 nodes
# was the fastest block measured; 256 rows was slower and held more memory.
_BLOCK_NODES = 32 * 400

# Newton steps allowed per Gauss-Legendre rule.  From Tricomi's guess every
# rule up to n = 3200 settles in at most four.
_NEWTON_STEPS = 10

# What ``_rate_proof`` assumes, each pinned by a test against mpmath:
# numpy's exp, log and log2 within _EXP_ULPS and _LOG_ULPS ulps at a normal
# result; ``_ndtr`` within _NDTR_RTOL relative at -37.5 and above; every node
# x of ``_gl_nodes(n)`` within one ulp, and on the ladder its weight within
# _WEIGHT_ERRORS[n] 2^-53 / (1 - x^2) relative.  _RHOS are the
# Bernstein-ellipse parameters rho a panel's truncation bound may take.
_EXP_ULPS = 4.0
_LOG_ULPS = 4.0
_NDTR_RTOL = 2.5e-13
_WEIGHT_ERRORS = {32: 12.0, 64: 16.0, 128: 26.0}
_RHOS = np.array([1.2, 1.6, 2.4, 3.4, 4.6, 6.5, 10.0])


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


# The rational approximations of Wichura's AS 241 (PPND16, Applied
# Statistics 37, 1988), highest power first: numerator and denominator in
# r = 0.180625 - q^2 for |q| = |p - 0.5| <= 0.425, then in r - 1.6 and r - 5
# for r = sqrt(-ln(min(p, 1 - p))) up to 5 and beyond.
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_AS241_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)

# Entries per block of ``_ndtri``, so that the block's work arrays (about
# 1 MB) stay in cache across the 28 Horner passes of the central rational.
# Blocks of 16384 to 131072 entries took the same 20 ms per 1e6 draws;
# 4096 entries, or one block of 1e6, took 1.6-1.8 times as long.  The Monte
# Carlo path (``mcsim``) streams its uniforms, landing pass and plug-in
# summands in blocks of the same size, so no work array outgrows one block.
_DRAW_BLOCK = 32768


def _horner(coefficients, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The polynomial with ``coefficients`` (highest power first) at every
    entry of r, by Horner steps in place in ``out``."""
    np.multiply(r, coefficients[0], out=out)
    for c in coefficients[1:-1]:
        out += c
        out *= r
    out += coefficients[-1]
    return out


def _as241_rational(pair, r: np.ndarray) -> np.ndarray:
    """A(r) / B(r) for a (numerator, denominator) pair of coefficients."""
    num, den = pair
    top = _horner(num, r, np.empty_like(r))
    return np.divide(top, _horner(den, r, np.empty_like(r)), out=top)


def _ndtri(p, out=None) -> np.ndarray:
    """Standard normal quantile of every entry of p in [0, 1], by AS 241.

    The central rational runs on every entry of a block; the tail entries,
    |p - 0.5| > 0.425, are gathered and overwritten by the rational in
    r = sqrt(-ln(min(p, 1 - p))) for r <= 5 or r > 5.  p = 0 and 1 give
    -inf and +inf without a warning.  Every step is an IEEE +, *, / or sqrt
    except the tail's ``np.log``, whose bits follow numpy's SIMD path.
    Against 50-digit mpmath it is within 5.3 ulp for p >= 1.4e-11 and 6.3
    ulp down to 1e-300 (the rationals themselves are within 0.8 ulp; the
    rest is rounding), and within 1.2e-15 relative of scipy's ``ndtri``.
    Written to ``out``, a contiguous float array of p's shape, which may be
    p itself; a new array when it is None.
    """
    p = np.asarray(p, dtype=float)
    x = np.empty_like(p) if out is None else out
    flat, x_flat = p.reshape(-1), x.reshape(-1)
    q, r, den = np.empty((3, min(_DRAW_BLOCK, flat.size)))
    for start in range(0, flat.size, _DRAW_BLOCK):
        pb = flat[start : start + _DRAW_BLOCK]
        xb = x_flat[start : start + _DRAW_BLOCK]
        qb, rb, db = q[: len(pb)], r[: len(pb)], den[: len(pb)]
        np.subtract(pb, 0.5, out=qb)
        tail = np.flatnonzero(np.abs(qb, out=rb) > 0.425)
        p_tail = pb[tail]  # before xb, which may be pb, is written
        # x = q * A(r) / B(r) with r = 0.180625 - q^2
        np.multiply(qb, qb, out=rb)
        np.subtract(0.180625, rb, out=rb)
        _horner(_AS241_CENTRAL[0], rb, xb)
        xb *= qb
        xb /= _horner(_AS241_CENTRAL[1], rb, db)
        if tail.size:
            xb[tail] = _ndtri_tail(p_tail, qb[tail])
    return x


def _ndtri_tail(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """AS 241's tail branches on entries with |q| = |p - 0.5| > 0.425: the
    r <= 5 rational on every entry, then the r > 5 one where it applies."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
        x = _as241_rational(_AS241_NEAR, r - 1.6)
        far = np.flatnonzero(r > 5.0)
        x[far] = _as241_rational(_AS241_FAR, r[far] - 5.0)
    # p = 0 or 1: r = inf, where the rationals are inf / inf
    x[r == np.inf] = np.inf
    return np.copysign(x, q, out=x)


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


def _fsum_rows(terms: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of every row of ``terms``, by ``math.fsum``.
    A sum fsum cannot form (inf - inf, or an intermediate overflow) is nan,
    which the callers' checks reject."""
    rows = terms.tolist()
    try:
        sums = list(map(math.fsum, rows))
    except (OverflowError, ValueError):
        sums = list(map(_fsum_or_nan, rows))
    return np.array(sums, dtype=float)


def _fsum_or_nan(values: list) -> float:
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


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
      from the first two raw moments of the truncated standard normal, with
      phi the standard normal density::

        L_1    = -(phi(beta) - phi(alpha)) / z
        L_2    = -(beta phi(beta) - alpha phi(alpha)) / z + 1
        mu     = mu_bar + sigma_bar * L_1
        sigma2 = sigma_bar^2 * (L_2 - L_1^2)

      Moment tables (``raw_moments``) take orders 0 to 2 from these and
      higher orders from the recurrence of ``_recurrence_rows``.
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
        pdf_a, pdf_b = _norm_pdf(alpha), _norm_pdf(beta)
        L1 = -(pdf_b - pdf_a) / z
        # phi is exactly 0.0 at a huge endpoint: its term is 0.0, not inf * 0
        tb = np.where(pdf_b == 0.0, 0.0, beta * pdf_b)
        ta = np.where(pdf_a == 0.0, 0.0, alpha * pdf_a)
        L2 = -(tb - ta) / z + 1.0
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

    ``raw[m] = E[x^m]`` and ``central[i] = E[(x - mu)^i]``.  The zeroth
    moments must be 1 and the first central moment 0 (to 1e-12), and no
    moment may be nan; ``_moment_rows`` builds every row to pass these.
    """

    raw: np.ndarray
    central: np.ndarray
    order: int

    def __post_init__(self):
        raw, central = self.raw, self.central
        if len(raw) != self.order + 1 or len(central) != self.order + 1:
            raise ValidationError("moment vectors must have length order + 1")
        if abs(raw[0] - 1.0) > 1e-12 or abs(central[0] - 1.0) > 1e-12:
            raise ValidationError("zeroth moments must equal 1")
        if len(central) > 1 and abs(central[1]) > 1e-12 * np.maximum(1.0, abs(raw[1])):
            raise ValidationError(f"first central moment must vanish, got {central[1]}")
        if np.isnan(raw).any() or np.isnan(central).any():
            raise ValidationError("a moment is nan")
        raw.flags.writeable = False
        central.flags.writeable = False


# The recurrence of ``_recurrence_rows`` runs each order in a direction
# where its rounding errors grow by at most e^_GROWTH against the support
# scale and, forward, by at most e^_CANCEL against the even orders
# themselves; it starts a pass that truncates (a backward pass, the
# boundary-value solve) where the truncation's error has shrunk by
# e^-_DAMPING (about 4e-18) at the orders kept, looking at most
# _MAX_START orders past the top one.
_GROWTH = math.log(8.0)
_CANCEL = math.log(1e3)
_DAMPING = 40.0
_MAX_START = 1 << 16


def _frozen_roots(shift, r2, k) -> tuple[np.ndarray, np.ndarray]:
    """The moduli of the two roots of lambda^2 + shift lambda - (k - 1) / r2
    = 0, the homogeneous recurrence of ``_recurrence_rows`` with its
    coefficients frozen at order k: (larger, smaller), one row per k."""
    root = np.sqrt(shift * shift + 4.0 * np.maximum(k - 1, 0) / r2)
    return 0.5 * (root + np.abs(shift)), 0.5 * (root - np.abs(shift))


def _damped_start(shift, r2, order: int, which: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row the first N > order with the sum over k = order+1..N of ln
    of root ``which`` of ``_frozen_roots`` at least ``_DAMPING``: an error
    left at N has shrunk by e^-_DAMPING at ``order``, through a backward
    pass (the smaller root) or a boundary-value solve (the larger).
    Returns (N, found): a row not found within ``_MAX_START`` orders has N
    = order + 1 and found False."""
    size = 64
    while True:
        k = np.arange(order + 1, order + 1 + size)[:, None]
        total = np.cumsum(np.log(_frozen_roots(shift, r2, k)[which]), axis=0)
        reached = total >= _DAMPING
        found = reached[-1]
        if found.all() or size >= _MAX_START:
            return order + 1 + reached.argmax(axis=0), found
        size *= 2


@np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore")
def _recurrence_rows(columns: SpecColumns, center, order: int) -> tuple[np.ndarray, list]:
    """E[(x - center)^k] for k = 0..order of every row, with one ``center``
    or one per row, by a three-term recurrence.  Returns (moments, errors):
    a (rows, order + 1) array and per row None, or the error of a row that
    is nan throughout: OrderTooHigh where a moment passes the float range,
    NoConvergence where a truncating pass finds no start.

    Orders 0 and 1 are the closed forms 1 and ``mu - center``.  In t = (x -
    mu_bar) / sigma_bar over [lo, hi], [alpha, beta] clipped to +-40 sigmas,
    write tau = (center - mu_bar) / sigma_bar, R = max |t - tau| and V_k =
    E[(x - center)^k] / (R sigma_bar)^k, so |V_k| <= 1.  Integration by
    parts of (t - tau)^k against the density phi gives, for k >= 1,

        V_k + s V_(k-1) - ((k - 1) / R^2) V_(k-2) = b_k,   s = tau / R,
        b_k = (phi(lo) p^(k-1) - phi(hi) q^(k-1)) / (R z),

    with p = (lo - tau) / R and q = (hi - tau) / R.  Both phi are taken
    over phi at the edge nearer t = 0 as exp(-(t - t_near)(t + t_near) / 2)
    <= 1, and b_1 as an expm1, so a tail window never underflows its
    boundary terms.  V_1 comes from the recurrence too, not from the
    rounded mu: where sigma_bar is tiny against mu that rounding would
    shift every order above.

    The direction follows the roots of lambda^2 + s lambda - (k - 1) / R^2
    (Gautschi 1967; Olver 1967).  Forward from V_0 = 1 a rounding error
    grows with the larger root, so each row runs forward while the product
    of the larger roots above 1 stays under e^_GROWTH and the cancellation
    of its even orders under e^_CANCEL; where R^2 >= order and |s| < 1 that
    is usually every order.  Backward, Miller's way from zeros at
    ``_damped_start``, an error grows with the inverse of the smaller root,
    so a row runs backward from the first order whose growth down from the
    top stays under e^_GROWTH.  The orders between (|tau| large, the center
    far from mu_bar) solve the recurrence as a boundary-value problem, by
    elimination down from the first backward order, or from V_N = 0 with N
    at ``_damped_start``, and substitution up from the last forward order:
    both steps shrink errors there, by the inverse of the larger root and
    by the smaller.  Where R^2 < 2 every order above 1 is backward, and
    that pass down to order 0 also gives the mass, so those rows (narrow
    windows among them) never divide by z, whose last digits the window's
    cancellation takes.  Each pass acts row by row, so a row has the bits
    of its one-row call.
    """
    mu_bar, sigma_bar, a, b, alpha, beta, z, mu, _ = columns
    n = len(mu)
    center = np.broadcast_to(np.asarray(center, dtype=float), (n,))
    closed = np.column_stack((np.ones(n), mu - center))[:, : order + 1]
    if order < 2:
        return closed, [None] * n
    lo, hi = np.maximum(alpha, -_SUPPORT_SIGMAS), np.minimum(beta, _SUPPORT_SIGMAS)
    tau = (center - mu_bar) / sigma_bar
    # t - tau at the edges from x - center, which keeps the digits of a
    # window narrow against its distance from mu_bar
    ends = np.stack((lo, hi))
    reach = np.where(ends == np.stack((alpha, beta)), (np.stack((a, b)) - center) / sigma_bar, ends - tau)
    radius = np.abs(reach).max(axis=0)
    r2, shift = radius * radius, tau / radius
    p_lo, p_hi = reach / radius
    # |p| - |q|, from x where neither edge is clipped
    unclipped = (lo == alpha) & (hi == beta)
    width = b - a
    spread = np.where(center <= a, -width, np.where(center >= b, width, (center - a) - (b - center)))
    spread = np.where(unclipped, spread / sigma_bar, np.abs(reach[0]) - np.abs(reach[1])) / radius
    # phi(lo) and phi(hi) over phi at the edge nearer t = 0: 1 there and
    # exp(fall) <= 1 at the other edge, and b_1 R = -+expm1(fall)
    at_lo = np.abs(lo) <= np.abs(hi)
    near = np.where(at_lo, lo, hi)
    span = np.where(unclipped, width / sigma_bar, hi - lo)
    fall = 0.5 * np.where(at_lo, -span, span) * (lo + hi)
    w_lo, w_hi = np.where(at_lo, 1.0, np.exp(fall)) / radius, np.where(at_lo, np.exp(fall), 1.0) / radius
    b_1 = np.where(at_lo, -np.expm1(fall), np.expm1(fall)) / radius
    z_near = z / _norm_pdf(near)

    # the last forward order and the first order backward can reach, of
    # every row; a row whose R or s is not finite runs forward and fails
    small_r2 = r2 < 2.0
    larger, smaller = _frozen_roots(shift, r2, np.arange(order + 2)[:, None])
    growth = np.cumsum(np.log(np.maximum(larger[2 : order + 1], 1.0)), axis=0)
    last = np.where(small_r2 | (np.abs(shift) > 1.0), 1, 1 + (growth <= _GROWTH).sum(axis=0))
    decay = np.log(np.maximum(1.0 / smaller[2:], 1.0))[::-1].cumsum(axis=0)[::-1]
    back = np.where(smaller[order + 1] >= 1.0, 2 + (decay > _GROWTH).sum(axis=0), order + 1)
    back = np.where(small_r2, 2, back)
    finite = np.isfinite(r2) & np.isfinite(shift)
    last, back = np.where(finite, last, order), np.where(finite, back, order + 1)
    # V_1 by the recurrence, not from the closed-form mu: where mu's
    # rounding is large against sigma_bar it would shift every order above
    scaled = np.empty((order + 1, n))  # V_k, one row per order
    scaled[0], scaled[1] = 1.0, b_1 / z_near - shift
    k = np.arange(order + 1)[:, None]
    lost = np.zeros(n, dtype=bool)  # rows whose truncating pass found no start

    def boundary(rows, top: int) -> np.ndarray:
        """b_1 .. b_top of ``rows``, times z / phi(t_near): b_(j+1) = w_lo
        p^j - w_hi q^j, with the powers as running products (``_powers``).
        Where the two weights are within a factor e, that difference
        cancels when |p| and |q| nearly meet (a narrow window, or one
        nearly symmetric about the center), so there it is w_lo (p^j -
        q^j) + b_1 q^j, with |p|^j - |q|^j = (|p| - |q|) (1 + rho + ... +
        rho^(j-1)), rho the smaller of |p|, |q| (the other is 1)."""
        p, q = p_lo[rows], p_hi[rows]
        lo_powers, hi_powers = np.empty((2, top, len(rows)))
        lo_powers[0], lo_powers[1:] = 1.0, p
        hi_powers[0], hi_powers[1:] = 1.0, q
        np.cumprod(lo_powers, axis=0, out=lo_powers)
        np.cumprod(hi_powers, axis=0, out=hi_powers)
        terms = w_lo[rows] * lo_powers - w_hi[rows] * hi_powers
        terms[0] = b_1[rows]
        split = np.flatnonzero(np.abs(fall[rows]) <= 1.0)
        if split.size:
            p, p_powers, q_powers = p[split], lo_powers[:, split], hi_powers[:, split]
            rho = np.minimum(np.abs(p_powers), np.abs(q_powers))
            sums = np.zeros_like(rho)
            np.cumsum(rho[:-1], axis=0, out=sums[1:])
            # p^j - q^j: the sign of p^j times |p|^j - |q|^j, except at
            # odd j when p and q differ in sign, where nothing cancels
            odd = (np.arange(top) % 2 == 1)[:, None]
            apart = spread[rows[split]] * sums * np.where(odd & (p < 0.0), -1.0, 1.0)
            apart = np.where(odd & (p * q[split] <= 0.0), p_powers - q_powers, apart)
            terms[:, split] = w_lo[rows[split]] * apart + b_1[rows[split]] * q_powers
        return terms

    ahead = np.flatnonzero(last >= 2)
    if ahead.size:
        top = int(last[ahead].max())
        rhs = boundary(ahead, top) / z_near[ahead]
        s, inv_r2 = shift[ahead], 1.0 / r2[ahead]
        coefficient = np.arange(top + 1)[:, None] * inv_r2  # (j - 1) / R^2 at j + 1
        v = np.empty((top + 1, len(ahead)))
        v[:2] = scaled[:2, ahead]
        step = np.empty(len(ahead))
        for j in range(2, top + 1):
            row = v[j]
            np.multiply(v[j - 2], coefficient[j - 1], out=row)
            np.subtract(row, np.multiply(s, v[j - 1], out=step), out=row)
            np.add(row, rhs[j - 1], out=row)
        scaled[2 : top + 1, ahead] = v[2:]
        # an even order is positive about any center; the relative error of
        # V_j grows with each step's cancellation, (sum of |terms|) / |V_j|,
        # so a row stops before the even order where their product passes
        # e^_CANCEL (a window cut off near its mass, whose moments follow
        # the smaller solution of the recurrence)
        even = v[2::2]
        terms = np.abs(v[:-2:2] * coefficient[1:top:2])
        terms += np.abs(s * v[1:-1:2]) + np.abs(rhs[1:top:2])
        ratio = terms / np.abs(even)
        ratio[~np.isfinite(ratio) | (even == 0.0)] = 1.0
        kept = (np.cumsum(np.log(ratio), axis=0) <= _CANCEL).sum(axis=0)
        last[ahead] = np.minimum(last[ahead], 2 * kept + 1)
    first = np.maximum(back, last + 1)

    behind = np.flatnonzero(first <= order)
    if behind.size:
        # each row starts from its own zeros: its boundary terms above its
        # start are 0, so the rows batched with it leave its bits alone
        s, r2_b = shift[behind], r2[behind]
        start, found = _damped_start(s, r2_b, order, 1)
        lost[behind[~found]] = True
        top = int(start.max())
        rhs = boundary(behind, top + 1)
        rhs[np.arange(top + 1)[:, None] > start] = 0.0
        gain = r2_b / np.arange(1, top + 1)[:, None]
        w = np.zeros((top + 2, len(behind)))
        for j in range(top + 1, 1, -1):
            row = w[j - 2]
            np.multiply(s, w[j - 1], out=row)
            np.add(row, w[j], out=row)
            np.subtract(row, rhs[j - 1], out=row)
            np.multiply(row, gain[j - 2], out=row)
        mass = np.where(small_r2[behind], w[0], z_near[behind])
        below = scaled[:, behind]
        scaled[:, behind] = np.where(k >= first[behind], w[: order + 1] / mass, below)

    between = np.flatnonzero(first > last + 1)
    if between.size:
        s, r2_g, low = shift[between], r2[between], last[between]
        # the boundary values: V at the first backward order where there is
        # one, else V_N = 0 at N past the top order
        ceiling = first[between].copy()
        past = ceiling > order
        if past.any():
            ceiling[past], found = _damped_start(s[past], r2_g[past], order, 0)
            lost[between[past][~found]] = True
        top = int(ceiling.max())
        known = np.zeros((top + 1, len(between)))
        known[: order + 1] = scaled[: top + 1, between]
        fixed = np.arange(top + 1)[:, None] >= ceiling
        rhs = boundary(between, top) / z_near[between]
        # V_j = u_j V_(j-1) + e_j, eliminated down from the boundary values
        u, e = np.zeros((2, top + 1, len(between)))
        e[top] = known[top]
        for j in range(top - 1, int(low.min()), -1):
            pivot = u[j + 1] + s
            np.divide(j / r2_g, pivot, out=u[j])
            np.subtract(rhs[j], e[j + 1], out=e[j])
            e[j] /= pivot
            np.copyto(u[j], 0.0, where=fixed[j])
            np.copyto(e[j], known[j], where=fixed[j])
        value = scaled[int(low.min()), between]
        for j in range(int(low.min()) + 1, min(top, order + 1)):
            value = np.where(j > low, u[j] * value + e[j], scaled[j, between])
            scaled[j, between] = value

    moments = scaled.T * (radius * sigma_bar)[:, None] ** np.arange(order + 1)
    moments[:, :2] = closed
    errors: list = [None] * n
    mark_rows(
        errors,
        lost,
        lambda i: NoConvergence(
            f"moment recurrence about {center[i]} found no stable start within {_MAX_START} orders"
        ),
    )
    bounded = np.isfinite(moments)
    worst = np.argmin(bounded, axis=1)
    overflow = ~bounded.all(axis=1)
    mark_rows(
        errors,
        overflow,
        lambda i: OrderTooHigh(f"moment E[(x - {center[i]})^{worst[i]}] passes the float range"),
    )
    moments[lost | overflow] = np.nan
    return moments, errors


@np.errstate(over="ignore", invalid="ignore")
def _moment_rows(columns: SpecColumns, order: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Raw and central moments up to ``order`` of every row, as one array pass.

    Returns (raw, central, errors): (rows, order + 1) arrays and, per row,
    the MirError ``raw_moments`` raises for it, or None.  Orders 0 to 2 are
    the closed forms, raw ``[1, mu, sigma2 + mu^2]`` and central ``[1, 0,
    sigma2]``.  Orders 3 and up come from ``_recurrence_rows``, about 0
    and about the mean as one call on 2n rows, whose OrderTooHigh comes
    before every check.
    """
    mu_bar, _, a, b, _, _, _, mu, sigma2 = columns
    n = len(mu)
    raw = np.column_stack((np.ones(n), mu, sigma2 + mu * mu))[:, : order + 1]
    central = np.column_stack((np.ones(n), np.zeros(n), sigma2))[:, : order + 1]
    errors: list = [None] * n
    if order >= 3:
        moments, moment_errors = _recurrence_rows(
            columns.take(np.tile(np.arange(n), 2)), np.concatenate((np.zeros(n), mu)), order
        )
        raw, central = np.hstack((raw, moments[:n, 3:])), np.hstack((central, moments[n:, 3:]))
        errors = merge_rows(moment_errors[:n], moment_errors[n:])

    # support bounds a^m <= E[x^m] <= b^m and, since x^(m-1) (x - a) >= 0 on
    # [a, b], a E[x^(m-1)] <= E[x^m] <= b E[x^(m-1)], with float slack
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
    # then the closed-form sigma2 = sigma_bar^2 (L_2 - L_1^2), which keeps no
    # digits where L_1^2 nearly cancels L_2 (narrow windows): the rounding
    # of the difference alone is eps (L_2 + L_1^2) / (L_2 - L_1^2) relative,
    # with L_1 = (mu - mu_bar) / sigma_bar and L_2 - L_1^2 = sigma2 / sigma_bar^2
    if order >= 2:
        cancel = np.finfo(float).eps * (1.0 + 2.0 * (mu - mu_bar) ** 2 / sigma2)
        mark_rows(
            errors,
            cancel > 1e-10,
            lambda i: ValidationError(
                f"sigma2 = {sigma2[i]} is lost to cancellation in L_2 - L_1^2 "
                f"(its rounding alone may reach {cancel[i]:.2e} relative)"
            ),
        )
    # then sigma2 against the recurrence's own order 2 about the mean, which
    # guards the backward pass (narrow windows) with a second path to
    # sigma2.  The MomentTable checks hold on every row by construction:
    # orders 0 and 1 are exact, and a row is nan only with its OrderTooHigh
    if order >= 3:
        rel = np.abs(moments[n:, 2] - sigma2) / sigma2
        mark_rows(
            errors,
            rel > 1e-10,
            lambda i: ValidationError(
                f"recurrence central[2] = {moments[n + i, 2]} disagrees with sigma2 = "
                f"{sigma2[i]} (relative {rel[i]:.2e})"
            ),
        )
    return raw, central, errors


def raw_moments(spec: TruncatedGaussianSpec, order: int) -> MomentTable:
    """Moment table up to ``order``; the one-spec case of ``_moment_rows``.

    Orders 0 to 2 are the closed forms of ``mu`` and ``sigma2``.  Higher
    orders come from the three-term recurrence of ``_recurrence_rows``,
    run about 0 (raw) and about the mean (central): recurring on (x - mu)^m
    directly avoids the cancellation of differencing large raw moments when
    sigma_bar is small.

    Raises OrderTooHigh for order > MAX_MOMENT_ORDER or where a moment
    passes the float range; ValidationError when a moment escapes its
    support bound, when at order 2 and up the rounding of the closed-form
    sigma2 may pass 1e-10 relative, or when at order 3 and up the
    recurrence's central[2] disagrees with it by more than 1e-10 relative.
    """
    check_integer(order, "order")
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    if order > MAX_MOMENT_ORDER:
        raise OrderTooHigh(f"order {order} exceeds ceiling {MAX_MOMENT_ORDER}")
    raw, central, (error,) = _moment_rows(_columns([spec]), order)
    unwrap(error)
    return MomentTable(raw=raw[0], central=central[0], order=order)


def shifted_moment_vector(spec: TruncatedGaussianSpec, center: float, order: int) -> np.ndarray:
    """E[(x - center)^m] for m = 0..order; the one-spec case of
    ``_recurrence_rows``, at any order.

    Each moment is accurate to the support scale, not relative: within
    about 1e-14 (R sigma_bar)^m, R sigma_bar the largest |x - center| on
    the window clipped to 40 parent sigmas (checked to order 64 against
    ``tests/moment_tables.json``).  An even moment far below that scale
    keeps fewer relative digits: 5e-6 relative at 6e-21 of the scale on a
    window cut off 2.8 parent sigmas above mu_bar.  Raises ValidationError
    for a negative order or a center that is not a finite number, and
    OrderTooHigh where a moment passes the float range."""
    check_integer(order, "order")
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    if not (isinstance(center, numbers.Real) and math.isfinite(center)):
        raise ValidationError(f"center must be a finite number, got {center!r}")
    values, (error,) = _recurrence_rows(_columns([spec]), center, order)
    unwrap(error)
    return values[0]


def sample(spec: TruncatedGaussianSpec, rng: np.random.Generator, size=None):
    """Inverse-CDF draw(s) from the truncated Gaussian.

    The uniform variate is mapped into the kept CDF mass and pushed through
    the standard normal quantile function.  When ``alpha > 0`` it is drawn
    on the reflected upper-tail mass instead, as for ``z``, so a far-tail
    window keeps distinct draws.  Deterministic for a given generator state;
    the caller owns the generator.  The quantile function is ``_ndtri``,
    Wichura's AS 241 on numpy, within about 6 ulp of the exact quantile;
    its tail branch takes ``np.log``, so a seeded draw keeps its bits on
    one numpy SIMD path, as the quadrature does.
    """
    reflect = spec.alpha > 0.0
    ends = (-spec.beta, -spec.alpha) if reflect else (spec.alpha, spec.beta)
    lo, hi = _ndtr(ends).tolist()
    # mu_bar -+ sigma_bar * quantile, in place over the uniform draws
    x = np.asarray(rng.uniform(lo, hi, size), dtype=float)
    _ndtri(x, out=x)
    x *= -spec.sigma_bar if reflect else spec.sigma_bar
    x += spec.mu_bar
    # _ndtri(0) = -inf can occur with probability 2^-53; clipping keeps the
    # support contract without distorting the distribution measurably
    np.clip(x, spec.a, spec.b, out=x)
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


def _gl_rows(edges, loc, scale, mass, f, n: int, outputs: int, rounding: bool = False):
    """n-node Gauss-Legendre estimates of E[f(x)], a (rows, outputs) array.

    Row i integrates f against the density of parent mean ``loc[i]``,
    standard deviation ``scale[i]`` and kept mass ``mass[i]`` over the
    standardized panels ``edges[i]``, n nodes on each; every row has the
    same panel count.  Rows go through in blocks of at most
    ``_BLOCK_NODES`` nodes (and at least one row) as node arrays of shape
    (rows, panels * n); ``f`` gets a block's nodes in that 2-D shape, must
    act entry by entry, and yields one array of that shape per output.
    The weighted terms are summed by ``np.add.reduce`` over each panel's
    nodes, then over the panels: the pairwise sums of that row alone, so a
    row's value depends neither on its batch nor on a BLAS kernel, and
    their rounding is within gamma_(n + panels) of the sum of |term| (at 19
    panels of 32 nodes a twelfth of gamma over the row's 608 nodes).

    With ``rounding`` (n on ``_LADDER``) it returns (values, spread,
    masses), the sums ``_rate_proof``'s bound takes: per output the sum of
    |term| times the term's allowance for that rounding and for its own,
    of t, of the density (growing with t^2), of the weight
    (``_WEIGHT_ERRORS``), of numpy's exp and log and of the products; and
    per panel the sum of its weights times the density.
    """
    nodes, weights = _gl_nodes(n)
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    block = max(1, _BLOCK_NODES // (half.shape[1] * n))
    values = np.empty((len(edges), outputs))
    if rounding:
        u = 2.0**-53
        spread, masses = np.empty((len(edges), outputs)), np.empty(half.shape)
        count = half.shape[1] + n  # gamma_count, then every term's own roundings
        own = 7.0 + 2.0 * _EXP_ULPS + 2.0 * _LOG_ULPS + _WEIGHT_ERRORS[n] / ((1.0 - nodes) * (1.0 + nodes))
        base = count * u / (1.0 - count * u) + u * own
        widths = 1.5 * u * np.square(half)
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
        if rounding:
            # each term's allowance, u (3 t^2 + 1.5 half^2) + base, times ws
            allowance = ((3.0 * u * np.square(ts) + widths[b, :, None] + base) * ws).reshape(len(ts), -1)
            masses[b] = np.add.reduce(ws, axis=2)
        for k, fx in enumerate(f(xs.reshape(len(ts), -1))):
            terms = ws * fx.reshape(ws.shape)
            values[b, k] = np.add.reduce(np.add.reduce(terms, axis=2), axis=1)
            if rounding:
                spread[b, k] = np.add.reduce(np.abs(fx) * allowance, axis=1)
    return (values, spread, masses) if rounding else values


@np.errstate(all="ignore")
def _rate_proof(edges, loc, scale, mass, lines) -> tuple:
    """The closed-form part of the rate integrals' certificate, for rows of
    one panel count: (fixed, drift, reach), each (rungs, rows, outputs) but
    drift (rows, outputs, panels); nan or inf where no bound is found.

    Output k is E[s q ln q], q = c + m x, for row (c, m, s) of ``lines``
    (x ln x is (0, 1, 1), p log2 p of a diagonal entry (c, m, 1 / ln 2)).
    I is the exact integral over each panel [mid - half, mid + half] in t,
    x = loc + scale t, on the rounded half, mid, loc, scale and mass.  The
    n-node estimate c_n of ``_gl_rows`` with ``rounding`` is within
    fixed[r] + 1.01 (spread + sum over panels of drift * masses) of I at n
    = ``_LADDER[r]``:

    * fixed is 1.01 times the sum over panels of Trefethen's bound 64 M /
      (15 (rho^2 - 1) rho^(2n - 2)) on the exact n-node rule, for M >= |.|
      in the Bernstein ellipse E_rho (SIAM Review 2008; ATAP Thm 19.3,
      whose rule has n + 1 nodes), at the best rho of ``_RHOS`` whose
      ellipse keeps Re q > 0, clear of the branch point x = -c / m.  There
      |q ln q| <= |q| (|ln |q|| + pi / 2) and |phi(t)| <= exp(((half
      b_rho)^2 - d^2) / 2) / sqrt(2 pi), d the distance of the ellipse's
      real extent in t from 0.  Plus 2^-900 (1 + G) / mass for underflow,
      G the largest |s q ln q| on the row's window.
    * drift is s dq max |ln q + 1| on the panel, dq bounding the rounding
      of q at a node; spread bounds every other rounding (``_gl_rows``).

    reach is False where a rung cannot settle: a settled |c_n| is at most
    2 (G + _ATOL), as |I| <= 1.5 G (the panels' mass over z is under 1.5
    for z >= MIN_TRUNCATION_MASS within _NDTR_RTOL), so a fixed part above
    max(2 _RTOL (G + _ATOL), _ATOL) never settles.
    """
    u = 2.0**-53
    half, mid = 0.5 * (edges[:, 1:] - edges[:, :-1]), 0.5 * (edges[:, 1:] + edges[:, :-1])
    top = (np.abs(mid) + half) * (1.0 + 4.0 * u)
    loc, scale, mass = loc[:, None], scale[:, None], mass[:, None]
    # each panel's x window, then its q window per output (an axis before
    # the panels', so that a sum over panels is one contiguous reduction
    # at any output count), widened by 2 dq for the rounding of q and q_mid
    center, width = (loc + scale * mid)[:, None], (scale * half)[:, None]
    extent = (np.abs(loc) + scale * top)[:, None]
    c, m, s = np.asarray(lines, dtype=float).T[..., None]
    q_mid = c + m * center
    q_half = np.abs(m) * width
    dq = 9.0 * u * (np.abs(c) + np.abs(m) * extent)
    q_lo, q_hi = q_mid - q_half - 2.0 * dq, q_mid + q_half + 2.0 * dq
    inside = q_lo > 0.0
    log_lo, log_hi = np.log(np.where(inside, q_lo, 1.0)), np.log(q_hi)
    drift = np.where(inside, s * dq * np.maximum(np.abs(log_lo + 1.0), np.abs(log_hi + 1.0)), np.inf)
    # the largest |q ln q| on [q_lo, q_hi]: at an end, or at q = 1/e
    q_e = np.clip(math.exp(-1.0), q_lo, q_hi)
    peak = np.maximum(np.maximum(np.abs(q_lo * log_lo), np.abs(q_hi * log_hi)), np.abs(q_e * np.log(q_e)))
    largest = np.where(inside, s * peak, np.inf).max(axis=2)

    rho = _RHOS[:, None, None]
    a_rho, b_rho = 0.5 * (rho + 1.0 / rho) * (1.0 + 4.0 * u), 0.5 * (rho - 1.0 / rho) * (1.0 + 4.0 * u)
    # ln of 64 / (15 (rho^2 - 1)) max |half phi(t) / mass| on E_rho, plus
    # ln M of s q ln q there: nan, which ``np.fmin`` passes over, where the
    # ellipse reaches q <= 0 (no log is taken there: it is five times slower)
    d = np.maximum(np.abs(mid) - half * a_rho, 0.0)
    level = np.log(64.0 / (15.0 * (rho * rho - 1.0)) * half / (_SQRT_2PI * mass))
    level += 0.5 * (np.square(half * b_rho) - np.square(d))
    q_min = q_half * a_rho[..., None]
    q_min += 2.0 * dq
    q_max = q_min + np.abs(q_mid)
    np.subtract(q_mid, q_min, out=q_min)
    far = q_min <= 0.0
    q_min[far] = 1.0
    # M = s q_max (max(|ln q_min|, ln q_max) + pi / 2), in place
    level_g = np.abs(np.log(q_min, out=q_min), out=q_min)
    np.maximum(level_g, np.log(q_max), out=level_g)
    level_g += 0.5 * math.pi
    level_g *= q_max
    level_g *= s
    level_g = np.log(level_g, out=level_g)
    level_g += level[:, :, None]
    level_g[far] = np.nan

    ln_rho = np.log(rho)[..., None]
    bounds = [np.exp(np.fmin.reduce(level_g - (2 * n - 2) * ln_rho)).sum(axis=2) for n in _LADDER]
    fixed = 1.01 * np.stack(bounds) + 2.0**-900 * (1.0 + largest) / mass
    reach = fixed <= np.maximum(2.0 * _RTOL * (largest + _ATOL), _ATOL)
    return fixed, drift, reach


def _integrate(columns: SpecColumns, f, outputs: int, lines=None) -> tuple:
    """E[f(x)] under every row of ``columns`` by ``_gl_rows``, the rows
    grouped by panel count (``_panel_edges``); ``f`` acts entry by entry
    and yields ``outputs`` arrays.  Acceptance is per output, and a row is
    computed while any of its outputs is unsettled; as a row's estimates do
    not depend on the rows or outputs computed with it, each output has the
    bits of a pass that integrates it alone.

    ``lines``, one (c, m, s) per output from ``_rate_rows``, says output k
    is s q ln q with q = c + m x (``_rate_proof``).  Then an output settles
    at the first n of ``_LADDER`` whose proved bound on |c_n - I| is within
    ``_RTOL`` of |c_n| (``_ATOL`` near zero), keeping c_n and the bound; a
    row skips a rung that cannot settle it.  The other outputs take the
    schedule: n starts at ``_INITIAL_NODES`` and doubles, and an output
    settles at the first n where its estimate agrees with the one at n / 2
    to the same tolerance, keeping that estimate, n and change.

    Returns (values, nodes, deltas, errors): (rows, outputs) arrays of each
    output's accepted estimate, its n and its change or bound, nan where
    the output was still unsettled once ``_MAX_NODES`` was tried; and per
    output one error list, NoConvergence on those rows and None on the
    others.
    """
    loc, scale, mass = columns.mu_bar, columns.sigma_bar, columns.z
    values, nodes, deltas = np.full((3, len(loc), outputs), np.nan)

    def settle(rows, unsettled, current, delta, n):
        """Record the outputs of ``rows`` in ``unsettled`` whose change or
        bound ``delta`` is within tolerance at n; returns those left."""
        settled = unsettled & (delta <= np.maximum(_RTOL * np.abs(current), _ATOL))
        row, output = np.nonzero(settled)
        done = rows[row], output
        values[done], nodes[done], deltas[done] = current[settled], n, delta[settled]
        return unsettled & ~settled

    for rows, edges in _panel_edges(columns).values():
        unsettled = np.ones((len(rows), outputs), dtype=bool)
        if lines is not None:
            fixed, drift, reach = _rate_proof(edges, loc[rows], scale[rows], mass[rows], lines)
            for r, n in enumerate(_LADDER):
                run = np.flatnonzero((unsettled & reach[r]).any(axis=1))
                if run.size:
                    picked = rows[run]
                    current, spread, masses = _gl_rows(
                        edges[run], loc[picked], scale[picked], mass[picked], f, n, outputs, True
                    )
                    bound = fixed[r, run] + 1.01 * (spread + (drift[run] * masses[:, None]).sum(axis=2))
                    unsettled[run] = settle(picked, unsettled[run], current, bound, n)
        live = unsettled.any(axis=1)
        rows, edges, unsettled = rows[live], edges[live], unsettled[live]
        n, previous = _INITIAL_NODES, None
        while rows.size and n <= _MAX_NODES:
            current = _gl_rows(edges, loc[rows], scale[rows], mass[rows], f, n, outputs)
            if previous is not None:
                unsettled = settle(rows, unsettled, current, np.abs(current - previous), n)
                live = unsettled.any(axis=1)
                rows, edges, unsettled, current = rows[live], edges[live], unsettled[live], current[live]
            n, previous = 2 * n, current
    failure = f"expectation did not stabilize by n={_MAX_NODES} nodes per panel"
    errors = []
    for column in np.isnan(nodes).T:
        errors.append([None] * len(loc))
        mark_rows(errors[-1], column, lambda i: NoConvergence(failure))
    return values, nodes, deltas, errors


def _xlogx(x: np.ndarray, log) -> np.ndarray:
    """x * log(x) of every entry, 0 where x is not positive (0 log 0 = 0).

    Formed in place in the array of log(x); x is not changed.  A 0-d x
    gives a 0-d array.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = log(x)
        positive = x > 0.0
        if np.ndim(out) == 0:
            return np.where(positive, x * out, 0.0)
        out *= x
    if not positive.all():
        out[~positive] = 0.0
    return out


# The line (c, m, s) of x ln x, and the log that evaluates s q ln q at each
# scale s a line of ``_rate_rows`` may have: q log2 q is q ln q / ln 2.
_XLNX_LINE = (0.0, 1.0, 1.0)
_LOGS = {1.0: np.log, 1.0 / math.log(2.0): np.log2}


def _rate_rows(columns: SpecColumns, lines) -> tuple:
    """E[s q ln q], q = c + m x, for each line (c, m, s) of ``lines`` under
    every row of ``columns``: the ``_integrate`` result of one pass whose
    output k is line k, on the certified ladder.

    The lines are the one description of these integrals: the integrand
    evaluates each line, and ``_rate_proof`` bounds the same lines.  s is 1
    (``np.log``) or 1 / ln 2 (``np.log2``), and q is x itself on the line
    (0, 1), so x ln x has the bits of ``_xlogx(x, np.log)``.
    """
    lines = np.array(lines, dtype=float)
    evaluated = [(c, m, _LOGS[s]) for c, m, s in lines.tolist()]

    def integrands(x):
        for c, m, log in evaluated:
            yield _xlogx(x if (c, m) == (0.0, 1.0) else c + m * x, log)

    return _integrate(columns, integrands, len(lines), lines)


def expectation_rows(columns: SpecColumns, f: Callable[[np.ndarray], np.ndarray]) -> tuple:
    """E[f(x)] under each row of ``columns``; the one-output case of
    ``_integrate``, for an ``f`` that acts entry by entry and returns one
    array.  Returns (values, nodes, deltas, errors): per row the accepted
    estimate, its n, its change from the estimate before, and its
    NoConvergence or None.
    """
    values, nodes, deltas, (errors,) = _integrate(columns, lambda x: (f(x),), 1)
    return values[:, 0], nodes[:, 0], deltas[:, 0], errors


def expectation(spec: TruncatedGaussianSpec, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """E[f(x)] by Gauss-Legendre quadrature with node-doubling refinement.

    ``f`` must accept an ndarray of evaluation points.  The node count per
    panel doubles from 200 until two successive estimates agree to 1e-12
    relative (or 1e-14 absolute near zero); integration is restricted to the
    part of [a, b] within 40 parent sigmas of mu_bar, outside which the
    density underflows to zero.  The one-spec case of ``expectation_rows``.
    This generic path always runs the schedule; the rate integrals of
    ``mir`` settle at 32, 64 or 128 nodes per panel where a proved error
    bound is within that tolerance (``_rate_rows``).

    Raises NoConvergence if the estimates have not stabilized by 1600 nodes.
    """
    values, _, _, (error,) = expectation_rows(_columns([spec]), f)
    unwrap(error)
    return float(values[0])
