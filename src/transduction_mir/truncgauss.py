"""Truncated Gaussian input distribution.

A parent Gaussian with mean ``mu_bar`` and standard deviation ``sigma_bar``
is conditioned on the interval ``[a, b]``.  This module provides the
closed-form truncated mean/variance, raw and recentred moments through the
two-term recursion for the moments of the truncated standard normal,
inverse-CDF sampling, and a node-doubling Gauss-Legendre expectation engine,
on one fixed node schedule, used throughout the package for integrals
against the density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri, roots_legendre

from .errors import NoConvergence, OrderTooHigh, ValidationError

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Hard ceiling on moment order; the recursion grows factorially and loses
#: accuracy well before overflow, so higher orders are refused outright.
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


def _norm_pdf(t):
    return np.exp(-0.5 * np.square(t)) / _SQRT_2PI


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
    mu, sigma2 : mean and variance of the truncated variable, in closed form::

        mu     = mu_bar - sigma_bar * (phi(beta) - phi(alpha)) / z
        sigma2 = sigma_bar^2 * (1 - (beta phi(beta) - alpha phi(alpha))/z
                                  - ((phi(beta) - phi(alpha))/z)^2)

      with phi the standard normal pdf.
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
    _pdf_alpha: float = field(init=False, repr=False)
    _pdf_beta: float = field(init=False, repr=False)
    _l1: float = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("mu_bar", "sigma_bar", "a", "b"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        if self.sigma_bar <= 0.0:
            raise ValidationError(f"sigma_bar must be positive, got {self.sigma_bar}")
        if not 0.0 <= self.a < self.b:
            raise ValidationError(
                f"truncation must satisfy 0 <= a < b, got [{self.a}, {self.b}]"
            )

        alpha = (self.a - self.mu_bar) / self.sigma_bar
        beta = (self.b - self.mu_bar) / self.sigma_bar
        if alpha > 0.0:
            z = float(ndtr(-alpha) - ndtr(-beta))
        else:
            z = float(ndtr(beta) - ndtr(alpha))
        if z <= MIN_TRUNCATION_MASS:
            raise ValidationError(
                f"truncation [{self.a}, {self.b}] keeps only {z:.3e} of the parent "
                f"mass (minimum {MIN_TRUNCATION_MASS:.0e})"
            )
        pdf_a = float(_norm_pdf(alpha))
        pdf_b = float(_norm_pdf(beta))
        l1 = -(pdf_b - pdf_a) / z
        mu = self.mu_bar + self.sigma_bar * l1
        # guard 0*inf: a huge standardized endpoint always has pdf exactly 0.0
        tb = 0.0 if pdf_b == 0.0 else beta * pdf_b
        ta = 0.0 if pdf_a == 0.0 else alpha * pdf_a
        sigma2 = self.sigma_bar**2 * (1.0 - (tb - ta) / z - l1 * l1)

        span = self.b - self.a
        if not (self.a - 1e-9 * span <= mu <= self.b + 1e-9 * span):
            raise ValidationError(f"truncated mean {mu} escaped [{self.a}, {self.b}]")
        if not (0.0 < sigma2 <= self.sigma_bar**2 * (1.0 + 1e-12)):
            raise ValidationError(
                f"truncated variance {sigma2} outside (0, sigma_bar^2]"
            )

        for name, value in (
            ("alpha", alpha),
            ("beta", beta),
            ("z", z),
            ("mu", mu),
            ("sigma2", sigma2),
            ("_pdf_alpha", pdf_a),
            ("_pdf_beta", pdf_b),
            ("_l1", l1),
        ):
            object.__setattr__(self, name, float(value))


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
        if abs(self.raw[0] - 1.0) > 1e-12 or abs(self.central[0] - 1.0) > 1e-12:
            raise ValidationError("zeroth moments must equal 1")
        if self.order >= 1 and abs(self.central[1]) > 1e-12:
            raise ValidationError(f"first central moment must vanish, got {self.central[1]}")
        self.raw.flags.writeable = False
        self.central.flags.writeable = False


def _l_coefficients(spec: TruncatedGaussianSpec, order: int) -> np.ndarray:
    """Raw moments L_i of the truncated standard normal on [alpha, beta].

    L_0 = 1
    L_1 = -(phi(beta) - phi(alpha)) / z
    L_i = -(beta^(i-1) phi(beta) - alpha^(i-1) phi(alpha)) / z + (i-1) L_{i-2}
    """
    L = np.empty(order + 1)
    L[0] = 1.0
    if order >= 1:
        L[1] = spec._l1
    for i in range(2, order + 1):
        tb = 0.0 if spec._pdf_beta == 0.0 else spec.beta ** (i - 1) * spec._pdf_beta
        ta = 0.0 if spec._pdf_alpha == 0.0 else spec.alpha ** (i - 1) * spec._pdf_alpha
        L[i] = -(tb - ta) / spec.z + (i - 1) * L[i - 2]
    return L


def _moments_about(spec, center: float, order: int, L: np.ndarray) -> np.ndarray:
    """E[(x - center)^m] for m = 0..order via the binomial expansion in L_i.

    x - center = (mu_bar - center) + sigma_bar * t, so the m-th moment is
    sum_i C(m, i) sigma_bar^i (mu_bar - center)^(m-i) L_i.  Summed with
    compensated summation; the terms stay O(|x - center|^m) when the center
    is near the mass, which keeps small-sigma cases exact.
    """
    d = spec.mu_bar - center
    out = np.empty(order + 1)
    for m in range(order + 1):
        out[m] = math.fsum(
            math.comb(m, i) * spec.sigma_bar**i * d ** (m - i) * L[i]
            for i in range(m + 1)
        )
    return out


def raw_moments(spec: TruncatedGaussianSpec, order: int) -> MomentTable:
    """Moment table up to ``order`` via the L-recursion.

    Central moments are expanded about the truncated mean using the same
    recursion coefficients, which avoids the catastrophic cancellation of
    differencing large raw moments when sigma_bar is small.

    Raises OrderTooHigh for order > MAX_MOMENT_ORDER.
    """
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    if order > MAX_MOMENT_ORDER:
        raise OrderTooHigh(f"order {order} exceeds ceiling {MAX_MOMENT_ORDER}")

    L = _l_coefficients(spec, order)
    raw = _moments_about(spec, 0.0, order, L)
    central = _moments_about(spec, spec.mu, order, L)

    # support bounds a^m <= E[x^m] <= b^m and, since x^(m-1) (x - a) >= 0 on
    # [a, b], a E[x^(m-1)] <= E[x^m] <= b E[x^(m-1)], with float slack; the
    # forward recursion is unstable on narrow windows and breaks the ratio
    # form long before the power form
    values = raw.tolist()
    for m, value in enumerate(values):
        lo, hi = spec.a**m, spec.b**m
        slack = 1e-9 * max(1.0, hi)
        if m > 0:
            lo, hi = max(lo, spec.a * values[m - 1]), min(hi, spec.b * values[m - 1])
        if not (lo - slack <= value <= hi + slack):
            raise ValidationError(
                f"raw moment E[x^{m}] = {value} escaped support bound [{lo}, {hi}]"
            )
    if order >= 2:
        rel = abs(central[2] - spec.sigma2) / spec.sigma2
        if rel > 1e-10:
            raise ValidationError(
                f"central[2] = {central[2]} disagrees with sigma2 = {spec.sigma2} "
                f"(relative {rel:.2e})"
            )

    return MomentTable(raw=raw, central=central, order=order)


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


def _integration_bounds(spec: TruncatedGaussianSpec) -> tuple[float, float]:
    """Standardized integration window: [alpha, beta] clipped to +-40 sigmas.

    Integration runs in the standardized variable t = (x - mu_bar)/sigma_bar:
    forming t from exact Gauss-Legendre nodes avoids the cancellation of
    x - mu_bar when sigma_bar is tiny relative to the interval.
    """
    lo = max(spec.alpha, -_SUPPORT_SIGMAS)
    hi = min(spec.beta, _SUPPORT_SIGMAS)
    return lo, hi


def _panel_edges(spec: TruncatedGaussianSpec, lo: float, hi: float) -> tuple[float, ...]:
    """Quadrature panels, dyadically graded toward a near-zero lower edge.

    The integrands of interest (x ln x, p log p with p linear in x) are
    smooth except for unbounded derivatives as x -> 0.  When the window's
    lower x-edge sits close to zero relative to its span, plain
    Gauss-Legendre converges only algebraically; panels whose widths shrink
    geometrically toward that edge keep the singularity at least one panel
    width away from every panel but the innermost, whose contribution is
    negligible.  Away from that regime a single panel is used.
    """
    x_lo = spec.mu_bar + spec.sigma_bar * lo
    x_hi = spec.mu_bar + spec.sigma_bar * hi
    span = x_hi - x_lo
    if span <= 0.0 or x_lo > 1e-2 * span:
        return (lo, hi)
    levels = min(40, max(1, math.ceil(math.log2(span / max(x_lo, span * 2.0**-40)))))
    edges = [lo]
    for j in range(levels, 0, -1):
        x_edge = x_lo + span * 2.0**-j
        edges.append((x_edge - spec.mu_bar) / spec.sigma_bar)
    edges.append(hi)
    return tuple(edges)


def _gl_estimate(spec, f, n, edges):
    nodes, weights = _gl_nodes(n)
    xs_parts = []
    w_parts = []
    for t0, t1 in zip(edges, edges[1:]):
        half = 0.5 * (t1 - t0)
        ts = half * nodes + 0.5 * (t1 + t0)
        xs_parts.append(spec.mu_bar + spec.sigma_bar * ts)
        w_parts.append(half * weights * _norm_pdf(ts))
    xs = np.concatenate(xs_parts)
    ws = np.concatenate(w_parts) / spec.z
    return float(ws @ np.asarray(f(xs), dtype=float))


def _agree(current, previous) -> bool:
    """Two successive estimates (floats, or arrays entry by entry) agree to
    ``_RTOL`` relative, or ``_ATOL`` absolute near zero."""
    if isinstance(current, float):
        return abs(current - previous) <= max(_RTOL * abs(current), _ATOL)
    return all(map(_agree, current.tolist(), previous.tolist()))


def _refine(estimate: Callable[[int], float | np.ndarray], what: str):
    """Run ``estimate(n)`` on the fixed node schedule until it settles.

    n starts at ``_INITIAL_NODES`` and doubles; the first estimate that agrees
    with its predecessor is returned.  Raises NoConvergence once
    ``_MAX_NODES`` has been tried without agreement.
    """
    n = _INITIAL_NODES
    previous = estimate(n)
    while n < _MAX_NODES:
        n *= 2
        current = estimate(n)
        if _agree(current, previous):
            return current
        previous = current
    raise NoConvergence(f"{what} did not stabilize by n={_MAX_NODES} nodes per panel")


def expectation(
    spec: TruncatedGaussianSpec, f: Callable[[np.ndarray], np.ndarray]
) -> float:
    """E[f(x)] by Gauss-Legendre quadrature with node-doubling refinement.

    ``f`` must accept an ndarray of evaluation points.  The node count per
    panel doubles from 200 until two successive estimates agree to 1e-12
    relative (or 1e-14 absolute near zero); integration is restricted to the
    part of [a, b] within 40 parent sigmas of mu_bar, outside which the
    density underflows to zero.

    Raises NoConvergence if the estimates have not stabilized by 1600 nodes.
    """
    lo, hi = _integration_bounds(spec)
    edges = _panel_edges(spec, lo, hi)
    return _refine(lambda n: _gl_estimate(spec, f, n, edges), "expectation")


def shifted_moment_vector(
    spec: TruncatedGaussianSpec, center: float, order: int
) -> np.ndarray:
    """E[(x - center)^m] for m = 0..order by quadrature, all orders at once.

    Stable for any truncation: the integrand is bounded by max(|a - center|,
    |b - center|)^m, so no cancellation occurs.  Used as the production path
    for the series evaluation, for which the recursion loses too many digits
    beyond order ~25.  Refined on the same node schedule as ``expectation``,
    every order to the same tolerance.
    """
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    lo, hi = _integration_bounds(spec)

    def moment_block(n: int) -> np.ndarray:
        nodes, weights = _gl_nodes(n)
        half = 0.5 * (hi - lo)
        ts = half * nodes + 0.5 * (hi + lo)
        dens_t = _norm_pdf(ts) / spec.z
        # (x - center) built from exact t keeps full relative precision
        shifted = (spec.mu_bar - center) + spec.sigma_bar * ts
        powers = np.vander(shifted, order + 1, increasing=True)  # (n, order+1)
        return half * (powers.T @ (weights * dens_t))

    return _refine(moment_block, "moment quadrature")
