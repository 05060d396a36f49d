"""Reference implementations used only by the tests.

The typed matrix pipeline (RateMatrix -> TransitionMatrix -> SteadyState)
builds the generator, the first-order step and the stationary vector as
validated wrapper objects; the package computes the same quantities on plain
arrays, and the tests pin the two against each other.  The remaining helpers
(density, scaling closure, 50-digit moments about a center, the direct
Monte Carlo gap, occupancy and bigram counts, the Taylor limit of h_s, the
per-step simulation loop) are oracles for the acceptance criteria and the
unit tests.  The one-array stationary solve, the one-spec Gauss-Legendre
estimate, the float-by-float spec fields, panel edges, gain and gap bounds,
and the entry-by-entry discrete rate are the scalar forms the batched kernels
must match bit for bit.  They use the package's arithmetic one float at a
time: powers are running products (``power``), logs come from ``np.log``,
sums of terms from ``math.fsum``, and a panel level from ``math.frexp``.
The all-pairs discrete rate integrates every x-dependent entry, off-diagonal
ones too, as an independent check of the kernel's gain * gap identity.  The
row-by-row sandwich audit is the reference for the sweep's column audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from transduction_mir import (
    DomainError,
    McEstimate,
    NotIrreducible,
    OrderTooHigh,
    ReceptorSpec,
    StepTooLarge,
    Trajectory,
    TruncatedGaussianSpec,
    ValidationError,
    sample,
    shifted_moment_vector,
    stationary_distribution,
)
from transduction_mir.errors import unwrap
from transduction_mir.mir import _plogp_vec, _xlnx_vec, plogp
from transduction_mir.receptor import LN2, _solve_stationary, _strongly_connected, step_kernel
from transduction_mir.truncgauss import (
    MAX_MOMENT_ORDER,
    MIN_TRUNCATION_MASS,
    _SUPPORT_SIGMAS,
    expectation,
    _gl_nodes,
    _norm_pdf,
)


@dataclass(frozen=True)
class RateMatrix:
    """CTMC generator: nonnegative off-diagonals, rows summing to zero."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (self.dim, self.dim):
            raise ValidationError(f"entries must be {self.dim}x{self.dim}, got {m.shape}")
        off = m - np.diag(np.diag(m))
        if off.min() < 0.0:
            raise ValidationError("off-diagonal rates must be nonnegative")
        scale = max(1.0, float(np.abs(np.diag(m)).max()))
        if np.abs(m.sum(axis=1)).max() > 1e-12 * scale:
            raise ValidationError("rows of a generator must sum to zero")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True)
class TransitionMatrix:
    """One-step transition probabilities P = I + Q*dt."""

    dim: int
    entries: np.ndarray
    delta_t: float

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (self.dim, self.dim):
            raise ValidationError(f"entries must be {self.dim}x{self.dim}, got {m.shape}")
        if m.min() < -1e-15 or m.max() > 1.0 + 1e-15:
            raise ValidationError("transition probabilities must lie in [0, 1]")
        if np.abs(m.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValidationError("rows of a transition matrix must sum to one")
        if self.delta_t < 0.0:
            raise ValidationError(f"delta_t must be nonnegative, got {self.delta_t}")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True)
class SteadyState:
    """Stationary distribution of a transition matrix."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 1:
            raise ValidationError("probabilities must be a vector")
        if p.min() < -1e-12:
            raise ValidationError("stationary probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValidationError("stationary probabilities must sum to one")
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)


def build_rate_matrix(spec: ReceptorSpec, x: float) -> RateMatrix:
    """Generator Q(x) = base + x * slope: sensitive entries scale with x."""
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x >= 0.0):
        raise ValidationError(f"intensity must be a nonnegative finite number, got {x!r}")
    return RateMatrix(dim=spec.n_states, entries=spec.base + x * spec.slope)


def transition_matrix(q: RateMatrix, delta_t: float) -> TransitionMatrix:
    """First-order step P = I + Q*dt; StepTooLarge if an entry leaves [0, 1]."""
    if not (isinstance(delta_t, (int, float)) and math.isfinite(delta_t) and delta_t >= 0.0):
        raise ValidationError(f"delta_t must be nonnegative and finite, got {delta_t!r}")
    p = np.eye(q.dim) + delta_t * q.entries
    if p.min() < 0.0 or p.max() > 1.0:
        worst = float(p.min()) if -p.min() > p.max() - 1.0 else float(p.max())
        raise StepTooLarge(
            f"delta_t = {delta_t} makes an entry of I + Q*dt equal {worst}; "
            f"shrink the step below 1/max|q_ii| = {1.0 / np.abs(np.diag(q.entries)).max():.3e}"
        )
    return TransitionMatrix(dim=q.dim, entries=p, delta_t=delta_t)


def steady_state(chain: RateMatrix | TransitionMatrix) -> SteadyState:
    """Unique pi with pi @ Q = 0 and sum(pi) = 1; NotIrreducible otherwise.

    A RateMatrix is solved as it is; a TransitionMatrix P from its generator
    P - I, which has the same stationary vector as P.
    """
    q = chain.entries
    if isinstance(chain, TransitionMatrix):
        q = q - np.eye(chain.dim)
    pi, (error,) = _solve_stationary(q[None], [None])
    unwrap(error)
    return SteadyState(probabilities=pi[0])


def solve_stationary_one(q: np.ndarray) -> np.ndarray:
    """The stationary solve of one generator, one call per array.

    The augmented system with the last balance equation replaced by the
    normalization, then clip, renormalise and the 1e-10 check on the
    residual |pi @ q| / (2 max|q_ii|); the package solves a whole stack of
    generators in one call and must give each the bits of this form.
    """
    k = q.shape[0]
    if not _strongly_connected(q > 0.0):
        raise NotIrreducible("the positive-rate transition graph is not strongly connected")
    system = q.T.copy()
    system[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = float(np.abs(pi @ q).max()) / (2.0 * float(np.abs(np.diag(q)).max()))
    if residual > 1e-10:
        raise NotIrreducible(f"stationary residual {residual:.2e} exceeds 1e-10")
    return pi


def mean_chain_stationary(spec: ReceptorSpec, mean_x: float) -> np.ndarray:
    """``solve_stationary_one`` on the mean chain's generator at mean_x."""
    return solve_stationary_one(spec.base + mean_x * spec.slope)


def power(x: float, k: int) -> float:
    """x^k as the running product ((1 * x) * x) ... * x, inf past the float range."""
    value = 1.0
    for _ in range(k):
        value *= x
    return value


def ndtr(t: float) -> float:
    """Standard normal CDF of one float, by the package's formula."""
    return 0.5 * math.erfc(-t * math.sqrt(0.5))


def scalar_spec_fields(mu_bar, sigma_bar, a, b) -> tuple[float, ...]:
    """(alpha, beta, z, mu, sigma2) of a truncated Gaussian, float by float.

    The constructor's formulas and checks in plain Python floats, for
    finite parameters; raises the ValidationError the constructor raises.
    """
    if sigma_bar <= 0.0:
        raise ValidationError(f"sigma_bar must be positive, got {sigma_bar}")
    if not 0.0 <= a < b:
        raise ValidationError(f"truncation must satisfy 0 <= a < b, got [{a}, {b}]")
    alpha = (a - mu_bar) / sigma_bar
    beta = (b - mu_bar) / sigma_bar
    if alpha > 0.0:
        z = ndtr(-alpha) - ndtr(-beta)
    else:
        z = ndtr(beta) - ndtr(alpha)
    if z <= MIN_TRUNCATION_MASS:
        raise ValidationError(
            f"truncation [{a}, {b}] keeps only {z:.3e} of the parent "
            f"mass (minimum {MIN_TRUNCATION_MASS:.0e})"
        )
    pdf_a, pdf_b = (float(_norm_pdf(t)) for t in (alpha, beta))
    L1 = -(pdf_b - pdf_a) / z
    tb = 0.0 if pdf_b == 0.0 else beta * pdf_b
    ta = 0.0 if pdf_a == 0.0 else alpha * pdf_a
    L2 = -(tb - ta) / z + 1.0
    mu = mu_bar + sigma_bar * L1
    sigma_sq = sigma_bar * sigma_bar
    sigma2 = sigma_sq * (L2 - L1 * L1)
    span = b - a
    if not (a - 1e-9 * span <= mu <= b + 1e-9 * span):
        raise ValidationError(f"truncated mean {mu} escaped [{a}, {b}]")
    if not (0.0 < sigma2 <= sigma_sq * (1.0 + 1e-12) and sigma2 < math.inf):
        raise ValidationError(f"truncated variance {sigma2} outside (0, sigma_bar^2]")
    return alpha, beta, z, mu, sigma2


def scalar_integration_bounds(spec: TruncatedGaussianSpec) -> tuple[float, float]:
    """Standardized integration window: [alpha, beta] clipped to +-40 sigmas.

    Integration runs in the standardized variable t = (x - mu_bar)/sigma_bar:
    forming t from exact Gauss-Legendre nodes avoids the cancellation of
    x - mu_bar when sigma_bar is tiny relative to the interval.
    """
    lo = max(spec.alpha, -_SUPPORT_SIGMAS)
    hi = min(spec.beta, _SUPPORT_SIGMAS)
    return lo, hi


def scalar_panel_edges(spec: TruncatedGaussianSpec, lo: float, hi: float) -> tuple[float, ...]:
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
    # ceil(log2(ratio)): the binary exponent, less 1 at an exact power of 2
    mantissa, exponent = math.frexp(span / max(x_lo, span * 2.0**-40))
    levels = min(40, max(1, exponent - (mantissa == 0.5)))
    edges = [lo]
    for j in range(levels, 0, -1):
        x_edge = x_lo + span * 2.0**-j
        edges.append((x_edge - spec.mu_bar) / spec.sigma_bar)
    edges.append(hi)
    return tuple(edges)


def scalar_edges(spec: TruncatedGaussianSpec) -> tuple[float, ...]:
    """The panel edges of one spec, by the scalar rule."""
    return scalar_panel_edges(spec, *scalar_integration_bounds(spec))


def scalar_gain(spec: ReceptorSpec, pi) -> float:
    """The gain factor float by float: math.fsum of pi[source] * rate over
    the sensitive transitions, divided by ln 2."""
    return math.fsum(float(pi[t.source]) * t.rate for t in spec.transitions if t.sensitive) / LN2


def pair_integrand(c: float, m: float):
    """phi(c + m * x) as a one-pair closure, the integrand of one entry."""
    return lambda x: _plogp_vec(c + m * x)


def sensitive_pairs(spec: ReceptorSpec) -> list[tuple[int, int]]:
    """Entries of P(x) that depend on x: the nonzero entries of the slope,
    sensitive off-diagonals plus the diagonals of rows that contain one."""
    rows, cols = np.nonzero(spec.slope)
    return list(zip(rows.tolist(), cols.tolist()))


def _entry_term(dist: TruncatedGaussianSpec, pi, c: float, m: float) -> float:
    """pi_y * (E[phi(c + m x)] - phi(c + m mu)) of one entry, by a one-spec
    ``expectation`` call with a closure."""
    mean_entry = min(max(c + m * dist.mu, 0.0), 1.0)
    return pi * (expectation(dist, pair_integrand(c, m)) - plogp(mean_entry))


def scalar_discrete(spec: ReceptorSpec, dist: TruncatedGaussianSpec, delta_t: float) -> tuple:
    """(value, diagonal part) of the finite-step rate in bits/s, entry by entry.

    Each x-dependent diagonal entry's term comes from its own one-spec
    ``expectation`` call, and the terms are summed with ``math.fsum``; the
    off-diagonal part is gain * gap, from ``scalar_gain`` and a one-spec
    E[x ln x].  No checks beyond the ones those calls make.
    """
    const, lin = step_kernel(spec, delta_t, dist.b)
    pi = stationary_distribution(spec, dist.mu)
    y = np.flatnonzero(np.diagonal(spec.slope)).tolist()
    diagonal = math.fsum(_entry_term(dist, pi[i], const[i, i], lin[i, i]) for i in y) / delta_t
    gap = expectation(dist, _xlnx_vec) - dist.mu * np.log(dist.mu)
    return diagonal + scalar_gain(spec, pi) * gap, diagonal


def all_pairs_discrete(spec: ReceptorSpec, dist: TruncatedGaussianSpec, delta_t: float) -> tuple:
    """(value, diagonal part, off-diagonal part) of the finite-step rate in
    bits/s, from the E[phi(p(x))] of every x-dependent entry, off-diagonal
    ones included: the definition, independent of the gain * gap identity."""
    const, lin = step_kernel(spec, delta_t, dist.b)
    pi = stationary_distribution(spec, dist.mu)
    terms = {(i, j): _entry_term(dist, pi[i], const[i, j], lin[i, j])
             for i, j in sensitive_pairs(spec)}
    diagonal = math.fsum(term for (i, j), term in terms.items() if i == j)
    off_diagonal = math.fsum(term for (i, j), term in terms.items() if i != j)
    return math.fsum(terms.values()) / delta_t, diagonal / delta_t, off_diagonal / delta_t


def gl_estimate(spec: TruncatedGaussianSpec, f, n: int, edges) -> float:
    """One Gauss-Legendre estimate of E[f(x)] with n nodes on each panel.

    Builds each panel's nodes and weights in turn, concatenates them and
    sums with one 1-D dot product: the one-spec form that the batched
    ``expectation_rows`` must reproduce bit for bit in every row.
    """
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


def density(spec: TruncatedGaussianSpec, x):
    """Probability density: parent pdf renormalized by z inside [a, b], 0 outside."""
    arr = np.asarray(x, dtype=float)
    t = (arr - spec.mu_bar) / spec.sigma_bar
    inside = (arr >= spec.a) & (arr <= spec.b)
    vals = np.where(inside, _norm_pdf(t) / (spec.sigma_bar * spec.z), 0.0)
    if vals.ndim == 0:
        return float(vals)
    return vals


def scale(spec: TruncatedGaussianSpec, q: float) -> TruncatedGaussianSpec:
    """Distribution of q*x: truncated Gaussian with every parameter scaled by q."""
    if not (isinstance(q, (int, float)) and math.isfinite(q) and q > 0.0):
        raise ValidationError(f"scale factor must be a positive finite number, got {q!r}")
    return TruncatedGaussianSpec(
        mu_bar=q * spec.mu_bar,
        sigma_bar=q * spec.sigma_bar,
        a=q * spec.a,
        b=q * spec.b,
    )


def moments_about(spec: TruncatedGaussianSpec, center: float, order: int) -> np.ndarray:
    """Recentred moments E[(x - center)^m], m = 0..order, by 50-digit mpmath.

    Integrates (x - center)^m against the parent density in t = (x -
    mu_bar) / sigma_bar over [alpha, beta] clipped to +-40 sigmas (beyond
    which the mass is below e^-800), split at every integer t, and divides
    by the mass integral over the same pieces; no package arithmetic.
    """
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    if order > MAX_MOMENT_ORDER:
        raise OrderTooHigh(f"order {order} exceeds ceiling {MAX_MOMENT_ORDER}")
    with mp.workdps(50):
        mu_bar, sigma_bar, c = (mp.mpf(v) for v in (spec.mu_bar, spec.sigma_bar, center))
        lo = max((mp.mpf(spec.a) - mu_bar) / sigma_bar, -_SUPPORT_SIGMAS)
        hi = min((mp.mpf(spec.b) - mu_bar) / sigma_bar, _SUPPORT_SIGMAS)
        points = [lo, *range(int(mp.floor(lo)) + 1, int(mp.ceil(hi))), hi]
        d = mu_bar - c
        moments = [
            mp.quad(lambda t, m=m: (d + sigma_bar * t) ** m * mp.exp(-t * t / 2), points)
            for m in range(order + 1)
        ]
        return np.array([float(v / moments[0]) for v in moments])


#: FROZEN 50-digit mpmath moments (quadrature of the density, confirmed at
#: 70 digits): {(mu_bar, sigma_bar, a, b): {m: (E[x^m], E[(x - mu)^m])}},
#: the central moments about the exact mean.  The first row is
#: ``configs/chr2_point.json``; the second a row of the shipped capacity
#: surface, where a forward recursion in the L_i once gave E[x^20] 15% low
#: and a negative E[(x - mu)^20].
MPMATH_MOMENTS = {
    (1.0, 0.5, 1e-5, 2.0): {
        4: (2.249126320100811927069963, 0.08851078913965684864750591),
        10: (41.38997942970061480226043, 0.02908442200407188992586308),
        20: (16523.64575679340722691023, 0.0129981299530704629148896),
        64: (72714145898122591.26167068, 0.003700356541223319487521412),
    },
    (1.8408163265306121, 3.0, 0.02, 2.0): {
        4: (3.394563200554067626489724, 0.1881053087398236641243276),
        10: (99.21777071866552705004456, 0.08189031622728528140996481),
        20: (53251.87520349698614682375, 0.04297725763368867426509798),
        64: (302574854064381955.7139702, 0.02494236964272063822570103),
    },
}


def scalar_gap_bounds(dist: TruncatedGaussianSpec, s: int) -> tuple[float, float, float]:
    """(gap_lower, gap_upper, mu_s) of order s, float by float.

    The bounds formulas on one distribution in plain Python floats: central
    moments ``[1, 0, sigma2]``, for s = 4 with orders 3 and 4 from
    ``shifted_moment_vector`` about the mean, the Taylor prefix summed with
    ``math.fsum``, and h at b and at a, with ``power`` and ``np.log``.  No
    checks: a row the package rejects has no value to compare.
    """
    mu = dist.mu
    central = [1.0, 0.0, dist.sigma2]
    if s == 4:
        central += shifted_moment_vector(dist, mu, 4)[3:].tolist()
    log_mu = float(np.log(mu))
    derivs = (log_mu + 1.0, 1.0 / mu, -1.0 / (mu * mu))

    def h(x: float) -> float:
        dx = x - mu
        value = ((0.0 if x == 0.0 else x * float(np.log(x))) - mu * log_mu) / power(dx, s)
        for i in range(1, s):
            value -= derivs[i - 1] / (math.factorial(i) * power(dx, s - i))
        return value

    prefix = math.fsum(central[i] * derivs[i - 1] / math.factorial(i) for i in range(1, s))
    return prefix + h(dist.b) * central[s], prefix + h(dist.a) * central[s], central[s]


def mc_gap(dist: TruncatedGaussianSpec, n: int, seed) -> McEstimate:
    """Monte Carlo estimate of the Jensen gap E[x ln x] - mu ln mu, in nats.

    The mu ln mu term uses the analytic truncated mean, not the sample mean,
    which avoids plug-in bias; the standard error comes from the sample
    variance of x ln x alone.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    xs = sample(dist, rng, n)
    vals = _xlnx_vec(xs)
    value = float(vals.mean()) - dist.mu * math.log(dist.mu)
    stderr = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(value=value, stderr=stderr, n=n)


def empirical_occupancy(traj: Trajectory, n_states: int) -> np.ndarray:
    """Fraction of steps spent in each state."""
    counts = np.bincount(traj.states, minlength=n_states)
    return counts / len(traj)


def bigram_counts(traj: Trajectory, n_states: int) -> np.ndarray:
    """Counts of consecutive state pairs, including the initial pair."""
    prev = np.concatenate(([traj.initial_state], traj.states[:-1]))
    counts = np.zeros((n_states, n_states), dtype=np.int64)
    np.add.at(counts, (prev, traj.states), 1)
    return counts


def h_s_limit(mu: float, s: int) -> float:
    """Continuous extension of h_s at x = mu: f^(s)(mu) / s!."""
    if s not in (2, 4):
        raise ValidationError(f"s must be one of (2, 4), got {s}")
    if mu <= 0.0:
        raise DomainError(f"h_s_limit requires mu > 0, got {mu}")
    if s == 2:
        return 1.0 / (2.0 * mu)
    return 1.0 / (12.0 * mu**3)  # f'''' = 2/mu^3, / 4!


def landing_column(const_row: list, slope_row: list, x: float, u: float) -> int:
    """The per-step landing rule: the first column j of a cumulative row
    const_row + x * slope_row whose entry is not below u times the row
    total, or the last column if none is."""
    last = len(const_row) - 1
    # scale the draw by the float row total so the landing column always
    # has positive probability, even when the total rounds below 1
    u = u * (const_row[last] + x * slope_row[last])
    j = 0
    while j < last and u > const_row[j] + x * slope_row[j]:
        j += 1
    return j


def simulate_reference(
    spec: ReceptorSpec,
    dist: TruncatedGaussianSpec,
    delta_t: float,
    n: int,
    seed,
) -> Trajectory:
    """Simulate n steps of the channel with one loop iteration per step.

    The per-step form of ``simulate``: the same draws in the same order and
    the same landing rule, so the two return identical paths.  The initial
    state is drawn from the stationary distribution of the mean chain; each
    step draws x_i from the input distribution and then the next state from
    row y_{i-1} of I + Q(x_i)*dt.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    const, lin = step_kernel(spec, delta_t, dist.b)

    rng = np.random.default_rng(seed)
    pi = stationary_distribution(spec, dist.mu)
    k = spec.n_states
    # P(x) rows as cumulative sums: cum_const + x * cum_slope, linear in x
    cum_const = np.cumsum(const, axis=1).tolist()
    cum_slope = np.cumsum(lin, axis=1).tolist()

    y0 = int(np.searchsorted(np.cumsum(pi), rng.random()))
    y0 = min(y0, k - 1)
    xs = sample(dist, rng, n)
    us = rng.random(n)

    states = np.empty(n, dtype=np.int64)
    y = y0
    for i, (x, u) in enumerate(zip(xs.tolist(), us.tolist())):
        y = landing_column(cum_const[y], cum_slope[y], x, u)
        states[i] = y
    return Trajectory(
        delta_t=delta_t, initial_state=y0, states=states, inputs=xs, seed=seed
    )


def audit_rows_reference(rows) -> list[tuple[int, str]]:
    """The bound-sandwich audit one ``SweepRow`` at a time: on every row with
    a quadrature rate, each present lower bound must satisfy
    ``lb - slack <= exact <= ub + slack`` with ``slack = max(1e-9 * |exact|,
    1e-12)``; returns (row, message) in row order, s=2 before s=4."""
    violations = []
    for i, row in enumerate(rows):
        exact = row.mir_quadrature
        if exact is None:
            continue
        slack = max(1e-9 * abs(exact), 1e-12)
        for s, lb, ub in ((2, row.lb_s2, row.ub_s2), (4, row.lb_s4, row.ub_s4)):
            if lb is not None and not (lb - slack <= exact <= ub + slack):
                violations.append((i, f"s={s} bounds [{lb}, {ub}] fail to sandwich {exact}"))
    return violations


def with_audit(statuses: list[str], violations) -> list[str]:
    """``statuses`` with each violation appended to its row's status as
    ``audit:<message>``, in place of an ``ok``."""
    statuses = list(statuses)
    for index, message in violations:
        suffix = f"audit:{message}"
        statuses[index] = suffix if statuses[index] == "ok" else f"{statuses[index]};{suffix}"
    return statuses
