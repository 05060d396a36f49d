"""Reference implementations used only by the tests.

The typed matrix pipeline (RateMatrix -> TransitionMatrix -> SteadyState)
builds the generator, the first-order step and the stationary vector as
validated wrapper objects; the package computes the same quantities on plain
arrays, and the tests pin the two against each other.  The remaining helpers
(density, scaling closure, recursion moments about a center, the direct
Monte Carlo gap, occupancy and bigram counts, the Taylor limit of h_s) are
oracles for the acceptance criteria and the unit tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from transduction_mir import (
    DomainError,
    McEstimate,
    OrderTooHigh,
    ReceptorSpec,
    StepTooLarge,
    Trajectory,
    TruncatedGaussianSpec,
    ValidationError,
    sample,
)
from transduction_mir.mir import _xlnx_vec
from transduction_mir.receptor import _solve_stationary, affine_generator
from transduction_mir.truncgauss import (
    MAX_MOMENT_ORDER,
    _l_coefficients,
    _moments_about,
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
    base, slope = affine_generator(spec)
    return RateMatrix(dim=spec.n_states, entries=base + x * slope)


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


def steady_state(p_bar: TransitionMatrix) -> SteadyState:
    """Unique pi with pi @ P = pi and sum(pi) = 1; NotIrreducible otherwise."""
    return SteadyState(probabilities=_solve_stationary(p_bar.entries))


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
    """Recentred moments E[(x - center)^m], m = 0..order, via the L-recursion."""
    if order < 0:
        raise ValidationError(f"order must be >= 0, got {order}")
    if order > MAX_MOMENT_ORDER:
        raise OrderTooHigh(f"order {order} exceeds ceiling {MAX_MOMENT_ORDER}")
    return _moments_about(spec, center, order, _l_coefficients(spec, order))


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
