"""Finite-state receptor model with intensity-sensitive transitions.

A receptor is a continuous-time Markov chain whose generator entries are
either constant rates or rates linear in the driving intensity x.  The
module reads the generator as plain arrays, Q(x) = base + x * slope, builds
the first-order step kernel from them, solves for the mean chain's
stationary vector, and evaluates the information gain factor of the
sensitive transitions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotIrreducible, StepTooLarge, ValidationError

LN2 = math.log(2.0)


@dataclass(frozen=True)
class Transition:
    """One off-diagonal entry of the generator.

    ``rate`` has units 1/s for insensitive transitions and
    1/(s * intensity unit) for sensitive ones, where the effective rate is
    ``rate * x``.
    """

    source: int
    target: int
    rate: float
    sensitive: bool


@dataclass(frozen=True)
class ReceptorSpec:
    """State set plus transition list; diagonals are always derived."""

    name: str
    states: tuple[str, ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        k = len(self.states)
        if k < 2:
            raise ValidationError("a receptor needs at least two states")
        if len(set(self.states)) != k:
            raise ValidationError("state labels must be unique")
        if not self.transitions:
            raise ValidationError("at least one transition is required")
        seen = set()
        any_sensitive = False
        for t in self.transitions:
            if not (0 <= t.source < k and 0 <= t.target < k):
                raise ValidationError(f"transition {t} references a state out of range")
            if t.source == t.target:
                raise ValidationError(
                    f"transition {t} is a self-loop; diagonals are derived, never listed"
                )
            if not (isinstance(t.rate, (int, float)) and math.isfinite(t.rate) and t.rate > 0):
                raise ValidationError(f"transition {t} must have a positive finite rate")
            key = (t.source, t.target)
            if key in seen:
                raise ValidationError(f"duplicate transition for pair {key}")
            seen.add(key)
            any_sensitive = any_sensitive or t.sensitive
        if not any_sensitive:
            raise ValidationError("at least one transition must be sensitive")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def sensitive_rows(self) -> tuple[int, ...]:
        """Rows whose diagonal depends on x through a sensitive exit rate."""
        return tuple(sorted({t.source for t in self.transitions if t.sensitive}))

    @classmethod
    def from_mapping(cls, doc: dict) -> "ReceptorSpec":
        """Build from the JSON configuration layout.

        Expected shape::

            {"name": str, "states": [str, ...],
             "transitions": [{"from": str, "to": str,
                              "rate": float, "sensitive": bool}, ...]}

        Transitions reference states by label.
        """
        try:
            name = doc["name"]
            states = tuple(doc["states"])
            raw_transitions = doc["transitions"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"receptor config missing field: {exc}") from exc
        index = {label: i for i, label in enumerate(states)}
        transitions = []
        for entry in raw_transitions:
            try:
                src, dst = entry["from"], entry["to"]
                rate = float(entry["rate"])
                sensitive = bool(entry["sensitive"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"bad transition entry {entry!r}: {exc}") from exc
            if src not in index:
                raise ValidationError(f"transition references unknown state {src!r}")
            if dst not in index:
                raise ValidationError(f"transition references unknown state {dst!r}")
            transitions.append(Transition(index[src], index[dst], rate, sensitive))
        return cls(name=name, states=states, transitions=tuple(transitions))

    def to_mapping(self) -> dict:
        return {
            "name": self.name,
            "states": list(self.states),
            "transitions": [
                {
                    "from": self.states[t.source],
                    "to": self.states[t.target],
                    "rate": t.rate,
                    "sensitive": t.sensitive,
                }
                for t in self.transitions
            ],
        }


def load_receptor(path) -> ReceptorSpec:
    """Read a receptor configuration file (JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        return ReceptorSpec.from_mapping(json.load(fh))


def chr2_skeleton(q12: float = 1.0, q23: float = 1.0, q31: float = 1.0) -> ReceptorSpec:
    """Three-state channelrhodopsin skeleton.

    C1 -> O2 is light-sensitive (rate q12 * x); O2 -> C3 and C3 -> C1 relax
    at constant rates.  Rate constants are deliberately configuration: unit
    rates are placeholders, not measured values.
    """
    return ReceptorSpec(
        name="ChR2",
        states=("C1", "O2", "C3"),
        transitions=(
            Transition(0, 1, q12, True),
            Transition(1, 2, q23, False),
            Transition(2, 0, q31, False),
        ),
    )


def affine_generator(spec: ReceptorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Decompose the generator as Q(x) = base + x * slope.

    ``base`` carries the insensitive rates, ``slope`` the sensitive ones;
    both include their diagonal compensation, so each is itself row-sum zero.
    """
    k = spec.n_states
    base = np.zeros((k, k))
    slope = np.zeros((k, k))
    for t in spec.transitions:
        m = slope if t.sensitive else base
        m[t.source, t.target] += t.rate
        m[t.source, t.source] -= t.rate
    return base, slope


def _check_intensity(x) -> None:
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x >= 0.0):
        raise ValidationError(f"intensity must be a nonnegative finite number, got {x!r}")


def step_kernel(
    spec: ReceptorSpec, delta_t: float, x_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """First-order step as the affine pair (C, L) = (I + dt*base, dt*slope).

    Deliberately not a matrix exponential: the whole rate analysis is built
    on the first-order form, so admissibility is enforced instead of hidden.
    P(x) = C + x * L is checked once, at x = x_max; its off-diagonals only
    grow with x and its diagonal only shrinks, so it is then admissible for
    all 0 <= x <= x_max.  Raises ValidationError unless 0 < delta_t < inf
    and x_max is a nonnegative finite intensity, and StepTooLarge if P(x_max)
    leaves [0, 1].
    """
    _check_intensity(x_max)
    if not (isinstance(delta_t, (int, float)) and math.isfinite(delta_t) and delta_t >= 0.0):
        raise ValidationError(f"delta_t must be nonnegative and finite, got {delta_t!r}")
    if delta_t <= 0.0:
        raise ValidationError(f"the step kernel needs delta_t > 0, got {delta_t!r}")
    base, slope = affine_generator(spec)
    q = base + x_max * slope
    p = np.eye(spec.n_states) + delta_t * q
    if p.min() < 0.0 or p.max() > 1.0:
        worst = float(p.min()) if -p.min() > p.max() - 1.0 else float(p.max())
        raise StepTooLarge(
            f"delta_t = {delta_t} makes an entry of I + Q*dt equal {worst}; "
            f"shrink the step below 1/max|q_ii| = {1.0 / np.abs(np.diag(q)).max():.3e}"
        )
    return np.eye(spec.n_states) + delta_t * base, delta_t * slope


def _strongly_connected(adjacency: np.ndarray) -> bool:
    """True if every state reaches every other along positive entries.

    Squaring the reflexive boolean adjacency doubles the path length it
    covers; once that reaches k - 1 steps, entry (i, j) says whether j is
    reachable from i, and the graph is strongly connected iff all are.
    """
    k = adjacency.shape[0]
    reach = adjacency | np.eye(k, dtype=bool)
    length = 1
    while length < k - 1:
        reach = reach @ reach
        length *= 2
    return bool(reach.all())


def _solve_stationary(p: np.ndarray) -> np.ndarray:
    """Unique pi with pi @ p = pi and sum(pi) = 1 for a row-stochastic array p.

    Solved as an augmented linear system: one balance equation is replaced by
    the normalization constraint, which is deterministic and exact for the
    matrix sizes used here.  Irreducibility is checked on the positive-entry
    graph first so the failure mode is a clear error, not a singular solve.
    """
    k = p.shape[0]
    off = p.copy()
    np.fill_diagonal(off, 0.0)
    if not _strongly_connected(off > 0.0):
        raise NotIrreducible(
            "the positive-probability transition graph is not strongly connected"
        )
    system = p.T - np.eye(k)
    system[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NotIrreducible(f"stationary system is singular: {exc}") from exc
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = float(np.abs(pi @ p - pi).max())
    if residual > 1e-10:
        raise NotIrreducible(f"stationary residual {residual:.2e} exceeds 1e-10")
    return pi


@lru_cache(maxsize=16)
def stationary_distribution(spec: ReceptorSpec, mean_x: float) -> np.ndarray:
    """Stationary vector of the mean chain at E[x] = mean_x, read-only.

    Because every sensitive entry is linear in x, E[Q(x)] equals Q(E[x]), so
    the mean chain's generator is base + mean_x * slope.  The step used to
    form P only rescales P - I, so the fixed point does not depend on it; the
    always-admissible step 0.5 / max|q_ii| is used.

    Memoised on the frozen spec and the mean (a float; an unhashable value
    raises TypeError), so every method at one input shares one solve and one
    read-only array.  Exceptions are not cached; a bad mean always raises.
    """
    _check_intensity(mean_x)
    base, slope = affine_generator(spec)
    q = base + mean_x * slope
    scale = float(np.abs(np.diag(q)).max())
    if scale == 0.0:
        raise NotIrreducible("no transitions are active at this mean intensity")
    p = np.eye(spec.n_states) + (0.5 / scale) * q
    pi = _solve_stationary(p)
    pi.flags.writeable = False
    return pi


def sensitive_gain(spec: ReceptorSpec, pi: np.ndarray) -> float:
    """Gain factor g: sum of pi[source] * rate over sensitive transitions, / ln 2.

    ``pi`` is the stationary vector from stationary_distribution.  Multiplying
    g by the Jensen gap of x*ln(x) in nats yields the continuous-time
    information rate in bits/s; the 1/ln 2 conversion lives here by
    convention.
    """
    if len(pi) != spec.n_states:
        raise ValidationError("steady state dimension does not match the receptor")
    total = math.fsum(pi[t.source] * t.rate for t in spec.transitions if t.sensitive)
    return total / LN2
