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
from dataclasses import dataclass, field

import numpy as np

from .errors import NotIrreducible, StepTooLarge, ValidationError, live_rows, mark_rows, unwrap

LN2 = math.log(2.0)
_BAD_INTENSITY = "intensity must be a nonnegative finite number, got {!r}"


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
    """State set plus transition list; diagonals are always derived.

    ``base`` and ``slope`` hold the generator Q(x) = base + x * slope, built
    once, read-only and left out of equality: ``base`` the insensitive rates,
    ``slope`` the sensitive ones, each with its diagonal, so row-sum zero.
    """

    name: str
    states: tuple[str, ...]
    transitions: tuple[Transition, ...]
    base: np.ndarray = field(init=False, repr=False, compare=False)
    slope: np.ndarray = field(init=False, repr=False, compare=False)

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

        base, slope = np.zeros((k, k)), np.zeros((k, k))
        for t in self.transitions:
            m = slope if t.sensitive else base
            m[t.source, t.target] += t.rate
            m[t.source, t.source] -= t.rate
        for name, m in (("base", base), ("slope", slope)):
            m.flags.writeable = False
            object.__setattr__(self, name, m)

    @property
    def n_states(self) -> int:
        return len(self.states)

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


def _check_intensity(x) -> None:
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x >= 0.0):
        raise ValidationError(_BAD_INTENSITY.format(x))


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
    if not (isinstance(delta_t, (int, float)) and 0.0 < delta_t < math.inf):
        raise ValidationError(f"the step kernel needs 0 < delta_t < inf, got {delta_t!r}")
    # a rate past the float range is an infinite entry, which fails below
    with np.errstate(over="ignore"):
        q = spec.base + x_max * spec.slope
    p = np.eye(spec.n_states) + delta_t * q
    if p.min() < 0.0 or p.max() > 1.0:
        worst = float(p.min()) if -p.min() > p.max() - 1.0 else float(p.max())
        raise StepTooLarge(
            f"delta_t = {delta_t} makes an entry of I + Q*dt equal {worst}; "
            f"shrink the step below 1/max|q_ii| = {1.0 / np.abs(np.diag(q)).max():.3e}"
        )
    return np.eye(spec.n_states) + delta_t * spec.base, delta_t * spec.slope


def _strongly_connected(adjacency: np.ndarray):
    """True if every state reaches every other along positive entries.

    Squaring the reflexive boolean adjacency doubles the path length it
    covers; once that reaches k - 1 steps, entry (i, j) says whether j is
    reachable from i, and the graph is strongly connected iff all are.  A
    stack of adjacencies (..., k, k) gives a list with one verdict each.
    """
    k = adjacency.shape[-1]
    reach = adjacency | np.eye(k, dtype=bool)
    length = 1
    while length < k - 1:
        reach = reach @ reach
        length *= 2
    return reach.all(axis=(-2, -1)).tolist()


def _solve_stationary(q: np.ndarray, errors: list) -> tuple[np.ndarray, list]:
    """Unique pi with pi @ q = 0 and sum(pi) = 1 for each generator in the
    stack q of shape (N, k, k); an array that already has an error in
    ``errors`` (one entry per array, or None) is not solved.

    Solved as an augmented linear system: the last balance equation is
    replaced by the normalization constraint, which is deterministic and exact
    for the matrix sizes used here.  Irreducibility is checked on the
    positive-rate graph first so the failure mode is a clear error, not a
    singular solve.  The residual |pi @ q| / (2 max|q_ii|) is |pi @ P - pi|
    for the step P = I + q / (2 max|q_ii|); it is divided by max|q_ii| before
    it is halved, so a rate near the float ceiling does not overflow the
    scale, and a nan residual fails.  Every check runs per array.
    Returns (pi, errors): the (N, k) read-only stationary vectors, nan on the
    arrays that fail, and per array its first error, or None.
    """
    k = q.shape[-1]
    errors = list(errors)
    mark_rows(
        errors,
        np.logical_not(_strongly_connected(q > 0.0)),
        lambda i: NotIrreducible("the positive-rate transition graph is not strongly connected"),
    )
    rows = np.flatnonzero(live_rows(errors))
    system = q[rows].transpose(0, 2, 1)
    system[:, -1, :] = 1.0
    # one (k, 1) column per array: numpy 1.x reads an rhs of one dimension
    # less than the system as a stack of vectors, so give it the stack shape
    rhs = np.zeros((len(rows), k, 1))
    rhs[:, -1] = 1.0
    pi = np.full((len(q), k), np.nan)
    try:
        pi[rows] = np.linalg.solve(system, rhs)[..., 0]
    except np.linalg.LinAlgError:
        # a singular array fails the whole stack: solve each alone to tell
        for j, i in enumerate(rows.tolist()):
            try:
                pi[i] = np.linalg.solve(system[j : j + 1], rhs[j : j + 1])[0, :, 0]
            except np.linalg.LinAlgError as exc:
                errors[i] = NotIrreducible(f"stationary system is singular: {exc}")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum(axis=1, keepdims=True)
    max_exit = np.abs(np.diagonal(q, axis1=1, axis2=2)).max(axis=1)
    residual = np.abs(pi[:, None, :] @ q)[:, 0, :].max(axis=1) / max_exit / 2.0
    mark_rows(
        errors,
        ~(residual <= 1e-10),
        lambda i: NotIrreducible(f"stationary residual {residual[i]:.2e} exceeds 1e-10"),
    )
    pi[~live_rows(errors)] = np.nan
    pi.flags.writeable = False
    return pi, errors


def mean_chain_rows(spec: ReceptorSpec, means) -> tuple[np.ndarray, np.ndarray, list]:
    """Stationary vector and gain of the mean chain at every mean, from one
    stacked solve.

    Because every sensitive entry is linear in x, E[Q(x)] equals Q(E[x]), so
    the mean chain's generator at mean m is m * slope + base; all of them are
    solved as one stack.

    Returns (pi, gain, errors): the (means, n_states) read-only stationary
    vectors and the gains of all means from one pass (``sensitive_gain`` is
    its one-row case), nan on failed rows, and per mean the MirError it
    fails with (ValidationError for a mean that is not a nonnegative finite
    number, or whose generator has a rate past the float range;
    NotIrreducible otherwise), or None.
    """
    column = np.asarray(means, dtype=float)
    valid = np.isfinite(column) & (column >= 0.0)
    errors: list = [None] * len(column)
    mark_rows(errors, ~valid, lambda i: ValidationError(_BAD_INTENSITY.format(means[i])))
    # a rejected mean stands in as 0; its row keeps its error and is not solved
    with np.errstate(over="ignore"):
        q = np.where(valid, column, 0.0)[:, None, None] * spec.slope
    q += spec.base
    mark_rows(
        errors,
        ~np.isfinite(q).all(axis=(1, 2)),
        lambda i: ValidationError(
            f"the mean chain at intensity {means[i]!r} has a rate past the float range"
        ),
    )
    pi, errors = _solve_stationary(q, errors)
    gain = np.full(len(column), np.nan)
    ok = live_rows(errors)
    gain[ok] = _gain_rows(spec, pi[ok])
    return pi, gain, errors


def stationary_distribution(spec: ReceptorSpec, mean_x: float) -> np.ndarray:
    """Stationary vector of the mean chain at E[x] = mean_x, read-only.

    The one-mean case of ``mean_chain_rows``; raises its error for this mean.
    """
    _check_intensity(mean_x)
    pi, _, (error,) = mean_chain_rows(spec, [mean_x])
    unwrap(error)
    return pi[0]


def sensitive_gain(spec: ReceptorSpec, pi: np.ndarray) -> float:
    """Gain factor g: sum of pi[source] * rate over sensitive transitions, / ln 2.

    ``pi`` is the stationary vector from stationary_distribution.  Multiplying
    g by the Jensen gap of x*ln(x) in nats yields the continuous-time
    information rate in bits/s; the 1/ln 2 conversion lives here by
    convention.  The one-row case of the gain pass of ``mean_chain_rows``.
    """
    if len(pi) != spec.n_states:
        raise ValidationError("steady state dimension does not match the receptor")
    return _gain_rows(spec, np.asarray(pi, dtype=float)[None])[0]


def _gain_rows(spec: ReceptorSpec, pi: np.ndarray) -> list:
    """``sensitive_gain`` of every row of the (rows, n_states) array ``pi``:
    the terms pi[source] * rate in transition order, each row summed with
    ``math.fsum``, then divided by ln 2."""
    sensitive = [t for t in spec.transitions if t.sensitive]
    terms = pi[:, [t.source for t in sensitive]] * np.array([t.rate for t in sensitive])
    return [total / LN2 for total in map(math.fsum, terms.tolist())]
