"""Monte Carlo verification of the analytic rates.

Simulates receptor trajectories under IID sampled intensities and estimates
the information rate with a plug-in estimator along the sample path (the
entropy difference of the averaged and input-conditioned kernels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, ValidationError, check_integer
from .receptor import ReceptorSpec, stationary_distribution, step_kernel
from .truncgauss import TruncatedGaussianSpec, sample

#: Batch count for batch-means standard errors; the path samples are Markov
#: dependent, so naive iid errors would be optimistic.
BATCH_COUNT = 20


@dataclass(frozen=True)
class Trajectory:
    """One simulated path: inputs x_1..x_n and resulting states y_1..y_n.

    The state before the first step, drawn from the stationary distribution,
    is kept separately so every consecutive pair (y_{i-1}, y_i) is available
    to estimators.
    """

    delta_t: float
    initial_state: int
    states: np.ndarray
    inputs: np.ndarray
    seed: int

    def __post_init__(self):
        if len(self.states) != len(self.inputs):
            raise ValidationError("states and inputs must have equal length")
        if self.delta_t <= 0.0:
            raise ValidationError("delta_t must be positive")
        self.states.flags.writeable = False
        self.inputs.flags.writeable = False

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error and sample count."""

    value: float
    stderr: float
    n: int

    def __post_init__(self):
        if self.stderr < 0.0 or not math.isfinite(self.stderr):
            raise ValidationError(f"stderr must be finite and nonnegative, got {self.stderr}")
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")


def _leave_steps(xs, us, cum_const, cum_slope) -> list[np.ndarray]:
    """Per state y, the sorted steps at which a walker in y lands elsewhere.

    The per-step rule lands on y iff u > cum[j] for every column j < y and,
    unless y is the last column, not u > cum[y].  Every column below y is
    tested, not only y - 1, so the result does not rest on the float rows
    being monotone (slope rows carry negative diagonals).  The expressions
    are the per-step rule's, term for term.
    """
    n = len(xs)
    last = cum_const.shape[1] - 1
    leave = []
    u = np.empty(n)
    edge = np.empty(n)
    for y in range(last + 1):
        # scale the draw by the float row total so the landing column always
        # has positive probability, even when the total rounds below 1
        np.multiply(xs, cum_slope[y, last], out=u)
        u += cum_const[y, last]
        u *= us
        stay = np.ones(n, dtype=bool)
        for j in range(min(y + 1, last)):
            np.multiply(xs, cum_slope[y, j], out=edge)
            edge += cum_const[y, j]
            if j < y:
                stay &= u > edge
            else:
                stay &= ~(u > edge)
        leave.append(np.flatnonzero(~stay))
    return leave


def simulate(
    spec: ReceptorSpec,
    dist: TruncatedGaussianSpec,
    delta_t: float,
    n: int,
    seed,
) -> Trajectory:
    """Simulate n steps of the channel.

    The initial state is drawn from the stationary distribution of the mean
    chain (no burn-in transient); then all n inputs x_i are drawn from the
    input distribution, then n uniforms u_i.  Step i moves from y_{i-1} to
    the first column j of row y_{i-1} of I + Q(x_i)*dt whose cumulative
    probability is not below u_i times the row total (the last column if
    none is).  Fully deterministic given the seed.

    The path is followed event by event: for each state, one vectorised
    pass finds the steps at which a walker there would leave it, using the
    same float expressions as the per-step rule, and the walk jumps from
    one such step to the next, filling the stays in between as slices.
    Python work scales with the number of jumps, not of steps, and the path
    is bit-identical to drawing each step from the kernel in turn.

    Raises StepTooLarge if delta_t is inadmissible at x = b, and
    ValidationError if n < 1 or the seed is a negative integer.
    """
    check_integer(n, "n")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    const, lin = step_kernel(spec, delta_t, dist.b)

    rng = np.random.default_rng(seed)
    pi = stationary_distribution(spec, dist.mu)
    last = spec.n_states - 1
    # P(x) rows as cumulative sums: cum_const + x * cum_slope, linear in x
    cum_const = np.cumsum(const, axis=1)
    cum_slope = np.cumsum(lin, axis=1)

    y0 = int(np.searchsorted(np.cumsum(pi), rng.random()))
    y0 = min(y0, last)
    xs = sample(dist, rng, n)
    us = rng.random(n)

    leave = _leave_steps(xs, us, cum_const, cum_slope)
    const_rows = cum_const.tolist()
    slope_rows = cum_slope.tolist()
    states = np.empty(n, dtype=np.int64)
    i, y = 0, y0
    while True:
        steps = leave[y]
        pos = int(steps.searchsorted(i))
        if pos == len(steps):
            states[i:] = y
            break
        stop = int(steps[pos])
        states[i:stop] = y
        # the jump step: the per-step landing rule, once
        x = float(xs[stop])
        const_row = const_rows[y]
        slope_row = slope_rows[y]
        u_stop = float(us[stop]) * (const_row[last] + x * slope_row[last])
        j = 0
        while j < last and u_stop > const_row[j] + x * slope_row[j]:
            j += 1
        states[stop] = j
        i, y = stop + 1, j
    return Trajectory(
        delta_t=delta_t, initial_state=y0, states=states, inputs=xs, seed=seed
    )


def estimate_mir(
    traj: Trajectory,
    spec: ReceptorSpec,
    dist: TruncatedGaussianSpec,
) -> McEstimate:
    """Plug-in rate estimate from a trajectory, in bits/s.

    Per step the summand is log2 of the ratio between the exact conditional
    kernel p_{y_{i-1} y_i}(x_i) and the averaged kernel entry, divided by
    delta_t; its mean estimates the entropy difference defining the rate.
    The averaged-kernel term uses the known mean chain rather than a binned
    nonparametric estimate, since the kernels are available exactly.

    Standard error by batch means over BATCH_COUNT consecutive blocks.

    Raises InsufficientData if an observed pair has zero probability under
    the mean chain (model mismatch) or the path is shorter than the batch
    count, and StepTooLarge if traj.delta_t is inadmissible at x = b.
    """
    n = len(traj)
    if n < BATCH_COUNT:
        raise InsufficientData(f"need at least {BATCH_COUNT} steps, got {n}")
    const, lin = step_kernel(spec, traj.delta_t, dist.b)
    p_bar = const + dist.mu * lin

    # each (prev, cur) pair gathered once, as one flat index into the rows
    pair = np.concatenate(([traj.initial_state], traj.states[:-1]))
    pair *= spec.n_states
    pair += traj.states
    p_step = const.ravel()[pair] + traj.inputs * lin.ravel()[pair]
    p_mean = p_bar.ravel()[pair]
    if np.any(p_mean <= 0.0):
        raise InsufficientData(
            "observed a transition that is impossible under the mean chain"
        )
    z = np.log2(p_step / p_mean) / traj.delta_t
    value = float(z.mean())
    batch_means = np.array([chunk.mean() for chunk in np.array_split(z, BATCH_COUNT)])
    stderr = float(batch_means.std(ddof=1) / math.sqrt(BATCH_COUNT))
    return McEstimate(value=value, stderr=stderr, n=n)


def dump_trajectory(traj: Trajectory, path) -> None:
    """Write one tab-separated record per step: step, x, y (with header)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step\tx\ty\n")
        for i, (x, y) in enumerate(zip(traj.inputs.tolist(), traj.states.tolist()), start=1):
            fh.write(f"{i}\t{x!r}\t{y}\n")
