"""Monte Carlo verification of the analytic rates.

Simulates receptor trajectories under IID sampled intensities and estimates
the information rate with a plug-in estimator along the sample path (the
entropy difference of the averaged and input-conditioned kernels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, ValidationError
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


def simulate(
    spec: ReceptorSpec,
    dist: TruncatedGaussianSpec,
    delta_t: float,
    n: int,
    seed,
) -> Trajectory:
    """Simulate n steps of the channel.

    The initial state is drawn from the stationary distribution of the mean
    chain (no burn-in transient); each step draws x_i from the input
    distribution and then the next state from row y_{i-1} of I + Q(x_i)*dt.
    Fully deterministic given the seed.

    Raises StepTooLarge if delta_t is inadmissible at x = b.
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
    xs_list = xs.tolist()
    us_list = us.tolist()
    last = k - 1
    y = y0
    for i in range(n):
        x = xs_list[i]
        const_row = cum_const[y]
        slope_row = cum_slope[y]
        # scale the draw by the float row total so the landing column always
        # has positive probability, even when the total rounds below 1
        u = us_list[i] * (const_row[last] + x * slope_row[last])
        j = 0
        while j < last and u > const_row[j] + x * slope_row[j]:
            j += 1
        states[i] = j
        y = j
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

    prev = np.concatenate(([traj.initial_state], traj.states[:-1]))
    cur = traj.states
    p_step = const[prev, cur] + traj.inputs * lin[prev, cur]
    p_mean = p_bar[prev, cur]
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
