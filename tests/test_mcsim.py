"""Monte Carlo verification tests.

DERIVED targets come from the analytic steady state, mir_discrete, and the
quadrature gap; standard-error tolerances are 4 sigma throughout.
"""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from transduction_mir import (
    InsufficientData,
    Trajectory,
    TruncatedGaussianSpec,
    ValidationError,
    dump_trajectory,
    estimate_mir,
    jensen_gap,
    mir_discrete,
    sample,
    simulate,
    stationary_distribution,
)
from transduction_mir.cli import main
from transduction_mir.mcsim import _landings
from transduction_mir.receptor import step_kernel
from transduction_mir.truncgauss import _DRAW_BLOCK as B
from conftest import five_state_receptor
from oracles import (
    bigram_counts,
    build_rate_matrix,
    empirical_occupancy,
    landing_column,
    mc_gap,
    scale,
    simulate_reference,
    transition_matrix,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestSimulate:
    def test_single_step(self, unit_chr2, canonical_dist):
        traj = simulate(unit_chr2, canonical_dist, 1e-3, 1, seed=5)
        assert len(traj) == 1
        assert traj.states[0] in (0, 1, 2)
        p = transition_matrix(
            build_rate_matrix(unit_chr2, float(traj.inputs[0])), traj.delta_t
        )
        assert p.entries[traj.initial_state, traj.states[0]] > 0.0

    def test_every_step_supported(self, unit_chr2, canonical_dist):
        traj = simulate(unit_chr2, canonical_dist, 1e-2, 5000, seed=11)
        prev = traj.initial_state
        for x, y in zip(traj.inputs, traj.states):
            p = transition_matrix(build_rate_matrix(unit_chr2, float(x)), traj.delta_t)
            assert p.entries[prev, y] > 0.0
            prev = y

    def test_occupancy_matches_steady_state(self, unit_chr2, canonical_dist):
        traj = simulate(unit_chr2, canonical_dist, 1e-2, 200_000, seed=77)
        pi = stationary_distribution(unit_chr2, canonical_dist.mu)
        occ = empirical_occupancy(traj, 3)
        assert np.abs(occ - pi).max() < 0.02

    def test_deterministic(self, unit_chr2, canonical_dist):
        a = simulate(unit_chr2, canonical_dist, 1e-3, 5000, seed=123)
        b = simulate(unit_chr2, canonical_dist, 1e-3, 5000, seed=123)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        assert a.initial_state == b.initial_state

    def test_step_too_large(self, unit_chr2, canonical_dist):
        from transduction_mir import StepTooLarge

        with pytest.raises(StepTooLarge):
            simulate(unit_chr2, canonical_dist, 0.6, 10, seed=1)

    @pytest.mark.parametrize("delta_t", [0.0, -1e-3, math.nan, math.inf])
    def test_bad_step_is_validation_error(self, unit_chr2, canonical_dist, delta_t):
        with pytest.raises(ValidationError) as exc:
            simulate(unit_chr2, canonical_dist, delta_t, 10, seed=1)
        assert type(exc.value) is ValidationError

    def test_negative_seed_is_validation_error(self, unit_chr2, canonical_dist):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            simulate(unit_chr2, canonical_dist, 1e-3, 10, seed=-1)

    @pytest.mark.parametrize("seed", [2.5, "3", True, -1])
    def test_bad_seed_is_validation_error(self, unit_chr2, canonical_dist, seed):
        with pytest.raises(ValidationError) as exc:
            simulate(unit_chr2, canonical_dist, 1e-3, 10, seed)
        assert type(exc.value) is ValidationError

    def test_accepted_seed_forms(self, unit_chr2, canonical_dist):
        # an integer, a Generator and a SeedSequence of the same entropy
        # give the same path
        paths = [
            simulate(unit_chr2, canonical_dist, 1e-3, 1000, seed)
            for seed in (np.int64(3), np.random.default_rng(3), np.random.SeedSequence(3))
        ]
        for traj in paths:
            np.testing.assert_array_equal(traj.states, paths[0].states)
            np.testing.assert_array_equal(traj.inputs, paths[0].inputs)

    @pytest.mark.parametrize("n", [1, B + 1])
    def test_generator_drawn_in_place(self, unit_chr2, canonical_dist, n):
        # the caller's generator ends where the draws in their order leave
        # it: the initial state, the n inputs, then the n uniforms
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        simulate(unit_chr2, canonical_dist, 1e-3, n, rng)
        ref.random()
        sample(canonical_dist, ref, n)
        ref.random(n)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_bigram_rows_normalize_to_mean_chain(self, unit_chr2, canonical_dist):
        traj = simulate(unit_chr2, canonical_dist, 1e-2, 200_000, seed=99)
        counts = bigram_counts(traj, 3)
        p_bar = transition_matrix(
            build_rate_matrix(unit_chr2, canonical_dist.mu), 1e-2
        ).entries
        for i in range(3):
            row_n = counts[i].sum()
            emp = counts[i] / row_n
            assert np.abs(emp - p_bar[i]).max() < 4.0 / math.sqrt(row_n)


class TestMatchesPerStepLoop:
    """The event-driven walk returns the per-step loop's path bit for bit."""

    @staticmethod
    def assert_same_path(spec, dist, delta_t, n, seed):
        got = simulate(spec, dist, delta_t, n, seed)
        want = simulate_reference(spec, dist, delta_t, n, seed)
        assert got.initial_state == want.initial_state
        np.testing.assert_array_equal(got.states, want.states)
        np.testing.assert_array_equal(got.inputs, want.inputs)
        return got

    @pytest.mark.parametrize("seed, n", [(0, 1_000_000), (7, 100_000), (1234, 100_000)])
    def test_chr2(self, unit_chr2, canonical_dist, seed, n):
        traj = self.assert_same_path(unit_chr2, canonical_dist, 1e-3, n, seed)
        assert np.count_nonzero(np.diff(traj.states)) > 50

    def test_branching_receptor_with_thousands_of_jumps(self, canonical_dist):
        spec = five_state_receptor()
        traj = self.assert_same_path(spec, canonical_dist, 2e-2, 200_000, seed=5)
        assert np.count_nonzero(np.diff(traj.states)) > 5_000
        assert set(np.unique(traj.states).tolist()) == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B + 7])
    @pytest.mark.parametrize("branching", [False, True], ids=["chr2", "branching"])
    def test_block_edges(self, unit_chr2, canonical_dist, branching, n):
        spec, delta_t = (five_state_receptor(), 2e-2) if branching else (unit_chr2, 1e-2)
        traj = self.assert_same_path(spec, canonical_dist, delta_t, n, seed=31)
        if n == 3 * B + 7:
            # at this seed a jump falls on the first step of a block, so the
            # walk leaves the state it carried in at once
            firsts = np.arange(B, n, B)
            assert np.any(traj.states[firsts] != traj.states[firsts - 1])

    def test_far_tail_truncation(self, unit_chr2):
        dist = TruncatedGaussianSpec(-3.0, 1.0, 0.0, 2.0)
        assert dist.alpha > 0.0
        self.assert_same_path(unit_chr2, dist, 1e-2, 50_000, seed=3)

    def test_degenerate_narrow_input(self, unit_chr2):
        dist = TruncatedGaussianSpec(1.0, 1e-8, 1e-5, 2.0)
        self.assert_same_path(unit_chr2, dist, 1e-2, 50_000, seed=4)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_single_step(self, unit_chr2, canonical_dist, seed):
        self.assert_same_path(unit_chr2, canonical_dist, 0.3, 1, seed)

    def test_landing_pass_is_the_per_step_rule(self):
        # the five-state receptor just inside its largest admissible step at
        # b = 2, where a diagonal entry of P(b) nearly vanishes
        spec, b = five_state_receptor(), 2.0
        delta_t = (1.0 - 1e-9) / np.abs(np.diagonal(spec.base + b * spec.slope)).max()
        const, lin = step_kernel(spec, delta_t, b)
        cum_const, cum_slope = np.cumsum(const, axis=1), np.cumsum(lin, axis=1)
        rows = list(zip(cum_const.tolist(), cum_slope.tolist()))
        rng = np.random.default_rng(17)
        xs = np.concatenate(([0.0, b, b], rng.uniform(0.0, b, 20_000))).tolist()
        us = np.concatenate(([0.0, 0.0, np.nextafter(1.0, 0.0)], rng.random(20_000))).tolist()
        # draws whose scaled u is exactly a column edge: each lands there
        edges = []
        for y, (const_row, slope_row) in enumerate(rows):
            for x in [0.0, b, *rng.uniform(0.0, b, 8).tolist()]:
                total = const_row[-1] + x * slope_row[-1]
                for j in range(len(const_row) - 1):
                    edge = const_row[j] + x * slope_row[j]
                    if any(const_row[i] + x * slope_row[i] >= edge for i in range(j)):
                        continue  # an earlier column takes this draw
                    guess = edge / total
                    for u in (guess, math.nextafter(guess, 0.0), math.nextafter(guess, 1.0)):
                        if u * total == edge and 0.0 <= u < 1.0:
                            edges.append((y, j, x, u))
                            break
        assert len(edges) > 100
        for y, j, x, u in edges:
            assert landing_column(*rows[y], x, u) == j
        xs += [x for _, _, x, _ in edges]
        us += [u for _, _, _, u in edges]
        self.assert_landings_follow_rule(xs, us, cum_const, cum_slope)
        # a row that is not monotone: the rule stops at the first edge not
        # below u, though a later edge is below it
        cum_const = np.array([[0.5, 0.25, 1.0]] * 3)
        us = [0.125, 0.375, 0.5, 0.75]
        self.assert_landings_follow_rule([0.0] * 4, us, cum_const, np.zeros((3, 3)))

    @staticmethod
    def assert_landings_follow_rule(xs, us, cum_const, cum_slope):
        rows = list(zip(cum_const.tolist(), cum_slope.tolist()))
        landings = _landings(np.array(xs), np.array(us), cum_const, cum_slope)
        for y, (steps, lands) in enumerate(landings):
            want = [landing_column(*rows[y], x, u) for x, u in zip(xs, us)]
            moved = [i for i, j in enumerate(want) if j != y]
            assert steps.tolist() == moved
            assert lands.tolist() == [want[i] for i in moved]


class TestFrozenPaths:
    """Paths, CLI output and a Monte Carlo sweep, frozen as sha256 digests.

    The path digests were taken from the per-step simulator before the
    event-driven walk replaced it, so they pin the same answers
    independently of the oracle loop.  The seed-0 CLI digest and the sweep
    digest were taken again when the kept mass moved to the stdlib erfc,
    which moves the plug-in estimate in its last digits; the paths held.
    The seed-7 CLI digest and the sweep digest were taken again when the
    quantile of ``sample`` moved from scipy's ``ndtri`` to AS 241: about a
    third of the draws moved in their last bits (the quantile by at most
    1.1e-15 relative), no state moved, and the seed-7 and sweep estimates
    moved by an ulp or two; the seed-0 estimate kept its bits.
    """

    STATES = {
        0: "56b2d50939a6ba2067547efa6b1144b07ba88fd184ffb9eba37d2a1265251f09",
        7: "4a5c0521840085ce8aaba8a7723f983148900d7152beed74466d8ea7a6253274",
    }
    CLI_JSON = {
        0: "73a95615347cb9960103e5b9dc7d8dbd8fbfaf74cfc64d0e6ae92f777b30fbb0",
        7: "19474775d796a2ad6d7c355e12dce5908d45f8e97e405342a7b8f9ac62c78b9e",
    }
    MC_SWEEP_CSV = "92cf1d0170b852ff04752f8be9e3e59b203f260448edf5e8fe5f11d8f5f18b96"

    @pytest.mark.parametrize("seed", [0, 7])
    def test_states(self, unit_chr2, canonical_dist, seed):
        # the digest the benchmark takes of each mc_path trajectory
        traj = simulate(unit_chr2, canonical_dist, 1e-3, 10**6, seed)
        digest = hashlib.sha256(str(traj.initial_state).encode() + traj.states.tobytes())
        assert digest.hexdigest() == self.STATES[seed]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_cli_json(self, tmp_path, seed):
        out = tmp_path / "sim.json"
        argv = [
            "simulate", "--config", str(CONFIG_DIR / "chr2_point.json"), "--out", str(out),
            "--mc-n", "1000000", "--delta-t", "0.001", "--seed", str(seed),
        ]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.CLI_JSON[seed]

    def test_mc_sweep_csv(self, tmp_path):
        doc = {
            "receptor": json.loads((CONFIG_DIR / "chr2_receptor.json").read_text()),
            "sweep": {
                "a": 1e-5,
                "b": 2.0,
                "mu_bar": {"min": 0.5, "max": 1.5, "steps": 2},
                "sigma_bar": {"min": 0.5, "max": 0.5, "steps": 1},
                "methods": ["mc"],
                "mc_n": 20000,
                "delta_t": 0.001,
            },
            "seed": 1234,
        }
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.MC_SWEEP_CSV


def impossible_path(step: int, n: int) -> Trajectory:
    """A ChR2 path resting in state 0 but for a 0 -> 2 jump at ``step``: the
    one-way ring cannot make it, so the mean chain gives it probability 0."""
    states = np.zeros(n, dtype=np.int64)
    states[step] = 2
    return Trajectory(delta_t=1e-3, initial_state=0, states=states, inputs=np.ones(n), seed=0)


class TestEstimateMir:
    def test_degenerate_input(self, unit_chr2):
        dist = TruncatedGaussianSpec(1.0, 1e-8, 1e-5, 2.0)
        traj = simulate(unit_chr2, dist, 1e-3, 100_000, seed=3)
        est = estimate_mir(traj, unit_chr2, dist)
        assert abs(est.value) < max(4 * est.stderr, 1e-8)

    def test_matches_discrete_rate(self, unit_chr2, canonical_dist):
        dt = 1e-3
        traj = simulate(unit_chr2, canonical_dist, dt, 300_000, seed=8)
        est = estimate_mir(traj, unit_chr2, canonical_dist)
        target = mir_discrete(unit_chr2, canonical_dist, dt).value
        assert abs(est.value - target) < 4 * est.stderr

    def test_stderr_scales_like_sqrt_n(self, unit_chr2, canonical_dist):
        dt = 1e-3
        big = simulate(unit_chr2, canonical_dist, dt, 200_000, seed=21)
        small = simulate(unit_chr2, canonical_dist, dt, 100_000, seed=22)
        ratio = estimate_mir(small, unit_chr2, canonical_dist).stderr / estimate_mir(
            big, unit_chr2, canonical_dist
        ).stderr
        assert math.sqrt(2) / 1.5 < ratio < math.sqrt(2) * 1.5

    def test_error_decreases_with_n(self, unit_chr2, canonical_dist):
        # consistency is a distributional property; the median error over a
        # few independent paths must fall as the prefix length grows
        dt = 1e-3
        target = mir_discrete(unit_chr2, canonical_dist, dt).value
        errors = {n: [] for n in (10_000, 100_000, 1_000_000)}
        for seed in (7, 11, 42):
            traj = simulate(unit_chr2, canonical_dist, dt, 1_000_000, seed=seed)
            for n in errors:
                prefix = Trajectory(
                    delta_t=dt,
                    initial_state=traj.initial_state,
                    states=traj.states[:n].copy(),
                    inputs=traj.inputs[:n].copy(),
                    seed=seed,
                )
                errors[n].append(
                    abs(estimate_mir(prefix, unit_chr2, canonical_dist).value - target)
                )
        medians = [float(np.median(errors[n])) for n in sorted(errors)]
        assert medians[0] > medians[1] > medians[2]

    def test_impossible_bigram_detected(self, unit_chr2, canonical_dist):
        # on the first step, in a later block, and across a block edge
        for step in (0, 2 * B + 5, B):
            with pytest.raises(InsufficientData) as info:
                estimate_mir(impossible_path(step, 3 * B + 7), unit_chr2, canonical_dist)
            assert str(info.value) == "observed a transition that is impossible under the mean chain"

    def test_too_short_rejected(self, unit_chr2, canonical_dist):
        traj = simulate(unit_chr2, canonical_dist, 1e-3, 5, seed=4)
        with pytest.raises(InsufficientData):
            estimate_mir(traj, unit_chr2, canonical_dist)


# the shortest path with an impossible jump that reaches the mean-chain check
IMPOSSIBLE_PATH = impossible_path(0, 20)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda spec, dist: simulate(spec, dist, 1e-3, 0, 1),
            ValidationError,
            "n must be >= 1, got 0",
        ),
        (
            lambda spec, dist: estimate_mir(IMPOSSIBLE_PATH, spec, dist),
            InsufficientData,
            "observed a transition that is impossible under the mean chain",
        ),
    ],
    ids=["no-steps", "impossible-transition"],
)
def test_rejections_name_the_fault(unit_chr2, canonical_dist, call, error, message):
    with pytest.raises(error) as info:
        call(unit_chr2, canonical_dist)
    assert type(info.value) is error and str(info.value) == message


class TestMemory:
    def test_peaks_at_a_million_steps(self, unit_chr2, canonical_dist):
        # the mc_path point: simulate holds the inputs and the states,
        # estimate_mir the summands, each plus at most one block of work
        n = 10**6
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            traj = simulate(unit_chr2, canonical_dist, 1e-3, n, seed=0)
            simulate_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            estimate_mir(traj, unit_chr2, canonical_dist)
            estimate_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert simulate_peak <= 2 * 8 * n + 2_000_000
        assert estimate_peak <= 8 * n + 2_000_000


class TestMcGap:
    def test_degenerate(self):
        dist = TruncatedGaussianSpec(1.0, 1e-9, 1e-5, 2.0)
        est = mc_gap(dist, 10_000, seed=6)
        assert abs(est.value) < max(4 * est.stderr, 1e-9)

    def test_matches_quadrature_gap(self, canonical_dist):
        est = mc_gap(canonical_dist, 1_000_000, seed=31)
        assert abs(est.value - jensen_gap(canonical_dist)) < 4 * est.stderr

    def test_identity_scale_bit_for_bit(self, canonical_dist):
        a = mc_gap(canonical_dist, 10_000, seed=7)
        b = mc_gap(scale(canonical_dist, 1.0), 10_000, seed=7)
        assert a.value == b.value and a.stderr == b.stderr

    def test_n_validation(self, canonical_dist):
        with pytest.raises(ValidationError):
            mc_gap(canonical_dist, 0, seed=1)


class TestDump:
    def test_format_and_length(self, unit_chr2, canonical_dist, tmp_path):
        traj = simulate(unit_chr2, canonical_dist, 1e-3, 50, seed=12)
        path = tmp_path / "traj.tsv"
        dump_trajectory(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step\tx\ty"
        assert len(lines) == 51
        step, x, y = lines[1].split("\t")
        assert int(step) == 1
        assert float(x) == traj.inputs[0]
        assert int(y) == traj.states[0]
