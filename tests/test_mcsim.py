"""Monte Carlo verification tests.

DERIVED targets come from the analytic steady state, mir_discrete, and the
quadrature gap; standard-error tolerances are 4 sigma throughout.
"""

import hashlib
import json
import math
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
    simulate,
    stationary_distribution,
)
from transduction_mir.cli import main
from conftest import five_state_receptor
from oracles import (
    bigram_counts,
    build_rate_matrix,
    empirical_occupancy,
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


class TestFrozenPaths:
    """Paths, CLI output and a Monte Carlo sweep, frozen as sha256 digests.

    The path digests were taken from the per-step simulator before the
    event-driven walk replaced it, so they pin the same answers
    independently of the oracle loop.  The seed-0 CLI digest and the sweep
    digest were taken again when the kept mass moved to the stdlib erfc,
    which moves the plug-in estimate in its last digits; the paths held.
    """

    STATES = {
        0: "56b2d50939a6ba2067547efa6b1144b07ba88fd184ffb9eba37d2a1265251f09",
        7: "4a5c0521840085ce8aaba8a7723f983148900d7152beed74466d8ea7a6253274",
    }
    CLI_JSON = {
        0: "73a95615347cb9960103e5b9dc7d8dbd8fbfaf74cfc64d0e6ae92f777b30fbb0",
        7: "d00a6b25946f5e9c9029fd6f07ec9a43b621a7c45ec6f65906b88b9440f3d781",
    }
    MC_SWEEP_CSV = "a48ae1c62892e03069165e5fac105b3084afbe448c64f3aa5265f5cb412c2b38"

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
        # a 0 -> 2 jump cannot happen in the one-way ring
        traj = Trajectory(
            delta_t=1e-3,
            initial_state=0,
            states=np.array([2, 0, 1], dtype=np.int64),
            inputs=np.array([1.0, 1.0, 1.0]),
            seed=0,
        )
        with pytest.raises(InsufficientData):
            estimate_mir(traj, unit_chr2, canonical_dist)

    def test_too_short_rejected(self, unit_chr2, canonical_dist):
        traj = simulate(unit_chr2, canonical_dist, 1e-3, 5, seed=4)
        with pytest.raises(InsufficientData):
            estimate_mir(traj, unit_chr2, canonical_dist)


# a 0 -> 2 jump in a path long enough for the batch means: the one-way ring
# cannot make it, so the mean chain gives it probability 0
IMPOSSIBLE_PATH = Trajectory(
    delta_t=1e-3,
    initial_state=0,
    states=np.array([2] + [0] * 19, dtype=np.int64),
    inputs=np.ones(20),
    seed=0,
)


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
