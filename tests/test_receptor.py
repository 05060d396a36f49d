"""Receptor Markov model tests.

Steady-state DERIVED values are checked against an in-test power-iteration
oracle, which is independent of the package's linear solve.  The typed
matrix pipeline in ``oracles`` is the reference the plain-array path is
pinned against.
"""

import math
import traceback
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transduction_mir import (
    MirError,
    NotIrreducible,
    ReceptorSpec,
    StepTooLarge,
    Transition,
    TruncatedGaussianSpec,
    ValidationError,
    chr2_skeleton,
    mir_bounds,
    mir_discrete,
    mir_quadrature,
    sensitive_gain,
    stationary_distribution,
)
from transduction_mir.errors import unwrap
from transduction_mir.receptor import (
    _solve_stationary,
    _strongly_connected,
    mean_chain_rows,
    step_kernel,
)
from transduction_mir.truncgauss import sample
from conftest import five_state_receptor
from oracles import (
    RateMatrix,
    build_rate_matrix,
    mean_chain_stationary,
    scalar_gain,
    solve_stationary_one,
    steady_state,
    transition_matrix,
)


def power_iteration_pi(p: np.ndarray, iters: int = 200_000, tol: float = 1e-14):
    """Brute-force fixed point of pi @ P, the steady-state oracle."""
    pi = np.full(p.shape[0], 1.0 / p.shape[0])
    for _ in range(iters):
        nxt = pi @ p
        if np.abs(nxt - pi).max() < tol:
            return nxt / nxt.sum()
        pi = nxt
    return pi / pi.sum()


def dfs_strongly_connected(adjacency: np.ndarray) -> bool:
    """Depth-first search from state 0 on the graph and its transpose, the
    irreducibility oracle."""
    k = adjacency.shape[0]

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in np.nonzero(adj[i])[0]:
                if j not in seen:
                    seen.add(int(j))
                    stack.append(int(j))
        return len(seen) == k

    return reach(adjacency) and reach(adjacency.T)


def ring_spec(r12=1.0, r23=1.0, r31=1.0, sensitive_first=True):
    return ReceptorSpec(
        name="ring",
        states=("S1", "S2", "S3"),
        transitions=(
            Transition(0, 1, r12, sensitive_first),
            Transition(1, 2, r23, False),
            Transition(2, 0, r31, not sensitive_first),
        ),
    )


class TestSpecValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            ReceptorSpec("x", ("A", "B"), (Transition(0, 0, 1.0, True),))

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValidationError):
            ReceptorSpec(
                "x",
                ("A", "B"),
                (Transition(0, 1, 1.0, True), Transition(0, 1, 2.0, False)),
            )

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValidationError):
            ReceptorSpec("x", ("A", "B"), (Transition(0, 1, 0.0, True),))
        with pytest.raises(ValidationError):
            ReceptorSpec("x", ("A", "B"), (Transition(0, 1, -1.0, True),))

    def test_out_of_range_state_rejected(self):
        with pytest.raises(ValidationError):
            ReceptorSpec("x", ("A", "B"), (Transition(0, 2, 1.0, True),))

    def test_no_sensitive_rejected(self):
        with pytest.raises(ValidationError):
            ReceptorSpec("x", ("A", "B"), (Transition(0, 1, 1.0, False),))

    def test_from_mapping_round_trip(self, unit_chr2):
        doc = unit_chr2.to_mapping()
        again = ReceptorSpec.from_mapping(doc)
        assert again == unit_chr2

    def test_from_mapping_unknown_state(self):
        doc = {
            "name": "x",
            "states": ["A", "B"],
            "transitions": [{"from": "A", "to": "Z", "rate": 1.0, "sensitive": True}],
        }
        with pytest.raises(ValidationError):
            ReceptorSpec.from_mapping(doc)

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: ReceptorSpec("x", ("A",), (Transition(0, 0, 1.0, True),)),
                "a receptor needs at least two states",
            ),
            (
                lambda: ReceptorSpec("x", ("A", "A"), (Transition(0, 1, 1.0, True),)),
                "state labels must be unique",
            ),
            (lambda: ReceptorSpec("x", ("A", "B"), ()), "at least one transition is required"),
            (
                lambda: ReceptorSpec.from_mapping(
                    {"name": "x", "states": ["A", "B"], "transitions": [{"from": "A"}]}
                ),
                "bad transition entry {'from': 'A'}: 'to'",
            ),
            (
                lambda: ReceptorSpec.from_mapping(
                    {
                        "name": "x",
                        "states": ["A", "B"],
                        "transitions": [
                            {"from": "Z", "to": "A", "rate": 1.0, "sensitive": True}
                        ],
                    }
                ),
                "transition references unknown state 'Z'",
            ),
        ],
        ids=["one-state", "duplicate-labels", "no-transitions", "bad-entry", "unknown-source"],
    )
    def test_rejections_name_the_fault(self, build, message):
        with pytest.raises(ValidationError) as info:
            build()
        assert type(info.value) is ValidationError and str(info.value) == message


class TestRateMatrix:
    def test_dark_state_has_no_escape(self, unit_chr2):
        q = build_rate_matrix(unit_chr2, 0.0)
        np.testing.assert_array_equal(q.entries[0], np.zeros(3))

    def test_unit_ring_at_unit_intensity(self, unit_chr2):
        q = build_rate_matrix(unit_chr2, 1.0)
        expected = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        np.testing.assert_array_equal(q.entries, expected)

    def test_mixed_rates_row_sums(self):
        spec = ring_spec(0.5, 3.0, 4.0)
        q = build_rate_matrix(spec, 2.0)
        expected = np.array([[-1.0, 1.0, 0.0], [0.0, -3.0, 3.0], [4.0, 0.0, -4.0]])
        np.testing.assert_allclose(q.entries, expected, atol=1e-15)
        # independent validation oracle: row sums and sign pattern
        assert np.abs(q.entries.sum(axis=1)).max() < 1e-12
        off = q.entries - np.diag(np.diag(q.entries))
        assert off.min() >= 0.0

    def test_negative_intensity_rejected(self, unit_chr2):
        with pytest.raises(ValidationError):
            build_rate_matrix(unit_chr2, -0.5)

    @given(x=st.floats(0.0, 50.0), r=st.floats(0.01, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_generator_invariants_property(self, x, r):
        q = build_rate_matrix(ring_spec(r, 2 * r, 0.5 * r), x)
        assert np.abs(q.entries.sum(axis=1)).max() <= 1e-12 * max(1.0, r * max(x, 1.0))
        off = q.entries - np.diag(np.diag(q.entries))
        assert off.min() >= 0.0


class TestMeanRateMatrix:
    def test_monte_carlo_linearity(self, unit_chr2, canonical_dist):
        # the sensitive entries are linear in x, so averaging generators over
        # sampled intensities reproduces the generator at the mean
        n = 20_000
        rng = np.random.default_rng(2024)
        xs = sample(canonical_dist, rng, n)
        averaged = sum(build_rate_matrix(unit_chr2, float(x)).entries for x in xs) / n
        at_sample_mean = build_rate_matrix(unit_chr2, float(xs.mean())).entries
        np.testing.assert_allclose(averaged, at_sample_mean, atol=1e-11)
        at_analytic_mean = build_rate_matrix(unit_chr2, canonical_dist.mu).entries
        se = 4.0 * math.sqrt(canonical_dist.sigma2 / n)
        assert np.abs(averaged - at_analytic_mean).max() < se + 1e-12


class TestTransitionMatrix:
    def test_unit_ring_step(self, unit_chr2):
        q = build_rate_matrix(unit_chr2, 1.0)
        p = transition_matrix(q, 0.1)
        expected = np.array([[0.9, 0.1, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 0.9]])
        np.testing.assert_allclose(p.entries, expected, atol=1e-15)

    def test_zero_step_is_identity(self, unit_chr2):
        q = build_rate_matrix(unit_chr2, 1.0)
        np.testing.assert_array_equal(transition_matrix(q, 0.0).entries, np.eye(3))

    def test_step_too_large(self):
        spec = ring_spec(1.0, 20.0, 1.0)
        q = build_rate_matrix(spec, 1.0)  # q[1][1] = -20
        with pytest.raises(StepTooLarge):
            transition_matrix(q, 0.1)

    @given(dt=st.floats(0.0, 0.2))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one_property(self, dt):
        q = build_rate_matrix(ring_spec(2.0, 1.5, 3.0), 1.2)
        p = transition_matrix(q, dt)
        assert np.abs(p.entries.sum(axis=1) - 1.0).max() < 1e-12


class TestSteadyState:
    def test_symmetric_ring(self, unit_chr2):
        q = build_rate_matrix(unit_chr2, 1.0)
        pi = steady_state(transition_matrix(q, 0.1))
        np.testing.assert_allclose(pi.probabilities, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_unidirectional_ring_exit_rates(self):
        # FROZEN oracle: cycle stationary mass proportional to 1/exit, so
        # exits (1, 2, 2) give (0.5, 0.25, 0.25); confirmed by power iteration.
        spec = ring_spec(1.0, 2.0, 2.0)
        p = transition_matrix(build_rate_matrix(spec, 1.0), 0.01)
        pi = steady_state(p)
        np.testing.assert_allclose(pi.probabilities, [0.5, 0.25, 0.25], atol=1e-12)
        oracle = power_iteration_pi(p.entries)
        np.testing.assert_allclose(pi.probabilities, oracle, atol=1e-10)

    def test_two_state_symmetric(self):
        spec = ReceptorSpec(
            "pair",
            ("A", "B"),
            (Transition(0, 1, 3.0, True), Transition(1, 0, 3.0, False)),
        )
        pi = steady_state(transition_matrix(build_rate_matrix(spec, 1.0), 0.05))
        np.testing.assert_allclose(pi.probabilities, [0.5, 0.5], atol=1e-12)

    def test_residual_invariant(self):
        spec = ring_spec(0.7, 2.3, 1.1)
        p = transition_matrix(build_rate_matrix(spec, 1.4), 0.02)
        pi = steady_state(p)
        assert np.abs(pi.probabilities @ p.entries - pi.probabilities).max() < 1e-10
        assert abs(pi.probabilities.sum() - 1.0) < 1e-12

    def test_step_invariance(self):
        spec = ring_spec(0.7, 2.3, 1.1)
        q = build_rate_matrix(spec, 1.4)
        pi_a = steady_state(transition_matrix(q, 0.01)).probabilities
        pi_b = steady_state(transition_matrix(q, 0.37)).probabilities
        np.testing.assert_allclose(pi_a, pi_b, atol=1e-9)

    def test_not_irreducible_disconnected(self):
        spec = ReceptorSpec(
            "split",
            ("A", "B", "C", "D"),
            (
                Transition(0, 1, 1.0, True),
                Transition(1, 0, 1.0, False),
                Transition(2, 3, 1.0, False),
                Transition(3, 2, 1.0, False),
            ),
        )
        p = transition_matrix(build_rate_matrix(spec, 1.0), 0.1)
        with pytest.raises(NotIrreducible):
            steady_state(p)

    def test_not_irreducible_identity(self, unit_chr2):
        q = build_rate_matrix(unit_chr2, 1.0)
        with pytest.raises(NotIrreducible):
            steady_state(transition_matrix(q, 0.0))

    def test_dark_chain_not_irreducible(self, unit_chr2):
        with pytest.raises(NotIrreducible):
            stationary_distribution(unit_chr2, 0.0)

    def test_connectivity_matches_dfs_oracle(self):
        rng = np.random.default_rng(2024)
        verdicts = set()
        for k in range(2, 9):
            for density in (0.15, 0.3, 0.5, 0.8):
                for _ in range(150):
                    adjacency = rng.random((k, k)) < density
                    np.fill_diagonal(adjacency, False)
                    expected = dfs_strongly_connected(adjacency)
                    assert _strongly_connected(adjacency) is expected, adjacency
                    verdicts.add(expected)
        assert verdicts == {True, False}


def four_state_two_sensitive():
    """Four states with sensitive exits from rows 0 and 2, plus a back edge."""
    return ReceptorSpec(
        name="four",
        states=("A", "B", "C", "D"),
        transitions=(
            Transition(0, 1, 1.3, True),
            Transition(1, 2, 0.7, False),
            Transition(2, 3, 2.1, True),
            Transition(3, 0, 0.9, False),
            Transition(2, 1, 0.4, False),
        ),
    )


def assembled_generator(spec):
    """(base, slope) written entry by entry from the transition list, each
    diagonal the negated sum of its row's off-diagonal rates."""
    k = spec.n_states
    base, slope = np.zeros((k, k)), np.zeros((k, k))
    for t in spec.transitions:
        (slope if t.sensitive else base)[t.source, t.target] = t.rate
    for m in (base, slope):
        np.fill_diagonal(m, -m.sum(axis=1))
    return base, slope


AFFINE_SPECS = [chr2_skeleton(), ring_spec(0.7, 2.3, 1.1), four_state_two_sensitive(),
                five_state_receptor()]


class TestAffinePair:
    """The receptor builds ``base`` and ``slope`` once, as derived fields."""

    @pytest.mark.parametrize("spec", AFFINE_SPECS)
    def test_equals_generator_assembled_from_transitions(self, spec):
        base, slope = assembled_generator(spec)
        np.testing.assert_array_equal(spec.base, base)
        np.testing.assert_array_equal(spec.slope, slope)

    def test_read_only(self, unit_chr2):
        with pytest.raises(ValueError):
            unit_chr2.base[1, 2] = 5.0
        with pytest.raises(ValueError):
            unit_chr2.slope[0, 1] = 5.0

    def test_outside_equality_hash_and_repr(self):
        first, second = four_state_two_sensitive(), four_state_two_sensitive()
        assert first.base is not second.base
        assert first == second and hash(first) == hash(second)
        assert "base" not in repr(first) and "slope" not in repr(first)


class TestStationaryDistribution:
    @pytest.mark.parametrize(
        "spec, mean_x",
        [
            (chr2_skeleton(), 1.0),
            (chr2_skeleton(), 1.0000011313117316),
            (ring_spec(0.7, 2.3, 1.1), 1.4),
            (four_state_two_sensitive(), 0.37),
            (four_state_two_sensitive(), 3.9),
        ],
    )
    def test_bit_identical_to_typed_pipeline(self, spec, mean_x):
        reference = steady_state(build_rate_matrix(spec, mean_x)).probabilities
        direct = stationary_distribution(spec, mean_x)
        assert direct.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("mean_x", [-0.5, math.nan, math.inf])
    def test_rejects_invalid_mean(self, unit_chr2, mean_x):
        # every repeat raises again
        for _ in range(3):
            with pytest.raises(ValidationError):
                stationary_distribution(unit_chr2, mean_x)

    def test_repeat_returns_identical_probabilities(self):
        spec = four_state_two_sensitive()
        first = stationary_distribution(spec, 0.37).tobytes()
        assert stationary_distribution(spec, 0.37).tobytes() == first
        assert stationary_distribution(spec, 0.37).tobytes() == first


def unit_chr2_closed_form(mean_x: float) -> tuple[float, float, float]:
    """pi = (1, m, m) / (1 + 2m) of the unit ChR2 skeleton at mean m, each
    component the correctly rounded float of the exact rational."""
    m = Fraction(mean_x)
    total = 1 + 2 * m
    return float(1 / total), float(m / total), float(m / total)


class TestClosedFormStationary:
    """The mean chain of the unit ChR2 skeleton against pi = (1, m, m) / (1 + 2m).

    The balance equations of the unit cycle C1 -(m)-> O2 -(1)-> C3 -(1)-> C1
    give pi[O2] = pi[C3] = m * pi[C1].  A float mean is an exact rational, so
    ``Fraction`` arithmetic gives the closed form exactly; FROZEN mpmath
    values (50 digits) confirm it at a few means.
    """

    @pytest.mark.parametrize(
        "mean_x, first, rest",
        [
            (1e-8, 0.9999999800000005, 9.999999800000003e-09),
            (0.02, 0.9615384615384616, 0.019230769230769232),
            (2.0, 0.2, 0.4),
            (1e16, 5e-17, 0.5),
            (1e80, 5e-81, 0.5),
        ],
    )
    def test_closed_form_equals_mpmath(self, mean_x, first, rest):
        assert unit_chr2_closed_form(mean_x) == (first, rest, rest)

    @pytest.mark.parametrize(
        "means",
        [np.linspace(0.02, 2.0, 2000).tolist(), np.logspace(-8.0, 80.0, 89).tolist()],
        ids=["grid", "wide"],
    )
    def test_every_component_within_1e15(self, unit_chr2, means):
        pi, gain, errors = mean_chain_rows(unit_chr2, means)
        assert errors == [None] * len(means)
        exact = np.array([unit_chr2_closed_form(mean_x) for mean_x in means])
        assert (np.abs(pi - exact) <= 1e-15 * exact).all()
        assert np.isfinite(gain).all()

    def test_all_sensitive_receptor_at_mean_zero(self):
        # every rate scales with the mean, so at mean 0 no transition is active
        spec = ReceptorSpec(
            "lit", ("A", "B", "C"), tuple(Transition(i, (i + 1) % 3, 1.0 + i, True) for i in range(3))
        )
        pi, gain, errors = mean_chain_rows(spec, [0.0, 1.0])
        assert isinstance(errors[0], NotIrreducible) and errors[1] is None
        assert np.isnan(pi[0]).all() and np.isnan(gain[0])
        with pytest.raises(NotIrreducible):
            stationary_distribution(spec, 0.0)


class TestMeanChainRows:
    """All means solved as one stack, each row as its own one-array solve."""

    @pytest.mark.parametrize("spec", AFFINE_SPECS, ids=lambda spec: spec.name)
    def test_stack_equals_one_array_solves(self, spec):
        rng = np.random.default_rng(11)
        means = rng.uniform(1e-3, 5.0, 400).tolist() + [1.0, 1.0000011313117316, 0.37]
        pis, gains, errors = mean_chain_rows(spec, means)
        assert errors == [None] * len(means)
        for pi, gain, mean_x in zip(pis, gains, means):
            assert pi.tobytes() == stationary_distribution(spec, mean_x).tobytes()
            assert pi.tobytes() == mean_chain_stationary(spec, mean_x).tobytes()
            assert gain == sensitive_gain(spec, pi)
            assert not pi.flags.writeable

    @pytest.mark.parametrize("spec", AFFINE_SPECS, ids=lambda spec: spec.name)
    def test_gain_pass_equals_float_by_float_sums(self, spec):
        means = np.random.default_rng(12).uniform(1e-3, 5.0, 300).tolist()
        pis, gains, _ = mean_chain_rows(spec, means)
        for pi, gain in zip(pis, gains):
            assert gain == scalar_gain(spec, pi) == sensitive_gain(spec, pi)
            assert gain == sensitive_gain(spec, pi.tolist())

    def test_bad_means_fail_alone(self, unit_chr2):
        means = [0.5, -0.5, 1.5, math.nan, 0.0, 2.5]
        pi, gain, errors = mean_chain_rows(unit_chr2, means)
        assert [type(error).__name__ for error in errors] == [
            "NoneType", "ValidationError", "NoneType",
            "ValidationError", "NotIrreducible", "NoneType",
        ]
        for i in (0, 2, 5):
            assert pi[i].tobytes() == mean_chain_stationary(unit_chr2, means[i]).tobytes()
        for i in (1, 3, 4):
            assert np.isnan(pi[i]).all() and np.isnan(gain[i])

    @pytest.mark.parametrize(
        "method, error, fragment",
        [
            (mir_quadrature, ValidationError, "has a rate past the float range"),
            (
                lambda spec, dist: mir_bounds(spec, dist, 2),
                ValidationError,
                "has a rate past the float range",
            ),
            # the step kernel at x = b overflows first
            (
                lambda spec, dist: mir_discrete(spec, dist, 1e-3),
                StepTooLarge,
                "makes an entry of I + Q*dt equal inf",
            ),
        ],
        ids=["quadrature", "bounds", "discrete"],
    )
    def test_overflowing_mean_chain_is_an_error(self, method, error, fragment):
        # q12 * mu = 1e309 is past the float range: an infinite generator
        # entry once solved to pi = (0, 0, 1) and a rate of 0 bits/s, where
        # the true gain is about 0.72
        with pytest.raises(MirError) as info:
            method(chr2_skeleton(q12=1e308), TruncatedGaussianSpec(10.0, 1.0, 5.0, 15.0))
        assert type(info.value) is error and fragment in str(info.value)

    def test_rate_near_the_float_ceiling_keeps_its_closed_form(self, unit_chr2):
        # 2 * max|q_ii| = 2e308 is past the float range; the residual check
        # forms its scale without it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pi = stationary_distribution(unit_chr2, 1e308)
        # pi_C1 * x = pi_O2 = pi_C3 on the unit ring
        np.testing.assert_allclose(pi, [0.5 / 1e308, 0.5, 0.5], rtol=1e-12, atol=0.0)

    def test_stored_error_raises_with_a_fresh_traceback(self, unit_chr2):
        # every method reading a row raises its stored error again; each raise
        # must not carry the frames of the raises before it
        _, _, (error,) = mean_chain_rows(unit_chr2, [-0.5])
        lengths = []
        for _ in range(3):
            with pytest.raises(ValidationError) as info:
                unwrap(error)
            lengths.append(len(traceback.extract_tb(info.value.__traceback__)))
        assert lengths == [lengths[0]] * 3

    def test_each_check_runs_per_array(self):
        # each generator is P - I of a step matrix P, so the residual
        # |pi @ q| / (2 max|q_ii|) reads |pi @ P - pi| where max|q_ii| = 0.5
        good = np.array([[0.75, 0.25], [0.5, 0.5]]) - np.eye(2)
        other = np.array([[0.2, 0.8], [0.4, 0.6]]) - np.eye(2)
        stack = np.array([
            good,
            np.zeros((2, 2)),  # P = I, no positive off-diagonal: not strongly connected
            [[0.5, 0.5], [0.5, -0.5]],  # connected, but its augmented system is singular
            [[-0.5, 0.6], [0.5, -0.5]],  # solvable, with residual 0.05
            other,
        ])
        pi, errors = _solve_stationary(stack, [None] * len(stack))
        assert pi[0].tobytes() == solve_stationary_one(good).tobytes()
        assert pi[4].tobytes() == solve_stationary_one(other).tobytes()
        assert errors[0] is None and errors[4] is None and np.isnan(pi[1:4]).all()
        messages = [str(error) for error in errors[1:4]]
        assert all(isinstance(error, NotIrreducible) for error in errors[1:4])
        assert "not strongly connected" in messages[0]
        assert "singular" in messages[1]
        assert "residual 5.00e-02" in messages[2]

    def test_rhs_has_the_stack_shape(self, monkeypatch, unit_chr2):
        # numpy 1.x reads an rhs with one dimension less than the system as
        # a stack of vectors and numpy 2.x as one matrix; an rhs with the
        # system's dimension means the same under both
        solve = np.linalg.solve
        shapes = []

        def solve_same_ndim(a, b):
            shapes.append((a.shape, b.shape))
            assert b.ndim == a.ndim and b.shape[:-1] == a.shape[:-1]
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve_same_ndim)
        stack = np.array([
            [[-0.25, 0.25], [0.5, -0.5]],
            [[0.5, 0.5], [0.5, -0.5]],  # singular: takes the per-array fallback
        ])
        _, errors = _solve_stationary(stack, [None] * len(stack))
        assert isinstance(errors[1], NotIrreducible)
        assert mean_chain_rows(unit_chr2, [0.5, 1.5])[0].shape == (2, 3)
        assert len(shapes) == 4  # stack, two fallbacks, then the chr2 stack


class TestStepKernel:
    @pytest.mark.parametrize("spec", [chr2_skeleton(), four_state_two_sensitive()])
    def test_matches_transition_matrix(self, spec):
        b, mu, dt = 2.0, 1.0000011313117316, 1e-3
        const, lin = step_kernel(spec, dt, b)
        for x in (0.0, mu, b):
            reference = transition_matrix(build_rate_matrix(spec, x), dt).entries
            np.testing.assert_allclose(const + x * lin, reference, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("spec", [chr2_skeleton(), four_state_two_sensitive()])
    def test_admissibility_matches_transition_matrix_at_the_edge(self, spec):
        # step_kernel forms P(b) with the typed pipeline's arithmetic, so the
        # two accept and reject the same steps, ulp by ulp around the limit
        b = 2.0
        limit = 1.0 / float(np.abs(np.diag(build_rate_matrix(spec, b).entries)).max())
        dt = limit
        for _ in range(8):
            dt = np.nextafter(dt, 0.0)
        verdicts = set()
        for _ in range(16):
            dt = float(np.nextafter(dt, 1.0))
            try:
                transition_matrix(build_rate_matrix(spec, b), dt)
                expected = True
            except StepTooLarge:
                expected = False
            try:
                step_kernel(spec, dt, b)
                admitted = True
            except StepTooLarge:
                admitted = False
            assert admitted is expected, dt
            verdicts.add(admitted)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("spec", [chr2_skeleton(), four_state_two_sensitive()])
    def test_step_too_large_just_above_limit(self, spec):
        b = 2.0
        limit = 1.0 / float(np.abs(np.diag(build_rate_matrix(spec, b).entries)).max())
        step_kernel(spec, limit * (1.0 - 1e-9), b)
        with pytest.raises(StepTooLarge):
            step_kernel(spec, limit * (1.0 + 1e-9), b)


class TestSensitiveGain:
    def test_unit_ring_frozen(self, unit_chr2):
        # one sensitive transition out of S1 at unit mean intensity:
        # g = (1/3) * 1 / ln 2
        pi = stationary_distribution(unit_chr2, 1.0)
        g = sensitive_gain(unit_chr2, pi)
        assert g == pytest.approx(1.0 / (3.0 * math.log(2.0)), rel=1e-12)
        assert g == pytest.approx(0.4808983469629878, rel=1e-12)

    def test_single_term_definition(self):
        spec = ring_spec(2.5, 1.0, 1.0)
        pi = stationary_distribution(spec, 0.8)
        g = sensitive_gain(spec, pi)
        assert g == pytest.approx(pi[0] * 2.5 / math.log(2.0), rel=1e-14)

    def test_gain_positive(self):
        # sensitive set can never be empty, so g > 0 for active chains
        rng = np.random.default_rng(11)
        for _ in range(10):
            rates = rng.uniform(0.2, 3.0, size=3)
            spec = ring_spec(*rates)
            pi = stationary_distribution(spec, float(rng.uniform(0.1, 2.0)))
            assert sensitive_gain(spec, pi) > 0.0


class TestTypeValidation:
    def test_rate_matrix_rejects_bad_rows(self):
        with pytest.raises(ValidationError):
            RateMatrix(dim=2, entries=np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_rate_matrix_rejects_negative_offdiag(self):
        with pytest.raises(ValidationError):
            RateMatrix(dim=2, entries=np.array([[1.0, -1.0], [0.0, 0.0]]))

    def test_entries_frozen(self, unit_chr2):
        q = build_rate_matrix(unit_chr2, 1.0)
        with pytest.raises(ValueError):
            q.entries[0, 0] = 5.0
