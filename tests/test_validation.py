"""Contract tests: constructor validation and error paths across the package."""

import json
import math

import numpy as np
import pytest

from transduction_mir import (
    BoundPair,
    ConfigError,
    DomainError,
    GridAxis,
    McEstimate,
    MirError,
    MirResult,
    MomentTable,
    OrderTooHigh,
    SweepConfig,
    Trajectory,
    ValidationError,
    chr2_skeleton,
    h_s,
    jensen_gap_bounds,
    load_receptor,
    mir_series,
    raw_moments,
    run_sweep,
    sensitive_gain,
    shifted_moment_vector,
    simulate,
    stationary_distribution,
    xlnx,
)
from transduction_mir.errors import live_rows, merge_rows
from oracles import (
    RateMatrix,
    SteadyState,
    TransitionMatrix,
    build_rate_matrix,
    density,
    moments_about,
    scale,
    steady_state,
    transition_matrix,
)


class TestReceptorLoader:
    def test_load_receptor_file(self, tmp_path, unit_chr2):
        path = tmp_path / "receptor.json"
        path.write_text(json.dumps(unit_chr2.to_mapping()))
        assert load_receptor(path) == unit_chr2

    def test_load_rejects_bad_document(self, tmp_path):
        path = tmp_path / "receptor.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(ValidationError):
            load_receptor(path)


class TestMatrixTypes:
    def test_rate_matrix_shape(self):
        with pytest.raises(ValidationError):
            RateMatrix(dim=3, entries=np.zeros((2, 2)))

    def test_transition_matrix_rows(self):
        with pytest.raises(ValidationError):
            TransitionMatrix(dim=2, entries=np.array([[0.5, 0.4], [0.0, 1.0]]), delta_t=0.1)

    def test_transition_matrix_range(self):
        with pytest.raises(ValidationError):
            TransitionMatrix(dim=2, entries=np.array([[1.2, -0.2], [0.0, 1.0]]), delta_t=0.1)

    def test_transition_matrix_negative_step(self, unit_chr2):
        q = build_rate_matrix(unit_chr2, 1.0)
        with pytest.raises(ValidationError):
            transition_matrix(q, -0.1)

    def test_rate_matrix_nonfinite_intensity(self, unit_chr2):
        with pytest.raises(ValidationError):
            build_rate_matrix(unit_chr2, float("nan"))
        with pytest.raises(ValidationError):
            build_rate_matrix(unit_chr2, float("inf"))

    def test_steady_state_vector(self):
        with pytest.raises(ValidationError):
            SteadyState(probabilities=np.array([0.7, 0.7]))
        with pytest.raises(ValidationError):
            SteadyState(probabilities=np.array([1.5, -0.5]))

    def test_sensitive_gain_dimension_mismatch(self, unit_chr2):
        with pytest.raises(ValidationError):
            sensitive_gain(unit_chr2, np.array([0.5, 0.5]))


class TestDistributionContracts:
    def test_density_at_exact_boundaries(self, canonical_dist):
        assert density(canonical_dist, canonical_dist.a) > 0.0
        assert density(canonical_dist, canonical_dist.b) > 0.0

    def test_scale_rejects_nonfinite(self, canonical_dist):
        with pytest.raises(ValidationError):
            scale(canonical_dist, float("inf"))

    def test_moments_about_order_limits(self, canonical_dist):
        with pytest.raises(OrderTooHigh):
            moments_about(canonical_dist, 1.0, 65)
        with pytest.raises(ValidationError):
            moments_about(canonical_dist, 1.0, -1)

    def test_moment_table_contracts(self):
        with pytest.raises(ValidationError):
            MomentTable(raw=np.array([1.0, 0.5]), central=np.array([1.0]), order=1)
        with pytest.raises(ValidationError):
            MomentTable(raw=np.array([0.9, 0.5]), central=np.array([1.0, 0.0]), order=1)
        with pytest.raises(ValidationError):
            MomentTable(raw=np.array([1.0, 0.5]), central=np.array([1.0, 0.3]), order=1)
        # the first central moment vanishes relative to the mean
        MomentTable(raw=np.array([1.0, 1e4]), central=np.array([1.0, 1.8e-12]), order=1)
        with pytest.raises(ValidationError, match="first central moment"):
            MomentTable(raw=np.array([1.0, 1e4]), central=np.array([1.0, 2e-8]), order=1)
        with pytest.raises(ValidationError, match="nan"):
            MomentTable(raw=np.array([1.0, 0.5, np.nan]), central=np.array([1.0, 0.0, np.nan]), order=2)


class TestResultTypes:
    def test_series_result_requires_order(self):
        with pytest.raises(ValidationError):
            MirResult(value=0.1, method="series(10)", gain=1.0, gap_nats=0.1)

    def test_unknown_method_is_rejected(self):
        with pytest.raises(ValidationError, match="unknown method 'trapezoid'"):
            MirResult(value=-1.0, method="trapezoid", gain=1.0, gap_nats=0.1)

    def test_nonnegativity_floor(self):
        with pytest.raises(ValidationError):
            MirResult(value=-1e-6, method="quadrature", gain=1.0, gap_nats=-1e-6)

    def test_decomposition_consistency(self):
        with pytest.raises(ValidationError):
            MirResult(value=0.2, method="quadrature", gain=1.0, gap_nats=0.1)

    def test_bound_pair_ordering(self):
        with pytest.raises(ValidationError):
            BoundPair(lower=0.2, upper=0.1, s=2, gap_bounds_nats=(0.2, 0.1))

    def test_bound_pair_s2_nonnegative(self):
        with pytest.raises(ValidationError):
            BoundPair(lower=-0.01, upper=0.1, s=2, gap_bounds_nats=(-0.01, 0.1))

    def test_bound_pair_s4_may_be_negative(self):
        pair = BoundPair(lower=-0.01, upper=0.1, s=4, gap_bounds_nats=(-0.01, 0.1))
        assert pair.width == pytest.approx(0.11)

    def test_mc_estimate_contracts(self):
        with pytest.raises(ValidationError):
            McEstimate(value=0.1, stderr=-1.0, n=10)
        with pytest.raises(ValidationError):
            McEstimate(value=0.1, stderr=0.0, n=0)

    def test_trajectory_contracts(self):
        with pytest.raises(ValidationError):
            Trajectory(
                delta_t=1e-3,
                initial_state=0,
                states=np.array([0, 1]),
                inputs=np.array([1.0]),
                seed=0,
            )
        with pytest.raises(ValidationError):
            Trajectory(
                delta_t=0.0,
                initial_state=0,
                states=np.array([0]),
                inputs=np.array([1.0]),
                seed=0,
            )


class TestBoundContracts:
    def test_h_s_domain(self):
        with pytest.raises(DomainError):
            h_s(-0.1, 1.0, 2)
        with pytest.raises(DomainError):
            h_s(0.5, 0.0, 2)

    def test_gap_bounds_reject_bad_order(self, canonical_dist):
        with pytest.raises(ValidationError):
            jensen_gap_bounds(canonical_dist, 6)


class TestStationaryHelper:
    def test_matches_explicit_pipeline(self, unit_chr2, canonical_dist):
        direct = stationary_distribution(unit_chr2, canonical_dist.mu)
        q = build_rate_matrix(unit_chr2, canonical_dist.mu)
        explicit = steady_state(transition_matrix(q, 0.01))
        np.testing.assert_allclose(direct, explicit.probabilities, atol=1e-9)

    def test_result_is_a_read_only_vector(self, unit_chr2, canonical_dist):
        # memoised and shared by every method at one input, so never writable
        pi = stationary_distribution(unit_chr2, canonical_dist.mu)
        assert pi.ndim == 1 and pi.dtype == np.float64
        with pytest.raises(ValueError):
            pi[0] = 0.5


def sweep_with(**run):
    """``run_sweep`` on one point of the unit ring with series and Monte
    Carlo selected, so every run parameter is read."""
    axis = GridAxis(1.0, 1.0, 1)
    config = SweepConfig(chr2_skeleton(), 1e-5, 2.0, axis, axis, ("series", "mc"), **run)
    return run_sweep(config)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda d: raw_moments(d, 2.5), ValidationError, "order must be an integer, got 2.5"),
        (
            lambda d: shifted_moment_vector(d, 1.0, 3.0),
            ValidationError,
            "order must be an integer, got 3.0",
        ),
        (
            lambda d: mir_series(chr2_skeleton(), d, 10.0),
            ValidationError,
            "series order must be an integer, got 10.0",
        ),
        (lambda d: h_s(0.5, 1.0, 2.0), ValidationError, "s must be an integer, got 2.0"),
        (
            lambda d: simulate(chr2_skeleton(), d, 1e-3, 1000.5, 1),
            ValidationError,
            "n must be an integer, got 1000.5",
        ),
        (
            lambda d: GridAxis(0.0, 1.0, 2.5).values(),
            ConfigError,
            "grid steps must be an integer, got 2.5",
        ),
        (
            lambda d: sweep_with(series_k=10.5),
            ConfigError,
            "series_k must be an integer, got 10.5",
        ),
        (lambda d: sweep_with(mc_n=1000.5), ConfigError, "mc_n must be an integer, got 1000.5"),
        (lambda d: sweep_with(seed=2.5), ConfigError, "seed must be an integer, got 2.5"),
    ],
    ids=[
        "raw_moments", "shifted_moment_vector", "mir_series", "h_s", "simulate",
        "GridAxis", "series_k", "mc_n", "seed",
    ],
)
def test_counts_given_as_floats_are_rejected(canonical_dist, call, error, message):
    # a float count once reached range() or a numpy shape as a bare TypeError;
    # the CLI converts whole floats from a config before these calls
    with pytest.raises(ValidationError) as info:
        call(canonical_dist)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda d: raw_moments(d, True), ValidationError, "order must be an integer, got True"),
        (
            lambda d: shifted_moment_vector(d, 1.0, True),
            ValidationError,
            "order must be an integer, got True",
        ),
        (
            lambda d: mir_series(chr2_skeleton(), d, True),
            ValidationError,
            "series order must be an integer, got True",
        ),
        (lambda d: h_s(0.5, 1.0, True), ValidationError, "s must be an integer, got True"),
        (
            lambda d: simulate(chr2_skeleton(), d, 1e-3, True, 0),
            ValidationError,
            "n must be an integer, got True",
        ),
        (
            lambda d: GridAxis(0.0, 1.0, True),
            ConfigError,
            "grid steps must be an integer, got True",
        ),
        (lambda d: sweep_with(series_k=True), ConfigError, "series_k must be an integer, got True"),
        (lambda d: sweep_with(mc_n=True), ConfigError, "mc_n must be an integer, got True"),
        (lambda d: sweep_with(seed=False), ConfigError, "seed must be an integer, got False"),
    ],
    ids=[
        "raw_moments", "shifted_moment_vector", "mir_series", "h_s", "simulate",
        "GridAxis", "series_k", "mc_n", "seed",
    ],
)
def test_counts_given_as_bools_are_rejected(canonical_dist, call, error, message):
    # bool is an Integral: True once ran as the count 1 (a 1-point grid, an
    # order-True table) or reached numpy as a bare TypeError
    with pytest.raises(ValidationError) as info:
        call(canonical_dist)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda d: xlnx(math.nan), DomainError, "x*ln(x) requires x >= 0, got nan"),
        (lambda d: xlnx("a"), DomainError, "x*ln(x) requires x >= 0, got 'a'"),
        (
            lambda d: h_s("a", 1.0, 2),
            DomainError,
            "h_s requires finite numbers, got x='a', mu=1.0",
        ),
        (
            lambda d: h_s(0.5, math.nan, 2),
            DomainError,
            "h_s requires finite numbers, got x=0.5, mu=nan",
        ),
        (
            lambda d: shifted_moment_vector(d, "1", 3),
            ValidationError,
            "center must be a finite number, got '1'",
        ),
    ],
    ids=["xlnx-nan", "xlnx-str", "h_s-str", "h_s-nan", "shifted_moment_vector-str"],
)
def test_bad_scalars_raise_typed_errors(canonical_dist, call, error, message):
    # each once returned a silent 0.0 or nan, or raised a bare TypeError or
    # ValueError from numpy or math
    with pytest.raises(MirError) as info:
        call(canonical_dist)
    assert type(info.value) is error and str(info.value) == message


class TestRowErrors:
    """``live_rows`` and ``merge_rows`` against their list-comprehension
    definitions, on mixed, all-None and all-error lists."""

    @staticmethod
    def lists():
        first, second, third = ValidationError("a"), OrderTooHigh("b"), DomainError("c")
        return {
            "mixed": ([None, first, None, second, None], [third, None, None, first, None]),
            "none": ([None] * 5, [None] * 5),
            "errors": ([first, second, third, first, second], [third] * 5),
            "mixed_then_none": ([None, first, None, None, second], [None] * 5),
            "none_then_errors": ([None] * 5, [first, second, third, first, second]),
        }

    @pytest.mark.parametrize("case", ["mixed", "none", "errors", "mixed_then_none", "none_then_errors"])
    def test_against_comprehensions(self, case):
        errors, other = self.lists()[case]
        for rows in (errors, other):
            got = live_rows(rows)
            assert got.dtype == bool and got.tolist() == [e is None for e in rows]
        expected = [f if f is not None else e for f, e in zip(errors, other)]
        merged = merge_rows(errors, other)
        assert len(merged) == len(expected)
        assert all(m is e for m, e in zip(merged, expected))
        # three lists: the first error wins, whichever list holds it
        last = [DomainError("d")] * 5
        expected = [f if f is not None else e for f, e in zip(expected, last)]
        assert all(m is e for m, e in zip(merge_rows(errors, other, last), expected))
        assert merge_rows(errors) == errors and merge_rows(errors) is not errors
        assert live_rows([]).tolist() == [] and merge_rows([], []) == []
