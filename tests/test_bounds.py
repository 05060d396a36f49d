"""Jensen-gap bound tests.

FROZEN gap-bound values come from the closed-form endpoint expressions
evaluated with plain math against scipy-quad central moments, independent of
the package's moment recursion.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transduction_mir import (
    DegenerateArgument,
    TruncatedGaussianSpec,
    ValidationError,
    chr2_skeleton,
    h_s,
    jensen_gap,
    jensen_gap_bounds,
    mir_bounds,
    mir_quadrature,
)
from conftest import random_valid_dist
from oracles import h_s_limit

# FROZEN for the canonical dist (mu_bar=1, sigma_bar=0.5, [1e-5, 2]):
# gap bounds in nats from the endpoint formulas with quad moments.
CANONICAL_S2 = (0.0747225733840505, 0.19341385858455643)
CANONICAL_S4 = (0.1014046283566116, 0.12621194659061524)


class TestHs:
    def test_taylor_limit_s2(self):
        mu = 0.8
        near = h_s(mu + 1e-4, mu, 2)
        assert near == pytest.approx(h_s_limit(mu, 2), rel=1e-3)
        assert h_s_limit(mu, 2) == 1.0 / (2 * mu)

    def test_taylor_limit_s4(self):
        mu = 1.3
        near = h_s(mu + 1e-3, mu, 4)
        assert near == pytest.approx(h_s_limit(mu, 4), rel=1e-2)
        assert h_s_limit(mu, 4) == pytest.approx(1.0 / (12 * mu**3))

    def test_degenerate_argument(self):
        with pytest.raises(DegenerateArgument):
            h_s(1.0 + 1e-12, 1.0, 2)

    def test_rejects_bad_s(self):
        with pytest.raises(ValidationError):
            h_s(0.5, 1.0, 3)

    @given(
        data=st.tuples(
            st.floats(0.05, 1.9), st.floats(0.05, 1.9), st.floats(0.1, 1.9)
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_s2_strictly_decreasing(self, data):
        x1, x2, mu = sorted(data[:2]) + [data[2]]
        if x2 - x1 < 1e-6 or min(abs(x1 - mu), abs(x2 - mu)) < 1e-6:
            return
        assert h_s(x1, mu, 2) > h_s(x2, mu, 2)

    def test_s4_endpoint_ordering(self):
        # h decreasing means h(a) >= h(b) for any a < b off the mean
        rng = np.random.default_rng(55)
        for _ in range(20):
            a = rng.uniform(0.01, 0.8)
            b = a + rng.uniform(0.2, 1.2)
            mu = rng.uniform(a + 1e-3, b - 1e-3)
            assert h_s(a, mu, 4) >= h_s(b, mu, 4)

    def test_zero_endpoint_finite(self):
        for s in (2, 4):
            assert math.isfinite(h_s(0.0, 0.7, s))


class TestGapBounds:
    def test_canonical_s2_frozen(self, canonical_dist):
        lower, upper = jensen_gap_bounds(canonical_dist, 2)
        assert lower == pytest.approx(CANONICAL_S2[0], rel=1e-10)
        assert upper == pytest.approx(CANONICAL_S2[1], rel=1e-10)

    def test_canonical_s4_frozen(self, canonical_dist):
        lower, upper = jensen_gap_bounds(canonical_dist, 4)
        assert lower == pytest.approx(CANONICAL_S4[0], rel=1e-9)
        assert upper == pytest.approx(CANONICAL_S4[1], rel=1e-9)

    def test_s2_closed_form(self, canonical_dist):
        # endpoint formula written out longhand as an independent check
        mu, s2 = canonical_dist.mu, canonical_dist.sigma2
        b = canonical_dist.b

        def h2(x):
            return (x * math.log(x) - mu * math.log(mu)) / (x - mu) ** 2 - (
                1 + math.log(mu)
            ) / (x - mu)

        lower, _ = jensen_gap_bounds(canonical_dist, 2)
        assert lower == pytest.approx(h2(b) * s2, rel=1e-12)

    def test_degenerate_bounds_collapse(self):
        dist = TruncatedGaussianSpec(1.0, 1e-9, 1e-5, 2.0)
        for s in (2, 4):
            lower, upper = jensen_gap_bounds(dist, s)
            assert abs(lower) < 1e-12 and abs(upper) < 1e-12

    def test_sandwiches_true_gap(self, canonical_dist):
        gap = jensen_gap(canonical_dist)
        for s in (2, 4):
            lower, upper = jensen_gap_bounds(canonical_dist, s)
            assert lower - 1e-9 <= gap <= upper + 1e-9

    def test_s4_tighter_along_mean_slice(self):
        for mu_bar in (0.4, 0.8, 1.2, 1.6):
            dist = TruncatedGaussianSpec(mu_bar, 0.5, 1e-5, 2.0)
            w2 = np.diff(jensen_gap_bounds(dist, 2))[0]
            w4 = np.diff(jensen_gap_bounds(dist, 4))[0]
            assert w4 <= w2

    def test_width_shrinks_quadratically_s2(self):
        # both s=2 bounds are proportional to sigma^2
        widths = []
        for sigma_bar in (0.2, 0.1, 0.05):
            dist = TruncatedGaussianSpec(1.0, sigma_bar, 1e-5, 2.0)
            lower, upper = jensen_gap_bounds(dist, 2)
            widths.append((upper - lower) / dist.sigma2)
        assert max(widths) / min(widths) < 1.05


class TestMirBounds:
    def test_linear_in_gain(self, canonical_dist):
        base = mir_bounds(chr2_skeleton(), canonical_dist, 2)
        # doubling every rate doubles g (pi is scale-free) and so both bounds
        doubled = mir_bounds(chr2_skeleton(2.0, 2.0, 2.0), canonical_dist, 2)
        assert doubled.lower == pytest.approx(2 * base.lower, rel=1e-12)
        assert doubled.upper == pytest.approx(2 * base.upper, rel=1e-12)

    def test_sandwich_on_grid(self, unit_chr2):
        for mu_bar in np.linspace(0.3, 1.7, 5):
            for sigma_bar in np.linspace(0.15, 0.9, 5):
                dist = TruncatedGaussianSpec(float(mu_bar), float(sigma_bar), 1e-5, 2.0)
                exact = mir_quadrature(unit_chr2, dist).value
                for s in (2, 4):
                    pair = mir_bounds(unit_chr2, dist, s)
                    assert pair.lower - 1e-9 <= exact <= pair.upper + 1e-9

    def test_s2_lower_nonnegative(self, unit_chr2):
        rng = np.random.default_rng(42)
        for _ in range(15):
            dist = random_valid_dist(rng)
            assert mir_bounds(unit_chr2, dist, 2).lower >= -1e-9

    def test_gap_bounds_recorded(self, unit_chr2, canonical_dist):
        pair = mir_bounds(unit_chr2, canonical_dist, 2)
        g = pair.lower / pair.gap_bounds_nats[0]
        assert pair.upper == pytest.approx(g * pair.gap_bounds_nats[1], rel=1e-12)

    def test_rejects_unsupported_order(self, unit_chr2, canonical_dist):
        with pytest.raises(ValidationError):
            mir_bounds(unit_chr2, canonical_dist, 3)
