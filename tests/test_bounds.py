"""Jensen-gap bound tests.

FROZEN gap-bound values come from the closed-form endpoint expressions
evaluated with plain math against scipy-quad central moments, independent of
the package's moment recursion.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transduction_mir import (
    DegenerateArgument,
    MirError,
    ReceptorSpec,
    Transition,
    TruncatedGaussianSpec,
    ValidationError,
    chr2_skeleton,
    h_s,
    jensen_gap,
    jensen_gap_bounds,
    load_receptor,
    mir_bounds,
    mir_quadrature,
)
from transduction_mir.bounds import _bounds_rows
from transduction_mir.truncgauss import _columns
from transduction_mir.receptor import mean_chain_rows
from conftest import random_valid_dist
from oracles import h_s_limit, scalar_gap_bounds

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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


@pytest.fixture(scope="module")
def chr2_receptor():
    """The shipped ChR2 receptor, as the shipped sweeps read it."""
    return load_receptor(CONFIG_DIR / "chr2_receptor.json")


def _grid(mu_bars, sigma_bars, a, b):
    """Every valid distribution of a (mu_bar, sigma_bar) grid on [a, b]."""
    dists = []
    for mu_bar in mu_bars:
        for sigma_bar in sigma_bars:
            try:
                dists.append(TruncatedGaussianSpec(float(mu_bar), float(sigma_bar), a, b))
            except ValidationError:
                pass
    return dists


GRIDS = {
    "capacity": lambda: _grid(np.linspace(0.05, 2.0, 50), np.linspace(0.1, 3.0, 50), 0.02, 2.0),
    "panel": lambda: _grid(np.linspace(0.2, 1.8, 8), np.linspace(0.1, 1.0, 8), 1e-5, 2.0),
    "wide": lambda: _grid(np.linspace(-3.0, 5.0, 30), np.linspace(0.01, 3.0, 30), 1e-5, 2.0),
}

SPLIT = ReceptorSpec(
    "split",
    ("A", "B", "C", "D"),
    (
        Transition(0, 1, 1.0, True),
        Transition(1, 0, 1.0, False),
        Transition(2, 3, 1.0, False),
        Transition(3, 2, 1.0, False),
    ),
)

#: (receptor, distribution, the error a one-point call raises at s=2 and at
#: s=4); rows that fail at each stage of the kernel, in its check order
FAILING = [
    # the mean sits 8e-13 above a: h(a) is degenerate
    (None, (1e-5, 1e-12, 1e-5, 2.0), "DegenerateArgument", "DegenerateArgument"),
    # a narrow window breaks the recursion's support bound
    (None, (3.365807324814968, 1.0634951824538557, 0.0015116004714033071,
            0.0015129628060781403), "ValidationError", "ValidationError"),
    # central[2] disagrees with the closed-form variance
    (None, (2.0, 1e-11, 1e-5, 2.0), "ValidationError", "ValidationError"),
    # the mean chain has two recurrent classes
    (SPLIT, (1.0, 0.5, 1e-5, 2.0), "NotIrreducible", "NotIrreducible"),
    # the s=4 bounds cross on a narrow window
    (None, (-4.842012532672418, 2.562038689645731, 0.18755529632959123,
            0.19085944706556), None, "ValidationError"),
]


def _outcome(call):
    """A call's result as bytes-exact text: its BoundPair fields or its error."""
    try:
        pair = call()
    except MirError as exc:
        return type(exc).__name__, str(exc)
    return repr((pair.lower, pair.upper, pair.gap_bounds_nats, dict(pair.diagnostics)))


def _row_outcome(rows, i, dist):
    """Row i of a ``_bounds_rows`` result in the form of ``_outcome``."""
    *columns, errors = rows
    if errors[i] is not None:
        return type(errors[i]).__name__, str(errors[i])
    gap_lower, gap_upper, mu_s, gain = (float(column[i]) for column in columns)
    diagnostics = {"gain": gain, "mu": dist.mu, "sigma2": dist.sigma2, "central_s": mu_s}
    return repr((gain * gap_lower, gain * gap_upper, (gap_lower, gap_upper), diagnostics))


class TestBoundsRows:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_rows_equal_one_point_calls(self, name, chr2_receptor):
        dists = GRIDS[name]()
        chains = mean_chain_rows(chr2_receptor, [d.mu for d in dists])
        for s in (2, 4):
            rows = _bounds_rows(_columns(dists), s, chains)
            *columns, errors = rows
            assert len(errors) == len(dists)
            assert all(column.shape == (len(dists),) for column in columns)
            for i, dist in enumerate(dists):
                assert _row_outcome(rows, i, dist) == _outcome(
                    lambda: mir_bounds(chr2_receptor, dist, s)
                )
                if errors[i] is None:
                    # the scalar formulas, float by float
                    assert tuple(float(c[i]) for c in columns[:3]) == scalar_gap_bounds(dist, s)
                else:
                    assert all(math.isnan(column[i]) for column in columns)

    def test_failing_rows_keep_the_one_point_error(self, chr2_receptor):
        # failing rows interleaved with good ones, each against its own call
        good = GRIDS["panel"]()[:6]
        cases = [(chr2_receptor, d) for d in good[:3]]
        cases += [(receptor or chr2_receptor, TruncatedGaussianSpec(*args)) for receptor, args, *_ in FAILING]
        cases += [(chr2_receptor, d) for d in good[3:]]
        dists = [dist for _, dist in cases]
        # the receptors differ in their state count, so no pi column; the
        # bounds read only the gains and the errors
        one = [mean_chain_rows(receptor, [dist.mu]) for receptor, dist in cases]
        chains = (None, np.array([gain[0] for _, gain, _ in one]), [e[0] for *_, e in one])
        for column, s in ((2, 2), (3, 4)):
            rows = _bounds_rows(_columns(dists), s, chains)
            for i, (receptor, dist) in enumerate(cases):
                expected = _outcome(lambda: mir_bounds(receptor, dist, s))
                assert _row_outcome(rows, i, dist) == expected
            expected = [failing[column] for failing in FAILING]
            got = [None if e is None else type(e).__name__ for e in rows[-1][3:-3]]
            assert got == expected

    def test_gap_rows_without_chains(self):
        dists = GRIDS["panel"]() + [TruncatedGaussianSpec(1e-5, 1e-12, 1e-5, 2.0)]
        for s in (2, 4):
            gap_lower, gap_upper, _, gain, errors = _bounds_rows(_columns(dists), s)
            for i, (dist, error) in enumerate(zip(dists, errors)):
                assert math.isnan(gain[i])
                try:
                    expected = repr(jensen_gap_bounds(dist, s))
                except MirError as exc:
                    assert (type(error), str(error)) == (type(exc), str(exc))
                    continue
                assert repr((float(gap_lower[i]), float(gap_upper[i]))) == expected

    def test_no_rows(self, chr2_receptor):
        *columns, errors = _bounds_rows(_columns([]), 2, mean_chain_rows(chr2_receptor, []))
        assert [column.shape for column in columns] == [(0,)] * 4
        assert errors == []
        with pytest.raises(ValidationError):
            _bounds_rows(_columns([]), 3, mean_chain_rows(chr2_receptor, []))


class TestWideWindows:
    """b**s and b**m overflow on very wide windows; the bounds still hold."""

    @pytest.mark.parametrize("s", [2, 4])
    def test_bounds_sandwich_the_rate_at_b_1e80(self, s):
        spec = chr2_skeleton()
        dist = TruncatedGaussianSpec(1.0, 0.5, 1e-5, 1e80)
        pair = mir_bounds(spec, dist, s)
        exact = mir_quadrature(spec, dist).value
        assert 0.0 <= pair.lower <= exact <= pair.upper < 1.0
        # the window's mass beyond x = 10 is below e^-160: the same rate
        near = mir_quadrature(spec, TruncatedGaussianSpec(1.0, 0.5, 1e-5, 10.0)).value
        assert exact == pytest.approx(near, rel=1e-12)
