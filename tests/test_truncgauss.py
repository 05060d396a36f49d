"""Truncated Gaussian distribution tests.

Expected values marked FROZEN were computed with scipy.integrate.quad /
scipy.stats.truncnorm oracles, independent of the package's own quadrature
engine and recursion; the oracle code is kept inline where it is cheap.
"""

import json
import math
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from transduction_mir import (
    MirError,
    NoConvergence,
    OrderTooHigh,
    TruncatedGaussianSpec,
    ValidationError,
    expectation,
    sample,
    shifted_moment_vector,
)
from transduction_mir import raw_moments as package_raw_moments
from transduction_mir.mir import _xlnx_vec
from transduction_mir.truncgauss import (
    MIN_TRUNCATION_MASS,
    _columns,
    _gl_nodes,
    _gl_rows,
    _moment_rows,
    _ndtr,
    _panel_edges,
    _powers,
    _shifted_moment_rows,
    _spec_rows,
    expectation_rows,
)
from conftest import random_valid_dist
from oracles import (
    density,
    gl_estimate,
    moments_about,
    scalar_edges,
    scalar_spec_fields,
    scale,
)

ROOT = Path(__file__).resolve().parent.parent

# FROZEN oracle values for the canonical spec (mu_bar=1, sigma_bar=0.5,
# [1e-5, 2]), from adaptive quadrature at 1e-14 tolerance.
CANONICAL_MU = 1.0000011313117316
CANONICAL_SIGMA2 = 0.19343441341687362
CANONICAL_RAW = {
    2: 1.1934366760416169,
    3: 1.580307765490074,
    4: 2.249126320100812,
    5: 3.3769161807499373,
    6: 5.2832882711940545,
    7: 8.538590922955166,
    8: 14.16420215881717,
    9: 24.00109752727233,
    10: 41.38997942970062,
}
CANONICAL_E_XLNX = 0.10748072701789235


def raw_moments(spec, order):
    """Every moment table built in this module verifies itself by quadrature.

    Orders 1..6 of the recursion must match the package's expectation
    engine to 1e-8 relative.
    """
    table = package_raw_moments(spec, order)
    for m in range(1, min(order, 6) + 1):
        ref = expectation(spec, lambda x, _m=m: x**_m)
        assert abs(table.raw[m] - ref) <= 1e-8 * max(abs(ref), 1e-300), (
            f"moment recursion disagrees with quadrature at m={m}: {table.raw[m]} vs {ref}"
        )
    return table


def quad_pdf(spec):
    """Adaptive-quadrature oracle density (plain math, no package code)."""
    z = 0.5 * (math.erf((spec.b - spec.mu_bar) / (spec.sigma_bar * math.sqrt(2)))
               - math.erf((spec.a - spec.mu_bar) / (spec.sigma_bar * math.sqrt(2))))

    def pdf(x):
        u = (x - spec.mu_bar) / spec.sigma_bar
        return math.exp(-0.5 * u * u) / (spec.sigma_bar * math.sqrt(2 * math.pi)) / z

    return pdf


def quad_moment(spec, f):
    pdf = quad_pdf(spec)
    val, _ = integrate.quad(lambda x: f(x) * pdf(x), spec.a, spec.b,
                            epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


class TestSpecConstruction:
    def test_derived_fields(self, canonical_dist):
        assert canonical_dist.alpha == pytest.approx(-1.99998)
        assert canonical_dist.beta == pytest.approx(2.0)
        assert canonical_dist.z == pytest.approx(0.9544986562627147, rel=1e-12)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValidationError):
            TruncatedGaussianSpec(1.0, 0.5, 2.0, 1.0)
        with pytest.raises(ValidationError):
            TruncatedGaussianSpec(1.0, 0.5, -0.1, 1.0)
        with pytest.raises(ValidationError):
            TruncatedGaussianSpec(1.0, 0.5, 1.0, 1.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValidationError):
            TruncatedGaussianSpec(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            TruncatedGaussianSpec(1.0, -0.5, 0.0, 1.0)

    def test_rejects_empty_truncation(self):
        # interval 40+ parent sigmas away keeps ~0 mass
        with pytest.raises(ValidationError):
            TruncatedGaussianSpec(0.0, 0.01, 1.0, 1.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mu_bar", "sigma_bar", "a", "b"])
    def test_rejects_non_finite_parameter(self, field, value):
        params = {"mu_bar": 1.0, "sigma_bar": 0.5, "a": 1e-5, "b": 2.0, field: value}
        with pytest.raises(ValidationError) as info:
            TruncatedGaussianSpec(**params)
        assert str(info.value) == f"{field} must be a finite number, got {value!r}"

    def test_mean_var_within_bounds(self, canonical_dist):
        assert canonical_dist.a <= canonical_dist.mu <= canonical_dist.b
        assert 0.0 < canonical_dist.sigma2 <= canonical_dist.sigma_bar**2


class TestTruncatedMeanVar:
    def test_canonical_frozen(self, canonical_dist):
        mu, sigma2 = canonical_dist.mu, canonical_dist.sigma2
        assert mu == pytest.approx(CANONICAL_MU, rel=1e-12)
        assert sigma2 == pytest.approx(CANONICAL_SIGMA2, rel=1e-12)

    def test_canonical_quadrature_oracle(self, canonical_dist):
        mu_q = quad_moment(canonical_dist, lambda x: x)
        var_q = quad_moment(canonical_dist, lambda x: (x - mu_q) ** 2)
        mu, sigma2 = canonical_dist.mu, canonical_dist.sigma2
        assert mu == pytest.approx(mu_q, abs=1e-11)
        assert sigma2 == pytest.approx(var_q, rel=1e-9)

    def test_symmetric_truncation_keeps_mean(self):
        spec = TruncatedGaussianSpec(1.2, 0.3, 1.2 - 0.7, 1.2 + 0.7)
        assert spec.mu == pytest.approx(1.2, abs=1e-14)

    def test_wide_truncation_recovers_parent(self):
        spec = TruncatedGaussianSpec(10.0, 1.0, 2.0, 18.0)  # +-8 sigma
        assert spec.mu == pytest.approx(10.0, rel=1e-6)
        assert spec.sigma2 == pytest.approx(1.0, rel=1e-6)

    def test_against_scipy_truncnorm(self, canonical_dist):
        tn = stats.truncnorm(canonical_dist.alpha, canonical_dist.beta,
                             loc=canonical_dist.mu_bar, scale=canonical_dist.sigma_bar)
        assert canonical_dist.mu == pytest.approx(tn.mean(), rel=1e-12)
        assert canonical_dist.sigma2 == pytest.approx(tn.var(), rel=1e-12)


class TestFarTail:
    """Windows far in the parent's upper tail, alpha > 0, on sigma_bar=1, [0, 2].

    There ndtr(alpha) rounds toward 1, so the kept mass is formed on the
    reflected tail.  FROZEN values: mpmath at 50 digits, from the closed
    forms with z = ncdf(-alpha) - ncdf(-beta), confirmed by mpmath
    quadrature of the density.
    """

    @pytest.mark.parametrize(
        "mu_bar, mu, sigma2, z",
        [
            (-3.0, 0.28269437994229845, 0.069797566070444930, 1.3496113800582153e-3),
            (-6.0, 0.15848136683995947, 0.023985213408019760, 9.8658702294164071e-10),
            (-7.0, 0.13754543941803794, 0.018261569719006344, 1.2798124310269944e-12),
        ],
    )
    def test_mean_var_mass_against_mpmath(self, mu_bar, mu, sigma2, z):
        spec = TruncatedGaussianSpec(mu_bar, 1.0, 0.0, 2.0)
        assert spec.alpha > 0.0
        np.testing.assert_allclose([spec.mu, spec.sigma2, spec.z], [mu, sigma2, z], rtol=1e-10)

    @pytest.mark.parametrize(
        "mu_bar, moments",
        [
            # mpmath, 50 digits: E[(x-1)^k] for k = 2, 3, 40 on [1e-5, 2]
            (-0.5, (0.9730675627344282253512204, -0.9601326315040438002245263,
                    0.6427863450785679180909323)),
            (2.5, (0.9730868087673915792349861, 0.9601611207523087474931912,
                   0.6430415633244290751111333)),
        ],
    )
    def test_one_sided_series_moments(self, mu_bar, moments):
        # the mass hugs one edge of a window spanning ~24 sigmas; unclipped,
        # the moment quadrature never settled here
        spec = TruncatedGaussianSpec(mu_bar, 0.08475, 1e-5, 2.0)
        assert spec.alpha > 0.0 or spec.beta < 0.0
        got = shifted_moment_vector(spec, 1.0, 40)
        np.testing.assert_allclose(got[[2, 3, 40]], moments, rtol=1e-11)

    def test_one_sided_clip_keeps_high_orders(self):
        # x^64 pdf peaks near 8 sigmas; a clip by the density alone, at
        # sqrt(alpha^2 + 80), cut E[x^64] by 11%.  mpmath, 50 digits.
        spec = TruncatedGaussianSpec(-0.1, 1.0, 0.05, 50.0)
        assert spec.alpha > 0.0
        got = shifted_moment_vector(spec, 0.0, 64)
        np.testing.assert_allclose(
            got[[40, 64]], [1.9167768599944563662236e23, 5.695578988961519641587167e43],
            rtol=1e-11,
        )

    @pytest.mark.parametrize(
        "args, raw, central",
        [
            # mpmath quadrature of the density, 50 digits (confirmed at 130),
            # the central moment about the exact mean
            ((-0.5, 0.08475, 1e-5, 2.0),
             1.1637299416531227256750092374068958225571926080843e-41,
             1.8057405893316245402705981622669427689992737407127e-42),
            ((-0.1, 1.0, 0.05, 50.0),
             5.6955789889615196415871674621547984274356969474779e+43,
             7.7976166449365560676226675842354967624645349486784e+40),
        ],
        ids=["sigma=0.08475", "b=50"],
    )
    def test_order_64_table(self, args, raw, central):
        # the quadrature's order 1 about the mean, exactly 0, moved by 3e-13
        # and 3e-12 between 800 and 1600 nodes, never meeting the 1e-14 floor:
        # the table raised NoConvergence though every order it takes settled
        table = package_raw_moments(TruncatedGaussianSpec(*args), 64)
        assert table.raw[64] == pytest.approx(raw, rel=1e-12)
        assert table.central[64] == pytest.approx(central, rel=1e-12)

    def test_sample_far_tail(self):
        spec = TruncatedGaussianSpec(-7.0, 1.0, 0.0, 2.0)
        n = 100_000
        draws = sample(spec, np.random.default_rng(2027), n)
        assert draws.min() >= spec.a and draws.max() <= spec.b
        assert abs(draws.mean() - spec.mu) < 5 * math.sqrt(spec.sigma2 / n)
        # continuous draws are all distinct; a uniform on [ndtr(7), ndtr(9)]
        # just below 1 can take only about 1.2e4 float values
        assert len(np.unique(draws)) > 0.99 * n


class TestDensity:
    def test_zero_outside_support(self, canonical_dist):
        assert density(canonical_dist, canonical_dist.a - 1e-9) == 0.0
        assert density(canonical_dist, canonical_dist.b + 1e-9) == 0.0
        assert density(canonical_dist, -5.0) == 0.0

    def test_nonnegative_inside(self, canonical_dist):
        xs = np.linspace(canonical_dist.a, canonical_dist.b, 1000)
        assert np.all(density(canonical_dist, xs) >= 0.0)

    def test_integrates_to_one(self, canonical_dist):
        # 200-node Gauss-Legendre oracle, straight from numpy
        nodes, weights = np.polynomial.legendre.leggauss(200)
        half = 0.5 * (canonical_dist.b - canonical_dist.a)
        xs = half * nodes + 0.5 * (canonical_dist.b + canonical_dist.a)
        mass = half * float(weights @ density(canonical_dist, xs))
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_scalar_and_array_forms(self, canonical_dist):
        xs = np.array([0.5, 1.0, 1.5])
        arr = density(canonical_dist, xs)
        assert arr.shape == (3,)
        assert density(canonical_dist, 1.0) == pytest.approx(arr[1])


class TestMoments:
    def test_raw_zero_is_one(self, canonical_dist):
        table = raw_moments(canonical_dist, 0)
        assert table.raw[0] == 1.0

    def test_symmetric_first_moment(self):
        spec = TruncatedGaussianSpec(1.0, 0.4, 0.2, 1.8)
        table = raw_moments(spec, 1)
        assert table.raw[1] == pytest.approx(1.0, abs=1e-14)

    def test_canonical_frozen_values(self, canonical_dist):
        table = raw_moments(canonical_dist, 10)
        for m, expected in CANONICAL_RAW.items():
            assert table.raw[m] == pytest.approx(expected, rel=1e-8), f"m={m}"

    def test_recursion_matches_quadrature_oracle(self):
        rng = np.random.default_rng(20250808)
        for _ in range(12):
            spec = random_valid_dist(rng)
            table = raw_moments(spec, 20)
            for m in (1, 3, 7, 12, 20):
                ref = quad_moment(spec, lambda x, _m=m: x**_m)
                assert table.raw[m] == pytest.approx(ref, rel=1e-8), (spec, m)

    def test_support_bounds(self, canonical_dist):
        table = raw_moments(canonical_dist, 20)
        for m in range(21):
            assert canonical_dist.a**m - 1e-9 <= table.raw[m] <= canonical_dist.b**m + 1e-9

    def test_unstable_recursion_raises_not_returns(self):
        # a narrow window under a wide parent: the forward recursion used to
        # return E[x^20] = 1143.13 here with no error
        spec = TruncatedGaussianSpec(0.7, 3.0, 0.5, 1.5)
        reference = 232.72157950403442  # mpmath, 50 digits
        try:
            value = package_raw_moments(spec, 20).raw[20]
        except ValidationError:
            return
        assert value == pytest.approx(reference, rel=1e-8)

    @pytest.mark.parametrize(
        "m, raw, central",
        [
            # mpmath, 50 digits, central moments about the exact mean
            (20, 16523.64575679340722691023, 0.0129981299530704629148896),
            (44, 105880391950.3591172485157, 0.005492652862428450769215399),
            (64, 72714145898122591.26167068, 0.003700356541223319487521412),
        ],
    )
    def test_high_orders_against_mpmath(self, canonical_dist, m, raw, central):
        # the forward recursion alone was 1e-8 off at m = 44 and 4.5% off at
        # m = 64, with negative even central moments, yet passed its checks
        table = package_raw_moments(canonical_dist, 64)
        assert table.raw[m] == pytest.approx(raw, rel=1e-11)
        assert table.central[m] == pytest.approx(central, rel=1e-10)
        assert all(table.central[i] > 0 for i in range(2, 65, 2))

    def test_high_orders_extend_the_lower_table(self, canonical_dist):
        low = package_raw_moments(canonical_dist, 10)
        high = package_raw_moments(canonical_dist, 64)
        np.testing.assert_array_equal(high.raw[:11], low.raw)
        np.testing.assert_array_equal(high.central[:11], low.central)

    def test_central_moments(self, canonical_dist):
        table = raw_moments(canonical_dist, 8)
        assert table.central[0] == 1.0
        assert abs(table.central[1]) < 1e-12
        assert table.central[2] == pytest.approx(canonical_dist.sigma2, rel=1e-10)
        assert all(table.central[i] > 0 for i in (2, 4, 6, 8))

    def test_central_stable_for_tiny_sigma(self):
        spec = TruncatedGaussianSpec(1.0, 1e-8, 1e-5, 2.0)
        table = raw_moments(spec, 4)
        assert table.central[2] == pytest.approx(spec.sigma2, rel=1e-10)
        assert table.central[2] == pytest.approx(1e-16, rel=1e-6)

    def test_order_ceiling(self, canonical_dist):
        with pytest.raises(OrderTooHigh):
            raw_moments(canonical_dist, 65)
        with pytest.raises(ValidationError):
            raw_moments(canonical_dist, -1)

    def test_moments_about_center(self, canonical_dist):
        ms = moments_about(canonical_dist, 1.0, 6)
        for m in (2, 4, 6):
            ref = quad_moment(canonical_dist, lambda x, _m=m: (x - 1.0) ** _m)
            assert ms[m] == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_shifted_vector_matches_recursion(self, canonical_dist):
        by_quad = shifted_moment_vector(canonical_dist, 1.0, 12)
        by_rec = moments_about(canonical_dist, 1.0, 12)
        np.testing.assert_allclose(by_quad, by_rec, rtol=1e-9, atol=1e-13)
        # orders 0 and 1 are the closed forms 1 and mu - center, no quadrature
        closed = [1.0, canonical_dist.mu - 1.0]
        for order in (0, 1):
            got = shifted_moment_vector(canonical_dist, 1.0, order)
            assert got.tolist() == closed[: order + 1] == by_quad[: order + 1].tolist()
        with pytest.raises(ValidationError, match="order must be >= 0"):
            shifted_moment_vector(canonical_dist, 1.0, -1)


class TestSampling:
    def test_support(self, canonical_dist):
        rng = np.random.default_rng(7)
        draws = sample(canonical_dist, rng, 10_000)
        assert draws.min() >= canonical_dist.a
        assert draws.max() <= canonical_dist.b

    def test_scalar_draw(self, canonical_dist):
        rng = np.random.default_rng(7)
        x = sample(canonical_dist, rng)
        assert isinstance(x, float)
        assert canonical_dist.a <= x <= canonical_dist.b

    def test_moments_within_standard_errors(self, canonical_dist):
        n = 1_000_000
        rng = np.random.default_rng(12345)
        draws = sample(canonical_dist, rng, n)
        sigma = math.sqrt(canonical_dist.sigma2)
        assert abs(draws.mean() - canonical_dist.mu) < 4 * sigma / math.sqrt(n)
        table = raw_moments(canonical_dist, 4)
        var_se = math.sqrt((table.central[4] - canonical_dist.sigma2**2) / n)
        assert abs(draws.var(ddof=1) - canonical_dist.sigma2) < 4 * var_se

    def test_deterministic_given_seed(self, canonical_dist):
        a = sample(canonical_dist, np.random.default_rng(99), 1000)
        b = sample(canonical_dist, np.random.default_rng(99), 1000)
        np.testing.assert_array_equal(a, b)

    def test_against_rejection_oracle(self, canonical_dist):
        # rejection sampling from the parent normal is the oracle path
        rng = np.random.default_rng(31337)
        accepted = []
        while len(accepted) < 50_000:
            block = rng.normal(canonical_dist.mu_bar, canonical_dist.sigma_bar, 100_000)
            accepted.extend(block[(block >= canonical_dist.a) & (block <= canonical_dist.b)])
        oracle = np.array(accepted[:50_000])
        ours = sample(canonical_dist, np.random.default_rng(424242), 50_000)
        stat = stats.ks_2samp(oracle, ours).statistic
        assert stat < 1.95 * math.sqrt(2 / 50_000)


class TestScaling:
    def test_identity(self, canonical_dist):
        same = scale(canonical_dist, 1.0)
        assert same == canonical_dist

    def test_parameter_map(self, canonical_dist):
        doubled = scale(canonical_dist, 2.0)
        assert doubled.mu_bar == 2.0
        assert doubled.sigma_bar == 1.0
        assert doubled.a == 2e-5
        assert doubled.b == 4.0
        assert doubled.mu == pytest.approx(2 * canonical_dist.mu, rel=1e-12)

    def test_rejects_nonpositive(self, canonical_dist):
        with pytest.raises(ValidationError):
            scale(canonical_dist, 0.0)
        with pytest.raises(ValidationError):
            scale(canonical_dist, -2.0)

    @given(q=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_moment_scaling_property(self, q):
        spec = TruncatedGaussianSpec(1.0, 0.5, 1e-5, 2.0)
        scaled = scale(spec, q)
        assert scaled.mu == pytest.approx(q * spec.mu, rel=1e-12)
        assert scaled.sigma2 == pytest.approx(q * q * spec.sigma2, rel=1e-12)

    def test_distributional_identity(self, canonical_dist):
        q = 2.0
        scaled = scale(canonical_dist, q)
        lhs = q * sample(canonical_dist, np.random.default_rng(1), 100_000)
        rhs = sample(scaled, np.random.default_rng(2), 100_000)
        stat = stats.ks_2samp(lhs, rhs).statistic
        assert stat < 1.95 * math.sqrt(2 / 100_000)


class TestExpectation:
    def test_normalization(self, canonical_dist):
        assert expectation(canonical_dist, lambda x: np.ones_like(x)) == pytest.approx(1.0, abs=1e-12)

    def test_mean(self, canonical_dist):
        assert expectation(canonical_dist, lambda x: x) == pytest.approx(canonical_dist.mu, abs=1e-10)

    def test_xlnx_frozen_and_mc(self, canonical_dist):
        val = expectation(canonical_dist, lambda x: x * np.log(x))
        assert val == pytest.approx(CANONICAL_E_XLNX, rel=1e-10)
        draws = sample(canonical_dist, np.random.default_rng(5150), 2_000_000)
        mc = draws * np.log(draws)
        assert abs(val - mc.mean()) < 4 * mc.std(ddof=1) / math.sqrt(len(mc))

    def test_spike_resolved(self):
        # a 1e-8-wide spike inside [1e-5, 2] must still integrate exactly
        spec = TruncatedGaussianSpec(1.0, 1e-8, 1e-5, 2.0)
        assert expectation(spec, lambda x: np.ones_like(x)) == pytest.approx(1.0, abs=1e-12)
        assert expectation(spec, lambda x: x) == pytest.approx(1.0, rel=1e-12)

    def test_no_convergence_on_discontinuity(self, canonical_dist):
        # the default schedule, with no node set cached, must give up fast
        jump = lambda x: np.where(x > 1.0137, 1.0, 0.0)
        _gl_nodes.cache_clear()
        start = time.perf_counter()
        with pytest.raises(NoConvergence):
            expectation(canonical_dist, jump)
        assert time.perf_counter() - start < 1.0

    def test_overflowing_moments_raise_not_return(self):
        # nodes reach x = 21 (40 sigmas up) and 21^400 overflows: non-finite
        # estimates never agree, so the capped schedule raises, fast
        spec = TruncatedGaussianSpec(1.0, 0.5, 1e-5, 50.0)
        with np.errstate(all="ignore"), pytest.raises(NoConvergence):
            shifted_moment_vector(spec, 0.0, 400)


def grid_specs(a, b, mu_axis, sigma_axis):
    """Specs on a mu_bar-major grid; each axis is (min, max, steps)."""
    return [
        TruncatedGaussianSpec(float(m), float(s), a, b)
        for m in np.linspace(*mu_axis)
        for s in np.linspace(*sigma_axis)
    ]


def surface_specs():
    sweep = json.loads((ROOT / "configs" / "capacity_surface.json").read_text())["sweep"]
    axes = [tuple(sweep[k][f] for f in ("min", "max", "steps")) for k in ("mu_bar", "sigma_bar")]
    return grid_specs(sweep["a"], sweep["b"], *axes)


def one_spec_schedule(spec, f):
    """The fixed schedule on one spec with the one-spec estimate:
    (value, nodes per panel, last delta), or None if it never settles."""
    edges = scalar_edges(spec)
    n = 200
    previous = gl_estimate(spec, f, n, edges)
    while n < 1600:
        n *= 2
        current = gl_estimate(spec, f, n, edges)
        if abs(current - previous) <= max(1e-12 * abs(current), 1e-14):
            return current, n, abs(current - previous)
        previous = current
    return None


def estimate_tuples(result):
    """An ``expectation_rows`` result as one (value, nodes, delta) per row."""
    return list(zip(*(column.tolist() for column in result[:3])))


class TestExpectationRows:
    """The batched Gauss-Legendre pass gives every row the bits of the
    one-spec estimate, whatever rows share its block."""

    @pytest.mark.parametrize(
        "specs, panels",
        [
            (surface_specs, 1),
            (lambda: grid_specs(1e-5, 2.0, (0.05, 2.0, 50), (0.1, 3.0, 50)), 19),
        ],
        ids=["capacity_surface", "graded"],
    )
    def test_rows_equal_one_spec_estimates(self, specs, panels):
        specs = specs()
        edges = [scalar_edges(spec) for spec in specs]
        assert len(specs) == 2500 and {len(e) - 1 for e in edges} == {panels}
        grid = np.array(edges)
        params = np.array([(spec.mu_bar, spec.sigma_bar, spec.z) for spec in specs])
        for n in (200, 400):
            got = _gl_rows(grid, *params.T, lambda x: (_xlnx_vec(x),), n, 1)[:, 0].tolist()
            assert got == [gl_estimate(spec, _xlnx_vec, n, e) for spec, e in zip(specs, edges)]
        # an integrand that yields several arrays: one estimate per array
        pairs = _gl_rows(grid, *params.T, lambda x: (x, _xlnx_vec(x)), 400, 2)
        assert pairs[:, 1].tolist() == got

    def test_moment_rows_equal_one_spec_vectors(self):
        # 125 rows at order 40 span two blocks at n = 200 and four at 400;
        # one-sided windows and one center per row among them
        rng = np.random.default_rng(3)
        specs = [random_valid_dist(rng) for _ in range(120)] + [
            TruncatedGaussianSpec(-0.5, 0.08475, 1e-5, 2.0),
            TruncatedGaussianSpec(2.5, 0.08475, 1e-5, 2.0),
            TruncatedGaussianSpec(-0.1, 1.0, 0.05, 50.0),
            TruncatedGaussianSpec(1.0, 0.5, 1e-5, 1e16),
            TruncatedGaussianSpec(1.0, 1e-8, 1e-5, 2.0),
        ]
        columns = _columns(specs)
        centers = rng.uniform(0.0, 2.0, len(specs))
        got, errors = _shifted_moment_rows(columns, centers, 40)
        assert errors == [None] * len(specs)
        for row, spec, center in zip(got, specs, centers.tolist()):
            assert row.tobytes() == shifted_moment_vector(spec, center, 40).tobytes()
        # the one-sided window (-0.1, 1, [0.05, 50]), cut at 18 sigmas about
        # this center, settles too.  FROZEN: E[(x - center)^m], m = 2..8, by
        # mpmath at 50 digits (mp.quad with breakpoints at a + 1, 3 and 8)
        assert centers[122] == 1.6522404711782654
        frozen = [
            1.065517967141172665020015, -1.280406724093764255831541,
            1.755643532935376284102704, -2.294496192168346574894322,
            3.33999569666384821193539, -4.464291080918050344957662,
            6.920267952192655232334992,
        ]
        np.testing.assert_allclose(got[122, 2:9], frozen, rtol=1e-13, atol=0.0)
        # orders above 20 of the moment tables: one call on 2n rows
        raw, central, errors = _moment_rows(columns, 64)
        for i, spec in enumerate(specs):
            try:
                table = package_raw_moments(spec, 64)
            except MirError as exc:
                assert type(errors[i]) is type(exc) and str(errors[i]) == str(exc)
                continue
            assert errors[i] is None
            assert raw[i].tobytes() == table.raw.tobytes()
            assert central[i].tobytes() == table.central.tobytes()
        assert errors.count(None) > 100

    def test_mixed_panel_counts_follow_the_schedule(self):
        specs = (
            grid_specs(1e-5, 2.0, (0.2, 1.8, 6), (0.1, 1.0, 5))
            + grid_specs(0.02, 2.0, (0.2, 1.8, 6), (0.1, 1.0, 5))
            + grid_specs(1e-5, 1.0, (0.2, 0.8, 3), (0.1, 1.0, 3))
            + [TruncatedGaussianSpec(1.0, 1e-8, 1e-5, 2.0)]
        )
        specs = specs[::2] + specs[1::2]  # interleave the panel groups
        assert len({len(scalar_edges(s)) for s in specs}) > 2
        result = expectation_rows(_columns(specs), _xlnx_vec)
        assert result[3] == [None] * len(specs)
        assert estimate_tuples(result) == [one_spec_schedule(spec, _xlnx_vec) for spec in specs]

    def test_unsettled_row_fails_alone(self):
        # x ln x plus a unit step at 1.0137: only the last window holds the step
        step = lambda x: _xlnx_vec(x) + np.where(x > 1.0137, 1.0, 0.0)
        sizes = []

        def recorded(x):
            sizes.append(x.size)
            return step(x)

        smooth = [TruncatedGaussianSpec(0.5, 0.01, 0.02, 2.0),
                  TruncatedGaussianSpec(1.5, 0.01, 0.02, 2.0)]
        stepped = TruncatedGaussianSpec(1.0, 0.5, 0.02, 2.0)
        result = expectation_rows(_columns([smooth[0], stepped, smooth[1]]), recorded)
        assert isinstance(result[3][1], NoConvergence) and result[3][::2] == [None, None]
        rows = estimate_tuples(result)
        assert all(math.isnan(v) for v in rows[1])
        alone = [estimate_tuples(expectation_rows(_columns([spec]), step))[0] for spec in smooth]
        assert [rows[0], rows[2]] == alone == estimate_tuples(
            expectation_rows(_columns(smooth), step)
        )
        assert [row[1] for row in alone] == [400, 400]
        # the settled rows stop at 400 nodes; only the stepped row goes on
        assert sizes == [600, 1200, 800, 1600]
        with pytest.raises(NoConvergence):
            expectation(stepped, step)


def spec_of_row(columns, row):
    """The spec built by the constructor from one row's parameters."""
    return TruncatedGaussianSpec(*(float(column[row]) for column in columns[:4]))


def _spec_outcome(run):
    """The bits of the fields ``run()`` returns, or its error's type and message."""
    try:
        return tuple(float(v).hex() for v in run())
    except ValidationError as exc:
        return type(exc).__name__, str(exc)


def _spec_fields(spec):
    return tuple(getattr(spec, name) for name in ("alpha", "beta", "z", "mu", "sigma2"))


# (mu_bar, sigma_bar, a, b) rows each constructor check rejects, in its order
FAILING_SPECS = [
    (1.0, 0.0, 1e-5, 2.0),  # sigma_bar <= 0
    (1.0, -0.5, 1e-5, 2.0),
    (1.0, 0.5, 2.0, 1.0),  # a >= b
    (1.0, 0.5, -0.1, 1.0),  # a < 0
    (-40.0, 1.0, 0.0, 2.0),  # mass below MIN_TRUNCATION_MASS
    (-8.0, 1.0, 0.0, 2.0),  # far tail, alpha > 0, below the floor on the reflected mass
    (0.0, 0.01, 1.0, 1.1),  # 100 sigmas away
    (0.0, 1e200, 0.0, 1e200),  # sigma_bar^2 overflows: infinite variance
]


class TestSpecRows:
    """Every row of the column pass has the bits, or the error, of the
    constructor and of the float-by-float formulas."""

    @staticmethod
    def rows():
        rng = np.random.default_rng(5)
        rows = [(float(m), float(s), 1e-5, 2.0)
                for m in np.linspace(-3.0, 5.0, 41) for s in np.linspace(0.0, 3.0, 31)]
        for _ in range(1500):
            a = float(rng.uniform(0.0, 3.0))
            b = a + float(10 ** rng.uniform(-6, 2))
            rows.append((float(rng.uniform(-10, 10)), float(10 ** rng.uniform(-4, 1)), a, b))
        far_tail = [(-7.0, 1.0, 0.0, 2.0), (-6.0, 1.0, 0.0, 2.0)]  # alpha > 0, kept
        # the failing rows interleaved with good ones
        for k, row in enumerate(FAILING_SPECS + far_tail):
            rows.insert(97 * k, row)
        return rows

    def test_rows_equal_scalar_constructions(self):
        rows = self.rows()
        columns = [list(column) for column in zip(*rows)]
        spec_columns, errors = _spec_rows(*columns)
        assert [column.tolist() for column in spec_columns[:4]] == columns
        derived = spec_columns[4:]  # alpha, beta, z, mu, sigma2
        got = [
            (type(error).__name__, str(error)) if error is not None
            else tuple(float(column[i]).hex() for column in derived)
            for i, error in enumerate(errors)
        ]
        for row, outcome in zip(rows, got):
            assert outcome == _spec_outcome(lambda: _spec_fields(TruncatedGaussianSpec(*row)))
            assert outcome == _spec_outcome(lambda: scalar_spec_fields(*row))
        kinds = {outcome[1].split(" ")[0] for outcome in got if len(outcome) == 2}
        assert kinds == {"sigma_bar", "truncation", "truncated"}
        assert sum(len(outcome) == 5 for outcome in got) > 1500

    def test_each_failing_row_names_its_check(self):
        columns, errors = _spec_rows(*(list(column) for column in zip(*FAILING_SPECS)))
        messages = [str(error) for error in errors]
        assert messages[0] == "sigma_bar must be positive, got 0.0"
        assert messages[1] == "sigma_bar must be positive, got -0.5"
        assert messages[2].startswith("truncation must satisfy 0 <= a < b, got [2.0, 1.0]")
        assert messages[3].startswith("truncation must satisfy 0 <= a < b, got [-0.1, 1.0]")
        assert messages[4].startswith("truncation [0.0, 2.0] keeps only 0.000e+00 of the parent")
        assert messages[5].startswith("truncation [0.0, 2.0] keeps only 6.")
        assert columns.alpha[5] > 0.0 and columns.z[5] < MIN_TRUNCATION_MASS
        assert "keeps only" in messages[6]
        assert messages[7] == "truncated variance inf outside (0, sigma_bar^2]"

    def test_messages_show_parameters_as_passed(self):
        # an int parameter prints as the int it is, in rows and one by one
        with pytest.raises(ValidationError, match=r"^sigma_bar must be positive, got 0$"):
            TruncatedGaussianSpec(1, 0, 0, 2)
        with pytest.raises(ValidationError, match=r"got \[3, 2\]$"):
            TruncatedGaussianSpec(1, 1, 3, 2)
        _, errors = _spec_rows([1, 1], [0, 1], [0, 3], [2, 2])
        assert [str(e) for e in errors] == [
            "sigma_bar must be positive, got 0",
            "truncation must satisfy 0 <= a < b, got [3, 2]",
        ]

    def test_objects_equal_constructed_specs(self):
        # a spec built from a row's parameters, as a sweep builds each Monte
        # Carlo point's, holds the bits of that row
        rows = self.rows()
        columns, errors = _spec_rows(*(list(column) for column in zip(*rows)))
        for i, (row, error) in enumerate(zip(rows, errors)):
            try:
                expected = TruncatedGaussianSpec(*row)
            except ValidationError as exc:
                assert type(error) is ValidationError and str(error) == str(exc)
                continue
            assert error is None
            spec = spec_of_row(columns, i)
            assert spec == expected and hash(spec) == hash(expected)
            assert repr(spec) == repr(expected)
            assert [float(v).hex() for v in _spec_fields(spec)] == [
                float(column[i]).hex() for column in columns[4:]
            ]

    def test_no_rows(self):
        columns, errors = _spec_rows([], [], [], [])
        assert errors == [] and all(column.shape == (0,) for column in columns)
        assert all(column.shape == (0,) for column in _columns([]))
        assert _panel_edges(columns) == {}

    def test_columns_of_specs_are_their_fields(self):
        rows = self.rows()
        columns, errors = _spec_rows(*(list(column) for column in zip(*rows)))
        valid = [i for i, error in enumerate(errors) if error is None]
        again = _columns([TruncatedGaussianSpec(*rows[i]) for i in valid])
        assert all(
            got.tobytes() == column[valid].tobytes() for got, column in zip(again, columns)
        )
        assert [column.tobytes() for column in columns.take(valid)] == [
            column.tobytes() for column in again
        ]


# graded windows [a, a + span] of a unit parent at 0 whose ratio span / a is
# exactly 2^k, or one ulp above it (span 4 + 2^-50): k and k + 1 levels
DYADIC_K = range(7, 40)
DYADIC_ROWS = [
    (0.0, 1.0, 2.0 ** (2 - k), 2.0 ** (2 - k) + span)
    for k in DYADIC_K
    for span in (4.0, 4.0 + 2.0**-50)
]


class TestPanelEdges:
    """The column pass gives every row the edges of the scalar rule
    (``oracles.scalar_panel_edges``), bit for bit."""

    @staticmethod
    def columns():
        rng = np.random.default_rng(11)
        n = 20000
        a = rng.choice([0.0, 1e-5, 0.02], n)
        a[n // 2 :] = rng.uniform(0.0, 3.0, n - n // 2)
        b = a + 10 ** rng.uniform(-3, 2, n)
        sigma_bar = 10 ** rng.uniform(-4, 1, n)
        mu_bar = rng.uniform(-2.0, 5.0, n)
        # far-tail windows: the parent mean up to 7 sigmas below a or above b
        tail = n // 8
        mu_bar[:tail] = a[:tail] - sigma_bar[:tail] * rng.uniform(1.0, 7.0, tail)
        mu_bar[tail : 2 * tail] = b[tail : 2 * tail] + sigma_bar[tail : 2 * tail] * rng.uniform(
            1.0, 7.0, tail
        )
        dyadic = np.array(DYADIC_ROWS).T
        mu_bar, sigma_bar, a, b = (
            np.concatenate(pair) for pair in zip((mu_bar, sigma_bar, a, b), dyadic)
        )
        columns, errors = _spec_rows(mu_bar, sigma_bar, a, b)
        return columns.take([i for i, error in enumerate(errors) if error is None])

    def test_edges_equal_the_scalar_rule(self):
        columns = self.columns()
        n = len(columns.mu)
        assert n >= 10000
        seen = np.zeros(n, dtype=int)
        for count, (rows, edges) in _panel_edges(columns).items():
            assert edges.shape == (len(rows), count + 1) and list(rows) == sorted(rows)
            seen[rows] += 1
            for row, got in zip(rows.tolist(), edges):
                expected = scalar_edges(spec_of_row(columns, row))
                assert got.tobytes() == np.array(expected).tobytes()
        assert (seen == 1).all()
        # ceil(log2(ratio)) levels and one panel more: k + 1 panels at 2^k,
        # k + 2 one ulp above
        panels = {row: count for count, (rows, _) in _panel_edges(columns).items() for row in rows}
        dyadic = range(n - len(DYADIC_ROWS), n)
        assert columns.b[dyadic].tolist() == [row[3] for row in DYADIC_ROWS]
        assert [panels[row] for row in dyadic] == [k + step for k in DYADIC_K for step in (1, 2)]
        graded = sum(len(rows) for count, (rows, _) in _panel_edges(columns).items() if count > 1)
        assert graded > 3000 and len(_panel_edges(columns)) > 10
        # every kind of window is present: a = 0, a = 1e-5, far tails
        assert (columns.a == 0.0).sum() > 1000 and (columns.a == 1e-5).sum() > 1000
        assert (columns.alpha > 1.0).sum() > 500 and (columns.beta < -1.0).sum() > 500


class TestOverflowingPowers:
    """A power past the float range is +-inf, never a bare OverflowError."""

    def test_powers_overflow_is_inf(self):
        got = list(_powers(np.array([1e200, -1e200, 2.0, -1e200]), 3))
        assert got[3].tolist() == [math.inf, -math.inf, 8.0, -math.inf]
        assert [power.tolist() for power in got[:2]] == [[1.0] * 4, [1e200, -1e200, 2.0, -1e200]]
        assert list(_powers(np.array([-1e200]), 2))[2][0] == math.inf

    @pytest.mark.parametrize("order", [10, 20])
    def test_moment_sums_past_the_float_range_raise_typed(self, order):
        # a valid spec where math.fsum cannot form some of the moment sums
        # (terms of +-inf, or finite terms whose sum overflows): they are
        # nan, and the table checks reject the spec with a typed error
        spec = TruncatedGaussianSpec(
            3.457032552295589e44, 2.421867596011739e44, 0.0, 3.1664191723467982e53
        )
        with pytest.raises(ValidationError, match="a moment is nan"):
            package_raw_moments(spec, order)

    def test_first_central_moment_is_relative_to_the_mean(self):
        # a window thousands of units wide: E[x - mu] rounds to 1.8e-12
        # against a mean of 9846, which the table checks accept
        spec = TruncatedGaussianSpec(
            -4339.894654759865, 5136.712298966036, 8156.676555253254, 168304.04545198614
        )
        table = package_raw_moments(spec, 4)
        assert 1e-12 < abs(table.central[1]) <= 1e-12 * table.raw[1]
        assert table.raw[1] == spec.mu

    def test_wide_window_table(self):
        # b**20 = 1e320 overflows; the mass beyond x = 10 (18 parent sigmas)
        # is below e^-160, so the table equals that of [1e-5, 10]
        wide = package_raw_moments(TruncatedGaussianSpec(1, 0.5, 1e-5, 1e16), 20)
        near = package_raw_moments(TruncatedGaussianSpec(1, 0.5, 1e-5, 10.0), 20)
        np.testing.assert_allclose(wide.raw, near.raw, rtol=1e-13)
        np.testing.assert_allclose(wide.central, near.central, rtol=1e-12, atol=1e-15)


class TestNormalCdf:
    """``_ndtr`` against 50-digit mpmath, with scipy's ``ndtr`` as a second,
    independent oracle: relative error per range of the argument."""

    RANGES = [(-3.0, 8.0, 1.8e-15), (-10.0, -3.0, 1.5e-14), (-30.0, -10.0, 1.5e-13),
              (-37.5, -30.0, 2.5e-13)]

    def test_against_mpmath_and_scipy(self):
        rng = np.random.default_rng(11)
        t = np.concatenate((np.linspace(-38.0, 8.0, 461), rng.uniform(-38.0, 8.0, 1000)))
        got = _ndtr(t)
        with mp.workdps(50):
            exact = [mp.ncdf(mp.mpf(x)) for x in t.tolist()]
            rel = np.array([float(abs(mp.mpf(g) / e - 1)) for g, e in zip(got.tolist(), exact)])
        other = special.ndtr(t)
        for lo, hi, rtol in self.RANGES:
            inside = (lo <= t) & (t <= hi)
            assert rel[inside].max() <= rtol
            np.testing.assert_allclose(got[inside], other[inside], rtol=rtol, atol=0.0)
        # below -37.5 the mass is subnormal (scipy returns 0), far under
        # any truncation the package accepts
        deep = t < -37.5
        assert deep.any() and (got[deep] >= 0.0).all() and (got[deep] < 1e-307).all()
        assert (other[deep] >= 0.0).all() and (other[deep] < 1e-307).all()

    def test_infinite_arguments(self):
        assert _ndtr([-math.inf, 0.0, math.inf]).tolist() == [0.0, 0.5, 1.0]


class TestGaussLegendreRule:
    """``_gl_nodes`` against mpmath roots of P_n at 40 digits, on the node
    counts of the quadrature schedule."""

    @staticmethod
    def exact(n: int, x: float):
        """The root of P_n next to x and its weight, by Newton in mpmath."""
        def newton_pair(r):
            p, q = mp.legendre(n, r), mp.legendre(n - 1, r)
            return p, n * (q - r * p) / (1 - r * r)

        r = mp.mpf(x)
        for _ in range(2):
            p, dp = newton_pair(r)
            r -= p / dp
        _, dp = newton_pair(r)
        return r, 2 / ((1 - r * r) * dp * dp)

    @pytest.mark.parametrize("n, weight_rtol", [
        (1, 0.0), (2, 1e-15), (7, 1e-15), (24, 1e-14), (200, 1e-12), (400, 1e-11),
        (800, 1e-11), (1600, 1e-10),
    ])
    def test_against_mpmath(self, n, weight_rtol):
        _gl_nodes.cache_clear()
        nodes, weights = _gl_nodes(n)
        assert nodes.tolist() == (-nodes[::-1]).tolist() and weights.tolist() == weights[::-1].tolist()
        assert np.all(np.diff(nodes) > 0.0)
        assert math.fsum(weights.tolist()) == pytest.approx(2.0, rel=1e-15)
        # the ten nodes next to 0, the ten next to 1 (where the weights are
        # least accurate) and sixteen between
        half = n // 2
        picks = sorted({*range(half, min(half + 10, n)), *range(max(n - 10, half), n),
                        *range(half, n, max(1, half // 16))})
        with mp.workdps(40):
            for i in picks:
                root, weight = self.exact(n, float(nodes[i]))
                # one ulp; near 0 the recurrence's rounding is absolute, so
                # 2^-57 there (the innermost nodes at n = 800 and 1600 are
                # up to 3.5 ulp, 4.7e-18, off)
                tol = max(np.spacing(abs(float(root))), 2.0**-57)
                assert abs(mp.mpf(float(nodes[i])) - root) <= tol
                assert abs(mp.mpf(float(weights[i])) / weight - 1) <= weight_rtol
        if n % 2:
            assert nodes[half] == 0.0
