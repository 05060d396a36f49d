"""Truncated Gaussian distribution tests.

Expected values marked FROZEN were computed with scipy.integrate.quad /
scipy.stats.truncnorm oracles, independent of the package's own quadrature
engine and recursion; the oracle code is kept inline where it is cheap.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from transduction_mir import (
    NoConvergence,
    OrderTooHigh,
    TruncatedGaussianSpec,
    ValidationError,
    expectation,
    sample,
    shifted_moment_vector,
)
from transduction_mir import raw_moments as package_raw_moments
from transduction_mir.truncgauss import _gl_nodes
from conftest import random_valid_dist
from oracles import density, moments_about, scale

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
