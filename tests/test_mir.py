"""Information-rate computation tests.

FROZEN values were produced by scipy.integrate.quad oracles at 1e-14
tolerance against the closed-form gain; the quadrature method is also
cross-checked against an in-test adaptive-quadrature oracle.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from transduction_mir import (
    DomainError,
    NoConvergence,
    OrderTooHigh,
    OutOfConvergenceRegion,
    StepTooLarge,
    TruncatedGaussianSpec,
    ValidationError,
    chr2_skeleton,
    expectation,
    jensen_gap,
    mir_bounds,
    mir_discrete,
    mir_quadrature,
    mir_series,
    plogp,
    raw_moments,
    xlnx,
)
from transduction_mir.errors import MirError, NotIrreducible
from transduction_mir.mir import (
    MirResult,
    _discrete_rows,
    _quadrature_rows,
    _rate_pass,
    _xlnx_vec,
)
from transduction_mir.receptor import ReceptorSpec, Transition, mean_chain_rows, step_kernel
from transduction_mir.sweep import GridAxis, SweepConfig, run_sweep
from transduction_mir.truncgauss import (
    _XLNX_LINE,
    _columns,
    _integrate,
    _rate_rows,
    expectation_rows,
)
from conftest import five_state_receptor, random_valid_dist
from oracles import all_pairs_discrete, pair_integrand, scalar_discrete, sensitive_pairs

# FROZEN oracle values at the canonical point (unit-rate skeleton,
# mu_bar=1, sigma_bar=0.5, [1e-5, 2]).
CANONICAL_GAP_NATS = 0.10747959570552079
CANONICAL_MIR = 0.05168672092450602


def oracle_gap(dist):
    """Adaptive-quadrature Jensen gap, independent of the package engine."""
    z = 0.5 * (
        math.erf((dist.b - dist.mu_bar) / (dist.sigma_bar * math.sqrt(2)))
        - math.erf((dist.a - dist.mu_bar) / (dist.sigma_bar * math.sqrt(2)))
    )

    def integrand(x):
        u = (x - dist.mu_bar) / dist.sigma_bar
        pdf = math.exp(-0.5 * u * u) / (dist.sigma_bar * math.sqrt(2 * math.pi)) / z
        return x * math.log(x) * pdf

    val, _ = integrate.quad(integrand, dist.a, dist.b, epsabs=1e-14, epsrel=1e-13, limit=300)
    return val - dist.mu * math.log(dist.mu)


class TestPlogp:
    def test_zero(self):
        assert plogp(0.0) == 0.0

    def test_one(self):
        assert plogp(1.0) == 0.0

    def test_half(self):
        assert plogp(0.5) == -0.5

    def test_domain(self):
        with pytest.raises(DomainError):
            plogp(-0.1)
        with pytest.raises(DomainError):
            plogp(1.1)

    def test_xlnx_extension(self):
        assert xlnx(0.0) == 0.0
        assert xlnx(1.0) == 0.0
        with pytest.raises(DomainError):
            xlnx(-1e-9)
        # numpy scalars are numbers too
        assert xlnx(np.float32(0.5)) == xlnx(0.5) and xlnx(np.int64(2)) == xlnx(2.0)


def where_xlogx(x, log):
    """x log(x), 0 where x is not positive: the np.where form ``_xlogx``
    replaced, kept here as its reference."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, x * log(x), 0.0)


class TestXlogx:
    """``_xlogx`` works in place in the array of log(x), with the bits of
    the np.where form on every input."""

    EDGES = [0.0, -0.0, -1.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-300, 0.5, 1.0,
             2.0, 1e300, math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("name, log", [("_plogp_vec", np.log2), ("_xlnx_vec", np.log)])
    def test_vectors_keep_the_where_bits(self, name, log):
        import transduction_mir.mir as mir_module

        f = getattr(mir_module, name)
        x = np.array(self.EDGES)
        for shaped in (x, x.reshape(13, 1), np.tile(x, (3, 1))[:, ::2]):
            before = shaped.copy()
            got = f(shaped)
            assert got.shape == shaped.shape and got.dtype == np.float64
            assert got.tobytes() == where_xlogx(shaped, log).tobytes()
            assert shaped.tobytes() == before.tobytes()
        for value in self.EDGES:
            zero_d = np.float64(value)
            got = f(zero_d)
            assert np.ndim(got) == 0
            assert np.asarray(got).tobytes() == where_xlogx(zero_d, log).tobytes()
            array_0d = np.array(value)
            assert np.asarray(f(array_0d)).tobytes() == where_xlogx(array_0d, log).tobytes()
            assert array_0d.tobytes() == np.float64(value).tobytes()

    def test_scalars_keep_the_where_bits(self):
        for p in (0.0, 5e-324, 1e-300, 0.25, 1.0):
            assert plogp(p).hex() == float(where_xlogx(np.float64(p), np.log2)).hex()
        for x in (0.0, 5e-324, 1e-300, 0.5, 1e300, math.inf):
            assert xlnx(x).hex() == float(where_xlogx(np.float64(x), np.log)).hex()

    @pytest.mark.parametrize("s", [2, 4])
    def test_bounds_rows_keep_their_bits(self, s, unit_chr2, monkeypatch):
        import transduction_mir.bounds as bounds_module
        from transduction_mir.bounds import _bounds_rows

        rng = np.random.default_rng(5)
        dists = [random_valid_dist(rng) for _ in range(30)] + _grid_dists(a=0.0, steps=3)
        columns = _columns(dists)
        chains = mean_chain_rows(unit_chr2, [d.mu for d in dists])
        got = _bounds_rows(columns, s, chains)
        monkeypatch.setattr(bounds_module, "_xlogx", where_xlogx)
        want = _bounds_rows(columns, s, chains)
        for column, reference in zip(got[:4], want[:4]):
            assert column.tobytes() == reference.tobytes()
        assert [repr(e) for e in got[4]] == [repr(e) for e in want[4]]
        assert got[4].count(None) > 30


class TestQuadrature:
    def test_canonical_frozen(self, unit_chr2, canonical_dist):
        result = mir_quadrature(unit_chr2, canonical_dist)
        assert result.value == pytest.approx(CANONICAL_MIR, rel=1e-9)
        assert result.gap_nats == pytest.approx(CANONICAL_GAP_NATS, rel=1e-9)
        assert result.value == result.gain * result.gap_nats

    def test_against_adaptive_oracle(self, unit_chr2):
        rng = np.random.default_rng(77)
        for _ in range(5):
            dist = random_valid_dist(rng)
            got = mir_quadrature(unit_chr2, dist)
            assert got.gap_nats == pytest.approx(oracle_gap(dist), rel=1e-8, abs=1e-12)

    def test_degenerate_input_carries_nothing(self, unit_chr2):
        dist = TruncatedGaussianSpec(1.0, 1e-8, 1e-5, 2.0)
        assert mir_quadrature(unit_chr2, dist).value < 1e-8

    def test_inside_bounds_sandwich(self, unit_chr2, canonical_dist):
        value = mir_quadrature(unit_chr2, canonical_dist).value
        pair = mir_bounds(unit_chr2, canonical_dist, 2)
        assert pair.lower - 1e-9 <= value <= pair.upper + 1e-9

    def test_scale_consistency(self, canonical_dist):
        # dividing the sensitive rate by q while scaling the input by q
        # leaves the product of gain and gap unchanged
        q = 2.0
        base = mir_quadrature(chr2_skeleton(), canonical_dist)
        scaled = mir_quadrature(
            chr2_skeleton(q12=1.0 / q),
            TruncatedGaussianSpec(
                q * canonical_dist.mu_bar,
                q * canonical_dist.sigma_bar,
                q * canonical_dist.a,
                q * canonical_dist.b,
            ),
        )
        assert scaled.value == pytest.approx(base.value, rel=1e-9)

    def test_nonnegative_on_random_inputs(self, unit_chr2):
        rng = np.random.default_rng(123)
        for _ in range(20):
            dist = random_valid_dist(rng)
            assert mir_quadrature(unit_chr2, dist).value >= -1e-9


class TestDiscrete:
    def test_sensitive_pairs_include_diagonal(self, unit_chr2):
        assert set(sensitive_pairs(unit_chr2)) == {(0, 1), (0, 0)}

    def test_degenerate_input(self, unit_chr2):
        dist = TruncatedGaussianSpec(1.0, 1e-8, 1e-5, 2.0)
        assert mir_discrete(unit_chr2, dist, 1e-3).value < 1e-8

    def test_step_too_large_propagates(self, unit_chr2, canonical_dist):
        with pytest.raises(StepTooLarge):
            mir_discrete(unit_chr2, canonical_dist, 0.6)  # exit rate 2 at x=b

    def test_converges_to_quadrature(self, unit_chr2, canonical_dist):
        exact = mir_quadrature(unit_chr2, canonical_dist).value
        errors = [
            abs(mir_discrete(unit_chr2, canonical_dist, dt).value - exact)
            for dt in (1e-3, 5e-4, 2.5e-4)
        ]
        assert errors[0] > errors[1] > errors[2]
        for first, second in zip(errors, errors[1:]):
            assert 1.5 <= first / second <= 2.5

    def test_diagonal_share_vanishes(self, unit_chr2, canonical_dist):
        diag = [
            mir_discrete(unit_chr2, canonical_dist, dt).diagnostics[
                "diagonal_bits_per_s"
            ]
            for dt in (1e-3, 5e-4, 2.5e-4)
        ]
        assert diag[1] <= 0.75 * diag[0]
        assert diag[2] <= 0.75 * diag[1]

    def test_strictly_positive_on_random_inputs(self):
        rng = np.random.default_rng(321)
        for _ in range(20):
            rates = rng.uniform(0.2, 3.0, size=3)
            spec = chr2_skeleton(*map(float, rates))
            dist = random_valid_dist(rng)
            dt = 0.05 / (float(rates.max()) * max(1.0, dist.b))
            assert mir_discrete(spec, dist, dt).value > 0.0

    @pytest.mark.parametrize(
        "mu_bar, sigma_bar, reference",
        [(1.8, 0.1, 7.8192289923906234952e-4), (1.0, 0.5, 0.051733278595571945884)],
    )
    def test_unit_ring_mpmath_oracle(self, unit_chr2, mu_bar, sigma_bar, reference):
        """FROZEN mpmath values (50 digits) on [1e-5, 2] at dt = 1e-3.

        The unit ring's mean chain balances pi_0 * mu = pi_1 = pi_2, so
        pi_0 = 1 / (1 + 2 mu).  Its x-dependent entries are p_01 = dt x and
        p_00 = 1 - dt x, so the rate is

            pi_0 * sum_{p in (p_01, p_00)} (E[phi(p(x))] - phi(p(mu))) / dt,

        phi(p) = p log2 p, with mu and both expectations from mpmath
        quadrature of the truncated density, split at mu_bar.
        """
        dist = TruncatedGaussianSpec(mu_bar, sigma_bar, 1e-5, 2.0)
        value = mir_discrete(unit_chr2, dist, 1e-3).value
        assert value == pytest.approx(reference, rel=1e-9)

    @pytest.mark.parametrize("delta_t", [0.0, -1e-3, math.nan, math.inf])
    def test_bad_step_is_validation_error(self, unit_chr2, canonical_dist, delta_t):
        with pytest.raises(ValidationError) as exc:
            mir_discrete(unit_chr2, canonical_dist, delta_t)
        assert type(exc.value) is ValidationError

    def test_off_diagonal_term_is_step_free(self, unit_chr2, canonical_dist):
        # sensitive off-diagonal entries are exactly linear in x, so their
        # per-step contribution is the continuous-time rate at any step
        for spec, dt in itertools.product((unit_chr2, five_state_receptor()), (1e-3, 1e-4)):
            exact = mir_quadrature(spec, canonical_dist).value
            r = mir_discrete(spec, canonical_dist, dt)
            assert r.diagnostics["off_diagonal_bits_per_s"] == exact
            assert r.value == r.diagnostics["diagonal_bits_per_s"] + exact

    @pytest.mark.parametrize("spec", [chr2_skeleton(1.3, 0.7, 2.1), five_state_receptor()],
                             ids=lambda spec: spec.name)
    def test_all_pairs_oracle(self, spec):
        # the definition, with the E[phi(p(x))] of every off-diagonal entry
        # integrated too, agrees with gain * gap plus the diagonal part
        rng = np.random.default_rng(2024)
        exit_rate = np.abs(np.diagonal(spec.slope)).max() + np.abs(np.diagonal(spec.base)).max()
        for _ in range(8):
            dist = random_valid_dist(rng)
            dt = float(rng.uniform(1e-4, 0.05)) / (exit_rate * dist.b)
            got = mir_discrete(spec, dist, dt)
            value, diagonal, off_diagonal = all_pairs_discrete(spec, dist, dt)
            assert got.value == pytest.approx(value, rel=1e-10, abs=0.0)
            # the oracle integrates each entry on the doubling schedule, the
            # rate on the certified ladder: each E[phi] within 1e-14 of the
            # other, for at most five diagonal entries, over delta_t
            assert got.diagnostics["diagonal_bits_per_s"] == pytest.approx(
                diagonal, rel=0.0, abs=1e-13 / dt
            )
            assert got.diagnostics["off_diagonal_bits_per_s"] == pytest.approx(
                off_diagonal, rel=1e-10, abs=0.0
            )


class TestSeries:
    def test_canonical_orders(self, unit_chr2, canonical_dist):
        exact = mir_quadrature(unit_chr2, canonical_dist)
        errors = {}
        for order in (5, 10, 20, 40):
            result = mir_series(unit_chr2, canonical_dist, order)
            errors[order] = abs(result.value - exact.value)
            assert errors[order] <= result.gain / order + 1e-9
            assert result.order == order
        assert errors[40] < errors[5]

    def test_point_mass_vanishes(self, unit_chr2):
        dist = TruncatedGaussianSpec(1.0, 1e-9, 1e-5, 2.0)
        assert abs(mir_series(unit_chr2, dist, 20).value) < 1e-12

    def test_convergence_region_enforced(self, unit_chr2):
        with pytest.raises(OutOfConvergenceRegion):
            mir_series(unit_chr2, TruncatedGaussianSpec(1.0, 0.5, 0.0, 2.0), 10)
        with pytest.raises(OutOfConvergenceRegion):
            mir_series(unit_chr2, TruncatedGaussianSpec(1.0, 0.5, 0.1, 2.5), 10)

    def test_order_limits(self, unit_chr2, canonical_dist):
        with pytest.raises(OrderTooHigh):
            mir_series(unit_chr2, canonical_dist, 65)
        with pytest.raises(ValidationError):
            mir_series(unit_chr2, canonical_dist, 1)

    def test_raw_form_agrees_at_order_20(self, unit_chr2, canonical_dist):
        # expanding E[(x-1)^k] into sum_m (-1)^m C(k,m) E[x^m] with the
        # raw moment table gives the same gap; at the canonical point the
        # raw alternating sum is still accurate through order 20
        order = 20
        raw = raw_moments(canonical_dist, order).raw
        raw_sum = math.fsum(
            math.fsum((-1.0) ** m * math.comb(k, m) * raw[m] for m in range(k + 1))
            / (k * (k - 1))
            for k in range(2, order + 1)
        )
        mu = canonical_dist.mu
        raw_gap = raw_sum - mu * (math.log(mu) - 1.0) - 1.0
        result = mir_series(unit_chr2, canonical_dist, order)
        assert abs(result.gap_nats - raw_gap) < 1e-9

    @pytest.mark.parametrize("a, b", [(1e-5, 2.0), (0.5, 1.5)])
    def test_within_tail_bound_of_quadrature_on_scan(self, unit_chr2, a, b):
        # the series' one guarantee: |series(K) - quadrature| <= gain/K,
        # on a 41x41 scan
        order = 40
        points = [
            (round(float(mu_bar), 10), round(float(sigma_bar), 10))
            for mu_bar in np.linspace(-1.0, 3.0, 41)
            for sigma_bar in np.linspace(0.01, 3.0, 41)
        ]
        # on [0.5, 1.5] the series was once rejected here although it
        # matched quadrature to 1e-13
        assert (1.1, 2.47675) in points
        checked, no_convergence = 0, set()
        for mu_bar, sigma_bar in points:
            try:
                dist = TruncatedGaussianSpec(mu_bar, sigma_bar, a, b)
            except ValidationError as exc:
                # only windows that keep no parent mass are refused
                assert "of the parent mass" in str(exc), (mu_bar, sigma_bar)
                continue
            exact = mir_quadrature(unit_chr2, dist)
            try:
                approx = mir_series(unit_chr2, dist, order)
            except NoConvergence:
                no_convergence.add((mu_bar, sigma_bar))
                continue
            assert abs(approx.value - exact.value) <= approx.gain / order, (mu_bar, sigma_bar)
            checked += 1
        assert no_convergence == set()
        assert checked > 1500

    def test_matches_adaptive_oracle(self, unit_chr2, canonical_dist):
        got = mir_series(unit_chr2, canonical_dist, 40)
        assert got.gap_nats == pytest.approx(oracle_gap(canonical_dist), abs=1.0 / 40 + 1e-9)

    def test_value_decomposition(self, unit_chr2, canonical_dist):
        result = mir_series(unit_chr2, canonical_dist, 30)
        assert result.value == result.gain * result.gap_nats


class TestMultiSensitiveReceptor:
    """A four-state ring with two sensitive transitions out of different rows."""

    @staticmethod
    def spec():
        from transduction_mir import ReceptorSpec, Transition

        return ReceptorSpec(
            name="two-gate",
            states=("A", "B", "C", "D"),
            transitions=(
                Transition(0, 1, 0.8, True),
                Transition(1, 2, 1.2, False),
                Transition(2, 3, 0.5, True),
                Transition(3, 0, 0.9, False),
            ),
        )

    def test_sensitive_pairs(self):
        assert set(sensitive_pairs(self.spec())) == {(0, 1), (2, 3), (0, 0), (2, 2)}

    def test_gain_sums_over_sensitive_set(self, canonical_dist):
        from transduction_mir import sensitive_gain, stationary_distribution

        spec = self.spec()
        pi = stationary_distribution(spec, canonical_dist.mu)
        g = sensitive_gain(spec, pi)
        expected = (pi[0] * 0.8 + pi[2] * 0.5) / math.log(2.0)
        assert g == pytest.approx(expected, rel=1e-14)

    def test_discrete_converges_to_quadrature(self, canonical_dist):
        spec = self.spec()
        exact = mir_quadrature(spec, canonical_dist).value
        errors = [
            abs(mir_discrete(spec, canonical_dist, dt).value - exact)
            for dt in (2e-3, 1e-3, 5e-4)
        ]
        assert errors[0] > errors[1] > errors[2]
        for first, second in zip(errors, errors[1:]):
            assert 1.5 <= first / second <= 2.5

    def test_series_and_bounds_agree(self, canonical_dist):
        spec = self.spec()
        exact = mir_quadrature(spec, canonical_dist).value
        approx = mir_series(spec, canonical_dist, 40)
        assert abs(approx.value - exact) <= approx.gain / 40 + 1e-9
        for s in (2, 4):
            pair = mir_bounds(spec, canonical_dist, s)
            assert pair.lower - 1e-9 <= exact <= pair.upper + 1e-9


class TestJensenGap:
    def test_frozen(self, canonical_dist):
        assert jensen_gap(canonical_dist) == pytest.approx(CANONICAL_GAP_NATS, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            assert jensen_gap(random_valid_dist(rng)) >= -1e-12


@pytest.mark.parametrize(
    "spec", [TestMultiSensitiveReceptor.spec(), five_state_receptor()], ids=["two-gate", "five"]
)
def test_sensitive_pairs_are_the_nonzero_step_slope_entries(spec):
    _, lin = step_kernel(spec, 1e-3, 2.0)
    rows, cols = np.nonzero(lin)
    assert sorted(sensitive_pairs(spec)) == sorted(zip(rows.tolist(), cols.tolist()))


def _grid_dists(a=1e-5, b=2.0, steps=8):
    return [
        TruncatedGaussianSpec(float(m), float(s), a, b)
        for m in np.linspace(0.2, 1.8, steps)
        for s in np.linspace(0.1, 1.0, steps)
    ]


def _outcome(run):
    """What ``run()`` returns, or its error's type and message."""
    try:
        return run()
    except MirError as exc:
        return type(exc).__name__, str(exc)


REDUCIBLE = ReceptorSpec(
    "reducible",
    ("A", "B", "C"),
    (Transition(0, 1, 1.0, True), Transition(1, 0, 1.0, False), Transition(2, 0, 1.0, False)),
)


class TestQuadratureRows:
    """Every row of the quadrature core has the bits, or the error, of
    ``mir_quadrature`` at that point."""

    @pytest.mark.parametrize("spec", [chr2_skeleton(), five_state_receptor(), REDUCIBLE],
                             ids=lambda spec: spec.name)
    def test_rows_equal_one_point_calls(self, spec):
        dists = _grid_dists()
        chains = mean_chain_rows(spec, [d.mu for d in dists])
        integrals = _rate_rows(_columns(dists), [_XLNX_LINE])
        values, gaps, errors = _quadrature_rows(np.array([d.mu for d in dists]), chains, integrals)
        for dist, value, gap, error in zip(dists, values, gaps, errors):
            got = (type(error).__name__, str(error)) if error else (value, gap)
            expected = _outcome(lambda: mir_quadrature(spec, dist))
            if isinstance(expected, MirResult):
                expected = (expected.value, expected.gap_nats)
                _, gain, _ = mean_chain_rows(spec, [dist.mu])
                e_value = _rate_rows(_columns([dist]), [_XLNX_LINE])[0][0, 0]
                assert value == gain[0] * (e_value - dist.mu * np.log(dist.mu))
                # the generic schedule's E[x ln x] within the tolerance
                generic = expectation(dist, _xlnx_vec)
                assert abs(e_value - generic) <= 2.0 * max(1e-12 * abs(generic), 1e-14)
            else:
                assert np.isnan(value) and np.isnan(gap)
            assert got == expected

    def test_failing_rows_keep_the_one_point_order(self, unit_chr2):
        dists = _grid_dists(steps=3)[:6]
        chains = mean_chain_rows(unit_chr2, [d.mu for d in dists])
        integrals = _rate_rows(_columns(dists), [_XLNX_LINE])
        e_xlnx, e_errors = integrals[0][:, 0], integrals[3][0]
        unsettled = NoConvergence("expectation did not stabilize")
        irreducible = NotIrreducible("no single recurrent class")
        chains[2][1] = chains[2][2] = irreducible
        chains[1][1:3] = np.nan
        e_errors[2] = e_errors[3] = unsettled
        e_xlnx[2:4] = np.nan
        # E[x ln x] 1e-6 nats below mu ln mu: a rate below the floor
        mu = dists[4].mu
        e_xlnx[4] = mu * np.log(mu) - 1e-6
        values, gaps, errors = _quadrature_rows(np.array([d.mu for d in dists]), chains, integrals)
        assert errors[0] is None and errors[5] is None
        assert errors[1] is irreducible and errors[2] is irreducible and errors[3] is unsettled
        gain = float(chains[1][4])
        gap = float(e_xlnx[4] - mu * np.log(mu))
        with pytest.raises(ValidationError) as info:
            MirResult(value=gain * gap, method="quadrature", gain=gain, gap_nats=gap)
        assert type(errors[4]) is ValidationError and str(errors[4]) == str(info.value)
        assert np.isnan(values[1:5]).all() and np.isnan(gaps[1:5]).all()


class TestDiscreteRows:
    """The E[phi(p(x))] of every sensitive pair of every point is one pass;
    each row has the bits, or the error, of the one-point call."""

    @pytest.mark.parametrize("spec", [chr2_skeleton(), five_state_receptor()],
                             ids=lambda spec: spec.name)
    def test_pair_pass_equals_one_pair_calls(self, spec):
        # each x-dependent entry's pass over all points, as _discrete_rows
        # makes it for the diagonal ones, against one call per point
        dists = _grid_dists(steps=5)
        const, lin = step_kernel(spec, 1e-3, 2.0)
        for i, j in sensitive_pairs(spec):
            f = pair_integrand(const[i, j], lin[i, j])
            rows = expectation_rows(_columns(dists), f)
            alone = [expectation_rows(_columns([d]), f) for d in dists]
            for k, column in enumerate(rows):
                assert list(column) == [one[k][0] for one in alone]

    @pytest.mark.parametrize("delta_t", [1e-3, 0.75])
    @pytest.mark.parametrize("spec", [chr2_skeleton(), five_state_receptor(), REDUCIBLE],
                             ids=lambda spec: spec.name)
    def test_rows_equal_one_point_calls(self, spec, delta_t):
        dists = _grid_dists(steps=5)
        chains = mean_chain_rows(spec, [d.mu for d in dists])
        fused = _rate_pass(spec, _columns(dists), 2.0, delta_t)
        rates, errors = _discrete_rows(spec, _columns(dists), delta_t, chains, *fused)
        for dist, rate, error in zip(dists, rates.tolist(), errors):
            expected = _outcome(lambda: mir_discrete(spec, dist, delta_t))
            if error is not None:
                assert (type(error).__name__, str(error)) == expected
                assert all(math.isnan(v) for v in rate)
                continue
            value, gap_nats, diagonal, off_diagonal = rate
            assert expected.value == value and expected.gap_nats == gap_nats
            assert expected.diagnostics["diagonal_bits_per_s"] == diagonal
            assert expected.diagnostics["off_diagonal_bits_per_s"] == off_diagonal
            # the oracle integrates every entry on the doubling schedule
            oracle = scalar_discrete(spec, dist, delta_t)
            assert (value, diagonal) == pytest.approx(oracle, rel=1e-10, abs=1e-13 / delta_t)
        # the step kernel is checked first, then the mean chain
        kind = "NotIrreducible" if spec is REDUCIBLE else "NoneType"
        assert {type(e).__name__ for e in errors} == {"StepTooLarge" if delta_t > 0.5 else kind}

    def test_step_kernel_error_reaches_every_row(self, unit_chr2):
        # at delta_t = 0.4 the step is admissible up to x = 2.5 only; the
        # pass then holds E[x ln x] alone, with the bits of its lone pass
        for b, kind in ((2.0, "NoneType"), (3.0, "StepTooLarge")):
            dists = [TruncatedGaussianSpec(m, 0.5, 1e-5, b) for m in (0.5, 1.0, 1.5)]
            columns = _columns(dists)
            chains = mean_chain_rows(unit_chr2, [d.mu for d in dists])
            fused = _rate_pass(unit_chr2, columns, b, 0.4)
            assert fused[1][0].shape == (len(dists), 2 if kind == "NoneType" else 1)
            lone = _rate_rows(columns, [_XLNX_LINE])
            assert fused[1][0][:, 0].tobytes() == lone[0][:, 0].tobytes()
            rates, errors = _discrete_rows(unit_chr2, columns, 0.4, chains, *fused)
            assert [type(e).__name__ for e in errors] == [kind] * len(dists)
            assert np.isnan(rates).all() == (kind == "StepTooLarge")
            for dist, error in zip(dists, errors):
                if error is not None:
                    assert error is fused[0]
                    assert (type(error).__name__, str(error)) == _outcome(
                        lambda: mir_discrete(unit_chr2, dist, 0.4)
                    )

    def test_unsettled_pair_is_the_row_error(self):
        # entry k's output fails rows 1..k+1, each with its own error, and
        # E[x ln x]'s fails rows 1..entries+1: a row keeps the error of its
        # first failing entry, in state order, then E[x ln x]'s; the next
        # row fails the floor alone
        for spec in (chr2_skeleton(), five_state_receptor()):
            entries = len(np.flatnonzero(np.diagonal(spec.slope)))
            dists = _grid_dists(steps=3)[: entries + 4]
            chains = mean_chain_rows(spec, [d.mu for d in dists])
            kernel, (values, nodes, deltas, output_errors) = _rate_pass(
                spec, _columns(dists), 2.0, 1e-3
            )
            assert values.shape == (len(dists), 1 + entries) and len(output_errors) == 1 + entries
            unsettled = [NoConvergence(f"entry {k} did not settle") for k in range(entries)]
            for k in range(entries):
                values[1 : k + 2, 1 + k] = np.nan
                output_errors[1 + k][1 : k + 2] = [unsettled[k]] * (k + 1)
            xlnx_error = NoConvergence("x ln x did not settle")
            output_errors[0][1 : entries + 2] = [xlnx_error] * (entries + 1)
            values[1 : entries + 2, 0] = np.nan
            # E[x ln x] far below mu ln mu: a rate below the floor
            floor_row = entries + 2
            mu = dists[floor_row].mu
            values[floor_row, 0] = mu * np.log(mu) - 1.0
            integrals = values, nodes, deltas, output_errors
            rates, errors = _discrete_rows(spec, _columns(dists), 1e-3, chains, kernel, integrals)
            assert errors[1 : entries + 1] == unsettled
            assert errors[entries + 1] is xlnx_error
            assert type(errors[floor_row]) is ValidationError
            assert str(errors[floor_row]).startswith("discrete(0.001) rate -")
            assert errors[0] is None and errors[floor_row + 1] is None
            failed = slice(1, floor_row + 1)
            assert np.isnan(rates[failed]).all()
            assert not np.isnan(rates[0]).any() and not np.isnan(rates[floor_row + 1]).any()


class TestRatePass:
    """E[x ln x] and the E[phi(c + m*x)] of every x-dependent diagonal entry
    are the outputs of one pass, each with the bits of its lone pass."""

    @pytest.mark.parametrize("delta_t", [1e-3, 0.1])
    @pytest.mark.parametrize("spec", [chr2_skeleton(), five_state_receptor()],
                             ids=lambda spec: spec.name)
    def test_outputs_equal_lone_passes(self, spec, delta_t):
        rng = np.random.default_rng(26)
        dists = [random_valid_dist(rng) for _ in range(40)] + _grid_dists(steps=4)
        b = max(d.b for d in dists)
        columns = _columns(dists)
        (const, lin), result = _rate_pass(spec, columns, b, delta_t)
        y = np.flatnonzero(np.diagonal(spec.slope)).tolist()
        integrands = [_xlnx_vec] + [pair_integrand(const[i, i], lin[i, i]) for i in y]
        lines = [(0.0, 1.0, 1.0)] + [(const[i, i], lin[i, i], 1.0 / math.log(2.0)) for i in y]
        assert result[0].shape == (len(dists), len(integrands))
        for k, (f, line) in enumerate(zip(integrands, lines)):
            # a lone pass of the oracle's integrand, proved by the same line
            lone = _integrate(columns, lambda x: (f(x),), 1, np.array([line]))
            for got, want in zip(result[:3], lone[:3]):
                assert got[:, k].tobytes() == want[:, 0].tobytes()
            assert result[3][k] == lone[3][0] == [None] * len(dists)
        # most outputs settle by proof, at a rung of the ladder
        assert np.isin(result[1], (32, 64, 128)).mean() > 0.8

    def test_unsettled_entry_keeps_the_quadrature(self, unit_chr2, monkeypatch):
        # phi stepped by 1e-6 where the C1 diagonal 1 - x * 1e-3 passes
        # x = 1.0137, and no proof for the entry (a step is not p log p):
        # the entry never settles on the windows that hold that x, and the
        # discrete rate fails there alone; E[x ln x], an output of the same
        # pass, settles and keeps the lone pass's bits
        import transduction_mir.truncgauss as truncgauss

        real, proof = truncgauss._xlogx, truncgauss._rate_proof
        edge = 1.0 - 1.0137e-3

        def stepped_plogp(q, log):
            # the integrand of every p log2 p line; x ln x is left as it is
            if log is np.log2:
                return real(q, log) + np.where(q < edge, 1e-6, 0.0)
            return real(q, log)

        monkeypatch.setattr(truncgauss, "_xlogx", stepped_plogp)

        def unproved_entries(*args):
            fixed, drift, reach = proof(*args)
            fixed[..., 1:], reach[..., 1:] = np.inf, False
            return fixed, drift, reach

        monkeypatch.setattr(truncgauss, "_rate_proof", unproved_entries)
        config = SweepConfig(
            receptor=unit_chr2, a=0.02, b=2.0,
            mu_bar_grid=GridAxis(0.5, 1.5, 3), sigma_bar_grid=GridAxis(0.01, 0.5, 2),
            methods=("quadrature", "discrete"),
        )
        rows = run_sweep(config).rows()
        lone = run_sweep(replace(config, methods=("quadrature",))).rows()
        assert [row.mir_quadrature for row in rows] == [row.mir_quadrature for row in lone]
        assert all(row.mir_quadrature is not None for row in rows)
        failed = [row.status == "discrete:NoConvergence" for row in rows]
        # sigma_bar = 0.01 at mu_bar = 0.5 and 1.5 keeps clear of the step
        assert failed == [False, True, True, True, False, True]
        assert all((row.mir_discrete is None) == bad for row, bad in zip(rows, failed))
        for row in rows:
            dist = TruncatedGaussianSpec(row.mu_bar, row.sigma_bar, 0.02, 2.0)
            assert mir_quadrature(unit_chr2, dist).value == row.mir_quadrature
            if row.status != "ok":
                with pytest.raises(NoConvergence):
                    mir_discrete(unit_chr2, dist, 1e-3)
