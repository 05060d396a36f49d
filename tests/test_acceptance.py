"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances and runtime caps are pinned here, not configurable.
Oracles: scipy.integrate.quad for moments, scipy.stats for KS/Spearman,
analytic steady states; none of them share code with the paths under test.
The test-only helpers (typed matrix pipeline, occupancy, direct Monte Carlo
gap, scaling closure) come from ``oracles``.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy import integrate
from scipy.stats import ks_2samp, spearmanr

from transduction_mir import (
    GridAxis,
    SweepConfig,
    TruncatedGaussianSpec,
    chr2_skeleton,
    estimate_mir,
    find_capacity,
    jensen_gap,
    mir_bounds,
    mir_discrete,
    mir_quadrature,
    mir_series,
    raw_moments,
    rows_to_csv,
    run_sweep,
    sample,
    simulate,
    stationary_distribution,
)
from transduction_mir.truncgauss import _gl_nodes
from conftest import random_valid_dist
from oracles import build_rate_matrix, empirical_occupancy, mc_gap, scale, transition_matrix

CHR2 = chr2_skeleton()
CANONICAL = TruncatedGaussianSpec(1.0, 0.5, 1e-5, 2.0)

GRID_MU = np.linspace(0.2, 1.8, 10)
GRID_SIGMA = np.linspace(0.1, 1.0, 10)


def _report(number, name, ok, detail):
    print(f"[criterion {number:>2}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def _grid_dists():
    return [
        TruncatedGaussianSpec(float(mb), float(sb), 1e-5, 2.0)
        for mb in GRID_MU
        for sb in GRID_SIGMA
    ]


def test_criterion_1_bound_sandwich():
    start = time.perf_counter()
    worst_slack = math.inf
    for dist in _grid_dists():
        exact = mir_quadrature(CHR2, dist).value
        for s in (2, 4):
            pair = mir_bounds(CHR2, dist, s)
            worst_slack = min(
                worst_slack, exact - pair.lower + 1e-9, pair.upper - exact + 1e-9
            )
    elapsed = time.perf_counter() - start
    ok = worst_slack >= 0.0 and elapsed < 5.0
    _report(
        1,
        "bound sandwich on 10x10 grid",
        ok,
        f"worst slack {worst_slack:.3e} bits/s, runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_2_series_convergence():
    start = time.perf_counter()
    worst_margin = math.inf
    order_violations = 0
    for dist in _grid_dists():
        exact = mir_quadrature(CHR2, dist)
        errors = {}
        for order in (5, 10, 20, 40):
            approx = mir_series(CHR2, dist, order)
            errors[order] = abs(approx.value - exact.value)
            worst_margin = min(
                worst_margin, approx.gain / order + 1e-9 - errors[order]
            )
        if not errors[40] < errors[5]:
            order_violations += 1
    elapsed = time.perf_counter() - start
    ok = worst_margin >= 0.0 and order_violations == 0 and elapsed < 10.0
    _report(
        2,
        "series error within gain/K and err(40) < err(5)",
        ok,
        f"worst tail margin {worst_margin:.3e} bits/s, "
        f"{order_violations} order violations, runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_3_tightness_trend():
    ratios = []
    violations = []
    for dist in _grid_dists():
        w2 = mir_bounds(CHR2, dist, 2).width
        w4 = mir_bounds(CHR2, dist, 4).width
        ratios.append(w4 / w2)
        if w4 / w2 >= 1.0:
            violations.append((dist.mu_bar, dist.sigma_bar, w4 / w2))
    median = float(np.median(ratios))
    for mu_bar, sigma_bar, ratio in violations:
        print(
            f"    tightness violation at mu_bar={mu_bar:.3f} "
            f"sigma_bar={sigma_bar:.3f}: width ratio {ratio:.3f}"
        )
    _report(
        3,
        "s=4 bounds tighter than s=2 in median",
        median < 1.0,
        f"median width ratio {median:.4f}, {len(violations)} pointwise violations reported",
    )


def test_criterion_4_step_convergence():
    start = time.perf_counter()
    exact = mir_quadrature(CHR2, CANONICAL).value
    ladder = (1e-3, 5e-4, 2.5e-4, 1.25e-4)
    errors = [abs(mir_discrete(CHR2, CANONICAL, dt).value - exact) for dt in ladder]
    ratios = [first / second for first, second in zip(errors, errors[1:])]
    elapsed = time.perf_counter() - start
    decreasing = all(first > second for first, second in zip(errors, errors[1:]))
    ratios_ok = all(1.5 <= r <= 2.5 for r in ratios)
    ok = decreasing and ratios_ok and elapsed < 10.0
    _report(
        4,
        "first-order step convergence to the continuous-time rate",
        ok,
        f"errors {['%.3e' % e for e in errors]}, ratios "
        f"{['%.3f' % r for r in ratios]}, runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_5_moment_tables():
    start = time.perf_counter()
    rng = np.random.default_rng(20250808)
    worst = 0.0
    for _ in range(50):
        dist = random_valid_dist(rng)
        table = raw_moments(dist, 20)
        z = 0.5 * (
            math.erf((dist.b - dist.mu_bar) / (dist.sigma_bar * math.sqrt(2)))
            - math.erf((dist.a - dist.mu_bar) / (dist.sigma_bar * math.sqrt(2)))
        )

        def pdf(x):
            u = (x - dist.mu_bar) / dist.sigma_bar
            return math.exp(-0.5 * u * u) / (dist.sigma_bar * math.sqrt(2 * math.pi)) / z

        for m in range(1, 21):
            ref, _ = integrate.quad(
                lambda x: x**m * pdf(x), dist.a, dist.b,
                epsabs=1e-300, epsrel=1e-12, limit=300,
            )
            worst = max(worst, abs(table.raw[m] - ref) / abs(ref))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    _report(
        5,
        "moment tables vs adaptive quadrature, 50 specs, m <= 20",
        ok,
        f"worst relative error {worst:.3e} < 1e-8, runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_6_steady_state():
    start = time.perf_counter()
    pi = stationary_distribution(CHR2, CANONICAL.mu)
    p_bar = transition_matrix(build_rate_matrix(CHR2, CANONICAL.mu), 1e-3)
    residual = float(np.abs(pi @ p_bar.entries - pi).max())
    traj = simulate(CHR2, CANONICAL, 1e-2, 1_000_000, seed=20250806)
    occupancy_gap = float(
        np.abs(empirical_occupancy(traj, 3) - pi).max()
    )
    elapsed = time.perf_counter() - start
    ok = residual < 1e-10 and occupancy_gap < 0.01 and elapsed < 15.0
    _report(
        6,
        "steady state: analytic residual and 1e6-step occupancy",
        ok,
        f"residual {residual:.2e} < 1e-10, occupancy gap {occupancy_gap:.4f} < 0.01, "
        f"runtime {elapsed:.2f}s < 15s",
    )


def test_criterion_7_monte_carlo_consistency():
    start = time.perf_counter()
    gap_est = mc_gap(CANONICAL, 10_000_000, seed=4242)
    gap_true = jensen_gap(CANONICAL)
    gap_sigmas = abs(gap_est.value - gap_true) / gap_est.stderr

    dt = 1e-3
    traj = simulate(CHR2, CANONICAL, dt, 1_000_000, seed=515151)
    rate_est = estimate_mir(traj, CHR2, CANONICAL)
    rate_true = mir_discrete(CHR2, CANONICAL, dt).value
    rate_sigmas = abs(rate_est.value - rate_true) / rate_est.stderr
    elapsed = time.perf_counter() - start
    ok = gap_sigmas < 4.0 and rate_sigmas < 4.0 and elapsed < 60.0
    _report(
        7,
        "Monte Carlo estimators agree with analytic values",
        ok,
        f"gap off by {gap_sigmas:.2f} sigma (n=1e7), path estimate off by "
        f"{rate_sigmas:.2f} sigma (n=1e6), runtime {elapsed:.2f}s < 60s",
    )


def test_criterion_8_degenerate_input():
    dist = TruncatedGaussianSpec(1.0, 1e-8, 1e-5, 2.0)
    values = {
        "quadrature": mir_quadrature(CHR2, dist).value,
        "series": mir_series(CHR2, dist, 40).value,
        "discrete": mir_discrete(CHR2, dist, 1e-3).value,
    }
    traj = simulate(CHR2, dist, 1e-3, 1_000_000, seed=8080)
    values["monte_carlo"] = estimate_mir(traj, CHR2, dist).value
    pair = mir_bounds(CHR2, dist, 2)
    values["upper_bound_s2"] = pair.upper
    worst = max(abs(v) for v in values.values())
    _report(
        8,
        "sigma_bar = 1e-8 carries no information by every method",
        worst < 1e-8,
        f"largest |rate| {worst:.3e} < 1e-8 bits/s across {sorted(values)}",
    )


def test_criterion_9_scaling_closure():
    threshold = 1.95 * math.sqrt(2 / 100_000)
    worst = 0.0
    for q in (0.5, 2.0):
        direct = q * sample(CANONICAL, np.random.default_rng(1000), 100_000)
        scaled = sample(scale(CANONICAL, q), np.random.default_rng(2000), 100_000)
        worst = max(worst, float(ks_2samp(direct, scaled).statistic))
    _report(
        9,
        "scaling closure (KS, q in {0.5, 2})",
        worst < threshold,
        f"max KS statistic {worst:.5f} < {threshold:.5f}",
    )


def test_criterion_10_trend_agreement():
    start = time.perf_counter()
    config = SweepConfig(
        receptor=CHR2,
        a=2e-2,
        b=2.0,
        mu_bar_grid=GridAxis(0.05, 2.0, 50),
        sigma_bar_grid=GridAxis(0.1, 3.0, 50),
        methods=("quadrature", "bounds_s2"),
        seed=0,
    )
    rows = run_sweep(config).rows()
    exact = np.array([row.mir_quadrature for row in rows]).reshape(50, 50)
    upper = np.array([row.ub_s2 for row in rows]).reshape(50, 50)
    rho = float(spearmanr(exact.ravel(), upper.ravel()).statistic)
    ix_exact = tuple(int(v) for v in np.unravel_index(int(exact.argmax()), exact.shape))
    ix_upper = tuple(int(v) for v in np.unravel_index(int(upper.argmax()), upper.shape))
    distance = max(abs(ix_exact[0] - ix_upper[0]), abs(ix_exact[1] - ix_upper[1]))

    cap_exact = find_capacity(rows, by="mir_quadrature")
    cap_upper = find_capacity(rows, by="ub_s2")
    elapsed = time.perf_counter() - start
    ok = rho > 0.95 and distance <= 2
    _report(
        10,
        "upper-bound surface tracks the exact surface",
        ok,
        f"spearman {rho:.4f} > 0.95, argmax cells exact={ix_exact} "
        f"upper={ix_upper} distance {distance} <= 2, capacity at "
        f"mu_bar={cap_exact[0]:.3f}/{cap_upper[0]:.3f}, runtime {elapsed:.1f}s",
    )


def test_criterion_11_determinism():
    config = SweepConfig(
        receptor=CHR2,
        a=1e-5,
        b=2.0,
        mu_bar_grid=GridAxis(0.4, 1.6, 3),
        sigma_bar_grid=GridAxis(0.2, 0.8, 2),
        methods=("quadrature", "series", "bounds_s2", "bounds_s4", "discrete", "mc"),
        series_k=20,
        delta_t=1e-2,
        mc_n=20_000,
        seed=987,
    )
    _gl_nodes.cache_clear()
    first = rows_to_csv(run_sweep(config))
    second = rows_to_csv(run_sweep(config))
    # an unrelated sweep (other grid, other seed) runs between the reruns
    run_sweep(replace(config, mu_bar_grid=GridAxis(0.9, 1.1, 2), seed=1))
    warm = rows_to_csv(run_sweep(config))
    ok = first == second == warm
    _report(
        11,
        "byte-identical CSV across reruns, cold and warm quadrature cache",
        ok,
        f"{len(first.encode())} bytes, 3 runs",
    )
