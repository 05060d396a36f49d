"""Regenerate ``tests/moment_tables.json``, the FROZEN mpmath tables that
``test_truncgauss.py::TestRecurrenceGate`` checks the moment recurrence on.

Run from the repository root (about ten minutes on one core)::

    PYTHONPATH=src python tests/moment_tables.py

Each case is a spec (mu_bar, sigma_bar, a, b), a center c, the support
scale h = max |x - c| over the window clipped to +-40 parent sigmas, and
V_k = E[(x - c)^k] / h^k for k = 0..64 from ``oracles.scaled_moments``,
rounded to doubles.  The families:

* ``mean``, ``spread``: every fifth row of ``configs/chr2_mean_sweep.json``
  and ``configs/chr2_spread_sweep.json``, about 0, the mean and 1;
* ``panel``: every second row of the 8x8 panel grid ([1e-5, 2], mu_bar in
  [0.2, 1.8], sigma_bar in [0.1, 1.0]), about 0, the mean and 1;
* ``surface``: 16 seeded rows of ``configs/capacity_surface.json``, about
  0, the mean and 1;
* ``narrow``: 40 seeded windows 1e-4 to 5e-3 parent sigmas wide (mu_bar in
  [-1, 1], sigma_bar in [0.5, 2], a in [0.01, 0.3]), about 0 and the mean;
* ``seeded``: 100 seeded cases with R^2 = (h / sigma_bar)^2 log-uniform on
  [1e-4, 1600], the window, mu_bar (inside or outside it) and the center
  drawn at random.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from oracles import scaled_moments
from transduction_mir import MirError, TruncatedGaussianSpec

ROOT = Path(__file__).resolve().parent.parent
TABLES = Path(__file__).resolve().parent / "moment_tables.json"
ORDER = 64


def grid(config: str) -> list[tuple]:
    sweep = json.loads((ROOT / "configs" / config).read_text())["sweep"]
    axes = [np.linspace(sweep[k]["min"], sweep[k]["max"], sweep[k]["steps"]) for k in ("mu_bar", "sigma_bar")]
    return [(float(m), float(s), sweep["a"], sweep["b"]) for m in axes[0] for s in axes[1]]


def valid(args) -> TruncatedGaussianSpec | None:
    try:
        return TruncatedGaussianSpec(*args)
    except MirError:
        return None


def narrow_windows(rng, count: int) -> list[tuple]:
    cases = []
    while len(cases) < count:
        mu_bar, sigma_bar, a = rng.uniform(-1, 1), rng.uniform(0.5, 2), rng.uniform(0.01, 0.3)
        width = sigma_bar * 10 ** rng.uniform(-4, math.log10(5e-3))
        spec = valid((mu_bar, sigma_bar, a, a + width))
        if spec is not None:
            cases += [(spec, 0.0), (spec, spec.mu)]
    return cases


def seeded_radii(rng, count: int) -> list[tuple]:
    cases = []
    while len(cases) < count:
        a = rng.uniform(0.0, 1.0)
        b = a + 10 ** rng.uniform(-2, 0.5)
        center = rng.uniform(a - 0.5 * (b - a), b + 0.5 * (b - a))
        h = max(abs(a - center), abs(b - center))
        sigma_bar = h / 10 ** rng.uniform(-2, math.log10(40.0))
        mu_bar = rng.uniform(a - 3 * sigma_bar, b + 3 * sigma_bar)
        spec = valid((mu_bar, sigma_bar, a, b))
        if spec is not None:
            cases.append((spec, center))
    return cases


def cases() -> list[tuple[str, TruncatedGaussianSpec, float]]:
    rng = np.random.default_rng(20261020)
    panel = [(float(m), float(s), 1e-5, 2.0) for m in np.linspace(0.2, 1.8, 8) for s in np.linspace(0.1, 1.0, 8)]
    surface = grid("capacity_surface.json")
    rows = {
        "mean": grid("chr2_mean_sweep.json")[::5],
        "spread": grid("chr2_spread_sweep.json")[::5],
        "panel": panel[::2],
        "surface": [surface[i] for i in sorted(rng.choice(len(surface), 16, replace=False))],
    }
    out = []
    for family, specs in rows.items():
        for args in specs:
            spec = TruncatedGaussianSpec(*args)
            out += [(family, spec, center) for center in (0.0, spec.mu, 1.0)]
    out += [("narrow", spec, center) for spec, center in narrow_windows(rng, 80)]
    out += [("seeded", spec, center) for spec, center in seeded_radii(rng, 100)]
    return out


def main() -> None:
    records = []
    for family, spec, center in cases():
        h, moments = scaled_moments(spec, center, ORDER)
        records.append({
            "family": family,
            "spec": [spec.mu_bar, spec.sigma_bar, spec.a, spec.b],
            "center": center,
            "h": float(h),
            "v": [float(v) for v in moments],
        })
    TABLES.write_text(json.dumps({"order": ORDER, "cases": records}, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
