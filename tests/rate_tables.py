"""Regenerate ``tests/rate_tables.json``, the FROZEN mpmath rate integrals
that ``test_truncgauss.py::TestRateTables`` checks the certified
quadrature on.

Run from the repository root (a few minutes on one core)::

    PYTHONPATH=src python tests/rate_tables.py

Each case is a spec (mu_bar, sigma_bar, a, b) and its E[x ln x] by
``oracles.rate_integral`` (40-digit mpmath over the package's own panels),
written with 25 significant digits.  The families are every row of the
three shipped sweeps, ``surface``, ``mean`` and ``spread``
(``configs/capacity_surface.json``, ``chr2_mean_sweep.json`` and
``chr2_spread_sweep.json``), and ``panel``, the 8x8 grid on [1e-5, 2]
(mu_bar in [0.2, 1.8], sigma_bar in [0.1, 1.0]) that
``test_cli.py::TestShippedConfigs::test_panel_sweep_csv_frozen`` pins.
``entries`` holds, for each ``panel`` row, E[p log2 p] of the x-dependent
diagonal entry p = c + m x of the ChR2 receptor's step kernel at delta_t =
1e-3 and b = 2 (``configs/chr2_receptor.json``), with its c and m.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp
import numpy as np

from oracles import rate_integral
from transduction_mir import TruncatedGaussianSpec, load_receptor
from transduction_mir.receptor import step_kernel

ROOT = Path(__file__).resolve().parent.parent
TABLES = Path(__file__).resolve().parent / "rate_tables.json"
PANEL = {"a": 1e-5, "b": 2.0, "mu_bar": (0.2, 1.8, 8), "sigma_bar": (0.1, 1.0, 8)}
DELTA_T = 1e-3


def grid(config: str) -> list[tuple]:
    sweep = json.loads((ROOT / "configs" / config).read_text())["sweep"]
    axes = [np.linspace(sweep[k]["min"], sweep[k]["max"], sweep[k]["steps"]) for k in ("mu_bar", "sigma_bar")]
    return [(float(m), float(s), sweep["a"], sweep["b"]) for m in axes[0] for s in axes[1]]


def panel_grid() -> list[tuple]:
    axes = [np.linspace(*PANEL[k]) for k in ("mu_bar", "sigma_bar")]
    return [(float(m), float(s), PANEL["a"], PANEL["b"]) for m in axes[0] for s in axes[1]]


def diagonal_entry() -> tuple[float, float]:
    """(c, m) of the ChR2 step kernel's one x-dependent diagonal entry."""
    receptor = load_receptor(ROOT / "configs" / "chr2_receptor.json")
    const, lin = step_kernel(receptor, DELTA_T, PANEL["b"])
    (y,) = np.flatnonzero(np.diagonal(receptor.slope)).tolist()
    return float(const[y, y]), float(lin[y, y])


def text(value) -> str:
    return mp.nstr(value, 25, min_fixed=0, max_fixed=0)


def main() -> None:
    families = {
        "surface": grid("capacity_surface.json"),
        "mean": grid("chr2_mean_sweep.json"),
        "spread": grid("chr2_spread_sweep.json"),
        "panel": panel_grid(),
    }
    cases = [
        {"family": family, "spec": list(args), "e_xlnx": text(rate_integral(TruncatedGaussianSpec(*args)))}
        for family, rows in families.items()
        for args in rows
    ]
    c, m = diagonal_entry()
    entries = [
        {"spec": list(args), "e_plogp": text(rate_integral(TruncatedGaussianSpec(*args), c, m, base2=True))}
        for args in families["panel"]
    ]
    doc = {"delta_t": DELTA_T, "c": c, "m": m, "cases": cases, "entries": entries}
    TABLES.write_text(json.dumps(doc, indent=0, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
