#!/usr/bin/env python3
"""Sweep a (mu_bar, sigma_bar) surface and compare argmax locations.

Computes the exact rate and the closed-form s = 2 upper bound on a 50x50
grid, writes the CSV, and reports the capacity-achieving point of each
surface plus their Spearman rank correlation.  The cheap upper bound tracks
the exact surface closely enough to locate good input parameters without
computing a single integral.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from transduction_mir import find_capacity, rows_from_csv  # noqa: E402
from transduction_mir.cli import main  # noqa: E402
from transduction_mir.sweep import _edge_note  # noqa: E402


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``values``; tied values share the average of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rank correlation: Pearson's correlation of the average ranks."""
    return float(np.corrcoef(average_ranks(x), average_ranks(y))[0, 1])


def run() -> int:
    (ROOT / "results").mkdir(exist_ok=True)
    config = ROOT / "configs" / "capacity_surface.json"
    out = ROOT / "results" / "capacity_surface.csv"
    code = main(["sweep", "--config", str(config), "--out", str(out)])
    if code != 0:
        return code

    rows = rows_from_csv(out.read_text())
    exact = np.array([row.mir_quadrature for row in rows])
    upper = np.array([row.ub_s2 for row in rows])
    rho = spearman(exact, upper)
    by_exact = find_capacity(rows, by="mir_quadrature")
    by_upper = find_capacity(rows, by="ub_s2")
    print(f"wrote {out}")
    print(f"spearman(exact, upper_s2) = {rho:.4f}")
    for label, (mu_bar, sigma_bar, value) in (
        ("exact rate", by_exact),
        ("s=2 upper", by_upper),
    ):
        print(
            f"capacity by {label + ':':11} mu_bar={mu_bar:.4f} sigma_bar={sigma_bar:.4f} "
            f"value={value:.6f} bits/s{_edge_note(rows, mu_bar, sigma_bar)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(run())
