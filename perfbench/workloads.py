"""Seeded workload inputs and the checks on their outputs.

Each workload is one CLI invocation of ``transduction_mir.cli.main``.  The
benchmark seed only shapes the generated config files: seed 0 reproduces
the shipped grids exactly, any other seed shifts both grid axes by a seeded
fraction of one grid step (same point count, same quadrature panel regime),
and on ``mc_path`` it is the simulation seed.  Checks return the indices of
the units (grid rows, or the single pass of ``mc_path``) that failed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

NAMES = ("surface", "panel", "mc_path")
DEFAULT_SEED = 0

#: Relative/absolute tolerance of the default-seed surface against the
#: committed results/capacity_surface.csv (byte identity is the norm today).
SURFACE_RTOL = 1e-10
SURFACE_ATOL = 1e-14
#: sha256 of results/capacity_surface.csv as committed; used only when the
#: file is absent from the tree the benchmark runs in.
SURFACE_REFERENCE_SHA256 = "d35082e1febe74dc09affbf9d1f4ea9d2f1919498ca9b89b92ba8bedd3c0b241"

#: Slack of the bound-sandwich check, the same as the sweep's own audit.
SANDWICH_SLACK = 1e-9
#: Monte Carlo estimate must lie within this many standard errors of the
#: finite-step rate at the same delta_t.
MC_SIGMAS = 4.0

PANEL_SWEEP = {
    "a": 1e-05,
    "b": 2.0,
    "mu_bar": {"min": 0.2, "max": 1.8, "steps": 8},
    "sigma_bar": {"min": 0.1, "max": 1.0, "steps": 8},
    "methods": ["quadrature", "series", "bounds_s2", "bounds_s4", "discrete"],
    "series_k": 40,
    "delta_t": 0.001,
}
MC_STEPS = 1_000_000
MC_DELTA_T = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    config: Path  # generated config file handed to the CLI
    out: Path  # where the CLI writes its output
    argv: tuple[str, ...]
    units: int  # checked units per pass

    def run_argv(self, out: Path | None = None) -> list[str]:
        """CLI argv, optionally writing to another output file."""
        argv = list(self.argv)
        argv[argv.index("--out") + 1] = str(out or self.out)
        return argv


def _shifted(axis: dict, frac: float) -> dict:
    if axis["steps"] < 2 or frac == 0.0:
        return dict(axis)
    step = (axis["max"] - axis["min"]) / (axis["steps"] - 1)
    return {
        "min": axis["min"] + frac * step,
        "max": axis["max"] + frac * step,
        "steps": axis["steps"],
    }


def grid_fractions(seed: int) -> tuple[float, float]:
    """Seeded offsets of the mu_bar and sigma_bar axes, in grid steps."""
    if seed == DEFAULT_SEED:
        return 0.0, 0.0
    rng = random.Random(seed)
    return rng.random(), rng.random()


def make(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Write the workload's inputs under ``workdir``; nothing else is touched."""
    configs = root / "configs"
    shutil.copyfile(configs / "chr2_receptor.json", workdir / "chr2_receptor.json")
    config = workdir / f"{name}.config.json"
    if name == "mc_path":
        doc = json.loads((configs / "chr2_point.json").read_text())
        out = workdir / "mc_path.json"
        argv = (
            "simulate", "--config", str(config), "--out", str(out),
            "--mc-n", str(MC_STEPS), "--delta-t", repr(MC_DELTA_T), "--seed", str(seed),
        )
        units = 1
    else:
        if name == "surface":
            doc = json.loads((configs / "capacity_surface.json").read_text())
        elif name == "panel":
            doc = {"receptor": "chr2_receptor.json", "sweep": dict(PANEL_SWEEP), "seed": 1234}
        else:
            raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
        frac_mu, frac_sigma = grid_fractions(seed)
        doc["sweep"]["mu_bar"] = _shifted(doc["sweep"]["mu_bar"], frac_mu)
        doc["sweep"]["sigma_bar"] = _shifted(doc["sweep"]["sigma_bar"], frac_sigma)
        doc.pop("output", None)
        out = workdir / f"{name}.csv"
        argv = ("sweep", "--config", str(config), "--out", str(out))
        units = doc["sweep"]["mu_bar"]["steps"] * doc["sweep"]["sigma_bar"]["steps"]
    doc["receptor"] = "chr2_receptor.json"
    config.write_text(json.dumps(doc, indent=2) + "\n")
    return Workload(name, seed, config, out, argv, units)


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(cell: str) -> float:
    return float(cell) if cell else math.nan


def check_surface(workload: Workload, text: str, root: Path) -> set[int]:
    """Every row ok; at the default seed, the committed CSV within tolerance."""
    rows = _rows(text)
    failed = {i for i, row in enumerate(rows) if row["status"] != "ok"}
    if len(rows) != workload.units:
        return set(range(workload.units))
    if workload.seed != DEFAULT_SEED:
        return failed
    reference = root / "results" / "capacity_surface.csv"
    if not reference.exists():
        digest = hashlib.sha256(text.encode()).hexdigest()
        return failed if digest == SURFACE_REFERENCE_SHA256 else set(range(len(rows)))
    expected = _rows(reference.read_text())
    if len(expected) != len(rows):
        return set(range(len(rows)))
    for i, (got, want) in enumerate(zip(rows, expected)):
        if got.keys() != want.keys() or got["status"] != want["status"]:
            failed.add(i)
            continue
        for key in got:
            if key == "status" or got[key] == want[key]:
                continue
            g, w = _num(got[key]), _num(want[key])
            if not abs(g - w) <= SURFACE_ATOL + SURFACE_RTOL * abs(w):
                failed.add(i)
    return failed


def _sandwiched(row: dict, s: int) -> bool:
    lb, ub, exact = _num(row[f"lb_s{s}"]), _num(row[f"ub_s{s}"]), _num(row["mir_quadrature"])
    return lb - SANDWICH_SLACK <= exact <= ub + SANDWICH_SLACK


def check_panel(workload: Workload, text: str, receptor) -> set[int]:
    """Every row ok, the order-k series within gain/k, both bounds sandwich."""
    from transduction_mir import sensitive_gain, stationary_distribution

    rows = _rows(text)
    if len(rows) != workload.units:
        return set(range(workload.units))
    order = PANEL_SWEEP["series_k"]
    failed = set()
    for i, row in enumerate(rows):
        if row["status"] != "ok" or not (_sandwiched(row, 2) and _sandwiched(row, 4)):
            failed.add(i)
            continue
        gain = sensitive_gain(receptor, stationary_distribution(receptor, _num(row["mu"])))
        if not abs(_num(row["mir_series"]) - _num(row["mir_quadrature"])) <= gain / order:
            failed.add(i)
    return failed


def check_mc_path(workload: Workload, text: str, receptor) -> set[int]:
    """Estimate within MC_SIGMAS standard errors of the finite-step rate."""
    from transduction_mir import TruncatedGaussianSpec, mir_discrete

    result = json.loads(text)
    dist = json.loads(workload.config.read_text())["distribution"]
    spec = TruncatedGaussianSpec(
        mu_bar=dist["mu_bar"], sigma_bar=dist["sigma_bar"], a=dist["a"], b=dist["b"]
    )
    exact = mir_discrete(receptor, spec, MC_DELTA_T).value
    ok = (
        result["n"] == MC_STEPS
        and result["seed"] == workload.seed
        and abs(result["value_bits_per_s"] - exact) <= MC_SIGMAS * result["stderr"]
    )
    return set() if ok else {0}


def check(workload: Workload, text: str, root: Path) -> set[int]:
    """Failed unit indices of one pass's output."""
    from transduction_mir import load_receptor

    if workload.name == "surface":
        return check_surface(workload, text, root)
    receptor = load_receptor(workload.config.parent / "chr2_receptor.json")
    if workload.name == "panel":
        return check_panel(workload, text, receptor)
    return check_mc_path(workload, text, receptor)
