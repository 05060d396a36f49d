"""Seeded inputs and output checks of the benchmark workloads."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from helpers import ROOT, small_sweep
from transduction_mir import cli


def test_default_seed_reproduces_shipped_grid(tmp_path):
    workload = workloads.make("surface", workloads.DEFAULT_SEED, ROOT, tmp_path)
    shipped = json.loads((ROOT / "configs" / "capacity_surface.json").read_text())
    generated = json.loads(workload.config.read_text())
    assert generated["sweep"] == shipped["sweep"]
    assert workload.units == 2500


@pytest.mark.parametrize("name", ["surface", "panel"])
def test_other_seeds_shift_within_one_step(tmp_path, name):
    base = json.loads(workloads.make(name, 0, ROOT, tmp_path).config.read_text())
    for seed in (1, 2, 99):
        target = tmp_path / str(seed)
        target.mkdir()
        doc = json.loads(workloads.make(name, seed, ROOT, target).config.read_text())
        again = target / "again"
        again.mkdir()
        assert json.loads(workloads.make(name, seed, ROOT, again).config.read_text()) == doc
        for axis in ("mu_bar", "sigma_bar"):
            old, new = base["sweep"][axis], doc["sweep"][axis]
            step = (old["max"] - old["min"]) / (old["steps"] - 1)
            assert new["steps"] == old["steps"]
            assert 0.0 <= new["min"] - old["min"] < step
            assert new["max"] - new["min"] == pytest.approx(old["max"] - old["min"])


def test_mc_seed_is_passed_through(tmp_path):
    workload = workloads.make("mc_path", 17, ROOT, tmp_path)
    assert workload.argv[workload.argv.index("--seed") + 1] == "17"


def test_inputs_stay_in_workdir(tmp_path):
    for name in workloads.NAMES:
        target = tmp_path / name
        target.mkdir()
        workload = workloads.make(name, 3, ROOT, target)
        assert workload.config.parent == target
        assert workload.out.parent == target


def corrupt(text, column, value, row=0):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_surface_check_at_default_seed(tmp_path):
    workload = workloads.make("surface", 0, ROOT, tmp_path)
    text = (ROOT / "results" / "capacity_surface.csv").read_text()
    assert workloads.check(workload, text, ROOT) == set()
    assert workloads.check(workload, corrupt(text, "mir_quadrature", "0.5", row=7), ROOT) == {7}
    assert workloads.check(workload, corrupt(text, "status", "quadrature:X", row=3), ROOT) == {3}
    assert workloads.check(workload, "\n".join(text.splitlines()[:-1]) + "\n", ROOT) == set(
        range(2500)
    )


def test_surface_check_without_committed_results(tmp_path):
    (tmp_path / "configs").mkdir()
    for name in ("capacity_surface.json", "chr2_receptor.json"):
        shutil.copy(ROOT / "configs" / name, tmp_path / "configs" / name)
    work = tmp_path / "work"
    work.mkdir()
    workload = workloads.make("surface", 0, tmp_path, work)
    text = (ROOT / "results" / "capacity_surface.csv").read_text()
    assert workloads.check(workload, text, tmp_path) == set()
    assert len(workloads.check(workload, corrupt(text, "mu", "0.1"), tmp_path)) == 2500


def test_panel_check(tmp_path):
    workload = small_sweep(tmp_path, "panel")
    assert cli.main(workload.run_argv()) == 0
    text = workload.out.read_text()
    assert workloads.check(workload, text, ROOT) == set()
    assert workloads.check(workload, corrupt(text, "mir_series", "9.0", row=1), ROOT) == {1}
    assert workloads.check(workload, corrupt(text, "ub_s4", "0.0", row=2), ROOT) == {2}
    assert workloads.check(workload, corrupt(text, "status", "series:X"), ROOT) == {0}


def test_mc_check(tmp_path):
    workload = workloads.make("mc_path", 4, ROOT, tmp_path)
    argv = workload.run_argv()
    assert cli.main(argv) == 0
    result = json.loads(workload.out.read_text())
    assert workloads.check(workload, json.dumps(result), ROOT) == set()
    result["value_bits_per_s"] += 5 * result["stderr"]
    assert workloads.check(workload, json.dumps(result), ROOT) == {0}


def test_fails_without_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "surface", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_passes_count_units_and_repeats(tmp_path):
    workload = small_sweep(tmp_path, "panel")
    passes = run.Passes(workload)
    try:
        passes.run()
        passes.run()
        assert run.cold_run(workload, passes, tmp_path / "cold.csv") > 0.0
    finally:
        passes.close()
    assert passes.outcome() == (12, 0)
    passes.matches.append(False)
    assert passes.outcome() == (16, 4)
    passes.reference = passes.reference.replace(b",ok\n", b",series:X\n", 1)
    assert passes.outcome() == (16, 1 + 1 + 1 + 4)  # reference, 2 repeats, mismatch
