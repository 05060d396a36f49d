"""The experiment scripts, run offline on a temporary copy of ``configs/``.

The CI workflow reruns ``scripts/run_capacity_surface.py`` and
``scripts/run_panel_sweeps.py`` and requires ``git diff --exit-code
results/``.  The scripts import package internals (``sweep._edge_note``), so
this runs the same check in tier-1: each script's ``ROOT`` points at a
temporary tree, and ``results/`` itself is never written.
"""

import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CAPACITY_LINES = [
    "capacity by exact rate: mu_bar=0.0500 sigma_bar=0.9286 value=0.101961 bits/s"
    " on the mu_bar min edge; the maximum may lie outside the grid",
    "capacity by s=2 upper:  mu_bar=0.0500 sigma_bar=0.8694 value=0.181540 bits/s"
    " on the mu_bar min edge; the maximum may lie outside the grid",
]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_rewrite_the_shipped_results(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    # each script puts src/ on sys.path when it is loaded; undo that after
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in ("run_capacity_surface", "run_panel_sweeps"):
        script = load_script(name)
        monkeypatch.setattr(script, "ROOT", tmp_path)
        assert script.run() == 0
    written = sorted(path.name for path in (tmp_path / "results").iterdir())
    assert written == sorted(path.name for path in (ROOT / "results").glob("*.csv"))
    for name in written:
        assert (tmp_path / "results" / name).read_bytes() == (ROOT / "results" / name).read_bytes()
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("capacity by ")] == CAPACITY_LINES
