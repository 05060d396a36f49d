"""The tracer counts the layers' work, restores every name and changes no output."""

import importlib
import json

import pytest

import tracer as tracer_module
import workloads
from helpers import ROOT, small_sweep
from tracer import WRAPS, Tracer
from transduction_mir import cli


def originals():
    return {
        (module, attr): getattr(importlib.import_module(f"transduction_mir.{module}"), attr)
        for module, attr, _ in WRAPS
    }


def traced_run(argv):
    tracer = Tracer()
    with tracer:
        code = tracer.call("cli.main", cli.main, argv)
    assert code == 0
    return tracer


@pytest.mark.parametrize(
    "name, stationary, nodes",
    [("surface", 2, 600), ("panel", 5, 11400)],
)
def test_counts_per_point(tmp_path, name, stationary, nodes):
    workload = small_sweep(tmp_path, name)
    tally = traced_run(workload.run_argv()).tally
    assert tally["receptor.stationary"]["calls"] == stationary * workload.units
    expectation = tally["truncgauss.expectation"]
    assert expectation["nodes"] == nodes * expectation["calls"]
    assert expectation["accepted_nodes"] * 3 == expectation["nodes"] * 2
    assert tally["sweep.write"]["bytes"] == workload.out.stat().st_size


def test_names_restored_and_output_unchanged(tmp_path):
    workload = small_sweep(tmp_path, "panel")
    before = originals()
    assert cli.main(workload.run_argv()) == 0
    plain = workload.out.read_bytes()
    traced_run(workload.run_argv())
    assert originals() == before
    assert workload.out.read_bytes() == plain


def test_restored_after_exception():
    before = originals()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert originals() == before


def test_missing_names_read_zero(tmp_path, monkeypatch):
    monkeypatch.setattr(
        tracer_module,
        "WRAPS",
        WRAPS + (("mir", "no_such_name", "gone.layer"), ("no_such_module", "f", "gone.module")),
    )
    workload = small_sweep(tmp_path, "surface")
    tracer = traced_run(workload.run_argv())
    assert tracer.tally["gone.layer"]["calls"] == 0
    assert tracer.tally["gone.module"]["calls"] == 0
    assert "gone.layer" not in tracer.self_times()


def test_self_times_partition_the_pass(tmp_path):
    workload = small_sweep(tmp_path, "surface")
    tracer = traced_run(workload.run_argv())
    _, start, end, parent = tracer.spans[0]
    assert parent is None
    assert sum(tracer.self_times().values()) == pytest.approx(end - start, rel=1e-9)
    assert all(value >= 0.0 for value in tracer.self_times().values())


def test_simulate_steps_and_draws(tmp_path):
    workload = workloads.make("mc_path", 5, ROOT, tmp_path)
    argv = workload.run_argv()
    argv[argv.index("--mc-n") + 1] = "2000"
    tally = traced_run(argv).tally
    assert tally["mcsim.simulate"]["steps"] == 2000
    assert tally["truncgauss.sample"]["draws"] == 2000
    assert tally["receptor.stationary"]["calls"] == 1
    assert tally["mcsim.estimate"]["calls"] == 1


def test_spans_written(tmp_path):
    workload = small_sweep(tmp_path, "surface")
    tracer = traced_run(workload.run_argv())
    path = tmp_path / "spans.jsonl"
    tracer.write_spans(path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == len(tracer.spans)
    assert records[0]["name"] == "cli.main"
    assert all(set(r) == {"name", "start", "end", "parent"} for r in records)
