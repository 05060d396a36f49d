#!/usr/bin/env python3
"""Benchmark of the transduction_mir command line on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload surface --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

With ``--trace 0`` one run measures the end-to-end metrics of one workload:
``setup_s`` (median over fresh interpreters of importing the package and
loading the config and receptor), ``wall_cal`` (median warm in-process pass
of ``cli.main``), ``cold_wall_cal`` (median full CLI run in a fresh process)
and ``peak_rss_mb`` (peak resident memory of the process running the
passes).  The two ``_cal`` times are in calibration units: each pass or run
is divided by the mean time of a fixed stdlib/numpy loop timed just before
and just after it, which cancels most of the drift in machine speed of a
shared host; their plain seconds (``wall_s``, ``cold_wall_s``) go to stderr
with quartiles and sample counts.  With ``--trace 1`` a run alternates
untraced and traced passes and reports the per-layer metrics from the spans
of ``tracer.Tracer``.  Every pass's output is checked; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is nonzero when any check fails.
``--workload all`` runs each workload in its own process and prints every
end-to-end metric, the plain seconds and ``failed_ratio``.

Everything the benchmark writes goes under ``.perfbench_work/`` at the root:
per-run temporary directories, removed at exit, and the spans of the last
traced pass of each workload (``spans-<workload>.jsonl``).
"""

import os

# One BLAS/OpenMP thread, set before numpy loads here or in any child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import WRAPS, Tracer  # noqa: E402

MIN_ROUNDS = 5
#: Warm-pass time per round of the end-to-end run; cheap passes repeat.
WARM_PER_ROUND_S = 1.5
CHILD_TIMEOUT_S = 120

SETUP_SNIPPET = """\
import time
t0 = time.perf_counter()
import json, sys
from pathlib import Path
from transduction_mir import load_receptor
config = Path(sys.argv[1])
load_receptor(config.parent / json.loads(config.read_text())["receptor"])
print(repr(time.perf_counter() - t0))
"""
CLI_SNIPPET = "import sys\nfrom transduction_mir.cli import main\nsys.exit(main(sys.argv[1:]))\n"

#: Span names whose self time is a per-layer metric ``<span>.self_s``.
SELF_TIME_SPANS = ("cli.main", *dict.fromkeys(span for _, _, span in WRAPS))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def calibrate() -> float:
    """Seconds for a fixed pure-Python and numpy loop: the machine's speed."""
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for i in range(600_000):
        acc += (i % 7) * 0.5
    values = np.arange(1.0, 50_001.0)
    for _ in range(120):
        values = np.sqrt(values + acc)
    return time.perf_counter() - start


class Passes:
    """In-process CLI passes of one workload, each compared with the first.

    The first pass's output is the reference.  Every later pass, and every
    cold run, must reproduce it byte for byte.  The reference is checked
    only in ``outcome``, after the timing and the peak-memory reading, so
    the checker's own allocations stay out of ``peak_rss_mb``.

    On ``mc_path`` it also wraps ``cli.simulate`` to digest the ``states``
    array of every trajectory (outside the timed region), so that passes with
    one seed can be shown to produce the same path.
    """

    def __init__(self, workload):
        import transduction_mir.cli as cli

        self.cli = cli
        self.workload = workload
        self.reference = None
        self.reference_states = None
        self.reference_ok = None  # set by the first pass
        self.matches: list[bool] = []
        self._trajectory = None
        self._simulate = getattr(cli, "simulate", None)
        if workload.name == "mc_path" and self._simulate is not None:
            cli.simulate = self._capture

    def _capture(self, *args, **kwargs):
        self._trajectory = self._simulate(*args, **kwargs)
        return self._trajectory

    def close(self) -> None:
        if self.workload.name == "mc_path" and self._simulate is not None:
            self.cli.simulate = self._simulate

    def _states_digest(self):
        traj, self._trajectory = self._trajectory, None
        if traj is None:
            return None
        return hashlib.sha256(
            str(traj.initial_state).encode() + traj.states.tobytes()
        ).hexdigest()

    def run(self, tracer: Tracer | None = None) -> float:
        """One timed pass; returns its wall time in seconds."""
        argv = self.workload.run_argv()
        self.workload.out.unlink(missing_ok=True)
        start = time.perf_counter()
        if tracer is None:
            code = self.cli.main(argv)
        else:
            code = tracer.call("cli.main", self.cli.main, argv)
        elapsed = time.perf_counter() - start
        output = self.workload.out.read_bytes() if code == 0 else None
        states = self._states_digest()
        if self.reference_ok is None:
            self.reference, self.reference_states = output, states
            self.reference_ok = output is not None and (
                states is not None or self.workload.name != "mc_path"
            )
        else:
            self.matches.append(output == self.reference and states == self.reference_states)
        return elapsed

    def outcome(self) -> tuple[int, int]:
        """(attempted, failed) units over the reference and every repeat."""
        units = self.workload.units
        bad = units
        if self.reference_ok:
            bad = len(workloads.check(self.workload, self.reference.decode(), ROOT))
        failed = bad + sum(bad if same else units for same in self.matches)
        return units * (1 + len(self.matches)), failed


def run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


def setup_time(workload) -> float:
    """Import the package and load the config and receptor in a fresh interpreter."""
    _, proc = run_child([sys.executable, "-c", SETUP_SNIPPET, str(workload.config)])
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def cold_run(workload, passes: Passes, out: Path) -> float:
    """One full CLI run in a fresh interpreter; its output must match the warm one."""
    out.unlink(missing_ok=True)
    elapsed, proc = run_child([sys.executable, "-c", CLI_SNIPPET, *workload.run_argv(out)])
    passes.matches.append(proc.returncode == 0 and out.read_bytes() == passes.reference)
    return elapsed


def describe(name: str, values: list[float], unit: str) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (
        f"{name}: median {statistics.median(values):.6g} {unit}, "
        f"quartiles [{q1:.6g}, {q3:.6g}], min {min(values):.6g}, max {max(values):.6g}, "
        f"n={len(values)}"
    )


def measure_end_to_end(passes: Passes, seconds: float, tmp: Path) -> dict:
    """Rounds of one set-up probe, one cold run and about ``WARM_PER_ROUND_S``
    of warm passes, for ``seconds``.

    Interleaving spreads each kind of sample over the whole run, so a slow
    phase of the host does not fall on one kind alone.  Each warm pass and
    cold run is paired with the mean of the calibration loops timed just
    before and just after it; the ``_cal`` metrics are the total time of one
    kind over the total of its paired calibrations.  On the shared host this
    ratio of sums spread less from run to run than the median of per-item
    ratios, which each carry the noise of one short calibration.
    """
    workload = passes.workload
    setup, raw, calib = [], {"wall": [], "cold": []}, {"wall": [], "cold": []}
    warm_per_round = max(1, round(WARM_PER_ROUND_S / passes.run()))  # warm-up
    out = tmp / f"cold{workload.out.suffix}"
    round_items = [("wall", passes.run)] * warm_per_round + [
        ("cold", lambda: cold_run(workload, passes, out))
    ]
    before = calibrate()
    start = time.perf_counter()
    while len(setup) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        setup.append(setup_time(workload))
        for kind, run_once in round_items:
            elapsed = run_once()
            after = calibrate()
            raw[kind].append(elapsed)
            calib[kind].append(0.5 * (before + after))
            before = after
    scaled = {kind: [t / c for t, c in zip(raw[kind], calib[kind])] for kind in raw}
    for line in (
        describe("setup_s", setup, "s"),
        describe("wall_s", raw["wall"], "s"),
        describe("wall per calibration", scaled["wall"], "cal"),
        describe("cold_wall_s", raw["cold"], "s"),
        describe("cold_wall per calibration", scaled["cold"], "cal"),
    ):
        print(f"[{workload.name}] {line}", file=sys.stderr)
    return {
        "setup_s": statistics.median(setup),
        "wall_cal": sum(raw["wall"]) / sum(calib["wall"]),
        "cold_wall_cal": sum(raw["cold"]) / sum(calib["cold"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(workload, tracers: list[Tracer], plain: list[float],
                  traced: list[float], calib: list[float]) -> dict:
    per_pass = [tracer.self_times() for tracer in tracers]
    tally = tracers[0].tally
    units = workload.units

    def median_self(span: str) -> float:
        return statistics.median(times.get(span, 0.0) for times in per_pass)

    def per_unit_ns(span: str, key: str) -> float:
        count = tally[span][key]
        return median_self(span) / count * 1e9 if count else 0.0

    stationary = tally["receptor.stationary"]
    expectation = tally["truncgauss.expectation"]
    metrics = {f"{span}.self_s": median_self(span) for span in SELF_TIME_SPANS}
    metrics.update({
        "receptor.stationary.calls_per_point": stationary["calls"] / units,
        "truncgauss.expectation.calls_per_point": expectation["calls"] / units,
        "truncgauss.expectation.nodes_per_call":
            expectation["nodes"] / expectation["calls"] if expectation["calls"] else 0.0,
        "truncgauss.expectation.useful_node_ratio":
            expectation["accepted_nodes"] / expectation["nodes"] if expectation["nodes"] else 0.0,
        "sweep.write.bytes": tally["sweep.write"]["bytes"],
        "mcsim.simulate.ns_per_step": per_unit_ns("mcsim.simulate", "steps"),
        "truncgauss.sample.ns_per_draw": per_unit_ns("truncgauss.sample", "draws"),
        "machine.calib_s": statistics.median(calib),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    })
    if any(tracer.tally != tally for tracer in tracers[1:]):
        print(f"[{workload.name}] warning: call counts differ between traced passes",
              file=sys.stderr)
    return metrics


def measure_layers(passes: Passes, seconds: float) -> dict:
    workload = passes.workload
    tracers, plain, traced, calib = [], [], [], []
    passes.run()  # warm-up and reference
    start = time.perf_counter()
    while len(traced) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        calib.append(calibrate())
        plain.append(passes.run())
        tracer = Tracer()
        with tracer:
            traced.append(passes.run(tracer))
        tracers.append(tracer)
    tracers[-1].write_spans(WORKDIR / f"spans-{workload.name}.jsonl")
    print(f"[{workload.name}] {describe('wall_s untraced', plain, 's')}", file=sys.stderr)
    print(f"[{workload.name}] {describe('wall_s traced', traced, 's')}", file=sys.stderr)
    return layer_metrics(workload, tracers, plain, traced, calib)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORKDIR))
    try:
        passes = Passes(workloads.make(name, seed, ROOT, tmp))
        try:
            if trace:
                values = measure_layers(passes, seconds)
            else:
                values = measure_end_to_end(passes, seconds, tmp)
        finally:
            passes.close()
        attempted, failed = passes.outcome()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(seed: int, seconds: int) -> int:
    """Each workload in its own process; one table of end-to-end metrics."""
    status = 0
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status = status or proc.returncode
        print(proc.stderr, end="")
        for metric, entry in result["metrics"].items():
            print(f"{name:8s} {metric:12s} {entry['value']:12.6g} {entry['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{name:8s} {'failed_ratio':12s} {ratio:12.6g} ratio "
              f"({result['failed']}/{result['attempted']} units)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "transduction_mir" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
