#!/usr/bin/env python3
"""Write BENCH_<short-sha>.json: the benchmark's end-to-end metrics of this tree.

Runs ``perfbench/run.py --workload <w> --seed 0 --trace 0`` once per
workload, keeps the JSON object on the last line of its stdout and the raw
seconds it prints to stderr (the warm in-process passes ``wall_s``, the
cold CLI runs ``cold_wall_s`` and ``setup_s``), and adds the facts of the
machine that ran it.  The file reports only; no test reads it.

    python3 scripts/write_bench.py

The short sha is that of the measured ``src/`` tree, ``git rev-parse
<commit>:src`` of the commit that holds these sources (uncommitted changes
to tracked files included), so the file names the code it measured whatever
commit carries it; ``base_commit`` is the HEAD it ran on.
"""

import ctypes
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("surface", "panel", "mc_path")
# "[surface] wall_s: median 0.05 s, quartiles [0.04, 0.06], min 0.03, max 0.07, n=40"
STAT = re.compile(
    r"\[\w+\] (setup_s|wall_s|cold_wall_s): median (\S+) s, quartiles \[(\S+), (\S+)\], "
    r"min (\S+), max (\S+), n=(\d+)"
)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def src_tree() -> str:
    """The sha of the src/ tree as it is on disk (tracked files)."""
    return git("rev-parse", f"{git('stash', 'create') or 'HEAD'}:src")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def simd_targets() -> dict:
    """numpy's baseline SIMD targets and the dispatch targets this CPU runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"baseline": list(umath.__cpu_baseline__), "dispatch": found}


def openblas_core():
    """The core type numpy's bundled OpenBLAS selected, or None."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        blas = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(blas, name):
                getattr(blas, name).restype = ctypes.c_char_p
                return getattr(blas, name)().decode()
    return None


def run(workload: str) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_seconds"] = {
        name: dict(zip(("median", "q1", "q3", "min", "max"), map(float, rest[:5])), n=int(rest[5]))
        for name, *rest in STAT.findall(proc.stderr)
    }
    result["exit_code"] = proc.returncode
    return result


def main() -> int:
    tree = src_tree()
    doc = {
        "src_tree": tree,
        "base_commit": git("rev-parse", "HEAD"),
        "command": "python3 perfbench/run.py --workload <w> --seed 0 --trace 0",
        "machine": {
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "numpy_simd": simd_targets(),
            "openblas_core": openblas_core(),
        },
        "workloads": {name: run(name) for name in WORKLOADS},
    }
    out = ROOT / f"BENCH_{tree[:7]}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
