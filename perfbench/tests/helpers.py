import dataclasses
import json
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[2]


def small_sweep(tmp_path, name, steps=2):
    """A sweep workload shrunk to a steps x steps grid."""
    workload = workloads.make(name, 0, ROOT, tmp_path)
    doc = json.loads(workload.config.read_text())
    for axis in ("mu_bar", "sigma_bar"):
        doc["sweep"][axis]["steps"] = steps
    workload.config.write_text(json.dumps(doc))
    return dataclasses.replace(workload, units=steps * steps)
