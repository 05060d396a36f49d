"""Outside-in span tracer for the transduction_mir layers.

The tracer never edits package source.  For the length of one traced pass
it replaces the module-level names that one layer calls in another (for
example ``transduction_mir.mir.expectation``) with wrappers that record a
span per call, then puts the originals back.  A name that no longer exists
is skipped, so its layer reads zero calls instead of crashing the run.

Spans are kept in memory as ``[name, start, end, parent]`` records (parent
is the index of the enclosing span, or None) and written out once the pass
is over.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

#: (module of transduction_mir, attribute, span name).  Each attribute is a
#: name the first module looks up at call time to reach another layer.
WRAPS = (
    ("cli", "run_sweep", "sweep.run"),
    ("cli", "write_rows", "sweep.write"),
    ("cli", "simulate", "mcsim.simulate"),
    ("cli", "estimate_mir", "mcsim.estimate"),
    ("sweep", "TruncatedGaussianSpec", "truncgauss.spec"),
    ("sweep", "mir_quadrature", "mir.quadrature"),
    ("sweep", "mir_series", "mir.series"),
    ("sweep", "mir_discrete", "mir.discrete"),
    ("sweep", "mir_bounds", "bounds.mir_bounds"),
    ("mir", "stationary_distribution", "receptor.stationary"),
    ("bounds", "stationary_distribution", "receptor.stationary"),
    ("mcsim", "stationary_distribution", "receptor.stationary"),
    ("mir", "expectation", "truncgauss.expectation"),
    ("mir", "shifted_moment_vector", "truncgauss.shifted_moments"),
    ("mir", "raw_moments", "truncgauss.raw_moments"),
    ("bounds", "raw_moments", "truncgauss.raw_moments"),
    ("mcsim", "sample", "truncgauss.sample"),
)


class Tracer:
    """Spans and per-layer tallies of one traced pass.

    ``tally[span_name]`` counts ``calls`` plus the work measures some layers
    have: ``nodes`` (integrand evaluations) and ``accepted_nodes`` (those in
    the returned estimate) for expectation, ``steps`` for simulate, ``draws``
    for sample and ``bytes`` for the sweep writer.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.tally: defaultdict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, span_name in WRAPS:
            try:
                module = importlib.import_module(f"transduction_mir.{module_name}")
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(index)
        self.tally[name]["calls"] += 1
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        tally = self.tally[name]
        if name == "truncgauss.expectation":

            def traced(spec, f, *args, **kwargs):
                sizes: list[int] = []

                def integrand(xs):
                    sizes.append(int(np.size(xs)))
                    return f(xs)

                try:
                    result = self.call(name, fn, spec, integrand, *args, **kwargs)
                finally:
                    tally["nodes"] += sum(sizes)
                tally["accepted_nodes"] += sizes[-1] if sizes else 0
                return result

        elif name == "mcsim.simulate":

            def traced(spec, dist, delta_t, n, *args, **kwargs):
                tally["steps"] += int(n)
                return self.call(name, fn, spec, dist, delta_t, n, *args, **kwargs)

        elif name == "truncgauss.sample":

            def traced(*args, **kwargs):
                result = self.call(name, fn, *args, **kwargs)
                tally["draws"] += int(np.size(result))
                return result

        elif name == "sweep.write":

            def traced(rows, path, *args, **kwargs):
                result = self.call(name, fn, rows, path, *args, **kwargs)
                tally["bytes"] += os.path.getsize(path)
                return result

        else:

            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span counted minus its children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += (end - start) - inner
        return dict(totals)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )
