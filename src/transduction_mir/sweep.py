"""Parameter sweeps over (mu_bar, sigma_bar) grids with CSV/JSON output.

A sweep evaluates the selected methods at every grid point, never aborting
on a per-point numerical failure (the row's status column records it), and
emits rows in mu_bar-major order.  Each grid-wide quantity is computed once,
as one array pass over the grid's columns: the input distributions of all
points (``truncgauss._spec_rows``, kept as the columns every kernel reads),
the mean chains and gains of all valid points as one stack, their Jensen
gaps from one Gauss-Legendre pass, the quadrature rates, the discrete rate
as the quadrature rate plus the E[p log p] of every x-dependent diagonal
entry of every point, the moments E[(x - 1)^k] of every point for the
series, and the bounds of each selected order s = 2, 4.  Every batched
kernel returns one row format: value columns, float arrays with nan on the
rows that fail, and one error list holding per row the MirError that
rejected it, or None.  Method by method, the value columns fill the output
fields and the errors the status column, and the rows are built from the
columns.  Only Monte Carlo runs point by point, on a spec built by the
constructor, into the same format.
The scalar library functions are the same kernels on one point, so a row
holds the bits a single-point call returns, and the failure it would raise.
Monte Carlo points derive independent seeds from (master seed, row index),
so output is byte-identical across runs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

# mir_bounds, mir_discrete, mir_quadrature and mir_series are not called
# here: the sweep runs their row kernels on precomputed rows.  perfbench's
# tracer wraps these names, and perfbench/tests/test_tracer.py looks each up
# without a default; remove them together with those wraps.
from .bounds import _bounds_rows, mir_bounds  # noqa: F401
from .errors import ConfigError, EmptySweep, MirError, ValidationError, check_integer, live_rows
from .mcsim import estimate_mir, simulate
from .mir import (
    _discrete_rows,
    _quadrature_rows,
    _series_rows,
    _xlnx_vec,
    mir_discrete,  # noqa: F401
    mir_quadrature,  # noqa: F401
    mir_series,  # noqa: F401
)
from .receptor import ReceptorSpec, mean_chain_rows
from .truncgauss import MAX_MOMENT_ORDER, TruncatedGaussianSpec, _spec_rows, expectation_rows


@dataclass(frozen=True)
class GridAxis:
    """Inclusive linear grid; a single-step axis degenerates to {min}."""

    min: float
    max: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ConfigError(f"grid bounds must be finite, got [{self.min}, {self.max}]")
        check_integer(self.steps, "grid steps", ConfigError)
        if self.steps < 1:
            raise ConfigError(f"grid steps must be >= 1, got {self.steps}")
        if self.steps == 1:
            if self.min > self.max:
                raise ConfigError(f"grid needs min <= max, got [{self.min}, {self.max}]")
        elif not self.min < self.max:
            raise ConfigError(
                f"grid needs min < max for steps > 1, got [{self.min}, {self.max}]"
            )

    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.steps)


@dataclass(frozen=True)
class SweepConfig:
    receptor: ReceptorSpec
    a: float
    b: float
    mu_bar_grid: GridAxis
    sigma_bar_grid: GridAxis
    methods: tuple[str, ...]
    series_k: int = 40
    delta_t: float = 1e-3
    mc_n: int = 10**6
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.a < self.b < math.inf:
            raise ConfigError(
                f"truncation must satisfy 0 <= a < b < inf, got [{self.a}, {self.b}]"
            )
        for m in self.methods:
            if m not in VALID_METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {VALID_METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("methods must not repeat")
        series = "series" in self.methods
        _check_ranges(
            series_k=self.series_k if series else None,
            series_support=(self.a, self.b) if series else None,
            delta_t=self.delta_t,
            mc_n=self.mc_n,
            seed=self.seed if "mc" in self.methods else None,
        )


def _check_ranges(
    *, series_k=None, series_support=None, order=None, delta_t=None, mc_n=None, seed=None
):
    """Range checks on run parameters, shared by SweepConfig and the
    single-point CLI commands.  A parameter left as None is not checked;
    ``series_support`` is the truncation (a, b) the series must converge on.

    Raises ConfigError naming the first count that is not an integer, or
    else the first parameter out of range.
    """
    for name, count in (("series_k", series_k), ("order", order), ("mc_n", mc_n), ("seed", seed)):
        if count is not None:
            check_integer(count, name, ConfigError)
    if series_k is not None and not 2 <= series_k <= MAX_MOMENT_ORDER:
        raise ConfigError(f"series_k must be in [2, {MAX_MOMENT_ORDER}], got {series_k}")
    if series_support is not None:
        a, b = series_support
        if not (a > 0.0 and b <= 2.0):
            raise ConfigError(
                f"series needs support within (0, 2] (expansion convergence), got [{a}, {b}]"
            )
    if order is not None and not 0 <= order <= MAX_MOMENT_ORDER:
        raise ConfigError(f"order must be in [0, {MAX_MOMENT_ORDER}], got {order}")
    if delta_t is not None and not 0.0 < delta_t < math.inf:
        raise ConfigError(f"delta_t must be positive and finite, got {delta_t}")
    if mc_n is not None and mc_n < 1:
        raise ConfigError(f"mc_n must be >= 1, got {mc_n}")
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class SweepRow:
    mu_bar: float
    sigma_bar: float
    mu: Optional[float] = None
    sigma2: Optional[float] = None
    mir_quadrature: Optional[float] = None
    mir_series: Optional[float] = None
    lb_s2: Optional[float] = None
    ub_s2: Optional[float] = None
    lb_s4: Optional[float] = None
    ub_s4: Optional[float] = None
    mir_discrete: Optional[float] = None
    mc_value: Optional[float] = None
    mc_stderr: Optional[float] = None
    status: str = "ok"


#: The fixed output schema: every SweepRow field in declaration order, the
#: float fields first and ``status`` last.
_FIELDS = tuple(f.name for f in fields(SweepRow))
_NUMERIC_FIELDS = _FIELDS[:-1]
CSV_HEADER = ",".join(_FIELDS)


def _derive_seed(master_seed: int, row_index: int) -> int:
    """Independent, order-free per-row stream key."""
    return int(np.random.SeedSequence([master_seed, row_index]).generate_state(1)[0])


#: The SweepRow columns each method fills; its keys, in this order, are
#: ``VALID_METHODS``, the order a sweep runs its methods in.
_METHOD_COLUMNS = {
    "quadrature": ("mir_quadrature",),
    "series": ("mir_series",),
    "bounds_s2": ("lb_s2", "ub_s2"),
    "bounds_s4": ("lb_s4", "ub_s4"),
    "discrete": ("mir_discrete",),
    "mc": ("mc_value", "mc_stderr"),
}

VALID_METHODS = tuple(_METHOD_COLUMNS)


def _method_columns(config: SweepConfig, method: str, indices, valid, chains, e_xlnx) -> tuple:
    """(columns, errors): per ``_METHOD_COLUMNS`` field of ``method`` its
    values at the valid points, nan where the method fails with the error in
    ``errors``.  ``indices`` holds each point's grid index, ``valid``,
    ``chains`` and ``e_xlnx`` its rows of the spec columns and of the mean
    chain and E[x ln x] passes.  Every method but Monte Carlo is one pass
    over the points; Monte Carlo runs point by point."""
    if method == "quadrature":
        values, _, errors = _quadrature_rows(valid.mu, chains, e_xlnx)
        return (values,), errors
    if method == "series":
        values, _, errors = _series_rows(valid, config.series_k, chains)
        return (values,), errors
    if method == "discrete":
        receptor, b, delta_t = config.receptor, config.b, config.delta_t
        rates, errors = _discrete_rows(receptor, valid, b, delta_t, chains, e_xlnx)
        return (rates[:, 0],), errors
    if method in ("bounds_s2", "bounds_s4"):
        gap_lower, gap_upper, _, gain, errors = _bounds_rows(valid, int(method[-1]), chains)
        return (gain * gap_lower, gain * gap_upper), errors
    columns = np.full((2, len(indices)), np.nan)
    errors: list = [None] * len(indices)
    for j, (index, mu_bar, sigma_bar) in enumerate(zip(indices, valid.mu_bar, valid.sigma_bar)):
        try:
            dist = TruncatedGaussianSpec(float(mu_bar), float(sigma_bar), config.a, config.b)
            seed = _derive_seed(config.seed, index)
            traj = simulate(config.receptor, dist, config.delta_t, config.mc_n, seed)
            est = estimate_mir(traj, config.receptor, dist)
            columns[:, j] = est.value, est.stderr
        except MirError as exc:
            errors[j] = exc
    return tuple(columns), errors


def audit_rows(rows: Sequence[SweepRow]) -> list[tuple[int, str]]:
    """Check the bound-sandwich invariant on every fully populated row,
    with a slack of 1e-9 relative to the rate (1e-12 bits/s at least)."""
    violations = []
    for i, row in enumerate(rows):
        exact = row.mir_quadrature
        if exact is None:
            continue
        slack = max(1e-9 * abs(exact), 1e-12)
        for s, lb, ub in ((2, row.lb_s2, row.ub_s2), (4, row.lb_s4, row.ub_s4)):
            if lb is not None and not (lb - slack <= exact <= ub + slack):
                violations.append((i, f"s={s} bounds [{lb}, {ub}] fail to sandwich {exact}"))
    return violations


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate every grid point; rows ordered mu_bar-major, then sigma_bar.

    Per-point numerical failures are recorded in the row status and never
    abort the sweep.  Monte Carlo seeds are keyed by grid index, so each row
    depends only on the config and its own grid point.
    """
    mu_axis, sigma_axis = config.mu_bar_grid.values(), config.sigma_bar_grid.values()
    mu_bars = np.repeat(mu_axis, len(sigma_axis)).tolist()
    sigma_bars = np.tile(sigma_axis, len(mu_axis)).tolist()
    n = len(mu_bars)
    # one column per numeric field, filled in per method, and per point its
    # distribution's error or the methods that failed there
    columns = {name: [None] * n for name in _NUMERIC_FIELDS}
    columns["mu_bar"], columns["sigma_bar"] = mu_bars, sigma_bars
    specs, errors = _spec_rows(mu_bars, sigma_bars, [config.a] * n, [config.b] * n)
    problems = [[] if e is None else [f"distribution:{type(e).__name__}:{e}"] for e in errors]
    indices = np.flatnonzero(live_rows(errors)).tolist()
    valid = specs.take(indices)
    for i, mu, sigma2 in zip(indices, valid.mu.tolist(), valid.sigma2.tolist()):
        columns["mu"][i], columns["sigma2"][i] = mu, sigma2

    chains = mean_chain_rows(config.receptor, valid.mu.tolist())
    e_xlnx = None
    if {"quadrature", "discrete"} & set(config.methods):
        e_xlnx = expectation_rows(valid, _xlnx_vec)
    # VALID_METHODS order, whatever order the config lists them in
    for method in VALID_METHODS:
        if method not in config.methods:
            continue
        values, errors = _method_columns(config, method, indices, valid, chains, e_xlnx)
        for name, column in zip(_METHOD_COLUMNS[method], values):
            target = columns[name]
            for i, value, error in zip(indices, column.tolist(), errors):
                if error is None:
                    target[i] = value
        for i, error in zip(indices, errors):
            if error is not None:
                problems[i].append(f"{method}:{type(error).__name__}")
    statuses = [";".join(failed) or "ok" for failed in problems]
    rows = list(map(SweepRow, *columns.values(), statuses))

    for index, message in audit_rows(rows):
        row = rows[index]
        suffix = f"audit:{message}"
        status = suffix if row.status == "ok" else f"{row.status};{suffix}"
        rows[index] = replace(row, status=status)
    return rows


def find_capacity(rows: Sequence[SweepRow], by: str = "mir_quadrature"):
    """Grid argmax of one populated field.

    Returns (mu_bar, sigma_bar, value); exact-value ties break toward the
    smallest mu_bar, then the smallest sigma_bar.
    """
    if by not in _NUMERIC_FIELDS[4:]:
        raise ValidationError(f"cannot maximize over field {by!r}")
    if not rows:
        raise EmptySweep("no rows to maximize over")
    best = None
    for row in rows:
        value = getattr(row, by)
        if value is None:
            raise ValidationError(f"field {by!r} is not populated in every row")
        key = (-value, row.mu_bar, row.sigma_bar)
        if best is None or key < best[0]:
            best = (key, row)
    row = best[1]
    return row.mu_bar, row.sigma_bar, getattr(row, by)


def _edge_note(rows: Sequence[SweepRow], mu_bar: float, sigma_bar: float) -> str:
    """The clause a capacity report appends when its grid point lies on the
    grid's edge: "" inside the grid, else, for example, " on the mu_bar min
    edge; the maximum may lie outside the grid".  An axis of one step has
    no edge."""
    edges = []
    for name, value in (("mu_bar", mu_bar), ("sigma_bar", sigma_bar)):
        axis = [getattr(row, name) for row in rows]
        low, high = min(axis), max(axis)
        if low < high and value in (low, high):
            edges.append(f"the {name} {'min' if value == low else 'max'} edge")
    if not edges:
        return ""
    return f" on {' and '.join(edges)}; the maximum may lie outside the grid"


def _format_column(values) -> list[str]:
    return ["" if value is None else repr(float(value)) for value in values]


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Fixed-schema CSV; floats use shortest round-trip representation.

    Formatted column by column; ``csv.writer`` quotes the statuses that
    hold commas."""
    columns = [_format_column([getattr(row, name) for row in rows]) for name in _NUMERIC_FIELDS]
    columns.append([row.status for row in rows])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_FIELDS)
    writer.writerows(zip(*columns))
    return buffer.getvalue()


def rows_from_csv(text: str) -> list[SweepRow]:
    """Inverse of rows_to_csv, field-for-field; ValidationError on other text."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    if tuple(header) != _FIELDS:
        raise ValidationError(f"unexpected CSV header: {header}")
    rows = []
    for record in reader:
        if not record:
            continue
        if len(record) != len(_FIELDS):
            raise ValidationError(f"malformed CSV record: {record}")
        try:
            kwargs = {
                name: (None if cell == "" else float(cell))
                for name, cell in zip(_NUMERIC_FIELDS, record)
            }
        except ValueError as exc:
            raise ValidationError(f"non-numeric CSV cell in {record}: {exc}") from exc
        rows.append(SweepRow(status=record[-1], **kwargs))
    return rows


def rows_to_json(rows: Sequence[SweepRow]) -> str:
    """JSON array of row objects with the CSV field names; null for absents."""
    payload = [
        {name: getattr(row, name) for name in _NUMERIC_FIELDS} | {"status": row.status}
        for row in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def rows_from_json(text: str) -> list[SweepRow]:
    """Inverse of rows_to_json; ValidationError on other text, such as a
    value of the wrong type (a bool is not a number)."""
    try:
        rows = [SweepRow(**entry) for entry in json.loads(text)]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed JSON rows: {exc}") from exc
    for row in rows:
        for name, value in vars(row).items():
            if type(value) not in ((str,) if name == "status" else (int, float, type(None))):
                raise ValidationError(f"malformed JSON rows: {name} = {value!r}")
    return rows


def _format_rows(rows: Sequence[SweepRow], fmt: str) -> str:
    """Rows as CSV or JSON text: the one formatter behind every sweep output."""
    return rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows)


def write_rows(rows: Sequence[SweepRow], path, fmt: str = "csv") -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_format_rows(rows, fmt))
