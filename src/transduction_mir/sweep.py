"""Parameter sweeps over (mu_bar, sigma_bar) grids with CSV/JSON output.

A sweep evaluates the selected methods at every grid point, never aborting
on a per-point numerical failure (the row's status column records it), and
emits rows in mu_bar-major order.  Each grid-wide quantity is computed once,
as one array pass over the grid's columns: the input distributions of all
points (``truncgauss._spec_rows``, kept as the columns every kernel reads),
the mean chains and gains of all valid points as one stack, their Jensen
gaps from one Gauss-Legendre pass, the quadrature rates, the discrete rate
as the quadrature rate plus the E[p log p] of every x-dependent diagonal
entry of every point (further outputs of the E[x ln x] pass when the
discrete rate runs), the moments E[(x - 1)^k] of every point for the
series, and the bounds of each selected order s = 2, 4.  Every batched
kernel returns one row format: value columns, float arrays with nan on the
rows that fail, and one error list holding per row the MirError that
rejected it, or None.  Method by method, the value columns fill the output
fields and the errors the status column.  Only Monte Carlo runs point by
point, on a spec built by the constructor, into the same format.  The result
stays columns, a ``SweepTable``, through the bound-sandwich audit (array
masks), the capacity search and the CSV/JSON formatter; ``SweepRow`` objects
are built from the columns only on request (``SweepTable.rows``).
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
import re
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

# A name marked noqa: F401 is not called here (the sweep runs the row
# kernels): perfbench's tracer wraps it (tests/test_layering.py); remove it
# together with that wrap.
from .bounds import _bounds_rows
from .bounds import mir_bounds  # noqa: F401
from .errors import ConfigError, EmptySweep, MirError, ValidationError, check_integer, live_rows
from .mcsim import estimate_mir, simulate
from .mir import (
    _discrete_rows,
    _quadrature_rows,
    _rate_pass,
    _series_rows,
    mir_discrete,  # noqa: F401
    mir_quadrature,  # noqa: F401
    mir_series,  # noqa: F401
)
from .receptor import ReceptorSpec, mean_chain_rows
from .truncgauss import _XLNX_LINE, MAX_MOMENT_ORDER, TruncatedGaussianSpec, _rate_rows, _spec_rows


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
#: The fields whose distinct values are the grid's axes.
_GRID_FIELDS = _FIELDS[:2]
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


def _method_columns(config: SweepConfig, method, indices, valid, chains, kernel, integrals) -> tuple:
    """(columns, errors): per ``_METHOD_COLUMNS`` field of ``method`` its
    values at the valid points, nan where the method fails with the error in
    ``errors``.  ``indices`` holds each point's grid index, ``valid``,
    ``chains`` and ``integrals`` its rows of the spec columns, the mean
    chains and the one rate pass (output 0 is E[x ln x]), and ``kernel``
    that pass's step kernel (None unless the discrete rate runs).  Every
    method but Monte Carlo is one pass over the points; Monte Carlo runs
    point by point."""
    if method == "quadrature":
        values, _, errors = _quadrature_rows(valid.mu, chains, integrals)
        return (values,), errors
    if method == "series":
        values, _, errors = _series_rows(valid, config.series_k, chains)
        return (values,), errors
    if method == "discrete":
        spec, delta_t = config.receptor, config.delta_t
        rates, errors = _discrete_rows(spec, valid, delta_t, chains, kernel, integrals)
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


class SweepTable:
    """A sweep's rows as columns, in row order.

    ``values`` holds one float64 array per numeric ``SweepRow`` field, and
    ``present`` a bool array per field that is False where the cell is
    absent (None in a ``SweepRow``, written "" in CSV and null in JSON; a
    present nan is written nan, or NaN in JSON).  ``statuses`` holds the
    status text per row, and ``axes`` maps each grid field, ``mu_bar`` and
    ``sigma_bar``, to its distinct values and each row's index into them,
    so each distinct value is formatted once.
    """

    __slots__ = ("values", "present", "statuses", "axes")

    def __init__(self, values: dict, present: dict, statuses: list[str], axes: dict):
        self.values, self.present, self.statuses, self.axes = values, present, statuses, axes

    @classmethod
    def from_rows(cls, rows: Sequence[SweepRow]) -> "SweepTable":
        """The table of a row list; each grid field's distinct values are
        its distinct float bit patterns."""
        values, present = {}, {}
        for name in _NUMERIC_FIELDS:
            cells = [getattr(row, name) for row in rows]
            present[name] = np.array([cell is not None for cell in cells], dtype=bool)
            values[name] = np.array(
                [math.nan if cell is None else cell for cell in cells], dtype=np.float64
            )
        axes = {}
        for name in _GRID_FIELDS:
            bits, index = np.unique(values[name].view(np.uint64), return_inverse=True)
            axes[name] = (bits.view(np.float64), index.reshape(-1))
        return cls(values, present, [row.status for row in rows], axes)

    def rows(self) -> list[SweepRow]:
        """The table as ``SweepRow`` objects, absent cells None."""
        columns = [
            _absent_as(self.values[name].tolist(), self.present[name], None)
            for name in _NUMERIC_FIELDS
        ]
        return list(map(SweepRow, *columns, self.statuses))

    def cell(self, name: str, index: int) -> Optional[float]:
        """One cell as a ``SweepRow`` holds it: a float, or None if absent."""
        return self.values[name][index].item() if self.present[name][index] else None


def _absent_as(cells: list, present: np.ndarray, absent) -> list:
    """``cells`` with ``absent`` in place of each cell that is not present."""
    for i in np.flatnonzero(~present).tolist():
        cells[i] = absent
    return cells


def _table(rows: SweepTable | Sequence[SweepRow]) -> SweepTable:
    """A ``SweepTable`` as it is, or a row list converted once."""
    return rows if isinstance(rows, SweepTable) else SweepTable.from_rows(rows)


def audit_rows(rows: SweepTable | Sequence[SweepRow]) -> list[tuple[int, str]]:
    """Check the bound-sandwich invariant on every row where the quadrature
    rate and a bound pair are present, with a slack of 1e-9 relative to the
    rate (1e-12 bits/s at least).  Takes a ``SweepTable`` or a row list;
    returns (row, message) in row order, s=2 before s=4 in a row."""
    table = _table(rows)
    exact = table.values["mir_quadrature"]
    slack = np.maximum(1e-9 * np.abs(exact), 1e-12)
    missed = {}
    for s in (2, 4):
        lb, ub = table.values[f"lb_s{s}"], table.values[f"ub_s{s}"]
        with np.errstate(invalid="ignore"):  # inf - inf: a nan that sandwiches nothing
            held = (lb - slack <= exact) & (exact <= ub + slack)
        missed[s] = table.present["mir_quadrature"] & table.present[f"lb_s{s}"] & ~held
    violations = []
    for i in np.flatnonzero(missed[2] | missed[4]).tolist():
        exact_i = table.cell("mir_quadrature", i)
        for s in (2, 4):
            if missed[s][i]:
                lb, ub = table.cell(f"lb_s{s}", i), table.cell(f"ub_s{s}", i)
                violations.append((i, f"s={s} bounds [{lb}, {ub}] fail to sandwich {exact_i}"))
    return violations


def run_sweep(config: SweepConfig) -> SweepTable:
    """Evaluate every grid point; rows ordered mu_bar-major, then sigma_bar.

    Returns the columns of the rows as a ``SweepTable``; ``table.rows()``
    builds the ``SweepRow`` objects.  Per-point numerical failures are
    recorded in the row status and never abort the sweep.  Monte Carlo
    seeds are keyed by grid index, so each row depends only on the config
    and its own grid point.
    """
    mu_axis, sigma_axis = config.mu_bar_grid.values(), config.sigma_bar_grid.values()
    mu_index = np.repeat(np.arange(len(mu_axis)), len(sigma_axis))
    sigma_index = np.tile(np.arange(len(sigma_axis)), len(mu_axis))
    n = len(mu_index)
    # one column per numeric field, filled in per method, and per failed
    # point its distribution's error or the methods that failed there
    values = {name: np.full(n, np.nan) for name in _NUMERIC_FIELDS}
    present = {name: np.zeros(n, dtype=bool) for name in _NUMERIC_FIELDS}
    values["mu_bar"], values["sigma_bar"] = mu_axis[mu_index], sigma_axis[sigma_index]
    present["mu_bar"][:] = present["sigma_bar"][:] = True
    # Python floats, so that an error message shows the grid value as given
    mu_bars, sigma_bars = values["mu_bar"].tolist(), values["sigma_bar"].tolist()
    specs, errors = _spec_rows(mu_bars, sigma_bars, [config.a] * n, [config.b] * n)
    problems = {
        i: [f"distribution:{type(e).__name__}:{e}"] for i, e in enumerate(errors) if e is not None
    }
    indices = np.flatnonzero(live_rows(errors))
    valid = specs.take(indices)
    for name, column in (("mu", valid.mu), ("sigma2", valid.sigma2)):
        values[name][indices], present[name][indices] = column, True

    chains = mean_chain_rows(config.receptor, valid.mu.tolist())
    # E[x ln x] of every point, with the diagonal entries' E[p log p] as
    # further outputs of the same pass when the discrete rate runs
    kernel = integrals = None
    if "discrete" in config.methods:
        kernel, integrals = _rate_pass(config.receptor, valid, config.b, config.delta_t)
    elif "quadrature" in config.methods:
        integrals = _rate_rows(valid, [_XLNX_LINE])
    # VALID_METHODS order, whatever order the config lists them in
    for method in VALID_METHODS:
        if method not in config.methods:
            continue
        columns, errors = _method_columns(
            config, method, indices.tolist(), valid, chains, kernel, integrals
        )
        held = live_rows(errors)
        for name, column in zip(_METHOD_COLUMNS[method], columns):
            values[name][indices[held]], present[name][indices[held]] = column[held], True
        for i, error in zip(indices.tolist(), errors):
            if error is not None:
                problems.setdefault(i, []).append(f"{method}:{type(error).__name__}")
    statuses = ["ok"] * n
    for i, failed in problems.items():
        statuses[i] = ";".join(failed)
    axes = {"mu_bar": (mu_axis, mu_index), "sigma_bar": (sigma_axis, sigma_index)}
    table = SweepTable(values, present, statuses, axes)

    for index, message in audit_rows(table):
        suffix = f"audit:{message}"
        status = statuses[index]
        statuses[index] = suffix if status == "ok" else f"{status};{suffix}"
    return table


def find_capacity(rows: SweepTable | Sequence[SweepRow], by: str = "mir_quadrature"):
    """Grid argmax of one populated field of a ``SweepTable`` or row list.

    Returns (mu_bar, sigma_bar, value); exact-value ties break toward the
    smallest mu_bar, then the smallest sigma_bar, then the first row.
    """
    if by not in _NUMERIC_FIELDS[4:]:
        raise ValidationError(f"cannot maximize over field {by!r}")
    table = _table(rows)
    if not table.statuses:
        raise EmptySweep("no rows to maximize over")
    if not table.present[by].all():
        raise ValidationError(f"field {by!r} is not populated in every row")
    value = table.values[by]
    # as a row-by-row scan for the least (-value, mu_bar, sigma_bar) has it,
    # a nan value is the maximum only in the first row
    if math.isnan(value[0]):
        best = 0
    else:
        best = int(np.lexsort((table.values["sigma_bar"], table.values["mu_bar"], -value))[0])
    return tuple(table.cell(name, best) for name in ("mu_bar", "sigma_bar", by))


def _edge_note(rows: SweepTable | Sequence[SweepRow], mu_bar: float, sigma_bar: float) -> str:
    """The clause a capacity report appends when its grid point lies on the
    grid's edge: "" inside the grid, else, for example, " on the mu_bar min
    edge; the maximum may lie outside the grid".  An axis of one step has
    no edge.  Takes a ``SweepTable`` or a row list."""
    table = _table(rows)
    edges = []
    for name, value in (("mu_bar", mu_bar), ("sigma_bar", sigma_bar)):
        axis = table.axes[name][0]
        low, high = axis.min().item(), axis.max().item()
        if low < high and value in (low, high):
            edges.append(f"the {name} {'min' if value == low else 'max'} edge")
    if not edges:
        return ""
    return f" on {' and '.join(edges)}; the maximum may lie outside the grid"


#: The characters that may make ``csv.writer`` quote a cell.
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_cell(text: str) -> str:
    """One cell as ``csv.writer`` writes it: a cell with no delimiter, quote
    or line break as it is, any other through ``csv.writer`` itself."""
    if _CSV_SPECIAL.search(text) is None:
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[:-2]


#: How ``json.dumps`` writes the floats that ``repr`` writes nan, inf, -inf.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: One row object of ``json.dumps(rows, indent=2)``, a %s per field.
_JSON_ROW = "  {\n" + ",\n".join(f"    {json.dumps(name)}: %s" for name in _FIELDS) + "\n  }"


def _float_text(values: np.ndarray, json_floats: bool) -> list[str]:
    """``repr`` of each value, or its ``json.dumps`` text."""
    text = list(map(repr, values.tolist()))
    if json_floats:
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            text[i] = _JSON_NONFINITE[text[i]]
    return text


def _column_text(table: SweepTable, name: str, fmt: str) -> list[str]:
    """The cells of one numeric column as CSV or JSON text; a grid field
    formats each distinct value once."""
    present, json_floats = table.present[name], fmt == "json"
    absent = "null" if json_floats else ""
    if not present.any():
        return [absent] * len(present)
    if name in table.axes:
        distinct, index = table.axes[name]
        text = np.array(_float_text(distinct, json_floats), dtype=object)[index].tolist()
    else:
        text = _float_text(table.values[name], json_floats)
    return _absent_as(text, present, absent)


def _format_rows(rows: SweepTable | Sequence[SweepRow], fmt: str) -> str:
    """A ``SweepTable`` or row list as CSV or JSON text: the one formatter
    behind every sweep output.

    CSV has the bytes of ``csv.writer``: the numeric cells never need
    quoting, and each status is quoted as ``csv.writer`` quotes it
    (``_csv_cell``).  JSON has the bytes of ``json.dumps(.., indent=2)`` of
    the row objects."""
    table = _table(rows)
    quote = _csv_cell if fmt == "csv" else json.dumps
    quoted = {status: quote(status) for status in set(table.statuses)}
    columns = [_column_text(table, name, fmt) for name in _NUMERIC_FIELDS]
    columns.append([quoted[status] for status in table.statuses])
    if fmt == "csv":
        return "\n".join([CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"
    if not table.statuses:
        return "[]\n"
    return "[\n" + ",\n".join([_JSON_ROW % cells for cells in zip(*columns)]) + "\n]\n"


def rows_to_csv(rows: SweepTable | Sequence[SweepRow]) -> str:
    """Fixed-schema CSV of a ``SweepTable`` or row list; floats use the
    shortest round-trip representation."""
    return _format_rows(rows, "csv")


def rows_from_csv(text: str) -> list[SweepRow]:
    """Inverse of rows_to_csv, field-for-field; ValidationError on other text,
    such as text the csv module cannot parse (a bare carriage return)."""
    try:
        records = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValidationError(f"malformed CSV text: {exc}") from exc
    header = records[0] if records else []
    if tuple(header) != _FIELDS:
        raise ValidationError(f"unexpected CSV header: {header}")
    rows = []
    for record in records[1:]:
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


def rows_to_json(rows: SweepTable | Sequence[SweepRow]) -> str:
    """JSON array of row objects with the CSV field names; null for absents.
    Takes a ``SweepTable`` or row list; every value is written as a float."""
    return _format_rows(rows, "json")


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


def write_rows(rows: SweepTable | Sequence[SweepRow], path, fmt: str = "csv") -> None:
    """Write a ``SweepTable`` or row list to ``path`` as CSV or JSON."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_format_rows(rows, fmt))
