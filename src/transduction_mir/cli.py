"""Command-line front end.

Subcommands: ``mir`` (single point), ``bounds``, ``moments``, ``simulate``,
``sweep``.  All read a JSON configuration combining the receptor, the input
distribution, and (for sweeps) the grid; single-point results print as JSON.

Exit codes: 0 success, 2 configuration error or an output that cannot be
written, 3 numerical failure (for sweeps: any row whose status is not "ok").
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .bounds import mir_bounds
from .errors import ConfigError, MirError
from .mcsim import dump_trajectory, estimate_mir, simulate
from .mir import mir_discrete, mir_quadrature, mir_series
from .receptor import ReceptorSpec, load_receptor
from .sweep import (
    _METHOD_COLUMNS,
    GridAxis,
    SweepConfig,
    _check_ranges,
    _edge_note,
    _format_rows,
    find_capacity,
    run_sweep,
    write_rows,
)
from .truncgauss import TruncatedGaussianSpec, raw_moments


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return doc


def _receptor_from(doc: dict, config_path: str) -> ReceptorSpec:
    entry = doc.get("receptor")
    if entry is None:
        raise ConfigError("receptor: missing")
    where = f"receptor file {entry}" if isinstance(entry, str) else "receptor"
    try:
        if isinstance(entry, str):
            return load_receptor(Path(config_path).parent / entry)
        return ReceptorSpec.from_mapping(entry)
    except (OSError, json.JSONDecodeError, MirError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _distribution_from(doc: dict) -> TruncatedGaussianSpec:
    entry = doc.get("distribution")
    if not isinstance(entry, dict):
        raise ConfigError("distribution: missing or not an object")
    try:
        return TruncatedGaussianSpec(
            mu_bar=float(entry["mu_bar"]),
            sigma_bar=float(entry["sigma_bar"]),
            a=float(entry["a"]),
            b=float(entry["b"]),
        )
    except KeyError as exc:
        raise ConfigError(f"distribution: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"distribution: {exc}") from exc


def _whole_number(value, name: str) -> int:
    """``int(value)`` for a config field that counts something; a float
    must be whole (so not infinite or nan), never truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be a whole number, got {value}")
    return int(value)


def _axis_from(entry, name: str) -> GridAxis:
    if not isinstance(entry, dict):
        raise ConfigError(f"sweep.{name}: missing or not an object")
    try:
        steps = _whole_number(entry["steps"], "steps")
        return GridAxis(min=float(entry["min"]), max=float(entry["max"]), steps=steps)
    except KeyError as exc:
        raise ConfigError(f"sweep.{name}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sweep.{name}: {exc}") from exc


def _seed_from(doc: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    try:
        return _whole_number(doc.get("seed", 0), "seed")
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed: {exc}") from exc


def _sweep_config(doc: dict, args, config_path: str) -> SweepConfig:
    receptor = _receptor_from(doc, config_path)
    entry = doc.get("sweep")
    if not isinstance(entry, dict):
        raise ConfigError("sweep: missing or not an object")
    dist_entry = doc.get("distribution", {})
    if not isinstance(dist_entry, dict):
        raise ConfigError("distribution: not an object")
    a = entry.get("a", dist_entry.get("a"))
    b = entry.get("b", dist_entry.get("b"))
    if a is None or b is None:
        raise ConfigError("sweep.a / sweep.b: truncation interval is required")
    methods = entry.get("methods")
    if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
        raise ConfigError("sweep.methods: must be a list of method names")
    try:
        a = float(a)
        b = float(b)
        # a run parameter the config leaves out takes SweepConfig's default
        run = {key: _whole_number(entry[key], key) for key in ("series_k", "mc_n") if key in entry}
        if "delta_t" in entry:
            run["delta_t"] = float(entry["delta_t"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sweep: non-numeric field: {exc}") from exc
    return SweepConfig(
        receptor=receptor,
        a=a,
        b=b,
        mu_bar_grid=_axis_from(entry.get("mu_bar"), "mu_bar"),
        sigma_bar_grid=_axis_from(entry.get("sigma_bar"), "sigma_bar"),
        methods=tuple(methods),
        seed=_seed_from(doc, args),
        **run,
    )


@contextmanager
def _writing(path):
    """Report an output file the CLI cannot write as a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        with _writing(out_path), open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_mir(args) -> int:
    doc = _load_document(args.config)
    receptor = _receptor_from(doc, args.config)
    dist = _distribution_from(doc)
    if args.method == "quadrature":
        result = mir_quadrature(receptor, dist)
    elif args.method == "series":
        _check_ranges(series_k=args.series_k, series_support=(dist.a, dist.b))
        result = mir_series(receptor, dist, args.series_k)
    else:  # discrete
        _check_ranges(delta_t=args.delta_t)
        result = mir_discrete(receptor, dist, args.delta_t)
    _emit(
        {
            "value_bits_per_s": result.value,
            "method": result.method,
            "gain": result.gain,
            "gap_nats": result.gap_nats,
            "diagnostics": dict(result.diagnostics),
        },
        args.out,
    )
    return 0


def _cmd_bounds(args) -> int:
    doc = _load_document(args.config)
    receptor = _receptor_from(doc, args.config)
    dist = _distribution_from(doc)
    pair = mir_bounds(receptor, dist, args.s)
    _emit(
        {
            "lower_bits_per_s": pair.lower,
            "upper_bits_per_s": pair.upper,
            "s": pair.s,
            "gap_bounds_nats": list(pair.gap_bounds_nats),
            "diagnostics": dict(pair.diagnostics),
        },
        args.out,
    )
    return 0


def _cmd_moments(args) -> int:
    doc = _load_document(args.config)
    dist = _distribution_from(doc)
    _check_ranges(order=args.order)
    table = raw_moments(dist, args.order)
    _emit(
        {
            "mu": dist.mu,
            "sigma2": dist.sigma2,
            "order": table.order,
            "raw": table.raw.tolist(),
            "central": table.central.tolist(),
        },
        args.out,
    )
    return 0


def _cmd_simulate(args) -> int:
    doc = _load_document(args.config)
    receptor = _receptor_from(doc, args.config)
    dist = _distribution_from(doc)
    seed = _seed_from(doc, args)
    _check_ranges(delta_t=args.delta_t, mc_n=args.mc_n, seed=seed)
    traj = simulate(receptor, dist, args.delta_t, args.mc_n, seed)
    if args.dump:
        with _writing(args.dump):
            dump_trajectory(traj, args.dump)
    est = estimate_mir(traj, receptor, dist)
    _emit(
        {
            "value_bits_per_s": est.value,
            "stderr": est.stderr,
            "n": est.n,
            "delta_t": args.delta_t,
            "seed": seed,
            "dump": args.dump,
        },
        args.out,
    )
    return 0


def _cmd_sweep(args) -> int:
    doc = _load_document(args.config)
    output = doc.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output: must be an object")
    out_path = args.out or output.get("path")
    out_format = output.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {out_format!r}")
    config = _sweep_config(doc, args, args.config)
    # a column no method fills cannot be maximised: refuse before the sweep runs
    filled = {name for method in config.methods for name in _METHOD_COLUMNS[method]}
    if args.capacity_by and args.capacity_by not in filled:
        raise ConfigError(f"--capacity-by {args.capacity_by}: no method of this sweep fills it")
    table = run_sweep(config)
    if out_path:
        with _writing(out_path):
            write_rows(table, out_path, out_format)
    else:
        sys.stdout.write(_format_rows(table, out_format))
    failed = len(table.statuses) - table.statuses.count("ok")
    if failed:
        print(
            f"sweep finished with {failed} failed point(s); "
            f"see the status column",
            file=sys.stderr,
        )
        return 3
    if args.capacity_by:
        mu_bar, sigma_bar, value = find_capacity(table, by=args.capacity_by)
        print(
            f"capacity-achieving point by {args.capacity_by}: "
            f"mu_bar={mu_bar!r} sigma_bar={sigma_bar!r} value={value!r}"
            f"{_edge_note(table, mu_bar, sigma_bar)}",
            file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transduction-mir",
        description=(
            "Information rates of intensity-driven receptor channels under "
            "truncated-Gaussian inputs: exact, series, bounds, and Monte Carlo."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=False):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override config seed")

    p_mir = sub.add_parser("mir", help="information rate at a single point")
    add_common(p_mir)
    p_mir.add_argument(
        "--method", choices=("quadrature", "series", "discrete"), default="quadrature"
    )
    p_mir.add_argument("--series-k", type=int, default=SweepConfig.series_k)
    p_mir.add_argument("--delta-t", type=float, default=SweepConfig.delta_t)
    p_mir.set_defaults(handler=_cmd_mir)

    p_bounds = sub.add_parser("bounds", help="closed-form rate bounds")
    add_common(p_bounds)
    p_bounds.add_argument("--s", type=int, choices=(2, 4), default=2)
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_moments = sub.add_parser("moments", help="raw and central moment table")
    add_common(p_moments)
    p_moments.add_argument("--order", type=int, default=10)
    p_moments.set_defaults(handler=_cmd_moments)

    p_sim = sub.add_parser("simulate", help="sample-path Monte Carlo estimate")
    add_common(p_sim, seed=True)
    p_sim.add_argument("--delta-t", type=float, default=SweepConfig.delta_t)
    p_sim.add_argument("--mc-n", type=int, default=SweepConfig.mc_n, help="number of steps")
    p_sim.add_argument(
        "--dump", default=None, help="write the trajectory as TSV (step, x, y)"
    )
    p_sim.set_defaults(handler=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="grid sweep over (mu_bar, sigma_bar)")
    add_common(p_sweep, seed=True)
    p_sweep.add_argument(
        "--capacity-by",
        default=None,
        choices=[name for names in _METHOD_COLUMNS.values() for name in names],
        help="report the argmax of this column on stderr (e.g. mir_quadrature)",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MirError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
