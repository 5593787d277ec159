"""Operator command line.

Subcommands: ``init`` (create schema, load catalogs and code tables),
``run`` (execute N collection days), ``query`` (attribute selection to
stdout or CSV), ``report`` (per-attribute accounting), ``export``
(full-table CSV dump). Every command exits nonzero when an error
contract fires and prints the diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys
from datetime import date, datetime, time, timedelta
from pathlib import Path

from . import config as config_mod
from .connectors import FixtureDirectorySource
from .errors import Error, RunAborted
from .scheduler import SimulatedClock, WallClock, build_plan, run_day
from .storage import (
    DB_TIMESTAMP_FMT,
    REPORT_COLUMNS,
    Store,
    export_csv,
    queryable_attributes,
    resolve_table,
)
from .synth import SynthSource

_LOCATION_TABLE = {"weathers": "locations_w", "traffics": "locations_t",
                   "pollutions": "locations_p"}

# Widest range the stored text timestamps can express with 4-digit years.
_ALL_TIME_START = datetime(1000, 1, 1, 0, 0, 0)
_ALL_TIME_END = datetime(9999, 12, 31, 23, 59, 59)


def _load_config(args) -> config_mod.Config:
    if args.config:
        cfg = config_mod.load_config(args.config)
    else:
        cfg = config_mod.load_default()
    if getattr(args, "store", None):
        cfg = cfg.with_store_path(args.store)
    return cfg


def _parse_when(text: str, end_of_day: bool) -> datetime:
    for fmt in (DB_TIMESTAMP_FMT, "%Y-%m-%dT%H:%M:%S"):
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            pass
    try:
        d = date.fromisoformat(text)
    except ValueError:
        raise Error(f"cannot read time {text!r}; use YYYY-MM-DD or "
                    f"'YYYY-MM-DD HH:MM:SS'")
    return datetime.combine(d, time(23, 59, 59) if end_of_day else time(0, 0))


def _resolve_locations(store: Store, table: str, spec: str | None) -> list[int]:
    ids_by_file = store.location_ids(_LOCATION_TABLE[table])
    if spec is None:
        return sorted(ids_by_file.values())
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lstrip("-").isdigit():
            # isdigit() also passes '--5' and '²', which int() refuses.
            try:
                out.append(int(token))
                continue
            except ValueError:
                pass
        if token in ids_by_file:
            out.append(ids_by_file[token])
        else:
            raise Error(f"unknown location {token!r} for table {table}")
    return out


def bootstrap_store(store: Store, cfg: config_mod.Config) -> dict:
    """Create the schema and load every catalog the config describes."""
    catalog = store.init_schema()
    for meta in cfg.weather_stations:
        store.upsert_location(meta.station)
    for route in cfg.routes:
        store.upsert_location(route)
    for station in cfg.pollution_stations:
        store.upsert_location(station)
    store.seed_lookup("time_zones", cfg.time_zones)
    store.seed_lookup("conds", cfg.conds)
    store.seed_lookup("icons", cfg.icons)
    store.seed_lookup("wdires", cfg.wdires)
    return catalog


def cmd_init(args) -> int:
    cfg = _load_config(args)
    with Store(cfg.store_path) as store:
        catalog = bootstrap_store(store, cfg)
        print(f"initialized {cfg.store_path}: {len(catalog)} tables, "
              f"{len(cfg.weather_stations)} weather stations, "
              f"{len(cfg.routes)} routes, "
              f"{len(cfg.pollution_stations)} pollution stations")
    return 0


def _make_source(cfg, spec: str):
    if spec == "synth":
        return SynthSource(cfg.profile)
    kind, sep, path = spec.partition(":")
    if kind == "fixtures" and sep and path:
        return FixtureDirectorySource(path)
    raise Error(f"unknown source {spec!r}; use 'synth' or 'fixtures:<dir>'")


def cmd_run(args) -> int:
    cfg = _load_config(args)
    if args.start:
        try:
            start = date.fromisoformat(args.start)
        except ValueError:
            raise Error(f"cannot read day {args.start!r}; use YYYY-MM-DD")
    else:
        start = date.today()
    source = _make_source(cfg, args.source)
    with Store(cfg.store_path) as store:
        if not store.location_ids("locations_w") and cfg.weather_stations:
            raise Error(f"store {cfg.store_path} has no catalogs; run init first")
        for i in range(args.days):
            day = start + timedelta(days=i)
            plan = build_plan(cfg.windows, cfg.routes, day)
            clock = (SimulatedClock(datetime.combine(day, time(0, 0)))
                     if args.clock == "simulated" else WallClock())
            try:
                summary = run_day(plan, source, store, cfg, clock=clock)
            except RunAborted as exc:
                if exc.summary is not None:
                    print(exc.summary.line())
                raise
            print(summary.line())
    return 0


def _print_rows(result) -> None:
    print("\t".join(result.columns))
    for row in result.rows:
        print("\t".join("" if v is None else str(v) for v in row))


def _run_query(args, attrs: list[str] | None) -> int:
    cfg = _load_config(args)
    table = resolve_table(args.table)
    with Store(cfg.store_path) as store:
        locs = _resolve_locations(store, table, args.loc)
        start = _parse_when(args.start, False) if args.start else _ALL_TIME_START
        end = _parse_when(args.end, True) if args.end else _ALL_TIME_END
        attributes = attrs if attrs is not None else list(queryable_attributes(table))
        result = store.query_attribute(table, attributes, locs, start, end)
        if args.csv:
            export_csv(result, dest=args.csv)
            print(f"wrote {len(result)} rows to {args.csv}")
        else:
            _print_rows(result)
    return 0


def cmd_query(args) -> int:
    attrs = [a.strip() for a in args.attrs.split(",") if a.strip()]
    if not attrs:
        raise Error("query needs at least one attribute in --attrs")
    return _run_query(args, attrs)


def cmd_export(args) -> int:
    return _run_query(args, None)


def cmd_report(args) -> int:
    cfg = _load_config(args)
    with Store(cfg.store_path) as store:
        rows = store.summarize_nonempty()
    width = max(len(r.column) for r in rows)
    current = None
    print(f"{'attribute':<{width}}  {'non-empty':>12}  {'monthly avg':>12}")
    for r in rows:
        if r.table != current:
            current = r.table
            print(current)
        print(f"  {r.column.upper():<{width}}  {r.nonempty:>12}  "
              f"{r.monthly_avg:>12.1f}")
    return 0


def _add_store_args(p) -> None:
    p.add_argument("--config", help="config file (default: packaged config)")
    p.add_argument("--store", help="database path (overrides config and "
                   f"${config_mod.STORE_ENV_VAR})")


def build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="urbanobs",
        description="Collect, store and query urban weather, traffic and "
                    "air-quality telemetry.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create the schema and load catalogs")
    _add_store_args(p)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("run", help="execute collection days")
    _add_store_args(p)
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--start", help="first day, YYYY-MM-DD (default: today)")
    p.add_argument("--clock", choices=("simulated", "wall"), default="simulated")
    p.add_argument("--source", default="synth",
                   help="'synth' or 'fixtures:<dir>' (default: synth)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("query", help="select attribute values")
    _add_store_args(p)
    p.add_argument("table", help="weathers, traffics or pollutions")
    p.add_argument("--attrs", required=True, help="comma-separated attributes")
    p.add_argument("--loc", help="comma-separated location ids or file_ids "
                   "(default: all)")
    p.add_argument("--from", dest="start", help="range start (inclusive)")
    p.add_argument("--to", dest="end",
                   help="range end (inclusive; date widens to 23:59:59)")
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("report", help="per-attribute accounting summary")
    _add_store_args(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export", help="dump all attributes of a table to CSV")
    _add_store_args(p)
    p.add_argument("table", help="weathers, traffics or pollutions")
    p.add_argument("--loc", help="comma-separated location ids or file_ids "
                   "(default: all)")
    p.add_argument("--from", dest="start", help="range start (inclusive)")
    p.add_argument("--to", dest="end",
                   help="range end (inclusive; date widens to 23:59:59)")
    p.add_argument("--csv", required=True, help="output file")
    p.set_defaults(func=cmd_export)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_argparser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
