"""Operator command line.

Subcommands: ``init`` (create schema, load catalogs and code tables),
``run`` (execute N collection days), ``query`` (attribute selection to
stdout or CSV), ``report`` (per-attribute accounting), ``export``
(full-table CSV dump). Every command exits nonzero when an error
contract fires and prints the diagnostic on stderr. Only ``init``
creates a store; the other commands refuse a store path that does not
exist. The read commands (``query``, ``report``, ``export``) read a
config only when ``--store`` is absent or ``--config`` is named; the
store path is ``--store``, else ``$URBANOBS_STORE``, else the config's
``[store] path``, else ``urbanobs.db``.

``main`` builds only the parser of the command it runs: one table,
``_COMMANDS``, gives each command's help, handler and arguments, and
drives both that single parser and the full ``build_argparser()``.
Help, usage and error texts are the full parser's, byte for byte; any
argv that does not start with a command name goes through the full
parser.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import date, datetime, time, timedelta
from pathlib import Path

from . import config as config_mod
from .connectors import FixtureDirectorySource, _is_iso_date
from .errors import Error, RunAborted
from .scheduler import SimulatedClock, WallClock, build_plan, run_day
from .storage import (
    DB_TIMESTAMP_FMT,
    LOCATION_CATALOG,
    LOOKUP_TABLES,
    REPORT_COLUMNS,
    Store,
    export_csv,
    queryable_attributes,
    resolve_table,
)
from .synth import SynthSource

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


def _store_path(args) -> str:
    """The store a read command opens.

    ``--store`` wins over every config, so the config is built only to
    find the path, or to check a ``--config`` file the operator named.
    """
    if args.store and not args.config:
        return args.store
    return _load_config(args).store_path


def _parse_when(text: str, end_of_day: bool) -> datetime:
    for fmt in (DB_TIMESTAMP_FMT, "%Y-%m-%dT%H:%M:%S"):
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            pass
    if not _is_iso_date(text):
        raise Error(f"cannot read time {text!r}; use YYYY-MM-DD or "
                    f"'YYYY-MM-DD HH:MM:SS'")
    return datetime.combine(date.fromisoformat(text),
                            time(23, 59, 59) if end_of_day else time(0, 0))


def _existing_store(path: str) -> str:
    """The store path, which must exist: only ``init`` creates a store."""
    if not Path(path).exists():
        raise Error(f"store at {path} does not exist; run init first")
    return path


def _resolve_locations(store: Store, table: str, spec: str | None) -> list[int]:
    ids_by_file = store.location_ids(LOCATION_CATALOG[table])
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


def _catalog_entries(cfg: config_mod.Config) -> dict[str, tuple]:
    """Each location catalog's table and the entries the config gives it."""
    return {"locations_w": tuple(meta.station for meta in cfg.weather_stations),
            "locations_t": cfg.routes,
            "locations_p": cfg.pollution_stations}


def bootstrap_store(store: Store, cfg: config_mod.Config) -> dict:
    """Create the schema and load every catalog the config describes.

    All of it is one transaction: a store is initialized whole or not
    at all.
    """
    with store.deferred():
        catalog = store.init_schema()
        for entries in _catalog_entries(cfg).values():
            for entry in entries:
                store.upsert_location(entry)
        for table in LOOKUP_TABLES:
            store.seed_lookup(table, getattr(cfg, table))
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
    if args.days < 0:
        raise Error(f"--days must be 0 or more, got {args.days}")
    cfg = _load_config(args)
    if args.start:
        if not _is_iso_date(args.start):
            raise Error(f"cannot read day {args.start!r}; use YYYY-MM-DD")
        start = date.fromisoformat(args.start)
    else:
        start = date.today()
    source = _make_source(cfg, args.source)
    with Store(_existing_store(cfg.store_path)) as store:
        if any(entries and not store.location_ids(table)
               for table, entries in _catalog_entries(cfg).items()):
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
    lines = ["\t".join(result.columns)]
    lines += ["\t".join("" if v is None else str(v) for v in row)
              for row in result.rows]
    lines.append("")
    sys.stdout.write("\n".join(lines))


def _run_query(args, attrs: list[str] | None) -> int:
    path = _store_path(args)
    table = resolve_table(args.table)
    with Store(_existing_store(path)) as store:
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
    with Store(_existing_store(_store_path(args))) as store:
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


def _add_run_args(p) -> None:
    _add_store_args(p)
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--start", help="first day, YYYY-MM-DD (default: today)")
    p.add_argument("--clock", choices=("simulated", "wall"), default="simulated")
    p.add_argument("--source", default="synth",
                   help="'synth' or 'fixtures:<dir>' (default: synth)")


def _add_table_arg(p) -> None:
    p.add_argument("table", help="weathers, traffics or pollutions")


def _add_range_args(p) -> None:
    p.add_argument("--loc", help="comma-separated location ids or file_ids "
                   "(default: all)")
    p.add_argument("--from", dest="start", help="range start (inclusive)")
    p.add_argument("--to", dest="end",
                   help="range end (inclusive; date widens to 23:59:59)")


def _add_query_args(p) -> None:
    _add_store_args(p)
    # Before --attrs: argparse names missing required arguments in the
    # order they were added.
    _add_table_arg(p)
    p.add_argument("--attrs", required=True, help="comma-separated attributes")
    _add_range_args(p)
    p.add_argument("--csv", help="write CSV here instead of stdout")


def _add_export_args(p) -> None:
    _add_store_args(p)
    _add_table_arg(p)
    _add_range_args(p)
    p.add_argument("--csv", required=True, help="output file")


# name -> (help, handler, function adding every argument of the command)
_COMMANDS = {
    "init": ("create the schema and load catalogs", cmd_init, _add_store_args),
    "run": ("execute collection days", cmd_run, _add_run_args),
    "query": ("select attribute values", cmd_query, _add_query_args),
    "report": ("per-attribute accounting summary", cmd_report, _add_store_args),
    "export": ("dump all attributes of a table to CSV", cmd_export,
               _add_export_args),
}


def build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="urbanobs",
        description="Collect, store and query urban weather, traffic and "
                    "air-quality telemetry.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, func, add_args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=func)
    return ap


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """What ``build_argparser().parse_args(argv)`` gives, building less.

    When argv starts with a command name, only that command's parser is
    built, as the subparser ``build_argparser`` would make; words it
    leaves over get the full parser's ``unrecognized arguments`` error.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _COMMANDS:
        return build_argparser().parse_args(argv)
    name = argv[0]
    _, func, add_args = _COMMANDS[name]
    p = argparse.ArgumentParser(prog=f"urbanobs {name}")
    add_args(p)
    args, extras = p.parse_known_args(argv[1:])
    if extras:
        build_argparser().error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = name
    args.func = func
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe then fails here, not at exit
        return status
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader left, as in `report | head`
        # Python flushes stdout at exit; send what is left to devnull so
        # that flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
