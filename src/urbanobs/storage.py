"""Embedded relational store for records, locations and code tables.

Ten tables: three record tables (weathers, traffics, pollutions),
three location catalogs (locations_w, locations_t, locations_p) and
four code tables (time_zones, wdires, conds, icons). Record rows point
at locations and codes through enforced foreign keys; the natural key
(location, timestamp) is unique per record table, which is what makes
inserts idempotent. Its index leads with the location, so a query
reads one index range per location, already in (location, timestamp)
order, and sorts nothing; an export is one query, streamed from its
cursor. A store created with the older (timestamp, location) key keeps
it and answers the same, only slower.

Timestamps are stored as naive local text 'YYYY-MM-DD HH:MM:SS' next
to a time-zone code reference, so lexicographic order is chronological
and inclusive BETWEEN ranges behave predictably.

Each table is stated once, by its `_SCHEMA` DDL, which is also the text
SQLite stores; every column role, query attribute, CSV cell type,
report column and insert statement is read off it. `_KINDS` adds only
what DDL cannot say. A record dataclass's fields, minus its location
attribute, follow its table's columns in order.
"""

from __future__ import annotations

import csv
import io
import sqlite3
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import date, datetime
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    MigrationRequired,
    QueryError,
    ReferentialError,
    StorageError,
    StorageUnavailable,
)
from .model import (
    Lookup,
    PollutionRecord,
    PollutionStation,
    TrafficRecord,
    TrafficRoute,
    WeatherRecord,
    WeatherStation,
    format_timestamp,
)

__all__ = [
    "Store",
    "QueryResult",
    "SummaryRow",
    "export_csv",
    "import_csv",
    "TABLE_COLUMNS",
    "RECORD_TABLES",
    "REPORT_COLUMNS",
    "LOCATION_CATALOG",
    "DB_TIMESTAMP_FMT",
]

DB_TIMESTAMP_FMT = "%Y-%m-%d %H:%M:%S"

_SCHEMA = {
    "locations_w": """
        CREATE TABLE locations_w (
            id_locations_w INTEGER PRIMARY KEY,
            file_id        TEXT NOT NULL UNIQUE,
            station_id     TEXT,
            airport_code   TEXT,
            lat            REAL NOT NULL,
            long           REAL NOT NULL,
            description    TEXT,
            software_type  TEXT,
            since          TEXT
        )""",
    "locations_t": """
        CREATE TABLE locations_t (
            id_locations_t   INTEGER PRIMARY KEY,
            file_id          TEXT NOT NULL UNIQUE,
            start_lat        REAL NOT NULL,
            start_long       REAL NOT NULL,
            end_lat          REAL NOT NULL,
            end_long         REAL NOT NULL,
            description_from TEXT,
            description_to   TEXT
        )""",
    "locations_p": """
        CREATE TABLE locations_p (
            id_locations_p INTEGER PRIMARY KEY,
            file_id        TEXT NOT NULL UNIQUE,
            lat            REAL NOT NULL,
            long           REAL NOT NULL,
            description    TEXT
        )""",
    "time_zones": """
        CREATE TABLE time_zones (
            id_time_zone INTEGER PRIMARY KEY,
            time_zone    TEXT NOT NULL UNIQUE,
            description  TEXT
        )""",
    "wdires": """
        CREATE TABLE wdires (
            id_wdire    INTEGER PRIMARY KEY,
            wdire       TEXT NOT NULL UNIQUE,
            description TEXT
        )""",
    "conds": """
        CREATE TABLE conds (
            id_cond     INTEGER PRIMARY KEY,
            cond        TEXT NOT NULL UNIQUE,
            description TEXT
        )""",
    "icons": """
        CREATE TABLE icons (
            id_icon     INTEGER PRIMARY KEY,
            icon        TEXT NOT NULL UNIQUE,
            description TEXT
        )""",
    "weathers": """
        CREATE TABLE weathers (
            id_weather     INTEGER PRIMARY KEY,
            timestamp_w    TEXT NOT NULL,
            id_time_zone   INTEGER REFERENCES time_zones(id_time_zone),
            temp           REAL,
            dewpt          REAL,
            hum            REAL,
            wspd           REAL,
            wgust          REAL,
            wdird          REAL,
            id_wdire       INTEGER REFERENCES wdires(id_wdire),
            pressure       REAL,
            windchill      REAL,
            heatindex      REAL,
            preciprate     REAL,
            preciptotal    REAL,
            solarradiation REAL,
            uv             REAL,
            vis            REAL,
            precip         REAL,
            id_cond        INTEGER REFERENCES conds(id_cond),
            id_icon        INTEGER REFERENCES icons(id_icon),
            fog            INTEGER,
            rain           INTEGER,
            snow           INTEGER,
            hail           INTEGER,
            thunder        INTEGER,
            tornado        INTEGER,
            metar          TEXT,
            id_locations_w INTEGER NOT NULL REFERENCES locations_w(id_locations_w),
            UNIQUE (id_locations_w, timestamp_w)
        )""",
    "traffics": """
        CREATE TABLE traffics (
            id_traffic      INTEGER PRIMARY KEY,
            timestamp_t     TEXT NOT NULL,
            traveldist      REAL NOT NULL,
            traveltime_std  REAL NOT NULL,
            traveltime_curr REAL NOT NULL,
            id_locations_t  INTEGER NOT NULL REFERENCES locations_t(id_locations_t),
            UNIQUE (id_locations_t, timestamp_t)
        )""",
    "pollutions": """
        CREATE TABLE pollutions (
            id_pollution   INTEGER PRIMARY KEY,
            timestamp_p    TEXT NOT NULL,
            pm10           INTEGER,
            o3             INTEGER,
            co             INTEGER,
            so2            INTEGER,
            no2            INTEGER,
            pm25           INTEGER,
            id_locations_p INTEGER NOT NULL REFERENCES locations_p(id_locations_p),
            UNIQUE (id_locations_p, timestamp_p)
        )""",
}

RECORD_TABLES = ("weathers", "traffics", "pollutions")
LOOKUP_TABLES = ("time_zones", "wdires", "conds", "icons")


class _Kind(NamedTuple):
    """What the DDL cannot say about one record table."""

    record: type        # the record dataclass the table stores
    entry: type         # the catalog entry type its location points at
    location_attr: str  # record attribute holding that entry's file_id
    noun: str           # the location's name in error texts
    alias: str          # singular table name a query may use


_KINDS = {
    "weathers": _Kind(WeatherRecord, WeatherStation, "station",
                      "weather station", "weather"),
    "traffics": _Kind(TrafficRecord, TrafficRoute, "route", "route", "traffic"),
    "pollutions": _Kind(PollutionRecord, PollutionStation, "station",
                        "pollution station", "pollution"),
}


def _columns_of(sql: str) -> tuple[tuple[str, str, str | None], ...]:
    """(name, declared type, referenced table or None) per column."""
    cols = []
    for line in sql.splitlines():
        words = line.strip().rstrip(",").split()
        if not words or words[0] in ("CREATE", ")", "UNIQUE"):
            continue
        ref = line.partition(" REFERENCES ")[2].partition("(")[0]
        cols.append((words[0], words[1], ref or None))
    return tuple(cols)


_COLUMNS = {name: _columns_of(sql) for name, sql in _SCHEMA.items()}
TABLE_COLUMNS = {name: tuple(c[0] for c in cols)
                 for name, cols in _COLUMNS.items()}

# Every role below is read off the DDL. A record table's columns are
# its surrogate id, its timestamp, its measures and, last, its location,
# whose REFERENCES names the catalog. A code table's columns are its
# id and its code.
LOCATION_CATALOG = {t: _COLUMNS[t][-1][2] for t in RECORD_TABLES}
_CATALOG_OF_ENTRY = {k.entry: LOCATION_CATALOG[t] for t, k in _KINDS.items()}
_TABLE_ALIASES = {name: t for t, k in _KINDS.items() for name in (t, k.alias)}

_CELL_TYPE = {"INTEGER": int, "REAL": float, "TEXT": str}


def _attributes(table: str) -> dict[str, tuple[str, str | None, type]]:
    """Query attribute -> (stored column, code table or None, CSV cell type).

    A measure is its own attribute. A measure that references a code
    table is queried by that table's code column and comes back as the
    code; those attributes follow the plain ones.
    """
    measures = _COLUMNS[table][2:-1]
    attrs = {name: (name, None, _CELL_TYPE[type_])
             for name, type_, ref in measures if ref is None}
    for name, _, ref in measures:
        if ref is not None:
            code, code_type, _ = _COLUMNS[ref][1]
            attrs[code] = (name, ref, _CELL_TYPE[code_type])
    return attrs


_ATTRS = {t: _attributes(t) for t in RECORD_TABLES}

# Columns counted by the accounting report, in presentation order. The
# direction code column is counted as stored (id_wdire); sky condition,
# icon, zone and raw METAR text are bookkeeping, not measurements, and
# stay out of the report.
_NOT_REPORTED = {"id_time_zone", "id_cond", "id_icon", "metar"}
REPORT_COLUMNS = {t: tuple(c for c in TABLE_COLUMNS[t][2:-1]
                           if c not in _NOT_REPORTED)
                  for t in RECORD_TABLES}


@dataclass(frozen=True)
class QueryResult:
    """Rows plus enough shape information to export and re-import them."""

    kind: str  # record table name
    columns: tuple[str, ...]
    rows: tuple[tuple, ...] | _Cursor

    def __len__(self) -> int:
        return len(self.rows)


class _Cursor:
    """Rows read once, as iterated; ``len()`` counts the rows read so far."""

    def __init__(self, batches: Iterator[list]) -> None:
        self._batches, self._read = batches, 0

    def __iter__(self) -> Iterator[tuple]:
        for batch in self._batches:
            self._read += len(batch)
            yield from batch

    def __len__(self) -> int:
        return self._read


@dataclass(frozen=True)
class SummaryRow:
    table: str
    column: str
    nonempty: int
    monthly_avg: float


def resolve_table(name: str) -> str:
    table = _TABLE_ALIASES.get(name.lower())
    if table is None:
        raise QueryError(f"unknown record table {name!r}; "
                         f"expected one of {', '.join(RECORD_TABLES)}")
    return table


def queryable_attributes(table: str) -> tuple[str, ...]:
    table = resolve_table(table)
    return tuple(_ATTRS[table])


# One statement per record: a row whose (location, timestamp) is already
# stored is skipped, so re-runs never overwrite stored data. Parameters
# follow the table's columns after the surrogate id. SQLite matches the
# conflict target as a set, so it also names an older store's
# (timestamp, location) key.
_INSERT_SQL = {
    t: (f"INSERT INTO {t} ({', '.join(TABLE_COLUMNS[t][1:])}) "
        f"VALUES ({', '.join('?' * (len(TABLE_COLUMNS[t]) - 1))}) "
        f"ON CONFLICT({TABLE_COLUMNS[t][-1]}, {TABLE_COLUMNS[t][1]}) DO NOTHING")
    for t in RECORD_TABLES
}

# One statement per catalog entry or code, keyed by the second column:
# a new key is inserted, a stored one keeps its id and the rest is rewritten.
_UPSERT_SQL = {
    t: (f"INSERT INTO {t} ({', '.join(TABLE_COLUMNS[t][1:])}) "
        f"VALUES ({', '.join('?' * (len(TABLE_COLUMNS[t]) - 1))}) "
        f"ON CONFLICT({TABLE_COLUMNS[t][1]}) DO UPDATE SET "
        f"{', '.join(f'{c} = excluded.{c}' for c in TABLE_COLUMNS[t][2:])}")
    for t in (*LOCATION_CATALOG.values(), *LOOKUP_TABLES)
}


def _insert_plan(table: str) -> tuple:
    """How a record becomes its row: table, location catalog and noun,
    getters of the location's file_id and of the other fields in column
    order, and (position, code table, noun) per code."""
    kind = _KINDS[table]
    names = [f.name for f in fields(kind.record) if f.name != kind.location_attr]
    codes = tuple((i, ref, f"{TABLE_COLUMNS[ref][1]} code")
                  for i, (_, _, ref) in enumerate(_COLUMNS[table][1:-1])
                  if ref is not None)
    return (table, LOCATION_CATALOG[table], kind.noun,
            attrgetter(kind.location_attr), attrgetter(*names), codes)


_INSERT_PLANS = {k.record: _insert_plan(t) for t, k in _KINDS.items()}


def _ts_text(ts: datetime) -> str:
    return format_timestamp(ts, " ")


class Store:
    """One open database handle plus the operations the pipeline needs.

    One connection, used from one thread; ``deferred()`` opens transactions.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        try:
            self._conn = sqlite3.connect(self.path, isolation_level=None)
            self._conn.execute("PRAGMA foreign_keys = ON")
        except sqlite3.Error as exc:
            raise StorageUnavailable(f"cannot open store at {self.path}: {exc}")
        # (table, file_id/code) -> row id; a committed id never changes.
        self._id_cache: dict[tuple[str, str], int] = {}

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _batches(self, sql: str, args: Sequence = ()) -> Iterator[list]:
        """Run one statement at the first ``next()``, which yields an
        empty batch, then yield its rows a batch at a time, all inside
        the one fault boundary, so a read failing midway is
        StorageUnavailable too. Batches keep SQLite's steps together:
        stepping between CSV rows made a 7-day export about 5% slower."""
        try:
            cursor = self._conn.execute(sql, args)
            yield []
            while batch := cursor.fetchmany(64):
                yield batch
        except sqlite3.IntegrityError:
            raise
        except sqlite3.DatabaseError as exc:
            if "no such table" in str(exc):
                raise StorageError(
                    f"store at {self.path} has no schema yet; run init first "
                    f"({exc})")
            # Locked, read-only, full, failing or not SQLite: it is unusable.
            raise StorageUnavailable(
                f"cannot use store at {self.path}: {exc}") from exc

    def _execute(self, sql: str, args: Sequence = ()) -> list:
        """Run one statement and return its rows."""
        return list(chain.from_iterable(self._batches(sql, args)))

    # -- schema ---------------------------------------------------------

    def init_schema(self) -> dict[str, tuple[str, ...]]:
        """Create missing tables; never touch compatible existing ones.

        Returns the catalog of the ten managed tables with their
        columns. A managed table that exists with a different column
        set raises MigrationRequired; unrelated extra tables are
        ignored. The tables are created in one ``deferred()``
        transaction, so a failed call leaves no table behind.
        """
        with self.deferred():
            for name, sql in _SCHEMA.items():
                if not self._execute("SELECT name FROM sqlite_master "
                                     "WHERE type='table' AND name=?", (name,)):
                    self._execute(sql)
                    continue
                have = tuple(r[1] for r in self._execute(
                    f"PRAGMA table_info({name})"))
                if have != TABLE_COLUMNS[name]:
                    raise MigrationRequired(
                        f"table {name} exists with columns {have}, "
                        f"expected {TABLE_COLUMNS[name]}")
        return {name: TABLE_COLUMNS[name] for name in _SCHEMA}

    # -- commit control ---------------------------------------------------

    def _rollback(self) -> None:
        # Ids read in the dropped transaction may now name other rows, or none.
        self._id_cache.clear()
        try:
            self._conn.rollback()
        except sqlite3.DatabaseError as exc:
            raise StorageUnavailable(
                f"rollback failed on {self.path}: {exc}") from exc

    @contextmanager
    def deferred(self):
        """One transaction: committed on a normal exit, rolled back on an
        exception. Outside it, each statement commits on its own; a block
        opened inside a transaction joins it.
        """
        if self._conn.in_transaction:
            yield self
            return
        self._execute("BEGIN")
        try:
            yield self
        except BaseException:
            self._rollback()
            raise
        try:
            self._conn.commit()
        except sqlite3.DatabaseError as exc:
            # Drop the failed transaction so no later commit publishes it.
            self._rollback()
            raise StorageUnavailable(
                f"commit failed on {self.path}: {exc}") from exc

    # -- locations and lookups ---------------------------------------------

    def upsert_location(self, loc: WeatherStation | TrafficRoute | PollutionStation) -> int:
        """Insert or update a catalog entry; the surrogate id is stable."""
        table = _CATALOG_OF_ENTRY.get(type(loc))
        if table is None:
            raise StorageError(f"not a location object: {loc!r}")
        pk, *cols = TABLE_COLUMNS[table]
        # sqlite3's date adapter is deprecated: dates go in as ISO text.
        values = [v.isoformat() if isinstance(v, date) else v
                  for v in (getattr(loc, c) for c in cols)]
        self._execute(_UPSERT_SQL[table], values)
        return self._execute(f"SELECT {pk} FROM {table} WHERE file_id = ?",
                             (loc.file_id,))[0][0]

    def seed_lookup(self, table: str, entries: Iterable[Lookup]) -> None:
        """Load or refresh code-table rows; idempotent per code."""
        if table not in LOOKUP_TABLES:
            raise StorageError(f"not a lookup table: {table!r}")
        for e in entries:
            self._execute(_UPSERT_SQL[table], (e.code, e.description))

    def location_ids(self, table: str) -> dict[str, int]:
        """file_id -> row id for one location catalog."""
        if table not in LOCATION_CATALOG.values():
            raise StorageError(f"not a location table: {table!r}")
        pk = TABLE_COLUMNS[table][0]
        return {r[1]: r[0] for r in
                self._execute(f"SELECT {pk}, file_id FROM {table}")}

    def _resolve(self, table: str, key: str, what: str) -> int:
        """Row id of a catalog entry by file_id, or of a code."""
        cached = self._id_cache.get((table, key))
        if cached is not None:
            return cached
        pk, key_col = TABLE_COLUMNS[table][:2]
        rows = self._execute(
            f"SELECT {pk} FROM {table} WHERE {key_col} = ?", (key,))
        if not rows:
            raise ReferentialError(f"unknown {what} {key!r} (table {table})")
        self._id_cache[(table, key)] = rows[0][0]
        return rows[0][0]

    # -- record inserts ------------------------------------------------------

    def insert_record(self, rec: WeatherRecord | TrafficRecord | PollutionRecord) -> str:
        """Insert one cleaned record; returns 'inserted' or 'duplicate'.

        A row with the same (location, timestamp) already present makes
        the call a no-op; stored data is never overwritten by re-runs.
        The location resolves first, then each code in column order.
        """
        plan = _INSERT_PLANS.get(type(rec))
        if plan is None:
            raise StorageError(f"not a record object: {rec!r}")
        table, catalog, noun, location_of, values_of, codes = plan
        loc_id = self._resolve(catalog, location_of(rec), noun)
        args = [*values_of(rec), loc_id]
        args[0] = _ts_text(args[0])
        for i, lookup, what in codes:
            if args[i] is not None:
                args[i] = self._resolve(lookup, args[i], what)
        try:
            cur = self._conn.execute(_INSERT_SQL[table], args)
        except sqlite3.IntegrityError as exc:
            raise ReferentialError(f"insert into {table} failed: {exc}")
        except sqlite3.DatabaseError as exc:
            raise StorageUnavailable(f"insert into {table} failed: {exc}") from exc
        return "inserted" if cur.rowcount else "duplicate"

    # -- queries ----------------------------------------------------------

    def query_attribute(
        self,
        table: str,
        attributes: Sequence[str],
        location_ids: Sequence[int],
        start: datetime,
        end: datetime,
        *,
        stream: bool = False,
    ) -> QueryResult:
        """Attribute values over a time range at a set of locations.

        The range is inclusive on both ends. Code-backed attributes
        come back as their codes. Unknown attribute or table names
        raise; an empty location list returns an empty result; location
        ids that match nothing simply contribute no rows. The rows are
        one statement's, in (location, time) order; with ``stream`` the
        statement has run on return and ``rows`` reads its cursor once.
        """
        table = resolve_table(table)
        if start > end:
            raise QueryError(f"range start {start} is after end {end}")
        known = _ATTRS[table]
        exprs, joins = [], {}
        for attr in attributes:
            if attr not in known:
                raise QueryError(f"table {table} has no attribute {attr!r}")
            col, ltable, _ = known[attr]
            if ltable is None:
                exprs.append(f"t.{col}")
            else:
                joins[ltable] = (f"LEFT JOIN {ltable} ON t.{col} = "
                                 f"{ltable}.{TABLE_COLUMNS[ltable][0]}")
                exprs.append(f"{ltable}.{attr}")
        if not attributes:
            raise QueryError("query needs at least one attribute")
        columns = ("timestamp", "location", *attributes)
        ts_col, loc_col = TABLE_COLUMNS[table][1], TABLE_COLUMNS[table][-1]
        marks = ", ".join("?" * len(location_ids))
        sql = (f"SELECT t.{ts_col}, t.{loc_col}, {', '.join(exprs)} "
               f"FROM {table} t {' '.join(joins.values())} "
               f"WHERE t.{loc_col} IN ({marks}) "
               f"AND t.{ts_col} BETWEEN ? AND ? "
               f"ORDER BY t.{loc_col}, t.{ts_col}")
        args = (*location_ids, _ts_text(start), _ts_text(end))
        batches = self._batches(sql, args)
        next(batches)
        rows = _Cursor(batches) if stream else tuple(chain.from_iterable(batches))
        return QueryResult(kind=table, columns=columns, rows=rows)

    def fetch_record(self, table: str, location_id: int, ts: datetime) -> dict | None:
        """One full record by natural key, codes resolved, or None."""
        table = resolve_table(table)
        attrs = queryable_attributes(table)
        result = self.query_attribute(table, attrs, [location_id], ts, ts)
        if not result.rows:
            return None
        return dict(zip(result.columns, result.rows[0]))

    def record_count(self, table: str) -> int:
        table = resolve_table(table)
        return self._execute(f"SELECT COUNT(*) FROM {table}")[0][0]

    def all_counts(self) -> dict[str, int]:
        return {name: self._execute(f"SELECT COUNT(*) FROM {name}")[0][0]
                for name in _SCHEMA}

    # -- accounting report ---------------------------------------------------

    def summarize_nonempty(self) -> list[SummaryRow]:
        """Non-empty count and monthly average per reported column.

        The monthly average divides by the number of distinct calendar
        months in which the table holds at least one record, so a table
        spanning three months with 300 temperature values averages 100
        whether or not every month touched every column.
        """
        out = []
        for table in RECORD_TABLES:
            columns = REPORT_COLUMNS[table]
            counts = ", ".join(f"COUNT({col})" for col in columns)
            months, *nonempty = self._execute(
                f"SELECT COUNT(DISTINCT substr({TABLE_COLUMNS[table][1]}, 1, 7)), "
                f"{counts} FROM {table}")[0]
            for col, n in zip(columns, nonempty):
                out.append(SummaryRow(table, col, n, n / months if months else 0.0))
        return out

    # -- integrity ----------------------------------------------------------

    def referential_violations(self) -> list[str]:
        """Full-scan check of every record-to-catalog pointer."""
        problems = []
        for table in RECORD_TABLES:
            cols = _COLUMNS[table]
            # The location pointer first, then the codes in column order.
            for col, _, target in (cols[-1], *cols[:-1]):
                if target is None:
                    continue
                pk = TABLE_COLUMNS[target][0]
                n = self._execute(
                    f"SELECT COUNT(*) FROM {table} t LEFT JOIN {target} x "
                    f"ON t.{col} = x.{pk} WHERE t.{col} IS NOT NULL "
                    f"AND x.{pk} IS NULL")[0][0]
                if n:
                    problems.append(f"{table}.{col}: {n} rows point nowhere")
        return problems


# The encoding open() picks when given none: UTF-8 in UTF-8 mode, else
# the locale's. "locale" alone would differ in UTF-8 mode.
_CSV_ENCODING = "utf-8" if sys.flags.utf8_mode else "locale"


def export_csv(result, dest=None) -> str | None:
    """Serialize a query result to CSV; NA becomes the empty cell.

    The csv module writes None as an empty cell and numbers as str()
    would, so rows go out unconverted. Without ``dest`` the CSV text is
    returned. With ``dest`` the file is opened once, as ``Path.write_text``
    opens it, and a streamed result's rows are written as they are read,
    so no text is built and None is returned; a read failing midway
    leaves the rows written so far.
    """
    with (io.StringIO() if dest is None
          else open(dest, "w", encoding=_CSV_ENCODING)) as out:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(result.columns)
        w.writerows(result.rows)
        return out.getvalue() if dest is None else None


def import_csv(text: str, table: str) -> QueryResult:
    """Parse CSV produced by export_csv back into a typed result."""
    table = resolve_table(table)
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise QueryError("CSV is empty, expected a header row")
    cell_type = {"timestamp": str, "location": int,
                 **{attr: spec[2] for attr, spec in _ATTRS[table].items()}}
    for col in header:
        if col not in cell_type:
            raise QueryError(f"CSV column {col!r} is not a {table} attribute")
    types = [cell_type[col] for col in header]
    rows = []
    for row in reader:
        if len(row) != len(header):
            raise QueryError(
                f"CSV row has {len(row)} cells, header has {len(header)}")
        # The empty cell is NA.
        rows.append(tuple(None if v == "" else f(v) for f, v in zip(types, row)))
    return QueryResult(kind=table, columns=header, rows=tuple(rows))
