"""Embedded relational store for records, locations and code tables.

Ten tables: three record tables (weathers, traffics, pollutions),
three location catalogs (locations_w, locations_t, locations_p) and
four code tables (time_zones, wdires, conds, icons). Record rows point
at locations and codes through enforced foreign keys; the natural key
(timestamp, location) is unique per record table, which is what makes
inserts idempotent.

Timestamps are stored as naive local text 'YYYY-MM-DD HH:MM:SS' next
to a time-zone code reference, so lexicographic order is chronological
and inclusive BETWEEN ranges behave predictably.
"""

from __future__ import annotations

import csv
import io
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    MigrationRequired,
    QueryError,
    ReferentialError,
    StorageError,
    StorageUnavailable,
)
from .model import (
    CONTAMINANTS,
    Lookup,
    PollutionRecord,
    PollutionStation,
    TrafficRecord,
    TrafficRoute,
    WeatherRecord,
    WeatherStation,
    WEATHER_FLAG_ATTRIBUTES,
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
            UNIQUE (timestamp_w, id_locations_w)
        )""",
    "traffics": """
        CREATE TABLE traffics (
            id_traffic      INTEGER PRIMARY KEY,
            timestamp_t     TEXT NOT NULL,
            traveldist      REAL NOT NULL,
            traveltime_std  REAL NOT NULL,
            traveltime_curr REAL NOT NULL,
            id_locations_t  INTEGER NOT NULL REFERENCES locations_t(id_locations_t),
            UNIQUE (timestamp_t, id_locations_t)
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
            UNIQUE (timestamp_p, id_locations_p)
        )""",
}

RECORD_TABLES = ("weathers", "traffics", "pollutions")
LOOKUP_TABLES = ("time_zones", "wdires", "conds", "icons")

_TABLE_ALIASES = {
    "weather": "weathers", "weathers": "weathers",
    "traffic": "traffics", "traffics": "traffics",
    "pollution": "pollutions", "pollutions": "pollutions",
}

_TS_COL = {"weathers": "timestamp_w", "traffics": "timestamp_t",
           "pollutions": "timestamp_p"}
_LOCATION_COL = {"weathers": "id_locations_w", "traffics": "id_locations_t",
                 "pollutions": "id_locations_p"}
_LOOKUP_CODE_COL = {"time_zones": "time_zone", "wdires": "wdire",
                    "conds": "cond", "icons": "icon"}
_LOOKUP_PK = {"time_zones": "id_time_zone", "wdires": "id_wdire",
              "conds": "id_cond", "icons": "id_icon"}


def _columns_of(sql: str) -> tuple[str, ...]:
    cols = []
    for line in sql.splitlines():
        line = line.strip().rstrip(",")
        if not line or line.startswith(("CREATE", ")", "UNIQUE")):
            continue
        cols.append(line.split()[0])
    return tuple(cols)


TABLE_COLUMNS = {name: _columns_of(sql) for name, sql in _SCHEMA.items()}

# Attributes a query may name, mapped onto stored columns. Code-backed
# attributes resolve through their lookup table and come back as codes.
_CODE_ATTRS = {
    "weathers": {"time_zone": ("id_time_zone", "time_zones"),
                 "wdire": ("id_wdire", "wdires"),
                 "cond": ("id_cond", "conds"),
                 "icon": ("id_icon", "icons")},
    "traffics": {},
    "pollutions": {},
}

_PLAIN_ATTRS = {
    "weathers": ("temp", "dewpt", "hum", "wspd", "wgust", "wdird", "pressure",
                 "windchill", "heatindex", "preciprate", "preciptotal",
                 "solarradiation", "uv", "vis", "precip", "fog", "rain",
                 "snow", "hail", "thunder", "tornado", "metar"),
    "traffics": ("traveldist", "traveltime_std", "traveltime_curr"),
    "pollutions": CONTAMINANTS,
}

# Python-side types for CSV import, per record table.
_INT_ATTRS = {
    "weathers": set(WEATHER_FLAG_ATTRIBUTES),
    "traffics": set(),
    "pollutions": set(CONTAMINANTS),
}
_TEXT_ATTRS = {
    "weathers": {"metar", "cond", "icon", "wdire", "time_zone"},
    "traffics": set(),
    "pollutions": set(),
}

# Columns counted by the accounting report, in presentation order. The
# direction code column is counted as stored (id_wdire); sky condition,
# icon, zone and raw METAR text are bookkeeping, not measurements, and
# stay out of the report.
REPORT_COLUMNS = {
    "weathers": ("temp", "dewpt", "hum", "wspd", "wgust", "wdird", "id_wdire",
                 "pressure", "windchill", "heatindex", "preciprate",
                 "preciptotal", "solarradiation", "uv", "vis", "precip",
                 "fog", "rain", "snow", "hail", "thunder", "tornado"),
    "traffics": ("traveldist", "traveltime_std", "traveltime_curr"),
    "pollutions": CONTAMINANTS,
}


@dataclass(frozen=True)
class QueryResult:
    """Rows plus enough shape information to export and re-import them."""

    kind: str  # record table name
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __len__(self) -> int:
        return len(self.rows)


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
    return tuple(_PLAIN_ATTRS[table]) + tuple(_CODE_ATTRS[table])


# One statement per record: a row whose (timestamp, location) is already
# stored is skipped, so re-runs never overwrite stored data. Parameters
# follow the table's columns after the surrogate id.
_INSERT_SQL = {
    t: (f"INSERT INTO {t} ({', '.join(TABLE_COLUMNS[t][1:])}) "
        f"VALUES ({', '.join('?' * (len(TABLE_COLUMNS[t]) - 1))}) "
        f"ON CONFLICT({_TS_COL[t]}, {_LOCATION_COL[t]}) DO NOTHING")
    for t in RECORD_TABLES
}


def _ts_text(ts: datetime) -> str:
    return format_timestamp(ts, " ")


class Store:
    """One open database handle plus the operations the pipeline needs.

    A single connection used from one thread; the day-level transaction
    batches the commits of its inserts.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        try:
            self._conn = sqlite3.connect(self.path)
            self._conn.execute("PRAGMA foreign_keys = ON")
        except sqlite3.Error as exc:
            raise StorageUnavailable(f"cannot open store at {self.path}: {exc}")
        self._deferred = 0
        # (table, file_id/code) -> row id; safe because ids never change.
        self._id_cache: dict[tuple[str, str], int] = {}

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _execute(self, sql: str, args: tuple = ()):
        try:
            return self._conn.execute(sql, args)
        except sqlite3.OperationalError as exc:
            if "no such table" in str(exc):
                raise StorageError(
                    f"store at {self.path} has no schema yet; run init first "
                    f"({exc})")
            # Locked, read-only, full or failing: the store cannot be used.
            raise StorageUnavailable(str(exc)) from exc

    # -- schema ---------------------------------------------------------

    def init_schema(self) -> dict[str, tuple[str, ...]]:
        """Create missing tables; never touch compatible existing ones.

        Returns the catalog of the ten managed tables with their
        columns. A managed table that exists with a different column
        set raises MigrationRequired; unrelated extra tables are
        ignored.
        """
        with self._conn:
            for name, sql in _SCHEMA.items():
                row = self._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table' AND name=?",
                    (name,)).fetchone()
                if row is None:
                    self._conn.execute(sql)
                    continue
                have = tuple(r[1] for r in self._conn.execute(
                    f"PRAGMA table_info({name})"))
                if have != TABLE_COLUMNS[name]:
                    raise MigrationRequired(
                        f"table {name} exists with columns {have}, "
                        f"expected {TABLE_COLUMNS[name]}")
        return {name: TABLE_COLUMNS[name] for name in _SCHEMA}

    # -- commit control ---------------------------------------------------

    def _rollback(self) -> None:
        try:
            self._conn.rollback()
        except sqlite3.OperationalError as exc:
            raise StorageUnavailable(
                f"rollback failed on {self.path}: {exc}") from exc

    def _commit(self) -> None:
        if self._deferred:
            return
        try:
            self._conn.commit()
        except sqlite3.OperationalError as exc:
            # Drop the failed transaction so no later commit publishes it.
            self._rollback()
            raise StorageUnavailable(
                f"commit failed on {self.path}: {exc}") from exc

    @contextmanager
    def deferred(self):
        """Batch many inserts into one transaction (used per run day)."""
        self._deferred += 1
        try:
            yield self
        except BaseException:
            self._deferred -= 1
            if not self._deferred:
                self._rollback()
            raise
        else:
            self._deferred -= 1
            self._commit()

    # -- locations and lookups ---------------------------------------------

    def upsert_location(self, loc: WeatherStation | TrafficRoute | PollutionStation) -> int:
        """Insert or update a catalog entry; the surrogate id is stable."""
        if isinstance(loc, WeatherStation):
            table, fields = "locations_w", {
                "station_id": loc.station_id, "airport_code": loc.airport_code,
                "lat": loc.lat, "long": loc.long,
                "description": loc.description,
                "software_type": loc.software_type,
                "since": loc.since.isoformat() if loc.since else None,
            }
        elif isinstance(loc, TrafficRoute):
            table, fields = "locations_t", {
                "start_lat": loc.start_lat, "start_long": loc.start_long,
                "end_lat": loc.end_lat, "end_long": loc.end_long,
                "description_from": loc.description_from,
                "description_to": loc.description_to,
            }
        elif isinstance(loc, PollutionStation):
            table, fields = "locations_p", {
                "lat": loc.lat, "long": loc.long, "description": loc.description,
            }
        else:
            raise StorageError(f"not a location object: {loc!r}")
        pk = _LOCATION_COL[{"locations_w": "weathers", "locations_t": "traffics",
                            "locations_p": "pollutions"}[table]]
        row = self._execute(
            f"SELECT {pk} FROM {table} WHERE file_id = ?",
            (loc.file_id,)).fetchone()
        if row is not None:
            sets = ", ".join(f"{k} = ?" for k in fields)
            self._execute(
                f"UPDATE {table} SET {sets} WHERE {pk} = ?",
                (*fields.values(), row[0]))
            self._commit()
            return row[0]
        cols = ", ".join(["file_id", *fields])
        marks = ", ".join("?" * (len(fields) + 1))
        cur = self._execute(
            f"INSERT INTO {table} ({cols}) VALUES ({marks})",
            (loc.file_id, *fields.values()))
        self._commit()
        return cur.lastrowid

    def seed_lookup(self, table: str, entries: Iterable[Lookup]) -> None:
        """Load or refresh code-table rows; idempotent per code."""
        if table not in LOOKUP_TABLES:
            raise StorageError(f"not a lookup table: {table!r}")
        code_col = _LOOKUP_CODE_COL[table]
        for e in entries:
            self._execute(
                f"INSERT INTO {table} ({code_col}, description) VALUES (?, ?) "
                f"ON CONFLICT({code_col}) DO UPDATE "
                f"SET description = excluded.description",
                (e.code, e.description))
        self._commit()

    def location_ids(self, table: str) -> dict[str, int]:
        """file_id -> row id for one location catalog."""
        if table not in ("locations_w", "locations_t", "locations_p"):
            raise StorageError(f"not a location table: {table!r}")
        pk = TABLE_COLUMNS[table][0]
        return {r[1]: r[0] for r in
                self._execute(f"SELECT {pk}, file_id FROM {table}")}

    def _resolve(self, table: str, key_col: str, key: str, what: str) -> int:
        cached = self._id_cache.get((table, key))
        if cached is not None:
            return cached
        pk = TABLE_COLUMNS[table][0]
        row = self._execute(
            f"SELECT {pk} FROM {table} WHERE {key_col} = ?", (key,)).fetchone()
        if row is None:
            raise ReferentialError(f"unknown {what} {key!r} (table {table})")
        self._id_cache[(table, key)] = row[0]
        return row[0]

    def _resolve_code(self, table: str, code: str | None) -> int | None:
        if code is None:
            return None
        cached = self._id_cache.get((table, code))
        if cached is not None:
            return cached
        return self._resolve(table, _LOOKUP_CODE_COL[table], code,
                             f"{_LOOKUP_CODE_COL[table]} code")

    # -- record inserts ------------------------------------------------------

    def insert_record(self, rec: WeatherRecord | TrafficRecord | PollutionRecord) -> str:
        """Insert one cleaned record; returns 'inserted' or 'duplicate'.

        A row with the same (timestamp, location) already present makes
        the call a no-op; stored data is never overwritten by re-runs.
        """
        if isinstance(rec, WeatherRecord):
            return self._insert_weather(rec)
        if isinstance(rec, TrafficRecord):
            return self._insert_traffic(rec)
        if isinstance(rec, PollutionRecord):
            return self._insert_pollution(rec)
        raise StorageError(f"not a record object: {rec!r}")

    def _insert_row(self, table: str, args: tuple) -> str:
        try:
            cur = self._conn.execute(_INSERT_SQL[table], args)
        except sqlite3.IntegrityError as exc:
            raise ReferentialError(f"insert into {table} failed: {exc}")
        except sqlite3.OperationalError as exc:
            raise StorageUnavailable(f"insert into {table} failed: {exc}") from exc
        self._commit()
        return "inserted" if cur.rowcount else "duplicate"

    def _insert_weather(self, rec: WeatherRecord) -> str:
        loc_id = self._resolve("locations_w", "file_id", rec.station,
                               "weather station")
        code = self._resolve_code
        return self._insert_row("weathers", (
            _ts_text(rec.timestamp), code("time_zones", rec.tz),
            rec.temp, rec.dewpt, rec.hum, rec.wspd, rec.wgust, rec.wdird,
            code("wdires", rec.wdire),
            rec.pressure, rec.windchill, rec.heatindex, rec.preciprate,
            rec.preciptotal, rec.solarradiation, rec.uv, rec.vis, rec.precip,
            code("conds", rec.cond), code("icons", rec.icon),
            rec.fog, rec.rain, rec.snow, rec.hail, rec.thunder, rec.tornado,
            rec.metar, loc_id))

    def _insert_traffic(self, rec: TrafficRecord) -> str:
        loc_id = self._resolve("locations_t", "file_id", rec.route, "route")
        return self._insert_row("traffics", (
            _ts_text(rec.timestamp), rec.traveldist, rec.traveltime_std,
            rec.traveltime_curr, loc_id))

    def _insert_pollution(self, rec: PollutionRecord) -> str:
        loc_id = self._resolve("locations_p", "file_id", rec.station,
                               "pollution station")
        return self._insert_row("pollutions", (
            _ts_text(rec.timestamp), rec.pm10, rec.o3, rec.co, rec.so2,
            rec.no2, rec.pm25, loc_id))

    # -- queries ----------------------------------------------------------

    def query_attribute(
        self,
        table: str,
        attributes: Sequence[str],
        location_ids: Sequence[int],
        start: datetime,
        end: datetime,
    ) -> QueryResult:
        """Attribute values over a time range at a set of locations.

        The range is inclusive on both ends. Code-backed attributes
        come back as their codes. Unknown attribute or table names
        raise; an empty location list returns an empty result; location
        ids that match nothing simply contribute no rows.
        """
        table = resolve_table(table)
        if start > end:
            raise QueryError(f"range start {start} is after end {end}")
        plain = set(_PLAIN_ATTRS[table])
        coded = _CODE_ATTRS[table]
        exprs, joins = [], {}
        for attr in attributes:
            if attr in plain:
                exprs.append(f"t.{attr}")
            elif attr in coded:
                col, ltable = coded[attr]
                joins[ltable] = (f"LEFT JOIN {ltable} ON t.{col} = "
                                 f"{ltable}.{_LOOKUP_PK[ltable]}")
                exprs.append(f"{ltable}.{_LOOKUP_CODE_COL[ltable]}")
            else:
                raise QueryError(f"table {table} has no attribute {attr!r}")
        if not attributes:
            raise QueryError("query needs at least one attribute")
        columns = ("timestamp", "location", *attributes)
        if not location_ids:
            return QueryResult(kind=table, columns=columns, rows=())
        ts_col, loc_col = _TS_COL[table], _LOCATION_COL[table]
        marks = ", ".join("?" * len(location_ids))
        sql = (f"SELECT t.{ts_col}, t.{loc_col}, {', '.join(exprs)} "
               f"FROM {table} t {' '.join(joins.values())} "
               f"WHERE t.{loc_col} IN ({marks}) "
               f"AND t.{ts_col} BETWEEN ? AND ? "
               f"ORDER BY t.{loc_col}, t.{ts_col}")
        args = (*location_ids, _ts_text(start), _ts_text(end))
        rows = tuple(self._execute(sql, args).fetchall())
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
        return self._execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]

    def all_counts(self) -> dict[str, int]:
        return {name: self._execute(f"SELECT COUNT(*) FROM {name}").fetchone()[0]
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
                f"SELECT COUNT(DISTINCT substr({_TS_COL[table]}, 1, 7)), "
                f"{counts} FROM {table}").fetchone()
            for col, n in zip(columns, nonempty):
                out.append(SummaryRow(table, col, n, n / months if months else 0.0))
        return out

    # -- integrity ----------------------------------------------------------

    def referential_violations(self) -> list[str]:
        """Full-scan check of every record-to-catalog pointer."""
        checks = [
            ("weathers", "id_locations_w", "locations_w"),
            ("weathers", "id_time_zone", "time_zones"),
            ("weathers", "id_wdire", "wdires"),
            ("weathers", "id_cond", "conds"),
            ("weathers", "id_icon", "icons"),
            ("traffics", "id_locations_t", "locations_t"),
            ("pollutions", "id_locations_p", "locations_p"),
        ]
        problems = []
        for table, col, target in checks:
            pk = TABLE_COLUMNS[target][0]
            n = self._execute(
                f"SELECT COUNT(*) FROM {table} t LEFT JOIN {target} x "
                f"ON t.{col} = x.{pk} WHERE t.{col} IS NOT NULL "
                f"AND x.{pk} IS NULL").fetchone()[0]
            if n:
                problems.append(f"{table}.{col}: {n} rows point nowhere")
        return problems


def export_csv(result: QueryResult, dest=None) -> str:
    """Serialize a query result to CSV text; NA becomes the empty cell.

    The csv module writes None as an empty cell and numbers as str()
    would, so rows go out unconverted.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(result.columns)
    w.writerows(result.rows)
    text = buf.getvalue()
    if dest is not None:
        Path(dest).write_text(text)
    return text


def _parse_cell(table: str, column: str, text: str):
    if text == "":
        return None
    if column == "timestamp":
        return text
    if column == "location":
        return int(text)
    if column in _TEXT_ATTRS[table]:
        return text
    if column in _INT_ATTRS[table]:
        return int(text)
    return float(text)


def import_csv(text: str, table: str) -> QueryResult:
    """Parse CSV produced by export_csv back into a typed result."""
    table = resolve_table(table)
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise QueryError("CSV is empty, expected a header row")
    known = {"timestamp", "location", *_PLAIN_ATTRS[table], *_CODE_ATTRS[table]}
    for col in header:
        if col not in known:
            raise QueryError(f"CSV column {col!r} is not a {table} attribute")
    rows = []
    for row in reader:
        if len(row) != len(header):
            raise QueryError(
                f"CSV row has {len(row)} cells, header has {len(header)}")
        rows.append(tuple(_parse_cell(table, c, v) for c, v in zip(header, row)))
    return QueryResult(kind=table, columns=header, rows=tuple(rows))
