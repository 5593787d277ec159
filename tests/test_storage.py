from __future__ import annotations

import csv
import dataclasses
import io
import sqlite3
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from urbanobs.cli import bootstrap_store, main
from urbanobs.errors import (
    MigrationRequired,
    OutOfRangeError,
    QueryError,
    ReferentialError,
    StorageError,
    StorageUnavailable,
)
from urbanobs.model import (
    COMPASS_CODES,
    CONTAMINANTS,
    WEATHER_FLAG_ATTRIBUTES,
    WEATHER_NUMERIC_ATTRIBUTES,
    Lookup,
    PollutionRecord,
    PollutionStation,
    TrafficRecord,
    TrafficRoute,
    WeatherRecord,
    WeatherStation,
)
from urbanobs.scheduler import build_plan, run_day
from urbanobs.storage import (
    LOCATION_CATALOG,
    RECORD_TABLES,
    REPORT_COLUMNS,
    TABLE_COLUMNS,
    _ATTRS,
    QueryResult,
    Store,
    export_csv,
    import_csv,
    queryable_attributes,
    resolve_table,
)
from urbanobs.synth import SynthSource

T0 = datetime(2016, 5, 16, 8, 0)


def w_rec(ts=T0, station="pws_one", **kw):
    return WeatherRecord(timestamp=ts, station=station, **kw)


def t_rec(ts=T0, route="alpha-beta", dist=18560.0, std=1215.0, curr=2066.0):
    return TrafficRecord(timestamp=ts, route=route, traveldist=dist,
                         traveltime_std=std, traveltime_curr=curr)


def p_rec(ts=T0, station="sima_test", **kw):
    return PollutionRecord(timestamp=ts, station=station, **kw)


class TestSchema:
    def test_exactly_ten_tables(self, store):
        names = {r[0] for r in store._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'")}
        names.discard("sqlite_sequence")
        assert len(names) == 10
        assert set(TABLE_COLUMNS) == names

    def test_init_returns_catalog(self):
        with Store(":memory:") as s:
            catalog = s.init_schema()
            assert set(catalog) == set(TABLE_COLUMNS)
            assert catalog["traffics"] == (
                "id_traffic", "timestamp_t", "traveldist", "traveltime_std",
                "traveltime_curr", "id_locations_t")

    def test_init_idempotent(self, store):
        assert store.init_schema() == store.init_schema()

    def test_natural_keys_declared_unique(self, store):
        for table in RECORD_TABLES:
            ddl = store._conn.execute(
                "SELECT sql FROM sqlite_master WHERE name = ?", (table,)
            ).fetchone()[0]
            assert "UNIQUE" in ddl

    def test_incompatible_table_requires_migration(self, tmp_path):
        path = tmp_path / "old.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE weathers (id INTEGER PRIMARY KEY, x TEXT)")
        conn.commit()
        conn.close()
        with Store(path) as s, pytest.raises(MigrationRequired, match="weathers"):
            s.init_schema()

    def test_unrelated_tables_ignored(self, tmp_path):
        path = tmp_path / "shared.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE scratch (note TEXT)")
        conn.commit()
        conn.close()
        with Store(path) as s:
            s.init_schema()
            assert s.record_count("weathers") == 0

    def test_init_on_locked_store_is_unavailable(self, tmp_path):
        path = tmp_path / "locked.db"
        holder = sqlite3.connect(path, isolation_level=None)
        try:
            holder.execute("BEGIN EXCLUSIVE")
            with Store(path) as s:
                # Fail at once rather than after sqlite3's 5 s default wait.
                s._conn.execute("PRAGMA busy_timeout = 0")
                with pytest.raises(StorageUnavailable, match="locked") as err:
                    s.init_schema()
        finally:
            holder.close()
        assert str(err.value) == f"cannot use store at {path}: database is locked"

    def test_uninitialized_store_says_run_init(self):
        with Store(":memory:") as s:
            with pytest.raises(StorageError, match="run init"):
                s.record_count("weathers")


class TestLocations:
    def test_upsert_assigns_stable_id(self, store):
        st = WeatherStation(file_id="pws_x", lat=1.0, long=2.0,
                            station_id="KX1")
        first = store.upsert_location(st)
        again = store.upsert_location(st)
        assert first == again

    def test_upsert_updates_fields(self, store):
        st = WeatherStation(file_id="pws_x", lat=1.0, long=2.0,
                            station_id="KX1", description="old")
        loc_id = store.upsert_location(st)
        moved = WeatherStation(file_id="pws_x", lat=1.5, long=2.0,
                               station_id="KX1", description="new roof")
        assert store.upsert_location(moved) == loc_id
        lat, desc = store._conn.execute(
            "SELECT lat, description FROM locations_w WHERE file_id='pws_x'"
        ).fetchone()
        assert lat == 1.5 and desc == "new roof"

    def test_location_ids(self, tiny_store):
        ids = tiny_store.location_ids("locations_t")
        assert set(ids) == {"alpha-beta", "beta-alpha"}
        with pytest.raises(StorageError):
            tiny_store.location_ids("weathers")

    def test_not_a_location(self, store):
        with pytest.raises(StorageError, match="not a location"):
            store.upsert_location("pws_x")


class TestLookups:
    def test_seed_is_idempotent_and_refreshes(self, store):
        store.seed_lookup("conds", [Lookup("Clear", "old words")])
        store.seed_lookup("conds", [Lookup("Clear", "new words")])
        rows = store._conn.execute("SELECT cond, description FROM conds").fetchall()
        assert rows == [("Clear", "new words")]

    def test_only_lookup_tables(self, store):
        with pytest.raises(StorageError, match="not a lookup"):
            store.seed_lookup("weathers", [])


class TestInserts:
    def test_weather_round_trip(self, tiny_store):
        rec = w_rec(temp=21.4, hum=67.0, wdire="SSW", tz="CST",
                    cond="Clear", icon="clear")
        assert tiny_store.insert_record(rec) == "inserted"
        loc = tiny_store.location_ids("locations_w")["pws_one"]
        got = tiny_store.fetch_record("weathers", loc, T0)
        assert got["temp"] == 21.4 and got["hum"] == 67.0
        assert got["wdire"] == "SSW" and got["time_zone"] == "CST"
        assert got["cond"] == "Clear"
        assert got["metar"] is None

    def test_duplicate_is_noop(self, tiny_store):
        first = w_rec(temp=21.4)
        assert tiny_store.insert_record(first) == "inserted"
        assert tiny_store.insert_record(w_rec(temp=99.9)) == "duplicate"
        loc = tiny_store.location_ids("locations_w")["pws_one"]
        assert tiny_store.fetch_record("weathers", loc, T0)["temp"] == 21.4
        assert tiny_store.record_count("weathers") == 1

    def test_same_time_different_station_not_duplicate(self, tiny_store):
        assert tiny_store.insert_record(w_rec(station="pws_one")) == "inserted"
        assert tiny_store.insert_record(w_rec(station="apt_one")) == "inserted"

    def test_unknown_location_rejected(self, tiny_store):
        with pytest.raises(ReferentialError, match="pws_nowhere"):
            tiny_store.insert_record(w_rec(station="pws_nowhere"))

    def test_unknown_code_rejected(self, tiny_store):
        with pytest.raises(ReferentialError, match="Sharknado"):
            tiny_store.insert_record(w_rec(cond="Sharknado"))

    def test_traffic_and_pollution(self, tiny_store):
        assert tiny_store.insert_record(t_rec()) == "inserted"
        assert tiny_store.insert_record(p_rec(pm10=45, o3=30)) == "inserted"
        assert tiny_store.insert_record(t_rec()) == "duplicate"
        assert tiny_store.all_counts()["traffics"] == 1
        assert tiny_store.all_counts()["pollutions"] == 1

    def test_not_a_record(self, tiny_store):
        with pytest.raises(StorageError, match="not a record"):
            tiny_store.insert_record({"temp": 20})

    def test_deferred_rolls_back_on_error(self, tiny_store):
        with pytest.raises(RuntimeError):
            with tiny_store.deferred():
                tiny_store.insert_record(w_rec())
                raise RuntimeError("midway crash")
        assert tiny_store.record_count("weathers") == 0

    def test_deferred_commits_on_success(self, tiny_store):
        with tiny_store.deferred():
            tiny_store.insert_record(w_rec())
        assert tiny_store.record_count("weathers") == 1

    def test_read_only_store_is_unavailable(self, tiny_store):
        tiny_store._conn.execute("PRAGMA query_only = ON")
        with pytest.raises(StorageUnavailable, match="readonly"):
            tiny_store.insert_record(w_rec())

    def test_rollback_forgets_resolved_ids(self, store):
        """An id read in a rolled-back transaction may later name another
        row; a record must not be filed under it."""
        pws_a = WeatherStation(file_id="pws_a", lat=1.0, long=2.0,
                               station_id="KA1")
        pws_b = WeatherStation(file_id="pws_b", lat=3.0, long=4.0,
                               station_id="KB1")
        with pytest.raises(RuntimeError):
            with store.deferred():
                store.upsert_location(pws_a)
                store.insert_record(w_rec(station="pws_a"))
                raise RuntimeError("day aborted")
        assert store.upsert_location(pws_b) == 1  # pws_a's dropped id
        with pytest.raises(ReferentialError) as err:
            store.insert_record(w_rec(station="pws_a"))
        assert str(err.value) == \
            "unknown weather station 'pws_a' (table locations_w)"
        assert store.record_count("weathers") == 0

    def test_failed_commit_is_unavailable(self, tmp_path, tiny_cfg):
        path = tmp_path / "locked.db"
        with Store(path) as store:
            bootstrap_store(store, tiny_cfg)
            store._conn.execute("PRAGMA busy_timeout = 10")
            reader = sqlite3.connect(path)
            try:
                # An open read transaction keeps the writer from committing.
                reader.execute("BEGIN")
                reader.execute("SELECT COUNT(*) FROM weathers").fetchone()
                with pytest.raises(StorageUnavailable, match="commit"):
                    with store.deferred():
                        store.insert_record(w_rec())
            finally:
                reader.close()
            assert store.record_count("weathers") == 0


class TestEveryColumn:
    """Each field lands in its own column, on insert, upsert and read."""

    @staticmethod
    def _row(store, table):
        rows = store._conn.execute(f"SELECT * FROM {table}").fetchall()
        assert len(rows) == 1
        return rows[0]

    @staticmethod
    def _id(store, table, col, key):
        return store._conn.execute(
            f"SELECT {TABLE_COLUMNS[table][0]} FROM {table} WHERE {col} = ?",
            (key,)).fetchone()[0]

    def test_weather(self, tiny_store):
        rec = w_rec(station="apt_one", tz="CST", temp=21.5, dewpt=11.25,
                    hum=61.0, wspd=4.5, wgust=9.75, wdird=200.0, wdire="SSW",
                    pressure=1013.5, windchill=20.25, heatindex=22.75,
                    preciprate=0.5, preciptotal=1.25, solarradiation=350.0,
                    uv=3.0, vis=9.5, precip=0.75, cond="Light Rain",
                    icon="rain", fog=1, rain=0, snow=1, hail=0, thunder=1,
                    tornado=0, metar="METAR MMTT 160800Z")
        assert tiny_store.insert_record(rec) == "inserted"
        s = tiny_store
        loc = self._id(s, "locations_w", "file_id", "apt_one")
        tz = self._id(s, "time_zones", "time_zone", "CST")
        wdire = self._id(s, "wdires", "wdire", "SSW")
        cond = self._id(s, "conds", "cond", "Light Rain")
        icon = self._id(s, "icons", "icon", "rain")
        assert self._row(s, "weathers") == (
            1, "2016-05-16 08:00:00", tz, 21.5, 11.25, 61.0, 4.5, 9.75, 200.0,
            wdire, 1013.5, 20.25, 22.75, 0.5, 1.25, 350.0, 3.0, 9.5, 0.75,
            cond, icon, 1, 0, 1, 0, 1, 0, "METAR MMTT 160800Z", loc)
        assert s.fetch_record("weathers", loc, T0) == {
            "timestamp": "2016-05-16 08:00:00", "location": loc,
            "temp": 21.5, "dewpt": 11.25, "hum": 61.0, "wspd": 4.5,
            "wgust": 9.75, "wdird": 200.0, "pressure": 1013.5,
            "windchill": 20.25, "heatindex": 22.75, "preciprate": 0.5,
            "preciptotal": 1.25, "solarradiation": 350.0, "uv": 3.0,
            "vis": 9.5, "precip": 0.75, "fog": 1, "rain": 0, "snow": 1,
            "hail": 0, "thunder": 1, "tornado": 0,
            "metar": "METAR MMTT 160800Z", "time_zone": "CST",
            "wdire": "SSW", "cond": "Light Rain", "icon": "rain"}

    def test_traffic(self, tiny_store):
        assert tiny_store.insert_record(t_rec(route="beta-alpha")) == "inserted"
        loc = self._id(tiny_store, "locations_t", "file_id", "beta-alpha")
        assert self._row(tiny_store, "traffics") == (
            1, "2016-05-16 08:00:00", 18560.0, 1215.0, 2066.0, loc)
        assert tiny_store.fetch_record("traffics", loc, T0) == {
            "timestamp": "2016-05-16 08:00:00", "location": loc,
            "traveldist": 18560.0, "traveltime_std": 1215.0,
            "traveltime_curr": 2066.0}

    def test_pollution(self, tiny_store):
        rec = p_rec(pm10=61, o3=32, co=13, so2=24, no2=45, pm25=56)
        assert tiny_store.insert_record(rec) == "inserted"
        loc = self._id(tiny_store, "locations_p", "file_id", "sima_test")
        assert self._row(tiny_store, "pollutions") == (
            1, "2016-05-16 08:00:00", 61, 32, 13, 24, 45, 56, loc)
        assert tiny_store.fetch_record("pollutions", loc, T0) == {
            "timestamp": "2016-05-16 08:00:00", "location": loc,
            "pm10": 61, "o3": 32, "co": 13, "so2": 24, "no2": 45, "pm25": 56}

    @pytest.mark.parametrize("entry,row", [
        (WeatherStation(file_id="pws_x", lat=25.5, long=-100.25,
                        description="roof", station_id="KX1",
                        software_type="weewx", since=date(2015, 3, 1)),
         ("pws_x", "KX1", None, 25.5, -100.25, "roof", "weewx", "2015-03-01")),
        (WeatherStation(file_id="apt_x", lat=25.75, long=-100.125,
                        description="tower", airport_code="MMXX"),
         ("apt_x", None, "MMXX", 25.75, -100.125, "tower", None, None)),
        (TrafficRoute(file_id="a-b", start_lat=25.5, start_long=-100.25,
                      end_lat=25.75, end_long=-100.125,
                      description_from="downtown", description_to="airport"),
         ("a-b", 25.5, -100.25, 25.75, -100.125, "downtown", "airport")),
        (PollutionStation(file_id="sima_x", lat=25.5, long=-100.25,
                          description="monitor"),
         ("sima_x", 25.5, -100.25, "monitor")),
    ])
    def test_catalog_entry(self, store, entry, row):
        table, stale = {
            WeatherStation: ("locations_w", dict(lat=1.0, long=2.0, description="",
                                                 software_type=None, since=None)),
            TrafficRoute: ("locations_t", dict(start_lat=1.0, end_long=2.0,
                                               description_from="")),
            PollutionStation: ("locations_p", dict(lat=1.0, description="")),
        }[type(entry)]
        loc = store.upsert_location(entry)
        assert self._row(store, table) == (loc, *row)
        # The update path writes the same columns.
        assert store.upsert_location(dataclasses.replace(entry, **stale)) == loc
        assert self._row(store, table) != (loc, *row)
        assert store.upsert_location(entry) == loc
        assert self._row(store, table) == (loc, *row)


class TestQueries:
    @pytest.fixture()
    def loaded(self, tiny_store):
        for hour, temp in ((8, 20.0), (9, 21.5), (10, None)):
            tiny_store.insert_record(w_rec(
                ts=datetime(2016, 5, 16, hour), temp=temp,
                wdire="N" if hour == 8 else None))
            tiny_store.insert_record(w_rec(
                ts=datetime(2016, 5, 16, hour), station="apt_one",
                temp=temp + 5 if temp is not None else None))
        return tiny_store

    def test_rows_ordered_by_location_then_time(self, loaded):
        ids = loaded.location_ids("locations_w")
        res = loaded.query_attribute(
            "weathers", ["temp"], list(ids.values()),
            datetime(2016, 5, 16), datetime(2016, 5, 17))
        assert len(res) == 6
        keys = [(r[1], r[0]) for r in res.rows]
        assert keys == sorted(keys)
        assert res.columns == ("timestamp", "location", "temp")

    def test_range_is_inclusive(self, loaded):
        ids = loaded.location_ids("locations_w")
        res = loaded.query_attribute(
            "weathers", ["temp"], [ids["pws_one"]],
            datetime(2016, 5, 16, 8), datetime(2016, 5, 16, 10))
        assert [r[0] for r in res.rows] == [
            "2016-05-16 08:00:00", "2016-05-16 09:00:00", "2016-05-16 10:00:00"]

    def test_na_comes_back_as_none(self, loaded):
        ids = loaded.location_ids("locations_w")
        res = loaded.query_attribute(
            "weathers", ["temp", "wdire"], [ids["pws_one"]],
            datetime(2016, 5, 16, 10), datetime(2016, 5, 16, 10))
        assert res.rows[0][2] is None      # temp was NA
        assert res.rows[0][3] is None      # no direction code either

    def test_code_attribute_resolves(self, loaded):
        ids = loaded.location_ids("locations_w")
        res = loaded.query_attribute(
            "weathers", ["wdire"], [ids["pws_one"]],
            datetime(2016, 5, 16, 8), datetime(2016, 5, 16, 8))
        assert res.rows[0][2] == "N"

    def test_duplicate_attribute_allowed(self, loaded):
        ids = loaded.location_ids("locations_w")
        res = loaded.query_attribute(
            "weathers", ["wdire", "wdire"], [ids["pws_one"]],
            datetime(2016, 5, 16, 8), datetime(2016, 5, 16, 8))
        assert res.rows[0][2] == res.rows[0][3] == "N"

    def test_empty_location_list(self, loaded):
        res = loaded.query_attribute("weathers", ["temp"], [],
                                     datetime(2016, 1, 1), datetime(2017, 1, 1))
        assert res.rows == ()

    def test_unknown_location_id_contributes_nothing(self, loaded):
        res = loaded.query_attribute("weathers", ["temp"], [9999],
                                     datetime(2016, 1, 1), datetime(2017, 1, 1))
        assert res.rows == ()

    def test_bad_queries(self, loaded):
        with pytest.raises(QueryError, match="no attribute"):
            loaded.query_attribute("weathers", ["speed"], [1],
                                   datetime(2016, 1, 1), datetime(2017, 1, 1))
        with pytest.raises(QueryError, match="at least one"):
            loaded.query_attribute("weathers", [], [1],
                                   datetime(2016, 1, 1), datetime(2017, 1, 1))
        with pytest.raises(QueryError, match="after end"):
            loaded.query_attribute("weathers", ["temp"], [1],
                                   datetime(2017, 1, 1), datetime(2016, 1, 1))
        with pytest.raises(QueryError, match="unknown record table"):
            loaded.query_attribute("noise", ["db"], [1],
                                   datetime(2016, 1, 1), datetime(2017, 1, 1))

    @pytest.mark.parametrize("start_tz, end_tz", [
        (timezone.utc, timezone.utc), (None, timezone(timedelta(hours=-6))),
        (timezone.utc, None)], ids=["both", "end", "start"])
    def test_bound_with_a_time_zone_refused(self, loaded, start_tz, end_tz):
        # Stored text is naive local time: an offset has no row to match.
        start = datetime(2016, 5, 16, 8, tzinfo=start_tz)
        end = datetime(2016, 5, 16, 10, tzinfo=end_tz)
        with pytest.raises(QueryError, match="carries a time zone"):
            loaded.query_attribute("weathers", ["temp"], [1], start, end)

    def test_fetch_record_missing_is_none(self, loaded):
        assert loaded.fetch_record("weathers", 1, datetime(1999, 1, 1)) is None

    def test_table_aliases(self):
        assert resolve_table("weather") == "weathers"
        assert resolve_table("Pollution") == "pollutions"
        with pytest.raises(QueryError):
            resolve_table("wthr")

    def test_queryable_attributes(self):
        attrs = queryable_attributes("weathers")
        assert "temp" in attrs and "wdire" in attrs and "time_zone" in attrs
        assert queryable_attributes("pollutions") == CONTAMINANTS


def _natural_key_index(conn, table: str) -> str:
    """The name of the index SQLite made for a table's UNIQUE clause."""
    (name,) = [r[1] for r in conn.execute(f"PRAGMA index_list({table})")
               if r[3] == "u"]
    return name


class TestQueryPlan:
    """A query reads one natural-key index range per location, already
    in output order: SQLite sorts nothing. An export is one such
    statement over every location."""

    @pytest.fixture()
    def path(self, tmp_path, default_cfg):
        path = tmp_path / "plan.db"
        with Store(path) as s:
            bootstrap_store(s, default_cfg)
        return path

    @pytest.mark.parametrize("table", RECORD_TABLES)
    def test_one_index_range_per_location_and_no_sort(
            self, path, tmp_path, monkeypatch, table):
        # Every statement SQLite runs, with its arguments bound into the
        # text; a streamed read need not pass through Store._execute.
        statements = []
        connect = sqlite3.connect

        def tracing(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            return conn

        monkeypatch.setattr(sqlite3, "connect", tracing)
        with Store(path) as s:
            ids = sorted(s.location_ids(LOCATION_CATALOG[table]).values())
            attrs = queryable_attributes(table)
            for locs in (ids[:1], ids[:3]):
                s.query_attribute(table, attrs, locs, T0, T0 + timedelta(days=2))
        assert main(["export", table, "--store", str(path),
                     "--csv", str(tmp_path / "all.csv")]) == 0
        seen = [sql for sql in statements if f" FROM {table} t " in sql]
        # The export reads every location of the table in one statement.
        assert len(ids) > 3 and len(seen) == 3
        assert f" IN ({', '.join(map(str, ids))}) " in seen[2]

        ts_col, loc_col = TABLE_COLUMNS[table][1], TABLE_COLUMNS[table][-1]
        with Store(path) as s:
            index = _natural_key_index(s._conn, table)
            for sql in seen:
                plan = [r[-1] for r in s._conn.execute("EXPLAIN QUERY PLAN " + sql)]
                assert any(f"{index} ({loc_col}=? AND {ts_col}>" in step
                           for step in plan), plan
                assert not any("USE TEMP B-TREE FOR ORDER BY" in step
                               for step in plan), plan


class TestSummary:
    def test_counts_match_brute_force(self, tiny_store):
        # spread records over two calendar months with known NA holes
        for day, temp, hum in ((datetime(2016, 5, 1, 8), 20.0, 50.0),
                               (datetime(2016, 5, 2, 8), None, 55.0),
                               (datetime(2016, 6, 1, 8), 22.0, None)):
            tiny_store.insert_record(w_rec(ts=day, temp=temp, hum=hum))
        tiny_store.insert_record(t_rec(ts=datetime(2016, 5, 1, 8)))
        tiny_store.insert_record(p_rec(ts=datetime(2016, 5, 1, 8), pm10=45))
        rows = {(r.table, r.column): r for r in tiny_store.summarize_nonempty()}

        assert rows[("weathers", "temp")].nonempty == 2
        assert rows[("weathers", "hum")].nonempty == 2
        assert rows[("weathers", "wdird")].nonempty == 0
        # weathers span May and June: 2 months
        assert rows[("weathers", "temp")].monthly_avg == 1.0
        # traffics span only May
        assert rows[("traffics", "traveldist")].monthly_avg == 1.0
        assert rows[("pollutions", "pm10")].nonempty == 1
        assert rows[("pollutions", "pm25")].nonempty == 0

    def test_one_select_per_record_table(self, tiny_store):
        tiny_store.insert_record(w_rec(temp=20.0))
        statements = []
        tiny_store._conn.set_trace_callback(statements.append)
        try:
            tiny_store.summarize_nonempty()
        finally:
            tiny_store._conn.set_trace_callback(None)
        selects = [s for s in statements if s.lstrip().upper().startswith("SELECT")]
        assert len(selects) == 3

    def test_empty_store_reports_zero(self, tiny_store):
        for row in tiny_store.summarize_nonempty():
            assert row.nonempty == 0 and row.monthly_avg == 0.0

    def test_covers_every_report_column(self, tiny_store):
        rows = tiny_store.summarize_nonempty()
        assert len(rows) == sum(len(cols) for cols in REPORT_COLUMNS.values())
        assert len(REPORT_COLUMNS["weathers"]) == 22
        assert len(REPORT_COLUMNS["traffics"]) == 3
        assert len(REPORT_COLUMNS["pollutions"]) == 6


class TestIntegrity:
    def test_clean_store_has_no_violations(self, tiny_store):
        tiny_store.insert_record(w_rec(temp=20.0, tz="CST", wdire="N"))
        tiny_store.insert_record(t_rec())
        assert tiny_store.referential_violations() == []

    def test_dangling_pointer_detected(self, tiny_store):
        # bypass enforcement to simulate a copy restored without its catalogs
        tiny_store._conn.execute("PRAGMA foreign_keys = OFF")
        tiny_store._conn.execute(
            "INSERT INTO weathers (timestamp_w, id_locations_w)"
            " VALUES ('2016-05-16 08:00:00', 999)")
        tiny_store._conn.commit()
        problems = tiny_store.referential_violations()
        assert problems and "weathers.id_locations_w" in problems[0]

    def test_each_dangling_column_counted_location_first(self, tiny_store):
        tiny_store.insert_record(w_rec(tz="CST", cond="Clear"))
        tiny_store._conn.execute("PRAGMA foreign_keys = OFF")
        for ts, loc, tz, cond in [("09", 999, 1, 1), ("10", 1, 99, 98),
                                  ("11", 1, None, 98), ("12", 999, 99, 98)]:
            tiny_store._conn.execute(
                "INSERT INTO weathers (timestamp_w, id_locations_w, id_time_zone,"
                " id_cond) VALUES (?, ?, ?, ?)", (f"2016-05-16 {ts}:00:00", loc, tz, cond))
        tiny_store._conn.execute(
            "INSERT INTO traffics (timestamp_t, traveldist, traveltime_std,"
            " traveltime_curr, id_locations_t) VALUES ('2016-05-16 08:00:00', 1, 1, 1, 7)")
        tiny_store._conn.commit()
        assert tiny_store.referential_violations() == [
            "weathers.id_locations_w: 2 rows point nowhere",
            "weathers.id_time_zone: 2 rows point nowhere",
            "weathers.id_cond: 3 rows point nowhere",
            "traffics.id_locations_t: 1 rows point nowhere",
        ]


class TestCsv:
    @pytest.fixture()
    def result(self, tiny_store):
        tiny_store.insert_record(w_rec(temp=21.4, wdire="SSW", metar=None))
        tiny_store.insert_record(w_rec(ts=datetime(2016, 5, 16, 9), temp=None))
        ids = tiny_store.location_ids("locations_w")
        return tiny_store.query_attribute(
            "weathers", ["temp", "wdire"], [ids["pws_one"]],
            datetime(2016, 5, 16), datetime(2016, 5, 17))

    def test_export_shape(self, result):
        text = export_csv(result)
        lines = text.splitlines()
        assert lines[0] == "timestamp,location,temp,wdire"
        assert len(lines) == 3
        assert lines[2].endswith(",,")  # NA exports as the empty cell

    def test_round_trip(self, result):
        back = import_csv(export_csv(result), "weathers")
        assert back == QueryResult(kind="weathers", columns=result.columns,
                                   rows=result.rows)

    def test_export_to_file(self, result, tmp_path):
        dest = tmp_path / "out.csv"
        assert export_csv(result, dest) is None
        assert dest.read_text() == export_csv(result)

    def test_export_iterates_rows_once_into_the_file(self, result, tmp_path):
        dest = tmp_path / "out.csv"
        streamed = dataclasses.replace(result, rows=iter(result.rows))
        export_csv(streamed, dest)
        assert dest.read_text() == export_csv(result)

    def test_header_only_round_trip(self):
        empty = QueryResult(kind="traffics",
                            columns=("timestamp", "location", "traveldist"),
                            rows=())
        back = import_csv(export_csv(empty), "traffics")
        assert back.rows == ()

    def test_import_rejects_foreign_columns(self):
        with pytest.raises(QueryError, match="not a traffics attribute"):
            import_csv("timestamp,location,temp\n", "traffics")

    @pytest.mark.parametrize("text", [
        "temp\n20.5\n", "location,timestamp,temp\n1,2016-05-16 08:00:00,20.5\n",
        "timestamp,temp\n2016-05-16 08:00:00,20.5\n", "\n", "Timestamp,location\n",
    ], ids=["no key", "key swapped", "no location", "blank", "case"])
    def test_import_requires_the_key_columns_first(self, text):
        # Every export begins timestamp,location; without them no row
        # could be stored again.
        with pytest.raises(QueryError, match=r"^CSV line 1: header does not begin "
                                             r"timestamp,location$"):
            import_csv(text, "weathers")

    def test_import_refuses_key_columns_twice(self):
        with pytest.raises(QueryError, match="'location' is not a weathers attribute"):
            import_csv("timestamp,location,location\n", "weathers")

    def test_import_rejects_ragged_rows(self):
        text = "timestamp,location,traveldist\n2016-05-16 08:00:00,1\n"
        with pytest.raises(QueryError, match="cells"):
            import_csv(text, "traffics")

    def test_import_rejects_empty_text(self):
        with pytest.raises(QueryError, match="header"):
            import_csv("", "traffics")

    def test_import_restores_types(self, tiny_store):
        tiny_store.insert_record(p_rec(pm10=45, o3=None))
        ids = tiny_store.location_ids("locations_p")
        res = tiny_store.query_attribute(
            "pollutions", ["pm10", "o3"], [ids["sima_test"]],
            datetime(2016, 5, 16), datetime(2016, 5, 17))
        back = import_csv(export_csv(res), "pollutions")
        row = back.rows[0]
        assert row[2] == 45 and isinstance(row[2], int)
        assert row[3] is None

    @pytest.mark.parametrize("body, reason", [
        ("2016-05-16 08:00:00,1,abc,0,M\n", "could not convert string to float: 'abc'"),
        ("2016-05-16 08:00:00,x,1.5,0,M\n", "invalid literal for int() with base 10: 'x'"),
        ("2016-05-16 08:00:00,1,1.5,0," + "M" * 131_073 + "\n",
         "field larger than field limit"),
        # Python 3.11's csv writer quotes only the line terminator's
        # characters, so export_csv writes a cell's "\r" like this.
        ("2016-05-16 08:00:00,1,1.5,0,a\rb\n", "new-line character seen in unquoted field"),
        # A row no store can hold: its natural key is missing.
        (",,1.5,0,M\n", "timestamp cell is empty"),
        ('"",1,1.5,0,M\n', "timestamp cell is empty"),
        ("2016-05-16 08:00:00,,1.5,0,M\n", "location cell is empty"),
        # Timestamp text that no store writes.
        *((f"{ts},1,1.5,0,M\n", f"timestamp {ts!r} is not YYYY-MM-DD HH:MM:SS text")
          for ts in ("2016-13-45 99:00:00", "2016-05-16T08:00:00", "2016-5-16 08:00:00",
                     "2016-05-16 08:00:00.500000", "2016-05-16 08:00:00+00:00",
                     "999-06-01 02:00:00", "2016-05-16", " 2016-05-16 08:00:00")),
    ], ids=["float cell", "location", "long field", "bare carriage return",
            "empty key", "empty quoted timestamp", "empty location",
            "month 13", "T separator", "unpadded", "fraction", "zoned",
            "three-digit year", "date only", "leading space"])
    def test_import_names_the_line_of_a_bad_cell(self, body, reason):
        text = "timestamp,location,temp,fog,metar\n2016-05-16 07:00:00,1,,,\n" + body
        with pytest.raises(QueryError, match=r"^CSV line 3: ") as err:
            import_csv(text, "weathers")
        assert reason in str(err.value)


def _stored_timestamp_text(v: str) -> str:
    """A timestamp cell the store could have written: strptime's four-digit
    year, no fraction or zone, and its own isoformat text."""
    try:
        ok = datetime.strptime(v, "%Y-%m-%d %H:%M:%S").isoformat(" ") == v
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"timestamp {v!r} is not YYYY-MM-DD HH:MM:SS text")
    return v


def _reference_import_csv(text: str, table: str) -> QueryResult:
    """import_csv written plainly: a StringIO copy of the text, one conversion per cell."""
    table = resolve_table(table)
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise QueryError("CSV is empty, expected a header row")
    if header[:2] != ("timestamp", "location"):
        raise ValueError("header does not begin timestamp,location")
    cell_type = {attr: spec[2] for attr, spec in _ATTRS[table].items()}
    for col in header[2:]:
        if col not in cell_type:
            raise QueryError(f"CSV column {col!r} is not a {table} attribute")
    types = [_stored_timestamp_text, int, *(cell_type[col] for col in header[2:])]

    def value(col, f, v):
        if v == "" and col in ("timestamp", "location"):
            raise ValueError(f"{col} cell is empty")
        return None if v == "" else f(v)

    rows = []
    for row in reader:
        if len(row) != len(header):
            raise QueryError(
                f"CSV row has {len(row)} cells, header has {len(header)}")
        rows.append(tuple(map(value, header, types, row)))
    return QueryResult(kind=table, columns=header, rows=tuple(rows))


def _outcome(parse, text):
    """What parsing gives: the rows with every cell as its repr (NaN
    included), or the error. A reference error other than QueryError
    comes back from import_csv as a QueryError naming its line."""
    try:
        got = parse(text, "weathers")
    except QueryError as exc:
        return "QueryError", str(exc)
    except (ValueError, csv.Error) as exc:
        return "leaked", str(exc)
    return got.kind, got.columns, [tuple(map(repr, row)) for row in got.rows]


# Each is a line break to str.splitlines() but not to io.StringIO.
_SPLITLINES_ONLY = "\x0b\x0c\x1c\x85\u2028"
_HEADER = "timestamp,location,temp,fog,metar"
# Text cells with and without the characters csv treats specially.
_TEXT = st.one_of(*(st.text(alphabet=st.sampled_from(chars + _SPLITLINES_ONLY), max_size=6)
                    for chars in ("a1", 'a1,"\n\r')))
_INT = st.sampled_from(["", "1", " 7", "-3", "x"])
_TIMESTAMP = st.one_of(_TEXT, st.sampled_from([
    "2016-05-16 08:00:00", "0999-06-01 02:00:00",
    "2016-02-30 08:00:00", "2016-05-16T08:00:00", "2016-05-16 08:00:00.500000",
    "2016-05-16 08:00:00+00:00", "2016-05-16"]))
_CELLS = {"timestamp": _TIMESTAMP, "location": _INT, "fog": _INT, "metar": _TEXT,
          "temp": st.sampled_from(["", "1.5", "-0.0", "nan", "1e5", "abc"])}


@st.composite
def _csv_texts(draw):
    header = draw(st.sampled_from([_HEADER, _HEADER, "timestamp,location,metar",
                                   "timestamp,bogus", "location,timestamp,temp",
                                   "timestamp,location,location"])).split(",")
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        row = [draw(_CELLS.get(col, _TEXT)) for col in header]
        if draw(st.integers(0, 9)) == 0:
            row.pop()  # a short row
        lines.append(",".join('"' + c.replace('"', '""') + '"' if draw(st.booleans())
                              else c for c in row))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


class TestImportMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(text=_csv_texts())
    @example(text=_HEADER + '\n2016-05-16 08:00:00,1,1.5,0,"two\nlines"\n')
    @example(text=_HEADER + "\r\n2016-05-16 08:00:00,1,nan,1,M\r\n")
    @example(text=_HEADER + "\n" + "".join(
        f'2016-05-16 08:00:00,1,,,a{c}b\n2016-05-16 09:00:00,1,,,"a{c}b"\n'
        for c in _SPLITLINES_ONLY))
    @example(text=_HEADER + "\n2016-05-16 08:00:00,1,nan,0,M")
    @example(text=_HEADER + "\n")
    @example(text="")
    @example(text=_HEADER + "\n2016-05-16 08:00:00,1,1.5,0,M\n\n")
    @example(text=_HEADER + "\n2016-05-16 08:00:00,1,1.5\n")
    def test_same_rows_or_error(self, text):
        want, got = _outcome(_reference_import_csv, text), _outcome(import_csv, text)
        if want[0] == "leaked":
            assert got[0] == "QueryError" and got[1].startswith("CSV line ")
            assert got[1].endswith(f": {want[1]}")
        else:
            assert got == want



_BOUNDED = {"hum": st.floats(0, 100), "wdird": st.floats(0, 360),
            **dict.fromkeys(("wspd", "wgust", "preciprate", "preciptotal",
                             "solarradiation", "uv", "vis", "precip"),
                            st.floats(min_value=0))}
# Texts with the characters csv treats specially, the ones WeatherRecord
# refuses ("\r", "\n", NUL), any others, and texts at and past its
# length limit (one past csv's 131,072-character field limit).
_RECORD_TEXT = (st.none() | st.text(st.sampled_from(
    'a ,"\'\r\n\x00\t\x0b\x85\u2028\ufeff\xe9'), max_size=5) | st.text(max_size=5)
    | st.sampled_from(["M" * 4096, "M" * 4097, "M" * 140_000]))


@st.composite
def _weather_records(draw):
    """A WeatherRecord, or None where the type refuses the drawn values."""
    fields = {a: draw(st.none() | _BOUNDED.get(a, st.floats()))
              for a in WEATHER_NUMERIC_ATTRIBUTES}
    fields.update({a: draw(st.sampled_from([None, 0, 1])) for a in WEATHER_FLAG_ATTRIBUTES})
    fields.update({a: draw(_RECORD_TEXT) for a in ("tz", "cond", "icon", "metar")})
    fields["wdire"] = draw(st.sampled_from([None, *COMPASS_CODES]))
    ts = draw(st.datetimes(datetime.min, datetime.max))
    try:
        return WeatherRecord(timestamp=ts.replace(microsecond=0),
                             station=draw(st.sampled_from(["pws_one", "apt_one"])),
                             **fields)
    except OutOfRangeError:
        return None


class TestCsvRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(_weather_records(), max_size=6))
    def test_every_stored_record_re_imports(self, tiny_cfg, records):
        """For records that insert_record accepts, an export of their
        query re-imports as that query, on every supported Python."""
        with Store() as s:
            bootstrap_store(s, tiny_cfg)
            for rec in filter(None, records):
                for attr, codes in (("tz", "time_zones"), ("cond", "conds"),
                                    ("icon", "icons")):
                    if getattr(rec, attr) is not None:
                        s.seed_lookup(codes, [Lookup(getattr(rec, attr))])
                s.insert_record(rec)
            q = s.query_attribute("weathers", queryable_attributes("weathers"),
                                  list(s.location_ids("locations_w").values()),
                                  datetime.min, datetime.max)
        assert import_csv(export_csv(q), "weathers") == q

# The record tables as stores created before the natural key led with
# the location declare them: UNIQUE (timestamp, location).
_TIMESTAMP_FIRST_DDL = {
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


def _key_columns(conn, table: str) -> list[str]:
    index = _natural_key_index(conn, table)
    return [r[2] for r in conn.execute(f"PRAGMA index_info({index})")]


class TestTimestampFirstStore:
    """A store created with the (timestamp, location) key opens without
    a migration, keeps its key, answers byte for byte what a new store
    answers and counts the same duplicates on a replay."""

    DAY = date(2016, 5, 16)

    @staticmethod
    def _record_ddl(path) -> dict[str, str]:
        conn = sqlite3.connect(path)
        try:
            return {t: conn.execute("SELECT sql FROM sqlite_master WHERE name = ?",
                                    (t,)).fetchone()[0]
                    for t in RECORD_TABLES}
        finally:
            conn.close()

    def _collect(self, path, cfg) -> list:
        """init, then the day and its replay; the two day summaries."""
        plan = build_plan(cfg.windows, cfg.routes, self.DAY)
        with Store(path) as s:
            bootstrap_store(s, cfg)
            return [run_day(plan, SynthSource(cfg.profile), s, cfg)
                    for _ in range(2)]

    @staticmethod
    def _answers(path, out_dir, capsys) -> list:
        """stdout of a set of read commands, and the CSV files they wrote."""
        commands = [
            ["query", "weathers", "--attrs", "temp,wdire,cond,metar",
             "--from", "2016-05-16 06:00:00", "--to", "2016-05-16 20:00:00"],
            ["query", "traffics", "--attrs", "traveltime_curr", "--loc", "2,1"],
            ["query", "pollutions", "--attrs", "pm10,o3", "--loc", "sima_test",
             "--to", "2016-05-16"],
            ["report"],
            *(["export", t, "--csv", str(out_dir / f"{t}.csv")]
              for t in RECORD_TABLES),
        ]
        got = []
        for argv in commands:
            assert main([*argv, "--store", str(path)]) == 0
            got.append(capsys.readouterr().out.replace(str(out_dir), "DIR"))
        got += [(out_dir / f"{t}.csv").read_bytes() for t in RECORD_TABLES]
        return got

    def test_same_answers_as_a_new_store(self, tmp_path, tiny_cfg, capsys):
        old, new = tmp_path / "old.db", tmp_path / "new.db"
        conn = sqlite3.connect(old)
        for sql in _TIMESTAMP_FIRST_DDL.values():
            conn.execute(sql)
        conn.commit()
        conn.close()
        created = self._record_ddl(old)
        old_days = self._collect(old, tiny_cfg)  # init raises no MigrationRequired
        new_days = self._collect(new, tiny_cfg)

        assert self._record_ddl(old) == created
        with Store(old) as s_old, Store(new) as s_new:
            for t in RECORD_TABLES:
                ts_col, loc_col = TABLE_COLUMNS[t][1], TABLE_COLUMNS[t][-1]
                assert _key_columns(s_old._conn, t) == [ts_col, loc_col]
                assert _key_columns(s_new._conn, t) == [loc_col, ts_col]
            assert s_old.all_counts() == s_new.all_counts()

        fresh, replay = old_days
        assert [d.line() for d in old_days] == [d.line() for d in new_days]
        assert fresh.stored > 0 and fresh.failures == []
        assert replay.stored == 0 and replay.duplicates == fresh.stored

        old_out, new_out = tmp_path / "old_out", tmp_path / "new_out"
        old_out.mkdir()
        new_out.mkdir()
        assert (self._answers(old, old_out, capsys)
                == self._answers(new, new_out, capsys))


class TestPerLocationExportBytes:
    """``export`` and ``query --csv`` stream one statement and write the
    bytes that one materialised ``query_attribute`` call over the same
    ids gives, on a store of either key order."""

    ALL_TIME = (datetime(1000, 1, 1), datetime(9999, 12, 31, 23, 59, 59))
    WINDOWS = {
        "all": ([], ALL_TIME),
        "from-to": (["--from", "2016-05-15 06:30:00", "--to", "2016-05-16"],
                    (datetime(2016, 5, 15, 6, 30), datetime(2016, 5, 16, 23, 59, 59))),
        "from": (["--from", "2016-05-16 07:00:00"], (datetime(2016, 5, 16, 7), ALL_TIME[1])),
    }

    @pytest.fixture(scope="class", params=["location_first", "timestamp_first"])
    def path(self, request, tmp_path_factory, tiny_cfg):
        path = tmp_path_factory.mktemp(request.param) / "obs.db"
        if request.param == "timestamp_first":
            conn = sqlite3.connect(path)
            for sql in _TIMESTAMP_FIRST_DDL.values():
                conn.execute(sql)
            conn.commit()
            conn.close()
        with Store(path) as s:
            bootstrap_store(s, tiny_cfg)
            for day in (date(2016, 5, 16), date(2016, 5, 17)):
                run_day(build_plan(tiny_cfg.windows, tiny_cfg.routes, day),
                        SynthSource(tiny_cfg.profile), s, tiny_cfg)
        return path

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("loc", [None, "2,1", "1,2,1,1", "1,99", ""],
                             ids=["every", "unsorted", "duplicated", "unknown", "empty"])
    @pytest.mark.parametrize("table", RECORD_TABLES)
    def test_same_bytes_as_one_call(self, path, tmp_path, capsys, table, loc, window):
        flags, (start, end) = self.WINDOWS[window]
        attrs = queryable_attributes(table)
        with Store(path) as s:
            ids = (sorted(s.location_ids(LOCATION_CATALOG[table]).values())
                   if loc is None else [int(t) for t in loc.split(",") if t])
            whole = s.query_attribute(table, attrs, ids, start, end)
            some = s.query_attribute(table, attrs[::-1][:3], ids, start, end)
        if loc is None:
            assert whole.rows  # every table holds rows
        loc_flags = [] if loc is None else ["--loc", loc]
        for argv, want in (
                (["export", table], whole),
                (["query", table, "--attrs", ",".join(attrs[::-1][:3])], some)):
            dest, ref = tmp_path / "got.csv", tmp_path / "want.csv"
            assert main([*argv, *loc_flags, *flags, "--store", str(path),
                         "--csv", str(dest)]) == 0
            assert capsys.readouterr().out == f"wrote {len(want)} rows to {dest}\n"
            ref.write_text(export_csv(want))
            assert dest.read_bytes() == ref.read_bytes()
