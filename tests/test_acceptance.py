"""End-to-end acceptance gate.

One test per shipping criterion, each with a pinned runtime budget and
a single printed PASS line (visible with pytest -s; the test name
itself carries the verdict in -v output). These tests treat the
package as a black box wherever possible: expected values come from
independent oracles coded here, not from the implementation.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from datetime import date, datetime, time as dtime, timedelta
from pathlib import Path
from types import SimpleNamespace

import pytest

from urbanobs.cli import bootstrap_store
from urbanobs.connectors import (
    RawReading,
    SourcePayload,
    assemble_station_day,
    parse_pollution_tables,
    parse_traffic_response,
    parse_weather_observations,
    pollution_payload_body,
    traffic_payload_body,
    weather_payload_body,
)
from urbanobs.errors import OutOfRangeError, RecordRejected
from urbanobs.model import (
    CONTAMINANTS,
    WEATHER_FLAG_ATTRIBUTES,
    WEATHER_NUMERIC_ATTRIBUTES,
    GeoPoint,
    classify_imeca,
    enumerate_routes,
)
from urbanobs.scheduler import TRAFFIC_POLL, build_plan, run_day
from urbanobs.storage import (
    REPORT_COLUMNS,
    TABLE_COLUMNS,
    Store,
    export_csv,
    import_csv,
)
from urbanobs.synth import SynthSource, gen_pollution_day, gen_weather_day
from urbanobs.validation import RuleSet, validate_pollution, validate_weather

FIXTURES = Path(__file__).parent / "fixtures"
RULES = RuleSet.defaults()


def _report(n: int, elapsed: float, budget: float, text: str) -> None:
    assert elapsed <= budget, (
        f"criterion {n} took {elapsed:.2f}s, budget {budget:.0f}s")
    print(f"ACCEPTANCE {n} PASS ({elapsed:.2f}s <= {budget:.0f}s): {text}")


# -- 1: route enumeration ----------------------------------------------------

def test_criterion_1_route_enumeration(default_cfg):
    t0 = time.perf_counter()

    assert len(default_cfg.points) == 7
    routes = default_cfg.routes
    assert len(routes) == 42

    # brute-force oracle: every ordered pair, lexicographic by names
    for n in range(2, 11):
        points = tuple(GeoPoint(name=f"p{i:02d}", lat=float(i), long=-float(i))
                       for i in range(n))
        got = enumerate_routes(points)
        want = sorted((a.name, b.name)
                      for a, b in itertools.permutations(points, 2))
        assert len(got) == n * (n - 1)
        assert [(r.file_id) for r in got] == [f"{a}-{b}" for a, b in want]
        assert len({r.file_id for r in got}) == len(got)
        assert enumerate_routes(points) == got  # stable

    # endpoints carry the points' coordinates verbatim
    by_id = {r.file_id: r for r in routes}
    names = {p.name: p for p in default_cfg.points}
    for r in routes:
        a, b = r.file_id.split("-", 1)
        assert (r.start_lat, r.start_long) == (names[a].lat, names[a].long)
        assert (r.end_lat, r.end_long) == (names[b].lat, names[b].long)
    assert "aeropuerto-santa_catarina" in by_id

    _report(1, time.perf_counter() - t0, 1.0,
            "7 points -> 42 ordered routes; brute-force match for n=2..10")


# -- 2: air-quality classification -------------------------------------------

_ORACLE_BANDS = (
    (0, 50, "GOOD"),
    (51, 100, "REGULAR"),
    (101, 150, "BAD"),
    (151, 200, "VERY_BAD"),
    (201, 500, "EXTREMELY_BAD"),
)


def test_criterion_2_imeca_classification():
    t0 = time.perf_counter()

    for v in range(0, 501):
        want = next(name for lo, hi, name in _ORACLE_BANDS if lo <= v <= hi)
        assert classify_imeca(v).name == want, v

    for lo, hi, name in _ORACLE_BANDS:
        assert classify_imeca(lo).name == name
        assert classify_imeca(hi).name == name

    for bad in (-1, 501, 10**9, -(10**9)):
        with pytest.raises(OutOfRangeError):
            classify_imeca(bad)
    for not_an_index in (40.5, 50.0, "40", None, True, False):
        with pytest.raises(OutOfRangeError):
            classify_imeca(not_an_index)

    severities = [classify_imeca(lo).severity for lo, _, _ in _ORACLE_BANDS]
    assert severities == sorted(severities)
    assert len(set(severities)) == 5

    _report(2, time.perf_counter() - t0, 1.0,
            "all 501 scale values match the banded oracle; "
            "off-scale and non-integer inputs refused")


# -- 3: validation with NA substitution ---------------------------------------

_WEATHER_FUZZ_ATTRS = (WEATHER_NUMERIC_ATTRIBUTES + WEATHER_FLAG_ATTRIBUTES
                       + ("wdire", "cond"))
_TEXT_POOL = (
    "0", "1", "25", "45", "99", "100", "360", "500",
    "-30", "-60", "55", "70", "16", "50",
    "-31", "361", "501", "201", "1101", "9999", "-9999",
    "21.4", "0.5", "100.001", "-0.001",
    "junk", "n/a", "", "NaN", "inf", "-inf", "1e2", "0x10",
    "N", "SSW", "XXX", "Clear",
)


def _fuzz_weather(rng: random.Random) -> dict[str, str]:
    return {a: rng.choice(_TEXT_POOL)
            for a in rng.sample(_WEATHER_FUZZ_ATTRS, rng.randint(0, 8))}


def _fuzz_pollution(rng: random.Random) -> dict[str, str]:
    return {c: rng.choice(_TEXT_POOL)
            for c in rng.sample(CONTAMINANTS, rng.randint(0, 6))}


def _weather_raw(fields) -> RawReading:
    return RawReading(kind="weather", target="apt_x",
                      timestamp="2016-05-16T08:00:00", fields=fields,
                      origin="fuzz", station_kind="airport")


def test_criterion_3_validation_na_substitution():
    t0 = time.perf_counter()

    # the named example: a compass bearing of 365 degrees becomes NA
    # and the substitution is reported against its rule
    record, report = validate_weather(
        _weather_raw({"wdird": "365", "temp": "21.0"}), RULES)
    assert record.wdird is None and record.temp == 21.0
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.attribute == "wdird" and entry.value == "365"
    assert entry.rule == "weathers.wdird 0 360"

    rng = random.Random(20160516)
    checked = 0

    validated = set(_WEATHER_FUZZ_ATTRS)
    for _ in range(5000):
        fields = _fuzz_weather(rng)
        rec, rep = validate_weather(_weather_raw(fields), RULES)
        reported = [e.attribute for e in rep.entries]
        assert len(reported) == len(set(reported))
        # conservation: each supplied field survives xor is reported
        for attr in fields:
            assert (getattr(rec, attr) is not None) != (attr in reported)
        # completeness: NA growth equals the report length
        na_clean = sum(1 for a in validated if getattr(rec, a) is None)
        na_raw = sum(1 for a in validated if a not in fields)
        assert na_clean - na_raw == len(rep.entries)
        # idempotence: re-validating the cleaned values changes nothing
        clean = {a: str(getattr(rec, a)) for a in fields
                 if getattr(rec, a) is not None}
        rec2, rep2 = validate_weather(_weather_raw(clean), RULES)
        assert rep2.clean
        assert all(getattr(rec2, a) == getattr(rec, a) for a in clean)
        checked += 1

    for _ in range(5000):
        fields = _fuzz_pollution(rng)
        raw = RawReading(kind="pollution", target="sima_x",
                         timestamp="2016-05-16T08:00:00", fields=fields,
                         origin="fuzz")
        rec, rep = validate_pollution(raw, RULES)
        reported = [e.attribute for e in rep.entries]
        for attr in fields:
            assert (getattr(rec, attr) is not None) != (attr in reported)
        na_clean = sum(1 for c in CONTAMINANTS if getattr(rec, c) is None)
        na_raw = sum(1 for c in CONTAMINANTS if c not in fields)
        assert na_clean - na_raw == len(rep.entries)
        for c in CONTAMINANTS:
            v = getattr(rec, c)
            assert v is None or (isinstance(v, int) and 0 <= v <= 500)
        checked += 1

    assert checked == 10000
    _report(3, time.perf_counter() - t0, 5.0,
            "bad fields become NA with one report entry each; "
            "10000 fuzzed candidates conserve and re-validate clean")


# -- 4: hourly pollution day shape --------------------------------------------

def test_criterion_4_pollution_day_shape(default_cfg):
    t0 = time.perf_counter()

    # oracle fixture captured by hand
    manifest = json.loads((FIXTURES / "manifest.json").read_text())
    want = manifest["pollution_day.txt"]
    payload = SourcePayload("pollution",
                            (FIXTURES / "pollution_day.txt").read_text(),
                            "pollution_day.txt")
    readings = parse_pollution_tables(payload)
    per_contaminant: dict[str, set] = {}
    for r in readings:
        hh = r.timestamp[11:13]
        assert hh not in ("00", "01")
        for c in r.fields:
            per_contaminant.setdefault(c, set()).add(hh)
    assert len({r.timestamp for r in readings}) == want["hours_per_contaminant"]

    # a generated day requested at 23:00 spans exactly 02:00..23:00
    station = default_cfg.pollution_stations[0]
    day = date(2016, 5, 16)
    synth = gen_pollution_day(default_cfg.profile, station, day,
                              request_hour=23)
    candidates = assemble_station_day(parse_pollution_tables(synth),
                                      station, day)
    assert len(candidates) == 22
    hours = [c.timestamp[11:16] for c in candidates]
    assert hours == [f"{h:02d}:00" for h in range(2, 24)]
    for raw in candidates:
        record, _ = validate_pollution(raw, RULES)
        assert record.timestamp.hour not in (0, 1)

    # records for the missing early hours cannot exist
    for hh in ("00", "01"):
        bad = RawReading(kind="pollution", target=station.file_id,
                         timestamp=f"2016-05-16T{hh}:00:00",
                         fields={"pm10": "45"}, origin="t")
        with pytest.raises(RecordRejected):
            validate_pollution(bad, RULES)

    _report(4, time.perf_counter() - t0, 1.0,
            "a day requested at 23:00 yields the 22-hour grid 02:00..23:00; "
            "hours 00 and 01 are impossible")


# -- 5 and 8 share one simulated week ------------------------------------------

WEEK_START = date(2016, 5, 16)


@pytest.fixture(scope="module")
def week(default_cfg):
    store = Store(":memory:")
    bootstrap_store(store, default_cfg)
    source = SynthSource(default_cfg.profile)
    plans, summaries = [], []
    t0 = time.perf_counter()
    for i in range(7):
        day = WEEK_START + timedelta(days=i)
        plan = build_plan(default_cfg.windows, default_cfg.routes, day)
        summaries.append(run_day(plan, source, store, default_cfg))
        plans.append(plan)
    elapsed = time.perf_counter() - t0
    yield SimpleNamespace(store=store, plans=plans, summaries=summaries,
                          elapsed=elapsed)
    store.close()


def test_criterion_5_simulated_week_counts(default_cfg, week):
    t0 = time.perf_counter()

    # plan-derived expectations, computed before looking at the store
    obs_per_day = sum(1440 // m.interval_min
                      for m in default_cfg.weather_stations)
    traffic_per_day = week.plans[0].count(TRAFFIC_POLL)
    per_route = traffic_per_day / len(default_cfg.routes)
    assert per_route == int(per_route)
    assert 56 <= per_route <= 62
    pollution_per_day = 22 * len(default_cfg.pollution_stations)

    for plan, summary in zip(week.plans, week.summaries):
        assert summary.fired == len(plan.entries)
        assert summary.skipped == 0
        assert summary.failures == []
        assert summary.rejected == 0
        assert summary.quarantined == 0

    counts = week.store.all_counts()
    assert counts["weathers"] == 7 * obs_per_day == 7 * 3576
    assert counts["traffics"] == 7 * traffic_per_day == 7 * 2436
    assert counts["pollutions"] == 7 * pollution_per_day == 7 * 220

    # stored traffic rows per route per day equal the cadence
    ids = week.store.location_ids("locations_t")
    day0 = datetime.combine(WEEK_START, dtime(0, 0))
    for loc in list(ids.values())[:5]:
        res = week.store.query_attribute(
            "traffics", ["traveldist"], [loc], day0,
            day0 + timedelta(hours=23, minutes=59, seconds=59))
        assert len(res) == per_route

    runtime = week.elapsed + (time.perf_counter() - t0)
    _report(5, runtime, 30.0,
            f"7 simulated days stored {counts['weathers']} weather, "
            f"{counts['traffics']} traffic, {counts['pollutions']} pollution "
            f"records, matching the plan exactly with zero failures")


# -- 6: corpus-scale query round trip ------------------------------------------

def test_criterion_6_query_round_trip(default_cfg):
    t0 = time.perf_counter()

    store = Store(":memory:")
    bootstrap_store(store, default_cfg)
    stations = default_cfg.pollution_stations
    assert len(stations) == 10

    inserted: dict[tuple[str, str], dict] = {}
    with store.deferred():
        for day_n in range(1, 31):
            day = date(2016, 1, day_n)
            for station in stations:
                payload = gen_pollution_day(default_cfg.profile, station, day)
                candidates = assemble_station_day(
                    parse_pollution_tables(payload), station, day)
                for raw in candidates:
                    record, _ = validate_pollution(raw, RULES)
                    assert store.insert_record(record) == "inserted"
                    key = (station.file_id,
                           record.timestamp.strftime("%Y-%m-%d %H:%M:%S"))
                    inserted[key] = {c: getattr(record, c)
                                     for c in CONTAMINANTS}
    assert len(inserted) == 6600

    ids = store.location_ids("locations_p")
    res = store.query_attribute(
        "pollutions", ["pm10"], sorted(ids.values()),
        datetime(2016, 1, 1), datetime(2016, 1, 31, 23, 59, 59))
    assert len(res) == 6600

    # every stored record survives a point query bit for bit
    id_to_file = {v: k for k, v in ids.items()}
    for (file_id, ts_text), want in inserted.items():
        got = store.fetch_record(
            "pollutions", ids[file_id],
            datetime.strptime(ts_text, "%Y-%m-%d %H:%M:%S"))
        assert got is not None
        assert {c: got[c] for c in CONTAMINANTS} == want
    del id_to_file
    store.close()

    _report(6, time.perf_counter() - t0, 10.0,
            "30-day x 10-station corpus answers a 6600-row range query and "
            "every record round-trips through a point query")


# -- 7: accounting report -------------------------------------------------------

def test_criterion_7_accounting_report(tiny_cfg):
    t0 = time.perf_counter()

    store = Store(":memory:")
    bootstrap_store(store, tiny_cfg)
    source = SynthSource(tiny_cfg.profile)
    # three collection days, one per calendar month
    for day in (date(2016, 3, 31), date(2016, 4, 30), date(2016, 5, 31)):
        plan = build_plan(tiny_cfg.windows, tiny_cfg.routes, day)
        summary = run_day(plan, source, store, tiny_cfg)
        assert summary.failures == []

    summary_rows = {(r.table, r.column): r for r in store.summarize_nonempty()}
    assert len(summary_rows) == 22 + 3 + 6

    # independent recount through the export path
    attr_for = {"id_wdire": "wdire"}
    for table, columns in REPORT_COLUMNS.items():
        ids = store.location_ids({"weathers": "locations_w",
                                  "traffics": "locations_t",
                                  "pollutions": "locations_p"}[table])
        attrs = [attr_for.get(c, c) for c in columns]
        res = store.query_attribute(
            table, attrs, sorted(ids.values()),
            datetime(2016, 1, 1), datetime(2016, 12, 31, 23, 59, 59))
        csv_lines = export_csv(res).splitlines()[1:]
        months = {line.split(",", 1)[0][:7] for line in csv_lines}
        for i, col in enumerate(columns):
            nonempty = sum(1 for line in csv_lines
                           if line.split(",")[2 + i] != "")
            row = summary_rows[(table, col)]
            assert row.nonempty == nonempty, (table, col)
            assert row.monthly_avg == pytest.approx(nonempty / len(months))
        assert len(months) == 3

    # the report keeps attributes nobody measured, at zero
    all_na = [r for r in summary_rows.values()
              if r.table == "weathers" and r.nonempty == 0]
    assert all_na, "expected at least one never-reported weather column"
    assert all(r.monthly_avg == 0.0 for r in all_na)

    store.close()
    _report(7, time.perf_counter() - t0, 10.0,
            "per-attribute non-empty counts and monthly averages match an "
            "independent recount over a three-month corpus")


# -- 8: schema shape and integrity ----------------------------------------------

def test_criterion_8_schema_integrity(default_cfg, week):
    t0 = time.perf_counter()

    names = {r[0] for r in week.store._conn.execute(
        "SELECT name FROM sqlite_master WHERE type='table'")}
    names.discard("sqlite_sequence")
    assert len(names) == 10
    assert names == set(TABLE_COLUMNS)

    assert week.store.referential_violations() == []

    # replaying a full day inserts nothing and changes nothing
    before = week.store.all_counts()
    replay = run_day(week.plans[0], SynthSource(default_cfg.profile),
                     week.store, default_cfg)
    assert replay.stored == 0
    assert replay.duplicates == week.summaries[0].stored
    assert week.store.all_counts() == before
    assert week.store.referential_violations() == []

    _report(8, time.perf_counter() - t0, 5.0,
            "exactly 10 tables, zero dangling references after a full week, "
            "and replayed days change nothing")


# -- 9: round-trip serialization --------------------------------------------------

def test_criterion_9_round_trip_serialization(default_cfg, week):
    t0 = time.perf_counter()
    profile = default_cfg.profile
    day = date(2016, 5, 16)

    # weather: parse then re-serialize, byte for byte, pws and airport
    stations = {m.station.file_id: m.station
                for m in default_cfg.weather_stations}
    for meta in (default_cfg.weather_stations[0],
                 default_cfg.weather_stations[-1]):
        payload = gen_weather_day(profile, meta, day)
        readings, quarantined = parse_weather_observations(payload, stations)
        assert quarantined == []
        rebuilt = weather_payload_body(
            (r.target, r.timestamp, r.fields) for r in readings)
        assert rebuilt == payload.body

    # traffic: the single record reprints to the same line
    source = SynthSource(profile)
    for route in default_cfg.routes[:10]:
        at = datetime(2016, 5, 16, 7, 48)
        payload = source.fetch_traffic(route, at)
        raw = parse_traffic_response(payload, route)
        rebuilt = traffic_payload_body(
            raw.target, raw.timestamp, raw.fields["traveldist"],
            raw.fields["traveltime_std"], raw.fields["traveltime_curr"])
        assert rebuilt == payload.body

    # pollution: parse -> validate -> records -> blocks reproduces the text
    for station in default_cfg.pollution_stations[:5]:
        for offset in range(3):
            d = day + timedelta(days=offset)
            payload = gen_pollution_day(profile, station, d)
            candidates = assemble_station_day(
                parse_pollution_tables(payload), station, d)
            records = [validate_pollution(raw, RULES)[0]
                       for raw in candidates]
            by_hour = {r.timestamp.hour: r for r in records}
            blocks = []
            for c in CONTAMINANTS:
                cells = []
                for hour in range(2, 24):
                    v = getattr(by_hour[hour], c)
                    cells.append((f"{hour:02d}:00",
                                  None if v is None else str(v)))
                blocks.append((station.file_id, c.upper(), d.isoformat(),
                               cells))
            assert pollution_payload_body(blocks) == payload.body

    # CSV: a large stored result survives export and import unchanged
    ids = week.store.location_ids("locations_w")
    res = week.store.query_attribute(
        "weathers", ["temp", "hum", "wdire", "uv"], sorted(ids.values()),
        datetime.combine(WEEK_START, dtime(0, 0)),
        datetime.combine(WEEK_START, dtime(23, 59, 59)))
    assert len(res) >= 1000
    back = import_csv(export_csv(res), "weathers")
    assert back.columns == res.columns
    assert back.rows == res.rows

    _report(9, time.perf_counter() - t0, 5.0,
            f"payloads of all three kinds reprint byte-identically and a "
            f"{len(res)}-row query survives CSV export and re-import")
