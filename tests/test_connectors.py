from __future__ import annotations

import json
import shlex
from datetime import date, datetime
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from urbanobs.connectors import (
    NA_CELL,
    TIMESTAMP_FMT,
    WEATHER_KEYS,
    FixtureDirectorySource,
    SourcePayload,
    assemble_station_day,
    parse_pollution_tables,
    parse_traffic_response,
    parse_weather_observations,
    pollution_payload_body,
    traffic_payload_body,
    weather_payload_body,
    _parse_timestamp_text,
)
from urbanobs.errors import (
    ConflictError,
    ParseError,
    PreconditionError,
    SourceError,
)
from urbanobs.model import (
    CONTAMINANTS,
    TRAFFIC_ATTRIBUTES,
    PollutionStation,
    TrafficRoute,
)
from urbanobs.scheduler import TRAFFIC_POLL, build_plan
from urbanobs.synth import gen_traffic_response
from urbanobs.validation import RuleSet, validate_pollution

FIXTURES = Path(__file__).parent / "fixtures"
MANIFEST = json.loads((FIXTURES / "manifest.json").read_text())


def _payload(kind: str, name: str) -> SourcePayload:
    return SourcePayload(kind, (FIXTURES / name).read_text(), name)


@pytest.fixture(scope="module")
def stations(default_cfg):
    return {m.station.file_id: m.station for m in default_cfg.weather_stations}


class TestWeatherParsing:
    def test_fixture_against_manifest(self, stations):
        want = MANIFEST["weather_day.txt"]
        readings, quarantined = parse_weather_observations(
            _payload("weather", "weather_day.txt"), stations)
        assert len(readings) == want["readings"]
        assert len(quarantined) == want["quarantined"]
        assert want["quarantine_reason_contains"] in quarantined[0].reason
        first = readings[0]
        assert first.target == want["first"]["target"]
        assert first.timestamp == want["first"]["timestamp"]
        assert first.station_kind == want["first"]["station_kind"]
        assert dict(first.fields) == want["first"]["fields"]
        airport = readings[-1]
        assert airport.target == want["airport"]["target"]
        assert airport.station_kind == "airport"
        assert airport.fields["metar"] == want["airport"]["metar"]

    def test_values_kept_verbatim(self, stations):
        # every numeric field text appears in the payload untouched
        body = (FIXTURES / "weather_day.txt").read_text()
        readings, _ = parse_weather_observations(
            _payload("weather", "weather_day.txt"), stations)
        for r in readings:
            for key, value in r.fields.items():
                assert value in body

    def test_serialize_round_trip(self, stations):
        body = (FIXTURES / "weather_day.txt").read_text()
        payload = SourcePayload("weather", body, "x")
        readings, quarantined = parse_weather_observations(payload, stations)
        # the ghost line is quarantined, so rebuild without it
        rebuilt = weather_payload_body(
            (r.target, r.timestamp, r.fields) for r in readings)
        readings2, q2 = parse_weather_observations(
            SourcePayload("weather", rebuilt, "x"), stations)
        assert readings2 == readings
        assert q2 == []

    def test_empty_payload(self, stations):
        readings, quarantined = parse_weather_observations(
            SourcePayload("weather", "# nothing today\n", "x"), stations)
        assert readings == [] and quarantined == []

    def test_unknown_key_rejected(self, stations):
        bad = "pws_obispado 2016-05-16T08:05:00 sunshine=11\n"
        with pytest.raises(ParseError, match="sunshine"):
            parse_weather_observations(
                SourcePayload("weather", bad, "x"), stations)

    def test_duplicate_key_rejected(self, stations):
        bad = "pws_obispado 2016-05-16T08:05:00 temp=20 temp=21\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_weather_observations(
                SourcePayload("weather", bad, "x"), stations)

    def test_airport_only_key_on_pws_rejected(self, stations):
        bad = "pws_obispado 2016-05-16T08:05:00 metar='METAR X'\n"
        with pytest.raises(ParseError, match="airport-only"):
            parse_weather_observations(
                SourcePayload("weather", bad, "x"), stations)

    def test_bad_timestamp_rejected(self, stations):
        bad = "pws_obispado yesterday temp=20\n"
        with pytest.raises(ParseError, match="timestamp"):
            parse_weather_observations(
                SourcePayload("weather", bad, "x"), stations)

    def test_error_carries_line_number(self, stations):
        bad = ("pws_obispado 2016-05-16T08:05:00 temp=20\n"
               "pws_obispado 2016-05-16T08:10:00 nope=1\n")
        with pytest.raises(ParseError) as err:
            parse_weather_observations(
                SourcePayload("weather", bad, "feed"), stations)
        assert err.value.line_no == 2
        assert err.value.origin == "feed"

    def test_wrong_payload_kind(self, stations):
        with pytest.raises(PreconditionError):
            parse_weather_observations(
                SourcePayload("traffic", "x 2016-05-16T00:00:00 1 2 3\n", "x"),
                stations)

    @pytest.mark.parametrize("second, reason", [
        ("pws_obispado 2016-05-16T08:05:00 temp=21 time_zone=CDT",
         "repeats 2016-05-16T08:05:00 (-) as CDT"),
        ("pws_obispado 2016-05-16T8:05:00 temp=21",
         "repeats 2016-05-16T08:05:00 (-) as -"),
        ('pws_obispado "2016-05-16T08:05:00" temp=21',
         "repeats 2016-05-16T08:05:00 (-) as -"),
    ], ids=["zone", "unpadded", "shlex"])
    def test_repeated_local_time_is_quarantined(self, stations, second, reason):
        body = ("pws_obispado 2016-05-16T08:05:00 temp=20\n"
                "pws_obispado 2016-05-16T08:10:00 temp=20\n" + second + "\n")
        readings, quarantined = parse_weather_observations(
            SourcePayload("weather", body, "feed"), stations)
        assert [r.timestamp for r in readings] == [
            "2016-05-16T08:05:00", "2016-05-16T08:10:00"]
        assert [(q.line_no, q.line, q.reason) for q in quarantined] == [
            (3, second, reason)]

    def test_unknown_key_on_a_repeated_time_still_fails(self, stations):
        """A line the parse refuses is never the first of its time."""
        body = ("pws_obispado 2016-05-16T08:05:00 bogus_key=1\n"
                "pws_obispado 2016-05-16T08:05:00 temp=20\n")
        with pytest.raises(ParseError, match="bogus_key"):
            parse_weather_observations(
                SourcePayload("weather", body, "x"), stations)


ROUTE = TrafficRoute(file_id="downtown-aeropuerto",
                     start_lat=25.6695, start_long=-100.3095,
                     end_lat=25.7785, end_long=-100.1070)


class TestTrafficParsing:
    def test_fixture_against_manifest(self):
        want = MANIFEST["traffic_single.txt"]
        raw = parse_traffic_response(_payload("traffic", "traffic_single.txt"), ROUTE)
        assert raw.target == want["route"]
        assert raw.timestamp == want["timestamp"]
        assert dict(raw.fields) == want["fields"]

    def test_field_keys_are_traffic_attributes_in_order(self):
        raw = parse_traffic_response(_payload("traffic", "traffic_single.txt"), ROUTE)
        assert tuple(raw.fields) == TRAFFIC_ATTRIBUTES

    def test_serialize_round_trip(self):
        body = (FIXTURES / "traffic_single.txt").read_text()
        raw = parse_traffic_response(
            SourcePayload("traffic", body, "x"), ROUTE)
        rebuilt = traffic_payload_body(
            raw.target, raw.timestamp, raw.fields["traveldist"],
            raw.fields["traveltime_std"], raw.fields["traveltime_curr"])
        assert rebuilt == body

    def test_missing_field_rejected(self):
        bad = "downtown-aeropuerto 2016-05-16T07:48:00 18560 1215\n"
        with pytest.raises(ParseError, match="5 fields"):
            parse_traffic_response(SourcePayload("traffic", bad, "x"), ROUTE)

    def test_wrong_route_rejected(self):
        bad = "elsewhere-aeropuerto 2016-05-16T07:48:00 18560 1215 2066\n"
        with pytest.raises(ParseError, match="elsewhere"):
            parse_traffic_response(SourcePayload("traffic", bad, "x"), ROUTE)

    def test_two_records_rejected(self):
        bad = ("downtown-aeropuerto 2016-05-16T07:48:00 18560 1215 2066\n"
               "downtown-aeropuerto 2016-05-16T08:00:00 18560 1215 2066\n")
        with pytest.raises(ParseError, match="exactly one"):
            parse_traffic_response(SourcePayload("traffic", bad, "x"), ROUTE)


STATION = PollutionStation(file_id="sima_centro", lat=25.67, long=-100.338)
DAY = date(2016, 5, 16)


class TestPollutionParsing:
    def test_fixture_against_manifest(self):
        want = MANIFEST["pollution_day.txt"]
        readings = parse_pollution_tables(_payload("pollution", "pollution_day.txt"))
        assert len(readings) == want["cells_total"]
        per_contaminant: dict[str, int] = {}
        for r in readings:
            assert r.target == want["station"]
            assert r.timestamp.startswith(want["date"])
        # cells with values name their contaminant in the field dict
        for c in CONTAMINANTS:
            n = sum(1 for r in readings if c in r.fields)
            if want["na_cells"].get(c) == "all":
                assert n == 0
            else:
                na = len(want["na_cells"].get(c, []))
                assert n == want["hours_per_contaminant"] - na

    def test_assembled_day_against_manifest(self):
        want = MANIFEST["pollution_day.txt"]
        readings = parse_pollution_tables(_payload("pollution", "pollution_day.txt"))
        candidates = assemble_station_day(readings, STATION, DAY)
        assert len(candidates) == want["hours_per_contaminant"]
        by_hour = {c.timestamp[11:16]: c for c in candidates}
        for hhmm, values in want["spot_values"].items():
            for attr, v in values.items():
                assert int(by_hour[hhmm].fields[attr]) == v
        # NA pattern: missing keys where the table had dashes
        assert "o3" not in by_hour["07:00"].fields
        assert "co" not in by_hour["02:00"].fields
        assert all("pm25" not in c.fields for c in candidates)

    def test_candidates_ordered_by_hour(self):
        readings = parse_pollution_tables(_payload("pollution", "pollution_day.txt"))
        candidates = assemble_station_day(readings, STATION, DAY)
        hours = [c.timestamp for c in candidates]
        assert hours == sorted(hours)

    def test_no_hour_00_or_01_anywhere(self):
        readings = parse_pollution_tables(_payload("pollution", "pollution_day.txt"))
        for r in readings:
            assert r.timestamp[11:13] not in ("00", "01")

    def test_early_hours_rejected_at_parse(self):
        for hh in ("00", "01"):
            bad = (f"station=sima_centro contaminant=PM10 date=2016-05-16\n"
                   f"{hh}:00 40\n")
            with pytest.raises(ParseError, match="00 or 01"):
                parse_pollution_tables(SourcePayload("pollution", bad, "x"))

    def test_unknown_contaminant_rejected(self):
        bad = "station=sima_centro contaminant=NH3 date=2016-05-16\n02:00 40\n"
        with pytest.raises(ParseError, match="NH3"):
            parse_pollution_tables(SourcePayload("pollution", bad, "x"))

    def test_duplicate_cell_conflicts(self):
        bad = ("station=sima_centro contaminant=PM10 date=2016-05-16\n"
               "02:00 40\n02:00 44\n")
        with pytest.raises(ConflictError):
            parse_pollution_tables(SourcePayload("pollution", bad, "x"))

    def test_duplicate_cell_across_blocks_conflicts(self):
        bad = ("station=sima_centro contaminant=PM10 date=2016-05-16\n02:00 40\n"
               "\n"
               "station=sima_centro contaminant=PM10 date=2016-05-16\n02:00 41\n")
        with pytest.raises(ConflictError):
            parse_pollution_tables(SourcePayload("pollution", bad, "x"))

    @pytest.mark.parametrize("body, message, line_no", [
        ("station=sima_centro contaminant=PM10\n02:00 40\n",
         "block header needs station=, contaminant= and date=", 1),
        ("station=sima_centro station=x date=2016-05-16\n02:00 40\n",
         "block header needs station=, contaminant= and date=", 1),
        ("# header\nstation=sima_centro contaminant=PM10 day=2016-05-16\n",
         "bad header field 'day=2016-05-16'", 2),
        ("02:00 40\n", "hour line before any block header", 1),
        ("station=sima_centro contaminant=PM10 date=2016-05-16\n02:00 40 41\n",
         "expected 'HH:MM value', got '02:00 40 41'", 2),
        ("station=sima_centro contaminant=PM10 date=2016-05-16\n02:00 40\n\n"
         "2 o'clock 40\n", "expected 'HH:MM value', got \"2 o'clock 40\"", 4),
        ("station=sima_centro contaminant=PM10 date=2016-05-16\n02:00 40\n"
         "25:00 40\n", "bad hour '25:00'", 3),
    ], ids=["header-tokens", "header-keys", "header-field", "no-header",
            "hour-tokens", "hour-words", "hour"])
    def test_structural_errors_are_positioned(self, body, message, line_no):
        with pytest.raises(ParseError) as err:
            parse_pollution_tables(SourcePayload("pollution", body, "x"))
        assert str(err.value) == f"{message} [x:{line_no}]"
        assert err.value.line_no == line_no

    def test_ascii_dash_also_means_na(self):
        body = "station=sima_centro contaminant=PM10 date=2016-05-16\n02:00 -\n"
        readings = parse_pollution_tables(SourcePayload("pollution", body, "x"))
        assert len(readings) == 1 and readings[0].fields == {}

    def test_mixed_station_assembly_rejected(self):
        readings = parse_pollution_tables(_payload("pollution", "pollution_day.txt"))
        other = PollutionStation(file_id="sima_norte", lat=25.8, long=-100.34)
        with pytest.raises(PreconditionError, match="sima_centro"):
            assemble_station_day(readings, other, DAY)

    def test_mixed_day_assembly_rejected(self):
        readings = parse_pollution_tables(_payload("pollution", "pollution_day.txt"))
        with pytest.raises(PreconditionError, match="2016-05-17"):
            assemble_station_day(readings, STATION, date(2016, 5, 17))

    def test_all_dash_hour_still_yields_candidate(self):
        body = ("station=sima_centro contaminant=PM10 date=2016-05-16\n"
                f"02:00 {NA_CELL}\n")
        readings = parse_pollution_tables(SourcePayload("pollution", body, "x"))
        candidates = assemble_station_day(readings, STATION, DAY)
        assert len(candidates) == 1
        assert candidates[0].fields == {}

    def test_serialize_round_trip(self):
        body = (FIXTURES / "pollution_day.txt").read_text()
        blocks = []
        # rebuild the blocks from the parsed cells plus the known grid
        readings = parse_pollution_tables(
            SourcePayload("pollution", body, "x"))
        by_cell = {}
        hours = sorted({r.timestamp[11:16] for r in readings})
        for r in readings:
            for attr, v in r.fields.items():
                by_cell[(attr, r.timestamp[11:16])] = v
        for c in CONTAMINANTS:
            cells = [(h, by_cell.get((c, h))) for h in hours]
            blocks.append(("sima_centro", c.upper(), "2016-05-16", cells))
        assert pollution_payload_body(blocks) == body


class TestFixtureDirectorySource:
    def _layout(self, tmp_path: Path) -> Path:
        root = tmp_path / "corpus"
        (root / "weather" / "pws_obispado").mkdir(parents=True)
        (root / "weather" / "pws_obispado" / "2016-05-16.txt").write_text(
            "pws_obispado 2016-05-16T00:00:00 temp=20.0\n")
        (root / "traffic" / "downtown-aeropuerto").mkdir(parents=True)
        (root / "traffic" / "downtown-aeropuerto" / "2016-05-16.txt").write_text(
            "downtown-aeropuerto 2016-05-16T07:48:00 18560 1215 2066\n"
            "downtown-aeropuerto 2016-05-16T08:00:00 18560 1215 1998\n")
        (root / "pollution" / "sima_centro").mkdir(parents=True)
        (root / "pollution" / "sima_centro" / "2016-05-16.txt").write_text(
            "station=sima_centro contaminant=PM10 date=2016-05-16\n02:00 40\n")
        return root

    def test_fetch_each_kind(self, tmp_path):
        root = self._layout(tmp_path)
        src = FixtureDirectorySource(root)

        class Meta:
            pass

        class St:
            file_id = "pws_obispado"

        meta = Meta()
        meta.station = St()
        payload = src.fetch_weather(meta, DAY)
        assert "temp=20.0" in payload.body

        at = datetime(2016, 5, 16, 8, 0, 0)
        payload = src.fetch_traffic(ROUTE, at)
        assert payload.body.strip().endswith("1998")

        payload = src.fetch_pollution(STATION, DAY, 23)
        assert "PM10" in payload.body

    def test_fetches_of_one_file_are_equal(self, tmp_path):
        # A replay reads no clock: a payload is the file's text and path.
        root = self._layout(tmp_path)
        src = FixtureDirectorySource(root)

        class Meta:
            class station:
                file_id = "pws_obispado"

        for fetch, args, path in (
                (src.fetch_weather, (Meta, DAY), "weather/pws_obispado"),
                (src.fetch_pollution, (STATION, DAY, 23), "pollution/sima_centro")):
            first = fetch(*args)
            assert fetch(*args) == first
            path = root / path / "2016-05-16.txt"
            assert (first.body, first.origin) == (path.read_text(), str(path))

    def test_missing_fixture_errors(self, tmp_path):
        src = FixtureDirectorySource(self._layout(tmp_path))
        with pytest.raises(SourceError, match="2016-05-17"):
            src.fetch_pollution(STATION, date(2016, 5, 17), 23)

    def test_missing_traffic_instant_errors(self, tmp_path):
        src = FixtureDirectorySource(self._layout(tmp_path))
        with pytest.raises(SourceError, match="09:00"):
            src.fetch_traffic(ROUTE, datetime(2016, 5, 16, 9, 0, 0))

    def test_route_day_file_read_once(self, tmp_path, monkeypatch):
        src = FixtureDirectorySource(self._layout(tmp_path))
        reads = []
        read_text = Path.read_text

        def counting_read_text(path, *args, **kwargs):
            reads.append(path.name)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        for _ in range(3):
            for minute in (48, 0):
                at = datetime(2016, 5, 16, 7 if minute else 8, minute, 0)
                assert src.fetch_traffic(ROUTE, at).body.startswith(ROUTE.file_id)
            with pytest.raises(SourceError):
                src.fetch_traffic(ROUTE, datetime(2016, 5, 16, 9, 0, 0))
        assert reads == ["2016-05-16.txt"]

    def test_rewritten_file_is_read_again(self, tmp_path):
        root = self._layout(tmp_path)
        src = FixtureDirectorySource(root)
        at = datetime(2016, 5, 16, 8, 0, 0)
        assert src.fetch_traffic(ROUTE, at).body.endswith(" 1998\n")
        (root / "traffic" / ROUTE.file_id / "2016-05-16.txt").write_text(
            "downtown-aeropuerto 2016-05-16T08:00:00 18560 1215 12345\n")
        assert src.fetch_traffic(ROUTE, at).body.endswith(" 12345\n")
        with pytest.raises(SourceError, match="07:48"):
            src.fetch_traffic(ROUTE, datetime(2016, 5, 16, 7, 48, 0))

    def test_differing_lines_at_an_instant_fail_the_poll(self, tmp_path):
        route = TrafficRoute("r1", 25.67, -100.31, 25.78, -100.11)
        path = tmp_path / "traffic" / "r1" / "2016-05-16.txt"
        path.parent.mkdir(parents=True)
        path.write_text("r1 2016-05-16T06:00:00 1000 60 70\n"
                        "r1 2016-05-16T06:00:00 1000 60 95\n"
                        "r1 2016-05-16T06:15:00 1000 60 80\n"
                        "r1 2016-05-16T06:15:00 1000 60 80\n"
                        "r1 2016-05-16T06:00:00 1000 60 70\n")
        src = FixtureDirectorySource(tmp_path)
        for _ in range(2):
            with pytest.raises(SourceError) as err:
                src.fetch_traffic(route, datetime(2016, 5, 16, 6, 0, 0))
            assert str(err.value) == \
                f"traffic fixture lines at 2016-05-16T06:00:00 differ in {path}"
            # An identical repeat is the same reading: the poll fetches it.
            payload = src.fetch_traffic(route, datetime(2016, 5, 16, 6, 15, 0))
            assert payload.body == "r1 2016-05-16T06:15:00 1000 60 80\n"

    def test_origin_for_relative_root(self, tmp_path, monkeypatch):
        root = self._layout(tmp_path)
        monkeypatch.chdir(root)
        src = FixtureDirectorySource(".")
        at = datetime(2016, 5, 16, 8, 0, 0)
        want = str(Path(".") / "traffic" / ROUTE.file_id / "2016-05-16.txt")
        assert want == "traffic/downtown-aeropuerto/2016-05-16.txt"
        assert src.fetch_traffic(ROUTE, at).origin == want
        with pytest.raises(SourceError) as err:
            src.fetch_traffic(ROUTE, datetime(2016, 5, 17, 8, 0, 0))
        assert str(err.value).endswith(
            ": " + str(Path(".") / "traffic" / ROUTE.file_id / "2016-05-17.txt"))


def _scan_fetch_traffic(root: Path, route, at: datetime) -> SourcePayload:
    """The per-poll read and scan the indexed fetch replaced."""
    day = at.date()
    path = root / "traffic" / route.file_id / f"{day.isoformat()}.txt"
    if not path.is_file():
        raise SourceError(f"no traffic fixture for {route.file_id} on {day}: {path}")
    want = at.strftime(TIMESTAMP_FMT)
    found = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.split()[1:2] == [want]:
            found.append(line)
    if not found:
        raise SourceError(f"no traffic fixture line at {want} in {path}")
    if len(set(found)) > 1:
        raise SourceError(f"traffic fixture lines at {want} differ in {path}")
    return SourcePayload("traffic", found[0] + "\n", str(path))


def _fetch_outcome(fetch, *args):
    try:
        p = fetch(*args)
    except SourceError as exc:
        return ("error", str(exc))
    return (p.source_kind, p.body, p.origin)


def test_indexed_traffic_fetch_matches_scan(tmp_path, default_cfg):
    route = default_cfg.routes[0]
    plan = build_plan(default_cfg.windows, default_cfg.routes, DAY)
    ticks = [e.at for e in plan.entries
             if e.kind == TRAFFIC_POLL and e.target == route.file_id]
    lines = [gen_traffic_response(default_cfg.profile, route, at).body
             for at in ticks]
    # Comments, blanks, a one-word line, a second line for an instant
    # that is already listed and a repeat of a listed line, around the
    # generator's lines.
    odd = ["# captured 2016-05-16\n", "\n", f"  {route.file_id}\n",
           lines[3].replace(route.file_id, route.file_id + "  ", 1)[:-2] + "9\n",
           f"  {lines[7]}"]
    body = odd[0] + "".join(lines[:5]) + "".join(odd[1:]) + "".join(lines[5:])
    path = tmp_path / "traffic" / route.file_id / f"{DAY.isoformat()}.txt"
    path.parent.mkdir(parents=True)
    path.write_text(body)

    absent = [datetime(2016, 5, 16, 3, 17, 0), datetime(2016, 5, 16, 23, 59, 59),
              ticks[0].replace(second=30), datetime(2016, 5, 17, 8, 0, 0),
              datetime(2016, 5, 15, 8, 0, 0)]
    src = FixtureDirectorySource(tmp_path)
    assert len(ticks) == 58
    for at in ticks + absent + ticks[::-7]:
        assert _fetch_outcome(src.fetch_traffic, route, at) == \
            _fetch_outcome(_scan_fetch_traffic, tmp_path, route, at)


def test_payload_kind_checked():
    with pytest.raises(PreconditionError):
        SourcePayload("video", "x\n", "x")
    with pytest.raises(PreconditionError):
        SourcePayload("weather", "", "x")


@pytest.mark.parametrize("text", [
    "20160516", "2016-W20-1", "2016-W20", "2016-137", "2016-5-16",
    "2016-05-32", "16-05-16", "2016-05-16T00", "２０１６-05-16",
])
def test_pollution_header_date_must_be_padded_iso(text):
    body = f"station=sima_centro contaminant=PM10 date={text}\n02:00 40\n"
    with pytest.raises(ParseError) as err:
        parse_pollution_tables(SourcePayload("pollution", body, "x"))
    assert str(err.value) == f"bad date {text!r} [x:1]"


class TestUnpaddedPollutionHour:
    def test_unpadded_hour_conflicts_with_padded(self):
        bad = ("station=sima_centro contaminant=PM10 date=2016-05-16\n"
               "03:00 40\n3:00 41\n")
        with pytest.raises(ConflictError, match="03:00"):
            parse_pollution_tables(SourcePayload("pollution", bad, "x"))

    def test_lone_unpadded_hour_stored_at_padded_hour(self):
        body = "station=sima_centro contaminant=PM10 date=2016-05-16\n3:00 41\n"
        readings = parse_pollution_tables(SourcePayload("pollution", body, "x"))
        assert [r.timestamp for r in readings] == ["2016-05-16T03:00:00"]
        (candidate,) = assemble_station_day(readings, STATION, DAY)
        record, report = validate_pollution(candidate, RuleSet.defaults())
        assert record.timestamp == datetime(2016, 5, 16, 3, 0, 0)
        assert record.pm10 == 41 and report.clean


# Characters that stress the tokenizer: both quotes, the escape, shlex
# whitespace, '#', whitespace shlex does not split on, and non-ASCII.
_TRICKY = st.sampled_from(list("'\"\\# \t\r\n=ab\x0b\x0c\xa0é雨"))
_LINE_TEXT = st.text(st.one_of(_TRICKY, st.characters()), max_size=40)


def _outcome(fn, text):
    try:
        return fn(text)
    except ValueError as exc:
        return ("error", str(exc))


class TestFastTokenizer:
    @settings(max_examples=500, deadline=None)
    @given(_LINE_TEXT.filter(lambda v: len(v.splitlines()) <= 1))
    @example("temp='20")
    @example('cond="Clear')
    def test_parse_error_text_unchanged(self, stations, text):
        line = f"pws_obispado 2016-05-16T08:05:00 {text}"
        try:
            shlex.split(line.strip())
        except ValueError as exc:
            want = str(ParseError(f"unbalanced quoting: {exc}", origin="x", line_no=1))
        else:
            return
        with pytest.raises(ParseError) as err:
            parse_weather_observations(SourcePayload("weather", line, "x"),
                                       stations)
        assert str(err.value) == want

    def test_long_unclosed_line_fails_promptly(self, stations):
        # A backtracking word pattern would take exponential time here.
        line = "pws_obispado 2016-05-16T08:05:00 " + "ab'c'd " * 2000 + "temp='20"
        with pytest.raises(ParseError, match="unbalanced quoting"):
            parse_weather_observations(SourcePayload("weather", line, "x"),
                                       stations)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(WEATHER_KEYS),
        st.text(st.one_of(_TRICKY, st.characters()).filter(
            lambda ch: ch.splitlines() == [ch]), max_size=20),
        max_size=8))
    @example({"cond": "it's \"here\"", "metar": "METAR 'x' \"y\" z", "icon": "雨"})
    def test_serializer_round_trip(self, stations, fields):
        # Values hold no line breaks: a payload line is one observation.
        airport = next(s for s in stations.values() if s.is_airport)
        body = weather_payload_body([(airport.file_id, "2016-05-16T08:00:00", fields)])
        readings, quarantined = parse_weather_observations(
            SourcePayload("weather", body, "x"), stations)
        assert quarantined == []
        assert [dict(r.fields) for r in readings] == [fields]


_TS_BOUNDARY = [
    "2016-05-16T08:05:00",
    "2016-5-6T1:2:3",
    "2016-05-16t08:05:00",
    "2016-02-29T00:00:00",
    "2015-02-29T00:00:00",
    "2016-02-30T00:00:00",
    "2016-13-01T00:00:00",
    "2016-00-10T00:00:00",
    "0000-01-01T00:00:00",
    "0001-01-01T00:00:00",
    "9999-12-31T23:59:59",
    "2016-05-16T24:00:00",
    "2016-05-16T23:60:00",
    "2016-05-16T23:59:60",
    "2016-05-16T23:59:61",
    "２０１６-05-16T08:05:00",
    "2016-05-16T08:05:00 ",
    " 2016-05-16T08:05:00",
    "2016-05-16 08:05:00",
    "2016-05-16T08:05",
    "2016-05-16T08:05:00.5",
    "+016-05-16T08:05:00",
    "",
]


def _reference_strptime(text):
    return datetime.strptime(text, TIMESTAMP_FMT)


# Timestamp-shaped text: fields of ASCII or full-width digits, each a
# digit short of, at, or a digit over its padded width.
_DIGIT = st.sampled_from("0123456789０１２")
_YEAR = st.text(_DIGIT, min_size=3, max_size=5)
_FIELD = st.text(_DIGIT, min_size=1, max_size=3)
_NEAR_TIMESTAMP = st.builds(
    "{}-{}-{}{}{}:{}:{}".format, _YEAR, _FIELD, _FIELD,
    st.sampled_from(["T", "t", " "]), _FIELD, _FIELD, _FIELD)
# Numeric fields around their valid ranges, zero-padded or not.
_RANGED_TIMESTAMP = st.builds(
    lambda pad, y, *rest: f"{y:04d}-" + (
        "{:02d}-{:02d}T{:02d}:{:02d}:{:02d}" if pad else "{}-{}T{}:{}:{}").format(*rest),
    st.booleans(), st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
    st.integers(0, 25), st.integers(0, 61), st.integers(0, 62))


class TestTimestampHelper:
    @pytest.mark.parametrize("text", _TS_BOUNDARY)
    def test_boundary_strings_match_strptime(self, text):
        assert _outcome(_parse_timestamp_text, text) == _outcome(_reference_strptime, text)

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(_RANGED_TIMESTAMP, _NEAR_TIMESTAMP, st.text(max_size=25)))
    def test_random_strings_match_strptime(self, text):
        assert _outcome(_parse_timestamp_text, text) == _outcome(_reference_strptime, text)
