"""Differential tests: each per-record fast path against its slow reference.

Each reference below is a test-local copy of the code the fast path
stands in for, so a change to either side shows up here.
"""

from __future__ import annotations

import math
import shlex
from datetime import datetime
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from urbanobs import connectors
from urbanobs.connectors import (
    WEATHER_KEYS,
    RawReading,
    SourcePayload,
    parse_weather_observations,
    weather_payload_body,
)
from urbanobs.errors import (
    Error,
    OutOfRangeError,
    ParseError,
    PreconditionError,
    RecordRejected,
)
from urbanobs.model import (
    AIRPORT_ONLY_ATTRIBUTES,
    COMPASS_CODES,
    CONTAMINANTS,
    IMECA_MAX,
    IMECA_MIN,
    WEATHER_ATTRIBUTES,
    WEATHER_FLAG_ATTRIBUTES,
    WEATHER_NUMERIC_ATTRIBUTES,
    PollutionRecord,
    TrafficRecord,
    WeatherRecord,
    WeatherStation,
)
from urbanobs.storage import DB_TIMESTAMP_FMT, Store
from urbanobs.validation import (
    RuleSet,
    ValidationReport,
    validate_pollution,
    validate_traffic,
    validate_weather,
)


@pytest.fixture(scope="module")
def stations(default_cfg):
    return {m.station.file_id: m.station for m in default_cfg.weather_stations}


# -- weather line parse ---------------------------------------------------------

def _reference_parse_weather(payload, stations):
    """The weather parse before the key=value path: shlex tokens, then the
    token loop, then the check for a station and local time given twice."""
    readings, quarantined, first = [], [], {}
    for line_no, line in connectors._content_lines(payload.body):
        try:
            tokens = shlex.split(line)
        except ValueError as exc:
            raise ParseError(f"unbalanced quoting: {exc}", origin=payload.origin,
                             line_no=line_no)
        if len(tokens) < 2:
            raise ParseError("observation needs a station id and a timestamp",
                             origin=payload.origin, line_no=line_no)
        file_id, ts_text = tokens[0], tokens[1]
        try:
            datetime.strptime(ts_text, connectors.TIMESTAMP_FMT)
        except ValueError:
            raise ParseError(f"bad timestamp {ts_text!r}", origin=payload.origin,
                             line_no=line_no)
        station = stations.get(file_id)
        if station is None:
            quarantined.append(connectors.QuarantinedLine(
                origin=payload.origin, line_no=line_no, line=line,
                reason=f"unknown station id {file_id!r}"))
            continue
        fields = {}
        for tok in tokens[2:]:
            key, sep, value = tok.partition("=")
            if not sep or not key:
                raise ParseError(f"expected key=value, got {tok!r}",
                                 origin=payload.origin, line_no=line_no)
            if key not in WEATHER_KEYS:
                raise ParseError(f"unknown weather key {key!r}",
                                 origin=payload.origin, line_no=line_no)
            if key in fields:
                raise ParseError(f"duplicate key {key!r}",
                                 origin=payload.origin, line_no=line_no)
            if not station.is_airport and key in AIRPORT_ONLY_ATTRIBUTES:
                raise ParseError(
                    f"key {key!r} is airport-only but {file_id} is a personal station",
                    origin=payload.origin, line_no=line_no)
            fields[key] = value
        key = (file_id, datetime.strptime(ts_text, connectors.TIMESTAMP_FMT))
        if key in first:
            zones = (first[key].fields.get("time_zone"), fields.get("time_zone"))
            quarantined.append(connectors.QuarantinedLine(
                origin=payload.origin, line_no=line_no, line=line,
                reason=f"repeats {first[key].timestamp} ({zones[0] or '-'}) "
                       f"as {zones[1] or '-'}"))
            continue
        first[key] = RawReading(
            kind="weather", target=file_id, timestamp=ts_text, fields=fields,
            origin=payload.origin, station_kind=station.kind)
        readings.append(first[key])
    return readings, quarantined


def _parse_outcome(fn, body, stations):
    payload = SourcePayload("weather", body, "x")
    try:
        return fn(payload, stations)
    except ParseError as exc:
        return ("error", str(exc))


# Characters that stress the grammar: both quotes, the escape, shlex and
# non-shlex whitespace, '=' and non-ASCII.
_TRICKY = list("'\"\\ \t=#ab-.é雨\x0b\xa0")
_VALUE = st.text(st.one_of(st.sampled_from(_TRICKY), st.characters(
    blacklist_categories=("Cs",))).filter(lambda ch: ch.splitlines() == [ch]),
    max_size=12)
_TIMESTAMP = st.sampled_from(["2016-05-16T08:05:00", "2016-05-16T08:05:00",
                              "2016-02-30T00:00:00", "2016-5-6T1:2:3", "yesterday"])
_FIELDS = st.dictionaries(st.sampled_from(WEATHER_KEYS), _VALUE, max_size=10)


@st.composite
def _serialized_line(draw, stations):
    ids = sorted(stations) + ["pws_unknown"]
    file_id = draw(st.sampled_from(ids))
    return weather_payload_body([(file_id, draw(_TIMESTAMP), draw(_FIELDS))]).rstrip("\n")


@st.composite
def _perturbed_line(draw, stations):
    line = draw(_serialized_line(stations))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["insert", "delete", "dup", "space", "empty"]))
        pos = draw(st.integers(0, len(line)))
        if op == "insert":
            line = line[:pos] + draw(st.sampled_from(_TRICKY)) + line[pos:]
        elif op == "delete":
            line = line[:pos] + line[pos + 1:]
        elif op == "dup":
            words = line.split(" ")
            line = " ".join(words + [draw(st.sampled_from(words))])
        elif op == "space":
            line = line.replace(" ", draw(st.sampled_from(["  ", "\t", " \t "])), 1)
        else:
            line += draw(st.sampled_from([" temp=", " temp=''", ' cond=""', " =1",
                                          " vis=3", " gust=3", " temp='1'2"]))
    return line


class TestWeatherLineParse:
    def test_serializer_output_takes_the_key_value_path(self, stations):
        airport = next(s for s in stations.values() if s.is_airport)
        body = weather_payload_body([
            ("pws_obispado", "2016-05-16T08:05:00",
             {"time_zone": "CST", "temp": "21.5", "cond": "Partly Cloudy"}),
            (airport.file_id, "2016-05-16T08:00:00",
             {"temp": "-1", "metar": "METAR MMMY 160800Z 00000KT", "fog": "0"}),
        ])
        with mock.patch.object(connectors.shlex, "split",
                               side_effect=AssertionError("general path taken")):
            readings, quarantined = parse_weather_observations(
                SourcePayload("weather", body, "x"), stations)
        assert quarantined == []
        assert [dict(r.fields) for r in readings] == [
            {"time_zone": "CST", "temp": "21.5", "cond": "Partly Cloudy"},
            {"temp": "-1", "metar": "METAR MMMY 160800Z 00000KT", "fog": "0"},
        ]

    @pytest.mark.parametrize("line", [
        "pws_obispado 2016-05-16T08:05:00 temp=1 temp=2",
        "pws_obispado 2016-05-16T08:05:00 gust=3",
        "pws_obispado 2016-05-16T08:05:00 vis=3",
        "pws_obispado 2016-05-16T08:05:00 temp=",
        "pws_obispado 2016-05-16T08:05:00 temp=''",
        "pws_obispado 2016-05-16T08:05:00 cond='Partly'\\ Cloudy",
        "pws_obispado 2016-05-16T08:05:00 cond=\"Partly Cloudy\"",
        "pws_obispado 2016-05-16T08:05:00 cond='it'\"'\"'s'",
        "pws_obispado 2016-05-16T08:05:00 cond='a'b",
        "pws_obispado 2016-05-16T08:05:00  temp=1",
        "pws_obispado 2016-05-16T08:05:00\ttemp=1",
        "pws_obispado 2016-05-16T08:05:00 TEMP=1",
        "pws_obispado 2016-05-16T08:05:00 temp=1=2",
        "pws_obispado 2016-02-30T08:05:00 temp=1",
        "pws_nowhere 2016-05-16T08:05:00 temp=1",
        "pws_nowhere 2016-02-30T08:05:00 temp=1",
        "pws_obispado 2016-05-16T08:05:00 cond='unclosed",
        "pws_obispado",
    ])
    def test_general_path_cases(self, stations, line):
        assert _parse_outcome(parse_weather_observations, line, stations) == \
            _parse_outcome(_reference_parse_weather, line, stations)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_serializer_output_matches_reference(self, stations, data):
        lines = data.draw(st.lists(_serialized_line(stations), min_size=1, max_size=4))
        body = "\n".join(lines) + "\n"
        assert _parse_outcome(parse_weather_observations, body, stations) == \
            _parse_outcome(_reference_parse_weather, body, stations)

    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_perturbed_lines_match_reference(self, stations, data):
        line = data.draw(_perturbed_line(stations))
        assert _parse_outcome(parse_weather_observations, line, stations) == \
            _parse_outcome(_reference_parse_weather, line, stations)


class TestKeyValueLineChecks:
    """A line in the serializer's grammar is checked without shlex, even
    when it is quarantined or fails a key check."""

    @pytest.mark.parametrize("line", [
        "pws_nowhere 2016-05-16T08:05:00 temp=1",
        "pws_nowhere 2016-05-16T08:05:00 tmep=1 temp=1 temp=2",
        "pws_nowhere 2016-02-30T08:05:00 temp=1",
        "pws_obispado 2016-05-16T08:05:00 tmep=1",
        "pws_obispado 2016-02-30T08:05:00 tmep=1",
        "pws_obispado 2016-05-16T08:05:00 temp=1 cond='a b' temp=2",
        "pws_obispado 2016-05-16T08:05:00 temp=1 temp=2 tmep=3",
        "pws_obispado 2016-05-16T08:05:00 vis=3",
        "pws_obispado 2016-05-16T08:05:00 fog=1 tmep=3",
        "pws_obispado 2016-05-16T08:05:00 tmep=3 fog=1",
        "pws_obispado 2016-05-16T08:05:00 temp=1\n"
        "pws_obispado 2016-05-16T08:05:00 temp=2",
    ])
    def test_matches_reference_without_shlex(self, stations, line):
        assert all(connectors._FAST_LINE_RE.fullmatch(l) for l in line.splitlines())
        want = _parse_outcome(_reference_parse_weather, line, stations)
        with mock.patch.object(connectors.shlex, "split",
                               side_effect=AssertionError("shlex path taken")):
            assert _parse_outcome(parse_weather_observations, line, stations) == want


# -- timestamp text ----------------------------------------------------------------

# Every stamp a record accepts: naive, whole seconds, years 1 to 9999.
_STAMPS = st.datetimes().map(lambda dt: dt.replace(microsecond=0))


class TestTimestampText:
    """The store writes a record's stamp with isoformat(" "); the
    reference is strftime, which agrees from year 1000 on."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_STAMPS, min_size=1, max_size=8, unique=True), _STAMPS, _STAMPS)
    @example([datetime(999, 12, 31, 23, 59, 59), datetime(1000, 1, 1),
              datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)],
             datetime(999, 6, 1), datetime(1000, 1, 1))
    @example([datetime(99, 1, 1), datetime(100, 1, 1), datetime(2016, 5, 16, 8, 5)],
             datetime(1, 1, 1), datetime(100, 1, 1))
    def test_stored_text_orders_and_ranges_like_the_stamps(self, stamps, a, b):
        start, end = min(a, b), max(a, b)
        with Store(":memory:") as store:
            store.init_schema()
            loc = store.upsert_location(WeatherStation(
                "pws_one", 25.67, -100.31, station_id="KTEST0001"))
            for ts in stamps:
                store.insert_record(WeatherRecord(timestamp=ts, station="pws_one"))
            every = store.query_attribute(
                "weathers", ["temp"], [loc], datetime.min, datetime.max)
            inside = store.query_attribute(
                "weathers", ["temp"], [loc], start, end)
        # The rows come back in the order of their text.
        texts = [row[0] for row in every.rows]
        assert [datetime.fromisoformat(t) for t in texts] == sorted(stamps)
        for ts, text in zip(sorted(stamps), texts):
            if ts.year >= 1000:
                assert text == ts.strftime(DB_TIMESTAMP_FMT)
        assert [datetime.fromisoformat(row[0]) for row in inside.rows] == \
            sorted(ts for ts in stamps if start <= ts <= end)


# -- validators ------------------------------------------------------------------------

def _ref_parse_timestamp(raw):
    try:
        return datetime.strptime(raw.timestamp, connectors.TIMESTAMP_FMT)
    except (TypeError, ValueError):
        raise RecordRejected(
            f"unusable timestamp {raw.timestamp!r} for {raw.target}",
            ValidationReport(key=f"{raw.timestamp} {raw.target}"))


def _ref_require_target(raw):
    if not raw.target:
        raise RecordRejected(
            "candidate has no resolvable location",
            ValidationReport(key=f"{raw.timestamp} <missing>"))


def _ref_validate_weather(raw, rules):
    """validate_weather with a rule lookup and describe() per attribute."""
    if raw.kind != "weather":
        raise PreconditionError(f"expected a weather reading, got {raw.kind!r}")
    _ref_require_target(raw)
    ts = _ref_parse_timestamp(raw)
    report = ValidationReport(key=f"{raw.timestamp} {raw.target}")
    values = {}
    for attr in WEATHER_NUMERIC_ATTRIBUTES:
        text = raw.fields.get(attr)
        if text is None:
            continue
        rule = rules.rule_for("weathers", attr)
        try:
            v = float(text)
        except ValueError:
            report.add(attr, text, rule.describe() if rule else "numeric")
            continue
        if not math.isfinite(v):
            report.add(attr, text, rule.describe() if rule else "numeric")
            continue
        if rule is not None and not rule.contains(v):
            report.add(attr, text, rule.describe())
            continue
        values[attr] = v
    for attr in WEATHER_FLAG_ATTRIBUTES:
        text = raw.fields.get(attr)
        if text is None:
            continue
        if text in ("0", "1"):
            values[attr] = int(text)
        else:
            report.add(attr, text, f"weathers.{attr} 0/1 flag")
    wdire = raw.fields.get("wdire")
    if wdire is not None:
        if wdire in COMPASS_CODES:
            values["wdire"] = wdire
        else:
            report.add("wdire", wdire, "16-point compass code")
    for attr in ("time_zone", "cond", "icon", "metar"):
        text = raw.fields.get(attr)
        if text == "":
            report.add(attr, text, "non-empty text")
        elif text is not None and len(text) > 4096:
            report.add(attr, text, "text of at most 4096 characters")
        elif text is not None and any(c in text for c in "\r\n\x00"):
            report.add(attr, text, "text without a line break or NUL")
        elif text is not None:
            values[attr] = text
    if raw.station_kind == "pws":
        for attr in AIRPORT_ONLY_ATTRIBUTES:
            if attr in values:
                report.add(attr, str(raw.fields.get(attr)), "airport-only attribute")
                del values[attr]
    tz = values.pop("time_zone", None)
    record = WeatherRecord(timestamp=ts, station=raw.target, tz=tz, **values)
    return record, report


def _ref_validate_traffic(raw, rules):
    if raw.kind != "traffic":
        raise PreconditionError(f"expected a traffic reading, got {raw.kind!r}")
    _ref_require_target(raw)
    ts = _ref_parse_timestamp(raw)
    report = ValidationReport(key=f"{raw.timestamp} {raw.target}")
    values = {}
    for attr in ("traveldist", "traveltime_std", "traveltime_curr"):
        text = raw.fields.get(attr)
        rule = rules.rule_for("traffics", attr)
        rule_text = rule.describe() if rule else "numeric"
        if text is None:
            report.add(attr, "<missing>", rule_text)
            continue
        try:
            v = float(text)
        except ValueError:
            report.add(attr, text, rule_text)
            continue
        if not math.isfinite(v):
            report.add(attr, text, rule_text)
            continue
        if rule is not None and not rule.contains(v):
            report.add(attr, text, rule_text)
            continue
        values[attr] = v
    if report.entries:
        bad = ", ".join(e.attribute for e in report.entries)
        raise RecordRejected(
            f"traffic record at {raw.timestamp} for {raw.target} dropped ({bad})",
            report)
    return TrafficRecord(timestamp=ts, route=raw.target, **values), report


def _ref_validate_pollution(raw, rules):
    if raw.kind != "pollution":
        raise PreconditionError(f"expected a pollution reading, got {raw.kind!r}")
    _ref_require_target(raw)
    ts = _ref_parse_timestamp(raw)
    report = ValidationReport(key=f"{raw.timestamp} {raw.target}")
    if ts.minute or ts.second:
        raise RecordRejected(
            f"pollution hour {raw.timestamp} is not an exact hour", report)
    if ts.hour in (0, 1):
        raise RecordRejected(
            f"pollution tables never carry hour {ts.hour:02d}", report)
    values = {}
    for attr in CONTAMINANTS:
        text = raw.fields.get(attr)
        if text is None:
            continue
        rule = rules.rule_for("pollutions", attr)
        rule_text = rule.describe() if rule else f"integer {IMECA_MIN}..{IMECA_MAX}"
        try:
            v = int(text)
        except ValueError:
            report.add(attr, text, rule_text)
            continue
        if rule is not None and not rule.contains(v):
            report.add(attr, text, rule_text)
            continue
        if not (IMECA_MIN <= v <= IMECA_MAX):
            report.add(attr, text, rule_text)
            continue
        values[attr] = v
    return PollutionRecord(timestamp=ts, station=raw.target, **values), report


def _validate_outcome(fn, raw, rules):
    try:
        record, report = fn(raw, rules)
    except RecordRejected as exc:
        return ("rejected", str(exc), exc.report)
    except (Error, OutOfRangeError) as exc:
        return (type(exc).__name__, str(exc))
    return ("ok", record, report)


_BOUND = st.sampled_from(["-", "0", "1", "-30", "0.5", "55", "100", "360", "500",
                          "1e3", "-1e3", "inf", "-inf", "nan"])
_CHECKED = ([("weathers", a) for a in WEATHER_NUMERIC_ATTRIBUTES]
            + [("traffics", a) for a in ("traveldist", "traveltime_std",
                                          "traveltime_curr")]
            + [("pollutions", a) for a in CONTAMINANTS])


def _ordered(lo, hi):
    # RangeRule refuses min > max; nan compares false, so it never does.
    if "-" not in (lo, hi) and float(lo) > float(hi):
        return hi, lo
    return lo, hi


@st.composite
def _rule_sets(draw):
    lines = []
    for table, attr in _CHECKED:
        if draw(st.booleans()):
            lo, hi = _ordered(draw(_BOUND), draw(_BOUND))
            lines.append(f"{table}.{attr} {lo} {hi}")
    return RuleSet.from_text("\n".join(lines))


_FIELD_TEXT = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "abc", "", " 5 ",
                     "1e3", "0", "-0", "1", "2", "0.5", "55", "100", "101", "360",
                     "500", "501", "-1", "1_000", "0x10", "３", "1e400",
                     "99999999999999999999999", "N", "NNE", "ESE"]),
    st.integers(-1000, 100000).map(str),
    st.floats().map(repr),
    st.text(max_size=5),
    st.sampled_from(["M" * 4096, "M" * 4097, "a\rb", "\n", "M\r\n", "a\x00"]))
_ROUTE_KEYS = ("traveldist", "traveltime_std", "traveltime_curr")
_READING_TS = st.sampled_from(["2016-05-16T08:00:00", "2016-05-16T08:05:00",
                               "2016-05-16T01:00:00", "2016-02-30T00:00:00"])


class TestCompiledValidators:
    @settings(max_examples=500, deadline=None)
    @given(_rule_sets(),
           st.dictionaries(st.sampled_from(("time_zone",) + WEATHER_ATTRIBUTES),
                           _FIELD_TEXT, max_size=12),
           st.sampled_from(["pws", "airport", None]), _READING_TS,
           st.sampled_from(["pws_obispado", ""]))
    def test_weather(self, rules, fields, station_kind, ts, target):
        raw = RawReading(kind="weather", target=target, timestamp=ts, fields=fields,
                         origin="x", station_kind=station_kind)
        assert _validate_outcome(validate_weather, raw, rules) == \
            _validate_outcome(_ref_validate_weather, raw, rules)

    @settings(max_examples=500, deadline=None)
    @given(_rule_sets(), st.dictionaries(st.sampled_from(_ROUTE_KEYS), _FIELD_TEXT),
           _READING_TS)
    def test_traffic(self, rules, fields, ts):
        raw = RawReading(kind="traffic", target="a-b", timestamp=ts, fields=fields,
                         origin="x")
        assert _validate_outcome(validate_traffic, raw, rules) == \
            _validate_outcome(_ref_validate_traffic, raw, rules)

    @settings(max_examples=500, deadline=None)
    @given(_rule_sets(), st.dictionaries(st.sampled_from(CONTAMINANTS), _FIELD_TEXT),
           _READING_TS)
    def test_pollution(self, rules, fields, ts):
        raw = RawReading(kind="pollution", target="sima_centro", timestamp=ts,
                         fields=fields, origin="x")
        assert _validate_outcome(validate_pollution, raw, rules) == \
            _validate_outcome(_ref_validate_pollution, raw, rules)


# -- weather serializer ----------------------------------------------------------------

def _ref_weather_payload_body(rows):
    """weather_payload_body with shlex.quote on every value."""
    lines = []
    for file_id, ts_text, fields in rows:
        parts = [file_id, ts_text]
        for key in WEATHER_KEYS:
            if key in fields:
                parts.append(f"{key}={shlex.quote(fields[key])}")
        for key in fields:
            if key not in WEATHER_KEYS:
                raise PreconditionError(f"unknown weather key {key!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n" if lines else "# no observations\n"


def _body_outcome(fn, rows):
    try:
        return fn(rows)
    except PreconditionError as exc:
        return ("error", str(exc))


class TestSerializer:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["pws_obispado", "apt_mmmy"]),
        st.just("2016-05-16T08:00:00"),
        st.dictionaries(st.one_of(st.sampled_from(WEATHER_KEYS),
                                  st.sampled_from(["gust", "Temp", ""])),
                        st.one_of(st.sampled_from(["", "21.5", "-0.4", "CST",
                                                   "Partly Cloudy", "it's", "a=b",
                                                   "x@y%z+1:2,3./4"]),
                                  _VALUE),
                        max_size=8)), max_size=4))
    @example([("pws_obispado", "2016-05-16T08:00:00", {"cond": ""})])
    @example([("pws_obispado", "2016-05-16T08:00:00", {"temp": "1", "gust": "2"})])
    def test_matches_per_value_quote(self, rows):
        assert _body_outcome(weather_payload_body, rows) == \
            _body_outcome(_ref_weather_payload_body, rows)
