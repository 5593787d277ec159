from __future__ import annotations

import re
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanobs.connectors import RawReading
from urbanobs.errors import ConfigError, PreconditionError, RecordRejected
from urbanobs.model import (
    CONTAMINANTS,
    WEATHER_FLAG_ATTRIBUTES,
    WEATHER_NUMERIC_ATTRIBUTES,
)
from urbanobs.validation import (
    DEFAULT_RULES_TEXT,
    RangeRule,
    RuleSet,
    ValidationReport,
    validate_pollution,
    validate_traffic,
    validate_weather,
)

RULES = RuleSet.defaults()


def weather_reading(fields, target="pws_obispado",
                    ts="2016-05-16T08:05:00", station_kind="pws"):
    return RawReading(kind="weather", target=target, timestamp=ts,
                      fields=fields, origin="test", station_kind=station_kind)


def traffic_reading(fields, target="a-b", ts="2016-05-16T07:48:00"):
    return RawReading(kind="traffic", target=target, timestamp=ts,
                      fields=fields, origin="test")


def pollution_reading(fields, target="sima_centro", ts="2016-05-16T08:00:00"):
    return RawReading(kind="pollution", target=target, timestamp=ts,
                      fields=fields, origin="test")


class TestRangeRule:
    def test_inclusive_bounds(self):
        rule = RangeRule("weathers", "hum", 0, 100)
        assert rule.contains(0) and rule.contains(100)
        assert not rule.contains(-0.001) and not rule.contains(100.001)

    def test_unbounded_sides(self):
        assert RangeRule("t", "a", None, 10).contains(-1e9)
        assert RangeRule("t", "a", 10, None).contains(1e9)
        assert not RangeRule("t", "a", None, 10).contains(10.5)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ConfigError):
            RangeRule("t", "a", 5, 4)

    def test_describe(self):
        assert RangeRule("weathers", "hum", 0, 100).describe() == "weathers.hum 0 100"
        assert RangeRule("t", "a", None, 50).describe() == "t.a - 50"


class TestRuleSet:
    def test_from_text(self):
        rs = RuleSet.from_text("# comment\n\nweathers.temp -30 55\ntraffics.traveldist - -\n")
        assert len(rs) == 2
        rule = rs.rule_for("weathers", "temp")
        assert rule.min == -30 and rule.max == 55
        unbounded = rs.rule_for("traffics", "traveldist")
        assert unbounded.min is None and unbounded.max is None

    def test_defaults_cover_every_validated_attribute(self):
        rs = RuleSet.defaults()
        for attr in WEATHER_NUMERIC_ATTRIBUTES:
            assert rs.rule_for("weathers", attr) is not None, attr
        for attr in ("traveldist", "traveltime_std", "traveltime_curr"):
            assert rs.rule_for("traffics", attr) is not None
        for attr in CONTAMINANTS:
            assert rs.rule_for("pollutions", attr) is not None

    def test_default_text_parses_to_defaults(self):
        assert len(RuleSet.from_text(DEFAULT_RULES_TEXT)) == len(RuleSet.defaults())

    @pytest.mark.parametrize("line", [
        "weathers.temp -30",          # missing bound
        "weathers.temp -30 55 extra",
        "weatherstemp -30 55",        # no dot
        ".temp -30 55",
        "weathers. -30 55",
        "weathers.temp low 55",       # non-numeric bound
    ])
    def test_bad_lines_rejected(self, line):
        with pytest.raises(ConfigError):
            RuleSet.from_text(line + "\n")

    def test_duplicate_rule_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            RuleSet.from_text("traffics.traveldist 0 1\ntraffics.traveldist 0 2\n")

    @pytest.mark.parametrize("name", ["weathers.tmep", "weather.hum", "weathers.fog"])
    def test_rule_for_unchecked_attribute_rejected(self, name):
        with pytest.raises(ConfigError, match=rf"^custom\.rules:2: {re.escape(name)} "
                                              r"is not a range-checked attribute$"):
            RuleSet.from_text(f"weathers.temp -30 55\n{name} 0 1\n", origin="custom.rules")

    def test_error_names_origin_and_line(self):
        with pytest.raises(ConfigError, match=r"custom\.rules:2"):
            RuleSet.from_text("traffics.traveldist 0 1\nbroken\n", origin="custom.rules")


class TestValidateWeather:
    def test_clean_candidate(self):
        raw = weather_reading({"time_zone": "CST", "temp": "21.4", "hum": "67",
                               "wdird": "210", "wdire": "SSW"})
        record, report = validate_weather(raw, RULES)
        assert report.clean
        assert record.temp == 21.4 and record.hum == 67.0
        assert record.wdird == 210.0 and record.wdire == "SSW"
        assert record.tz == "CST"
        assert record.timestamp == datetime(2016, 5, 16, 8, 5)

    def test_out_of_range_becomes_na(self):
        raw = weather_reading({"wdird": "365", "temp": "21.0"})
        record, report = validate_weather(raw, RULES)
        assert record.wdird is None
        assert record.temp == 21.0
        assert [e.attribute for e in report.entries] == ["wdird"]
        assert report.entries[0].value == "365"
        assert report.entries[0].rule == "weathers.wdird 0 360"

    def test_boundary_values_kept(self):
        raw = weather_reading({"wdird": "360", "hum": "100", "temp": "-30"})
        record, report = validate_weather(raw, RULES)
        assert report.clean
        assert record.wdird == 360.0 and record.hum == 100.0 and record.temp == -30.0

    def test_unparseable_becomes_na(self):
        raw = weather_reading({"temp": "warm"})
        record, report = validate_weather(raw, RULES)
        assert record.temp is None
        assert report.entries[0].value == "warm"

    @pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_becomes_na(self, text):
        # nan slips past inclusive bound checks, so it needs its own gate
        record, report = validate_weather(weather_reading({"temp": text}), RULES)
        assert record.temp is None
        assert [e.attribute for e in report.entries] == ["temp"]

    def test_non_finite_traffic_rejects(self):
        fields = {"traveldist": "nan", "traveltime_std": "1215",
                  "traveltime_curr": "2066"}
        with pytest.raises(RecordRejected):
            validate_traffic(traffic_reading(fields), RULES)

    def test_bad_flag_becomes_na(self):
        raw = weather_reading({"fog": "2", "rain": "1"}, target="apt_escobedo",
                              station_kind="airport")
        record, report = validate_weather(raw, RULES)
        assert record.fog is None and record.rain == 1
        assert [e.attribute for e in report.entries] == ["fog"]

    def test_bad_compass_code_becomes_na(self):
        raw = weather_reading({"wdire": "SSX"})
        record, report = validate_weather(raw, RULES)
        assert record.wdire is None
        assert report.entries[0].rule == "16-point compass code"

    def test_codes_pass_through(self):
        raw = weather_reading({"cond": "Partly Cloudy", "icon": "partlycloudy"})
        record, report = validate_weather(raw, RULES)
        assert report.clean
        assert record.cond == "Partly Cloudy" and record.icon == "partlycloudy"

    @pytest.mark.parametrize("attr", ["time_zone", "cond", "icon", "metar"])
    @pytest.mark.parametrize("text", ["a\rb", "a\nb", "\n", "a\x00b"],
                             ids=["cr", "lf", "lf only", "nul"])
    def test_line_break_or_nul_in_text_becomes_na(self, attr, text):
        # Ingest splits payloads at every line break, so only a
        # hand-built reading holds one.
        raw = weather_reading({attr: text, "temp": "20.5"}, target="apt_escobedo",
                              station_kind="airport")
        record, report = validate_weather(raw, RULES)
        assert record.temp == 20.5
        assert getattr(record, "tz" if attr == "time_zone" else attr) is None
        assert [(e.attribute, e.value, e.rule) for e in report.entries] == [
            (attr, text, "text without a line break or NUL")]

    def test_airport_only_guard_for_hand_built_reading(self):
        # the parser blocks these lines; validation still guards direct input
        raw = weather_reading({"vis": "10", "temp": "20"})
        record, report = validate_weather(raw, RULES)
        assert record.vis is None
        assert "vis" in [e.attribute for e in report.entries]

    def test_airport_keeps_airport_attributes(self):
        raw = weather_reading({"vis": "10", "metar": "METAR X"},
                              target="apt_escobedo", station_kind="airport")
        record, report = validate_weather(raw, RULES)
        assert report.clean
        assert record.vis == 10.0 and record.metar == "METAR X"

    def test_bad_timestamp_rejects(self):
        raw = weather_reading({"temp": "20"}, ts="not-a-time")
        with pytest.raises(RecordRejected):
            validate_weather(raw, RULES)

    def test_missing_target_rejects(self):
        raw = weather_reading({"temp": "20"}, target="")
        with pytest.raises(RecordRejected, match="location"):
            validate_weather(raw, RULES)

    def test_wrong_kind_is_precondition(self):
        raw = traffic_reading({"traveldist": "1"})
        with pytest.raises(PreconditionError):
            validate_weather(raw, RULES)

    def test_conservation(self):
        # every supplied field either survives or is reported, never both
        raw = weather_reading({
            "time_zone": "CST", "temp": "21.4", "hum": "150", "wspd": "junk",
            "wdird": "365", "wdire": "N", "cond": "Clear",
        })
        record, report = validate_weather(raw, RULES)
        reported = {e.attribute for e in report.entries}
        survived = {a for a in raw.fields if a != "time_zone"
                    and getattr(record, a) is not None}
        assert reported == {"hum", "wspd", "wdird"}
        assert survived == {"temp", "wdire", "cond"}
        assert reported | survived == set(raw.fields) - {"time_zone"}
        assert not (reported & survived)

    def test_idempotent(self):
        raw = weather_reading({"temp": "21.4", "hum": "150", "wdire": "N"})
        record, report = validate_weather(raw, RULES)
        again = weather_reading({
            a: str(getattr(record, a))
            for a in raw.fields if getattr(record, a) is not None})
        record2, report2 = validate_weather(again, RULES)
        assert report2.clean
        assert record2.temp == record.temp and record2.wdire == record.wdire


class TestValidateTraffic:
    GOOD = {"traveldist": "18560", "traveltime_std": "1215",
            "traveltime_curr": "2066"}

    def test_clean_candidate(self):
        record, report = validate_traffic(traffic_reading(self.GOOD), RULES)
        assert report.clean
        assert record.traveldist == 18560.0
        assert record.traveltime_std == 1215.0
        assert record.traveltime_curr == 2066.0

    @pytest.mark.parametrize("attr,bad", [
        ("traveldist", "0"),         # below min
        ("traveldist", "200001"),    # above max
        ("traveltime_std", "0"),
        ("traveltime_curr", "86401"),
        ("traveltime_curr", "soon"),
    ])
    def test_any_defect_rejects_whole_record(self, attr, bad):
        fields = dict(self.GOOD, **{attr: bad})
        with pytest.raises(RecordRejected) as err:
            validate_traffic(traffic_reading(fields), RULES)
        assert [e.attribute for e in err.value.report.entries] == [attr]
        assert err.value.report.entries[0].value == bad

    def test_missing_field_rejects(self):
        fields = {"traveldist": "18560", "traveltime_std": "1215"}
        with pytest.raises(RecordRejected) as err:
            validate_traffic(traffic_reading(fields), RULES)
        entry = err.value.report.entries[0]
        assert entry.attribute == "traveltime_curr"
        assert entry.value == "<missing>"

    def test_all_defects_listed(self):
        fields = {"traveldist": "x", "traveltime_std": "0",
                  "traveltime_curr": "10"}
        with pytest.raises(RecordRejected) as err:
            validate_traffic(traffic_reading(fields), RULES)
        assert {e.attribute for e in err.value.report.entries} == {
            "traveldist", "traveltime_std"}

    def test_boundaries_kept(self):
        fields = {"traveldist": "1", "traveltime_std": "86400",
                  "traveltime_curr": "1"}
        record, report = validate_traffic(traffic_reading(fields), RULES)
        assert report.clean and record.traveldist == 1.0


class TestValidatePollution:
    def test_clean_candidate(self):
        raw = pollution_reading({"pm10": "45", "o3": "30"})
        record, report = validate_pollution(raw, RULES)
        assert report.clean
        assert record.pm10 == 45 and record.o3 == 30 and record.co is None

    def test_fractional_becomes_na(self):
        raw = pollution_reading({"pm10": "45.5"})
        record, report = validate_pollution(raw, RULES)
        assert record.pm10 is None
        assert report.entries[0].value == "45.5"

    @pytest.mark.parametrize("bad", ["-1", "501", "n/a", ""])
    def test_out_of_scale_or_junk_becomes_na(self, bad):
        raw = pollution_reading({"o3": bad})
        record, report = validate_pollution(raw, RULES)
        assert record.o3 is None
        assert len(report.entries) == 1

    def test_scale_boundaries_kept(self):
        raw = pollution_reading({"pm10": "0", "o3": "500"})
        record, report = validate_pollution(raw, RULES)
        assert report.clean and record.pm10 == 0 and record.o3 == 500

    @pytest.mark.parametrize("ts", [
        "2016-05-16T00:00:00",
        "2016-05-16T01:00:00",
    ])
    def test_early_hours_reject(self, ts):
        with pytest.raises(RecordRejected, match="hour 0"):
            validate_pollution(pollution_reading({"pm10": "45"}, ts=ts), RULES)

    def test_off_hour_timestamp_rejects(self):
        raw = pollution_reading({"pm10": "45"}, ts="2016-05-16T08:30:00")
        with pytest.raises(RecordRejected, match="exact hour"):
            validate_pollution(raw, RULES)

    def test_empty_candidate_is_all_na(self):
        record, report = validate_pollution(pollution_reading({}), RULES)
        assert report.clean
        assert all(getattr(record, c) is None for c in CONTAMINANTS)

    def test_conservation(self):
        raw = pollution_reading({"pm10": "45", "o3": "1.5", "co": "junk",
                                 "so2": "501"})
        record, report = validate_pollution(raw, RULES)
        reported = {e.attribute for e in report.entries}
        survived = {c for c in raw.fields if getattr(record, c) is not None}
        assert reported == {"o3", "co", "so2"} and survived == {"pm10"}
        assert reported | survived == set(raw.fields)


# text that looks like what flaky sensors emit
_FIELD_TEXT = st.one_of(
    st.integers(-500, 1000).map(str),
    st.floats(-200, 1200, allow_nan=False).map(lambda v: f"{v:.1f}"),
    st.sampled_from(["", "n/a", "null", "—", "1e3", " 5", "5 "]),
)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from(WEATHER_NUMERIC_ATTRIBUTES),
                           _FIELD_TEXT, max_size=6))
    def test_weather_total_and_conserving(self, fields):
        record, report = validate_weather(weather_reading(
            fields, target="apt_escobedo", station_kind="airport"), RULES)
        reported = [e.attribute for e in report.entries]
        assert len(reported) == len(set(reported))
        for attr in fields:
            survived = getattr(record, attr) is not None
            assert survived != (attr in reported)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from(CONTAMINANTS), _FIELD_TEXT,
                           max_size=6))
    def test_pollution_total_and_conserving(self, fields):
        record, report = validate_pollution(pollution_reading(fields), RULES)
        for attr in fields:
            survived = getattr(record, attr) is not None
            assert survived != (attr in [e.attribute for e in report.entries])
        for c in CONTAMINANTS:
            v = getattr(record, c)
            assert v is None or (isinstance(v, int) and 0 <= v <= 500)

    @settings(max_examples=200, deadline=None)
    @given(st.fixed_dictionaries({
        "traveldist": _FIELD_TEXT, "traveltime_std": _FIELD_TEXT,
        "traveltime_curr": _FIELD_TEXT}))
    def test_traffic_atomicity(self, fields):
        try:
            record, report = validate_traffic(traffic_reading(fields), RULES)
        except RecordRejected as err:
            assert err.report.entries
            return
        assert report.clean
        assert record.traveldist is not None
        assert record.traveltime_std is not None
        assert record.traveltime_curr is not None

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.sampled_from(CONTAMINANTS), _FIELD_TEXT,
                           max_size=6))
    def test_pollution_idempotent(self, fields):
        record, _ = validate_pollution(pollution_reading(fields), RULES)
        clean_fields = {c: str(getattr(record, c)) for c in CONTAMINANTS
                        if getattr(record, c) is not None}
        record2, report2 = validate_pollution(
            pollution_reading(clean_fields), RULES)
        assert report2.clean
        assert all(getattr(record2, c) == getattr(record, c)
                   for c in CONTAMINANTS)


def test_report_key_names_candidate():
    raw = pollution_reading({"pm10": "45"})
    _, report = validate_pollution(raw, RULES)
    assert report.key == "2016-05-16T08:00:00 sima_centro"


def test_report_accumulates():
    report = ValidationReport(key="k")
    assert report.clean
    report.add("a", "x", "rule")
    assert not report.clean and len(report.entries) == 1
