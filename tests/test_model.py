from __future__ import annotations

import dataclasses
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from urbanobs.errors import ConfigError, OutOfRangeError
from urbanobs.model import (
    COMPASS_CODES,
    CONTAMINANTS,
    GeoPoint,
    ImecaCategory,
    PollutionRecord,
    TrafficRecord,
    WEATHER_FLAG_ATTRIBUTES,
    WEATHER_NUMERIC_ATTRIBUTES,
    WeatherRecord,
    classify_imeca,
    compass_point,
    enumerate_routes,
    haversine_m,
)
from urbanobs.validation import DEFAULT_RULES_TEXT


class TestImeca:
    def test_category_bounds(self):
        assert ImecaCategory.GOOD.value == (0, 50)
        assert ImecaCategory.REGULAR.value == (51, 100)
        assert ImecaCategory.BAD.value == (101, 150)
        assert ImecaCategory.VERY_BAD.value == (151, 200)
        assert ImecaCategory.EXTREMELY_BAD.value == (201, 500)

    @pytest.mark.parametrize("value,expected", [
        (0, ImecaCategory.GOOD),
        (50, ImecaCategory.GOOD),
        (51, ImecaCategory.REGULAR),
        (100, ImecaCategory.REGULAR),
        (101, ImecaCategory.BAD),
        (150, ImecaCategory.BAD),
        (151, ImecaCategory.VERY_BAD),
        (200, ImecaCategory.VERY_BAD),
        (201, ImecaCategory.EXTREMELY_BAD),
        (500, ImecaCategory.EXTREMELY_BAD),
    ])
    def test_boundaries(self, value, expected):
        assert classify_imeca(value) is expected

    @pytest.mark.parametrize("bad", [-1, 501, 1000, -500])
    def test_out_of_scale(self, bad):
        with pytest.raises(OutOfRangeError):
            classify_imeca(bad)

    @pytest.mark.parametrize("bad", [49.5, "50", None, True])
    def test_non_integers_rejected(self, bad):
        with pytest.raises(OutOfRangeError):
            classify_imeca(bad)

    def test_partition_exhaustive(self):
        # every value on the scale falls in exactly one category
        for v in range(0, 501):
            hits = [c for c in ImecaCategory if c.low <= v <= c.high]
            assert len(hits) == 1
            assert classify_imeca(v) is hits[0]

    def test_severity_monotone(self):
        last = -1
        for v in range(0, 501):
            sev = classify_imeca(v).severity
            assert sev >= last
            last = sev
        assert last == 4


class TestCompass:
    def test_cardinals(self):
        assert compass_point(0) == "N"
        assert compass_point(90) == "E"
        assert compass_point(180) == "S"
        assert compass_point(270) == "W"
        assert compass_point(225) == "SW"

    def test_full_circle_alias(self):
        assert compass_point(360) == compass_point(0) == "N"

    def test_half_open_boundaries(self):
        # 11.25 opens the NNE sector; just below is still N
        assert compass_point(11.25) == "NNE"
        assert compass_point(11.249) == "N"
        assert compass_point(348.75) == "N"
        assert compass_point(348.749) == "NNW"

    def test_every_integer_degree_has_one_code(self):
        # oracle: sector index from the center-distance definition
        for deg in range(0, 361):
            code = compass_point(deg)
            d = deg % 360
            matches = []
            for i, c in enumerate(COMPASS_CODES):
                center = i * 22.5
                delta = min(abs(d - center), 360 - abs(d - center))
                if delta < 11.25 or (delta == 11.25 and
                                     (d - center) % 360 == 11.25):
                    matches.append(c)
            assert matches == [code]

    @pytest.mark.parametrize("bad", [-0.1, 360.1, 720, float("nan")])
    def test_out_of_range(self, bad):
        with pytest.raises(OutOfRangeError):
            compass_point(bad)


def _mkpoints(n):
    return [GeoPoint(name=f"p{i:02d}", lat=25.0 + i * 0.01, long=-100.0 - i * 0.01)
            for i in range(n)]


class TestRoutes:
    def test_count_seven(self):
        assert len(enumerate_routes(_mkpoints(7))) == 42

    def test_smallest(self):
        routes = enumerate_routes(_mkpoints(2))
        assert [r.file_id for r in routes] == ["p00-p01", "p01-p00"]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_against_bruteforce(self, n):
        points = _mkpoints(n)
        routes = enumerate_routes(points)
        # oracle: nested loops over all pairs, drop a == b
        expected = set()
        for a in points:
            for b in points:
                if a.name != b.name:
                    expected.add((a.name, b.name))
        got = {(r.file_id.split("-")[0], r.file_id.split("-")[1]) for r in routes}
        assert got == expected
        assert len(routes) == n * (n - 1)

    def test_no_self_routes_no_duplicates(self):
        routes = enumerate_routes(_mkpoints(6))
        ids = [r.file_id for r in routes]
        assert len(ids) == len(set(ids))
        for r in routes:
            assert (r.start_lat, r.start_long) != (r.end_lat, r.end_long)

    def test_deterministic_order(self):
        pts = _mkpoints(5)
        a = [r.file_id for r in enumerate_routes(pts)]
        b = [r.file_id for r in enumerate_routes(list(reversed(pts)))]
        assert a == b == sorted(a)

    def test_duplicate_name_rejected(self):
        pts = _mkpoints(3)
        pts.append(GeoPoint(name="p00", lat=26.0, long=-101.0))
        with pytest.raises(ConfigError, match="p00"):
            enumerate_routes(pts)

    def test_duplicate_coordinates_rejected(self):
        pts = _mkpoints(3)
        pts.append(GeoPoint(name="other", lat=pts[0].lat, long=pts[0].long))
        with pytest.raises(ConfigError, match="share coordinates"):
            enumerate_routes(pts)

    def test_two_pairs_sharing_an_id_rejected(self):
        # a -> b-c and a-b -> c would both be route "a-b-c"
        pts = [GeoPoint(name=name, lat=25.0 + i * 0.01, long=-100.0)
               for i, name in enumerate(["a-b", "c", "a", "b-c"])]
        with pytest.raises(ConfigError, match=(
                "routes 'a' -> 'b-c' and 'a-b' -> 'c' share the id 'a-b-c'")):
            enumerate_routes(pts)

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            enumerate_routes(_mkpoints(1))


class TestRecords:
    TS = datetime(2016, 5, 16, 12, 0, 0)

    def test_weather_defaults_all_na(self):
        rec = WeatherRecord(timestamp=self.TS, station="pws_x")
        assert rec.temp is None and rec.metar is None

    def test_weather_invariants(self):
        with pytest.raises(OutOfRangeError):
            WeatherRecord(timestamp=self.TS, station="pws_x", hum=101)
        with pytest.raises(OutOfRangeError):
            WeatherRecord(timestamp=self.TS, station="pws_x", wdird=-1)
        with pytest.raises(OutOfRangeError):
            WeatherRecord(timestamp=self.TS, station="pws_x", rain=2)
        with pytest.raises(OutOfRangeError):
            WeatherRecord(timestamp=self.TS, station="pws_x", wdire="XX")

    @pytest.mark.parametrize("name", ["tz", "cond", "icon", "metar"])
    @pytest.mark.parametrize("text", ["a\rb", "a\nb", "\r\n", "a\x00b", ""],
                             ids=["cr", "lf", "crlf", "nul", "empty"])
    def test_weather_text_exports_as_stored(self, name, text):
        # None of these re-imports from a CSV export on every Python.
        with pytest.raises(OutOfRangeError,
                           match=f"^{name} text is empty or holds a line break or NUL$"):
            WeatherRecord(timestamp=self.TS, station="pws_x", **{name: text})

    def test_weather_text_keeps_other_characters(self):
        rec = WeatherRecord(timestamp=self.TS, station="pws_x",
                            metar='METAR "caf\xe9", \t\x0b\u2028')
        assert rec.metar == 'METAR "caf\xe9", \t\x0b\u2028'

    def test_wdird_360_stored_verbatim(self):
        rec = WeatherRecord(timestamp=self.TS, station="pws_x", wdird=360.0)
        assert rec.wdird == 360.0

    def test_traffic_triple_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            TrafficRecord(timestamp=self.TS, route="a-b", traveldist=0,
                          traveltime_std=100, traveltime_curr=100)

    def test_pollution_rejects_early_hours(self):
        for hour in (0, 1):
            with pytest.raises(OutOfRangeError):
                PollutionRecord(timestamp=self.TS.replace(hour=hour),
                                station="sima_x")

    def test_pollution_must_be_exact_hour(self):
        with pytest.raises(OutOfRangeError):
            PollutionRecord(timestamp=self.TS.replace(minute=30), station="sima_x")

    @pytest.mark.parametrize("make", [
        lambda ts: WeatherRecord(timestamp=ts, station="pws_x"),
        lambda ts: TrafficRecord(timestamp=ts, route="a-b", traveldist=1,
                                 traveltime_std=1, traveltime_curr=1),
        lambda ts: PollutionRecord(timestamp=ts, station="sima_x"),
    ], ids=["weather", "traffic", "pollution"])
    @pytest.mark.parametrize("ts", [
        TS.replace(microsecond=200_000), TS.replace(tzinfo=timezone.utc),
    ], ids=["sub-second", "zoned"])
    def test_timestamp_is_naive_in_whole_seconds(self, make, ts):
        # Stored text keeps neither: 12:00:00.2 and 12:00:00.7 would
        # share one row, and an offset would sort among local times.
        with pytest.raises(OutOfRangeError, match="not naive local time in whole seconds"):
            make(ts)

    def test_pollution_all_na_is_fine(self):
        rec = PollutionRecord(timestamp=self.TS.replace(minute=0), station="sima_x")
        assert rec.worst_category() is None

    def test_worst_category(self):
        rec = PollutionRecord(timestamp=self.TS.replace(minute=0),
                              station="sima_x", pm10=42, o3=180)
        assert rec.worst_category() is ImecaCategory.VERY_BAD
        assert set(CONTAMINANTS) == {"pm10", "o3", "co", "so2", "no2", "pm25"}


class TestDerivedAttributes:
    """The attribute tuples come from the record annotations; a field
    written another way (say `Optional[float]`) would silently drop out
    of range checking."""

    MEASURES = tuple(f.name for f in dataclasses.fields(WeatherRecord)
                     if f.name not in ("timestamp", "station", "tz"))

    def test_each_weather_measure_in_exactly_one_group(self):
        groups = (WEATHER_NUMERIC_ATTRIBUTES, WEATHER_FLAG_ATTRIBUTES,
                  ("wdire", "cond", "icon", "metar"))
        for name in self.MEASURES:
            assert sum(name in g for g in groups) == 1, name
        assert sorted(sum(groups, ())) == sorted(self.MEASURES)

    def test_default_weather_rules_name_the_numeric_measures(self):
        names = tuple(line.split()[0].partition(".")[2]
                      for line in DEFAULT_RULES_TEXT.splitlines()
                      if line.startswith("weathers."))
        assert names == WEATHER_NUMERIC_ATTRIBUTES


@given(st.integers(min_value=0, max_value=500))
def test_classify_total_on_scale(v):
    assert classify_imeca(v) in ImecaCategory


@given(st.floats(min_value=0, max_value=360, allow_nan=False))
def test_compass_total_on_range(deg):
    assert compass_point(deg) in COMPASS_CODES


def test_haversine_known_distance():
    # Monterrey airport to the west gate, roughly 34 km
    d = haversine_m(25.7785, -100.1070, 25.6730, -100.4580)
    assert 30000 < d < 40000
    assert haversine_m(25.0, -100.0, 25.0, -100.0) == 0.0
