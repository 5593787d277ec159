from __future__ import annotations

import dataclasses
from datetime import date, datetime

import pytest

from urbanobs.config import StationMeta
from urbanobs.connectors import (
    NA_CELL,
    parse_pollution_tables,
    parse_traffic_response,
    parse_weather_observations,
)
from urbanobs.errors import ConfigError
from urbanobs.model import (
    CONTAMINANTS,
    ImecaCategory,
    PollutionStation,
    TrafficRoute,
    WeatherStation,
    classify_imeca,
)
from urbanobs.synth import (
    ROUTE_DIST_MAX_M,
    ROUTE_DIST_MIN_M,
    SynthProfile,
    SynthSource,
    gen_pollution_day,
    gen_traffic_response,
    gen_weather_day,
    route_distance_m,
)
from urbanobs.validation import RuleSet, validate_pollution, validate_weather

DAY = date(2016, 5, 16)
RULES = RuleSet.defaults()

PWS = WeatherStation(file_id="pws_x", lat=25.67, long=-100.31,
                     station_id="KX0001")
AIRPORT = WeatherStation(file_id="apt_x", lat=25.78, long=-100.11,
                         airport_code="MMXX")
ROUTE = TrafficRoute(file_id="a-b", start_lat=25.67, start_long=-100.31,
                     end_lat=25.78, end_long=-100.11)
MONITOR = PollutionStation(file_id="sima_x", lat=25.67, long=-100.34)


def meta(station=PWS, interval=30):
    return StationMeta(station=station, tz="CST", interval_min=interval)


class TestProfile:
    @pytest.mark.parametrize("field,value", [
        ("gap_prob", -0.1), ("gap_prob", 1.1),
        ("episode_prob", 2.0), ("outage_prob", -1.0), ("cell_gap_prob", 1.5),
        ("peak_multiplier", 0.9),
        ("free_flow_kmh", 0.0),
    ])
    def test_bad_knobs_rejected(self, field, value):
        with pytest.raises(ConfigError):
            dataclasses.replace(SynthProfile(), **{field: value})

    def test_missing_baseline_rejected(self):
        with pytest.raises(ConfigError, match="missing"):
            SynthProfile(baselines={"pm10": 45})

    def test_bad_peak_window_rejected(self):
        with pytest.raises(ConfigError, match="peak window"):
            SynthProfile(peak_windows=((400, 300),))


class TestWeather:
    def test_deterministic(self):
        p = SynthProfile(seed=7)
        a = gen_weather_day(p, meta(), DAY)
        b = gen_weather_day(p, meta(), DAY)
        assert a.body == b.body

    def test_seed_changes_output(self):
        a = gen_weather_day(SynthProfile(seed=7), meta(), DAY)
        b = gen_weather_day(SynthProfile(seed=8), meta(), DAY)
        assert a.body != b.body

    def test_day_changes_output(self):
        p = SynthProfile(seed=7)
        a = gen_weather_day(p, meta(), DAY)
        b = gen_weather_day(p, meta(), date(2016, 5, 17))
        assert a.body != b.body

    @pytest.mark.parametrize("interval,expected", [(5, 288), (30, 48), (60, 24)])
    def test_observation_count_follows_cadence(self, interval, expected):
        payload = gen_weather_day(SynthProfile(), meta(interval=interval), DAY)
        readings, quarantined = parse_weather_observations(
            payload, {PWS.file_id: PWS})
        assert len(readings) == expected
        assert quarantined == []

    def test_zero_swing_flattens_the_curve(self):
        p = SynthProfile(temp_swing_c=0.0)
        payload = gen_weather_day(p, meta(), DAY)
        readings, _ = parse_weather_observations(payload, {PWS.file_id: PWS})
        temps = [float(r.fields["temp"]) for r in readings]
        assert max(temps) - min(temps) <= 0.81  # only the +/-0.4 jitter

    def test_afternoon_warmer_than_predawn(self):
        payload = gen_weather_day(SynthProfile(), meta(interval=60), DAY)
        readings, _ = parse_weather_observations(payload, {PWS.file_id: PWS})
        t = {r.timestamp[11:13]: float(r.fields["temp"]) for r in readings}
        assert t["15"] > t["04"] + 5

    def test_every_observation_validates_clean(self):
        for station in (PWS, AIRPORT):
            payload = gen_weather_day(SynthProfile(), meta(station), DAY)
            readings, _ = parse_weather_observations(
                payload, {station.file_id: station})
            for raw in readings:
                record, report = validate_weather(raw, RULES)
                assert report.clean, report.entries

    def test_cold_windy_readings_carry_a_windchill(self, default_cfg):
        profile = dataclasses.replace(default_cfg.profile, temp_mean_c=0)
        stations = {m.station.file_id: m.station
                    for m in default_cfg.weather_stations}
        windchills = substitutions = total = 0
        for m in default_cfg.weather_stations:
            payload = gen_weather_day(profile, m, date(2016, 1, 15))
            readings, _ = parse_weather_observations(payload, stations)
            for raw in readings:
                record, report = validate_weather(raw, default_cfg.rules)
                total += 1
                windchills += record.windchill is not None
                substitutions += len(report.entries)
                if record.windchill is not None:
                    assert record.windchill <= record.temp
        assert (total, windchills, substitutions) == (3576, 2837, 0)

    def test_airport_extras(self):
        payload = gen_weather_day(SynthProfile(), meta(AIRPORT, 60), DAY)
        readings, _ = parse_weather_observations(
            payload, {AIRPORT.file_id: AIRPORT})
        for r in readings:
            assert r.fields["metar"].startswith("METAR MMXX")
            assert "vis" in r.fields
            assert r.fields["snow"] == "0"

    def test_pws_never_carries_airport_fields(self):
        payload = gen_weather_day(SynthProfile(), meta(), DAY)
        assert "metar" not in payload.body
        assert " vis=" not in payload.body

    def test_gap_prob_one_drops_flaky_fields(self):
        p = SynthProfile(gap_prob=1.0)
        payload = gen_weather_day(p, meta(), DAY)
        readings, _ = parse_weather_observations(payload, {PWS.file_id: PWS})
        for r in readings:
            assert "wspd" not in r.fields and "uv" not in r.fields
            assert "temp" in r.fields  # core readings always arrive

    def test_timestamps_cover_one_day(self):
        payload = gen_weather_day(SynthProfile(), meta(interval=60), DAY)
        readings, _ = parse_weather_observations(payload, {PWS.file_id: PWS})
        stamps = [r.timestamp for r in readings]
        assert stamps[0] == "2016-05-16T00:00:00"
        assert stamps[-1] == "2016-05-16T23:00:00"
        assert stamps == sorted(stamps)


class TestTraffic:
    def test_distance_in_observed_bounds(self):
        d = route_distance_m(SynthProfile(), ROUTE)
        assert ROUTE_DIST_MIN_M <= d <= ROUTE_DIST_MAX_M

    def test_distance_constant_per_route(self):
        p = SynthProfile()
        assert route_distance_m(p, ROUTE) == route_distance_m(p, ROUTE)

    def test_all_default_routes_in_bounds(self, default_cfg):
        for route in default_cfg.routes:
            d = route_distance_m(default_cfg.profile, route)
            assert ROUTE_DIST_MIN_M <= d <= ROUTE_DIST_MAX_M

    def test_deterministic(self):
        p = SynthProfile(seed=7)
        at = datetime(2016, 5, 16, 7, 48)
        assert (gen_traffic_response(p, ROUTE, at).body
                == gen_traffic_response(p, ROUTE, at).body)

    def _fields(self, at, profile=None):
        payload = gen_traffic_response(profile or SynthProfile(), ROUTE, at)
        return parse_traffic_response(payload, ROUTE).fields

    def test_current_never_beats_free_flow(self):
        for hour in range(24):
            f = self._fields(datetime(2016, 5, 16, hour, 0))
            assert int(f["traveltime_curr"]) >= int(f["traveltime_std"])

    def test_peak_slower_than_off_peak(self):
        peak = self._fields(datetime(2016, 5, 16, 8, 0))      # inside 06:30-09:30
        quiet = self._fields(datetime(2016, 5, 16, 13, 0))
        std = int(peak["traveltime_std"])
        assert int(peak["traveltime_curr"]) >= int(1.45 * std)
        assert int(quiet["traveltime_curr"]) <= int(1.09 * std) + 1

    def test_std_follows_free_flow_speed(self):
        f = self._fields(datetime(2016, 5, 16, 13, 0))
        dist = int(f["traveldist"])
        expect = dist / (55.0 / 3.6)
        assert abs(int(f["traveltime_std"]) - expect) <= 1.0


class TestPollution:
    def test_deterministic(self):
        p = SynthProfile(seed=7)
        assert (gen_pollution_day(p, MONITOR, DAY).body
                == gen_pollution_day(p, MONITOR, DAY).body)

    @pytest.mark.parametrize("request_hour,hours", [(23, 22), (5, 4), (2, 1)])
    def test_hour_grid_follows_request(self, request_hour, hours):
        payload = gen_pollution_day(SynthProfile(), MONITOR, DAY,
                                    request_hour=request_hour)
        readings = parse_pollution_tables(payload)
        assert len(readings) == hours * len(CONTAMINANTS)

    @pytest.mark.parametrize("request_hour", [0, 1, 24, -3])
    def test_bad_request_hour(self, request_hour):
        with pytest.raises(ConfigError, match="request hour"):
            gen_pollution_day(SynthProfile(), MONITOR, DAY,
                              request_hour=request_hour)

    def test_outage_day_is_all_dashes(self):
        p = SynthProfile(outage_prob=1.0)
        payload = gen_pollution_day(p, MONITOR, DAY)
        readings = parse_pollution_tables(payload)
        assert len(readings) == 22 * len(CONTAMINANTS)
        assert all(r.fields == {} for r in readings)
        assert payload.body.count(NA_CELL) == 22 * len(CONTAMINANTS)

    def test_quiet_day_has_no_holes(self):
        p = SynthProfile(outage_prob=0.0, cell_gap_prob=0.0)
        payload = gen_pollution_day(p, MONITOR, DAY)
        readings = parse_pollution_tables(payload)
        assert all(len(r.fields) == 1 for r in readings)

    def test_calm_baseline_stays_in_good_band(self):
        # a 40-point baseline must never leave the lowest category
        base = {c: 40 for c in CONTAMINANTS}
        p = SynthProfile(baselines=base, episode_prob=0.0, outage_prob=0.0)
        for day_n in range(1, 11):
            payload = gen_pollution_day(p, MONITOR, date(2016, 5, day_n))
            for r in parse_pollution_tables(payload):
                for text in r.fields.values():
                    assert classify_imeca(int(text)) is ImecaCategory.GOOD

    def test_episode_breaks_the_band(self):
        base = {c: 40 for c in CONTAMINANTS}
        p = SynthProfile(baselines=base, episode_prob=1.0, outage_prob=0.0,
                         cell_gap_prob=0.0, episode_multiplier=3.0)
        payload = gen_pollution_day(p, MONITOR, DAY)
        values = [int(t) for r in parse_pollution_tables(payload)
                  for t in r.fields.values()]
        assert max(values) > 100

    def test_every_cell_validates_clean(self):
        payload = gen_pollution_day(SynthProfile(), MONITOR, DAY)
        for raw in parse_pollution_tables(payload):
            _, report = validate_pollution(raw, RULES)
            assert report.clean

    def test_values_never_leave_the_scale(self):
        p = SynthProfile(baselines={c: 450 for c in CONTAMINANTS},
                         episode_prob=1.0, episode_multiplier=10.0)
        payload = gen_pollution_day(p, MONITOR, DAY)
        for r in parse_pollution_tables(payload):
            for text in r.fields.values():
                assert 0 <= int(text) <= 500


class TestSource:
    def test_kinds(self):
        src = SynthSource()
        assert src.fetch_weather(meta(), DAY).source_kind == "weather"
        assert src.fetch_traffic(
            ROUTE, datetime(2016, 5, 16, 8)).source_kind == "traffic"
        assert src.fetch_pollution(MONITOR, DAY, 23).source_kind == "pollution"

    def test_origin_names_target_and_day(self):
        src = SynthSource()
        payload = src.fetch_pollution(MONITOR, DAY, 23)
        assert "sima_x" in payload.origin and "2016-05-16" in payload.origin

    def test_profile_respected(self):
        a = SynthSource(SynthProfile(seed=1)).fetch_weather(meta(), DAY)
        b = SynthSource(SynthProfile(seed=2)).fetch_weather(meta(), DAY)
        assert a.body != b.body
