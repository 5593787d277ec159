from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from contextlib import contextmanager
from datetime import date, datetime, timedelta
from pathlib import Path

import pytest

from urbanobs import synth

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
from urbanobs.scheduler import build_plan, run_day
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


class _Listed(Exception):
    """Carries the request list run_day handed to read_ahead."""


class _ListingSource(SynthSource):
    def read_ahead(self, requests):
        raise _Listed(list(requests))


def _day_requests(cfg, store) -> list:
    """The (method, args) fetches run_day makes for one default-config day."""
    plan = build_plan(cfg.windows, cfg.routes, DAY)
    with pytest.raises(_Listed) as listed:
        run_day(plan, _ListingSource(cfg.profile), store, cfg)
    return listed.value.args[0]


@contextmanager
def _inline_renders(monkeypatch, delay_s=0.0):
    """Record the gen_* calls of this process, each delayed by delay_s.

    Entered after read_ahead has forked, it leaves the child's renderers
    as they are: the calls it records are the fetches rendered inline.
    """
    calls = []

    def recording(gen):
        def render(profile, *args):
            calls.append(args)
            time.sleep(delay_s)
            return gen(profile, *args)
        return render

    with monkeypatch.context() as m:
        for gen in (gen_weather_day, gen_traffic_response, gen_pollution_day):
            m.setattr(synth, gen.__name__, recording(gen))
        yield calls


def _wait_for_exit(pid: int, timeout_s: float = 30.0) -> None:
    """Wait until the child has exited, leaving it to be reaped."""
    deadline = time.monotonic() + timeout_s
    while os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
        if time.monotonic() > deadline:
            pytest.fail(f"read-ahead child {pid} still ran after {timeout_s} s")
        time.sleep(0.001)


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.fork and os.waitid")
class TestReadAhead:
    def test_every_fetch_of_a_default_day_equals_inline(self, default_cfg, store,
                                                        forks, monkeypatch):
        requests = _day_requests(default_cfg, store)
        assert len(requests) == 32 + 2436 + 10
        want = [getattr(SynthSource(default_cfg.profile), method)(*args)
                for method, args in requests]
        src = SynthSource(default_cfg.profile)
        with src.read_ahead(requests):
            # A slow inline render lets the child run ahead, so most
            # payloads are the child's.
            with _inline_renders(monkeypatch, delay_s=0.001) as inline:
                got = [getattr(src, method)(*args) for method, args in requests]
        assert len(forks) == 1
        assert got == want
        assert len(inline) < len(requests) // 2

    def test_unrenderable_and_unlisted_fetches_are_inline(self, forks, monkeypatch):
        src = SynthSource()
        polls = [("fetch_traffic", (ROUTE, datetime(2016, 5, 16, 6, m)))
                 for m in range(0, 60, 12)]
        bad = ("fetch_pollution", (MONITOR, DAY, 1))
        with pytest.raises(ConfigError) as inline_err:
            gen_pollution_day(src.profile, MONITOR, DAY, 1)
        unlisted = (ROUTE, datetime(2016, 5, 16, 23, 59))
        with src.read_ahead(polls[:2] + [bad] + polls[2:]):
            _wait_for_exit(forks[0])  # everything it could render has arrived
            with _inline_renders(monkeypatch) as inline:
                got = [src.fetch_traffic(*args) for _, args in polls[:2]]
                with pytest.raises(ConfigError) as err:
                    src.fetch_pollution(*bad[1])
                got.append(src.fetch_traffic(*unlisted))
                got += [src.fetch_traffic(*args) for _, args in polls[2:]]
        assert str(err.value) == str(inline_err.value)
        assert inline == [bad[1], unlisted]
        want = [gen_traffic_response(src.profile, *args)
                for args in [p[1] for p in polls[:2]] + [unlisted] + [p[1] for p in polls[2:]]]
        assert got == want

    def test_a_parent_ahead_of_the_child_takes_its_later_payloads(self, forks,
                                                                  monkeypatch):
        # The child blocks at its first render until the parent, having
        # rendered 70 polls inline, opens the gate: the child's frames
        # then start behind the parent, which must skip to its request.
        parent = os.getpid()
        gate_r, gate_w = os.pipe()
        blocked = []

        def gated(profile, route, at):
            if os.getpid() != parent and not blocked:
                blocked.append(os.read(gate_r, 1))
            return gen_traffic_response(profile, route, at)

        monkeypatch.setitem(synth._RENDERERS, "fetch_traffic", gated)
        src = SynthSource()
        polls = [("fetch_traffic", (ROUTE, datetime(2016, 5, 16, 0, 0) + timedelta(minutes=m)))
                 for m in range(200)]
        try:
            with src.read_ahead(polls):
                with _inline_renders(monkeypatch) as inline:
                    got = [src.fetch_traffic(*args) for _, args in polls[:70]]
                    os.write(gate_w, b"x")
                    _wait_for_exit(forks[0])
                    got += [src.fetch_traffic(*args) for _, args in polls[70:]]
        finally:
            os.close(gate_r)
            os.close(gate_w)
        assert inline == [args for _, args in polls[:70]]
        assert got == [gen_traffic_response(src.profile, *args) for _, args in polls]

    @pytest.mark.parametrize("gate", ["one cpu", "a second thread", "no fork",
                                      "fork fails", "no affinity call", "SIGCHLD ignored"])
    def test_inline_without_a_second_cpu_or_fork_or_with_a_thread(self, forks,
                                                                    monkeypatch, gate):
        if gate == "one cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0})
        elif gate == "no fork":
            monkeypatch.delattr(os, "fork")
        elif gate == "no affinity call":
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        pipes = []
        if gate == "fork fails":
            def failing_fork():
                raise OSError("out of processes")

            def recording_pipe(pipe=os.pipe):
                pipes.extend(pipe())
                return tuple(pipes[-2:])

            monkeypatch.setattr(os, "fork", failing_fork)
            monkeypatch.setattr(os, "pipe", recording_pipe)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if gate == "a second thread":
            thread.start()
        if gate == "SIGCHLD ignored":
            previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        src = SynthSource()
        polls = [("fetch_traffic", (ROUTE, datetime(2016, 5, 16, 7, m))) for m in range(3)]
        try:
            with src.read_ahead(polls), _inline_renders(monkeypatch) as inline:
                got = [src.fetch_traffic(*args) for _, args in polls]
        finally:
            release.set()
            if gate == "a second thread":
                thread.join(timeout=10)
            if gate == "SIGCHLD ignored":
                signal.signal(signal.SIGCHLD, previous)
        assert not thread.is_alive()
        assert forks == []
        assert len(pipes) == (2 if gate == "fork fails" else 0)
        for fd in pipes:
            with pytest.raises(OSError):
                os.fstat(fd)
        assert inline == [args for _, args in polls]
        assert got == [gen_traffic_response(src.profile, *args) for _, args in polls]

    def test_a_child_whose_reader_is_gone_exits_and_prints_nothing(self, tmp_path):
        # The parent exits inside read_ahead, so the child's next write
        # finds no reader. Both hold the captured pipes until they exit.
        pid_file = tmp_path / "child.pid"
        code = textwrap.dedent(f"""
            import os, sys
            from datetime import date, timedelta
            from urbanobs.config import load_default
            from urbanobs.synth import SynthSource

            os.sched_getaffinity = lambda _pid: {{0, 1}}
            fork = os.fork

            def recording_fork():
                pid = fork()
                if pid:
                    with open({str(pid_file)!r}, "w", encoding="utf-8") as f:
                        f.write(str(pid))
                return pid

            os.fork = recording_fork
            cfg = load_default()
            # About 2 MB of payloads: more than the pipe holds.
            requests = [("fetch_weather", (meta, date(2016, 5, 16) + timedelta(days=d)))
                        for d in range(3) for meta in cfg.weather_stations]
            print("buffered, never flushed")
            with SynthSource(cfg.profile).read_ahead(requests):
                os._exit(0)
        """)
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               env=env, timeout=60)
        assert pid_file.read_text(encoding="utf-8").isdigit()
        assert (child.returncode, child.stdout, child.stderr) == (0, b"", b"")
