from __future__ import annotations

import dataclasses
import os
import re
import shlex
import signal
import sqlite3
from contextlib import contextmanager
from datetime import date, datetime, time, timedelta
from unittest import mock

import pytest

from urbanobs import connectors
from urbanobs.connectors import SourcePayload
from urbanobs.errors import (
    ConfigError,
    RunAborted,
    SourceError,
    StorageUnavailable,
)
from urbanobs.scheduler import (
    ALL_TARGETS,
    POLLUTION_SCRAPE,
    TRAFFIC_POLL,
    WEATHER_BACKFILL,
    CadencePlan,
    CadenceWindow,
    PlanEntry,
    SimulatedClock,
    build_plan,
    next_due,
    parse_hhmm,
    run_day,
)
from urbanobs.cli import bootstrap_store
from urbanobs.storage import Store, export_csv, import_csv, queryable_attributes
from urbanobs.synth import (
    SynthSource,
    gen_pollution_day,
    gen_traffic_response,
    gen_weather_day,
)
from urbanobs.validation import RuleSet, validate_weather

DAY = date(2016, 5, 16)


class TestParseHhmm:
    @pytest.mark.parametrize("text,minutes", [
        ("00:00", 0), ("06:00", 360), ("23:30", 1410), ("24:00", 1440),
        ("6:30", 390),
    ])
    def test_valid(self, text, minutes):
        assert parse_hhmm(text) == minutes

    @pytest.mark.parametrize("text", [
        "24:01", "25:00", "10:60", "-1:00", "10", "aa:bb", "10:0x", "",
    ])
    def test_invalid(self, text):
        with pytest.raises(ConfigError):
            parse_hhmm(text)


class TestCadenceWindow:
    def test_tick_count(self):
        w = CadenceWindow(TRAFFIC_POLL, 360, 540, 15)
        assert len(w.ticks()) == 12
        assert list(w.ticks())[:2] == [360, 375]

    def test_end_is_exclusive(self):
        w = CadenceWindow(TRAFFIC_POLL, 360, 420, 30)
        assert list(w.ticks()) == [360, 390]

    @pytest.mark.parametrize("kind,start,end,interval", [
        ("coffee_run", 0, 60, 10),   # unknown kind
        (TRAFFIC_POLL, 60, 60, 10),  # empty window
        (TRAFFIC_POLL, 120, 60, 10),
        (TRAFFIC_POLL, 0, 1441, 10),
        (TRAFFIC_POLL, -10, 60, 10),
        (TRAFFIC_POLL, 0, 60, 0),
        (TRAFFIC_POLL, 0, 60, -5),
    ])
    def test_invalid_windows(self, kind, start, end, interval):
        with pytest.raises(ConfigError):
            CadenceWindow(kind, start, end, interval)

    def test_from_tokens(self):
        w = CadenceWindow.from_tokens(TRAFFIC_POLL, "06:00", "09:00", "15")
        assert (w.start_min, w.end_min, w.interval_min) == (360, 540, 15)

    def test_from_tokens_bad_interval(self):
        with pytest.raises(ConfigError, match="interval"):
            CadenceWindow.from_tokens(TRAFFIC_POLL, "06:00", "09:00", "soon")


class TestBuildPlan:
    def test_single_window_single_route(self, tiny_cfg):
        w = CadenceWindow(TRAFFIC_POLL, 360, 540, 15)
        plan = build_plan([w], tiny_cfg.routes[:1], DAY)
        assert plan.count(TRAFFIC_POLL) == 12
        assert plan.count(WEATHER_BACKFILL) == 1
        assert plan.count(POLLUTION_SCRAPE) == 1

    def test_default_deployment_counts(self, default_cfg):
        plan = build_plan(default_cfg.windows, default_cfg.routes, DAY)
        n_routes = len(default_cfg.routes)
        assert n_routes == 42
        per_route = plan.count(TRAFFIC_POLL) // n_routes
        assert plan.count(TRAFFIC_POLL) == per_route * n_routes
        assert 56 <= per_route <= 62
        one = [e for e in plan.entries
               if e.kind == TRAFFIC_POLL and e.target == default_cfg.routes[0].file_id]
        assert len(one) == per_route

    def test_rush_hour_denser_than_midday(self, default_cfg):
        plan = build_plan(default_cfg.windows, default_cfg.routes, DAY)

        def per_hour(h):
            return sum(1 for e in plan.entries
                       if e.kind == TRAFFIC_POLL and e.at.hour == h)

        assert per_hour(7) > per_hour(12)
        assert per_hour(18) > per_hour(12)

    def test_no_windows_leaves_daily_jobs(self, tiny_cfg):
        plan = build_plan((), tiny_cfg.routes, DAY)
        assert len(plan.entries) == 2
        kinds = {e.kind: e for e in plan.entries}
        assert kinds[WEATHER_BACKFILL].at == datetime(2016, 5, 16, 0, 30)
        assert kinds[POLLUTION_SCRAPE].at == datetime(2016, 5, 16, 23, 30)
        assert all(e.target == ALL_TARGETS for e in plan.entries)

    def test_entries_sorted_by_time(self, default_cfg):
        plan = build_plan(default_cfg.windows, default_cfg.routes, DAY)
        times = [e.at for e in plan.entries]
        assert times == sorted(times)

    def test_deterministic(self, default_cfg):
        a = build_plan(default_cfg.windows, default_cfg.routes, DAY)
        b = build_plan(default_cfg.windows, default_cfg.routes, DAY)
        assert a == b

    def test_overlapping_traffic_windows_rejected(self, tiny_cfg):
        ws = [CadenceWindow(TRAFFIC_POLL, 360, 600, 12),
              CadenceWindow(TRAFFIC_POLL, 540, 720, 30)]
        with pytest.raises(ConfigError, match="overlap"):
            build_plan(ws, tiny_cfg.routes, DAY)

    def test_adjacent_windows_allowed(self, tiny_cfg):
        ws = [CadenceWindow(TRAFFIC_POLL, 360, 600, 12),
              CadenceWindow(TRAFFIC_POLL, 600, 720, 30)]
        plan = build_plan(ws, tiny_cfg.routes, DAY)
        assert plan.count(TRAFFIC_POLL) == (20 + 4) * len(tiny_cfg.routes)

    def test_duplicate_entry_rejected(self, tiny_cfg):
        route = tiny_cfg.routes[0]
        ws = [CadenceWindow(TRAFFIC_POLL, 360, 420, 30)]
        with pytest.raises(ConfigError) as err:
            build_plan(ws, [route, tiny_cfg.routes[1], route], DAY)
        assert str(err.value) == (
            f"duplicate plan entry (datetime.datetime(2016, 5, 16, 6, 0), "
            f"'traffic_poll', {route.file_id!r})")

    def test_two_daily_windows_rejected(self, tiny_cfg):
        ws = [CadenceWindow(POLLUTION_SCRAPE, 1410, 1440, 30),
              CadenceWindow(POLLUTION_SCRAPE, 1380, 1410, 30)]
        with pytest.raises(ConfigError, match="at most one"):
            build_plan(ws, tiny_cfg.routes, DAY)

    def test_early_scrape_rejected(self, tiny_cfg):
        ws = [CadenceWindow(POLLUTION_SCRAPE, 22 * 60, 1440, 30)]
        with pytest.raises(ConfigError, match="23:00"):
            build_plan(ws, tiny_cfg.routes, DAY)

    def test_scrape_at_2300_allowed(self, tiny_cfg):
        ws = [CadenceWindow(POLLUTION_SCRAPE, 23 * 60, 1440, 30)]
        plan = build_plan(ws, tiny_cfg.routes, DAY)
        scrape = [e for e in plan.entries if e.kind == POLLUTION_SCRAPE]
        assert scrape[0].at == datetime(2016, 5, 16, 23, 0)

    def test_backfill_window_sets_fire_time(self, tiny_cfg):
        ws = [CadenceWindow(WEATHER_BACKFILL, 75, 120, 30)]
        plan = build_plan(ws, tiny_cfg.routes, DAY)
        backfill = [e for e in plan.entries if e.kind == WEATHER_BACKFILL]
        assert backfill[0].at == datetime(2016, 5, 16, 1, 15)


class TestNextDue:
    def _plan(self, tiny_cfg):
        w = CadenceWindow(TRAFFIC_POLL, 360, 420, 30)
        return build_plan([w], tiny_cfg.routes[:1], DAY)

    def test_before_first(self, tiny_cfg):
        plan = self._plan(tiny_cfg)
        assert next_due(plan, datetime(2016, 5, 16, 0, 0)) == plan.entries[0]

    def test_exact_time_is_due(self, tiny_cfg):
        plan = self._plan(tiny_cfg)
        entry = next_due(plan, datetime(2016, 5, 16, 6, 0))
        assert entry is not None and entry.at == datetime(2016, 5, 16, 6, 0)

    def test_between_ticks(self, tiny_cfg):
        plan = self._plan(tiny_cfg)
        entry = next_due(plan, datetime(2016, 5, 16, 6, 1))
        assert entry.at == datetime(2016, 5, 16, 6, 30)

    def test_after_last(self, tiny_cfg):
        plan = self._plan(tiny_cfg)
        assert next_due(plan, datetime(2016, 5, 17, 0, 0)) is None


class TestSimulatedClock:
    def test_jumps_forward_only(self):
        clock = SimulatedClock(datetime(2016, 5, 16, 6, 0))
        clock.wait_until(datetime(2016, 5, 16, 7, 0))
        assert clock.now() == datetime(2016, 5, 16, 7, 0)
        clock.wait_until(datetime(2016, 5, 16, 6, 30))
        assert clock.now() == datetime(2016, 5, 16, 7, 0)


class FailingSource:
    def fetch_weather(self, meta, day):
        raise SourceError(f"weather feed down for {meta.station.file_id}")

    def fetch_traffic(self, route, at):
        raise SourceError(f"traffic api down for {route.file_id}")

    def fetch_pollution(self, station, day, request_hour):
        raise SourceError(f"pollution site down for {station.file_id}")


class DyingStore:
    """Store stub that fails on first write; deferred() is a no-op."""

    @contextmanager
    def deferred(self):
        yield

    def insert_record(self, record):
        raise StorageUnavailable("backing file vanished")


class TestRunDay:
    @pytest.fixture()
    def plan(self, tiny_cfg):
        return build_plan(tiny_cfg.windows, tiny_cfg.routes, DAY)

    def test_full_day(self, tiny_cfg, tiny_store, plan):
        summary = run_day(plan, SynthSource(tiny_cfg.profile), tiny_store, tiny_cfg)
        assert summary.fired == len(plan.entries) == 6
        assert summary.skipped == 0
        assert summary.failures == []
        assert summary.rejected == 0
        counts = tiny_store.all_counts()
        # observation counts follow the station cadences, not the rng:
        # 48 half-hourly + 24 hourly for the previous day, 2 ticks x 2
        # routes, and the full 22-hour grid for the one monitor
        assert counts["weathers"] == 48 + 24
        assert counts["traffics"] == 4
        assert counts["pollutions"] == 22
        assert summary.stored == sum(
            counts[t] for t in ("weathers", "traffics", "pollutions"))
        assert "fired=6" in summary.line()

    def test_the_three_method_interface_drives_a_day(self, tiny_cfg, tiny_store,
                                                     plan, forks):
        profile = tiny_cfg.profile

        class MinimalSource:
            def fetch_weather(self, meta, day):
                return gen_weather_day(profile, meta, day)

            def fetch_traffic(self, route, at):
                return gen_traffic_response(profile, route, at)

            def fetch_pollution(self, station, day, request_hour):
                return gen_pollution_day(profile, station, day, request_hour)

        with Store(":memory:") as want:
            bootstrap_store(want, tiny_cfg)
            expected = run_day(plan, SynthSource(profile), want, tiny_cfg)
            summary = run_day(plan, MinimalSource(), tiny_store, tiny_cfg)
            # SynthSource read its payloads ahead; MinimalSource has no read_ahead.
            assert len(forks) == 1
            assert summary == expected and summary.failures == []
            assert list(tiny_store._conn.iterdump()) == list(want._conn.iterdump())

    def test_rerun_is_idempotent(self, tiny_cfg, tiny_store, plan):
        first = run_day(plan, SynthSource(tiny_cfg.profile), tiny_store, tiny_cfg)
        after_first = tiny_store.all_counts()
        second = run_day(plan, SynthSource(tiny_cfg.profile), tiny_store, tiny_cfg)
        assert second.stored == 0
        assert second.duplicates == first.stored
        assert tiny_store.all_counts() == after_first

    def test_source_failures_do_not_abort(self, tiny_cfg, tiny_store, plan):
        summary = run_day(plan, FailingSource(), tiny_store, tiny_cfg)
        assert summary.fired == len(plan.entries)
        assert summary.stored == 0
        # 4 traffic entries fail one by one; the sweeps record one
        # failure per station (2 weather, 1 pollution), in plan order
        polls = [f"traffic_poll {r}: traffic api down for {r}"
                 for r in ("alpha-beta", "beta-alpha")]
        assert summary.failures == [
            "weather pws_one: weather feed down for pws_one",
            "weather apt_one: weather feed down for apt_one",
            *polls, *polls,
            "pollution sima_test: pollution site down for sima_test",
        ]

    def test_bad_plan_entries_cost_only_themselves(self, tiny_cfg, tiny_store):
        at = datetime(2016, 5, 16, 6, 0)
        route = tiny_cfg.routes[0].file_id
        plan = CadencePlan(day=DAY, entries=(
            PlanEntry(at, "bogus", ALL_TARGETS),
            PlanEntry(at, TRAFFIC_POLL, "nowhere"),
            PlanEntry(at, TRAFFIC_POLL, route),
        ))
        summary = run_day(plan, SynthSource(tiny_cfg.profile), tiny_store, tiny_cfg)
        assert summary.failures == [
            "bogus *: unknown task kind 'bogus'",
            "traffic_poll nowhere: plan names unknown route 'nowhere'",
        ]
        assert (summary.fired, summary.stored) == (3, 1)
        assert tiny_store.all_counts()["traffics"] == 1

    def test_midday_start_skips_past_but_replays_daily(self, tiny_cfg, tiny_store, plan):
        clock = SimulatedClock(datetime(2016, 5, 16, 12, 0))
        summary = run_day(plan, SynthSource(tiny_cfg.profile), tiny_store,
                          tiny_cfg, clock=clock)
        assert summary.skipped == 4      # all traffic ticks were this morning
        assert summary.fired == 2        # backfill replayed, scrape on time
        counts = tiny_store.all_counts()
        assert counts["traffics"] == 0
        assert counts["weathers"] == 72
        assert counts["pollutions"] == 22

    def test_storage_loss_aborts_with_partial_summary(self, tiny_cfg, plan):
        with pytest.raises(RunAborted) as err:
            run_day(plan, SynthSource(tiny_cfg.profile), DyingStore(), tiny_cfg)
        summary = err.value.summary
        assert summary is not None and summary.day == DAY
        assert summary.stored == 0

    @pytest.mark.parametrize("record_type", ["WeatherRecord", "TrafficRecord",
                                             "PollutionRecord"])
    def test_store_loss_at_each_boundary_aborts_the_day(self, tiny_cfg, tiny_store,
                                                        plan, record_type):
        # The first insert of one kind fails: inside a weather or a
        # pollution station sweep, or inside a traffic plan entry.
        class LosingStore(_InterruptingStore):
            def insert_record(self, record):
                if type(record).__name__ == record_type:
                    raise StorageUnavailable("backing file vanished")
                return super().insert_record(record)

        with pytest.raises(RunAborted) as err:
            run_day(plan, SynthSource(tiny_cfg.profile),
                    LosingStore(tiny_store, None, None), tiny_cfg)
        assert "backing file vanished" in str(err.value)
        assert err.value.summary.failures == []
        counts = tiny_store.all_counts()
        assert counts["weathers"] == counts["traffics"] == counts["pollutions"] == 0

    def test_read_only_store_aborts_the_day(self, tiny_cfg, tiny_store, plan):
        tiny_store._conn.execute("PRAGMA query_only = ON")
        with pytest.raises(RunAborted) as err:
            run_day(plan, SynthSource(tiny_cfg.profile), tiny_store, tiny_cfg)
        assert isinstance(err.value.__cause__, StorageUnavailable)
        summary = err.value.summary
        assert summary.stored == 0 and summary.failures == []

    def test_locked_store_aborts_the_day(self, tiny_cfg, plan, tmp_path):
        path = tmp_path / "locked.db"
        with Store(path) as store:
            bootstrap_store(store, tiny_cfg)
        holder = sqlite3.connect(path, isolation_level=None)
        try:
            holder.execute("BEGIN EXCLUSIVE")
            with Store(path) as store:
                store._conn.execute("PRAGMA busy_timeout = 10")
                with pytest.raises(RunAborted) as err:
                    run_day(plan, SynthSource(tiny_cfg.profile), store, tiny_cfg)
        finally:
            holder.close()
        assert "database is locked" in str(err.value)
        assert err.value.summary.failures == []

    def test_empty_plan(self, tiny_cfg, tiny_store):
        summary = run_day(CadencePlan(day=DAY, entries=()),
                          SynthSource(tiny_cfg.profile), tiny_store, tiny_cfg)
        assert summary.fired == 0 and summary.stored == 0

    def test_quarantined_lines_reach_the_sink(self, tiny_cfg, tiny_store, plan):
        class GhostSource(SynthSource):
            def fetch_weather(self, meta, day):
                p = super().fetch_weather(meta, day)
                extra = f"pws_ghost {day.isoformat()}T00:00:00 temp=20.0\n"
                return SourcePayload("weather", p.body + extra,
                                     p.origin)

        sink = []
        summary = run_day(plan, GhostSource(tiny_cfg.profile), tiny_store,
                          tiny_cfg, quarantine=sink)
        assert summary.quarantined == 2  # one ghost line per station feed
        assert len(sink) == 2
        assert all("pws_ghost" in q.reason for q in sink)

    def test_uncatalogued_code_costs_only_its_record(self, tiny_cfg, tiny_store, plan):
        bad = {}

        class SandstormSource(SynthSource):
            def fetch_weather(self, meta, day):
                p = super().fetch_weather(meta, day)
                if meta.station.file_id != "apt_one":
                    return p
                lines = p.body.splitlines()
                lines[5], n = re.subn(r"cond=('[^']*'|\S+)", "cond=Sandstorm", lines[5])
                assert n == 1
                bad["ts"] = lines[5].split()[1]
                return SourcePayload("weather",
                                     "\n".join(lines) + "\n", p.origin)

        summary = run_day(plan, SandstormSource(tiny_cfg.profile), tiny_store, tiny_cfg)
        # The station's readings after the bad one are stored too.
        assert tiny_store.all_counts()["weathers"] == 72 - 1
        assert summary.stored == 72 - 1 + 4 + 22
        assert summary.rejected == 1
        assert summary.failures == [
            f"{bad['ts']} apt_one: unknown cond code 'Sandstorm' (table conds)"]

    def test_bad_traffic_measure_rejects_its_record(self, tiny_cfg, tiny_store,
                                                    plan):
        rejected = {}

        class DetourSource(SynthSource):
            def fetch_traffic(self, route, at):
                p = super().fetch_traffic(route, at)
                if rejected:
                    return p
                file_id, ts, _dist, t_std, t_curr = p.body.split()
                rejected.update(ts=ts, route=file_id)
                return SourcePayload("traffic",
                                     f"{file_id} {ts} abc {t_std} {t_curr}\n",
                                     p.origin)

        summary = run_day(plan, DetourSource(tiny_cfg.profile), tiny_store, tiny_cfg)
        assert (summary.stored, summary.rejected) == (72 + 3 + 22, 1)
        assert summary.failures == [
            f"traffic record at {rejected['ts']} for {rejected['route']} "
            f"dropped (traveldist)"]
        assert tiny_store.all_counts()["traffics"] == 3

    def test_value_a_wide_rule_admits_costs_only_its_record(self, tiny_cfg,
                                                            tiny_store, plan):
        # A rules file replaces the defaults, so it can admit a humidity
        # that WeatherRecord refuses; the station's other readings stay.
        class HumidSource(SynthSource):
            def fetch_weather(self, meta, day):
                p = super().fetch_weather(meta, day)
                if meta.station.file_id != "apt_one":
                    return p
                body, n = re.subn(r"hum=\S+", "hum=120", p.body, count=1)
                assert n == 1
                return SourcePayload("weather", body, p.origin)

        cfg = dataclasses.replace(tiny_cfg,
                                  rules=RuleSet.from_text("weathers.hum 0 150\n"))
        summary = run_day(plan, HumidSource(cfg.profile), tiny_store, cfg)
        assert (summary.stored, summary.rejected) == (72 - 1 + 4 + 22, 1)
        assert summary.failures == ["2016-05-15T00:00:00 apt_one: hum 120.0 outside 0..100"]
        assert tiny_store.all_counts()["weathers"] == 72 - 1

    def test_zero_traffic_measure_without_traffic_rules_is_rejected(
            self, tiny_cfg, tiny_store, plan):
        class StandstillSource(SynthSource):
            def fetch_traffic(self, route, at):
                p = super().fetch_traffic(route, at)
                file_id, ts, _dist, t_std, t_curr = p.body.split()
                return SourcePayload("traffic",
                                     f"{file_id} {ts} 0 {t_std} {t_curr}\n", p.origin)

        cfg = dataclasses.replace(tiny_cfg,
                                  rules=RuleSet.from_text("weathers.temp -30 55\n"))
        summary = run_day(plan, StandstillSource(cfg.profile), tiny_store, cfg)
        assert (summary.stored, summary.rejected) == (72 + 22, 4)
        assert len(summary.failures) == 4
        assert all(f.endswith(": traveldist must be a positive number, got 0.0")
                   for f in summary.failures)
        assert tiny_store.all_counts()["traffics"] == 0

    def test_stale_catalog_fails_per_record(self, tiny_cfg, tiny_store, plan):
        route = tiny_cfg.routes[0].file_id
        tiny_store._conn.execute("DELETE FROM locations_w WHERE file_id = 'apt_one'")
        tiny_store._conn.execute("DELETE FROM locations_t WHERE file_id = ?", (route,))
        summary = run_day(plan, SynthSource(tiny_cfg.profile), tiny_store, tiny_cfg)
        counts = tiny_store.all_counts()
        assert counts["weathers"] == 48 and counts["traffics"] == 2
        # One failure per hourly airport reading and per poll of the route.
        assert summary.rejected == len(summary.failures) == 24 + 2
        assert sum(f.endswith(" apt_one: unknown weather station 'apt_one' "
                              "(table locations_w)") for f in summary.failures) == 24
        assert sum(f.endswith(f" {route}: unknown route {route!r} (table locations_t)")
                   for f in summary.failures) == 2

    def test_multi_day_counts_accumulate(self, tiny_cfg, tiny_store):
        source = SynthSource(tiny_cfg.profile)
        for offset in range(3):
            day = DAY + timedelta(days=offset)
            plan = build_plan(tiny_cfg.windows, tiny_cfg.routes, day)
            summary = run_day(plan, source, tiny_store, tiny_cfg)
            assert summary.failures == []
        counts = tiny_store.all_counts()
        assert counts["traffics"] == 3 * 4
        assert counts["weathers"] == 3 * 72
        assert counts["pollutions"] == 3 * 22


def _assert_reaped(pids) -> None:
    """Each pid was a child of this process and has been reaped."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class _FailingClock(SimulatedClock):
    """Raises on the third wait, mid-day."""

    waits = 0

    def wait_until(self, when: datetime) -> None:
        self.waits += 1
        if self.waits == 3:
            raise RuntimeError("clock stopped")
        super().wait_until(when)


class TestReadAheadChild:
    """run_day forks one read-ahead child for a source that has read_ahead,
    and the child is gone however run_day ends."""

    @pytest.fixture()
    def plan(self, tiny_cfg):
        return build_plan(tiny_cfg.windows, tiny_cfg.routes, DAY)

    def test_gone_after_the_day_returns(self, tiny_cfg, tiny_store, plan, forks):
        summary = run_day(plan, SynthSource(tiny_cfg.profile), tiny_store, tiny_cfg)
        assert summary.failures == [] and summary.stored == 72 + 4 + 22
        assert len(forks) == 1
        _assert_reaped(forks)

    def test_gone_after_the_store_fails_mid_day(self, tiny_cfg, tiny_store, plan, forks):
        # The 74th insert is the second traffic record, past the weather.
        store = _InterruptingStore(tiny_store, 73, StorageUnavailable("disk went away"))
        with pytest.raises(RunAborted):
            run_day(plan, SynthSource(tiny_cfg.profile), store, tiny_cfg)
        assert len(forks) == 1
        _assert_reaped(forks)

    def test_gone_after_the_clock_raises(self, tiny_cfg, tiny_store, plan, forks):
        clock = _FailingClock(datetime.combine(DAY, time(0, 0)))
        with pytest.raises(RuntimeError, match="clock stopped"):
            run_day(plan, SynthSource(tiny_cfg.profile), tiny_store, tiny_cfg, clock=clock)
        assert len(forks) == 1
        _assert_reaped(forks)

    def test_none_for_a_source_without_read_ahead(self, tiny_cfg, tiny_store, plan, forks):
        run_day(plan, FailingSource(), tiny_store, tiny_cfg)
        assert forks == []

    def test_none_and_the_day_stored_under_an_ignored_sigchld(self, tiny_cfg, tiny_store,
                                                             plan, forks):
        # The kernel reaps such a child itself, so read_ahead could not
        # kill and wait for it: it forks none.
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            summary = run_day(plan, SynthSource(tiny_cfg.profile), tiny_store, tiny_cfg)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert summary.failures == [] and summary.stored == 72 + 4 + 22
        assert [tiny_store.record_count(t) for t in ("weathers", "traffics", "pollutions")] \
            == [72, 4, 22]
        assert forks == []


class OneFeedSource:
    """Serves one weather body for one station; every other feed is empty."""

    def __init__(self, station: str, body: str) -> None:
        self.station, self.body = station, body

    def fetch_weather(self, meta, day):
        body = (self.body if meta.station.file_id == self.station
                else "# no observations\n")
        return SourcePayload("weather", body, meta.station.file_id)


def _backfill(cfg, store, body, day=date(2016, 10, 31), station="apt_escobedo"):
    """run_day with only the weather backfill, which fetches the day before."""
    plan = CadencePlan(day=day, entries=(PlanEntry(
        datetime.combine(day, time(0, 30)), WEATHER_BACKFILL, ALL_TARGETS),))
    sink = []
    summary = run_day(plan, OneFeedSource(station, body), store, cfg,
                      quarantine=sink)
    return summary, sink


class TestRepeatedLocalTime:
    """The hour a daylight-saving change repeats, given twice in one payload."""

    FIRST = "apt_escobedo 2016-10-30T01:30:00 temp=18.0 time_zone=CDT"
    # The second form has a word shlex unquotes, so it skips the fast path.
    SECOND = {"fast": "apt_escobedo 2016-10-30T01:30:00 temp=17.0 time_zone=CST",
              "shlex": "apt_escobedo 2016-10-30T01:30:00 temp=17.0 time_zone=\"CST\""}

    @pytest.mark.parametrize("path", ["fast", "shlex"])
    def test_second_reading_is_quarantined(self, default_cfg, ready_store, path):
        body = f"{self.FIRST}\n{self.SECOND[path]}\n"
        with mock.patch.object(connectors.shlex, "split",
                               wraps=shlex.split) as split:
            summary, sink = _backfill(default_cfg, ready_store, body)
        assert split.call_count == (path == "shlex")
        assert (summary.stored, summary.quarantined, summary.duplicates) == (1, 1, 0)
        assert [(q.line_no, q.reason) for q in sink] == [
            (2, "repeats 2016-10-30T01:30:00 (CDT) as CST")]
        loc = ready_store.location_ids("locations_w")["apt_escobedo"]
        kept = ready_store.fetch_record("weathers", loc, datetime(2016, 10, 30, 1, 30))
        assert (kept["temp"], kept["time_zone"]) == (18.0, "CDT")

    def test_replay_of_the_payload_is_a_duplicate(self, default_cfg, ready_store):
        body = f"{self.FIRST}\n{self.SECOND['fast']}\n"
        _backfill(default_cfg, ready_store, body)
        summary, _ = _backfill(default_cfg, ready_store, body)
        assert (summary.stored, summary.quarantined, summary.duplicates) == (0, 1, 1)


class TestEmptyTextField:
    """An empty or over-long zone, code or METAR costs that field, not
    the record."""

    LINE = "apt_escobedo 2016-05-15T08:00:00 temp=20.5 hum=50 {}={}"
    # Past the csv module's 131,072-character field limit.
    LONG = "M" * 140_000

    @pytest.mark.parametrize("field, text", [
        ("time_zone", ""), ("cond", ""), ("icon", ""), ("metar", ""), ("metar", LONG),
    ], ids=["time_zone", "cond", "icon", "metar", "metar-140000-chars"])
    def test_field_is_na_and_csv_round_trips(self, default_cfg, ready_store, field,
                                             text):
        line = self.LINE.format(field, shlex.quote(text))
        summary, _ = _backfill(default_cfg, ready_store, line + "\n",
                               day=date(2016, 5, 16))
        assert (summary.stored, summary.rejected, summary.failures) == (1, 0, [])
        stations = {m.station.file_id: m.station
                    for m in default_cfg.weather_stations}
        (raw,), _ = connectors.parse_weather_observations(
            SourcePayload("weather", line, "x"), stations)
        _, report = validate_weather(raw, default_cfg.rules)
        rule = "text of at most 4096 characters" if text else "non-empty text"
        assert [(e.attribute, e.value, e.rule) for e in report.entries] == [
            (field, text, rule)]

        loc = ready_store.location_ids("locations_w")["apt_escobedo"]
        at = datetime(2016, 5, 15, 8, 0)
        result = ready_store.query_attribute(
            "weathers", queryable_attributes("weathers"), [loc], at, at)
        kept = dict(zip(result.columns, result.rows[0]))
        assert (kept["temp"], kept["hum"], kept[field]) == (20.5, 50.0, None)
        assert import_csv(export_csv(result), "weathers") == result


class _InterruptingStore:
    """Delegates to a Store and raises `exc` on insert number `k` (0-based).

    With k None it never raises and only records the kinds inserted.
    """

    def __init__(self, inner, k, exc):
        self._inner, self._k, self._exc = inner, k, exc
        self.kinds = []

    def deferred(self):
        return self._inner.deferred()

    def insert_record(self, record):
        if len(self.kinds) == self._k:
            raise self._exc
        self.kinds.append(type(record).__name__)
        return self._inner.insert_record(record)


def _export_dump(cfg_path, db_path, out_dir, capsys) -> dict[str, bytes]:
    from urbanobs.cli import main

    dump = {}
    for table in ("weathers", "traffics", "pollutions"):
        dest = out_dir / f"{db_path.stem}-{table}.csv"
        assert main(["export", table, "--config", str(cfg_path), "--store",
                     str(db_path), "--csv", str(dest)]) == 0
        dump[table] = dest.read_bytes()
    capsys.readouterr()
    return dump


class TestInterruptedDayReplays:
    """A day cut short at any entry and run again stores what a clean run stores."""

    @pytest.fixture()
    def cfg_path(self, tmp_path):
        from tests.conftest import TINY_CFG_TEXT

        path = tmp_path / "tiny.cfg"
        path.write_text(TINY_CFG_TEXT)
        return path

    def _run(self, tiny_cfg, db_path, day, wrap=None):
        with Store(db_path) as store:
            target = wrap(store) if wrap else store
            plan = build_plan(tiny_cfg.windows, tiny_cfg.routes, day)
            return run_day(plan, SynthSource(tiny_cfg.profile), target, tiny_cfg)

    def _fresh_store(self, tiny_cfg, db_path):
        with Store(db_path) as store:
            bootstrap_store(store, tiny_cfg)
        # A committed earlier day must survive the interruption untouched.
        self._run(tiny_cfg, db_path, DAY)

    @pytest.fixture()
    def clean(self, tiny_cfg, cfg_path, tmp_path, capsys):
        db = tmp_path / "clean.db"
        self._fresh_store(tiny_cfg, db)
        spies = []

        def spy(store):
            spies.append(_InterruptingStore(store, None, None))
            return spies[-1]

        self._run(tiny_cfg, db, DAY + timedelta(days=1), spy)
        return _export_dump(cfg_path, db, tmp_path, capsys), spies[0].kinds

    @pytest.mark.parametrize("exc", [KeyboardInterrupt(),
                                     StorageUnavailable("disk went away")])
    @pytest.mark.parametrize("where", ["mid weather backfill", "first poll",
                                       "pollution scrape"])
    def test_rerun_matches_clean_run(self, tiny_cfg, cfg_path, tmp_path, capsys,
                                     clean, exc, where):
        want, kinds = clean
        k = {"mid weather backfill": kinds.count("WeatherRecord") // 2,
             "first poll": kinds.index("TrafficRecord"),
             "pollution scrape": kinds.index("PollutionRecord") + 5}[where]
        db = tmp_path / "cut.db"
        self._fresh_store(tiny_cfg, db)
        before = _export_dump(cfg_path, db, tmp_path, capsys)
        day = DAY + timedelta(days=1)
        with pytest.raises((KeyboardInterrupt, RunAborted)):
            self._run(tiny_cfg, db, day, lambda s: _InterruptingStore(s, k, exc))
        # Nothing of the cut day was committed.
        assert _export_dump(cfg_path, db, tmp_path, capsys) == before
        summary = self._run(tiny_cfg, db, day)
        assert summary.failures == [] and summary.duplicates == 0
        assert _export_dump(cfg_path, db, tmp_path, capsys) == want

    def test_rerun_after_source_failure_at_first_poll(self, tiny_cfg, cfg_path,
                                                      tmp_path, capsys, clean):
        class CutSource(SynthSource):
            def fetch_traffic(self, route, at):
                raise KeyboardInterrupt

        want, _ = clean
        db = tmp_path / "cut.db"
        self._fresh_store(tiny_cfg, db)
        day = DAY + timedelta(days=1)
        with Store(db) as store, pytest.raises(KeyboardInterrupt):
            run_day(build_plan(tiny_cfg.windows, tiny_cfg.routes, day),
                    CutSource(tiny_cfg.profile), store, tiny_cfg)
        self._run(tiny_cfg, db, day)
        assert _export_dump(cfg_path, db, tmp_path, capsys) == want
