"""Per-day collection plans and their execution.

A plan is built from cadence windows. Traffic windows tick every
`interval_min` minutes from their start, densified during rush hours;
the weather backfill (which collects the previous day) and the
pollution scrape (which needs the full 02:00-23:00 table, so it runs
late in the evening) each fire exactly once per day whether or not the
window list mentions them.

Execution is clock-driven. The simulated clock jumps straight to each
fire time so a full day runs in milliseconds; the wall clock sleeps.
Entries already in the past when the run starts are skipped, except
the two daily jobs, which are replayed once because their payloads are
historical anyway.
"""

from __future__ import annotations

import time as _time
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from typing import Protocol, Sequence

from .connectors import (
    QuarantinedLine,
    assemble_station_day,
    parse_pollution_tables,
    parse_traffic_response,
    parse_weather_observations,
)
from .errors import (
    ConfigError,
    Error,
    OutOfRangeError,
    RecordRejected,
    ReferentialError,
    RunAborted,
    StorageUnavailable,
)
from .validation import validate_pollution, validate_traffic, validate_weather

__all__ = [
    "WEATHER_BACKFILL",
    "TRAFFIC_POLL",
    "POLLUTION_SCRAPE",
    "CadenceWindow",
    "PlanEntry",
    "CadencePlan",
    "build_plan",
    "next_due",
    "run_day",
    "RunSummary",
    "SimulatedClock",
    "WallClock",
    "parse_hhmm",
]

WEATHER_BACKFILL = "weather_backfill"
TRAFFIC_POLL = "traffic_poll"
POLLUTION_SCRAPE = "pollution_scrape"
TASK_KINDS = (WEATHER_BACKFILL, TRAFFIC_POLL, POLLUTION_SCRAPE)

# Symbolic target for the two jobs that sweep every station in one go.
ALL_TARGETS = "*"


def parse_hhmm(text: str) -> int:
    """'HH:MM' -> minutes from midnight; '24:00' marks end of day."""
    try:
        hh, _, mm = text.partition(":")
        h, m = int(hh), int(mm)
    except ValueError:
        raise ConfigError(f"bad time of day {text!r}, expected HH:MM")
    if not (0 <= m <= 59) or not (0 <= h <= 24) or (h == 24 and m != 0):
        raise ConfigError(f"bad time of day {text!r}")
    return h * 60 + m


@dataclass(frozen=True)
class CadenceWindow:
    """One collection window: [start, end) at a fixed interval."""

    kind: str
    start_min: int  # minutes from local midnight, inclusive
    end_min: int    # exclusive
    interval_min: int

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if not (0 <= self.start_min < self.end_min <= 1440):
            raise ConfigError(
                f"window {self.kind} {self.start_min}..{self.end_min} "
                f"must satisfy 0 <= start < end <= 1440")
        if self.interval_min <= 0:
            raise ConfigError(f"window {self.kind}: interval must be positive")

    @classmethod
    def from_tokens(cls, kind: str, start: str, end: str, interval: str) -> "CadenceWindow":
        try:
            iv = int(interval)
        except ValueError:
            raise ConfigError(f"bad interval {interval!r} in cadence window")
        return cls(kind, parse_hhmm(start), parse_hhmm(end), iv)

    def ticks(self) -> range:
        return range(self.start_min, self.end_min, self.interval_min)


@dataclass(frozen=True)
class PlanEntry:
    at: datetime
    kind: str
    target: str  # route file_id, or '*' for the station-sweep jobs


@dataclass(frozen=True)
class CadencePlan:
    day: date
    entries: tuple[PlanEntry, ...]  # sorted by fire time

    def count(self, kind: str) -> int:
        return sum(1 for e in self.entries if e.kind == kind)


def _check_no_overlap(windows: Sequence[CadenceWindow]) -> None:
    by_kind: dict[str, list[CadenceWindow]] = {}
    for w in windows:
        by_kind.setdefault(w.kind, []).append(w)
    for kind, ws in by_kind.items():
        ws = sorted(ws, key=lambda w: w.start_min)
        for a, b in zip(ws, ws[1:]):
            if b.start_min < a.end_min:
                raise ConfigError(
                    f"{kind} windows overlap: "
                    f"{a.start_min}..{a.end_min} and {b.start_min}..{b.end_min}")


def build_plan(windows: Sequence[CadenceWindow], routes: Sequence,
               day: date) -> CadencePlan:
    """Expand windows into the ordered entry list for one day.

    Traffic windows fan out over every route. The two daily jobs fire
    once each: at their window start if one is configured, else at
    00:30 (backfill) and 23:30 (scrape). A pollution window starting
    before 23:00 is a configuration error because the day's table would
    still be incomplete when scraped.
    """
    _check_no_overlap(windows)
    midnight = datetime.combine(day, time(0, 0))
    entries: list[PlanEntry] = []

    for w in windows:
        if w.kind != TRAFFIC_POLL:
            continue
        for tick in w.ticks():
            at = midnight + timedelta(minutes=tick)
            for route in routes:
                entries.append(PlanEntry(at, TRAFFIC_POLL, route.file_id))

    backfills = [w for w in windows if w.kind == WEATHER_BACKFILL]
    scrapes = [w for w in windows if w.kind == POLLUTION_SCRAPE]
    if len(backfills) > 1 or len(scrapes) > 1:
        raise ConfigError("the daily jobs take at most one window each")
    backfill_at = midnight + timedelta(
        minutes=backfills[0].start_min if backfills else 30)
    scrape_min = scrapes[0].start_min if scrapes else 23 * 60 + 30
    if scrape_min < 23 * 60:
        raise ConfigError(
            "pollution scrape must start at 23:00 or later; the hourly "
            "tables are incomplete before then")
    entries.append(PlanEntry(backfill_at, WEATHER_BACKFILL, ALL_TARGETS))
    entries.append(PlanEntry(midnight + timedelta(minutes=scrape_min),
                             POLLUTION_SCRAPE, ALL_TARGETS))

    entries.sort(key=lambda e: (e.at, e.kind, e.target))
    # Sorted, equal entries are neighbours. Neighbours nearly always
    # differ in target, so that field is compared first.
    for a, b in zip(entries, entries[1:]):
        if a.target == b.target and a.at == b.at and a.kind == b.kind:
            raise ConfigError(f"duplicate plan entry {(b.at, b.kind, b.target)}")
    return CadencePlan(day=day, entries=tuple(entries))


def next_due(plan: CadencePlan, now: datetime) -> PlanEntry | None:
    """Earliest entry with fire time >= now, or None after the last."""
    times = [e.at for e in plan.entries]
    i = bisect_left(times, now)
    return plan.entries[i] if i < len(plan.entries) else None


class Clock(Protocol):
    def now(self) -> datetime: ...
    def wait_until(self, when: datetime) -> None: ...


class SimulatedClock:
    """A clock that jumps: wait_until() lands instantly."""

    def __init__(self, start: datetime) -> None:
        self._now = start

    def now(self) -> datetime:
        return self._now

    def wait_until(self, when: datetime) -> None:
        if when > self._now:
            self._now = when


class WallClock:
    def now(self) -> datetime:
        return datetime.now()

    def wait_until(self, when: datetime) -> None:
        delta = (when - self.now()).total_seconds()
        if delta > 0:
            _time.sleep(delta)


@dataclass
class RunSummary:
    """What one day of collection actually did."""

    day: date
    fired: int = 0        # entries executed (including replayed daily jobs)
    skipped: int = 0      # entries already in the past at start
    stored: int = 0
    duplicates: int = 0
    rejected: int = 0     # records validation refused
    quarantined: int = 0  # payload lines set aside by parsers
    failures: list[str] = field(default_factory=list)

    def line(self) -> str:
        return (f"day {self.day.isoformat()}: fired={self.fired} "
                f"skipped={self.skipped} stored={self.stored} "
                f"duplicates={self.duplicates} rejected={self.rejected} "
                f"quarantined={self.quarantined} failures={len(self.failures)}")


def _attempt(failures: list[str], name: str, target: str, job, *args) -> None:
    """Run job(*args); record an Error as "<name> <target>: <exc>", but a store's goes on up."""
    try:
        job(*args)
    except StorageUnavailable:
        raise
    except Error as exc:
        failures.append(f"{name} {target}: {exc}")


def run_day(plan: CadencePlan, source, store, config,
            clock: Clock | None = None,
            quarantine: list[QuarantinedLine] | None = None) -> RunSummary:
    """Execute one day's plan against a source registry and a store.

    A rejected record costs that record, a failed station feed that
    station's sweep, a failed plan entry that entry: each is recorded
    under `failures` and the day goes on. A store that cannot be written
    is never counted there; it aborts the day, raising with the partial
    summary attached. Inserts for the whole day share one transaction.
    Quarantined payload lines are appended to the `quarantine` list.
    """
    clock = clock or SimulatedClock(datetime.combine(plan.day, time(0, 0)))
    quarantine = quarantine if quarantine is not None else []
    summary = RunSummary(day=plan.day)
    failures = summary.failures
    rules = config.rules
    routes = {r.file_id: r for r in config.routes}
    stations = {m.station.file_id: m.station for m in config.weather_stations}

    def ingest(validate, raws) -> None:
        for raw in raws:
            try:
                record, _report = validate(raw, rules)
                if store.insert_record(record) == "duplicate":
                    summary.duplicates += 1
                else:
                    summary.stored += 1
            except RecordRejected as exc:
                summary.rejected += 1
                failures.append(str(exc))
            except (ReferentialError, OutOfRangeError) as exc:
                # an uncatalogued code or location, or a value a rules
                # file admits but the record type refuses
                summary.rejected += 1
                failures.append(f"{raw.timestamp} {raw.target}: {exc}")

    def backfill(meta) -> None:
        payload = source.fetch_weather(meta, plan.day - timedelta(days=1))
        readings, quarantined = parse_weather_observations(payload, stations)
        quarantine.extend(quarantined)
        summary.quarantined += len(quarantined)
        ingest(validate_weather, readings)

    def scrape(station, at) -> None:
        payload = source.fetch_pollution(station, plan.day, min(23, at.hour))
        readings = parse_pollution_tables(payload)
        ingest(validate_pollution, assemble_station_day(readings, station, plan.day))

    def fire(entry) -> None:
        if entry.kind == TRAFFIC_POLL:
            route = routes.get(entry.target)
            if route is None:
                raise ConfigError(f"plan names unknown route {entry.target!r}")
            payload = source.fetch_traffic(route, entry.at)
            ingest(validate_traffic, [parse_traffic_response(payload, route)])
        elif entry.kind == WEATHER_BACKFILL:
            # One broken station feed must not cost the other 31.
            for meta in config.weather_stations:
                _attempt(failures, "weather", meta.station.file_id, backfill, meta)
        elif entry.kind == POLLUTION_SCRAPE:
            for station in config.pollution_stations:
                _attempt(failures, "pollution", station.file_id, scrape, station, entry.at)
        else:
            raise ConfigError(f"unknown task kind {entry.kind!r}")

    started_at = clock.now()
    daily = (WEATHER_BACKFILL, POLLUTION_SCRAPE)
    try:
        with store.deferred():
            for entry in plan.entries:
                if entry.at < started_at and entry.kind not in daily:
                    summary.skipped += 1
                    continue
                clock.wait_until(entry.at)
                _attempt(failures, entry.kind, entry.target, fire, entry)
                summary.fired += 1
    except StorageUnavailable as exc:
        raise RunAborted(f"store unavailable on {plan.day}: {exc}", summary) from exc
    return summary
