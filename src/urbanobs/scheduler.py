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

Each due entry maps to its fetches, a source method and its arguments
with the job that ingests the payload, and `run_day` numbers the day's
fetches once, in firing order, before the first entry fires. For a
plain `SynthSource`, whose payloads depend only on their arguments, one
forked child makes the same listed fetches in order and streams the
payloads back, so payload i belongs to fetch i; a fetch takes the
child's payload if it has arrived and is made inline otherwise. Any
other source, a `SynthSource` subclass included, fetches inline: an
override may have side effects, and those must happen in this process.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import threading
import time as _time
from bisect import bisect_left
from contextlib import contextmanager
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
from .synth import SynthSource
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


# A frame carries fetched payloads from the read-ahead child: the
# pickle's length in bytes, then the pickled list of the next fetches'
# payloads in order, with None for a fetch that raised in the child. A
# frame is sent once it holds _FRAME_PAYLOADS payloads or _FRAME_BYTES of
# bodies: the parent reads once per 64 polls, and a frame holds one or
# two station-days of weather (about 23 KB each), so the first ones
# arrive while the parent still fetches its own.
_FRAME_LEN = struct.Struct("<I")
_FRAME_PAYLOADS = 64
_FRAME_BYTES = 1 << 15
_READ_BYTES = 1 << 16


def _fork_helps() -> bool:
    """Whether a forked child would fetch beside this process, not in its way.

    The child must also be left for this process to reap: under an
    ignored or handled SIGCHLD it may be reaped, and its pid reused,
    before _read_ahead kills it.
    """
    if (not hasattr(os, "fork") or threading.active_count() > 1
            or signal.getsignal(signal.SIGCHLD) is not signal.SIG_DFL):
        return False
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) >= 2


def _write_frames(fd: int, listed) -> None:
    """In the child: make each listed fetch in order and write frames to fd."""
    frame, size = [], 0
    for i, (fetch, args, *_) in enumerate(listed, 1):
        try:
            payload = fetch(*args)
            size += len(payload.body)
        except Exception:
            payload = None  # the parent fetches it and raises there
        frame.append(payload)
        if len(frame) == _FRAME_PAYLOADS or size >= _FRAME_BYTES or i == len(listed):
            body = pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
            data = memoryview(_FRAME_LEN.pack(len(body)) + body)
            while data:
                data = data[os.write(fd, data):]
            frame, size = [], 0


class _Arrivals:
    """The parent's end of a read-ahead: the child's payloads, by list index."""

    def __init__(self, fd: int) -> None:
        self._fd = fd         # non-blocking; None once the child is done
        self._buf = bytearray()
        self._start = 0       # list index of _frame[0]
        self._frame = []

    def take(self, i: int):
        """The child's payload for fetch i, or None to fetch it inline."""
        if i - self._start >= len(self._frame):
            self._pull(i)
        k = i - self._start
        return self._frame[k] if k < len(self._frame) else None

    def _pull(self, i: int) -> None:
        """Read what has arrived up to the frame holding fetch i; drop older frames.

        Frames come in list order, so each starts where the one before
        it ended.
        """
        buf = self._buf
        while True:
            if len(buf) >= _FRAME_LEN.size:
                end = _FRAME_LEN.size + _FRAME_LEN.unpack_from(buf)[0]
                if len(buf) >= end:
                    self._start += len(self._frame)
                    self._frame = pickle.loads(buf[_FRAME_LEN.size:end])
                    del buf[:end]
                    if self._start + len(self._frame) > i:
                        return
                    continue
            if self._fd is None:
                return
            try:
                data = os.read(self._fd, _READ_BYTES)
            except BlockingIOError:
                return
            if not data:  # the child has sent everything
                self._fd = None
            buf += data


@contextmanager
def _read_ahead(listed):
    """Make `listed`'s fetches, each (source method, its args, ...), in a child.

    One forked child makes them in order and streams the payloads back
    over a pipe. This yields the `_Arrivals` to take them from by list
    index, or None: a fetch whose payload has not arrived, or that
    raised in the child, is made inline, so it never waits for the
    child. Every fetch is inline without fork, on one CPU, when a
    thread runs beside this one and when SIGCHLD is not left at its
    default. The child starts from this process's state, with the list
    in hand and nothing to import, which is why none is forked while
    another thread runs. It is killed and reaped on leaving.
    """
    if not listed or not _fork_helps():
        yield None
        return
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: every fetch is inline
        os.close(r)
        os.close(w)
        yield None
        return
    if pid == 0:
        # Never back into the caller: _exit flushes no inherited stdio
        # buffer and prints no traceback, also when the parent has
        # closed the pipe.
        try:
            os.close(r)
            _write_frames(w, listed)
        finally:
            os._exit(0)
    os.close(w)
    os.set_blocking(r, False)
    try:
        yield _Arrivals(r)
    finally:
        os.close(r)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _raise(exc: Exception):
    raise exc


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

    def weather(payload, _meta, _day) -> None:
        readings, quarantined = parse_weather_observations(payload, stations)
        quarantine.extend(quarantined)
        summary.quarantined += len(quarantined)
        ingest(validate_weather, readings)

    def traffic(payload, route, _at) -> None:
        ingest(validate_traffic, [parse_traffic_response(payload, route)])

    def pollution(payload, station, day, _hour) -> None:
        readings = parse_pollution_tables(payload)
        ingest(validate_pollution, assemble_station_day(readings, station, day))

    def fetches(entry) -> list[tuple]:
        """The entry's fetches in order: (source method, its args, job, failure name, target).

        One broken station feed must not cost the other stations, so a
        sweep's fetches each name their station as the failure target.
        A poll's failure is the entry's.
        """
        if entry.kind == TRAFFIC_POLL:
            route = routes.get(entry.target)
            if route is None:
                raise ConfigError(f"plan names unknown route {entry.target!r}")
            return [(source.fetch_traffic, (route, entry.at), traffic, entry.kind, entry.target)]
        if entry.kind == WEATHER_BACKFILL:
            before = plan.day - timedelta(days=1)
            return [(source.fetch_weather, (meta, before), weather, "weather",
                     meta.station.file_id) for meta in config.weather_stations]
        if entry.kind == POLLUTION_SCRAPE:
            return [(source.fetch_pollution, (station, plan.day, entry.at.hour), pollution,
                     "pollution", station.file_id) for station in config.pollution_stations]
        raise ConfigError(f"unknown task kind {entry.kind!r}")

    # The due entries' fetches, numbered in firing order, and per plan
    # entry the numbers of its fetches, or None if it is skipped. An
    # entry that cannot be mapped is one fetch that raises its error.
    started_at = clock.now()
    daily = (WEATHER_BACKFILL, POLLUTION_SCRAPE)
    listed, spans = [], []
    for entry in plan.entries:
        if entry.at < started_at and entry.kind not in daily:
            spans.append(None)
            continue
        start = len(listed)
        try:
            listed += fetches(entry)
        except ConfigError as exc:
            listed.append((_raise, (exc,), None, entry.kind, entry.target))
        spans.append(range(start, len(listed)))

    try:
        with store.deferred(), _read_ahead(
                listed if type(source) is SynthSource else ()) as arrivals:
            for entry, span in zip(plan.entries, spans):
                if span is None:
                    summary.skipped += 1
                    continue
                clock.wait_until(entry.at)
                for i in span:
                    fetch, args, job, name, target = listed[i]
                    try:
                        job(arrivals and arrivals.take(i) or fetch(*args), *args)
                    except StorageUnavailable:
                        raise
                    except Error as exc:
                        failures.append(f"{name} {target}: {exc}")
                summary.fired += 1
    except StorageUnavailable as exc:
        raise RunAborted(f"store unavailable on {plan.day}: {exc}", summary) from exc
    return summary
