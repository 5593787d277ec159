"""Captured payload files with a seeded share of corruption, and the ledger
of what that corruption must do to a collection day.

The files follow ``FixtureDirectorySource``'s layout and are written from
the synthetic generator, then damaged:

- weather: one numeric field of some lines gets an out-of-range or
  non-numeric value (validation substitutes NA);
- traffic: one number of some poll lines is made invalid (the whole
  record is rejected);
- pollution: some numeric hourly cells get an invalid value (NA);
- weather: extra lines for unknown station ids (quarantined);
- one weather station-day gets an unknown key (the parse fails, so the
  station-day becomes one per-station failure and all its lines are lost).

The ledger counts, from the clean text, what every column and every day
should hold afterwards, so the gate needs no second ingest to compare to.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

from urbanobs.model import WEATHER_FLAG_ATTRIBUTES, WEATHER_NUMERIC_ATTRIBUTES
from urbanobs.scheduler import TRAFFIC_POLL, build_plan
from urbanobs.storage import REPORT_COLUMNS

# Corruption shares, per line or per cell.
WEATHER_FIELD_SHARE = 0.02
TRAFFIC_LINE_SHARE = 0.01
POLLUTION_CELL_SHARE = 0.02
QUARANTINE_LINE_SHARE = 0.005

BAD_NUMBERS = ("99999", "-99999", "abc", "nan")
BAD_TRAFFIC = ("-5", "0", "999999", "abc")
BAD_CELLS = ("999", "-7", "12.5", "abc")

# One shell word as shlex.quote writes it: bare characters and
# single-quoted runs, no backslashes.
_WORD = re.compile(r"(?:[^\s'\"]|'[^']*'|\"[^\"]*\")+")

# Report column -> payload key, where they differ.
_REPORT_KEY = {"id_wdire": "wdire"}


@dataclass
class DayExpect:
    """What run_day must report for one captured day."""

    stored: int = 0
    rejected: int = 0
    quarantined: int = 0
    station_failures: int = 0

    @property
    def failures(self) -> int:
        # Every rejected record also appends one failure string.
        return self.rejected + self.station_failures


@dataclass
class Ledger:
    days: dict = field(default_factory=dict)  # date -> DayExpect
    # (table, report column) -> values that must reach the store
    present: Counter = field(default_factory=Counter)
    # (table, attribute) -> values that must reach the store, for fsum
    values: dict = field(default_factory=lambda: defaultdict(list))
    substituted: Counter = field(default_factory=Counter)  # kind -> fields nulled
    broken: tuple | None = None  # (day, station file_id)

    def day(self, d: date) -> DayExpect:
        return self.days.setdefault(d, DayExpect())

    @property
    def totals(self) -> dict:
        return {
            "stored": sum(e.stored for e in self.days.values()),
            "rejected": sum(e.rejected for e in self.days.values()),
            "quarantined": sum(e.quarantined for e in self.days.values()),
            "station_failures": sum(e.station_failures for e in self.days.values()),
            "substituted": dict(self.substituted),
        }


def _unquote(word: str) -> str:
    if "'" not in word and '"' not in word:
        return word
    out = []
    for m in re.finditer(r"'([^']*)'|\"([^\"]*)\"|([^'\"]+)", word):
        out.append(next(g for g in m.groups() if g is not None))
    return "".join(out)


def weather_fields(line: str) -> tuple[str, str, dict[str, str]]:
    """(station, timestamp, {key: value}) of one serialized observation."""
    words = _WORD.findall(line)
    fields = {}
    for w in words[2:]:
        key, _, value = w.partition("=")
        fields[key] = _unquote(value)
    return words[0], words[1], fields


def _replace_field(line: str, key: str, value: str) -> str:
    words = _WORD.findall(line)
    for i, w in enumerate(words):
        if w.startswith(key + "="):
            words[i] = f"{key}={value}"
            return " ".join(words)
    raise KeyError(key)


class Injector:
    """Damages payload text and books the expected effect in a ledger."""

    def __init__(self, rng: random.Random, ledger: Ledger) -> None:
        self.rng = rng
        self.ledger = ledger
        self._ghosts = 0

    def weather(self, body: str, run_day: date, broken: bool) -> str:
        """One station-day of observations; `run_day` is the day that fetches it."""
        exp = self.ledger.day(run_day)
        lines = [ln for ln in body.splitlines() if ln.strip() and not ln.startswith("#")]
        if broken:
            exp.station_failures += 1
            mid = len(lines) // 2
            station, ts, _ = weather_fields(lines[mid])
            lines.insert(mid, f"{station} {ts} bogus_key=1")
            return "\n".join(lines) + "\n"
        out = []
        for line in lines:
            station, ts, fields = weather_fields(line)
            numeric = [k for k in WEATHER_NUMERIC_ATTRIBUTES if k in fields]
            bad_key = None
            if numeric and self.rng.random() < WEATHER_FIELD_SHARE:
                bad_key = self.rng.choice(numeric)
                line = _replace_field(line, bad_key, self.rng.choice(BAD_NUMBERS))
                self.ledger.substituted["weather"] += 1
            for col in REPORT_COLUMNS["weathers"]:
                key = _REPORT_KEY.get(col, col)
                if key in fields and key != bad_key:
                    self.ledger.present[("weathers", col)] += 1
            for key in WEATHER_NUMERIC_ATTRIBUTES:
                if key in fields and key != bad_key:
                    self.ledger.values[("weathers", key)].append(float(fields[key]))
            for key in WEATHER_FLAG_ATTRIBUTES:
                if key in fields:
                    self.ledger.values[("weathers", key)].append(int(fields[key]))
            exp.stored += 1
            out.append(line)
            if self.rng.random() < QUARANTINE_LINE_SHARE:
                self._ghosts += 1
                out.append(f"pws_ghost{self._ghosts % 7} {ts} temp=20.0")
                exp.quarantined += 1
        return "\n".join(out) + "\n"

    def traffic_line(self, line: str, run_day: date) -> str:
        exp = self.ledger.day(run_day)
        words = line.split()
        if self.rng.random() < TRAFFIC_LINE_SHARE:
            words[self.rng.randrange(2, 5)] = self.rng.choice(BAD_TRAFFIC)
            exp.rejected += 1
            return " ".join(words)
        exp.stored += 1
        for col, text in zip(("traveldist", "traveltime_std", "traveltime_curr"), words[2:]):
            self.ledger.present[("traffics", col)] += 1
            self.ledger.values[("traffics", col)].append(float(text))
        return line

    def pollution(self, body: str, run_day: date) -> str:
        exp = self.ledger.day(run_day)
        out, hours, contaminant = [], set(), None
        for line in body.splitlines():
            words = line.split()
            if line.startswith("station="):
                contaminant = dict(w.split("=", 1) for w in words)["contaminant"].lower()
            elif len(words) == 2 and words[1].lstrip("-").isdigit():
                hours.add(words[0])
                if self.rng.random() < POLLUTION_CELL_SHARE:
                    line = f"{words[0]} {self.rng.choice(BAD_CELLS)}"
                    self.ledger.substituted["pollution"] += 1
                else:
                    self.ledger.present[("pollutions", contaminant)] += 1
                    self.ledger.values[("pollutions", contaminant)].append(int(words[1]))
            elif len(words) in (1, 2) and ":" in words[0]:
                hours.add(words[0])
            out.append(line)
        exp.stored += len(hours)
        return "\n".join(out) + "\n"


def write_captured_days(root: Path, cfg, source, days, rng: random.Random) -> Ledger:
    """Write fixture files for `days` under `root`; return the ledger.

    Each day's weather backfill reads the previous day's file, so
    weather files are dated one day before the day that fetches them.
    """
    ledger = Ledger()
    inj = Injector(rng, ledger)
    broken_day = days[rng.randrange(len(days))]
    broken_station = rng.choice(cfg.weather_stations).station.file_id
    ledger.broken = (broken_day, broken_station)
    for d in days:
        ledger.day(d)
        before = d - timedelta(days=1)
        for meta in cfg.weather_stations:
            sid = meta.station.file_id
            body = source.fetch_weather(meta, before).body
            text = inj.weather(body, d, (d, sid) == ledger.broken)
            _write(root / "weather" / sid / f"{before.isoformat()}.txt", text)
        plan = build_plan(cfg.windows, cfg.routes, d)
        routes = {r.file_id: r for r in cfg.routes}
        per_route: dict[str, list[str]] = defaultdict(list)
        for entry in plan.entries:
            if entry.kind == TRAFFIC_POLL:
                line = source.fetch_traffic(routes[entry.target], entry.at).body.strip()
                per_route[entry.target].append(inj.traffic_line(line, d))
        for rid, lines in per_route.items():
            _write(root / "traffic" / rid / f"{d.isoformat()}.txt", "\n".join(lines) + "\n")
        for station in cfg.pollution_stations:
            body = source.fetch_pollution(station, d, 23).body
            _write(root / "pollution" / station.file_id / f"{d.isoformat()}.txt",
                   inj.pollution(body, d))
    return ledger


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def check_values(ledger: Ledger, imported: dict) -> list[str]:
    """Compare stored columns against the ledger; return the mismatches.

    `imported` maps table -> QueryResult re-read from an export. Counts
    must match exactly and so must the exactly rounded sum (math.fsum),
    so no value was dropped, added or changed.
    """
    problems = []
    for (table, col), want in sorted(ledger.values.items()):
        result = imported[table]
        i = result.columns.index(col)
        got = [row[i] for row in result.rows if row[i] is not None]
        if len(got) != len(want) or math.fsum(got) != math.fsum(want):
            problems.append(f"{table}.{col}: stored n={len(got)} sum={math.fsum(got)!r}, "
                            f"expected n={len(want)} sum={math.fsum(want)!r}")
    return problems


def check_report(ledger: Ledger, nonempty: dict) -> list[str]:
    """Compare report non-empty counts per (table, column) with the ledger."""
    problems = []
    for key in sorted(set(nonempty) | set(ledger.present)):
        if nonempty.get(key, 0) != ledger.present.get(key, 0):
            problems.append(f"{key[0]}.{key[1]}: report says {nonempty.get(key, 0)}, "
                            f"expected {ledger.present.get(key, 0)}")
    return problems
