"""Source payload formats: parsing and serialization.

Three line-oriented text formats, one per source kind. Parsers turn a
payload into raw readings that keep every field as verbatim text;
nothing here interprets values beyond structural checks. Serializers
produce the exact same formats, so parse(serialize(x)) is an identity.

Weather payload, one observation per line::

    <station_file_id> <ISO-8601 local timestamp> key=value ...

Every value is written through shlex.quote. A key that is absent means the
sensor did not report. Lines starting with '#' and blank lines are
ignored.

Traffic payload, exactly one record::

    <route_file_id> <ISO-8601 timestamp> <dist_m> <time_std_s> <time_curr_s>

Pollution payload, one block per (station, contaminant, day)::

    station=<file_id> contaminant=<CODE> date=<YYYY-MM-DD>
    HH:MM <integer or dash>
    ...

Blocks are separated by blank lines. Hours 00 and 01 never appear; a
dash cell means the instrument had no value for that hour.
"""

from __future__ import annotations

import functools
import os
import re
import shlex
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from stat import S_ISREG
from typing import Iterable, Mapping, Sequence

from .errors import ConflictError, ParseError, PreconditionError, SourceError
from .model import (
    CONTAMINANTS,
    AIRPORT_ONLY_ATTRIBUTES,
    TRAFFIC_ATTRIBUTES,
    WEATHER_ATTRIBUTES,
    PollutionStation,
    TrafficRoute,
    WeatherStation,
)

__all__ = [
    "SourcePayload",
    "RawReading",
    "QuarantinedLine",
    "parse_weather_observations",
    "parse_traffic_response",
    "parse_pollution_tables",
    "assemble_station_day",
    "weather_payload_body",
    "traffic_payload_body",
    "pollution_payload_body",
    "FixtureDirectorySource",
    "WEATHER_KEYS",
    "CONTAMINANT_CODES",
    "NA_CELL",
]

# Keys allowed on a weather observation line: the record attributes
# plus the zone code.
WEATHER_KEYS = ("time_zone",) + WEATHER_ATTRIBUTES
# Set forms for the per-token membership tests of the weather parser.
_WEATHER_KEY_SET = frozenset(WEATHER_KEYS)
_AIRPORT_ONLY_SET = frozenset(AIRPORT_ONLY_ATTRIBUTES)

# Block headers use the upper-case external codes.
CONTAMINANT_CODES = {c.upper(): c for c in CONTAMINANTS}

# The dash marking an empty hourly cell. The em dash is what the
# upstream tables render; a plain hyphen is accepted on input.
NA_CELL = "—"
_NA_INPUTS = {NA_CELL, "-"}

TIMESTAMP_FMT = "%Y-%m-%dT%H:%M:%S"


@dataclass(frozen=True)
class SourcePayload:
    """One fetched body of source text and where it came from."""

    source_kind: str  # weather | traffic | pollution
    body: str
    origin: str  # URL, file path, or synth tag

    def __post_init__(self) -> None:
        if self.source_kind not in ("weather", "traffic", "pollution"):
            raise PreconditionError(f"unknown source kind {self.source_kind!r}")
        if not self.body:
            raise PreconditionError("payload body must be non-empty text")


@dataclass(frozen=True)
class RawReading:
    """One structurally parsed observation, all values still text.

    For weather this is a full observation line; for traffic the single
    measurement triple; for pollution one hourly cell (field dict empty
    when the cell was a dash) or, after assembly, one merged hour.
    """

    kind: str
    target: str  # station or route file_id
    timestamp: str  # verbatim local timestamp text
    fields: Mapping[str, str]
    origin: str
    station_kind: str | None = None  # weather only: pws | airport


@dataclass(frozen=True)
class QuarantinedLine:
    """A payload line set aside instead of parsed."""

    origin: str
    line_no: int
    line: str
    reason: str


def _content_lines(body: str) -> list[tuple[int, str]]:
    out = []
    for i, line in enumerate(body.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((i, stripped))
    return out


# Memoized: a record's timestamp is parsed by the parser's check and
# again by validation, and a day's payloads share about 400 distinct
# texts. datetimes are immutable, so sharing one is safe; errors are
# not cached. 1024 entries hold about 250 kB.
@functools.lru_cache(maxsize=1024)
def _parse_timestamp_text(text: str) -> datetime:
    return datetime.strptime(text, TIMESTAMP_FMT)


def _check_timestamp_text(text: str, origin: str, line_no: int) -> datetime:
    try:
        return _parse_timestamp_text(text)
    except ValueError:
        raise ParseError(f"bad timestamp {text!r}", origin=origin, line_no=line_no)


# The lines weather_payload_body writes, matched whole: station and
# timestamp as bare words, then ' key=value' pairs whose value is a
# non-empty bare word or a non-empty '...' run, each followed by a
# single space or the end. Such a line splits into the same tokens under
# shlex; any other line goes to shlex.split.
_FAST_BARE = r"""[^ \t\r\n'"\\]+"""
_FAST_LINE_RE = re.compile(
    rf"""({_FAST_BARE}) ({_FAST_BARE})((?: [a-z_]+=(?:{_FAST_BARE}|'[^']+'))*)""")
# Splits the pairs of a line _FAST_LINE_RE matched, so its simpler
# classes find the same pieces: (key, quoted value, bare value).
_FAST_FIELD_RE = re.compile(r" ([^=]+)=(?:'([^']+)'|([^ ]+))")


def _token_piece(token: str) -> tuple[str, str | None, str | None]:
    """A shlex token in the shape of a _FAST_FIELD_RE piece: (key, "",
    value) for a key=value token, (token, None, None) for any other."""
    key, sep, value = token.partition("=")
    return (key, "", value) if sep and key else (token, None, None)


def parse_weather_observations(
    payload: SourcePayload,
    stations: Mapping[str, WeatherStation],
) -> tuple[list[RawReading], list[QuarantinedLine]]:
    """Parse a weather payload against a station catalog.

    Observations for station ids missing from the catalog are
    quarantined, not fatal, and so is a line whose station and local
    time an earlier line of the payload already gave (the hour a
    daylight-saving change repeats). Structural defects (unknown key,
    duplicate key, airport-only key on a personal station, broken
    timestamp) stop the parse with a positioned error.
    """
    if payload.source_kind != "weather":
        raise PreconditionError(f"expected a weather payload, got {payload.source_kind}")
    readings: list[RawReading] = []
    quarantined: list[QuarantinedLine] = []
    # (station, local time) -> index in readings of the line that gave it
    first: dict[tuple[str, datetime], int] = {}
    for line_no, line in _content_lines(payload.body):
        m = _FAST_LINE_RE.fullmatch(line)
        if m is not None:
            file_id, ts_text, rest = m.groups()
            pieces = _FAST_FIELD_RE.findall(rest)
        else:
            try:
                tokens = shlex.split(line)
            except ValueError as exc:
                raise ParseError(f"unbalanced quoting: {exc}", origin=payload.origin,
                                 line_no=line_no)
            if len(tokens) < 2:
                raise ParseError("observation needs a station id and a timestamp",
                                 origin=payload.origin, line_no=line_no)
            file_id, ts_text = tokens[0], tokens[1]
            pieces = map(_token_piece, tokens[2:])
        ts = _check_timestamp_text(ts_text, payload.origin, line_no)
        station = stations.get(file_id)
        if station is None:
            quarantined.append(QuarantinedLine(
                origin=payload.origin, line_no=line_no, line=line,
                reason=f"unknown station id {file_id!r}",
            ))
            continue
        personal = not station.is_airport
        fields = {}
        for key, quoted, bare in pieces:
            if bare is None:
                raise ParseError(f"expected key=value, got {key!r}",
                                 origin=payload.origin, line_no=line_no)
            if key not in _WEATHER_KEY_SET:
                raise ParseError(f"unknown weather key {key!r}",
                                 origin=payload.origin, line_no=line_no)
            if key in fields:
                raise ParseError(f"duplicate key {key!r}",
                                 origin=payload.origin, line_no=line_no)
            if personal and key in _AIRPORT_ONLY_SET:
                raise ParseError(
                    f"key {key!r} is airport-only but {file_id} is a personal station",
                    origin=payload.origin, line_no=line_no)
            fields[key] = quoted or bare
        # The store keys a reading by station and local time, not zone,
        # so a second reading of one local time would read as a replay.
        i = first.setdefault((file_id, ts), len(readings))
        if i != len(readings):
            kept = readings[i]
            quarantined.append(QuarantinedLine(
                origin=payload.origin, line_no=line_no, line=line,
                reason=f"repeats {kept.timestamp} "
                       f"({kept.fields.get('time_zone') or '-'}) "
                       f"as {fields.get('time_zone') or '-'}",
            ))
            continue
        readings.append(RawReading(
            kind="weather", target=file_id, timestamp=ts_text, fields=fields,
            origin=payload.origin, station_kind=station.kind,
        ))
    return readings, quarantined


# A dict display with these names costs a fifth of dict(zip(...)) per poll.
_DIST, _STD, _CURR = TRAFFIC_ATTRIBUTES


def parse_traffic_response(payload: SourcePayload, route: TrafficRoute) -> RawReading:
    """Parse a single-record traffic payload bound to one route."""
    if payload.source_kind != "traffic":
        raise PreconditionError(f"expected a traffic payload, got {payload.source_kind}")
    lines = _content_lines(payload.body)
    if len(lines) != 1:
        raise ParseError(f"expected exactly one traffic record, got {len(lines)}",
                         origin=payload.origin)
    line_no, line = lines[0]
    tokens = line.split()
    if len(tokens) != 5:
        raise ParseError(
            f"traffic record needs 5 fields (route, timestamp, distance, "
            f"standard time, current time), got {len(tokens)}",
            origin=payload.origin, line_no=line_no)
    file_id, ts_text, dist, std, curr = tokens
    if file_id != route.file_id:
        raise ParseError(f"payload names route {file_id!r}, expected {route.file_id!r}",
                         origin=payload.origin, line_no=line_no)
    _check_timestamp_text(ts_text, payload.origin, line_no)
    return RawReading(
        kind="traffic", target=route.file_id, timestamp=ts_text,
        fields={_DIST: dist, _STD: std, _CURR: curr}, origin=payload.origin,
    )


_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _is_iso_date(text: str) -> bool:
    """True for a valid padded YYYY-MM-DD date.

    The fullmatch comes first because date.fromisoformat accepts
    '20160516' and '2016-W20-1' from Python 3.11 on.
    """
    if _DATE_RE.fullmatch(text) is None:
        return False
    try:
        date.fromisoformat(text)
    except ValueError:
        return False
    return True


def parse_pollution_tables(payload: SourcePayload) -> list[RawReading]:
    """Parse hourly contaminant tables into per-cell readings.

    Each reading covers one (station, hour, contaminant) cell; a dash
    cell yields a reading with an empty field dict so the hour is still
    known to exist. Duplicate cells are a conflict.
    """
    if payload.source_kind != "pollution":
        raise PreconditionError(f"expected a pollution payload, got {payload.source_kind}")
    readings: list[RawReading] = []
    seen: set[tuple[str, str, str, str]] = set()
    station = contaminant = day_text = None
    for line_no, line in _content_lines(payload.body):
        if line.startswith("station="):
            tokens = line.split()
            if len(tokens) != 3:
                raise ParseError("block header needs station=, contaminant= and date=",
                                 origin=payload.origin, line_no=line_no)
            head = {}
            for tok in tokens:
                key, sep, value = tok.partition("=")
                if not sep or key not in ("station", "contaminant", "date") or not value:
                    raise ParseError(f"bad header field {tok!r}",
                                     origin=payload.origin, line_no=line_no)
                head[key] = value
            if set(head) != {"station", "contaminant", "date"}:
                raise ParseError("block header needs station=, contaminant= and date=",
                                 origin=payload.origin, line_no=line_no)
            if head["contaminant"] not in CONTAMINANT_CODES:
                raise ParseError(f"unknown contaminant {head['contaminant']!r}",
                                 origin=payload.origin, line_no=line_no)
            if not _is_iso_date(head["date"]):
                raise ParseError(f"bad date {head['date']!r}",
                                 origin=payload.origin, line_no=line_no)
            station = head["station"]
            contaminant = CONTAMINANT_CODES[head["contaminant"]]
            day_text = head["date"]
            continue
        if station is None:
            raise ParseError("hour line before any block header",
                             origin=payload.origin, line_no=line_no)
        tokens = line.split()
        if len(tokens) not in (1, 2):
            raise ParseError(f"expected 'HH:MM value', got {line!r}",
                             origin=payload.origin, line_no=line_no)
        try:
            # The date is a placeholder: the wrapped text parses exactly
            # when strptime(tokens[0], "%H:%M") would.
            t = _parse_timestamp_text(f"2000-01-01T{tokens[0]}:00")
        except ValueError:
            raise ParseError(f"bad hour {tokens[0]!r}", origin=payload.origin,
                             line_no=line_no)
        # Key and stamp the cell by the parsed time, so '3:00' and
        # '03:00' are the same cell.
        hhmm = f"{t.hour:02d}:{t.minute:02d}"
        if t.hour in (0, 1):
            raise ParseError("hourly tables never list hours 00 or 01",
                             origin=payload.origin, line_no=line_no)
        key = (station, day_text, hhmm, contaminant)
        if key in seen:
            raise ConflictError(
                f"duplicate cell for station {station}, {day_text} {hhmm}, "
                f"{contaminant} [{payload.origin}:{line_no}]")
        seen.add(key)
        if len(tokens) == 2 and tokens[1] not in _NA_INPUTS:
            fields = {contaminant: tokens[1]}
        else:
            fields = {}
        readings.append(RawReading(
            kind="pollution", target=station, timestamp=f"{day_text}T{hhmm}:00",
            fields=fields, origin=payload.origin,
        ))
    return readings


def assemble_station_day(
    readings: Sequence[RawReading],
    station: PollutionStation,
    day: date,
) -> list[RawReading]:
    """Merge per-cell readings into one candidate reading per hour.

    All inputs must belong to the given station and day; mixing is a
    precondition error, since silently merging two stations would
    corrupt both. Output is ordered by hour; an hour whose cells were
    all dashes still yields a candidate (an all-empty hour is data).
    """
    by_hour: dict[str, dict[str, str]] = {}
    for r in readings:
        if r.kind != "pollution":
            raise PreconditionError(f"expected pollution readings, got {r.kind!r}")
        if r.target != station.file_id:
            raise PreconditionError(
                f"reading for station {r.target!r} mixed into {station.file_id!r}")
        r_day, _, hhmm_s = r.timestamp.partition("T")
        if r_day != day.isoformat():
            raise PreconditionError(
                f"reading dated {r_day} mixed into the {day.isoformat()} batch")
        merged = by_hour.setdefault(hhmm_s[:5], {})
        merged.update(r.fields)
    out = []
    for hhmm in sorted(by_hour):
        out.append(RawReading(
            kind="pollution", target=station.file_id,
            timestamp=f"{day.isoformat()}T{hhmm}:00",
            fields=by_hour[hhmm],
            origin=readings[0].origin,
        ))
    return out


def weather_payload_body(
    rows: Iterable[tuple[str, str, Mapping[str, str]]],
) -> str:
    """Serialize (station, timestamp, fields) rows to payload text.

    Keys are written in canonical attribute order so the output is
    byte-stable for a given input.
    """
    lines = []
    for file_id, ts_text, fields in rows:
        if not fields.keys() <= _WEATHER_KEY_SET:
            unknown = next(k for k in fields if k not in _WEATHER_KEY_SET)
            raise PreconditionError(f"unknown weather key {unknown!r}")
        keys = [key for key in WEATHER_KEYS if key in fields]
        values = map(shlex.quote, [fields[key] for key in keys])
        lines.append(" ".join([file_id, ts_text, *map("=".join, zip(keys, values))]))
    return "\n".join(lines) + "\n" if lines else "# no observations\n"


def traffic_payload_body(route_id: str, ts_text: str, dist: str,
                         t_std: str, t_curr: str) -> str:
    return f"{route_id} {ts_text} {dist} {t_std} {t_curr}\n"


def pollution_payload_body(
    blocks: Iterable[tuple[str, str, str, Sequence[tuple[str, str | None]]]],
) -> str:
    """Serialize (station, contaminant code, date, [(HH:MM, value|None)]) blocks."""
    chunks = []
    for station, code, day_text, cells in blocks:
        lines = [f"station={station} contaminant={code} date={day_text}"]
        for hhmm, value in cells:
            lines.append(f"{hhmm} {NA_CELL if value is None else value}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n" if chunks else "# no tables\n"


def _read_fixture(path: str | Path) -> str:
    """A fixture file's UTF-8 text; a file that cannot be read or decoded
    fails the one fetch that reads it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SourceError(f"cannot read fixture {path}: {exc}")


class FixtureDirectorySource:
    """Source registry reading pre-captured payloads from a directory.

    Layout::

        <root>/weather/<station_file_id>/<YYYY-MM-DD>.txt
        <root>/traffic/<route_file_id>/<YYYY-MM-DD>.txt
        <root>/pollution/<station_file_id>/<YYYY-MM-DD>.txt

    Traffic fixture files hold one record per line; the fetch picks the
    line whose timestamp matches the requested instant, and fails when
    another line at that instant differs from it. A route's day file is
    read once and indexed by timestamp; each poll stats it and reads it
    again only when its size or mtime has changed.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        # route file_id -> (day, path text, (st_mtime_ns, st_size),
        # {timestamp token: line, or "" if lines differ}) for the day last polled.
        self._traffic: dict[str, tuple[date, str, tuple[int, int] | None,
                                       dict[str, str]]] = {}

    def _read(self, kind: str, target: str, day: date) -> tuple[str, str]:
        path = self.root / kind / target / f"{day.isoformat()}.txt"
        if not path.is_file():
            raise SourceError(f"no {kind} fixture for {target} on {day}: {path}")
        return _read_fixture(path), str(path)

    def fetch_weather(self, meta, day: date) -> SourcePayload:
        body, origin = self._read("weather", meta.station.file_id, day)
        return SourcePayload("weather", body, origin)

    def fetch_traffic(self, route: TrafficRoute, at: datetime) -> SourcePayload:
        day = at.date()
        cached = self._traffic.get(route.file_id)
        if cached is None or cached[0] != day:
            path = self.root / "traffic" / route.file_id / f"{day.isoformat()}.txt"
            cached = (day, str(path), None, {})
        _, origin, signature, index = cached
        try:
            st = os.stat(origin)
        except OSError:
            st = None
        if st is None or not S_ISREG(st.st_mode):
            raise SourceError(
                f"no traffic fixture for {route.file_id} on {day}: {origin}")
        if (st.st_mtime_ns, st.st_size) != signature:
            index = {}
            for _, line in _content_lines(_read_fixture(origin)):
                tokens = line.split(None, 2)
                if len(tokens) > 1 and index.setdefault(tokens[1], line) != line:
                    index[tokens[1]] = ""
            self._traffic[route.file_id] = (
                day, origin, (st.st_mtime_ns, st.st_size), index)
        want = at.isoformat()
        line = index.get(want)
        if line is None:
            raise SourceError(f"no traffic fixture line at {want} in {origin}")
        if not line:
            raise SourceError(f"traffic fixture lines at {want} differ in {origin}")
        return SourcePayload("traffic", line + "\n", origin)

    def fetch_pollution(self, station: PollutionStation, day: date,
                        request_hour: int) -> SourcePayload:
        body, origin = self._read("pollution", station.file_id, day)
        return SourcePayload("pollution", body, origin)
