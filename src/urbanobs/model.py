"""Domain types and pure computations.

Everything here is immutable and free of I/O: record and catalog
dataclasses, the air-quality category scale, the 16-point compass
rose, and route-pair enumeration over named geographic points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import date, datetime
from enum import Enum
from typing import Sequence

from .errors import ConfigError, OutOfRangeError

__all__ = [
    "ImecaCategory",
    "classify_imeca",
    "IMECA_MIN",
    "IMECA_MAX",
    "COMPASS_CODES",
    "compass_point",
    "haversine_m",
    "GeoPoint",
    "WeatherStation",
    "TrafficRoute",
    "PollutionStation",
    "Lookup",
    "WeatherRecord",
    "TrafficRecord",
    "PollutionRecord",
    "enumerate_routes",
    "CONTAMINANTS",
    "WEATHER_ATTRIBUTES",
    "WEATHER_FLAG_ATTRIBUTES",
    "WEATHER_NUMERIC_ATTRIBUTES",
    "WEATHER_TEXT_MAX",
    "TRAFFIC_ATTRIBUTES",
    "AIRPORT_ONLY_ATTRIBUTES",
]

IMECA_MIN = 0
IMECA_MAX = 500


class ImecaCategory(Enum):
    """Air-quality category on the 0..500 point scale.

    Bounds are inclusive on both ends; the five bands partition the
    scale with no gaps and no overlap.
    """

    GOOD = (0, 50)
    REGULAR = (51, 100)
    BAD = (101, 150)
    VERY_BAD = (151, 200)
    EXTREMELY_BAD = (201, 500)

    @property
    def low(self) -> int:
        return self.value[0]

    @property
    def high(self) -> int:
        return self.value[1]

    @property
    def severity(self) -> int:
        """Rank from 0 (GOOD) to 4 (EXTREMELY_BAD)."""
        return _SEVERITY[self]


_SEVERITY = {cat: i for i, cat in enumerate(ImecaCategory)}


def classify_imeca(value: int) -> ImecaCategory:
    """Map an integer air-quality reading onto its category.

    Values outside the 0..500 scale are an error here: validation is
    expected to null them out before anything asks for a category.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise OutOfRangeError(f"air-quality index must be an integer, got {value!r}")
    if value < IMECA_MIN or value > IMECA_MAX:
        raise OutOfRangeError(
            f"air-quality index {value} is outside the {IMECA_MIN}..{IMECA_MAX} scale"
        )
    for cat in ImecaCategory:
        if cat.low <= value <= cat.high:
            return cat
    raise AssertionError("categories partition the scale")  # pragma: no cover


COMPASS_CODES = (
    "N", "NNE", "NE", "ENE", "E", "ESE", "SE", "SSE",
    "S", "SSW", "SW", "WSW", "W", "WNW", "NW", "NNW",
)

_SECTOR_DEG = 22.5  # 360 / 16


def compass_point(degrees: float) -> str:
    """16-point compass code for a wind direction in degrees.

    Sectors are half-open, centred on each code: N covers
    [348.75, 360) plus [0, 11.25). 360 is accepted as an alias for 0.
    """
    if not isinstance(degrees, (int, float)) or isinstance(degrees, bool):
        raise OutOfRangeError(f"wind direction must be a number, got {degrees!r}")
    if math.isnan(degrees) or degrees < 0 or degrees > 360:
        raise OutOfRangeError(f"wind direction {degrees!r} is outside 0..360 degrees")
    idx = int(((degrees + _SECTOR_DEG / 2) % 360.0) // _SECTOR_DEG)
    return COMPASS_CODES[idx]


_EARTH_RADIUS_M = 6371000.0


def haversine_m(lat1: float, long1: float, lat2: float, long2: float) -> float:
    """Great-circle distance between two coordinates, in meters."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(long2 - long1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * _EARTH_RADIUS_M * math.asin(math.sqrt(a))


def _check_timestamp(ts: datetime, kind: str) -> None:
    """A record's timestamp is naive and in whole seconds, so its
    isoformat text is 'YYYY-MM-DDTHH:MM:SS' and sorts chronologically."""
    if not isinstance(ts, datetime):
        raise OutOfRangeError(f"{kind} record needs a datetime timestamp")
    if ts.tzinfo is not None or ts.microsecond:
        raise OutOfRangeError(
            f"{kind} timestamp {ts} is not naive local time in whole seconds")


def _check_coords(lat: float, long: float, what: str) -> None:
    if not (-90.0 <= lat <= 90.0):
        raise ConfigError(f"{what}: latitude {lat} is outside -90..90")
    if not (-180.0 <= long <= 180.0):
        raise ConfigError(f"{what}: longitude {long} is outside -180..180")


@dataclass(frozen=True)
class GeoPoint:
    """Named place used as a traffic route endpoint."""

    name: str
    lat: float
    long: float
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.strip():
            raise ConfigError(f"point name {self.name!r} is empty or padded")
        _check_coords(self.lat, self.long, f"point {self.name}")


@dataclass(frozen=True)
class WeatherStation:
    """One weather source: a personal station or an airport feed.

    Exactly one of station_id (personal station) or airport_code
    (airport) is set; that choice also decides which record attributes
    the station may report.
    """

    file_id: str
    lat: float
    long: float
    description: str = ""
    station_id: str | None = None
    airport_code: str | None = None
    software_type: str | None = None
    since: date | None = None

    def __post_init__(self) -> None:
        if not self.file_id:
            raise ConfigError("weather station needs a file_id")
        if (self.station_id is None) == (self.airport_code is None):
            raise ConfigError(
                f"station {self.file_id}: exactly one of station_id or "
                f"airport_code must be set"
            )
        _check_coords(self.lat, self.long, f"station {self.file_id}")

    @property
    def is_airport(self) -> bool:
        return self.airport_code is not None

    @property
    def kind(self) -> str:
        return "airport" if self.is_airport else "pws"


@dataclass(frozen=True)
class TrafficRoute:
    """Directed start/end pair monitored for travel time."""

    file_id: str
    start_lat: float
    start_long: float
    end_lat: float
    end_long: float
    description_from: str = ""
    description_to: str = ""

    def __post_init__(self) -> None:
        if not self.file_id:
            raise ConfigError("route needs a file_id")
        _check_coords(self.start_lat, self.start_long, f"route {self.file_id} start")
        _check_coords(self.end_lat, self.end_long, f"route {self.file_id} end")
        if (self.start_lat, self.start_long) == (self.end_lat, self.end_long):
            raise ConfigError(f"route {self.file_id}: start and end coincide")


@dataclass(frozen=True)
class PollutionStation:
    """Fixed air-quality monitoring unit."""

    file_id: str
    lat: float
    long: float
    description: str = ""

    def __post_init__(self) -> None:
        if not self.file_id:
            raise ConfigError("pollution station needs a file_id")
        _check_coords(self.lat, self.long, f"pollution station {self.file_id}")


@dataclass(frozen=True)
class Lookup:
    """Row of a code table (time zones, sky conditions, icons, compass)."""

    code: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.code:
            raise ConfigError("lookup code must be non-empty")


# Only airport feeds carry these; a personal station reporting one is a
# format violation.
AIRPORT_ONLY_ATTRIBUTES = (
    "vis", "precip", "fog", "rain", "snow", "hail", "thunder", "tornado", "metar",
)

# Texts a CSV export writes as stored. An empty one would re-import as
# NA. Python 3.11's csv writer leaves a "\r" unquoted, which then does
# not re-import, and 3.10's cannot write a NUL.
_TEXT_ATTRIBUTES = ("tz", "cond", "icon", "metar")
# Longest zone, code or METAR text kept, far above a real METAR and far
# below the 131,072 characters the csv module re-imports in one field.
WEATHER_TEXT_MAX = 4096
_NONNEGATIVE_ATTRIBUTES = ("wspd", "wgust", "preciprate", "preciptotal",
                           "solarradiation", "uv", "vis", "precip")


@dataclass(frozen=True)
class WeatherRecord:
    """One cleaned multi-attribute observation at one weather station.

    Attribute value None means not-available: either the source never
    reported the field or validation nulled it. Timestamps are naive
    local time in whole seconds; tz names the zone through the code table.
    A zone, code or METAR text is not empty, holds no line break or NUL
    and is at most WEATHER_TEXT_MAX characters long.
    """

    timestamp: datetime
    station: str  # station file_id; resolved to a row id at insert
    tz: str | None = None
    temp: float | None = None          # Celsius
    dewpt: float | None = None         # Celsius
    hum: float | None = None           # percent
    wspd: float | None = None          # km/h
    wgust: float | None = None         # km/h
    wdird: float | None = None         # degrees
    wdire: str | None = None           # compass code
    pressure: float | None = None      # hPa
    windchill: float | None = None     # Celsius
    heatindex: float | None = None     # Celsius
    preciprate: float | None = None    # mm/h
    preciptotal: float | None = None   # mm since local midnight
    solarradiation: float | None = None  # W/m2
    uv: float | None = None            # UV index
    vis: float | None = None           # km, airport only
    precip: float | None = None        # mm, airport only
    cond: str | None = None            # sky condition code
    icon: str | None = None            # icon code
    fog: int | None = None             # 0/1, airport only
    rain: int | None = None
    snow: int | None = None
    hail: int | None = None
    thunder: int | None = None
    tornado: int | None = None
    metar: str | None = None           # raw aviation report, kept verbatim

    def __post_init__(self) -> None:
        _check_timestamp(self.timestamp, "weather")
        if not self.station:
            raise OutOfRangeError("weather record needs a station")
        if self.hum is not None and not (0 <= self.hum <= 100):
            raise OutOfRangeError(f"hum {self.hum} outside 0..100")
        if self.wdird is not None and not (0 <= self.wdird <= 360):
            raise OutOfRangeError(f"wdird {self.wdird} outside 0..360")
        values = self.__dict__  # plain lookups: cheaper than getattr
        for name in _NONNEGATIVE_ATTRIBUTES:
            v = values[name]
            if v is not None and v < 0:
                raise OutOfRangeError(f"{name} {v} is negative")
        for name in WEATHER_FLAG_ATTRIBUTES:
            v = values[name]
            if v is not None and (isinstance(v, bool) or v not in (0, 1)):
                raise OutOfRangeError(f"{name} must be 0 or 1")
        if self.wdire is not None and self.wdire not in COMPASS_CODES:
            raise OutOfRangeError(f"wdire {self.wdire!r} is not a compass code")
        for name in _TEXT_ATTRIBUTES:
            v = values[name]
            if not isinstance(v, str):
                continue
            if not v or "\n" in v or "\r" in v or "\0" in v:
                raise OutOfRangeError(f"{name} text is empty or holds a line break or NUL")
            if len(v) > WEATHER_TEXT_MAX:
                raise OutOfRangeError(
                    f"{name} text is longer than {WEATHER_TEXT_MAX} characters")


@dataclass(frozen=True)
class TrafficRecord:
    """Travel distance and times over one route at one instant.

    The three measurements form an atomic triple: a record with any of
    them missing or broken is never built (validation rejects the whole
    candidate instead).
    """

    timestamp: datetime
    route: str  # route file_id
    traveldist: float       # meters
    traveltime_std: float   # seconds, free-flow estimate
    traveltime_curr: float  # seconds, current estimate

    def __post_init__(self) -> None:
        _check_timestamp(self.timestamp, "traffic")
        if not self.route:
            raise OutOfRangeError("traffic record needs a route")
        for name in TRAFFIC_ATTRIBUTES:
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
                raise OutOfRangeError(f"{name} must be a positive number, got {v!r}")


@dataclass(frozen=True)
class PollutionRecord:
    """Concentrations of the six tracked contaminants for one exact hour.

    An all-None row is legitimate data: the station was up but no
    contaminant reported. Hours 00 and 01 never occur because the
    upstream tables start publishing at 02:00.
    """

    timestamp: datetime
    station: str  # station file_id
    pm10: int | None = None
    o3: int | None = None
    co: int | None = None
    so2: int | None = None
    no2: int | None = None
    pm25: int | None = None

    def __post_init__(self) -> None:
        _check_timestamp(self.timestamp, "pollution")
        if not self.station:
            raise OutOfRangeError("pollution record needs a station")
        if self.timestamp.minute or self.timestamp.second:
            raise OutOfRangeError(
                f"pollution timestamp {self.timestamp} is not an exact hour"
            )
        if self.timestamp.hour in (0, 1):
            raise OutOfRangeError("pollution tables never carry hours 00 or 01")
        for name in CONTAMINANTS:
            v = getattr(self, name)
            if v is None:
                continue
            if isinstance(v, bool) or not isinstance(v, int):
                raise OutOfRangeError(f"{name} must be an integer, got {v!r}")
            if v < IMECA_MIN or v > IMECA_MAX:
                raise OutOfRangeError(f"{name} {v} outside the index scale")

    def worst_category(self) -> ImecaCategory | None:
        """Most severe category over the non-empty contaminants."""
        cats = [classify_imeca(getattr(self, c)) for c in CONTAMINANTS
                if getattr(self, c) is not None]
        if not cats:
            return None
        return max(cats, key=lambda c: c.severity)


def _measures(record_type, declared: str | None = None) -> tuple[str, ...]:
    # Fields after the keys (timestamp, location, weather zone), in column
    # and payload key order; with `declared`, only those annotated so.
    return tuple(f.name for f in fields(record_type)
                 if f.name not in ("timestamp", "station", "route", "tz")
                 and declared in (None, f.type))


WEATHER_ATTRIBUTES = _measures(WeatherRecord)
WEATHER_NUMERIC_ATTRIBUTES = _measures(WeatherRecord, "float | None")
WEATHER_FLAG_ATTRIBUTES = _measures(WeatherRecord, "int | None")
TRAFFIC_ATTRIBUTES = _measures(TrafficRecord)
CONTAMINANTS = _measures(PollutionRecord)


def enumerate_routes(points: Sequence[GeoPoint]) -> list[TrafficRoute]:
    """All ordered pairs over the given points, as routes.

    n points yield exactly n*(n-1) routes, in deterministic order by
    (start name, end name). A route's id is "<start>-<end>". Duplicate
    names, duplicate coordinates and two pairs that give one id are
    configuration errors.
    """
    if len(points) < 2:
        raise ConfigError("route enumeration needs at least two points")
    seen_names: set[str] = set()
    seen_coords: dict[tuple[float, float], str] = {}
    for p in points:
        if p.name in seen_names:
            raise ConfigError(f"duplicate point name {p.name!r}")
        seen_names.add(p.name)
        key = (p.lat, p.long)
        if key in seen_coords:
            raise ConfigError(
                f"points {seen_coords[key]!r} and {p.name!r} share coordinates {key}"
            )
        seen_coords[key] = p.name
    ordered = sorted(points, key=lambda p: p.name)
    routes = []
    pairs: dict[str, str] = {}
    for a in ordered:
        for b in ordered:
            if a.name == b.name:
                continue
            file_id = f"{a.name}-{b.name}"
            pair = f"{a.name!r} -> {b.name!r}"
            if file_id in pairs:
                raise ConfigError(
                    f"routes {pairs[file_id]} and {pair} share the id {file_id!r}")
            pairs[file_id] = pair
            routes.append(TrafficRoute(
                file_id=file_id,
                start_lat=a.lat, start_long=a.long,
                end_lat=b.lat, end_long=b.long,
                description_from=a.description or a.name,
                description_to=b.description or b.name,
            ))
    return routes
