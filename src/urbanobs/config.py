"""Configuration: one static INI-style file describing a deployment.

Sections:

``[store]``        path to the database file.
``[points]``       named geo-points; routes are every ordered pair.
``[weather_stations]``  one station per line:
                   ``<file_id> = pws|airport <code> <lat> <long> <tz> <interval_min> <description>``
``[pollution_stations]`` ``<file_id> = <lat> <long> <description>``
``[cadence]``      bare window lines ``kind start end interval_min``.
``[rules]``        optional ``file = <path>`` overriding the default range rules.
``[synth]``        generator profile overrides (seed, curve and episode knobs).
``[time_zones]`` / ``[conds]`` / ``[icons]``  lookup seeds ``CODE = description``.

The compass-code lookup is fixed vocabulary and not configurable.
Values never interpolate; '=' is the only key separator so window and
time tokens may contain ':'. The ``URBANOBS_STORE`` environment
variable overrides the configured store path.

Every file is read by ``configparser`` with the settings in
``_sections()``, and a syntax error keeps configparser's text.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .model import (
    COMPASS_CODES,
    GeoPoint,
    Lookup,
    PollutionStation,
    TrafficRoute,
    WeatherStation,
    enumerate_routes,
)
from .scheduler import CadenceWindow, parse_hhmm
from .synth import SynthProfile
from .validation import RuleSet

__all__ = ["StationMeta", "Config", "load_config", "load_default",
           "default_config_text", "WDIRE_LOOKUPS", "STORE_ENV_VAR"]

STORE_ENV_VAR = "URBANOBS_STORE"

_WDIRE_NAMES = (
    "North", "North-northeast", "Northeast", "East-northeast",
    "East", "East-southeast", "Southeast", "South-southeast",
    "South", "South-southwest", "Southwest", "West-southwest",
    "West", "West-northwest", "Northwest", "North-northwest",
)
WDIRE_LOOKUPS = tuple(Lookup(code, name)
                      for code, name in zip(COMPASS_CODES, _WDIRE_NAMES))


@dataclass(frozen=True)
class StationMeta:
    """A weather station plus its collection settings."""

    station: WeatherStation
    tz: str
    interval_min: int

    def __post_init__(self) -> None:
        if not (1 <= self.interval_min <= 1440):
            raise ConfigError(
                f"station {self.station.file_id}: interval {self.interval_min} "
                f"outside 1..1440 minutes")


@dataclass(frozen=True)
class Config:
    store_path: str
    points: tuple[GeoPoint, ...]
    routes: tuple[TrafficRoute, ...]
    weather_stations: tuple[StationMeta, ...]
    pollution_stations: tuple[PollutionStation, ...]
    windows: tuple[CadenceWindow, ...]
    rules: RuleSet
    profile: SynthProfile
    time_zones: tuple[Lookup, ...]
    conds: tuple[Lookup, ...]
    icons: tuple[Lookup, ...]

    @property
    def wdires(self) -> tuple[Lookup, ...]:
        return WDIRE_LOOKUPS

    def with_store_path(self, path: str) -> "Config":
        return dataclasses.replace(self, store_path=path)


# {section: {key: value, or None for a bare key}}, in file order.
_Sections = dict[str, dict[str, "str | None"]]


def _sections(text: str, origin: str) -> _Sections:
    cp = configparser.ConfigParser(
        delimiters=("=",),
        allow_no_value=True,
        interpolation=None,
        strict=True,
        comment_prefixes=("#",),
    )
    # Option names are codes and file ids; case matters.
    cp.optionxform = str
    try:
        cp.read_string(text, source=origin)
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(
            f"{origin}: duplicate entry {exc.option!r} in [{exc.section}]"
            + (" (duplicate point name)" if exc.section == "points" else ""))
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}")
    except AttributeError:
        # configparser before 3.13 raises this for an indented line after a bare key.
        raise ConfigError(f"{origin}: key without value continued by an indented line")
    return {s: dict(cp.items(s)) for s in cp.sections()}


def _floats(pair: str, what: str) -> float:
    try:
        return float(pair)
    except ValueError:
        raise ConfigError(f"{what}: expected a number, got {pair!r}")


def _place(noun: str, key: str, value: str | None) -> tuple[float, float, str]:
    """``(lat, long, description)`` from a ``lat long description`` line."""
    parts = (value or "").split(maxsplit=2)
    if len(parts) < 2:
        raise ConfigError(f"{noun} {key!r}: expected 'lat long description'")
    where = f"{noun} {key}"
    return (_floats(parts[0], where), _floats(parts[1], where),
            parts[2] if len(parts) > 2 else "")


def _parse_points(items: dict) -> tuple[GeoPoint, ...]:
    return tuple(GeoPoint(name, *_place("point", name, value))
                 for name, value in items.items())


def _parse_weather_stations(items: dict) -> tuple[StationMeta, ...]:
    out = []
    for file_id, value in items.items():
        parts = (value or "").split(maxsplit=6)
        if len(parts) < 6:
            raise ConfigError(
                f"station {file_id!r}: expected "
                f"'pws|airport code lat long tz interval description'")
        kind, code, lat_s, long_s, tz, interval_s = parts[:6]
        desc = parts[6] if len(parts) > 6 else ""
        if kind not in ("pws", "airport"):
            raise ConfigError(f"station {file_id!r}: kind must be pws or airport")
        try:
            interval = int(interval_s)
        except ValueError:
            raise ConfigError(f"station {file_id!r}: bad interval {interval_s!r}")
        station = WeatherStation(
            file_id=file_id,
            lat=_floats(lat_s, f"station {file_id}"),
            long=_floats(long_s, f"station {file_id}"),
            description=desc,
            station_id=code if kind == "pws" else None,
            airport_code=code if kind == "airport" else None,
        )
        out.append(StationMeta(station=station, tz=tz, interval_min=interval))
    return tuple(out)


def _parse_pollution_stations(items: dict) -> tuple[PollutionStation, ...]:
    return tuple(PollutionStation(key, *_place("pollution station", key, value))
                 for key, value in items.items())


def _parse_cadence(items: dict) -> tuple[CadenceWindow, ...]:
    windows = []
    for key, value in items.items():
        line = key if value is None else f"{key} {value}"
        tokens = line.split()
        if len(tokens) != 4:
            raise ConfigError(
                f"cadence line {line!r}: expected 'kind start end interval_min'")
        windows.append(CadenceWindow.from_tokens(*tokens))
    return tuple(windows)


def _parse_lookups(items: dict) -> tuple[Lookup, ...]:
    return tuple(Lookup(code=key, description=value or "")
                 for key, value in items.items())


_SYNTH_FLOATS = frozenset(f.name for f in dataclasses.fields(SynthProfile)
                          if f.type == "float")


def _parse_synth(items: dict) -> SynthProfile:
    kwargs: dict = {}
    for key, value in items.items():
        if value is None:
            raise ConfigError(f"synth {key!r}: missing value")
        if key == "seed":
            try:
                kwargs["seed"] = int(value)
            except ValueError:
                raise ConfigError(f"synth seed {value!r} is not an integer")
        elif key == "baselines":
            baselines = {}
            for pair in value.split():
                name, sep, num = pair.partition(":")
                if not sep:
                    raise ConfigError(
                        f"synth baselines: expected 'name:value', got {pair!r}")
                try:
                    baselines[name] = int(num)
                except ValueError:
                    raise ConfigError(f"synth baseline {pair!r}: bad value")
            kwargs["baselines"] = baselines
        elif key == "peak_windows":
            wins = []
            for span in value.split():
                lo, sep, hi = span.partition("-")
                if not sep:
                    raise ConfigError(
                        f"synth peak window {span!r}: expected 'HH:MM-HH:MM'")
                wins.append((parse_hhmm(lo), parse_hhmm(hi)))
            kwargs["peak_windows"] = tuple(wins)
        elif key in _SYNTH_FLOATS:
            kwargs[key] = _floats(value, f"synth {key}")
        else:
            raise ConfigError(f"unknown synth setting {key!r}")
    return SynthProfile(**kwargs)


def _parse_rules(items: dict, base_dir: Path | None) -> RuleSet:
    """The rules a ``[rules] file`` names, else the defaults.

    A relative path is read from ``base_dir``, or, when that is None
    (the packaged config), from the working directory, which is looked
    up only then.
    """
    unknown = sorted(items.keys() - {"file"})
    if unknown:
        raise ConfigError(f"unknown rules settings: {', '.join(unknown)}")
    path_s = items.get("file")
    if path_s is None:
        return RuleSet.defaults()
    path = Path(path_s)
    if not path.is_absolute():
        path = (Path.cwd() if base_dir is None else base_dir) / path
    if not path.is_file():
        raise ConfigError(f"rules file not found: {path}")
    return RuleSet.from_text(path.read_text(), origin=str(path))


def _build(sections: _Sections, base_dir: Path | None) -> Config:
    for section in ("points", "weather_stations", "pollution_stations"):
        if section not in sections:
            raise ConfigError(f"config is missing the [{section}] section")
    points = _parse_points(sections["points"])
    if len(points) == 1:
        raise ConfigError("one configured point makes no routes; give two or none")
    routes = tuple(enumerate_routes(points)) if points else ()
    store_path = sections.get("store", {}).get("path") or "urbanobs.db"
    env_path = os.environ.get(STORE_ENV_VAR)
    if env_path:
        store_path = env_path
    stations = _parse_weather_stations(sections["weather_stations"])
    seen = {}
    for meta in stations:
        code = meta.station.station_id or meta.station.airport_code
        if code in seen:
            raise ConfigError(
                f"stations {seen[code]!r} and {meta.station.file_id!r} share "
                f"provider code {code!r}")
        seen[code] = meta.station.file_id
    config = Config(
        store_path=store_path,
        points=points,
        routes=routes,
        weather_stations=stations,
        pollution_stations=_parse_pollution_stations(sections["pollution_stations"]),
        windows=_parse_cadence(sections.get("cadence", {})),
        rules=_parse_rules(sections.get("rules", {}), base_dir),
        profile=_parse_synth(sections.get("synth", {})),
        time_zones=_parse_lookups(sections.get("time_zones", {})),
        conds=_parse_lookups(sections.get("conds", {})),
        icons=_parse_lookups(sections.get("icons", {})),
    )
    tz_codes = {l.code for l in config.time_zones}
    for meta in stations:
        if meta.tz not in tz_codes:
            raise ConfigError(
                f"station {meta.station.file_id!r} uses time zone {meta.tz!r} "
                f"which is not in [time_zones]")
    return config


def load_config(path: str | Path) -> Config:
    """Parse and cross-check one config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return _build(_sections(path.read_text(), str(path)), path.parent.resolve())


def default_config_text() -> str:
    """The packaged default deployment description."""
    return (resources.files("urbanobs") / "data" / "default.cfg").read_text()


def load_default() -> Config:
    return _build(_sections(default_config_text(), "<default config>"), None)
