"""Deterministic synthetic source data.

The generator stands in for the live city feeds. It is seeded and
splittable: every payload draws from its own rng keyed by
(seed, source kind, target, day), so regenerating one station-day never
depends on what else was generated, and equal inputs give buck-for-buck
identical payload text.

Values are in range by construction. That is deliberate: end-to-end
tests compare stored record counts against the schedule, which only
works if validation has nothing to drop. Gaps, pollution episodes and
whole-day outages come from the same seeded stream, so a given seed
always produces the same holes.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from typing import Mapping

from .connectors import (
    SourcePayload,
    pollution_payload_body,
    traffic_payload_body,
    weather_payload_body,
)
from .errors import ConfigError
from .model import (
    CONTAMINANTS,
    PollutionStation,
    TrafficRoute,
    compass_point,
    haversine_m,
)

__all__ = ["SynthProfile", "SynthSource", "gen_weather_day",
           "gen_traffic_response", "gen_pollution_day", "route_distance_m"]

# Bounds observed across the monitored route set, meters.
ROUTE_DIST_MIN_M = 12300
ROUTE_DIST_MAX_M = 60400

# Diurnal swing and jitter applied to contaminant baselines. Kept small
# so a baseline b never produces values above ceil(b * (1 + _POLL_SWING)
# + _POLL_JITTER) outside an episode.
_POLL_SWING = 0.15
_POLL_JITTER = 3.0


@dataclass(frozen=True)
class SynthProfile:
    """Tuning knobs for the generator; defaults give plausible city data."""

    seed: int = 20160515
    # weather
    temp_mean_c: float = 22.0
    temp_swing_c: float = 7.0      # half daily amplitude
    temp_peak_hour: float = 15.0
    gap_prob: float = 0.08         # chance a flaky sensor skips one field
    # traffic
    free_flow_kmh: float = 55.0
    peak_multiplier: float = 1.7
    peak_windows: tuple[tuple[int, int], ...] = ((390, 570), (1050, 1230))  # minutes of day
    # pollution
    baselines: Mapping[str, int] = field(default_factory=lambda: {
        "pm10": 45, "o3": 30, "co": 20, "so2": 15, "no2": 25, "pm25": 35})
    episode_prob: float = 0.08     # chance a day carries a bad-air episode
    episode_multiplier: float = 3.0
    outage_prob: float = 0.03      # chance a station-day reports nothing
    cell_gap_prob: float = 0.04    # chance a single hourly cell is a dash

    def __post_init__(self) -> None:
        for name in ("gap_prob", "episode_prob", "outage_prob", "cell_gap_prob"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"synth {name} {v} outside 0..1")
        if self.peak_multiplier < 1.0:
            raise ConfigError("synth peak_multiplier must be >= 1")
        if self.free_flow_kmh <= 0:
            raise ConfigError("synth free_flow_kmh must be positive")
        for c in CONTAMINANTS:
            b = self.baselines.get(c)
            if b is None or not (0 <= b <= 500):
                raise ConfigError(f"synth baseline for {c} missing or outside 0..500")
        for lo, hi in self.peak_windows:
            if not (0 <= lo < hi <= 1440):
                raise ConfigError(f"synth peak window {lo}..{hi} outside the day")


def _rng(seed: int, *parts) -> random.Random:
    # String-seeded Random is stable across platforms and Python builds,
    # which is what makes the corpus reproducible byte for byte.
    return random.Random("|".join([str(seed), *map(str, parts)]))


def route_distance_m(profile: SynthProfile, route: TrafficRoute) -> int:
    """Fixed synthetic road distance for a route, meters.

    Great-circle distance times a seeded road winding factor, clamped
    into the observed bounds; constant for a given (seed, route).
    """
    return _route_distance_m(profile.seed, route.file_id, route.start_lat,
                             route.start_long, route.end_lat, route.end_long)


# Keyed on plain values: a SynthProfile is unhashable (its baselines
# are a dict), and every traffic poll asks for the same few distances.
@functools.lru_cache(maxsize=4096)
def _route_distance_m(seed: int, file_id: str, start_lat: float,
                      start_long: float, end_lat: float, end_long: float) -> int:
    rng = _rng(seed, "routedist", file_id)
    straight = haversine_m(start_lat, start_long, end_lat, end_long)
    factor = rng.uniform(1.18, 1.42)
    dist = int(round(straight * factor))
    return max(ROUTE_DIST_MIN_M, min(ROUTE_DIST_MAX_M, dist))


def _diurnal(h: float, peak: float, mean: float, swing: float) -> float:
    return mean + swing * math.cos((h - peak) / 24.0 * 2.0 * math.pi)


def gen_weather_day(profile: SynthProfile, meta, day: date) -> SourcePayload:
    """One day of observations for one station at its cadence.

    `meta` is the configured station entry (station, tz, interval_min).
    Airport feeds additionally carry visibility, precipitation, the
    event flags and a METAR line.
    """
    station = meta.station
    rng = _rng(profile.seed, "weather", station.file_id, day.isoformat())
    rows = []
    t = datetime.combine(day, time(0, 0))
    end = t + timedelta(days=1)
    precip_total = 0.0
    # One or two wet spells a day keep precipitation columns non-trivial.
    wet_from = rng.uniform(0, 24)
    wet_hours = rng.uniform(0, 2.5) if rng.random() < 0.35 else 0.0
    while t < end:
        h = t.hour + t.minute / 60.0
        temp = _diurnal(h, profile.temp_peak_hour, profile.temp_mean_c,
                        profile.temp_swing_c) + rng.uniform(-0.4, 0.4)
        spread = 2.0 + 6.0 * rng.random()  # temp minus dew point
        dewpt = temp - spread
        hum = max(15.0, min(98.0, 100.0 - 5.0 * spread + rng.uniform(-3, 3)))
        wspd = min(60.0, abs(rng.gauss(9.0, 5.0)))
        wgust = min(90.0, wspd + abs(rng.gauss(3.0, 3.0)))
        wdird = rng.uniform(0.0, 359.9)
        pressure = _diurnal(h, 4.0, 1013.0, 4.0) + rng.uniform(-1, 1)
        raining = wet_hours > 0 and wet_from <= h < wet_from + wet_hours
        preciprate = round(rng.uniform(0.5, 12.0), 1) if raining else 0.0
        precip_total += preciprate * (meta.interval_min / 60.0)
        solar = max(0.0, 930.0 * math.sin((h - 6.0) / 12.0 * math.pi))
        if raining:
            solar *= 0.25
        solar = max(0.0, solar + rng.uniform(-25, 25)) if 6.0 <= h <= 18.0 else 0.0
        uv = round(solar / 930.0 * 11.0)
        if raining:
            cond, icon = "Light Rain", "rain"
        elif solar > 600.0:
            cond, icon = "Clear", "clear"
        elif 6.0 <= h <= 18.0:
            cond, icon = "Partly Cloudy", "partlycloudy"
        else:
            cond, icon = "Clear", "clear"
        fields = {
            "time_zone": meta.tz,
            "temp": f"{temp:.1f}",
            "dewpt": f"{dewpt:.1f}",
            "hum": f"{hum:.0f}",
            "wspd": f"{wspd:.1f}",
            "wgust": f"{wgust:.1f}",
            "wdird": f"{wdird:.0f}",
            "wdire": compass_point(float(f"{wdird:.0f}")),
            "pressure": f"{pressure:.1f}",
            "preciprate": f"{preciprate:.1f}",
            "preciptotal": f"{precip_total:.1f}",
            "solarradiation": f"{solar:.0f}",
            "uv": f"{uv:.0f}",
            "cond": cond,
            "icon": icon,
        }
        # The derived comfort indices only exist under their defining
        # conditions, which keeps their columns sparse like real feeds.
        if temp <= 10.0 and wspd > 4.8:
            windchill = (13.12 + 0.6215 * temp - 11.37 * wspd ** 0.16
                         + 0.3965 * temp * wspd ** 0.16)
            fields["windchill"] = f"{max(-60.0, windchill):.1f}"
        if temp >= 27.0 and hum >= 40.0:
            heatindex = (-8.78 + 1.611 * temp + 2.339 * hum
                         - 0.1461 * temp * hum + 0.01211 * temp ** 2
                         - 0.01642 * hum ** 2 + 0.002212 * temp ** 2 * hum
                         + 0.000725 * temp * hum ** 2
                         - 0.000003582 * temp ** 2 * hum ** 2)
            fields["heatindex"] = f"{min(70.0, max(0.0, heatindex)):.1f}"
        # Flaky consumer hardware: some sensors skip a beat. Core
        # thermometer readings always arrive.
        for flaky in ("wspd", "wgust", "wdird", "wdire", "solarradiation", "uv"):
            if rng.random() < profile.gap_prob:
                fields.pop(flaky, None)
        if station.is_airport:
            vis = 8.0 + rng.uniform(0, 8)
            if raining:
                vis = min(vis, 6.0)
            fields["vis"] = f"{vis:.1f}"
            fields["precip"] = f"{precip_total:.1f}"
            fields["fog"] = "1" if hum > 96 else "0"
            fields["rain"] = "1" if raining else "0"
            for flag in ("snow", "hail", "tornado"):
                fields[flag] = "0"
            fields["thunder"] = "1" if preciprate > 10.0 else "0"
            wd = fields.get("wdird", "0")
            ws = fields.get("wspd", "0")
            fields["metar"] = (
                f"METAR {station.airport_code} {day.day:02d}{t.hour:02d}"
                f"{t.minute:02d}Z {float(wd):03.0f}{float(ws) / 1.852:02.0f}KT "
                f"A{pressure / 33.8639 * 100:04.0f}")
        rows.append((station.file_id, t.isoformat(), fields))
        t += timedelta(minutes=meta.interval_min)
    body = weather_payload_body(rows)
    return SourcePayload("weather", body,
                         f"synth:weather/{station.file_id}/{day.isoformat()}")


def _in_peak(minute_of_day: int, windows) -> bool:
    return any(lo <= minute_of_day < hi for lo, hi in windows)


def gen_traffic_response(profile: SynthProfile, route: TrafficRoute,
                         at: datetime) -> SourcePayload:
    """One travel-time measurement for one route at one instant."""
    dist = route_distance_m(profile, route)
    t_std = max(1, int(round(dist / (profile.free_flow_kmh / 3.6))))
    ts_text = at.isoformat()
    rng = _rng(profile.seed, "traffic", route.file_id, ts_text)
    minute = at.hour * 60 + at.minute
    if _in_peak(minute, profile.peak_windows):
        m = profile.peak_multiplier + rng.uniform(-0.2, 0.2)
        m = max(1.0, m)
    else:
        m = 1.0 + rng.uniform(0.0, 0.08)
    t_curr = max(t_std, int(round(t_std * m)))
    body = traffic_payload_body(route.file_id, ts_text,
                                str(dist), str(t_std), str(t_curr))
    return SourcePayload("traffic", body, f"synth:traffic/{route.file_id}/{ts_text}")


def gen_pollution_day(profile: SynthProfile, station: PollutionStation,
                      day: date, request_hour: int = 23) -> SourcePayload:
    """Hourly contaminant tables for one station-day, 02:00 onwards.

    The tables list every hour from 02:00 through the request hour, one
    block per contaminant. An outage day keeps the hour grid but every
    cell is a dash.
    """
    if not (2 <= request_hour <= 23):
        raise ConfigError(f"request hour {request_hour} outside 02..23")
    rng = _rng(profile.seed, "pollution", station.file_id, day.isoformat())
    outage = rng.random() < profile.outage_prob
    episode = rng.random() < profile.episode_prob
    ep_from = rng.randint(7, 15)
    ep_hours = rng.randint(3, 6)
    blocks = []
    for c in CONTAMINANTS:
        base = profile.baselines[c]
        cells = []
        for hour in range(2, request_hour + 1):
            if outage:
                cells.append((f"{hour:02d}:00", None))
                continue
            if rng.random() < profile.cell_gap_prob:
                cells.append((f"{hour:02d}:00", None))
                continue
            v = base * (1.0 + _POLL_SWING * math.sin((hour - 6.0) / 24.0 * 2 * math.pi))
            if episode and ep_from <= hour < ep_from + ep_hours:
                v *= profile.episode_multiplier
            v = int(round(v + rng.uniform(-_POLL_JITTER, _POLL_JITTER)))
            v = max(0, min(500, v))
            cells.append((f"{hour:02d}:00", str(v)))
        blocks.append((station.file_id, c.upper(), day.isoformat(), cells))
    body = pollution_payload_body(blocks)
    return SourcePayload("pollution", body,
                         f"synth:pollution/{station.file_id}/{day.isoformat()}")


class SynthSource:
    """Source registry backed by the generator; drop-in for live feeds."""

    def __init__(self, profile: SynthProfile | None = None) -> None:
        self.profile = profile or SynthProfile()

    def fetch_weather(self, meta, day: date) -> SourcePayload:
        return gen_weather_day(self.profile, meta, day)

    def fetch_traffic(self, route: TrafficRoute, at: datetime) -> SourcePayload:
        return gen_traffic_response(self.profile, route, at)

    def fetch_pollution(self, station: PollutionStation, day: date,
                        request_hour: int = 23) -> SourcePayload:
        return gen_pollution_day(self.profile, station, day, request_hour)
