"""Range validation and NA substitution for raw readings.

Weather and pollution candidates survive bad fields: an out-of-range
or unparseable value becomes NA and the substitution is logged in the
validation report. Traffic is atomic: its three measurements stand or
fall together, so any defect rejects the whole candidate.

Rules live in a small text format, one rule per line::

    table.attribute min max

with '-' for an unbounded side. Bounds are inclusive. A rule must name
an attribute that validation range-checks; one without a rule is only
checked for being numeric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from math import inf, isfinite, nan
from typing import Mapping

from .connectors import _AIRPORT_ONLY_SET, RawReading, _parse_timestamp_text
from .errors import ConfigError, PreconditionError, RecordRejected
from .model import (
    AIRPORT_ONLY_ATTRIBUTES,
    CONTAMINANTS,
    IMECA_MAX,
    IMECA_MIN,
    COMPASS_CODES,
    WEATHER_FLAG_ATTRIBUTES,
    WEATHER_NUMERIC_ATTRIBUTES,
    WEATHER_TEXT_MAX,
    TRAFFIC_ATTRIBUTES,
    PollutionRecord,
    TrafficRecord,
    WeatherRecord,
)

__all__ = [
    "RangeRule",
    "RuleSet",
    "ReportEntry",
    "ValidationReport",
    "DEFAULT_RULES_TEXT",
    "validate_weather",
    "validate_traffic",
    "validate_pollution",
]


@dataclass(frozen=True)
class RangeRule:
    """Inclusive numeric bounds for one stored attribute."""

    table: str
    attribute: str
    min: float | None
    max: float | None

    def __post_init__(self) -> None:
        if self.min is not None and self.max is not None and self.min > self.max:
            raise ConfigError(
                f"rule {self.table}.{self.attribute}: min {self.min} > max {self.max}")

    def contains(self, value: float) -> bool:
        if self.min is not None and value < self.min:
            return False
        if self.max is not None and value > self.max:
            return False
        return True

    def describe(self) -> str:
        lo = "-" if self.min is None else f"{self.min:g}"
        hi = "-" if self.max is None else f"{self.max:g}"
        return f"{self.table}.{self.attribute} {lo} {hi}"


# Bounds follow the physical sense of each quantity at a subtropical
# urban site; they are deliberately generous so only nonsense is nulled.
DEFAULT_RULES_TEXT = """\
# table.attribute  min  max   ('-' = unbounded)
weathers.temp            -30   55
weathers.dewpt           -30   55
weathers.hum               0  100
weathers.wspd              0  200
weathers.wgust             0  200
weathers.wdird             0  360
weathers.pressure        850 1100
weathers.windchill       -60   30
weathers.heatindex         0   70
weathers.preciprate        0  300
weathers.preciptotal       0  500
weathers.solarradiation    0 1500
weathers.uv                0   16
weathers.vis               0   50
weathers.precip            0  500
traffics.traveldist        1  200000
traffics.traveltime_std    1  86400
traffics.traveltime_curr   1  86400
pollutions.pm10            0  500
pollutions.o3              0  500
pollutions.co              0  500
pollutions.so2             0  500
pollutions.no2             0  500
pollutions.pm25            0  500
"""


# The attributes each validator range-checks, and the rule text it
# reports for an attribute that has no configured rule.
_RANGE_CHECKED = {
    "weathers": (WEATHER_NUMERIC_ATTRIBUTES, "numeric"),
    "traffics": (TRAFFIC_ATTRIBUTES, "numeric"),
    "pollutions": (CONTAMINANTS, f"integer {IMECA_MIN}..{IMECA_MAX}"),
}
_RULE_NAMES = {(t, a) for t, (attrs, _) in _RANGE_CHECKED.items() for a in attrs}


class RuleSet:
    """Lookup table of range rules keyed by (table, attribute)."""

    def __init__(self, rules: Mapping[tuple[str, str], RangeRule]) -> None:
        self._rules = dict(rules)
        # Per record table, (attribute, lo, hi, rule text) for the
        # validators. An unbounded side is -inf/inf, so
        # `not (v < lo or v > hi)` is exactly RangeRule.contains(v).
        self._ranges: dict[str, tuple[tuple[str, float, float, str], ...]] = {}
        for table, (attrs, default_text) in _RANGE_CHECKED.items():
            ranges = []
            for attr in attrs:
                rule = self._rules.get((table, attr))
                if rule is None:
                    ranges.append((attr, -inf, inf, default_text))
                else:
                    ranges.append((
                        attr, -inf if rule.min is None else rule.min,
                        inf if rule.max is None else rule.max, rule.describe()))
            self._ranges[table] = tuple(ranges)

    @classmethod
    def from_text(cls, text: str, origin: str = "<rules>") -> "RuleSet":
        rules: dict[tuple[str, str], RangeRule] = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 3:
                raise ConfigError(
                    f"{origin}:{line_no}: expected 'table.attribute min max', "
                    f"got {raw!r}")
            name, lo_s, hi_s = tokens
            table, sep, attribute = name.partition(".")
            if not sep or not table or not attribute:
                raise ConfigError(f"{origin}:{line_no}: bad rule name {name!r}")
            if (table, attribute) not in _RULE_NAMES:
                raise ConfigError(
                    f"{origin}:{line_no}: {name} is not a range-checked attribute")
            try:
                lo = None if lo_s == "-" else float(lo_s)
                hi = None if hi_s == "-" else float(hi_s)
            except ValueError:
                raise ConfigError(f"{origin}:{line_no}: bad bound in {raw!r}")
            key = (table, attribute)
            if key in rules:
                raise ConfigError(f"{origin}:{line_no}: duplicate rule for {name}")
            rules[key] = RangeRule(table, attribute, lo, hi)
        return cls(rules)

    @classmethod
    def defaults(cls) -> "RuleSet":
        return cls.from_text(DEFAULT_RULES_TEXT, origin="<defaults>")

    def rule_for(self, table: str, attribute: str) -> RangeRule | None:
        return self._rules.get((table, attribute))

    def __len__(self) -> int:
        return len(self._rules)


@dataclass(frozen=True)
class ReportEntry:
    """One substitution: which attribute, the offending text, the rule."""

    attribute: str
    value: str
    rule: str


@dataclass
class ValidationReport:
    """Everything validation changed about one candidate record."""

    key: str  # "<timestamp> <target>"
    entries: list[ReportEntry] = field(default_factory=list)

    def add(self, attribute: str, value: str, rule: str) -> None:
        self.entries.append(ReportEntry(attribute, value, rule))

    @property
    def clean(self) -> bool:
        return not self.entries


def _begin(raw: RawReading, kind: str) -> tuple[datetime, ValidationReport]:
    """Check kind, then target, then timestamp; return (timestamp, empty report)."""
    if raw.kind != kind:
        raise PreconditionError(f"expected a {kind} reading, got {raw.kind!r}")
    if not raw.target:
        raise RecordRejected("candidate has no resolvable location",
                             ValidationReport(key=f"{raw.timestamp} <missing>"))
    report = ValidationReport(key=f"{raw.timestamp} {raw.target}")
    try:
        return _parse_timestamp_text(raw.timestamp), report
    except (TypeError, ValueError):
        raise RecordRejected(
            f"unusable timestamp {raw.timestamp!r} for {raw.target}", report)


def validate_weather(raw: RawReading, rules: RuleSet) -> tuple[WeatherRecord, ValidationReport]:
    """Clean one weather candidate; bad fields become NA, never fatal.

    An empty or over-long zone, code or METAR text, or one holding a
    line break or NUL, is a bad field too.
    Only a missing timestamp or location rejects the record. A value a
    rules file admits past WeatherRecord's own limits raises OutOfRangeError.
    """
    ts, report = _begin(raw, "weather")
    values: dict[str, object] = {}

    for attr, lo, hi, rule_text in rules._ranges["weathers"]:
        text = raw.fields.get(attr)
        if text is None:
            continue
        try:
            v = float(text)
        except ValueError:
            v = nan
        # nan and inf fail isfinite; nan would pass the bound test
        if isfinite(v) and not (v < lo or v > hi):
            values[attr] = v
        else:
            report.add(attr, text, rule_text)

    for attr in WEATHER_FLAG_ATTRIBUTES:
        text = raw.fields.get(attr)
        if text is None:
            continue
        if text in ("0", "1"):
            values[attr] = int(text)
        else:
            report.add(attr, text, f"weathers.{attr} 0/1 flag")

    wdire = raw.fields.get("wdire")
    if wdire is not None:
        if wdire in COMPASS_CODES:
            values["wdire"] = wdire
        else:
            report.add("wdire", wdire, "16-point compass code")

    # An empty code or text would be stored as '' and read back as NA.
    for attr in ("time_zone", "cond", "icon", "metar"):
        text = raw.fields.get(attr)
        if text is None:
            continue
        if not text:
            report.add(attr, text, "non-empty text")
        elif len(text) > WEATHER_TEXT_MAX:
            report.add(attr, text, f"text of at most {WEATHER_TEXT_MAX} characters")
        elif "\n" in text or "\r" in text or "\0" in text:
            report.add(attr, text, "text without a line break or NUL")
        else:
            values[attr] = text

    if raw.station_kind == "pws" and not _AIRPORT_ONLY_SET.isdisjoint(values):
        # The parser already refuses airport-only keys on personal
        # stations; this guards hand-built readings too.
        for attr in AIRPORT_ONLY_ATTRIBUTES:
            if attr in values:
                report.add(attr, str(raw.fields.get(attr)), "airport-only attribute")
                del values[attr]

    record = WeatherRecord(timestamp=ts, station=raw.target,
                           tz=values.pop("time_zone", None), **values)
    return record, report


def validate_traffic(raw: RawReading, rules: RuleSet) -> tuple[TrafficRecord, ValidationReport]:
    """Validate one traffic candidate; the triple is atomic.

    Any missing, unparseable, or out-of-range measurement rejects the
    whole record (raises, with the report attached).
    """
    ts, report = _begin(raw, "traffic")
    values: dict[str, float] = {}
    for attr, lo, hi, rule_text in rules._ranges["traffics"]:
        text = raw.fields.get(attr)
        if text is None:
            report.add(attr, "<missing>", rule_text)
            continue
        try:
            v = float(text)
        except ValueError:
            v = nan
        if isfinite(v) and not (v < lo or v > hi):
            values[attr] = v
        else:
            report.add(attr, text, rule_text)
    if report.entries:
        bad = ", ".join(e.attribute for e in report.entries)
        raise RecordRejected(
            f"traffic record at {raw.timestamp} for {raw.target} dropped ({bad})",
            report)
    return TrafficRecord(timestamp=ts, route=raw.target, **values), report


def validate_pollution(raw: RawReading, rules: RuleSet) -> tuple[PollutionRecord, ValidationReport]:
    """Clean one assembled hourly pollution candidate.

    Concentrations are integer index points; fractional, non-numeric,
    or out-of-scale cells become NA with a report entry. An hour of 00
    or 01, or a timestamp off the exact hour, rejects the record.
    """
    ts, report = _begin(raw, "pollution")
    if ts.minute or ts.second:
        raise RecordRejected(
            f"pollution hour {raw.timestamp} is not an exact hour", report)
    if ts.hour in (0, 1):
        raise RecordRejected(
            f"pollution tables never carry hour {ts.hour:02d}", report)
    values: dict[str, int] = {}
    for attr, lo, hi, rule_text in rules._ranges["pollutions"]:
        text = raw.fields.get(attr)
        if text is None:
            continue
        try:
            v = int(text)
        except ValueError:
            report.add(attr, text, rule_text)
            continue
        if not (v < lo or v > hi) and IMECA_MIN <= v <= IMECA_MAX:
            values[attr] = v
        else:
            report.add(attr, text, rule_text)
    record = PollutionRecord(timestamp=ts, station=raw.target, **values)
    return record, report
