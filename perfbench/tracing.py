"""Spans around the calls into each urbanobs layer, recorded from outside.

Nothing under src/ is edited. A traced pass rebinds the names that
``urbanobs.scheduler`` and ``urbanobs.cli`` imported (parsers,
validators, ``Store``, ``export_csv`` and the config module) and wraps
the source and store objects the benchmark passes in. Untraced passes
use `Hooks()` with no tracer, which wraps nothing.

A span is ``[name, start, end, parent]`` with ``perf_counter`` times and
the index of the enclosing span (-1 at top level). Spans stay in memory
until the pass ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import urbanobs.cli as cli_mod
import urbanobs.config as config_mod
import urbanobs.scheduler as scheduler_mod
from urbanobs.errors import RecordRejected
from urbanobs.model import PollutionRecord, TrafficRecord, WeatherRecord
from urbanobs.synth import SynthSource


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start and end in µs, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps([name, round((start - t0) * 1e6, 1),
                                      round((end - t0) * 1e6, 1), parent]) + "\n")

    # -- aggregation ---------------------------------------------------------

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _ in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name].append(end - start - child[i])
        return out


def payload_records(payload) -> int:
    """Candidate records a source payload carries."""
    lines = [ln for ln in payload.body.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if payload.source_kind == "weather":
        return len(lines)
    if payload.source_kind == "traffic":
        return 1
    # Pollution: one record per hour row; six contaminant cells each.
    hours = {ln.split()[0] for ln in lines if not ln.startswith("station=")}
    return len(hours)


class _TracedSource:
    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._t = tracer
        self._layer = "synth" if isinstance(inner, SynthSource) else "connectors"

    def _fetch(self, kind, fn, *args, **kwargs):
        name = f"{self._layer}.fetch.{kind}"
        idx = self._t.begin(name)
        try:
            payload = fn(*args, **kwargs)
        finally:
            self._t.end(idx)
        self._t.counts[name + ".units"] += payload_records(payload)
        return payload

    def fetch_weather(self, *args, **kwargs):
        return self._fetch("weather", self._inner.fetch_weather, *args, **kwargs)

    def fetch_traffic(self, *args, **kwargs):
        return self._fetch("traffic", self._inner.fetch_traffic, *args, **kwargs)

    def fetch_pollution(self, *args, **kwargs):
        return self._fetch("pollution", self._inner.fetch_pollution, *args, **kwargs)


_RECORD_KIND = {WeatherRecord: "weather", TrafficRecord: "traffic",
                PollutionRecord: "pollution"}


class _TracedStore:
    """Delegates to a Store; times the calls the pipeline and CLI make."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._t = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)

    def insert_record(self, rec):
        name = f"storage.insert.{_RECORD_KIND.get(type(rec), 'other')}"
        idx = self._t.begin(name)
        try:
            status = self._inner.insert_record(rec)
        finally:
            self._t.end(idx)
        self._t.counts[f"storage.{status}"] += 1
        return status

    @contextlib.contextmanager
    def deferred(self):
        cm = self._inner.deferred()
        cm.__enter__()
        try:
            yield self
        except BaseException:
            if not cm.__exit__(*sys.exc_info()):
                raise
        else:
            idx = self._t.begin("storage.commit")
            try:
                cm.__exit__(None, None, None)
            finally:
                self._t.end(idx)

    def location_ids(self, *args, **kwargs):
        return self._t.call("storage.location_ids", self._inner.location_ids, *args, **kwargs)

    def query_attribute(self, *args, **kwargs):
        return self._t.call("storage.query", self._inner.query_attribute, *args, **kwargs)

    def summarize_nonempty(self, *args, **kwargs):
        return self._t.call("storage.summarize", self._inner.summarize_nonempty, *args, **kwargs)


class _ConfigModule:
    """Stands in for ``urbanobs.config`` inside ``urbanobs.cli``."""

    def __init__(self, load_default, load_config) -> None:
        self.load_default = load_default
        self.load_config = load_config

    def __getattr__(self, name):
        return getattr(config_mod, name)


class Hooks:
    """The benchmark's entry points into urbanobs, traced or not.

    With a tracer, entering the hooks rebinds the imported names in
    ``urbanobs.scheduler`` and ``urbanobs.cli``; leaving restores them.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        self._Store = cli_mod.Store
        self._load_default = config_mod.load_default
        if tracer is not None:
            self._load_default = tracer.wrap("config.load", config_mod.load_default)

    # -- entry points the benchmark calls ----------------------------------

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def load_default(self):
        return self._load_default()

    def open_store(self, path):
        if self.tracer is None:
            return self._Store(path)
        return _TracedStore(self.tracer.call("storage.open", self._Store, path), self.tracer)

    def source(self, inner):
        return inner if self.tracer is None else _TracedSource(inner, self.tracer)

    # -- patching --------------------------------------------------------------

    def _traced_export(self, fn):
        tracer = self.tracer

        def export_csv(result, dest=None):
            idx = tracer.begin("storage.export_csv")
            try:
                return fn(result, dest)
            finally:
                tracer.end(idx)
                tracer.counts["storage.export_csv.rows"] += len(result)
        return export_csv

    def _traced_parse_weather(self, fn):
        tracer = self.tracer

        def parse_weather_observations(payload, stations):
            idx = tracer.begin("connectors.parse.weather")
            try:
                readings, quarantined = fn(payload, stations)
            finally:
                tracer.end(idx)
            tracer.counts["connectors.parse.weather.units"] += len(readings) + len(quarantined)
            tracer.counts["connectors.quarantined"] += len(quarantined)
            return readings, quarantined
        return parse_weather_observations

    def _traced_assemble(self, fn):
        tracer = self.tracer

        def assemble_station_day(readings, station, day):
            idx = tracer.begin("connectors.assemble.pollution")
            try:
                out = fn(readings, station, day)
            finally:
                tracer.end(idx)
            tracer.counts["connectors.assemble.pollution.units"] += len(out)
            return out
        return assemble_station_day

    def _traced_validate(self, kind, fn):
        tracer = self.tracer
        name = f"validation.validate.{kind}"

        def validate(raw, rules):
            idx = tracer.begin(name)
            try:
                record, report = fn(raw, rules)
            except RecordRejected:
                tracer.counts["validation.rejected"] += 1
                raise
            finally:
                tracer.end(idx)
            tracer.counts["validation.passed"] += 1
            tracer.counts["validation.substituted"] += len(report.entries)
            return record, report
        return validate

    def _patch(self, module, name, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def __enter__(self) -> "Hooks":
        t = self.tracer
        if t is None:
            return self
        s = scheduler_mod
        self._patch(s, "parse_weather_observations",
                    self._traced_parse_weather(s.parse_weather_observations))
        self._patch(s, "parse_traffic_response",
                    t.wrap("connectors.parse.traffic", s.parse_traffic_response))
        self._patch(s, "parse_pollution_tables",
                    t.wrap("connectors.parse.pollution", s.parse_pollution_tables))
        self._patch(s, "assemble_station_day", self._traced_assemble(s.assemble_station_day))
        for kind in ("weather", "traffic", "pollution"):
            fn_name = f"validate_{kind}"
            self._patch(s, fn_name, self._traced_validate(kind, getattr(s, fn_name)))
        self._patch(cli_mod, "Store", self.open_store)
        self._patch(cli_mod, "export_csv", self._traced_export(cli_mod.export_csv))
        self._patch(cli_mod, "config_mod", _ConfigModule(
            self._load_default, t.wrap("config.load", config_mod.load_config)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from one traced pass (see perfbench/README.md)."""
    dur = tracer.durations()
    selfs = tracer.self_times()
    c = tracer.counts

    def total(name):
        return sum(dur.get(name, ()))

    # A layer this pass never called reads None and is left out.
    def per_unit_us(time_s, units):
        return time_s / units * 1e6 if units else None

    def median_ms(values):
        return statistics.median(values) * 1e3 if values else None

    m: dict[str, float] = {}
    for kind in ("weather", "traffic", "pollution"):
        for layer in ("synth", "connectors"):
            name = f"{layer}.fetch.{kind}"
            m[f"{layer}.fetch_us.{kind}"] = per_unit_us(total(name), c[name + ".units"])
        m[f"validation.validate_us.{kind}"] = per_unit_us(
            total(f"validation.validate.{kind}"), len(dur.get(f"validation.validate.{kind}", ())))
        m[f"storage.insert_us.{kind}"] = per_unit_us(
            total(f"storage.insert.{kind}"), len(dur.get(f"storage.insert.{kind}", ())))
    m["connectors.parse_us.weather"] = per_unit_us(
        total("connectors.parse.weather"), c["connectors.parse.weather.units"])
    m["connectors.parse_us.traffic"] = per_unit_us(
        total("connectors.parse.traffic"), len(dur.get("connectors.parse.traffic", ())))
    m["connectors.parse_us.pollution"] = per_unit_us(
        total("connectors.parse.pollution") + total("connectors.assemble.pollution"),
        c["connectors.assemble.pollution.units"])
    m["connectors.quarantined"] = c["connectors.quarantined"]

    candidates = c["validation.passed"] + c["validation.rejected"]
    m["validation.substituted"] = c["validation.substituted"]
    m["validation.rejected"] = c["validation.rejected"]
    m["validation.pass_share"] = c["validation.passed"] / candidates if candidates else None

    calls = c["storage.inserted"] + c["storage.duplicate"]
    m["storage.inserted"] = c["storage.inserted"]
    m["storage.duplicates"] = c["storage.duplicate"]
    m["storage.insert_useful_share"] = c["storage.inserted"] / calls if calls else None
    m["storage.commit_ms"] = median_ms(dur.get("storage.commit", ()))
    opens = dur.get("storage.open", ())
    m["storage.open_ms"] = ((total("storage.open") + total("storage.location_ids"))
                            / len(opens) * 1e3 if opens else None)
    m["storage.query_ms"] = median_ms(dur.get("storage.query", ()))
    m["storage.summarize_ms"] = median_ms(dur.get("storage.summarize", ()))
    m["storage.export_csv_us_per_row"] = per_unit_us(
        total("storage.export_csv"), c["storage.export_csv.rows"])

    m["scheduler.build_plan_ms"] = median_ms(dur.get("scheduler.build_plan", ()))
    m["scheduler.self_ms"] = median_ms(selfs.get("scheduler.run_day", ()))
    m["config.load_ms"] = median_ms(dur.get("config.load", ()))
    m["cli.self_ms"] = median_ms(selfs.get("cli.main", ()))
    return {k: v for k, v in m.items() if v is not None}


def layer_self_seconds(tracer: Tracer) -> dict[str, float]:
    """Total self time per layer (module prefix of the span name), seconds."""
    out: dict[str, float] = defaultdict(float)
    for name, values in tracer.self_times().items():
        out[name.split(".", 1)[0]] += sum(values)
    return dict(sorted(out.items()))
