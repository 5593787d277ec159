"""The three workloads. Each returns an `Outcome` or raises `GateFailed`.

All of them drive urbanobs's public API from this one process, with no
threads: ``build_plan``/``run_day`` with a ``Store`` for the collection
days, ``urbanobs.cli.main(argv)`` for the operator's commands.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
import random
import resource
import shutil
from bisect import bisect_left, bisect_right
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from pathlib import Path
from statistics import median
from time import perf_counter

import urbanobs.cli as cli_mod
from urbanobs.cli import bootstrap_store
from urbanobs.connectors import FixtureDirectorySource
from urbanobs.scheduler import TRAFFIC_POLL, build_plan, run_day
from urbanobs.storage import (
    RECORD_TABLES,
    REPORT_COLUMNS,
    Store,
    import_csv,
    queryable_attributes,
)
from urbanobs.synth import SynthSource

import dirty
from stats import latency_summary
from tracing import Hooks

START_DAY = date(2016, 5, 16)

# The packaged deployment: 2436 traffic polls plus the two daily jobs
# fire per day, storing 3576 weather + 2436 traffic + 220 pollution rows.
DEFAULT_FIRED = 2438
DEFAULT_RECORDS = 6232
DEFAULT_WEATHER = 3576
DEFAULT_POLLS = 2436
STATION_FETCHES = 32 + 10  # weather stations + pollution stations per day

# One fresh day plus its replay took 2.5-3.2 s on the reference machine;
# the ingest workloads size their day count from --seconds with it, so
# both sides of a comparison do the same work.
NOMINAL_DAY_PAIR_S = 2.5
MIN_DAYS = 3
SETUP_REPEATS = 3  # set-up is timed this many times; setup_s is the median
REPLAY_BLOCK = 2   # fresh days collected before their replay
CORPUS_DAYS = 7
QUERIES_PER_ROUND = 200

_LOCATION_TABLE = {"weathers": "locations_w", "traffics": "locations_t",
                   "pollutions": "locations_p"}
_ALL_TIME = (datetime(1000, 1, 1), datetime(9999, 12, 31, 23, 59, 59))
_DB_TS = "%Y-%m-%d %H:%M:%S"


class GateFailed(Exception):
    """An output differed from what the inputs require."""


@dataclass
class Sizes:
    """How much work one pass does."""

    setup_repeats: int
    days: int           # ingest workloads: fresh days (each is replayed)
    seconds: float      # query_mix: timed command budget
    min_queries: int    # query_mix: at least this many query commands


@dataclass
class Outcome:
    gated: dict                 # end-to-end metric -> value (BENCHMARK.json)
    detail: dict                # per-workload metric -> (value, unit)
    samples: dict               # sample counts behind medians and percentiles
    attempted: int
    main_op_s: float            # median of the workload's main timed operation
    info: dict = field(default_factory=dict)


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailed(message)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- shared pieces -------------------------------------------------------------

class EntryClock:
    """Jumps like SimulatedClock and stamps perf_counter on every wait.

    run_day waits once per fired entry, in plan order, so entry i runs
    from stamp i to stamp i+1 (the last one until run_day returns).
    """

    def __init__(self, start: datetime) -> None:
        self._now = start
        self.stamps: list[float] = []

    def now(self) -> datetime:
        return self._now

    def wait_until(self, when: datetime) -> None:
        self.stamps.append(perf_counter())
        if when > self._now:
            self._now = when


@dataclass
class DayRun:
    summary: object
    day_s: float    # build_plan + run_day
    run_s: float    # run_day alone
    polls_s: list

    @property
    def decided(self) -> int:
        s = self.summary
        return s.stored + s.duplicates + s.rejected


def collect_day(hooks: Hooks, cfg, day: date, source, store) -> DayRun:
    t0 = perf_counter()
    with hooks.span("scheduler.build_plan"):
        plan = build_plan(cfg.windows, cfg.routes, day)
    clock = EntryClock(datetime.combine(day, time(0, 0)))
    t1 = perf_counter()
    with hooks.span("scheduler.run_day"):
        summary = run_day(plan, source, store, cfg, clock=clock)
    t2 = perf_counter()
    gate(len(clock.stamps) == len(plan.entries) == summary.fired,
         f"{day}: {len(clock.stamps)} waits for {len(plan.entries)} plan entries, "
         f"fired={summary.fired}")
    ends = clock.stamps[1:] + [t2]
    polls = [end - start for entry, start, end in zip(plan.entries, clock.stamps, ends)
             if entry.kind == TRAFFIC_POLL]
    return DayRun(summary, t2 - t0, t2 - t1, polls)


def fresh_store(hooks: Hooks, path: Path):
    """Config, schema and catalogs: the set-up every workload starts with."""
    path.parent.mkdir(parents=True, exist_ok=True)
    cfg = hooks.load_default()
    store = hooks.open_store(path)
    bootstrap_store(store, cfg)
    return cfg, store


def seeded(cfg, seed: int):
    return dataclasses.replace(cfg.profile, seed=seed)


def cli_call(hooks: Hooks, argv: list[str]):
    """One operator command in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        with hooks.span("cli.main"):
            rc = cli_mod.main(argv)
        elapsed = perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), elapsed


def export_tables(hooks: Hooks, store_path: Path, dest: Path) -> dict[str, bytes]:
    """``urbanobs export <table> --csv`` for the three record tables."""
    dest.mkdir(parents=True, exist_ok=True)
    out = {}
    for table in RECORD_TABLES:
        csv_path = dest / f"{table}.csv"
        rc, stdout, stderr, _ = cli_call(
            hooks, ["export", table, "--store", str(store_path), "--csv", str(csv_path)])
        gate(rc == 0, f"export {table} exited {rc}: {stderr.strip()}")
        out[table] = csv_path.read_bytes()
    return out


def table_digest(exports: dict[str, bytes]) -> str:
    """sha256 over the full CSV export of each record table, in table order."""
    h = hashlib.sha256()
    for table in sorted(exports):
        h.update(table.encode() + b"\n")
        h.update(exports[table])
    return h.hexdigest()


def parse_report(text: str) -> dict[tuple[str, str], tuple[int, float]]:
    """(table, column) -> (non-empty, monthly avg) from ``urbanobs report``."""
    rows, table = {}, None
    for line in text.splitlines()[1:]:
        if not line.startswith(" "):
            table = line.strip()
            continue
        col, nonempty, avg = line.split()
        rows[(table, col.lower())] = (int(nonempty), float(avg))
    return rows


def report_counts(hooks: Hooks, store_path: Path) -> dict:
    rc, out, err, _ = cli_call(hooks, ["report", "--store", str(store_path)])
    gate(rc == 0, f"report exited {rc}: {err.strip()}")
    return {k: v[0] for k, v in parse_report(out).items()}


# -- ingest workloads --------------------------------------------------------

def run_days(hooks, cfg, source, store, days, expect) -> list[DayRun]:
    """One collection day per entry of `days`; `expect` gates each summary."""
    runs = []
    for d in days:
        run = collect_day(hooks, cfg, d, source, store)
        expect(d, run.summary)
        runs.append(run)
    return runs


def fresh_then_replay(hooks, cfg, store, path: Path, work: Path, days, sources, expects):
    """Fresh days and their replays, in blocks of REPLAY_BLOCK days.

    Host speed drifts over seconds to minutes here, so blocks spread both
    kinds of day over the whole run. Each block's replay must leave the
    record tables' digest as it found it. Returns the fresh runs, the
    replay runs and the final CSV exports.
    """
    fresh, replays = [], []
    for i in range(0, len(days), REPLAY_BLOCK):
        block = days[i:i + REPLAY_BLOCK]
        fresh += run_days(hooks, cfg, sources[0], store, block, expects[0])
        before = table_digest(export_tables(hooks, path, work / "export"))
        replays += run_days(hooks, cfg, sources[1], store, block, expects[1])
        exports = export_tables(hooks, path, work / "export")
        gate(table_digest(exports) == before, f"replay of {block[0]}..{block[-1]} changed the record tables")
    return fresh, replays, exports


def ingest_outcome(fresh, replays, store_path, records, setup_times) -> Outcome:
    """End-to-end figures of an ingest workload; `records` are the store's rows."""
    runs = fresh + replays
    # Polls of replayed days count too: they sample the whole run, and a
    # slower duplicate path is a slower poll for the operator re-running.
    polls = [p for r in runs for p in r.polls_s]
    lat = latency_summary(polls)
    gate(lat["p99"] is not None, f"only {lat['n']} poll samples, too few for p99")
    decided = sum(r.decided for r in runs)
    records_per_s = decided / sum(r.run_s for r in runs)
    bytes_per_record = os.path.getsize(store_path) / records
    failures = sum(len(r.summary.failures) for r in runs)
    # rejected records already sit in summary.failures, one string each,
    # so they are not added to the numerator a second time.
    failed_share = failures / (decided + STATION_FETCHES * len(runs))
    day_s = median([r.day_s for r in fresh])
    replay_s = median([r.day_s for r in replays])
    setup_s = median(setup_times)
    rss = peak_rss_mb()
    # Medians over every timed day, fresh or replayed: a burst of machine
    # speed-up or slow-down inside a minority of days does not move them.
    gated = {
        "setup_s": setup_s, "op_ms.p50": median([median(r.polls_s) for r in runs]) * 1e3,
        "batch_s": median([r.day_s for r in runs]),
        "items_per_s": median([r.decided / r.run_s for r in runs]),
        "store_bytes_per_record": bytes_per_record, "peak_rss_mb": rss,
    }
    detail = {
        "setup_s": (setup_s, "s"), "day_s": (day_s, "s"), "replay_day_s": (replay_s, "s"),
        "records_per_s": (records_per_s, "1/s"),
        "poll_ms.p50": (lat["p50"], "ms"), "poll_ms.p90": (lat["p90"], "ms"),
        "poll_ms.p99": (lat["p99"], "ms"),
        f"poll_ms.{lat['tail']}": (lat["tail_ms"], "ms"),
        "store_bytes_per_record": (bytes_per_record, "B"),
        "failed_share": (failed_share, "ratio"), "peak_rss_mb": (rss, "MB"),
    }
    samples = {"setup_s": len(setup_times), "day_s": len(fresh),
               "replay_day_s": len(replays), "poll_ms": lat["n"]}
    runs_s = {"setup_s": setup_times, "day_s": [r.day_s for r in fresh],
              "replay_day_s": [r.day_s for r in replays]}
    return Outcome(gated, detail, samples, attempted=len(runs), main_op_s=day_s,
                   info={"runs_s": runs_s})


def day_default(hooks: Hooks, work: Path, seed: int, sizes: Sizes) -> Outcome:
    days = [START_DAY + timedelta(days=i) for i in range(sizes.days)]

    def expect_fresh(d, s):
        gate((s.fired, s.stored, s.duplicates, s.rejected, s.quarantined, len(s.failures))
             == (DEFAULT_FIRED, DEFAULT_RECORDS, 0, 0, 0, 0), f"fresh {s.line()}")

    def expect_replay(d, s):
        gate((s.fired, s.stored, s.duplicates, len(s.failures))
             == (DEFAULT_FIRED, 0, DEFAULT_RECORDS, 0), f"replay {s.line()}")

    # The starting state holds one day of history before the timed days.
    # Schema and catalogs alone take ~60 ms, mostly fsyncs, whose time
    # drifted by 15-50% between processes on the reference machine.
    setup_times = []
    for k in range(sizes.setup_repeats):
        path = work / f"setup{k}" / "store.db"
        t0 = perf_counter()
        cfg, store = fresh_store(hooks, path)
        source = hooks.source(SynthSource(seeded(cfg, seed)))
        run_days(hooks, cfg, source, store, [START_DAY - timedelta(days=1)], expect_fresh)
        setup_times.append(perf_counter() - t0)
        if k + 1 < sizes.setup_repeats:
            store.close()
            shutil.rmtree(path.parent)

    # The replay re-collects the same keys with other values, so a re-run
    # that overwrote stored rows would change the digest.
    revised = hooks.source(SynthSource(seeded(cfg, seed + 1)))
    try:
        fresh, replays, exports = fresh_then_replay(
            hooks, cfg, store, path, work, days, (source, revised),
            (expect_fresh, expect_replay))
        counts = report_counts(hooks, path)
    finally:
        store.close()
    n = len(days) + 1
    for col in ("traveldist", "traveltime_std", "traveltime_curr"):
        gate(counts[("traffics", col)] == DEFAULT_POLLS * n,
             f"report traffics.{col} = {counts[('traffics', col)]}")
    for col in ("temp", "dewpt", "hum"):
        gate(counts[("weathers", col)] == DEFAULT_WEATHER * n,
             f"report weathers.{col} = {counts[('weathers', col)]}")
    out = ingest_outcome(fresh, replays, path, DEFAULT_RECORDS * n, setup_times)
    out.info.update(table_digest=table_digest(exports))
    return out


def captured_dirty(hooks: Hooks, work: Path, seed: int, sizes: Sizes) -> Outcome:
    days = [START_DAY + timedelta(days=i) for i in range(sizes.days)]
    setup_times = []
    for k in range(sizes.setup_repeats):
        rep = work / f"setup{k}"
        t0 = perf_counter()
        cfg, store = fresh_store(hooks, rep / "store.db")
        synth = hooks.source(SynthSource(seeded(cfg, seed)))
        ledger = dirty.write_captured_days(rep / "captured", cfg, synth, days,
                                           random.Random(f"dirty|{seed}"))
        setup_times.append(perf_counter() - t0)
        if k + 1 < sizes.setup_repeats:
            store.close()
            shutil.rmtree(rep)
    path = rep / "store.db"
    source = hooks.source(FixtureDirectorySource(rep / "captured"))

    def station_failures(s):
        return [f for f in s.failures if f.startswith("weather ")]

    def expect_fresh(d, s):
        e = ledger.days[d]
        gate((s.fired, s.stored, s.duplicates, s.rejected, s.quarantined, len(s.failures))
             == (DEFAULT_FIRED, e.stored, 0, e.rejected, e.quarantined, e.failures),
             f"fresh {s.line()} expected stored={e.stored} rejected={e.rejected} "
             f"quarantined={e.quarantined} failures={e.failures}")
        broken = station_failures(s)
        gate(len(broken) == e.station_failures, f"{d}: station failures {broken}")
        if ledger.broken[0] == d:
            gate(broken[0].startswith(f"weather {ledger.broken[1]}:"),
                 f"{d}: failure names {broken[0]!r}, expected {ledger.broken[1]}")

    def expect_replay(d, s):
        e = ledger.days[d]
        gate((s.fired, s.stored, s.duplicates, s.rejected, s.quarantined, len(s.failures))
             == (DEFAULT_FIRED, 0, e.stored, e.rejected, e.quarantined, e.failures),
             f"replay {s.line()}")

    try:
        fresh, replays, exports = fresh_then_replay(
            hooks, cfg, store, path, work, days, (source, source),
            (expect_fresh, expect_replay))
        problems = dirty.check_report(ledger, report_counts(hooks, path))
    finally:
        store.close()
    imported = {t: import_csv(exports[t].decode(), t) for t in RECORD_TABLES}
    problems += dirty.check_values(ledger, imported)
    gate(not problems, "captured_dirty outputs disagree with the injector:\n  "
         + "\n  ".join(problems))
    if hooks.tracer is not None:
        # Validation runs again on replay, so every count doubles.
        c = hooks.tracer.counts
        totals = ledger.totals
        want = (2 * sum(ledger.substituted.values()), 2 * totals["rejected"],
                2 * totals["quarantined"])
        got = (c["validation.substituted"], c["validation.rejected"], c["connectors.quarantined"])
        gate(got == want, f"traced substituted/rejected/quarantined {got}, expected {want}")
    records = sum(r.summary.stored for r in fresh)
    out = ingest_outcome(fresh, replays, path, records, setup_times)
    out.info.update(table_digest=table_digest(exports), injected=ledger.totals,
                    broken_station_day=[ledger.broken[0].isoformat(), ledger.broken[1]])
    return out


# -- query_mix ---------------------------------------------------------------

@dataclass
class Reference:
    """Every record table as exported, indexed by location for slicing."""

    columns: dict        # table -> column tuple
    rows: dict           # table -> rows
    by_loc: dict         # table -> {loc id: (timestamps, rows)}
    csv_sha: dict        # table -> sha256 of the export bytes
    ids: dict            # table -> {location file id: row id}

    @classmethod
    def build(cls, exports: dict[str, bytes], raw: Store) -> "Reference":
        columns, rows, by_loc, csv_sha, all_ids = {}, {}, {}, {}, {}
        for table in RECORD_TABLES:
            ids = all_ids[table] = raw.location_ids(_LOCATION_TABLE[table])
            direct = raw.query_attribute(table, queryable_attributes(table),
                                         sorted(ids.values()), *_ALL_TIME)
            back = import_csv(exports[table].decode(), table)
            gate(back.columns == direct.columns and back.rows == direct.rows,
                 f"export of {table} does not re-import to the query_attribute result")
            columns[table], rows[table] = direct.columns, direct.rows
            csv_sha[table] = hashlib.sha256(exports[table]).hexdigest()
            index: dict = {}
            for row in direct.rows:
                ts_list, row_list = index.setdefault(row[1], ([], []))
                ts_list.append(row[0])
                row_list.append(row)
            by_loc[table] = index
        return cls(columns, rows, by_loc, csv_sha, all_ids)

    def query_text(self, table, attrs, locs, start, end) -> str:
        cols = self.columns[table]
        pick = [0, 1] + [cols.index(a) for a in attrs]
        lines = ["\t".join(("timestamp", "location", *attrs))]
        for loc in sorted(self.ids[table][f] for f in locs):
            ts_list, row_list = self.by_loc[table].get(loc, ([], []))
            lo, hi = bisect_left(ts_list, start), bisect_right(ts_list, end)
            for row in row_list[lo:hi]:
                lines.append("\t".join("" if row[i] is None else str(row[i]) for i in pick))
        return "\n".join(lines) + "\n"

    def report_counts(self) -> dict:
        """(table, report column) -> (non-empty, monthly avg), as report prints."""
        out = {}
        for table in RECORD_TABLES:
            cols, rows = self.columns[table], self.rows[table]
            months = len({row[0][:7] for row in rows})
            for col in REPORT_COLUMNS[table]:
                i = cols.index("wdire" if col == "id_wdire" else col)
                n = sum(1 for row in rows if row[i] is not None)
                out[(table, col)] = (n, n / months if months else 0.0)
        return out


def query_round(rng: random.Random, ref: Reference, store_path: str, first: datetime,
                span_h: int, export_dir: Path) -> list:
    """One seeded round: QUERIES_PER_ROUND queries, a report, three exports."""
    commands = []
    for _ in range(QUERIES_PER_ROUND):
        table = rng.choice(RECORD_TABLES)
        names = queryable_attributes(table)
        attrs = rng.sample(names, rng.randint(1, min(4, len(names))))
        locs = rng.sample(sorted(ref.ids[table]), rng.randint(1, 3))
        start = first + timedelta(minutes=rng.randrange(span_h * 60))
        end = start + timedelta(minutes=rng.randint(60, 72 * 60))
        s, e = start.strftime(_DB_TS), end.strftime(_DB_TS)
        argv = ["query", table, "--store", store_path, "--attrs", ",".join(attrs),
                "--loc", ",".join(locs), "--from", s, "--to", e]
        commands.append(("query", argv, (table, attrs, locs, s, e)))
    commands.append(("report", ["report", "--store", store_path], None))
    for table in RECORD_TABLES:
        dest = str(export_dir / f"{table}.csv")
        commands.append(("export", ["export", table, "--store", store_path, "--csv", dest],
                         (table, dest)))
    return commands


def query_mix(hooks: Hooks, work: Path, seed: int, sizes: Sizes) -> Outcome:
    days = [START_DAY + timedelta(days=i) for i in range(CORPUS_DAYS)]
    setup_times = []
    for k in range(sizes.setup_repeats):
        rep = work / f"setup{k}"
        t0 = perf_counter()
        cfg, store = fresh_store(hooks, rep / "store.db")
        source = hooks.source(SynthSource(seeded(cfg, seed)))
        for d in days:
            s = collect_day(hooks, cfg, d, source, store).summary
            gate((s.fired, s.stored, len(s.failures)) == (DEFAULT_FIRED, DEFAULT_RECORDS, 0),
                 f"corpus {s.line()}")
        store.close()
        setup_times.append(perf_counter() - t0)
        if k + 1 < sizes.setup_repeats:
            shutil.rmtree(rep)
    path = rep / "store.db"
    exports = export_tables(hooks, path, work / "export-ref")
    with Store(path) as raw:
        ref = Reference.build(exports, raw)
    stored = sum(len(r) for r in ref.rows.values())
    gate(stored == DEFAULT_RECORDS * CORPUS_DAYS, f"corpus holds {stored} records")
    bytes_per_record = os.path.getsize(path) / stored
    want_report = ref.report_counts()

    rng = random.Random(f"queries|{seed}")
    first = datetime.combine(days[0] - timedelta(days=1), time(0, 0))
    span_h = (CORPUS_DAYS + 1) * 24
    export_dir = work / "export-timed"
    export_dir.mkdir()
    query_s, report_s, export_s, export_rows = [], [], [], 0
    round_query_ms, round_rows_per_s = [], []
    digests, report_text, commands, spent = [], None, 0, 0.0
    while spent < sizes.seconds or len(query_s) < sizes.min_queries:
        round_q, round_rows, round_export_s = [], 0, 0.0
        for kind, argv, arg in query_round(rng, ref, str(path), first, span_h, export_dir):
            rc, out, err, elapsed = cli_call(hooks, argv)
            commands += 1
            spent += elapsed
            gate(rc == 0, f"{' '.join(argv)} exited {rc}: {err.strip()}")
            body = out.encode()
            if kind == "query":
                round_q.append(elapsed)
                gate(out == ref.query_text(*arg), f"wrong output for {' '.join(argv)}")
            elif kind == "report":
                report_s.append(elapsed)
                if report_text is None:
                    got = parse_report(out)
                    gate(set(got) == set(want_report), "report lists other columns than expected")
                    for key, (n, avg) in want_report.items():
                        gate(got[key][0] == n and abs(got[key][1] - avg) <= 0.05,
                             f"report {key}: {got[key]} expected {(n, avg)}")
                    report_text = out
                gate(out == report_text, "report output changed between runs")
            else:
                table, dest = arg
                data = Path(dest).read_bytes()
                body += data
                rows = len(ref.rows[table])
                gate(out == f"wrote {rows} rows to {dest}\n", f"export said {out!r}")
                gate(hashlib.sha256(data).hexdigest() == ref.csv_sha[table],
                     f"export of {table} differs from the reference export")
                export_s.append(elapsed)
                round_rows += rows
                round_export_s += elapsed
            digests.append((argv, hashlib.sha256(body).hexdigest()))
        query_s += round_q
        export_rows += round_rows
        round_query_ms.append(median(round_q) * 1e3)
        round_rows_per_s.append(round_rows / round_export_s)

    lat = latency_summary(query_s)
    gate(lat["p99"] is not None, f"only {lat['n']} queries, too few for p99")
    setup_s = median(setup_times)
    rows_per_s = export_rows / sum(export_s)
    report_med = median(report_s)
    rss = peak_rss_mb()
    round_len = QUERIES_PER_ROUND + 1 + len(RECORD_TABLES)
    first_round = hashlib.sha256("".join(d for _, d in digests[:round_len]).encode())
    # Per-round medians keep a burst of machine speed-up or slow-down
    # inside a minority of rounds from moving the gated figures.
    gated = {
        "setup_s": setup_s, "op_ms.p50": median(round_query_ms),
        "batch_s": report_med, "items_per_s": median(round_rows_per_s),
        "store_bytes_per_record": bytes_per_record, "peak_rss_mb": rss,
    }
    detail = {
        "setup_s": (setup_s, "s"), "query_ms.p50": (lat["p50"], "ms"),
        "query_ms.p90": (lat["p90"], "ms"),
        "query_ms.p99": (lat["p99"], "ms"), f"query_ms.{lat['tail']}": (lat["tail_ms"], "ms"),
        "report_s": (report_med, "s"), "export_rows_per_s": (rows_per_s, "1/s"),
        "store_bytes_per_record": (bytes_per_record, "B"),
        # Any nonzero exit fails the gate above, so a passing run reads 0.
        "failed_share": (0 / commands, "ratio"), "peak_rss_mb": (rss, "MB"),
    }
    samples = {"setup_s": len(setup_times), "query_ms": lat["n"], "report_s": len(report_s),
               "exports": len(export_s), "commands": commands, "rounds": len(round_query_ms)}
    out = Outcome(gated, detail, samples, attempted=commands, main_op_s=lat["p50"] / 1e3)
    out.info = {"first_round_digest": first_round.hexdigest(), "csv_sha256": ref.csv_sha,
                "command_digests": digests}
    return out


WORKLOADS = {"day_default": day_default, "captured_dirty": captured_dirty,
             "query_mix": query_mix}
