from __future__ import annotations

import csv
import io
import os
import shutil
import sqlite3
import subprocess
import sys
import tracemalloc
from datetime import date, datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from urbanobs import cli as cli_mod, config as config_mod
from urbanobs.cli import bootstrap_store, main
from urbanobs.config import STORE_ENV_VAR
from urbanobs.connectors import FixtureDirectorySource
from urbanobs.errors import RunAborted, StorageUnavailable
from urbanobs.model import WeatherRecord
from urbanobs.storage import (
    QueryResult,
    Store,
    export_csv,
    import_csv,
    queryable_attributes,
)
from urbanobs.synth import (
    SynthSource,
    gen_pollution_day,
    gen_traffic_response,
    gen_weather_day,
)
from urbanobs.scheduler import TRAFFIC_POLL, RunSummary, build_plan, run_day
from tests.conftest import TINY_CFG_TEXT
from tests.test_storage import _reference_import_csv

DAY = date(2016, 5, 16)


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG_TEXT)
    return path


@pytest.fixture()
def db_path(tmp_path):
    return tmp_path / "obs.db"


@pytest.fixture()
def cli(cfg_path, db_path, capsys):
    def run(*argv, expect=0):
        code = main([argv[0], "--config", str(cfg_path),
                     "--store", str(db_path), *argv[1:]])
        captured = capsys.readouterr()
        assert code == expect, captured.err or captured.out
        return captured.out, captured.err
    return run


@pytest.fixture()
def initialized(cli, db_path):
    cli("init")
    return db_path


@pytest.fixture()
def collected(cli, initialized):
    cli("run", "--days", "1", "--start", DAY.isoformat())
    return initialized


class TestInit:
    def test_creates_and_reports(self, cli, db_path):
        out, _ = cli("init")
        assert db_path.exists()
        assert "10 tables" in out
        assert "2 weather stations" in out
        assert "2 routes" in out
        assert "1 pollution stations" in out

    def test_idempotent(self, cli, db_path):
        cli("init")
        cli("init")
        with Store(db_path) as s:
            assert len(s.location_ids("locations_w")) == 2

    def test_bad_config_exits_nonzero(self, tmp_path, db_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CFG_TEXT.replace(
            "[points]", "[points]\nalpha = 1.0 2.0 dup"))
        code = main(["init", "--config", str(bad), "--store", str(db_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "duplicate" in err and "alpha" in err

    @pytest.mark.parametrize("broken", ["config", "rules"])
    def test_undecodable_file_is_a_config_error(self, tmp_path, db_path, capsys,
                                                broken):
        cfg = tmp_path / "bad.cfg"
        rules = tmp_path / "rules.txt"
        cfg.write_bytes(TINY_CFG_TEXT.encode() + b"\n[rules]\nfile = rules.txt\n")
        rules.write_bytes(b"weathers.temp -30 55\n")
        bad = {"config": cfg, "rules": rules}[broken]
        bad.write_bytes(b"# caf\xe9\n" + bad.read_bytes())
        code = main(["init", "--config", str(cfg), "--store", str(db_path)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xe9")
        assert err.count("\n") == 1
        assert not db_path.exists()

    def test_locked_store_is_an_error(self, cli, db_path, monkeypatch):
        class NoWaitStore(Store):
            def __init__(self, path):
                super().__init__(path)
                # Fail at once rather than after sqlite3's 5 s default wait.
                self._conn.execute("PRAGMA busy_timeout = 0")

        monkeypatch.setattr(cli_mod, "Store", NoWaitStore)
        holder = sqlite3.connect(db_path, isolation_level=None)
        try:
            holder.execute("BEGIN EXCLUSIVE")
            out, err = cli("init", expect=1)
        finally:
            holder.close()
        assert (out, err) == (
            "", f"error: cannot use store at {db_path}: database is locked\n")

    def test_failed_init_leaves_no_tables(self, cli, db_path, monkeypatch):
        def fail(self, table, entries):
            if table == "wdires":
                raise StorageUnavailable("disk full")
        monkeypatch.setattr(Store, "seed_lookup", fail)
        _, err = cli("init", expect=1)
        assert err == "error: disk full\n"
        with Store(db_path) as s:
            assert s._conn.execute("SELECT name FROM sqlite_master").fetchall() == []


class TestRun:
    def test_requires_init(self, cli):
        _, err = cli("run", "--days", "1", "--start", DAY.isoformat(),
                     expect=1)
        assert "run init first" in err

    def test_store_missing_catalogs_refused(self, cli, db_path, tiny_cfg):
        with Store(db_path) as s:
            s.init_schema()
            for meta in tiny_cfg.weather_stations:
                s.upsert_location(meta.station)
        out, err = cli("run", "--days", "1", "--start", DAY.isoformat(),
                       expect=1)
        assert out == ""
        assert err == f"error: store {db_path} has no catalogs; run init first\n"
        with Store(db_path) as s:
            assert s.record_count("weathers") == 0

    def test_one_day_summary(self, cli, initialized):
        out, _ = cli("run", "--days", "1", "--start", DAY.isoformat())
        assert out.startswith("day 2016-05-16: fired=6")
        assert "failures=0" in out
        with Store(initialized) as s:
            assert s.record_count("traffics") == 4
            assert s.record_count("weathers") == 72
            assert s.record_count("pollutions") == 22

    def test_multi_day_prints_line_per_day(self, cli, initialized):
        out, _ = cli("run", "--days", "3", "--start", DAY.isoformat())
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("day 2016-05-18:")

    def test_rerun_counts_duplicates(self, cli, collected):
        out, _ = cli("run", "--days", "1", "--start", DAY.isoformat())
        assert "stored=0" in out and "duplicates=98" in out

    def test_wall_clock_past_days_replay_daily_jobs(self, cli, initialized,
                                                     monkeypatch):
        def no_sleep(seconds):
            raise AssertionError(f"slept {seconds} s")

        monkeypatch.setattr("time.sleep", no_sleep)
        out, _ = cli("run", "--clock", "wall", "--days", "2",
                     "--start", DAY.isoformat())
        # Every entry is in the past: the traffic polls are skipped and
        # the two daily jobs replay without waiting.
        assert out == "".join(
            f"day 2016-05-{d}: fired=2 skipped=4 stored=94 duplicates=0 "
            f"rejected=0 quarantined=0 failures=0\n" for d in (16, 17))

    def test_aborted_day_prints_partial_summary(self, cli, initialized,
                                                monkeypatch):
        def abort(plan, *args, **kwargs):
            summary = RunSummary(day=plan.day, fired=2, stored=5)
            raise RunAborted(f"store unavailable on {plan.day}: disk full",
                             summary)

        monkeypatch.setattr("urbanobs.cli.run_day", abort)
        out, err = cli("run", "--days", "2", "--start", DAY.isoformat(),
                       expect=1)
        assert out == ("day 2016-05-16: fired=2 skipped=0 stored=5 "
                       "duplicates=0 rejected=0 quarantined=0 failures=0\n")
        assert "error: store unavailable on 2016-05-16: disk full" in err

    def test_unknown_source(self, cli, initialized):
        _, err = cli("run", "--days", "1", "--start", DAY.isoformat(),
                     "--source", "ftp:somewhere", expect=1)
        assert "unknown source" in err

    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.write_text("x")],
                             ids=["missing", "file"])
    def test_fixtures_directory_must_exist(self, cli, db_path, tmp_path, make):
        # Checked before the store is opened: the store here was never made.
        corpus = tmp_path / "corpus"
        make(corpus)
        out, err = cli("run", "--days", "1", "--start", DAY.isoformat(),
                       "--source", f"fixtures:{corpus}", expect=1)
        assert (out, err) == ("", f"error: fixtures directory {corpus} not found\n")
        assert not db_path.exists()

    def test_missing_fixtures_directory_runs_no_day(self, cli, initialized, tmp_path):
        out, _ = cli("run", "--days", "2", "--start", DAY.isoformat(),
                     "--source", f"fixtures:{tmp_path / 'nonexist'}", expect=1)
        assert out == ""
        with Store(initialized) as s:
            for table in ("weathers", "traffics", "pollutions"):
                assert s.record_count(table) == 0

    def test_bad_start_day(self, cli, initialized):
        _, err = cli("run", "--days", "1", "--start", "yesterday", expect=1)
        assert "cannot read day" in err

    # date.fromisoformat accepts the first two from Python 3.11 on.
    @pytest.mark.parametrize("day", ["20160517", "2016-W20-2", "2016-5-17"])
    def test_start_day_is_padded_iso_date(self, cli, initialized, day):
        _, err = cli("run", "--days", "1", "--start", day, expect=1)
        assert err == f"error: cannot read day {day!r}; use YYYY-MM-DD\n"
        with Store(initialized) as s:
            assert s.record_count("weathers") == 0

    def test_zero_days_writes_nothing(self, cli, initialized):
        out, _ = cli("run", "--days", "0")
        assert out == ""
        with Store(initialized) as s:
            for table in ("weathers", "traffics", "pollutions"):
                assert s.record_count(table) == 0

    @pytest.mark.parametrize("argv,days", [(["--days", "-1"], -1),
                                           (["--days=-3"], -3)])
    def test_negative_days_refused(self, cli, collected, tmp_path, argv, days):
        def dump():
            tables = {}
            for table in ("weathers", "traffics", "pollutions"):
                dest = tmp_path / f"{table}.csv"
                cli("export", table, "--csv", str(dest))
                tables[table] = dest.read_bytes()
            return tables

        before = dump()
        out, err = cli("run", *argv, "--start", DAY.isoformat(), expect=1)
        assert out == ""
        assert err == f"error: --days must be 0 or more, got {days}\n"
        assert dump() == before

    def test_outage_day_keeps_hours_but_all_na(self, tmp_path, capsys):
        cfg = tmp_path / "outage.cfg"
        cfg.write_text(TINY_CFG_TEXT.replace(
            "seed = 42", "seed = 42\noutage_prob = 1.0"))
        base = ["--config", str(cfg), "--store", str(tmp_path / "o.db")]
        assert main(["init", *base]) == 0
        assert main(["run", *base, "--days", "1",
                     "--start", DAY.isoformat()]) == 0
        dest = tmp_path / "p.csv"
        assert main(["export", "pollutions", *base, "--csv", str(dest)]) == 0
        capsys.readouterr()
        result = import_csv(dest.read_text(), "pollutions")
        # the outage day still yields every hourly row, just with no values
        assert len(result) == 22
        assert all(v is None for row in result.rows for v in row[2:])


class TestQuery:
    def test_tsv_to_stdout(self, cli, collected):
        out, _ = cli("query", "traffics", "--attrs",
                     "traveltime_curr,traveltime_std")
        lines = out.strip().splitlines()
        assert lines[0] == "timestamp\tlocation\ttraveltime_curr\ttraveltime_std"
        assert len(lines) == 1 + 4

    @pytest.mark.parametrize("table", ["weathers", "traffics", "pollutions"])
    @pytest.mark.parametrize("end", ["2016-05-15", "2016-05-16"])
    def test_tsv_matches_old_printer(self, cli, collected, capsys, table, end):
        # the per-row print() loop the TSV output used to come from
        with Store(collected) as s:
            attrs = list(queryable_attributes(table))
            locs = sorted(s.location_ids(f"locations_{table[0]}").values())
            result = s.query_attribute(
                table, attrs, locs, datetime(2016, 5, 15),
                datetime.fromisoformat(f"{end} 23:59:59"))
        print("\t".join(result.columns))
        for row in result.rows:
            print("\t".join("" if v is None else str(v) for v in row))
        want = capsys.readouterr().out
        out, _ = cli("query", table, "--attrs", ",".join(attrs),
                     "--from", "2016-05-15", "--to", end)
        assert out == want

    def test_loc_by_file_id_and_by_number(self, cli, collected):
        by_name, _ = cli("query", "traffics", "--attrs", "traveldist",
                         "--loc", "alpha-beta")
        with Store(collected) as s:
            loc = s.location_ids("locations_t")["alpha-beta"]
        by_id, _ = cli("query", "traffics", "--attrs", "traveldist",
                       "--loc", str(loc))
        assert by_name == by_id
        assert len(by_name.strip().splitlines()) == 1 + 2

    def test_range_dates_are_inclusive_whole_days(self, cli, collected):
        out, _ = cli("query", "pollutions", "--attrs", "pm10",
                     "--from", DAY.isoformat(), "--to", DAY.isoformat())
        # the 23:00 row only survives if --to widens to end of day
        assert "2016-05-16 23:00:00" in out

    def test_timestamp_range_narrower(self, cli, collected):
        out, _ = cli("query", "pollutions", "--attrs", "pm10",
                     "--from", "2016-05-16 02:00:00",
                     "--to", "2016-05-16 05:00:00")
        assert len(out.strip().splitlines()) == 1 + 4

    def test_csv_output(self, cli, collected, tmp_path):
        dest = tmp_path / "q.csv"
        out, _ = cli("query", "traffics", "--attrs", "traveldist",
                     "--csv", str(dest))
        assert f"wrote 4 rows to {dest}" in out
        assert dest.read_text().startswith("timestamp,location,traveldist")

    def test_empty_range_csv_is_header_only(self, cli, collected, tmp_path):
        dest = tmp_path / "empty.csv"
        out, _ = cli("query", "weathers", "--attrs", "temp",
                     "--from", "2030-01-01", "--to", "2030-01-02",
                     "--csv", str(dest))
        assert "wrote 0 rows" in out
        assert dest.read_text() == "timestamp,location,temp\n"

    def test_five_days_at_matching_cadence(self, tmp_path, capsys):
        # 59 polls per route per day (00:00..14:45 step 15) over 5 days
        cfg = tmp_path / "dense.cfg"
        cfg.write_text(TINY_CFG_TEXT.replace(
            "traffic_poll 06:00 07:00 30", "traffic_poll 00:00 14:45 15"))
        base = ["--config", str(cfg), "--store", str(tmp_path / "d.db")]
        assert main(["init", *base]) == 0
        assert main(["run", *base, "--days", "5",
                     "--start", "2017-02-13"]) == 0
        capsys.readouterr()
        for route in ("alpha-beta", "beta-alpha"):
            assert main(["query", "traffics", *base,
                         "--attrs", "traveltime_curr", "--loc", route,
                         "--from", "2017-02-13", "--to", "2017-02-17"]) == 0
            out = capsys.readouterr().out
            assert len(out.strip().splitlines()) == 1 + 295

    def test_unknown_attribute(self, cli, collected):
        _, err = cli("query", "traffics", "--attrs", "speed", expect=1)
        assert "no attribute" in err

    def test_unknown_location(self, cli, collected):
        _, err = cli("query", "traffics", "--attrs", "traveldist",
                     "--loc", "gamma-delta", expect=1)
        assert "unknown location" in err

    @pytest.mark.parametrize("loc", ["--5", "²"])
    def test_digit_like_location_is_unknown(self, cli, collected, loc):
        # isdigit() accepts both, int() refuses both
        for command in (["query", "traffics", "--attrs", "traveldist"],
                        ["export", "traffics", "--csv", str(collected) + ".csv"]):
            _, err = cli(*command, f"--loc={loc}", expect=1)
            assert err == f"error: unknown location {loc!r} for table traffics\n"

    def test_empty_attrs(self, cli, collected):
        _, err = cli("query", "traffics", "--attrs", " , ", expect=1)
        assert "at least one attribute" in err

    def test_bad_time_text(self, cli, collected):
        _, err = cli("query", "traffics", "--attrs", "traveldist",
                     "--from", "springtime", expect=1)
        assert "cannot read time" in err

    # date.fromisoformat accepts the first two from Python 3.11 on.
    @pytest.mark.parametrize("flag", ["--from", "--to"])
    @pytest.mark.parametrize("text", ["20160517", "2016-W20-2", "2016-5-17"])
    def test_range_day_is_padded_iso_date(self, cli, collected, flag, text):
        _, err = cli("query", "traffics", "--attrs", "traveldist",
                     flag, text, expect=1)
        assert err == (f"error: cannot read time {text!r}; use YYYY-MM-DD "
                       f"or 'YYYY-MM-DD HH:MM:SS'\n")

    def test_unknown_table(self, cli, collected):
        _, err = cli("query", "noise", "--attrs", "db", expect=1)
        assert "unknown record table" in err


class TestReport:
    def test_sections_and_uppercase_columns(self, cli, collected):
        out, _ = cli("report")
        assert "weathers" in out and "traffics" in out and "pollutions" in out
        assert "TEMP" in out and "TRAVELDIST" in out and "PM10" in out
        assert "ID_WDIRE" in out
        # metar and the code bookkeeping stay out of the report
        assert "METAR" not in out

    def test_counts_are_monthly_averages(self, cli, collected):
        out, _ = cli("report")
        line = next(l for l in out.splitlines() if "TRAVELDIST" in l)
        cells = line.split()
        assert cells[-2] == "4"       # 4 non-empty in one month
        assert cells[-1] == "4.0"     # divided by 1 month

    def test_continued_bare_key_is_a_config_error(self, tmp_path, db_path, capsys):
        # configparser before 3.13 raises AttributeError on this text.
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CFG_TEXT.replace("[cadence]\n", "[cadence]\nx\n  y\n"))
        code = main(["report", "--config", str(bad), "--store", str(db_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: ") and "continued" in err.lower()
        assert "Traceback" not in err


class TestClosedStdout:
    """A reader that leaves early (`report | head -8`) is not an error
    worth a traceback: the command exits 1 with nothing on stderr."""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("command", [("report",), ("query", "pollutions",
                                                       "--attrs", "pm10")])
    def test_no_traceback(self, cfg_path, collected, command, unbuffered):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child writes anything
        try:
            child = subprocess.run(
                [sys.executable, "-m", "urbanobs.cli", command[0], "--config",
                 str(cfg_path), "--store", str(collected), *command[1:]],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert child.stderr == b""
        assert child.returncode == 1


class TestExport:
    def test_full_table_csv(self, cli, collected, tmp_path):
        dest = tmp_path / "pollutions.csv"
        out, _ = cli("export", "pollutions", "--csv", str(dest))
        assert "wrote 22 rows" in out
        text = dest.read_text()
        header = text.splitlines()[0]
        assert header == "timestamp,location,pm10,o3,co,so2,no2,pm25"
        back = import_csv(text, "pollutions")
        assert len(back) == 22

    def test_export_respects_range(self, cli, collected, tmp_path):
        dest = tmp_path / "some.csv"
        cli("export", "pollutions", "--from", "2016-05-16 02:00:00",
            "--to", "2016-05-16 03:00:00", "--csv", str(dest))
        assert len(dest.read_text().strip().splitlines()) == 1 + 2


class TestCsvUnderAsciiLocale:
    """`export` and `query --csv` write UTF-8 under an ASCII locale."""

    @pytest.mark.parametrize("command", [
        ["export", "weathers"], ["query", "weathers", "--attrs", "temp,metar",
                                 "--loc", "apt_one"],
    ], ids=["export", "query"])
    def test_non_ascii_metar(self, cli, cfg_path, initialized, tmp_path, command):
        with Store(initialized) as s:
            s.insert_record(WeatherRecord(timestamp=datetime(2016, 5, 16, 8),
                                          station="apt_one", temp=21.5,
                                          metar="METAR MMMY caf\xe9"))
        want = tmp_path / "want.csv"
        cli(*command, "--csv", str(want))
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONWARNDEFAULTENCODING", "PYTHONIOENCODING")}
        env.update(PYTHONPATH=str(src), LC_ALL="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0")
        got = tmp_path / "got.csv"
        child = subprocess.run(
            [sys.executable, "-m", "urbanobs.cli", command[0], "--config",
             str(cfg_path), "--store", str(initialized), *command[1:], "--csv", str(got)],
            capture_output=True, env=env, timeout=60)
        assert (child.returncode, child.stderr) == (0, b"")
        assert child.stdout == f"wrote 1 rows to {got}\n".encode()
        assert got.read_bytes() == want.read_bytes()
        assert "METAR MMMY caf\xe9".encode("utf-8") in got.read_bytes()


class TestUnwritableCsv:
    @pytest.mark.parametrize("command", [["query", "weathers", "--attrs", "temp"],
                                         ["export", "weathers"]], ids=lambda c: c[0])
    @pytest.mark.parametrize("dest,reason", [("nodir/x.csv", "No such file or directory"),
                                             (".", "Is a directory")])
    def test_error_not_traceback(self, cli, collected, tmp_path, command, dest, reason):
        dest = str(tmp_path / dest)
        out, err = cli(*command, "--csv", dest, expect=1)
        assert (out, err) == ("", f"error: cannot write CSV to {dest}: {reason}\n")


class TestCsvIsTheStore:
    @pytest.mark.parametrize("command", [["query", "traffics", "--attrs", "traveldist"],
                                         ["export", "traffics"]], ids=lambda c: c[0])
    @pytest.mark.parametrize("via_link", [False, True], ids=["path", "symlink"])
    def test_refused_and_store_untouched(self, cli, collected, tmp_path, command, via_link):
        dest = collected
        if via_link:
            dest = tmp_path / "link.db"
            dest.symlink_to(collected)
        before = collected.read_bytes()
        out, err = cli(*command, "--csv", str(dest), expect=1)
        assert (out, err) == ("", f"error: --csv {dest} is the store itself\n")
        assert collected.read_bytes() == before
        cli("report")


@pytest.fixture(scope="module")
def default_day(tmp_path_factory, default_cfg):
    """A store holding one synthetic day of the packaged config."""
    path = tmp_path_factory.mktemp("default_day") / "day.db"
    with Store(path) as s:
        bootstrap_store(s, default_cfg)
        run_day(build_plan(default_cfg.windows, default_cfg.routes, DAY),
                SynthSource(default_cfg.profile), s, default_cfg)
    return path


def _traced_peak(call):
    """call()'s result and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestImportInPlace:
    def test_peak_below_half_the_reference(self, default_day):
        with Store(default_day) as s:
            ids = sorted(s.location_ids("locations_w").values())
            whole = s.query_attribute(
                "weathers", queryable_attributes("weathers"), ids,
                datetime(1000, 1, 1), datetime(9999, 12, 31, 23, 59, 59))
        text = export_csv(whole)
        back, peak = _traced_peak(lambda: import_csv(text, "weathers"))
        ref, ref_peak = _traced_peak(lambda: _reference_import_csv(text, "weathers"))
        assert len(back) == len(ref) == 3576
        assert (back.columns, back.rows) == (whole.columns, whole.rows)
        assert peak < ref_peak / 2, (peak, ref_peak)


class TestExportPerLocation:
    def test_peak_below_a_quarter_of_the_result(self, default_day, tmp_path, capsys):
        path, dest = default_day, tmp_path / "weathers.csv"
        with Store(path) as s:
            ids = sorted(s.location_ids("locations_w").values())
            whole, whole_peak = _traced_peak(lambda: s.query_attribute(
                "weathers", queryable_attributes("weathers"), ids,
                datetime(1000, 1, 1), datetime(9999, 12, 31, 23, 59, 59)))
        code, export_peak = _traced_peak(lambda: main(
            ["export", "weathers", "--store", str(path), "--csv", str(dest)]))
        assert code == 0 and len(whole) == 3576
        assert capsys.readouterr().out == f"wrote 3576 rows to {dest}\n"
        assert dest.read_text() == export_csv(whole)
        assert export_peak < whole_peak / 4, (export_peak, whole_peak)

    @pytest.mark.parametrize("argv", [
        ["query", "weathers", "--attrs", "temp,speed"],
        ["query", "weathers", "--attrs", "temp", "--from", "2016-05-17", "--to", "2016-05-16"],
        ["export", "weathers", "--from", "2016-05-17", "--to", "2016-05-16"],
        ["export", "weathers", "--loc", "", "--from", "2016-05-17", "--to", "2016-05-16"],
    ], ids=["attribute", "query-range", "export-range", "no-location-range"])
    def test_bad_query_leaves_existing_csv(self, cli, collected, tmp_path, argv):
        dest = tmp_path / "keep.csv"
        dest.write_bytes(b"kept,bytes\r\n")
        out, err = cli(*argv, "--csv", str(dest), expect=1)
        assert out == "" and err.startswith("error: ")
        assert dest.read_bytes() == b"kept,bytes\r\n"

    def test_store_failure_midway_leaves_partial_file(self, cli, collected, tmp_path,
                                                      monkeypatch):
        whole = tmp_path / "whole.csv"
        cli("export", "weathers", "--csv", str(whole))
        lines = whole.read_text().splitlines(keepends=True)
        assert len(lines) == 1 + 24 + 48  # the header, then two locations
        monkeypatch.setattr(sqlite3, "connect",
                            _weathers_fail_after(30, "disk I/O error"))
        dest = tmp_path / "weathers.csv"
        out, err = cli("export", "weathers", "--csv", str(dest), expect=1)
        assert (out, err) == ("", f"error: cannot use store at {collected}: "
                                  f"disk I/O error\n")
        assert dest.read_text() == "".join(lines[:1 + 30])


class TestExportOneStatement:
    def test_one_snapshot(self, default_day, tmp_path, monkeypatch, capsys):
        path = tmp_path / "day.db"
        shutil.copyfile(default_day, path)
        before, during = tmp_path / "before.csv", tmp_path / "during.csv"
        export_csv = cli_mod.export_csv

        def rows_then_insert(rows):
            rows = iter(rows)
            yield next(rows)
            # A writer commits a row for the last station while the
            # export is on its first, with batches of rows still to
            # read: the export must not see it.
            conn = sqlite3.connect(path, timeout=0)
            try:
                with conn:
                    conn.execute(
                        "INSERT INTO weathers (timestamp_w, temp, id_locations_w) "
                        "SELECT '2016-05-18 00:00:00', 99.0, MAX(id_locations_w) "
                        "FROM locations_w")
            except sqlite3.OperationalError:
                pass  # the export's read holds the store
            finally:
                conn.close()
            yield from rows

        def inserting(result, dest=None):
            return export_csv(QueryResult("weathers", result.columns,
                                          rows_then_insert(result.rows)), dest)

        def export(dest):
            return main(["export", "weathers", "--store", str(path), "--csv", str(dest)])

        assert export(before) == 0
        monkeypatch.setattr(cli_mod, "export_csv", inserting)
        assert export(during) == 0
        assert capsys.readouterr().out == (f"wrote 3576 rows to {before}\n"
                                           f"wrote 3576 rows to {during}\n")
        assert during.read_bytes() == before.read_bytes()

    @pytest.mark.parametrize("command", [["query", "weathers", "--attrs", "temp"],
                                         ["export", "weathers"]], ids=lambda c: c[0])
    def test_locked_store_fails_before_the_file_opens(self, cli, collected, tmp_path,
                                                      monkeypatch, command):
        real_connect = sqlite3.connect

        def connect(*args, **kwargs):
            return real_connect(*args, **{**kwargs, "timeout": 0.01})

        dest = tmp_path / "keep.csv"
        dest.write_bytes(b"kept,bytes\r\n")
        holder = real_connect(collected, isolation_level=None)
        try:
            holder.execute("BEGIN EXCLUSIVE")
            monkeypatch.setattr(sqlite3, "connect", connect)
            out, err = cli(*command, "--csv", str(dest), expect=1)
        finally:
            holder.close()
        assert (out, err) == (
            "", f"error: cannot use store at {collected}: database is locked\n")
        assert dest.read_bytes() == b"kept,bytes\r\n"


class TestYearsBeforeOneThousand:
    """Timestamp text has a four-digit year, so a day before year 1000
    is generated, parsed, stored and queried like any other."""

    def test_run_stores_the_whole_day(self, tmp_path, capsys):
        store = str(tmp_path / "y999.db")
        assert main(["init", "--store", store]) == 0
        assert main(["run", "--store", store, "--days", "1",
                     "--start", "0999-06-01"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "day 0999-06-01: fired=2438 skipped=0 stored=6232 duplicates=0 "
            "rejected=0 quarantined=0 failures=0")
        # With no --from, the range starts at datetime.min.
        assert main(["query", "pollutions", "--store", store, "--attrs", "pm10",
                     "--loc", "sima_centro"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 22 and lines[1].startswith("0999-06-01 02:00:00\t")

    def test_query_from_year_999(self, default_day, capsys):
        def query(start):
            assert main(["query", "traffics", "--store", str(default_day),
                         "--attrs", "traveldist", "--loc", "1",
                         "--from", start, "--to", "2016-05-17"]) == 0
            return capsys.readouterr().out
        want = query("1000-01-01")
        assert len(want.splitlines()) > 1
        assert query("0999-01-01") == want


class TestStorePrecedence:
    def test_flag_beats_env(self, cfg_path, tmp_path, monkeypatch, capsys):
        env_db = tmp_path / "env.db"
        flag_db = tmp_path / "flag.db"
        monkeypatch.setenv(STORE_ENV_VAR, str(env_db))
        code = main(["init", "--config", str(cfg_path), "--store", str(flag_db)])
        capsys.readouterr()
        assert code == 0
        assert flag_db.exists() and not env_db.exists()

    def test_env_beats_config(self, cfg_path, tmp_path, monkeypatch, capsys):
        env_db = tmp_path / "env.db"
        monkeypatch.setenv(STORE_ENV_VAR, str(env_db))
        code = main(["init", "--config", str(cfg_path)])
        capsys.readouterr()
        assert code == 0
        assert env_db.exists()


def _old_store_path(args) -> str:
    """Store path resolution as it was before read commands skipped the config."""
    if args.config:
        cfg = config_mod.load_config(args.config)
    else:
        cfg = config_mod.load_default()
    if getattr(args, "store", None):
        cfg = cfg.with_store_path(args.store)
    return cfg.store_path


class TestReadCommandStorePath:
    """query, report and export take --store without building a config."""

    @pytest.mark.parametrize("argv", [
        ["query", "weathers", "--attrs", "temp"],
        ["report"],
        ["export", "traffics", "--csv", "out.csv"]])
    def test_store_flag_builds_no_config(self, argv, collected, monkeypatch,
                                         tmp_path, capsys):
        def no_config(*args):
            raise AssertionError("config built")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(config_mod, "_build", no_config)
        assert main([*argv, "--store", str(collected)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["query", "report", "export"])
    def test_named_broken_config_still_fails(self, command, collected,
                                             tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CFG_TEXT.replace(
            "[points]", "[points]\nalpha = 1.0 2.0 dup"))
        extra = {"query": ["weathers", "--attrs", "temp"], "report": [],
                 "export": ["weathers", "--csv", str(tmp_path / "out.csv")]}
        code = main([command, *extra[command], "--config", str(bad),
                     "--store", str(collected)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == (f"error: {bad}: duplicate entry 'alpha' in [points] "
                       f"(duplicate point name)\n")
        assert not (tmp_path / "out.csv").exists()

    def test_matrix_matches_old_resolution(self, tmp_path, monkeypatch, capsys):
        """Every store source, for every command that opens a store."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tiny.cfg").write_text(TINY_CFG_TEXT)
        # flag.db and env.db hold different days; the config's tiny.db is
        # only initialized; the default's urbanobs.db does not exist.
        for name, days in (("flag.db", ["--days", "1"]),
                           ("env.db", ["--days", "2"]), ("tiny.db", None)):
            assert main(["init", "--config", "tiny.cfg", "--store", name]) == 0
            if days:
                assert main(["run", "--config", "tiny.cfg", "--store", name,
                             *days, "--start", DAY.isoformat()]) == 0
        capsys.readouterr()
        commands = {"run": ["run", "--days", "0"],
                    "query": ["query", "traffics", "--attrs", "traveldist"],
                    "report": ["report"],
                    "export": ["export", "weathers", "--csv", "out.csv"]}
        stores = [[], ["--store", "flag.db"], ["--store", ""],
                  ["--store", "missing.db"]]
        seen = set()
        for argv in commands.values():
            for store in stores:
                for env in (None, "env.db"):
                    for config in ([], ["--config", "tiny.cfg"]):
                        results = []
                        for resolve in (cli_mod._store_path, _old_store_path):
                            with monkeypatch.context() as m:
                                if env is None:
                                    m.delenv(STORE_ENV_VAR, raising=False)
                                else:
                                    m.setenv(STORE_ENV_VAR, env)
                                m.setattr(cli_mod, "_store_path", resolve)
                                code = main([*argv, *store, *config])
                            out, err = capsys.readouterr()
                            dest = Path("out.csv")
                            results.append((code, out, err, dest.exists()
                                            and dest.read_bytes()))
                            dest.unlink(missing_ok=True)
                        assert results[0] == results[1], (argv, store, env, config)
                        seen.add(results[0][:3])
        # The cases reach different stores and both outcomes.
        assert {code for code, _, _ in seen} == {0, 1}
        assert len(seen) > 8


class TestRemovedWorkingDirectory:
    def test_init_and_run_with_absolute_store(self, tmp_path, monkeypatch,
                                              capsys):
        gone = tmp_path / "gone"
        gone.mkdir()
        monkeypatch.chdir(gone)
        gone.rmdir()
        db = str(tmp_path / "obs.db")
        assert main(["init", "--store", db]) == 0
        assert main(["run", "--days", "1", "--start", DAY.isoformat(),
                     "--store", db]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[-1].startswith("day 2016-05-16: fired=2438")


class TestMissingStore:
    """Only init creates a store; the other commands refuse a missing one."""

    COMMANDS = ["run", "query", "report", "export"]

    @staticmethod
    def argv(command, cfg_path, tmp_path):
        extra = {"run": ["--days", "1", "--start", DAY.isoformat()],
                 "query": ["weathers", "--attrs", "temp"],
                 "report": [],
                 "export": ["weathers", "--csv", str(tmp_path / "out.csv")]}
        return [command, *extra[command], "--config", str(cfg_path)]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_flag_path_is_not_created(self, command, cfg_path, tmp_path,
                                      capsys):
        typo = tmp_path / "typo.db"
        code = main([*self.argv(command, cfg_path, tmp_path),
                     "--store", str(typo)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: store at {typo} does not exist; run init first\n"
        assert not typo.exists()
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_env_path_is_not_created(self, command, cfg_path, tmp_path,
                                     monkeypatch, capsys):
        typo = tmp_path / "env-typo.db"
        monkeypatch.setenv(STORE_ENV_VAR, str(typo))
        code = main(self.argv(command, cfg_path, tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: store at {typo} does not exist; run init first\n"
        assert not typo.exists()


class TestNotADatabase:
    """A store path naming a file that is not SQLite is an error, not a
    traceback, and no command changes or adds a file."""

    @pytest.mark.parametrize("command", ["init", *TestMissingStore.COMMANDS])
    def test_error_and_file_untouched(self, command, cfg_path, tmp_path,
                                      capsys):
        notes = tmp_path / "notes.txt"
        notes.write_text("buy milk\n")
        argv = (["init", "--config", str(cfg_path)] if command == "init"
                else TestMissingStore.argv(command, cfg_path, tmp_path))
        code = main([*argv, "--store", str(notes)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (
            1, "",
            f"error: cannot use store at {notes}: file is not a database\n")
        assert notes.read_text() == "buy milk\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["notes.txt", "tiny.cfg"]


class _FailingCursor:
    """A cursor that reads ``good`` rows and then fails to read the next,
    as on a corrupt page."""

    def __init__(self, cursor, good: int, message: str) -> None:
        self._cursor, self._good, self._message = cursor, good, message

    def fetchmany(self, size: int) -> list:
        if not self._good:
            raise sqlite3.DatabaseError(self._message)
        rows = self._cursor.fetchmany(min(size, self._good))
        self._good -= len(rows)
        return rows

    def fetchall(self) -> list:
        rows = []
        while batch := self.fetchmany(64):
            rows += batch
        return rows


def _weathers_fail_after(good_rows: int,
                         message: str = "database disk image is malformed"):
    """sqlite3.connect, whose connections read ``good_rows`` rows of each
    statement on the weathers table and then fail with ``message``."""
    real_connect = sqlite3.connect

    class Connection(sqlite3.Connection):
        def execute(self, sql, *args):
            cursor = super().execute(sql, *args)
            if "FROM weathers" in sql:
                return _FailingCursor(cursor, good_rows, message)
            return cursor

    def connect(*args, **kwargs):
        return real_connect(*args, factory=Connection, **kwargs)
    return connect


class TestReadFailsAfterFirstRow:
    """A store read that fails while its rows are fetched is an error,
    not a traceback."""

    @pytest.mark.parametrize("argv, good_rows", [
        (["export", "weathers", "--csv", "out.csv"], 5),
        (["query", "weathers", "--attrs", "temp"], 0),
        (["report"], 0),
    ], ids=["export", "query", "report"])
    def test_error_not_traceback(self, cli, collected, tmp_path, monkeypatch,
                                 argv, good_rows):
        monkeypatch.chdir(tmp_path)
        if good_rows:
            cli("export", "weathers", "--csv", "whole.csv")
        monkeypatch.setattr(sqlite3, "connect", _weathers_fail_after(good_rows))
        out, err = cli(*argv, expect=1)
        assert (out, err) == (
            "", f"error: cannot use store at {collected}: "
                f"database disk image is malformed\n")
        if good_rows:  # the header and the rows read are written
            whole = (tmp_path / "whole.csv").read_text().splitlines(keepends=True)
            assert (tmp_path / "out.csv").read_text() == "".join(whole[:1 + good_rows])


class TestFixtureSource:
    def _write_corpus(self, root: Path, cfg) -> None:
        """Capture one synth day as fixture files the run can replay."""
        profile = cfg.profile
        day_before = DAY - timedelta(days=1)
        for meta in cfg.weather_stations:
            payload = gen_weather_day(profile, meta, day_before)
            d = root / "weather" / meta.station.file_id
            d.mkdir(parents=True)
            (d / f"{day_before.isoformat()}.txt").write_text(payload.body)
        plan = build_plan(cfg.windows, cfg.routes, DAY)
        ticks = sorted({e.at for e in plan.entries if e.kind == TRAFFIC_POLL})
        for route in cfg.routes:
            lines = [gen_traffic_response(profile, route, at).body
                     for at in ticks]
            d = root / "traffic" / route.file_id
            d.mkdir(parents=True)
            (d / f"{DAY.isoformat()}.txt").write_text("".join(lines))
        for station in cfg.pollution_stations:
            payload = gen_pollution_day(profile, station, DAY, 23)
            d = root / "pollution" / station.file_id
            d.mkdir(parents=True)
            (d / f"{DAY.isoformat()}.txt").write_text(payload.body)

    def test_replayed_day_matches_synth(self, cli, initialized, cfg_path,
                                        tmp_path, tiny_cfg, capsys):
        corpus = tmp_path / "corpus"
        self._write_corpus(corpus, tiny_cfg)
        out, _ = cli("run", "--days", "1", "--start", DAY.isoformat(),
                     "--source", f"fixtures:{corpus}")
        assert "failures=0" in out

        # reference store collected straight from the generator
        synth_db = tmp_path / "synth.db"
        assert main(["init", "--config", str(cfg_path),
                     "--store", str(synth_db)]) == 0
        assert main(["run", "--config", str(cfg_path), "--store",
                     str(synth_db), "--days", "1", "--start",
                     DAY.isoformat()]) == 0
        capsys.readouterr()

        with Store(initialized) as a, Store(synth_db) as b:
            assert a.all_counts() == b.all_counts()
            ids = a.location_ids("locations_t")
            start, end = datetime(2016, 5, 16), datetime(2016, 5, 17)
            qa = a.query_attribute("traffics",
                                   ["traveldist", "traveltime_curr"],
                                   sorted(ids.values()), start, end)
            qb = b.query_attribute("traffics",
                                   ["traveldist", "traveltime_curr"],
                                   sorted(ids.values()), start, end)
            assert qa == qb

    def test_differing_traffic_lines_fail_one_poll(self, initialized, tmp_path,
                                                   tiny_cfg):
        clean, dirty = tmp_path / "clean", tmp_path / "dirty"
        self._write_corpus(clean, tiny_cfg)
        self._write_corpus(dirty, tiny_cfg)
        route = tiny_cfg.routes[0].file_id
        path = dirty / "traffic" / route / f"{DAY.isoformat()}.txt"
        first, second, *_ = path.read_text().splitlines(keepends=True)
        # The first tick again with another reading; the second, repeated.
        with path.open("a") as f:
            f.write(first[:-2] + "9\n" + second)
        plan = build_plan(tiny_cfg.windows, tiny_cfg.routes, DAY)
        with Store(initialized) as s:
            got = run_day(plan, FixtureDirectorySource(dirty), s, tiny_cfg)
        with Store(tmp_path / "clean.db") as s:
            bootstrap_store(s, tiny_cfg)
            want = run_day(plan, FixtureDirectorySource(clean), s, tiny_cfg)
        assert got.failures == [f"traffic_poll {route}: traffic fixture lines "
                                f"at {first.split()[1]} differ in {path}"]
        assert want.failures == [] and want.duplicates == got.duplicates == 0
        assert (got.fired, got.stored) == (want.fired, want.stored - 1)

    def test_undecodable_weather_file_fails_its_fetch(self, cli, initialized,
                                                     tmp_path, tiny_cfg):
        corpus = tmp_path / "corpus"
        self._write_corpus(corpus, tiny_cfg)
        day_file = f"{(DAY - timedelta(days=1)).isoformat()}.txt"
        bad = corpus / "weather" / "pws_one" / day_file
        bad.write_bytes(bad.read_bytes().replace(b"temp=", b"temp=\xff", 1))
        out, _ = cli("run", "--days", "1", "--start", DAY.isoformat(),
                     "--source", f"fixtures:{corpus}")
        assert "failures=1" in out
        good = (corpus / "weather" / "apt_one" / day_file).read_text().splitlines()
        with Store(initialized) as s:
            ids = s.location_ids("locations_w")
            rows = s.query_attribute("weathers", ["temp"], sorted(ids.values()),
                                     datetime(2016, 1, 1), datetime(2016, 12, 31)).rows
        assert [r[1] for r in rows] == [ids["apt_one"]] * len(good)

    def test_undecodable_traffic_file_fails_each_poll(self, initialized, tmp_path,
                                                      tiny_cfg):
        corpus = tmp_path / "corpus"
        self._write_corpus(corpus, tiny_cfg)
        route = tiny_cfg.routes[0].file_id
        path = corpus / "traffic" / route / f"{DAY.isoformat()}.txt"
        path.write_bytes(path.read_bytes() + b"# \xff\n")
        plan = build_plan(tiny_cfg.windows, tiny_cfg.routes, DAY)
        with Store(initialized) as s:
            got = run_day(plan, FixtureDirectorySource(corpus), s, tiny_cfg)
        polls = [e for e in plan.entries
                 if e.kind == TRAFFIC_POLL and e.target == route]
        prefix = f"traffic_poll {route}: cannot read fixture {path}: "
        assert len(polls) > 1
        assert [f[:len(prefix)] for f in got.failures] == [prefix] * len(polls)
        assert "can't decode byte 0xff" in got.failures[0]


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _old_format_cell(v) -> str:
    # The per-cell formatter export_csv used before it wrote rows as is.
    return "" if v is None else str(v)


def _old_export_csv(result) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(result.columns)
    for row in result.rows:
        w.writerow([_old_format_cell(v) for v in row])
    return buf.getvalue()


_CELL = st.one_of(
    st.none(), st.integers(), st.floats(), st.booleans(),
    st.text(st.sampled_from(list('ab ,"\'\n\r\t;é')), max_size=8), st.text(max_size=8))


class TestExportFormatting:
    def test_na_int_float_and_quoted_text(self, tmp_path):
        result = QueryResult("weathers", ("timestamp", "location", "temp", "cond"), (
            ("2016-05-16 00:00:00", 1, None, 'say "hi", then'),
            ("2016-05-16 00:05:00", 2, 21.5, None),
            ("2016-05-16 00:10:00", 3, 1e-07, "a\nb"),
            ("2016-05-16 00:15:00", 4, 0.1 + 0.2, ""),
            ("2016-05-16 00:20:00", 5, -0.0, "x,y"),
        ))
        dest, old = tmp_path / "out.csv", tmp_path / "old.csv"
        assert export_csv(result, dest=dest) is None
        old.write_text(_old_export_csv(result))  # how the old export wrote it
        assert dest.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("mode", [
        {"PYTHONUTF8": "1"}, {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
    ], ids=["utf8-mode", "ascii-locale"])
    def test_file_is_utf8_whatever_the_locale(self, tmp_path, mode):
        """Under the C locale, whose encoding is ASCII outside UTF-8 mode,
        the file still holds the UTF-8 bytes of the export's text."""
        src = Path(__file__).resolve().parent.parent / "src"
        got = tmp_path / "got.csv"
        code = (
            "import sys\n"
            "from urbanobs.storage import QueryResult, export_csv\n"
            "r = QueryResult('weathers', ('timestamp', 'cond'), (('t', 'caf\\xe9'),))\n"
            "export_csv(r, dest=sys.argv[1])\n")
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONWARNDEFAULTENCODING", "PYTHONIOENCODING")}
        env.update(PYTHONPATH=str(src), LC_ALL="C", **mode)
        subprocess.run([sys.executable, "-c", code, str(got)], env=env, check=True)
        r = QueryResult("weathers", ("timestamp", "cond"), (("t", "caf\xe9"),))
        assert got.read_bytes() == export_csv(r).encode("utf-8") == b"timestamp,cond\nt,caf\xc3\xa9\n"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_CELL, _CELL, _CELL), max_size=5))
    def test_matches_old_formatter(self, rows):
        result = QueryResult("traffics", ("timestamp", "location", "traveldist"),
                             tuple(rows))
        assert export_csv(result) == _old_export_csv(result)

    def test_store_export_matches_old_formatter(self, cli, collected):
        with Store(collected) as s:
            for table in ("weathers", "traffics", "pollutions"):
                ids = sorted(s.location_ids(f"locations_{table[0]}").values())
                result = s.query_attribute(
                    table, queryable_attributes(table), ids,
                    datetime(2016, 1, 1), datetime(2016, 12, 31))
                assert len(result) > 0
                assert export_csv(result) == _old_export_csv(result)
