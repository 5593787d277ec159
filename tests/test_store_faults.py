"""A store that fails while the process lives aborts the day it fails on.

Real SQLite faults, no mocks of the store: the test wraps
``sqlite3.connect`` so the store's connection either has its
``max_page_count`` capped (the disk is full) or waits only briefly for
a lock that a second connection holds across the day's ``COMMIT``.
Either way ``run`` prints the committed days' lines and the aborted
day's partial line, exits 1 with one ``error:`` line, and leaves the
store as the committed days made it; a rerun without the fault then
brings the store to a clean run's state.

Caps are read off a clean run's ``PRAGMA page_count`` per day, not
fixed, because each Python bundles its own SQLite.

SQLite itself rolls a transaction back when an insert finds the disk
full, so the last case interrupts a day between two inserts instead:
there the day's rows are still pending, and only ``Store.deferred()``
keeps them out of the store.
"""

from __future__ import annotations

import contextlib
import random
import re
import sqlite3
from datetime import date, timedelta

import pytest

from urbanobs.storage import RECORD_TABLES
from tests.conftest import TINY_CFG_TEXT
from tests.test_kill_points import _cli, _dump

START = date(2016, 5, 16)
DAYS = 3
RUN_ARGS = ["--days", str(DAYS), "--start", START.isoformat()]
CAPS_PER_DAY = 2
SEED = 20160517
LOCK_TIMEOUT_S = 0.01

_DAY_LINE = re.compile(
    r"day (\S+): fired=(\d+) skipped=0 stored=(\d+) duplicates=0 "
    r"rejected=0 quarantined=0 failures=0\n")


def _page_count(db) -> int:
    with contextlib.closing(sqlite3.connect(db)) as conn:
        return conn.execute("PRAGMA page_count").fetchone()[0]


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A clean run, one day at a time: the config, and per day (0 after
    init) the store's page count, its dump and the day's stdout line."""
    root = tmp_path_factory.mktemp("clean")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CFG_TEXT)
    db = root / "obs.db"
    code, _, err = _cli("init", "--config", cfg, "--store", db)
    assert code == 0, err
    pages, dumps, lines = [_page_count(db)], [_dump(db)], [None]
    for i in range(DAYS):
        day = (START + timedelta(days=i)).isoformat()
        code, out, err = _cli("run", "--days", "1", "--start", day,
                              "--config", cfg, "--store", db)
        assert code == 0, err
        pages.append(_page_count(db))
        dumps.append(_dump(db))
        lines.append(out)
    assert all(a < b for a, b in zip(pages, pages[1:])), pages
    return cfg, pages, dumps, lines


def _init(cfg, tmp_path):
    db = tmp_path / "obs.db"
    code, _, err = _cli("init", "--config", cfg, "--store", db)
    assert code == 0, err
    return db


def _check_aborted(clean, db, day_n, out, err_tail):
    """``run`` stopped on day ``day_n`` (1-based) with ``error: ...``
    ending in err_tail, and kept only the days before it."""
    cfg, _, dumps, lines = clean
    day = START + timedelta(days=day_n - 1)
    committed = "".join(lines[1:day_n])
    assert out.startswith(committed)
    partial = _DAY_LINE.fullmatch(out[len(committed):])
    assert partial, out
    clean_line = _DAY_LINE.fullmatch(lines[day_n])
    assert partial[1] == day.isoformat()
    assert int(partial[2]) <= int(clean_line[2])
    assert int(partial[3]) <= int(clean_line[3])
    assert _dump(db) == dumps[day_n - 1]

    code, out, err = _cli("run", *RUN_ARGS, "--config", cfg, "--store", db)
    assert code == 0, err
    assert _dump(db) == dumps[DAYS]
    return f"error: store unavailable on {day}: {err_tail}\n"


def _seeded_caps():
    """(day that fills the disk, where its cap falls in that day's pages)."""
    rng = random.Random(SEED)
    return [pytest.param(day_n, rng.random(), id=f"day{day_n}-{i}")
            for day_n in range(1, DAYS + 1) for i in range(CAPS_PER_DAY)]


@pytest.mark.parametrize("day_n, at", _seeded_caps())
def test_disk_full_aborts_the_day(clean, tmp_path, monkeypatch, day_n, at):
    cfg, pages, _, _ = clean
    db = _init(cfg, tmp_path)
    # Days before day_n fit under the cap; day_n needs a page above it.
    k = pages[day_n - 1] - pages[0] + int(at * (pages[day_n] - pages[day_n - 1]))
    cap = _page_count(db) + k
    real_connect = sqlite3.connect

    def connect(*args, **kwargs):
        conn = real_connect(*args, **kwargs)
        conn.execute(f"PRAGMA max_page_count = {cap}")
        return conn

    with monkeypatch.context() as mp:
        mp.setattr(sqlite3, "connect", connect)
        code, out, err = _cli("run", *RUN_ARGS, "--config", cfg, "--store", db)
    assert code == 1
    table = re.fullmatch(r"error: store unavailable on \S+: insert into "
                         r"(\w+) failed: .*\n", err)
    assert table and table[1] in RECORD_TABLES, err
    assert err == _check_aborted(
        clean, db, day_n, out,
        f"insert into {table[1]} failed: database or disk is full")


@pytest.mark.parametrize("day_n", range(1, DAYS + 1), ids="day{}".format)
def test_lock_at_commit_aborts_the_day(clean, tmp_path, monkeypatch, day_n):
    cfg = clean[0]
    db = _init(cfg, tmp_path)
    reader = sqlite3.connect(db)
    commits = 0

    def on_statement(sql):
        nonlocal commits
        if sql == "COMMIT":
            commits += 1
            if commits == day_n:
                # A reader's snapshot, taken before the writer's COMMIT
                # runs, keeps that COMMIT from taking its exclusive lock.
                reader.execute("BEGIN")
                reader.execute("SELECT COUNT(*) FROM weathers").fetchone()

    real_connect = sqlite3.connect

    def connect(*args, **kwargs):
        conn = real_connect(*args, **{**kwargs, "timeout": LOCK_TIMEOUT_S})
        conn.set_trace_callback(on_statement)
        return conn

    try:
        with monkeypatch.context() as mp:
            mp.setattr(sqlite3, "connect", connect)
            code, out, err = _cli("run", *RUN_ARGS, "--config", cfg,
                                  "--store", db)
    finally:
        reader.close()
    assert code == 1
    assert err == _check_aborted(
        clean, db, day_n, out, f"commit failed on {db}: database is locked")


@pytest.mark.parametrize("day_n", range(1, DAYS + 1), ids="day{}".format)
def test_interrupt_between_inserts_rolls_the_day_back(clean, tmp_path,
                                                      monkeypatch, day_n):
    cfg, _, dumps, lines = clean
    db = _init(cfg, tmp_path)
    stored = [int(_DAY_LINE.fullmatch(line)[3]) for line in lines[1:]]
    rng = random.Random(SEED + day_n)
    # The interrupt comes as the day_n-th day's k-th insert is issued.
    k = sum(stored[:day_n - 1]) + rng.randint(2, stored[day_n - 1])
    inserts = 0

    class Interrupting(sqlite3.Connection):
        def execute(self, sql, *args):
            nonlocal inserts
            if sql.startswith("INSERT"):
                inserts += 1
                if inserts == k:
                    raise KeyboardInterrupt
            return super().execute(sql, *args)

    real_connect = sqlite3.connect

    def connect(*args, **kwargs):
        return real_connect(*args, factory=Interrupting, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(sqlite3, "connect", connect)
        with pytest.raises(KeyboardInterrupt):
            _cli("run", *RUN_ARGS, "--config", cfg, "--store", db)
    assert _dump(db) == dumps[day_n - 1]
    code, _, err = _cli("run", *RUN_ARGS, "--config", cfg, "--store", db)
    assert code == 0, err
    assert _dump(db) == dumps[DAYS]
