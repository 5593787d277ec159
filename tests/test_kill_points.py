"""A process killed at any SQL statement of ``init`` + ``run`` leaves a
store that the same two commands, rerun, bring to a clean run's state.

The driver is a forked child that wraps ``sqlite3.connect`` so every
connection it opens counts statements through ``set_trace_callback``;
at the k-th statement the child sends itself SIGKILL, before SQLite runs
that statement. One child runs at a time, and only that child is killed.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import signal
import sqlite3
import time

import pytest

from urbanobs.cli import main
from urbanobs.storage import RECORD_TABLES
from tests.conftest import TINY_CFG_TEXT

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs os.fork")

RUN_ARGS = ["--days", "3", "--start", "2016-05-16"]
KILL_POINTS_IN_INIT = 12
KILL_POINTS_IN_RUN = 38
SEED = 20160516
CHILD_TIMEOUT_S = 60


def _counting_connect(on_statement):
    """sqlite3.connect, with every statement reported to on_statement."""
    real_connect = sqlite3.connect

    def connect(*args, **kwargs):
        conn = real_connect(*args, **kwargs)
        conn.set_trace_callback(on_statement)
        return conn
    return connect


def _cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _collect(cfg, db) -> None:
    for command in (["init"], ["run", *RUN_ARGS]):
        code, _, err = _cli(*command, "--config", cfg, "--store", db)
        assert code == 0, err


def _dump(db) -> dict[str, str]:
    """Every table's export CSV and the report's stdout."""
    dump = {}
    for table in RECORD_TABLES:
        dest = db.parent / f"{table}.csv"
        code, _, err = _cli("export", table, "--store", db, "--csv", dest)
        assert code == 0, err
        dump[table] = dest.read_text()
    code, dump["report"], err = _cli("report", "--store", db)
    assert code == 0, err
    return dump


def _killed_at(k: int, cfg, db) -> None:
    """Run init and run in a child killed at its k-th statement."""
    pid = os.fork()
    if pid == 0:  # the child never returns into the test
        status = 3
        try:
            seen = 0

            def tick(_sql):
                nonlocal seen
                seen += 1
                if seen == k:
                    os.kill(os.getpid(), signal.SIGKILL)

            sqlite3.connect = _counting_connect(tick)
            _collect(cfg, db)
            status = 0
        finally:
            os._exit(status)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    done, status = os.waitpid(pid, os.WNOHANG)
    while not done:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"child for kill point {k} still ran after "
                        f"{CHILD_TIMEOUT_S} s")
        time.sleep(0.002)
        done, status = os.waitpid(pid, os.WNOHANG)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL, \
        f"child for kill point {k} ended with status {status}"


def test_replay_after_kill_matches_clean_run(tmp_path, monkeypatch):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG_TEXT)
    clean = tmp_path / "clean" / "obs.db"
    clean.parent.mkdir()
    statements = []
    with monkeypatch.context() as mp:
        mp.setattr(sqlite3, "connect", _counting_connect(statements.append))
        code, _, err = _cli("init", "--config", cfg, "--store", clean)
        assert code == 0, err
        in_init = len(statements)
        code, _, err = _cli("run", *RUN_ARGS, "--config", cfg, "--store", clean)
        assert code == 0, err
    total = len(statements)
    expected = _dump(clean)

    rng = random.Random(SEED)
    points = sorted({1, in_init, in_init + 1, total,
                     *rng.sample(range(1, in_init + 1), KILL_POINTS_IN_INIT),
                     *rng.sample(range(in_init + 1, total + 1),
                                 KILL_POINTS_IN_RUN)})
    for k in points:
        db = tmp_path / f"kill{k}" / "obs.db"
        db.parent.mkdir()
        _killed_at(k, cfg, db)
        if k <= in_init:
            # A store whose init died is refused whole, never half used.
            code, out, err = _cli("run", *RUN_ARGS, "--config", cfg,
                                  "--store", db)
            assert (code, out, err) == (
                1, "", f"error: store at {db} has no schema yet; run init "
                       f"first (no such table: locations_w)\n"), k
            with contextlib.closing(sqlite3.connect(db)) as conn:
                assert conn.execute(
                    "SELECT name FROM sqlite_master").fetchall() == [], k
        _collect(cfg, db)
        assert _dump(db) == expected, f"kill point {k} of {total}"
