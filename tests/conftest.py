from __future__ import annotations

import os

import pytest

from urbanobs import config as config_mod
from urbanobs.cli import bootstrap_store
from urbanobs.storage import Store

# A two-point deployment small enough for fast end-to-end runs.
TINY_CFG_TEXT = """\
[store]
path = tiny.db

[points]
alpha = 25.6700 -100.3100 downtown core
beta = 25.7800 -100.1100 airport district

[weather_stations]
pws_one = pws KTEST0001 25.6700 -100.3100 CST 30 rooftop test unit
apt_one = airport MMTT 25.7800 -100.1100 CST 60 tower feed

[pollution_stations]
sima_test = 25.6700 -100.3400 test monitor

[cadence]
traffic_poll 06:00 07:00 30
weather_backfill 00:30 01:00 30
pollution_scrape 23:30 24:00 30

[synth]
seed = 42

[time_zones]
CST = Central Standard Time (UTC-6)

[conds]
Clear = Clear sky
Partly Cloudy = Scattered cloud
Light Rain = Light rain

[icons]
clear = clear sky
partlycloudy = partly cloudy
rain = rain
"""


@pytest.fixture(autouse=True)
def _no_store_env(monkeypatch):
    monkeypatch.delenv(config_mod.STORE_ENV_VAR, raising=False)


@pytest.fixture(autouse=True)
def _no_child_left():
    """Fail a test that leaves a child process, running or unreaped."""
    yield
    if not hasattr(os, "fork"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail(f"the test left a child process ({pid or 'still running'})")


@pytest.fixture()
def forks(monkeypatch):
    """Pids of the children forked in the test, which may use two CPUs.

    Read-ahead forks only where the process may run on two CPUs; the
    test is given two whatever the machine has.
    """
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
    return pids


@pytest.fixture(scope="session")
def default_cfg():
    return config_mod.load_default()


@pytest.fixture(scope="session")
def tiny_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(TINY_CFG_TEXT)
    return config_mod.load_config(path)


@pytest.fixture()
def store():
    s = Store(":memory:")
    s.init_schema()
    yield s
    s.close()


@pytest.fixture()
def ready_store(default_cfg):
    """In-memory store with schema, catalogs and lookups loaded."""
    s = Store(":memory:")
    bootstrap_store(s, default_cfg)
    yield s
    s.close()


@pytest.fixture()
def tiny_store(tiny_cfg):
    """Bootstrapped in-memory store for the two-point deployment."""
    s = Store(":memory:")
    bootstrap_store(s, tiny_cfg)
    yield s
    s.close()
