"""Tests for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench     (or: python3 -m pytest perfbench)
"""

from __future__ import annotations

import random
import sys
import tempfile
import unittest
from datetime import date, datetime, timedelta
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from urbanobs import config as config_mod  # noqa: E402
from urbanobs.cli import bootstrap_store  # noqa: E402
from urbanobs.connectors import FixtureDirectorySource  # noqa: E402
from urbanobs.model import WeatherRecord  # noqa: E402
from urbanobs.scheduler import build_plan, run_day  # noqa: E402
from urbanobs.storage import RECORD_TABLES, Store, queryable_attributes  # noqa: E402
from urbanobs.synth import SynthSource  # noqa: E402

import dirty  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import Hooks  # noqa: E402

TINY_CFG = """\
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
traffic_poll 06:00 10:00 10
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


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        data = list(range(1, 101))
        self.assertEqual(stats.percentile(data, 50), 50)
        self.assertEqual(stats.percentile(data, 99), 99)
        self.assertEqual(stats.percentile(data, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_ten_samples_beyond(self):
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertTrue(stats.supported(1000, 99))
        self.assertFalse(stats.supported(999, 99))
        self.assertTrue(stats.supported(100, 90))
        self.assertFalse(stats.supported(99, 90))

    def test_highest_supported_tail(self):
        self.assertIsNone(stats.tail_percentile(99))
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10_000), 99.9)
        self.assertEqual(stats.tail_percentile(100_000), 99.99)

    def test_summary_withholds_unsupported_percentiles(self):
        small = stats.latency_summary([0.001] * 500)
        self.assertEqual(small["n"], 500)
        self.assertIsNone(small["p99"])
        self.assertEqual(small["tail"], "p90")
        big = stats.latency_summary([i / 1e6 for i in range(1, 2001)])
        self.assertAlmostEqual(big["p99"], 1.98)
        self.assertAlmostEqual(big["p50"], 1.0005)
        self.assertEqual(big["tail"], "p99")


class TableDigest(unittest.TestCase):
    def test_order_free_and_sensitive(self):
        a = {"weathers": b"h\n1\n", "traffics": b"h\n2\n", "pollutions": b"h\n"}
        b = dict(reversed(list(a.items())))
        self.assertEqual(workloads.table_digest(a), workloads.table_digest(b))
        changed = dict(a, traffics=b"h\n3\n")
        self.assertNotEqual(workloads.table_digest(a), workloads.table_digest(changed))
        swapped = dict(a, weathers=a["traffics"], traffics=a["weathers"])
        self.assertNotEqual(workloads.table_digest(a), workloads.table_digest(swapped))

    def test_exported_store_digest(self):
        rec = WeatherRecord(timestamp=datetime(2016, 5, 16, 10, 0), station="pws_cumbres",
                            tz="CST", temp=21.5)
        digests = []
        with tempfile.TemporaryDirectory() as tmp:
            for name, records in (("a", [rec]), ("b", [rec]), ("c", [])):
                path = Path(tmp) / name / "store.db"
                cfg, store = workloads.fresh_store(Hooks(), path)
                with store:
                    for r in records:
                        store.insert_record(r)
                exports = workloads.export_tables(Hooks(), path, Path(tmp) / name / "csv")
                digests.append(workloads.table_digest(exports))
        self.assertEqual(digests[0], digests[1])
        self.assertNotEqual(digests[0], digests[2])


def _tiny_config(tmp: Path):
    path = tmp / "tiny.cfg"
    path.write_text(TINY_CFG)
    return config_mod.load_config(path)


class Injector(unittest.TestCase):
    def test_traffic_booking(self):
        ledger = dirty.Ledger()
        inj = dirty.Injector(random.Random(1), ledger)
        d = date(2016, 5, 16)
        line = "alpha-beta 2016-05-16T06:00:00 20000 1300 1400"
        with mock.patch.object(dirty, "TRAFFIC_LINE_SHARE", 1.0):
            bad = inj.traffic_line(line, d)
        with mock.patch.object(dirty, "TRAFFIC_LINE_SHARE", 0.0):
            good = inj.traffic_line(line, d)
        self.assertNotEqual(bad, line)
        self.assertEqual(good, line)
        self.assertEqual((ledger.days[d].rejected, ledger.days[d].stored), (1, 1))
        self.assertEqual(ledger.days[d].failures, 1)
        self.assertEqual(ledger.values[("traffics", "traveldist")], [20000.0])

    def test_broken_station_day_loses_every_line(self):
        ledger = dirty.Ledger()
        inj = dirty.Injector(random.Random(1), ledger)
        d = date(2016, 5, 16)
        body = ("pws_one 2016-05-15T00:00:00 temp=20.0 cond='Partly Cloudy'\n"
                "pws_one 2016-05-15T00:30:00 temp=19.5\n")
        text = inj.weather(body, d, broken=True)
        self.assertIn("bogus_key=1", text)
        self.assertEqual((ledger.days[d].stored, ledger.days[d].station_failures), (0, 1))
        self.assertEqual(ledger.present, {})

    def test_weather_fields_unquote(self):
        sid, ts, fields = dirty.weather_fields(
            "apt_one 2016-05-15T01:00:00 temp=20.0 cond='Partly Cloudy' metar='M A''B'")
        self.assertEqual((sid, ts), ("apt_one", "2016-05-15T01:00:00"))
        self.assertEqual(fields, {"temp": "20.0", "cond": "Partly Cloudy", "metar": "M AB"})

    def test_ledger_matches_a_real_run(self):
        shares = {"WEATHER_FIELD_SHARE": 0.2, "TRAFFIC_LINE_SHARE": 0.2,
                  "POLLUTION_CELL_SHARE": 0.2, "QUARANTINE_LINE_SHARE": 0.1}
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.multiple(dirty, **shares):
            tmp = Path(tmp)
            cfg = _tiny_config(tmp)
            days = [date(2016, 5, 16) + timedelta(days=i) for i in range(2)]
            ledger = dirty.write_captured_days(tmp / "captured", cfg, SynthSource(cfg.profile),
                                               days, random.Random("dirty|7"))
            totals = ledger.totals
            self.assertGreater(totals["rejected"], 0)
            self.assertGreater(totals["quarantined"], 0)
            self.assertEqual(totals["station_failures"], 1)
            self.assertGreater(sum(totals["substituted"].values()), 0)
            store = Store(tmp / "store.db")
            bootstrap_store(store, cfg)
            source = FixtureDirectorySource(tmp / "captured")
            with store:
                for d in days:
                    s = run_day(build_plan(cfg.windows, cfg.routes, d), source, store, cfg)
                    e = ledger.days[d]
                    self.assertEqual(
                        (s.stored, s.rejected, s.quarantined, len(s.failures)),
                        (e.stored, e.rejected, e.quarantined, e.failures), s.line())
                nonempty = {(r.table, r.column): r.nonempty for r in store.summarize_nonempty()}
                self.assertEqual(dirty.check_report(ledger, nonempty), [])
                ids = {t: sorted(store.location_ids(workloads._LOCATION_TABLE[t]).values())
                       for t in RECORD_TABLES}
                results = {t: store.query_attribute(t, queryable_attributes(t), ids[t],
                                                    *workloads._ALL_TIME)
                           for t in RECORD_TABLES}
                self.assertEqual(dirty.check_values(ledger, results), [])
                # A value changed behind the ledger's back is caught.
                ledger.values[("traffics", "traveldist")][0] += 1.0
                self.assertEqual(len(dirty.check_values(ledger, results)), 1)


if __name__ == "__main__":
    unittest.main()
