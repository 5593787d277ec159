from __future__ import annotations

import configparser
import dataclasses
import re
from pathlib import Path

import pytest

from urbanobs import config
from urbanobs.config import (
    STORE_ENV_VAR,
    WDIRE_LOOKUPS,
    default_config_text,
    load_config,
    load_default,
)
from urbanobs.errors import ConfigError
from urbanobs.model import COMPASS_CODES
from urbanobs.scheduler import TRAFFIC_POLL, build_plan
from tests.conftest import TINY_CFG_TEXT

MINIMAL = """\
[points]
alpha = 25.67 -100.31 downtown
beta = 25.78 -100.11 airport

[weather_stations]
pws_one = pws KTEST0001 25.67 -100.31 CST 30 test

[pollution_stations]
sima_test = 25.67 -100.34 monitor

[time_zones]
CST = Central Standard Time
"""


def load_text(tmp_path, text, name="test.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return load_config(path)


class TestDefaultDeployment:
    def test_catalog_sizes(self, default_cfg):
        assert len(default_cfg.points) == 7
        assert len(default_cfg.routes) == 42
        assert len(default_cfg.weather_stations) == 32
        assert len(default_cfg.pollution_stations) == 10

    def test_station_mix(self, default_cfg):
        airports = [m for m in default_cfg.weather_stations
                    if m.station.is_airport]
        assert len(airports) == 2
        assert {m.station.airport_code for m in airports} == {"MMMY", "MMAN"}

    def test_observations_per_day(self, default_cfg):
        per_day = sum(1440 // m.interval_min
                      for m in default_cfg.weather_stations)
        assert per_day == 3576

    def test_traffic_cadence_band(self, default_cfg):
        from datetime import date
        plan = build_plan(default_cfg.windows, default_cfg.routes,
                          date(2016, 5, 16))
        per_route = plan.count(TRAFFIC_POLL) / 42
        assert 56 <= per_route <= 62

    def test_lookups(self, default_cfg):
        assert {l.code for l in default_cfg.time_zones} == {"CST", "CDT"}
        assert len(default_cfg.conds) == 10
        assert len(default_cfg.icons) == 8
        assert [l.code for l in default_cfg.wdires] == list(COMPASS_CODES)
        assert len(WDIRE_LOOKUPS) == 16

    def test_store_path_and_seed(self, default_cfg):
        assert default_cfg.store_path == "urbanobs.db"
        assert default_cfg.profile.seed == 20160515

    def test_text_round_trip(self):
        assert "[points]" in default_config_text()
        assert load_default().points == load_default().points


class TestParsing:
    def test_tiny_deployment(self, tmp_path):
        path = tmp_path / "t.cfg"
        path.write_text(TINY_CFG_TEXT)
        cfg = load_config(path)
        assert cfg.store_path == "tiny.db"
        assert {r.file_id for r in cfg.routes} == {"alpha-beta", "beta-alpha"}
        assert cfg.weather_stations[0].interval_min == 30
        assert cfg.profile.seed == 42

    def test_minimal_defaults(self, tmp_path):
        cfg = load_text(tmp_path, MINIMAL)
        assert cfg.store_path == "urbanobs.db"
        assert cfg.windows == ()
        assert cfg.profile.seed == 20160515
        assert len(cfg.rules) > 0

    def test_route_endpoints_come_from_points(self, tmp_path):
        cfg = load_text(tmp_path, MINIMAL)
        ab = next(r for r in cfg.routes if r.file_id == "alpha-beta")
        assert (ab.start_lat, ab.start_long) == (25.67, -100.31)
        assert (ab.end_lat, ab.end_long) == (25.78, -100.11)
        assert ab.description_from == "downtown"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("section", ["points", "weather_stations",
                                         "pollution_stations"])
    def test_missing_required_section(self, tmp_path, section):
        text = MINIMAL.replace(f"[{section}]", f"[{section}_off]")
        with pytest.raises(ConfigError, match=section):
            load_text(tmp_path, text)

    def test_single_point_rejected(self, tmp_path):
        text = MINIMAL.replace("beta = 25.78 -100.11 airport\n", "")
        with pytest.raises(ConfigError, match="one configured point"):
            load_text(tmp_path, text)

    def test_no_points_means_no_routes(self, tmp_path):
        text = MINIMAL.replace("alpha = 25.67 -100.31 downtown\n", "")
        text = text.replace("beta = 25.78 -100.11 airport\n", "")
        cfg = load_text(tmp_path, text)
        assert cfg.points == () and cfg.routes == ()

    def test_duplicate_point_name_diagnosed(self, tmp_path):
        text = MINIMAL.replace("[points]",
                               "[points]\nalpha = 1.0 2.0 first")
        with pytest.raises(ConfigError) as err:
            load_text(tmp_path, text)
        assert "duplicate point name" in str(err.value)
        assert "alpha" in str(err.value)

    @pytest.mark.parametrize("line", [
        "pws_bad = pws KX 25.0",                    # too few tokens
        "pws_bad = drone KX 25.0 -100.0 CST 30 x",  # unknown kind
        "pws_bad = pws KX 25.0 -100.0 CST soon x",  # bad interval
        "pws_bad = pws KX north -100.0 CST 30 x",   # bad latitude
    ])
    def test_bad_station_lines(self, tmp_path, line):
        text = MINIMAL.replace("[pollution_stations]",
                               line + "\n\n[pollution_stations]")
        with pytest.raises(ConfigError, match="pws_bad|station"):
            load_text(tmp_path, text)

    def test_interval_bounds(self, tmp_path):
        text = MINIMAL.replace("CST 30 test", "CST 0 test")
        with pytest.raises(ConfigError, match="interval"):
            load_text(tmp_path, text)

    def test_unknown_time_zone_rejected(self, tmp_path):
        text = MINIMAL.replace("CST 30 test", "PST 30 test")
        with pytest.raises(ConfigError, match="PST"):
            load_text(tmp_path, text)

    def test_shared_provider_code_rejected(self, tmp_path):
        text = MINIMAL.replace(
            "[pollution_stations]",
            "pws_two = pws KTEST0001 25.0 -100.0 CST 30 twin\n\n"
            "[pollution_stations]")
        with pytest.raises(ConfigError, match="share provider code"):
            load_text(tmp_path, text)

    def test_bad_pollution_line(self, tmp_path):
        text = MINIMAL.replace("sima_test = 25.67 -100.34 monitor",
                               "sima_test = 25.67")
        with pytest.raises(ConfigError, match="sima_test"):
            load_text(tmp_path, text)

    @pytest.mark.parametrize("section,line,text", [
        ("points", "gamma", "point 'gamma': expected 'lat long description'"),
        ("points", "gamma = 25.0",
         "point 'gamma': expected 'lat long description'"),
        ("points", "gamma = north -100.0 x",
         "point gamma: expected a number, got 'north'"),
        ("points", "gamma = 25.0 west x",
         "point gamma: expected a number, got 'west'"),
        ("pollution_stations", "sima_x",
         "pollution station 'sima_x': expected 'lat long description'"),
        ("pollution_stations", "sima_x = 25.0",
         "pollution station 'sima_x': expected 'lat long description'"),
        ("pollution_stations", "sima_x = y -100.0 z",
         "pollution station sima_x: expected a number, got 'y'"),
        ("pollution_stations", "sima_x = 25.0 y z",
         "pollution station sima_x: expected a number, got 'y'"),
    ])
    def test_bad_place_line_texts(self, tmp_path, section, line, text):
        edited = MINIMAL.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        with pytest.raises(ConfigError) as err:
            load_text(tmp_path, edited)
        assert str(err.value) == text

    def test_bad_cadence_line(self, tmp_path):
        text = MINIMAL + "\n[cadence]\ntraffic_poll 06:00 10:00\n"
        with pytest.raises(ConfigError, match="cadence"):
            load_text(tmp_path, text)

    def test_cadence_windows_parsed(self, tmp_path):
        text = MINIMAL + ("\n[cadence]\ntraffic_poll 06:00 10:00 12\n"
                          "pollution_scrape 23:30 24:00 30\n")
        cfg = load_text(tmp_path, text)
        assert len(cfg.windows) == 2
        assert cfg.windows[0].interval_min == 12


class TestStoreOverride:
    def test_env_var_wins_over_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, "/tmp/elsewhere.db")
        cfg = load_text(tmp_path, TINY_CFG_TEXT)
        assert cfg.store_path == "/tmp/elsewhere.db"

    def test_with_store_path(self, tmp_path):
        cfg = load_text(tmp_path, MINIMAL)
        other = cfg.with_store_path("x.db")
        assert other.store_path == "x.db"
        assert cfg.store_path == "urbanobs.db"
        assert other.points == cfg.points


class TestRulesSection:
    def test_rules_file_override(self, tmp_path):
        (tmp_path / "custom.rules").write_text("weathers.temp -5 45\n")
        text = MINIMAL + "\n[rules]\nfile = custom.rules\n"
        cfg = load_text(tmp_path, text)
        rule = cfg.rules.rule_for("weathers", "temp")
        assert (rule.min, rule.max) == (-5, 45)
        assert cfg.rules.rule_for("weathers", "hum") is None

    def test_rules_file_missing(self, tmp_path):
        text = MINIMAL + "\n[rules]\nfile = nowhere.rules\n"
        with pytest.raises(ConfigError, match="nowhere.rules"):
            load_text(tmp_path, text)

    def test_unknown_rules_key(self, tmp_path):
        text = MINIMAL + "\n[rules]\nmode = strict\n"
        with pytest.raises(ConfigError, match="mode"):
            load_text(tmp_path, text)

    def test_rules_section_without_file_uses_defaults(self, tmp_path):
        text = MINIMAL + "\n[rules]\n"
        cfg = load_text(tmp_path, text)
        assert cfg.rules.rule_for("weathers", "hum").max == 100


def _exactly(text):
    """A ``pytest.raises`` pattern that matches only ``text``."""
    return rf"\A{re.escape(text)}\Z"


class TestSynthSection:
    def test_overrides(self, tmp_path):
        text = MINIMAL + (
            "\n[synth]\nseed = 99\ngap_prob = 0.5\n"
            "baselines = pm10:60 o3:30 co:20 so2:15 no2:25 pm25:35\n"
            "peak_windows = 07:00-09:00\n")
        cfg = load_text(tmp_path, text)
        assert cfg.profile.seed == 99
        assert cfg.profile.gap_prob == 0.5
        assert cfg.profile.baselines["pm10"] == 60
        assert cfg.profile.peak_windows == ((420, 540),)

    @pytest.mark.parametrize("line,hint", [
        ("seed = soon", "seed"),
        ("baselines = pm10=60", "name:value"),
        ("peak_windows = 07:00..09:00", "HH:MM-HH:MM"),
        ("turbo = on", "unknown synth"),
        ("gap_prob = sometimes", "gap_prob"),
        ("outage_prob = x",
         _exactly("synth outage_prob: expected a number, got 'x'")),
        ("temp_mean_c", _exactly("synth 'temp_mean_c': missing value")),
        ("gap_prob = 1.5", _exactly("synth gap_prob 1.5 outside 0..1")),
    ])
    def test_bad_values(self, tmp_path, line, hint):
        text = MINIMAL + f"\n[synth]\n{line}\n"
        with pytest.raises(ConfigError, match=hint):
            load_text(tmp_path, text)


def _configparser_only_load(path: Path):
    """load_config restated apart from config.py: the fixed reference that
    every odd config's outcome is checked against."""
    cp = configparser.ConfigParser(
        delimiters=("=",), allow_no_value=True, interpolation=None,
        strict=True, comment_prefixes=("#",))
    cp.optionxform = str
    origin = str(path)
    try:
        cp.read_string(path.read_text(), source=origin)
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(
            f"{origin}: duplicate entry {exc.option!r} in [{exc.section}]"
            + (" (duplicate point name)" if exc.section == "points" else ""))
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}")
    # configparser before 3.13 raises AttributeError on a continued bare key.
    except AttributeError:
        raise ConfigError(f"{origin}: key without value continued by an indented line")
    sections = {s: dict(cp.items(s)) for s in cp.sections()}
    return config._build(sections, path.parent.resolve())


def _load_outcome(load, path):
    try:
        cfg = load(path)
    except ConfigError as exc:
        return type(exc).__name__, str(exc)
    # RuleSet has no equality of its own; compare the rules it holds.
    return dataclasses.replace(cfg, rules=None), cfg.rules._rules


_STATION = "pws_one = pws KTEST0001 25.67 -100.31 CST 30 test\n"

# Broken and odd configs: each is MINIMAL with one edit.
_ODD_CONFIGS = {
    "duplicate section": MINIMAL + "\n[points]\n",
    "duplicate key": MINIMAL.replace(_STATION, _STATION + _STATION),
    "duplicate point": MINIMAL.replace("[points]\n",
                                       "[points]\nalpha = 1.0 2.0 first\n"),
    "key before first section": "path = x.db\n" + MINIMAL,
    "empty key": MINIMAL.replace("[time_zones]\n", "[time_zones]\n= v\n"),
    "default section supplies keys": MINIMAL + "\n[DEFAULT]\nUTC = Universal\n",
    "default section supplies a bad key": "[DEFAULT]\nx = 1\n" + MINIMAL,
    "indented continuation value": MINIMAL.replace(
        "alpha = 25.67 -100.31 downtown\n",
        "alpha = 25.67 -100.31\n  downtown\n"),
    "indented continuation of a bare key": MINIMAL + "\n[cadence]\nx\n  y\n",
    "indented key": MINIMAL.replace("beta =", "  beta ="),
    "text after header": MINIMAL.replace("[time_zones]", "[time_zones] x"),
    "empty header": MINIMAL + "\n[]\n",
    "unclosed header": MINIMAL + "\n[synth\nseed = 1\n",
    "bare point": MINIMAL.replace("[points]\n", "[points]\ngamma\n"),
    "spaces and odd whitespace": MINIMAL.replace(
        "CST = Central", "CST\x0c =\xa0 Central"),
    "indented comment": MINIMAL.replace("[points]\n", "[points]\n   # note\n"),
    "semicolon is not a comment": MINIMAL + "\n[conds]\n; Clear = sky\n",
    "percent and colon": MINIMAL + "\n[conds]\n%x = 100%: y\n",
    "store path": "[store]\npath = here.db\n" + MINIMAL,
    "bare rules file key": MINIMAL + "\n[rules]\nfile\n",
    "empty file": "",
}


class TestLoadConfigMatchesConfigparser:
    @pytest.mark.parametrize("name", sorted(_ODD_CONFIGS))
    def test_same_outcome(self, tmp_path, name):
        path = tmp_path / "odd.cfg"
        path.write_text(_ODD_CONFIGS[name])
        assert _load_outcome(load_config, path) == \
            _load_outcome(_configparser_only_load, path)

    def test_packaged_default(self, tmp_path):
        path = tmp_path / "default.cfg"
        path.write_text(default_config_text())
        assert _load_outcome(load_config, path) == \
            _load_outcome(_configparser_only_load, path)
