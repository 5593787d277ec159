"""``cli.main`` parses exactly as the full parser did.

``_old_build_argparser`` is a copy of the parser ``main`` built for every
call before it built only the invoked command's parser. For every argv
below, the old parse and ``cli.main`` must agree byte for byte on exit
code, stdout and stderr; where the old parse succeeds, ``cli.parse_args``
must give the same Namespace. A plain command line builds no parser:
whenever ``cli._read_direct`` reads one, argparse reads it the same.
"""

from __future__ import annotations

import argparse
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from urbanobs import cli
from urbanobs import config as config_mod


def _old_add_store_args(p) -> None:
    p.add_argument("--config", help="config file (default: packaged config)")
    p.add_argument("--store", help="database path (overrides config and "
                   f"${config_mod.STORE_ENV_VAR})")


def _old_build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="urbanobs",
        description="Collect, store and query urban weather, traffic and "
                    "air-quality telemetry.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create the schema and load catalogs")
    _old_add_store_args(p)
    p.set_defaults(func=cli.cmd_init)

    p = sub.add_parser("run", help="execute collection days")
    _old_add_store_args(p)
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--start", help="first day, YYYY-MM-DD (default: today)")
    p.add_argument("--clock", choices=("simulated", "wall"), default="simulated")
    p.add_argument("--source", default="synth",
                   help="'synth' or 'fixtures:<dir>' (default: synth)")
    p.set_defaults(func=cli.cmd_run)

    p = sub.add_parser("query", help="select attribute values")
    _old_add_store_args(p)
    p.add_argument("table", help="weathers, traffics or pollutions")
    p.add_argument("--attrs", required=True, help="comma-separated attributes")
    p.add_argument("--loc", help="comma-separated location ids or file_ids "
                   "(default: all)")
    p.add_argument("--from", dest="start", help="range start (inclusive)")
    p.add_argument("--to", dest="end",
                   help="range end (inclusive; date widens to 23:59:59)")
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(func=cli.cmd_query)

    p = sub.add_parser("report", help="per-attribute accounting summary")
    _old_add_store_args(p)
    p.set_defaults(func=cli.cmd_report)

    p = sub.add_parser("export", help="dump all attributes of a table to CSV")
    _old_add_store_args(p)
    p.add_argument("table", help="weathers, traffics or pollutions")
    p.add_argument("--loc", help="comma-separated location ids or file_ids "
                   "(default: all)")
    p.add_argument("--from", dest="start", help="range start (inclusive)")
    p.add_argument("--to", dest="end",
                   help="range end (inclusive; date widens to 23:59:59)")
    p.add_argument("--csv", required=True, help="output file")
    p.set_defaults(func=cli.cmd_export)

    return ap


Q = ["query", "weathers", "--attrs", "temp,hum"]

ARGVS = [
    # help
    ["-h"], ["--help"], ["--he"],
    *[[name, "-h"] for name in ("init", "run", "query", "report", "export")],
    ["query", "--help"], ["-h", "query"], ["bogus", "-h"],
    [*Q, "-h"], ["report", "--store", "s.db", "--help"],
    ["export", "-h", "weathers"], ["run", "--days", "x", "-h"],
    ["query", "--att", "-h"], ["--", "-h"],
    # no arguments, unknown, abbreviated and upper-case command names
    [], ["bogus"], ["que"], ["rep", "--store", "s.db"], ["QUERY"], ["Query", "weathers"],
    ["init "], [""], ["-x"], ["--store", "s.db", "report"],
    # -- in leading and trailing positions
    ["--", "query", "weathers", "--attrs", "temp"], ["--"],
    [*Q, "--"], ["query", "--", "weathers", "--attrs", "temp"],
    ["query", "weathers", "--attrs", "temp", "--", "traffics"],
    ["report", "--"], ["report", "--", "--store", "s.db"],
    ["query", "--attrs", "temp", "--", "weathers"],
    # unrecognized options and positionals
    [*Q, "--bogus"], [*Q, "extra"], [*Q, "extra", "more", "--bogus", "-z"],
    ["query", "weathers", "extra", "--attrs", "temp"],
    ["report", "extra"], ["init", "--bogus", "x"], ["init", "-x"],
    ["run", "--days", "1", "extra", "--bogus"], ["report", "--store=a", "--foo=b"],
    ["export", "weathers", "--csv", "o.csv", "--attrs", "temp"],
    # missing required options and option values
    ["query"], ["query", "weathers"], ["query", "--attrs", "temp"],
    ["export"], ["export", "weathers"], ["run"], ["run", "--start", "2016-05-16"],
    ["query", "weathers", "--attrs"], ["run", "--days"], [*Q, "--store"],
    [*Q, "--from"], ["export", "weathers", "--csv"], ["init", "--config"],
    # bad choice and bad type
    ["run", "--days", "1", "--clock", "fast"], ["run", "--days", "x"],
    ["run", "--days", "1.5"], ["run", "--days", "1", "--clock"],
    # option abbreviations, ambiguous and not
    ["run", "--st", "x", "--days", "1"], ["run", "--s", "x", "--days", "1"],
    ["query", "weathers", "--att", "temp", "--st", "s.db"],
    ["run", "--da", "2", "--cl", "wall", "--so", "fixtures:d"],
    ["init", "--c", "c.cfg", "--s", "s.db"], ["query", "weathers", "--a", "t", "--c", "x"],
    # valid command lines
    ["init"], ["init", "--store", "a.db", "--config", "c.cfg"],
    ["run", "--days", "2", "--start", "2016-05-16", "--clock", "wall",
     "--source", "fixtures:d", "--store", "s.db"],
    ["run", "--days=-1"], ["run", "--days", "-1"],
    [*Q, "--loc", "a,b", "--from", "2016-05-16", "--to", "2016-05-17 10:00:00",
     "--csv", "o.csv", "--store", "s.db", "--config", "c.cfg"],
    ["query", "--attrs=temp", "traffics"], ["query", "--loc", "-5", *Q[1:]],
    [*Q, "--loc=--5"], ["query", "weathers", "--attrs", "temp", "--loc", "--5"],
    ["report"], ["report", "--store", "s.db"], ["report", "--store", "-"],
    ["export", "pollutions", "--csv", "o.csv", "--from", "2016-05-16"],
    ["export", "--csv", "o.csv", "traffics", "--to", "2016-05-17T00:00:00"],
]


def _exit(call, argv):
    try:
        return call(argv)
    except SystemExit as exc:
        return exc


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    # argparse wraps help to the terminal width it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv", ARGVS, ids=repr)
def test_same_as_full_parser(argv, capsys):
    old = _exit(_old_build_argparser().parse_args, argv)
    old_out, old_err = capsys.readouterr()
    if isinstance(old, SystemExit):
        new = _exit(cli.main, argv)
        out, err = capsys.readouterr()
        assert isinstance(new, SystemExit)
        assert (new.code, out, err) == (old.code, old_out, old_err)
    else:
        new = cli.parse_args(argv)
        assert capsys.readouterr() == ("", "")
        assert new == old
        assert new.func is old.func


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("argv", [["-h"], ["run", "-h"], ["query", "-h"],
                                  ["export", "--csv"], [*Q, "extra"]], ids=repr)
def test_same_texts_at_other_widths(argv, columns, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", columns)
    old = _exit(_old_build_argparser().parse_args, argv)
    old_texts = capsys.readouterr()
    new = _exit(cli.main, argv)
    assert (new.code, capsys.readouterr()) == (old.code, old_texts)


def test_argv_defaults_to_sys_argv(monkeypatch):
    monkeypatch.setattr("sys.argv", ["urbanobs", *Q])
    assert cli.parse_args() == _old_build_argparser().parse_args(Q)


def test_command_line_builds_only_its_parser(monkeypatch):
    def full_parser():
        raise AssertionError("built the full parser")

    monkeypatch.setattr(cli, "build_argparser", full_parser)
    assert cli.parse_args([*Q, "--store", "s.db"]).store == "s.db"


_FLAGS = sorted({flag for _, _, specs in cli._COMMANDS.values()
                 for flag, _ in specs if flag.startswith("-")})
_VALUES = ["weathers", "traffics", "s.db", "temp,hum", "2016-05-16 08:00:00", "1",
           "0", "1.5", "x", "", "a b", "wall", "simulated", "fast", "fixtures:d",
           "-1", "-5", "-", "--5"]
_OTHERS = ["--st", "--att", "--a", "--store=s.db", "--days=2", "-h", "--help", "--",
           "--bogus", "-x"]
# Values that --days and --clock may or may not take.
_VALUES_OF = {"--days": ["1", "0", "x", "-1"], "--clock": ["wall", "simulated", "fast"]}


@st.composite
def _lines(draw, specs):
    """A command line of the specs, in any order, with up to three pieces
    inserted: a lone word of any command, or a flag of these specs next
    to a value. Optional flags come and go; values may be bad."""
    def pair(flag):
        return [flag, draw(st.sampled_from(_VALUES_OF.get(flag, _VALUES)))]

    flags = [flag for flag, _ in specs if flag.startswith("-")]
    pieces = []
    for flag, kwargs in specs:
        if flag not in flags:
            pieces.append([draw(st.sampled_from(_VALUES))])
        elif kwargs.get("required") or draw(st.booleans()):
            pieces.append(pair(flag))
    pieces = draw(st.permutations(pieces))
    for _ in range(draw(st.integers(0, 3))):
        extra = (pair(draw(st.sampled_from(flags))) if flags and draw(st.booleans())
                 else [draw(st.sampled_from(_FLAGS + _VALUES + _OTHERS))])
        pieces.insert(draw(st.integers(0, len(pieces))), extra)
    return [w for piece in pieces for w in piece]


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_direct_read_is_argparse(name):
    specs = cli._COMMANDS[name][2]
    paths = Counter()

    @settings(max_examples=400, deadline=None)
    @given(_lines(specs))
    def check(words):
        direct = cli._read_direct(specs, words)
        paths["argparse" if direct is None else "direct"] += 1
        if direct is not None:
            direct.command, direct.func = name, cli._COMMANDS[name][1]
            args, extras = cli.build_argparser().parse_known_args([name, *words])
            assert (args, extras) == (direct, [])

    check()
    assert paths["direct"] and paths["argparse"], paths


def test_query_mix_lines_build_no_parser(monkeypatch):
    argvs = [[*Q, "--store", "s.db", "--loc", "sima_centro,2", "--from",
              "2016-05-16 08:00:00", "--to", "2016-05-18 11:00:00"],
             ["report", "--store", "s.db"],
             ["export", "pollutions", "--store", "s.db", "--csv", "o.csv"]]
    want = [_old_build_argparser().parse_args(argv) for argv in argvs]

    def no_parser(*args, **kwargs):
        raise AssertionError("built an argparse parser")

    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    assert [cli.parse_args(argv) for argv in argvs] == want
