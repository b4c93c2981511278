"""The command line's plain-argv reader against argparse.

``cli._fast_args`` reads an argv made of a command path and exact
``--option value`` pairs from a table of the parser, and returns None for
anything else, which ``main`` hands to argparse.  Whatever it returns must
be what argparse's ``parse_args`` gives: the differential tests draw argv
from the grammar and compare the two; the other tests pin that the reader
still serves the commands, including every argv shape of the benchmark's
query streams, and that it declines what only argparse reads.
"""

import argparse
import collections
import contextlib
import io

import pytest
from hypothesis import event, given, settings, strategies as st

from symdyn import cli

REFERENCE = cli.build_parser()
TABLE = cli._reader()

PATHS = [("orbit",), ("omega",), ("measure",), ("meets",), ("tilde-mu",),
         ("realm",), ("interval", "eval"), ("interval", "export"),
         ("interval", "escape"), ("verify",)]


def parse(parser, argv):
    """``vars(parser.parse_args(argv))``, or None where argparse exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit:
        return None


def check(argv, table=TABLE, parser=REFERENCE):
    """Assert the reader gives None or argparse's namespace; return it."""
    fast = cli._fast_args(argv, table)
    if fast is not None:
        assert vars(fast) == parse(parser, argv), argv
    return fast


def route(path):
    node = TABLE
    for word in path:
        node = node[word]
    return node


def leaf_paths(node, path=()):
    if isinstance(node, dict):
        for word, child in node.items():
            yield from leaf_paths(child, path + (word,))
    else:
        yield path


def test_every_command_has_a_route():
    assert sorted(leaf_paths(TABLE)) == sorted(PATHS)


# -- the reader serves plain argv -------------------------------------------

# each command with only its required options, then with every option
REQUIRED_ONLY = [
    ["orbit", "--system", "pi1", "--init", "tail:0", "--steps", "1",
     "--window", "16"],
    ["omega", "--system", "pi1", "--init", "tail:rich=all01",
     "--burn-in", "5", "--horizon", "50", "--depth", "4"],
    ["measure", "--system", "shift", "--init", "tail:0", "--steps", "9",
     "--depth", "2"],
    ["meets", "--system", "pi1", "--cylinder", "0110"],
    ["tilde-mu"],
    ["realm", "--system", "shift", "--init", "tail:0", "--target", "0",
     "--match-depth", "1", "--from", "0", "--to", "2"],
    ["interval", "eval", "--system", "shift", "--point", "5/8"],
    ["interval", "export", "--depth", "4"],
    ["interval", "escape", "--system", "pi1", "--iterations", "4"],
    ["verify"],
]
EVERY_OPTION = [
    ["orbit", "--system", "wild_t_prime", "--oracle", "t.json",
     "--init", "prefix:01S,tail:0", "--init2", "tail:a", "--steps", "3",
     "--window", "5", "--start", "2", "--seed", "7", "--out", "o.csv",
     "--format", "json"],
    ["omega", "--system", "pi2", "--oracle", "t.json", "--init", "tail:0",
     "--init2", "tail:b", "--burn-in", "5", "--horizon", "50",
     "--depth", "4", "--seed", "1", "--out", "o.json", "--format", "csv"],
    ["measure", "--system", "sigma2", "--oracle", "t.json",
     "--init", "tail:bernoulli=1/2", "--init2", "tail:a", "--steps", "9",
     "--depth", "2", "--start", "3", "--seed", "4", "--out", "m.csv",
     "--format", "json"],
    ["meets", "--system", "wild_t_second", "--oracle", "t.json",
     "--cylinder", "01", "--position", "0", "--budget", "100",
     "--out", "v.json"],
    ["tilde-mu", "--oracle", "t.json", "--p", "1/3", "--word", "0110",
     "--truncation", "12", "--kind", "phi-prime", "--out", "t.csv",
     "--format", "csv"],
    ["tilde-mu", "--oracle", "t.json", "--p", "1/3", "--depth", "3",
     "--truncation", "12", "--kind", "phi", "--out", "t.json",
     "--format", "json"],
    ["realm", "--system", "pi1", "--oracle", "t.json", "--init", "tail:0",
     "--init", "tail:1", "--init2", "tail:a", "--target", "01",
     "--position", "1", "--match-depth", "2", "--from", "0", "--to", "9",
     "--seed", "3", "--out", "r.json"],
    ["interval", "eval", "--system", "pi1", "--oracle", "t.json",
     "--point", "1/3", "--precision", "12", "--out", "e.json"],
    ["interval", "export", "--depth", "4", "--out", "x.csv"],
    ["interval", "escape", "--system", "pi1", "--oracle", "t.json",
     "--iterations", "4", "--samples", "40", "--depth", "12", "--seed", "2",
     "--out", "s.json"],
    ["verify", "--suite", "worked-example", "--out", "v.csv",
     "--format", "csv"],
]
# every argv shape of the benchmark's query streams (perfbench/workloads.py)
BENCHMARK_SHAPES = [
    ["orbit", "--system", "pi1", "--oracle", "w.json",
     "--init", "prefix:1001011100101100,tail:0", "--steps", "1",
     "--window", "16"],
    ["orbit", "--system", "pi2", "--oracle", "t.json",
     "--init", "prefix:01S0S1101S01,tail:0", "--steps", "1",
     "--window", "16"],
    ["orbit", "--system", "wild_t_second", "--oracle", "t.json",
     "--init", "prefix:01S0S1101S01,tail:0",
     "--init2", "prefix:abbabaabbbaabababbabaaba,tail:a",
     "--steps", "1", "--window", "16"],
    ["orbit", "--system", "pi2", "--oracle", "t.json",
     "--init", "prefix:0110S01110S,tail:period=01100", "--start", "7",
     "--steps", "3000", "--window", "5"],
    ["omega", "--system", "pi1", "--oracle", "p.json",
     "--init", "tail:rich=all01", "--burn-in", "700", "--horizon", "5000",
     "--depth", "4"],
    ["meets", "--system", "pi1", "--oracle", "w.json",
     "--cylinder", "011010"],
    ["interval", "eval", "--system", "pi1", "--oracle", "w.json",
     "--point", "13/32"],
    ["interval", "eval", "--system", "sigma2", "--oracle", "w.json",
     "--point", "13/32", "--precision", "20"],
    ["interval", "escape", "--system", "pi1", "--oracle", "w.json",
     "--iterations", "4", "--samples", "40", "--depth", "16",
     "--seed", "3"],
    ["tilde-mu", "--oracle", "w.json", "--word", "0110"],
]


@pytest.mark.parametrize("argv",
                         REQUIRED_ONLY + EVERY_OPTION + BENCHMARK_SHAPES)
def test_the_reader_serves_plain_argv(argv):
    assert check(argv) is not None


def test_every_option_is_served():
    served = collections.defaultdict(set)
    for argv in EVERY_OPTION:
        path = tuple(argv[:2] if argv[0] == "interval" else argv[:1])
        served[path] |= {w for w in argv if w.startswith("--")}
    for path in PATHS:
        assert served[path] == set(route(path)[0]), path


# -- it declines what only argparse reads -----------------------------------

ORBIT = ["orbit", "--system", "pi1", "--init", "tail:0", "--window", "4"]


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["interval"],
    ["interval", "-h", "eval"],
    ["nosuch"],
    [*ORBIT, "--steps"],                        # a missing value
    [*ORBIT, "--steps", "x"],                   # an invalid int
    [*ORBIT, "--steps", "2", "-h"],
    [*ORBIT, "--ste", "2"],                     # an abbreviation
    [*ORBIT, "--steps=2"],
    [*ORBIT, "--steps", "-1"],                  # argparse reads it
    [*ORBIT, "--steps", "2", "--format", "xml"],
    [*ORBIT, "--steps", "2", "--", "x"],
    [*ORBIT, "--steps", "2", "stray"],
    [*ORBIT, "--steps", "2", "--cylinder", "01"],
    ORBIT,                                      # --steps is required
    ["orbit", "--system", "pi1", "--init", "--steps", "--window", "4"],
    ["tilde-mu", "--word", "01", "--depth", "2"],
    ["tilde-mu", "--depth", "2", "--word", "01"],
])
def test_the_reader_declines(argv):
    assert check(argv) is None


# -- differential: drawn argv -----------------------------------------------

ALL_OPTIONS = sorted({s for path in PATHS for s in route(path)[0]})
TEXTS = ["tail:0", "prefix:0110,tail:0", "pi1", "01", "1/2", "x y", "٣",
         "json", "0", "7"]
BAD = ["-1", "-3", "--steps", "-", "x", "xml", "", "1.5", "--", "-h",
       "-x", "+4", " 5"]


def _good(action):
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return st.integers(0, 99).map(str)
    return st.sampled_from(TEXTS)


@st.composite
def argvs(draw):
    """A command path (or a word that is none), its required options with
    good values 3 times in 4, then up to six items: mostly good pairs,
    else a bad value, another command's option, an abbreviation,
    ``--opt=value`` or a lone token; the items sometimes shuffled, and
    now and then every token."""
    path = draw(st.one_of(
        st.sampled_from(PATHS), st.sampled_from(PATHS),
        st.sampled_from([(), ("interval",), ("nosuch",), ("-h",), ("--help",),
                         ("interval", "nosuch"), ("orbit", "eval"), ("",),
                         ("--",)])))
    options = route(path)[0] if path in PATHS else {}
    items = []
    if options and draw(st.integers(0, 3)):
        items += [[opt, draw(_good(action))]
                  for opt, action in options.items() if action.required]
    for _ in range(draw(st.integers(0, 6))):
        opt = draw(st.sampled_from(sorted(options) or ALL_OPTIONS))
        good = draw(_good(options[opt]) if opt in options
                    else st.sampled_from(TEXTS))
        items.append(draw(st.sampled_from([
            *[[opt, good]] * 10,
            [opt, draw(st.sampled_from(BAD))],
            [draw(st.sampled_from(ALL_OPTIONS)), good],
            [opt[:draw(st.integers(3, len(opt)))], good],
            [f"{opt}={good}"],
            [draw(st.sampled_from(["-h", "--help", "--", "", "stray",
                                   "orbit", "--nosuch", opt]))]])))
    if draw(st.booleans()):
        items = draw(st.permutations(items))
    argv = [*path, *(token for item in items for token in item)]
    if draw(st.integers(0, 9)) == 0:
        argv = draw(st.permutations(argv))
    return argv


@settings(max_examples=600, deadline=None)
@given(argvs())
def test_the_reader_agrees_with_argparse(argv):
    event("served" if check(argv) is not None else "declined")


# -- argparse features the command grammar does not use yet -----------------

def _toy_parser():
    ap = argparse.ArgumentParser(prog="toy")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--n", type=int, default="7")
    p.add_argument("--tag", action="append", default=["base"])
    p.add_argument("--mode", choices=["a", "b"], default="a")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--x")
    one.add_argument("--y", type=int)
    p.set_defaults(fn="run", mode="b")
    q = sub.add_parser("flag")
    q.add_argument("--on", action="store_true")
    return ap


TOY = _toy_parser()
TOY_TABLE = cli._routes(TOY)


def test_the_toy_table_serves_only_plain_actions():
    assert set(TOY_TABLE) == {"run", "flag"}
    assert TOY_TABLE["flag"] == {}


@pytest.mark.parametrize("argv, served", [
    (["run", "--x", "1"], True),                # --n converts its default
    (["run", "--y", "2", "--n", "3"], True),
    (["run", "--x", "1", "--tag", "t", "--tag", "u"], True),
    (["run", "--x", "1", "--mode", "a", "--x", "2"], True),
    (["run", "--n", "3"], False),               # the group is required
    (["run", "--x", "1", "--y", "2"], False),
    (["run", "--x", "--n"], False),
    (["run", "--x", "1", "--mode", "c"], False),
    (["flag", "--on"], False),
    (["flag"], False),
])
def test_the_toy_parser(argv, served):
    assert (check(argv, TOY_TABLE, TOY) is not None) == served


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["run", "flag", "--n", "--tag", "--mode",
                                 "--x", "--y", "--on", "7", "a", "c", "-2",
                                 "", "--n=3"]), max_size=8))
def test_the_toy_reader_agrees_with_argparse(argv):
    check(argv, TOY_TABLE, TOY)
