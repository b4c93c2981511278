"""End-to-end command-line behaviour: formats, descriptors, exit codes."""

import csv
import functools
import gc
import io
import json
import shlex
import tracemalloc
from pathlib import Path

import pytest

from symdyn import cantor, cli
from symdyn.analysis import empirical_measure, omega_profile
from symdyn.cantor import CantorScheme
from symdyn.cli import main, parse_descriptor
from symdyn.oracle import Entry, OracleTable, QueryKind, table_to_json
from symdyn.space import ALPHA_01, ALPHA_01S, Constant, Periodic, Sampler
from symdyn.systems import pi1_system
from symdyn.verify import (WORKED_INPUT, WORKED_OUTPUT, verify_suite,
                           worked_example_oracle)

from symdyn.cli import UsageError


@pytest.fixture
def oracle_file(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(table_to_json(worked_example_oracle()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# -- descriptors ------------------------------------------------------------

def test_descriptor_grammar():
    x = parse_descriptor("prefix:1001,tail:0", ALPHA_01)
    assert x.prefix == "1001" and x.tail == Constant("0")
    assert parse_descriptor("tail:period=01", ALPHA_01).tail == Periodic("01")
    b = parse_descriptor("tail:bernoulli=0.5:seed=7", ALPHA_01)
    assert isinstance(b.tail, Sampler) and b.tail.seed == 7
    r = parse_descriptor("prefix:0S,tail:rich=all01", ALPHA_01S)
    assert r.prefix == "0S"


@pytest.mark.parametrize("text", [
    "prefix:10",                       # no tail
    "tail:period=01,bogus:1",          # unknown field
    "tail:frob=3",                     # unknown tail kind
    "tail:bernoulli=0.5:7",            # malformed seed
    "prefix:0S,tail:0",                # S outside the binary alphabet
])
def test_descriptor_errors(text):
    with pytest.raises(UsageError):
        parse_descriptor(text, ALPHA_01)


# -- orbit ------------------------------------------------------------------

def test_orbit_worked_example_csv(capsys, oracle_file):
    code, out = run(capsys, "orbit", "--system", "pi1",
                    "--oracle", oracle_file,
                    "--init", f"prefix:{WORKED_INPUT},tail:0",
                    "--steps", "1", "--window", "16")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"0,{WORKED_INPUT}"
    assert lines[1] == f"1,{WORKED_OUTPUT}"


def test_orbit_json_and_out_file(capsys, oracle_file, tmp_path):
    dest = tmp_path / "orbit.jsonl"
    code, out = run(capsys, "orbit", "--system", "pi1",
                    "--oracle", oracle_file,
                    "--init", f"prefix:{WORKED_INPUT},tail:0",
                    "--steps", "1", "--window", "16",
                    "--format", "json", "--out", str(dest))
    assert code == 0 and out == ""
    rows = [json.loads(line) for line in dest.read_text().splitlines()]
    assert rows[1] == {"t": 1, "w": WORKED_OUTPUT}


def test_orbit_product_needs_init2(capsys, oracle_file):
    code, _ = run(capsys, "orbit", "--system", "wild_t_prime",
                  "--oracle", oracle_file, "--init", "tail:0",
                  "--steps", "2", "--window", "4")
    assert code == 2


def test_orbit_product_two_layers(capsys, oracle_file):
    code, out = run(capsys, "orbit", "--system", "wild_t_prime",
                    "--oracle", oracle_file,
                    "--init", "prefix:000S10,tail:0",
                    "--init2", "tail:period=ab",
                    "--steps", "1", "--window", "4", "--format", "json")
    assert code == 0
    assert json.loads(out.splitlines()[1])["w2"] == "baba"


# -- meets / omega / measure ------------------------------------------------

def test_meets_verdicts(capsys, oracle_file):
    # the table lists halting machines 1 and 3; machine 2 never halts
    code, out = run(capsys, "meets", "--system", "pi1",
                    "--oracle", oracle_file, "--cylinder", "010")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "no"
    assert doc["predicate"] == "pi1-attractor-meets[010]_0"
    code, out = run(capsys, "meets", "--system", "pi1",
                    "--oracle", oracle_file, "--cylinder", "01110")
    assert json.loads(out)["verdict"] == "no"
    code, out = run(capsys, "meets", "--system", "pi1",
                    "--oracle", oracle_file, "--cylinder", "0110")
    assert json.loads(out)["verdict"] == "yes"


def test_meets_outside_the_alphabet_is_no(capsys, oracle_file):
    code, out = run(capsys, "meets", "--system", "pi1",
                    "--oracle", oracle_file, "--cylinder", "0S0")
    assert code == 0 and json.loads(out) == {
        "predicate": "pi1-attractor-meets[0S0]_0", "verdict": "no",
        "witness": "pi1 has no symbol 'S'"}


def test_meets_budget_reaches_an_enumerated_oracle(capsys, tmp_path):
    path = tmp_path / "enumerated.json"
    path.write_text(table_to_json(OracleTable.enumerated()))
    args = ("meets", "--system", "pi1", "--oracle", str(path),
            "--cylinder", "0101110")
    code, out = run(capsys, *args, "--budget", "0")
    assert code == 0 and json.loads(out)["verdict"] == "unknown_within_budget"
    code, out = run(capsys, *args, "--budget", "100")
    assert code == 0 and json.loads(out)["verdict"] == "no"
    code, _ = run(capsys, *args)
    assert code == 2


def test_meets_budget_on_a_programmed_table_is_usage_error(capsys,
                                                           oracle_file):
    code, out = run(capsys, "meets", "--system", "pi1",
                    "--oracle", oracle_file, "--cylinder", "0101110",
                    "--budget", "100")
    assert code == 2 and out == ""


def test_meets_shift_is_usage_error(capsys, oracle_file):
    code, _ = run(capsys, "meets", "--system", "shift",
                  "--oracle", oracle_file, "--cylinder", "01")
    assert code == 2


def test_omega_shift(capsys, oracle_file):
    code, out = run(capsys, "omega", "--system", "shift",
                    "--init", "tail:period=01", "--burn-in", "2",
                    "--horizon", "20", "--depth", "2")
    assert code == 0
    assert json.loads(out)["words"] == ["01", "10"]


def test_measure_csv_and_reproducible(capsys, oracle_file):
    args = ("measure", "--system", "pi1", "--oracle", oracle_file,
            "--init", "tail:bernoulli=0.5:seed=9",
            "--steps", "500", "--depth", "2")
    code, out1 = run(capsys, *args)
    assert code == 0 and out1.splitlines()[0] == "word,count,frequency"
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_measure_csv_is_the_to_csv_table(capsys, oracle_file, tmp_path):
    init = "tail:bernoulli=0.5:seed=9"
    code, out = run(capsys, "measure", "--system", "pi1", "--oracle",
                    oracle_file, "--init", init, "--steps", "300",
                    "--depth", "3", "--start", "4")
    assert code == 0
    x = parse_descriptor(init, ALPHA_01)
    m = empirical_measure(pi1_system(worked_example_oracle()), x, 300, 3,
                          start=4)
    m.to_csv(tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes() == out.encode("ascii")


def test_omega_csv_lists_the_profile_words(capsys, oracle_file):
    init = "tail:bernoulli=0.5:seed=4"
    code, out = run(capsys, "omega", "--system", "pi1", "--oracle",
                    oracle_file, "--init", init, "--burn-in", "10",
                    "--horizon", "400", "--depth", "3", "--format", "csv")
    prof = omega_profile(pi1_system(worked_example_oracle()),
                         parse_descriptor(init, ALPHA_01), 10, 400, 3)
    assert code == 0 and len(prof.words) > 1
    assert out == "".join(w + "\n" for w in sorted(prof.words))


def test_measure_json_is_the_empirical_measure(capsys, oracle_file):
    init = "tail:bernoulli=0.5:seed=9"
    code, out = run(capsys, "measure", "--system", "pi1", "--oracle",
                    oracle_file, "--init", init, "--steps", "300",
                    "--depth", "3", "--start", "4", "--format", "json")
    m = empirical_measure(pi1_system(worked_example_oracle()),
                          parse_descriptor(init, ALPHA_01), 300, 3, start=4)
    assert code == 0
    assert out == json.dumps({"depth": 3, "total": 300,
                              "counts": dict(sorted(m.counts.items()))},
                             indent=2) + "\n"


# -- tilde-mu ---------------------------------------------------------------

def test_tilde_mu_csv(capsys, tmp_path):
    empty = tmp_path / "never.json"
    empty.write_text(table_to_json(worked_example_oracle().__class__.programmed_table([])))
    code, out = run(capsys, "tilde-mu", "--oracle", str(empty),
                    "--word", "01", "--truncation", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["word,lower,upper", "01,1/4,1/4"]


def test_tilde_mu_depth_table(capsys, oracle_file):
    code, out = run(capsys, "tilde-mu", "--oracle", oracle_file,
                    "--depth", "2", "--truncation", "8")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["entries"]) == {"00", "01", "10", "11"}


def test_tilde_mu_needs_word_or_depth(capsys, oracle_file):
    code, _ = run(capsys, "tilde-mu", "--oracle", oracle_file)
    assert code == 2


def test_tilde_mu_takes_word_or_depth_not_both(capsys, oracle_file):
    with pytest.raises(SystemExit) as exc:
        main(["tilde-mu", "--oracle", oracle_file, "--word", "01",
              "--depth", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "not allowed with argument --word" in captured.err


# the worked-example table at depth 3 and a SOME_IN table (M_2 halts on some
# input of size 1..3) under phi', pinned byte for byte
WORKED_DEPTH3 = {
    "000": "281/512",
    "001": "39/512",
    "010": "0/1",
    "011": "3/32",
    "100": "39/512",
    "101": "9/512",
    "110": "3/32",
    "111": "3/32",
}


def test_tilde_mu_depth3_golden(capsys, oracle_file):
    code, out = run(capsys, "tilde-mu", "--oracle", oracle_file,
                    "--depth", "3", "--truncation", "24")
    assert code == 0
    assert out == json.dumps(
        {"p": "1/2", "truncation": 24, "kind": "phi",
         "entries": {w: {"lower": v, "upper": v}
                     for w, v in WORKED_DEPTH3.items()}}, indent=2) + "\n"


def test_tilde_mu_phi_prime_word_golden(capsys, tmp_path):
    path = tmp_path / "some_in.json"
    path.write_text(table_to_json(OracleTable.programmed_table(
        [Entry(e=2, kind=QueryKind.SOME_IN, k=1, k_hi=3, time=2)])))
    code, out = run(capsys, "tilde-mu", "--oracle", str(path), "--word", "11",
                    "--kind", "phi-prime", "--format", "csv")
    assert code == 0
    assert out == 'word,lower,upper\n11,13/64,13/64\n'


# -- realm ------------------------------------------------------------------

def test_realm_found(capsys, oracle_file):
    code, out = run(capsys, "realm", "--system", "shift",
                    "--init", "tail:period=01", "--target", "01",
                    "--match-depth", "2", "--from", "0", "--to", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] and doc["t"] == 0 and doc["seed_index"] == 0


def test_realm_not_found(capsys, oracle_file):
    code, out = run(capsys, "realm", "--system", "shift",
                    "--init", "tail:0", "--target", "11",
                    "--match-depth", "2", "--from", "0", "--to", "50")
    assert code == 0 and json.loads(out) == {"found": False}


# -- interval ---------------------------------------------------------------

def test_interval_eval(capsys, oracle_file):
    code, out = run(capsys, "interval", "eval", "--system", "shift",
                    "--point", "5/8", "--precision", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == "0/1" and doc["width"] <= 2 ** -20


def test_interval_export(capsys):
    code, out = run(capsys, "interval", "export", "--depth", "1")
    assert code == 0
    assert out.splitlines() == ["word,lo_num,lo_den,hi_num,hi_den",
                                ",0,1,1,1", "0,0,1,3,8", "1,5,8,1,1"]


def test_interval_queries_share_one_scheme(capsys, monkeypatch):
    argv = ("interval", "eval", "--system", "shift", "--point", "3/7",
            "--precision", "20")
    cli._scheme.cache_clear()
    code, first = run(capsys, *argv)
    grid = cli._scheme()._grid
    assert code == 0 and grid[1]
    code, second = run(capsys, *argv)
    assert code == 0 and second == first
    assert cli._scheme()._grid is grid         # no level grown or rebuilt
    monkeypatch.setattr(cli, "_scheme", CantorScheme)
    assert run(capsys, *argv) == (0, second)


def test_interval_escape(capsys, oracle_file):
    code, out = run(capsys, "interval", "escape", "--system", "pi1",
                    "--oracle", oracle_file, "--iterations", "2",
                    "--samples", "200", "--depth", "10", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"n", "samples", "fraction", "bound", "sigma"}
    assert doc["bound"] == 0.5625


@pytest.mark.parametrize("iterations, cap_mib", [(0, 12), (1, 8)])
def test_interval_escape_keeps_only_live_samples(capsys, monkeypatch,
                                                 iterations, cap_mib):
    # what one 10^5-sample call leaves allocated, its fresh scheme
    # included: the frontier holds only the samples still in a gap (about
    # half of them at n = 0), not the absorbed ones or their descent
    monkeypatch.setattr(cli, "_scheme", functools.cache(cantor.CantorScheme))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main(["interval", "escape", "--system", "shift",
                     "--iterations", str(iterations), "--samples", "100000",
                     "--depth", "16"])
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["n"] == iterations
    assert held <= cap_mib * 2 ** 20, held / 2 ** 20


# -- verify and error paths -------------------------------------------------

def test_verify_worked_example_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "worked-example")
    assert code == 0
    doc = json.loads(out)
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_csv_is_the_report(capsys):
    code = main(["verify", "--suite", "worked-example", "--format", "csv"])
    captured = capsys.readouterr()
    report = verify_suite("worked-example")
    assert code == 0 and report.passed and captured.err == ""
    assert captured.out == "check,status,measured,expected\n" + "".join(
        f"{c.name},{c.status},{c.measured},{c.expected}\n"
        for c in report.checks)


def test_verify_csv_quotes_list_cells(capsys):
    # omega's cells are lists, whose commas the writer must quote
    code = main(["verify", "--suite", "omega", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert code == 0 and len(rows) > 1
    assert rows[0] == ["check", "status", "measured", "expected"]
    assert all(len(row) == 4 for row in rows)


# -- what a table cannot answer ---------------------------------------------

def test_meets_t_second_reads_no_table(capsys, tmp_path):
    path = tmp_path / "enumerated.json"
    path.write_text(table_to_json(OracleTable.enumerated()))
    code, out = run(capsys, "meets", "--system", "wild_t_second",
                    "--oracle", str(path), "--cylinder", "0110")
    assert code == 0 and json.loads(out)["verdict"] == "yes"


def test_sigma2_interval_map_runs_on_an_enumerated_table(capsys, tmp_path):
    # sigma2 itself is not refused: the interval map never asks this table
    # for more than its work cap
    path = tmp_path / "enumerated.json"
    path.write_text(table_to_json(OracleTable.enumerated()))
    lo, _ = CantorScheme().interval_of_word("010011010110")
    for point in ("0", "1/3", f"{lo.numerator}/{lo.denominator}"):
        code, out = run(capsys, "interval", "eval", "--system", "sigma2",
                        "--oracle", str(path), "--point", point)
        assert code == 0 and set(json.loads(out)) == {"lower", "upper",
                                                      "width"}


def test_missing_oracle_is_usage_error(capsys):
    code, _ = run(capsys, "orbit", "--system", "pi1", "--init", "tail:0",
                  "--steps", "1", "--window", "4")
    assert code == 2


def test_unreadable_oracle_is_usage_error(capsys, tmp_path):
    code, _ = run(capsys, "orbit", "--system", "pi1",
                  "--oracle", str(tmp_path / "missing.json"),
                  "--init", "tail:0", "--steps", "1", "--window", "4")
    assert code == 2


def test_malformed_oracle_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"entries\": 3}")
    code, _ = run(capsys, "orbit", "--system", "pi1",
                  "--oracle", str(bad),
                  "--init", "tail:0", "--steps", "1", "--window", "4")
    assert code == 2


def test_rewritten_oracle_file_is_read_afresh(capsys, tmp_path):
    # the parsed table is kept per file text, so a rewrite is seen at once
    path = tmp_path / "table.json"
    argv = ("orbit", "--system", "pi1", "--oracle", str(path),
            "--init", "prefix:00010,tail:0", "--steps", "1", "--window", "4")
    path.write_text(table_to_json(OracleTable.programmed_table([])))
    assert run(capsys, *argv) == (0, "0,0001\n1,0010\n")
    path.write_text(table_to_json(OracleTable.programmed_table(
        [Entry(1, QueryKind.EMPTY, time=1)])))
    assert run(capsys, *argv) == (0, "0,0001\n1,0000\n")


def test_malformed_oracle_exits_2_on_every_call(capsys, tmp_path):
    # a text that fails to parse is not cached: each call fails again
    bad = tmp_path / "bad.json"
    bad.write_text("{\"entries\": [{\"e\": 1}]}")
    argv = ("orbit", "--system", "pi1", "--oracle", str(bad),
            "--init", "tail:0", "--steps", "1", "--window", "4")
    for _ in range(2):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "malformed oracle file" in captured.err


@pytest.mark.parametrize("text", [
    "[]", '"x"', '{"entries": [{"e": 1.9, "kind": "empty", "time": 3}]}',
    '{"default": "Halt1"}'])
def test_oracle_file_of_the_wrong_shape_is_usage_error(capsys, tmp_path, text):
    # each once ended in a traceback or was read as another table
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out = run(capsys, "meets", "--system", "pi1", "--oracle", str(bad),
                    "--cylinder", "0110")
    assert code == 2 and out == ""


def test_unknown_query_kind_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"entries": [
        {"e": 1, "kind": "empty", "time": 3},
        {"e": 2, "kind": "some_out", "k": 1, "time": 4}]}))
    code = main(["orbit", "--system", "pi1", "--oracle", str(bad),
                 "--init", "tail:0", "--steps", "1", "--window", "4"])
    assert code == 2
    assert "unknown query kind 'some_out'" in capsys.readouterr().err


def test_bad_descriptor_is_usage_error(capsys, oracle_file):
    code, _ = run(capsys, "orbit", "--system", "pi1",
                  "--oracle", oracle_file, "--init", "tail:frob",
                  "--steps", "1", "--window", "4")
    assert code == 2


# -- argument errors exit 2, faults in the program do not -------------------

_BAD_ARGUMENTS = [
    ("orbit", "--system", "pi1", "--oracle", "{prog}", "--init", "tail:0",
     "--steps", "2", "--window", "0"),
    ("orbit", "--system", "pi2", "--oracle", "{enum}",
     "--init", "prefix:0S,tail:0", "--steps", "2", "--window", "4"),
    ("orbit", "--system", "shift", "--init", "tail:bernoulli=abc",
     "--steps", "2", "--window", "4"),
    ("orbit", "--system", "shift", "--init", "tail:bernoulli=1/2:seed=x",
     "--steps", "2", "--window", "4"),
    ("orbit", "--system", "shift", "--init", "tail:bernoulli=2",
     "--steps", "2", "--window", "4"),
    ("orbit", "--system", "shift", "--init", "tail:bernoulli=1/0",
     "--steps", "2", "--window", "4"),
    ("orbit", "--system", "shift", "--init", "tail:rich=nosuch",
     "--steps", "2", "--window", "4"),
    ("orbit", "--system", "shift", "--init", "tail:period=",
     "--steps", "2", "--window", "4"),
    ("orbit", "--system", "shift", "--init", "tail:period=0S",
     "--steps", "2", "--window", "4"),
    ("omega", "--system", "shift", "--init", "tail:0", "--burn-in", "5",
     "--horizon", "5", "--depth", "2"),
    ("measure", "--system", "shift", "--init", "tail:0", "--steps", "0",
     "--depth", "2"),
    ("meets", "--system", "pi1", "--oracle", "{prog}", "--cylinder", "01",
     "--position", "1"),
    ("meets", "--system", "sigma2", "--oracle", "{enum}", "--cylinder", "01",
     "--budget", "5"),
    ("meets", "--system", "pi2", "--oracle", "{enum}", "--cylinder", "01",
     "--budget", "5"),
    ("meets", "--system", "pi1", "--oracle", "{enum}", "--cylinder", "01",
     "--budget", "-1"),
    ("tilde-mu", "--oracle", "{prog}", "--word", "01", "--p", "0"),
    ("tilde-mu", "--oracle", "{enum}", "--word", "01"),
    ("tilde-mu", "--oracle", "{prog}", "--depth", "-1"),
    ("realm", "--system", "shift", "--init", "tail:0", "--target", "0",
     "--match-depth", "1", "--from", "5", "--to", "2"),
    ("interval", "eval", "--system", "shift", "--point", "2"),
    ("interval", "eval", "--system", "pi2", "--oracle", "{prog}",
     "--point", "1/2"),
    ("interval", "escape", "--system", "shift", "--iterations", "1",
     "--samples", "0"),
    ("interval", "escape", "--system", "pi2", "--oracle", "{prog}",
     "--iterations", "1", "--samples", "3"),
    # all01 writes binary words, not second-layer symbols
    ("orbit", "--system", "wild_t_prime", "--oracle", "{prog}",
     "--init", "prefix:01S,tail:0", "--init2", "tail:rich=all01",
     "--steps", "2", "--window", "6"),
    ("orbit", "--system", "shift", "--init", "tail:0", "--steps", "2",
     "--window", "4", "--start", "-2"),
    ("orbit", "--system", "shift", "--init", "tail:0", "--steps", "-1",
     "--window", "4"),
    ("omega", "--system", "shift", "--init", "tail:0", "--burn-in", "-4",
     "--horizon", "2", "--depth", "2"),
    ("omega", "--system", "shift", "--init", "tail:0", "--burn-in", "0",
     "--horizon", "2", "--depth", "-1"),
    ("measure", "--system", "shift", "--init", "tail:0", "--steps", "2",
     "--depth", "2", "--start", "-1"),
    ("measure", "--system", "shift", "--init", "tail:0", "--steps", "2",
     "--depth", "-1"),
    ("interval", "export", "--depth", "-1"),
    ("interval", "escape", "--system", "shift", "--iterations", "1",
     "--samples", "3", "--depth", "-2"),
    ("interval", "escape", "--system", "shift", "--iterations", "-1",
     "--samples", "3"),
    ("interval", "eval", "--system", "shift", "--point", "1/2",
     "--precision", "-1"),
    ("realm", "--system", "shift", "--init", "tail:0", "--target", "0",
     "--match-depth", "-1", "--from", "0", "--to", "2"),
    ("realm", "--system", "shift", "--init", "tail:0", "--target", "0",
     "--match-depth", "1", "--from", "-3", "--to", "2"),
    ("realm", "--system", "shift", "--init", "tail:0", "--target", "0",
     "--position", "-1", "--match-depth", "1", "--from", "0", "--to", "2"),
    # the shift reads no table, but a given one must load
    ("orbit", "--system", "shift", "--oracle", "{missing}", "--init", "tail:0",
     "--steps", "1", "--window", "4"),
    ("interval", "eval", "--system", "shift", "--oracle", "{malformed}",
     "--point", "1/2"),
    # a size given as a string is malformed, not a fault on first read
    ("orbit", "--system", "sigma2", "--oracle", "{string_k}",
     "--init", "prefix:10001000,tail:0", "--steps", "2", "--window", "6"),
    # an enumerated table would simulate past its work cap
    ("orbit", "--system", "sigma2", "--oracle", "{enum}",
     "--init", "tail:bernoulli=0.5:seed=1", "--steps", "30", "--window", "8"),
    ("measure", "--system", "sigma2", "--oracle", "{enum}",
     "--init", "tail:bernoulli=0.5:seed=1", "--steps", "100", "--depth", "3"),
    ("omega", "--system", "sigma2", "--oracle", "{enum}",
     "--init", "tail:bernoulli=0.5:seed=1", "--burn-in", "0",
     "--horizon", "100", "--depth", "3"),
    ("realm", "--system", "sigma2", "--oracle", "{enum}",
     "--init", "tail:bernoulli=0.5:seed=1", "--target", "0110",
     "--match-depth", "4", "--from", "0", "--to", "50"),
    ("meets", "--system", "pi1", "--oracle", "{enum}",
     "--budget", "100000000", "--cylinder", "0110"),
    # a sampler's seed, given or defaulted from --seed, must be >= 0
    ("orbit", "--system", "shift", "--init", "tail:bernoulli=1/2:seed=-3",
     "--steps", "2", "--window", "4"),
    ("orbit", "--system", "shift", "--init", "tail:bernoulli=1/2",
     "--seed", "-1", "--steps", "2", "--window", "4"),
    ("interval", "escape", "--system", "shift", "--iterations", "1",
     "--samples", "3", "--seed", "-1"),
]


# each command declares only the options it reads: these exit 2 in argparse
_REMOVED_OPTIONS = [
    ("meets", "--system", "pi1", "--oracle", "{prog}", "--cylinder", "01",
     "--seed", "3"),
    ("meets", "--system", "pi1", "--oracle", "{prog}", "--cylinder", "01",
     "--format", "csv"),
    ("tilde-mu", "--oracle", "{prog}", "--word", "01", "--seed", "3"),
    ("realm", "--system", "shift", "--init", "tail:0", "--target", "0",
     "--match-depth", "1", "--from", "0", "--to", "2", "--format", "csv"),
    ("interval", "eval", "--system", "shift", "--point", "1/2",
     "--seed", "3"),
    ("interval", "eval", "--system", "shift", "--point", "1/2",
     "--format", "csv"),
    ("interval", "export", "--depth", "1", "--seed", "3"),
    ("interval", "export", "--depth", "1", "--format", "json"),
    ("interval", "escape", "--system", "shift", "--iterations", "1",
     "--samples", "3", "--format", "csv"),
    ("verify", "--suite", "worked-example", "--seed", "3"),
]


@pytest.mark.parametrize("argv", _REMOVED_OPTIONS)
def test_removed_options_exit_2(capsys, oracle_file, argv):
    argv = [a.format(prog=oracle_file) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {argv[-2]}" in captured.err


def _quick_start_commands():
    """The ``symdyn`` command lines of the README's CLI quick start."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Quick start (CLI)", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("symdyn ")]


def test_readme_quick_start_runs(capsys, tmp_path, monkeypatch):
    (tmp_path / "table.json").write_text(
        table_to_json(worked_example_oracle()))
    monkeypatch.chdir(tmp_path)
    commands = _quick_start_commands()
    assert len(commands) >= 9
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


# the library refuses these only once the output file is open, so the CLI
# checks them first
@pytest.mark.parametrize("argv", [
    ("orbit", "--system", "shift", "--init", "tail:0", "--steps", "2",
     "--window", "4", "--start", "-1"),
    ("interval", "export", "--depth", "-1"),
])
def test_refused_before_the_output_file_opens(capsys, tmp_path, argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    assert code == 2 and capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", _BAD_ARGUMENTS)
def test_argument_errors_are_usage_errors(capsys, tmp_path, oracle_file,
                                          argv):
    enum = tmp_path / "enumerated.json"
    enum.write_text(table_to_json(OracleTable.enumerated()))
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"entries": [')
    string_k = tmp_path / "string_k.json"
    string_k.write_text(json.dumps({"entries": [
        {"e": 1, "kind": "some_in", "k": "0", "k_hi": 5, "time": 1}]}))
    argv = [a.format(prog=oracle_file, enum=str(enum),
                     missing=str(tmp_path / "missing.json"),
                     malformed=str(malformed), string_k=str(string_k))
            for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, text", [
    (("tilde-mu", "--oracle", "{prog}", "--word", "01", "--p", "abc"), "abc"),
    (("interval", "eval", "--system", "shift", "--point", "1/0"), "1/0"),
])
def test_malformed_rationals_exit_2(capsys, oracle_file, argv, text):
    code = main([a.format(prog=oracle_file) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"not a rational number: {text!r}" in captured.err


def test_internal_value_error_exits_with_a_traceback(oracle_file):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import symdyn
    script = (
        "import sys, symdyn.systems as s\n"
        "def broken(*a, **k):\n"
        "    raise ValueError('a fault inside the library')\n"
        "s.orbit_windows = broken\n"
        "from symdyn.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(symdyn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, "orbit", "--system", "pi1",
         "--oracle", oracle_file, "--init", "tail:0", "--steps", "1",
         "--window", "4"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60)
    assert proc.returncode not in (0, 2)
    assert "Traceback" in proc.stderr
    assert "ValueError: a fault inside the library" in proc.stderr
