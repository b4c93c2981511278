"""Zone automaton: three-symbol map, product variants, long-orbit engine."""

import itertools
import random

import pytest

from symdyn import pi2, systems
from symdyn.cli import main
from symdyn.analysis import attractor_meets
from symdyn.oracle import (INF, Entry, OracleTable, QueryKind, TableRefused,
                           table_to_json)
from symdyn.pi2 import (ProductConfiguration, ZoneEngine, ZoneRule,
                        _past_glued_run, gate_allows)
from symdyn.space import (ALPHA_01S, ALPHA_AB, Configuration, Constant,
                          Cylinder, Periodic)
from symdyn.systems import (FrontierUnresolved, SystemId, orbit, pi2_system,
                            step_prefix, wild_t_prime_system,
                            wild_t_second_system)

from test_systems import reference_orbit

NEVER = OracleTable.programmed_table([])

MIXED = OracleTable.programmed_table([
    Entry(e=1, kind=QueryKind.ALL_BELOW, k=INF, time=2),
    Entry(e=2, kind=QueryKind.ALL_BELOW, k=2, time=4),
    Entry(e=1, kind=QueryKind.EMPTY, time=3),
    Entry(e=2, kind=QueryKind.EMPTY, time=6),
    Entry(e=3, kind=QueryKind.SOME_IN, k=1, k_hi=3, time=2),
    Entry(e=2, kind=QueryKind.SOME_IN, k=1, k_hi=INF, time=5),
])


def cfg(prefix, period="0"):
    return Configuration(ALPHA_01S, prefix, Periodic(period))


def test_spec_example_s_advances():
    sys = pi2_system(NEVER)
    out = step_prefix(sys, "00000S" + "0" * 20, 7)
    assert out == "000000S"


def test_s_free_word_is_shifted():
    sys = pi2_system(NEVER)
    assert step_prefix(sys, "0100100000", 6) == "100100"


def test_open_run_near_window_is_unresolved():
    sys = pi2_system(NEVER)
    with pytest.raises(FrontierUnresolved):
        step_prefix(sys, "0111111111", 6)


def test_crossing_keeps_run_start_fixed():
    # u0 = 0^2 1^2 glued to S: the run grows by one per step while S eats
    # through it; the block never moves left during the crossing
    sys = pi2_system(NEVER)
    x = cfg("001100110011001100", "0")  # no S: plain shift baseline
    assert orbit(sys, x, 2, 6) == reference_orbit(sys, x, 2, 6)
    y = cfg("0011S111000", "0")
    rows = reference_orbit(sys, y, 4, 8)
    assert rows == orbit(sys, y, 4, 8)
    assert rows[0] == "0011 1S11".replace(" ", "")


def ref_gate_allows(w2: str, i: int) -> bool:
    """``gate_allows`` as it was before it counted with ``str.count``."""
    if i == 0:
        return True
    c1_hi, c2_hi = 3 * i, 3 * i + 2
    if len(w2) >= c1_hi and all(c == "a" for c in w2[i:c1_hi]):
        return True
    if len(w2) >= c2_hi and all(c == "a" for c in w2[i + 1:c2_hi]):
        return True
    for hi, lo in ((c1_hi, i), (c2_hi, i + 1)):
        if len(w2) < hi and all(c == "a" for c in w2[lo:]):
            raise FrontierUnresolved("second layer too short for the gate")
    return False


def _gate_outcome(gate, w2, *args):
    try:
        return gate(w2, *args)
    except FrontierUnresolved as exc:
        return ("unresolved", str(exc))


def test_gate_allows_matches_reference():
    # every {a, b} word up to length 12, every i <= 4; at time t the gate
    # reads the layer shifted t times
    for size in range(13):
        for w2 in map("".join, itertools.product("ab", repeat=size)):
            for i, t in itertools.product(range(5), range(4)):
                assert _gate_outcome(gate_allows, w2, i, t) == \
                    _gate_outcome(ref_gate_allows, w2[t:], i), (w2, i, t)


def test_gate_allows_examples():
    assert gate_allows("bbbbbb", 0)          # i = 0 always crosses
    assert gate_allows("baaab", 1)           # a^2 at position 1
    assert gate_allows("abaaab", 1)          # a^3 at position 2
    assert not gate_allows("bbaabb", 1)
    assert gate_allows("bbaaaabb", 2)        # a^4 at position 2
    assert not gate_allows("bababab", 2)


def test_product_layers_shift_together():
    sys = wild_t_prime_system(NEVER)
    x = ProductConfiguration(cfg("000S10"), Configuration(ALPHA_AB, "", Periodic("ab")))
    w1, w2 = orbit(sys, x, 1, 4)[0]
    assert w2 == "baba"  # second layer is the plain shift


def test_engine_matches_reference_fuzz():
    rng = random.Random(101)
    fails = unresolved = 0
    for _ in range(150):
        sysid = rng.choice(["pi2", "tp", "ts"])
        n = rng.randint(10, 24)
        pre = "".join(rng.choice("0011S") for _ in range(n))
        l1 = Configuration(ALPHA_01S, pre, Periodic(rng.choice(["0", "010", "0S011"])))
        if sysid == "pi2":
            x, sys = l1, pi2_system(MIXED)
        else:
            l2 = Configuration(ALPHA_AB, "",
                               Periodic(rng.choice(["a", "ab", "aab", "b"])))
            x = ProductConfiguration(l1, l2)
            sys = (wild_t_prime_system(MIXED) if sysid == "tp"
                   else wild_t_second_system(MIXED))
        steps, window = rng.randint(3, 8), rng.randint(4, 10)
        try:
            ref = reference_orbit(sys, x, steps, window)
        except FrontierUnresolved:
            unresolved += 1
            continue
        assert orbit(sys, x, steps, window) == ref, (sysid, pre, steps, window)
    assert unresolved < 30  # ambiguous boundary cases stay rare


def test_excision_recycles_block_to_the_left():
    # zone 2 holds a 1-run whose machine index is uniformly total: the run
    # is zeroed in place and re-deposited (0-prefixed) left of the second S
    orc = OracleTable.programmed_table(
        [Entry(e=2, kind=QueryKind.ALL_BELOW, k=INF, time=1)])
    sys = pi2_system(orc)
    x = cfg("0S00S0110000", "0")
    rows = orbit(sys, x, 6, 12)
    assert rows == reference_orbit(sys, x, 6, 12)
    flat = "".join(rows)
    assert "011" in flat  # the excised block reappears left of its S


def test_s_positions_monotone():
    """First-S position strictly increases; later S's never move left."""
    orc = MIXED
    for prefix in ("01S0110S0110", "0011S01S", "S0101S011010"):
        eng = ZoneEngine(SystemId.PI2, orc,
                         Configuration(ALPHA_01S, prefix, Periodic("0")),
                         None, horizon=300, window=6)
        prev_first = -1
        prev_pos = None
        for _ in range(200):
            first = len(eng.u0)
            pos = eng.s_positions()
            assert first > prev_first
            if prev_pos is not None:
                assert all(p >= q for p, q in zip(pos, prev_pos))
            prev_first, prev_pos = first, pos
            eng.step()


def test_engine_crossing_counter():
    from symdyn.verify import crossing_member
    m = crossing_member()
    eng = ZoneEngine(SystemId.WILD_T_PRIME, NEVER, m.layer1, m.layer2,
                     horizon=2000, window=4)
    for _ in range(500):
        eng.step()
    assert eng.completed_crossings >= 3


def test_blocked_gate_never_crosses():
    # all-b second layer: the gate denies every crossing at i >= 1
    l2 = Configuration(ALPHA_AB, "", Constant("b"))
    m1 = Configuration(ALPHA_01S, "01S", Periodic("0110"))
    eng = ZoneEngine(SystemId.WILD_T_PRIME, NEVER, m1, l2,
                     horizon=2000, window=4)
    for _ in range(500):
        eng.step()
    assert eng.completed_crossings == 0


def test_t_second_inserts_block_catalogue():
    # the second map inserts (01)(011)...(01^i)0 at the second S when the
    # first S (at position i) is allowed to cross
    sys = wild_t_second_system(NEVER)
    l2 = Configuration(ALPHA_AB, "", Constant("a"))
    x = ProductConfiguration(cfg("011S0S000000000", "0"), l2)
    rows = orbit(sys, x, 1, 14)
    ref = reference_orbit(sys, x, 1, 14)
    assert rows == ref
    w1 = rows[0][0]
    assert "010110111" in w1  # catalogue (01)(011)(0111)0 for i = 3


def test_long_orbit_smoke():
    # the word-based reference squares its lookahead each step, so it only
    # reaches a handful of iterations; the engine must agree there and
    # keep running far beyond
    sys = pi2_system(MIXED)
    x = cfg("0S0110S0110110", "01100")
    assert orbit(sys, x, 8, 8) == reference_orbit(sys, x, 8, 8)
    rows = orbit(sys, x, 500, 8)
    assert len(rows) == 500 and all(len(w) == 8 for w in rows)


# ---------------------------------------------------------------------------
# An S-free horizon ending in an open 1-run
# ---------------------------------------------------------------------------

def word_reference(sys, w, steps, window):
    """Windows of T^0 .. T^steps from iterating ``step_prefix`` on the
    finite word ``w``, each step exact on all but its last cell."""
    rows = []
    for _ in range(steps + 1):
        rows.append(w[:window])
        w = step_prefix(sys, w, len(w) - 1)
    return rows


@pytest.mark.parametrize("prefix, period", [
    ("00000" + "1" * 200 + "S", "1"),     # glued to an S past the horizon
    ("00000" + "1" * 200 + "0", "0"),     # the run closes past the horizon
    ("00000" + "1" * 200 + "011S", "1"),  # closes, then a glued run
    ("0" * 40 + "1" * 200 + "S", "1"),    # too far right to reach a window
], ids=["glued", "closed", "closed_then_glued", "far"])
def test_s_free_horizon_matches_word_reference(prefix, period):
    sys = pi2_system(MIXED)
    x = cfg(prefix, period)
    want = word_reference(sys, x.materialize(600), 3, 8)
    assert list(systems.orbit_windows(sys, x, 0, 4, 8)) == want


def test_s_free_engine_stepped_past_its_horizon():
    # built for 10 steps and stepped 300: its windows read past the cells
    # first materialized, which it extends from the input
    sys = pi2_system(MIXED)
    x = cfg("0110", "0111010")
    eng = ZoneEngine(sys.id, sys.oracle, x, None, 10, 8)
    assert eng.u0 is None and len(eng._shift_word) < 300
    got = []
    for _ in range(301):
        got.append(eng.window_word())
        eng.step()
    assert got == word_reference(sys, x.materialize(400), 300, 8)


def _cells(eng):
    return len(eng.u0) + sum(1 + len(z) for z in eng.zones[1:])


@pytest.mark.parametrize("prefix, period", [
    ("0110S0111S01S", "0"),
    ("S1S", "0"),
    ("0111S0S011", "0"),
])
def test_window_reaching_the_last_zone_stays_inside_its_cells(prefix, period):
    # a window as long as the cells first materialized allow (horizon 0):
    # no step removes a cell, so the last zone always reaches the window's
    # end, and the windows match orbits of step_prefix past the horizon
    sys = pi2_system(MIXED)
    x = cfg(prefix, period)
    window = 100
    eng = ZoneEngine(sys.id, sys.oracle, x, None, 0, window)
    first = _cells(eng)
    assert first < window + 80
    got = []
    for _ in range(151):
        assert _cells(eng) >= first
        got.append(eng.window_word())
        eng.step()
    assert got == word_reference(sys, x.materialize(2000), 150, window)


def test_s_free_glued_run_with_no_s_in_the_input_shifts():
    # the tail writes no S, so no S can glue the run: the map is the shift
    x = cfg("00000", "1")
    assert orbit(pi2_system(MIXED), x, 3, 8) == [
        x.materialize(12)[t:t + 8] for t in range(1, 4)]


@pytest.mark.parametrize("period", ["0", "S"])
def test_past_glued_run_stops_at_an_s_after_the_run(period):
    # 0 1^82 S: the S closes the run, so nothing past it is read
    x = cfg("0" + "1" * 82 + "S", period)
    assert _past_glued_run(x, 20) == x.materialize(84)


def test_s_free_product_windows_are_slices_of_layer_2():
    # an S-free T' orbit shifts both layers; layer 2 is read once
    layer1 = cfg("0110", "0")
    layer2 = Configuration(ALPHA_AB, "ba", Periodic("aab"))
    x = ProductConfiguration(layer1, layer2)
    rows = list(pi2.orbit_windows(wild_t_prime_system(MIXED), x, 3, 40, 6))
    g1, g2 = layer1.materialize(46), layer2.materialize(46)
    assert rows == [(g1[t:t + 6], g2[t:t + 6]) for t in range(3, 40)]


def test_s_free_product_engine_holds_only_the_windowed_layer_2():
    # no gate is read, so layer 2 is materialized through horizon + window
    layer2 = Configuration(ALPHA_AB, "ba", Periodic("aab"))
    eng = ZoneEngine(SystemId.WILD_T_PRIME, MIXED, cfg("0110", "0"), layer2,
                     10_000, 8)
    assert len(eng._g2) == 10_000 + 8


def test_s_free_glued_run_past_the_cap_is_unresolved(tmp_path, capsys):
    # the tail's S lies past the materialization cap
    tail = "1" * 5000 + "S"
    with pytest.raises(FrontierUnresolved):
        orbit(pi2_system(MIXED), cfg("00000", tail), 3, 8)
    path = tmp_path / "table.json"
    path.write_text(table_to_json(MIXED))
    code = main(["orbit", "--system", "pi2", "--oracle", str(path),
                 "--init", f"prefix:00000,tail:period={tail}", "--steps",
                 "3", "--window", "8"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


# ---------------------------------------------------------------------------
# The zone rule: the one reader of the table, and its one refusal
# ---------------------------------------------------------------------------

ENUMERATED = OracleTable.enumerated()


@pytest.mark.parametrize("make", [pi2_system, wild_t_prime_system,
                                  wild_t_second_system])
def test_zone_system_refuses_an_enumerated_table(make):
    with pytest.raises(TableRefused, match="programmed"):
        make(ENUMERATED)


@pytest.mark.parametrize("sysid", [SystemId.PI2, SystemId.WILD_T_PRIME])
def test_engine_and_predicate_refuse_an_enumerated_table(sysid):
    x = ProductConfiguration(cfg("0S01S0"), Configuration(
        ALPHA_AB, "", Constant("a")))
    with pytest.raises(TableRefused):
        ZoneEngine(sysid, ENUMERATED, x.layer1,
                   x.layer2 if sysid.product else None, 10, 4)
    with pytest.raises(TableRefused):
        attractor_meets(sysid, Cylinder("0110"), ENUMERATED)


def test_t_second_predicate_reads_no_table():
    for w in ("0110", "01101", "0S"):
        assert (attractor_meets(SystemId.WILD_T_SECOND, Cylinder(w),
                                ENUMERATED)
                == attractor_meets(SystemId.WILD_T_SECOND, Cylinder(w),
                                   NEVER))


def test_product_step_needs_one_second_layer_symbol_past_the_window():
    for make in (wild_t_prime_system, wild_t_second_system):
        sys = make(NEVER)
        assert step_prefix(sys, ("0S0000", "aaaa"), 3) == ("00S", "aaa")
        with pytest.raises(FrontierUnresolved, match="second layer"):
            step_prefix(sys, ("0S0000", "aaa"), 3)


def test_zone_rule_reads():
    rule = ZoneRule(MIXED)
    assert rule.tau(1, 5) == 2 and rule.tau(2, 2) == 4
    assert rule.tau(2, 3) is None and rule.tau(3, 2) is None
    assert rule.excises and not ZoneRule(NEVER).excises
    assert ZoneRule(OracleTable.programmed_table([], default="halt1")).excises
    timeless = OracleTable.programmed_table(
        [Entry(e=1, kind=QueryKind.ALL_BELOW, k=INF, time=None)])
    assert not ZoneRule(timeless).excises
    assert rule.total(1) and not rule.total(2)
    assert rule.total_at_least(1) and not rule.total_at_least(2)
