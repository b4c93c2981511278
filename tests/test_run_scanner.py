"""The tuple 1-run scanner against the per-character parser it replaced.

The parser (``ref_parse_blocks`` with its ``RefRun`` records), the
erasure step, the limit erasure map, the erasure and single-block
attractor predicates and the π2 zone step built on it are kept below as
they were (``ref_*``).  The other reference tests (the limit predicates in
``test_block_rule.py``, the per-word limit measure in
``test_limit_measure.py``) read blocks through this copy too, so no
reference depends on the scanner under test.
"""

import itertools
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from symdyn.analysis import (NO, UNKNOWN, YES, MeetsVerdict,
                             _single_block_shape, attractor_meets)
from symdyn.oracle import INF, Answer, Entry, HaltQuery, OracleTable, QueryKind
from symdyn.pi2 import _insertion_word, gate_allows
from symdyn.space import Cylinder, parse_blocks
from symdyn.systems import (ERASED, KEPT, UNRESOLVED, EraseKind,
                            FrontierUnresolved, SystemId, _rule, block_fate,
                            erase_map_prefix, pi1_system,
                            pi2_system, sigma2_system, step_prefix,
                            wild_t_prime_system, wild_t_second_system)
from symdyn.verify import parity_oracle, totality_oracle, worked_example_oracle

# ---------------------------------------------------------------------------
# Reference: the per-character parser and the code built on it
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefRun:
    """Maximal run of ``symbol``; ``bound_left`` is the position of the
    differing symbol to its left, None when the run touches the word
    boundary on that side."""

    start: int
    length: int
    symbol: str
    bound_left: Optional[int]
    bounded_right: bool

    @property
    def bounded(self) -> bool:
        return self.bound_left is not None and self.bounded_right


@dataclass(frozen=True)
class RefDecomposition:
    word: str
    runs: tuple

    def blocks(self, symbol: str):
        """Bounded maximal runs of ``symbol``, as (left-bound position, length)."""
        return [(r.bound_left, r.length) for r in self.runs
                if r.symbol == symbol and r.bounded]


def ref_parse_blocks(w: str) -> RefDecomposition:
    runs = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        runs.append(RefRun(start=i, length=j - i, symbol=w[i],
                           bound_left=i - 1 if i > 0 else None,
                           bounded_right=j < len(w)))
        i = j
    return RefDecomposition(word=w, runs=tuple(runs))


def ref_left_gap(w: str, j1: int) -> Optional[int]:
    j0 = w.rfind("1", 0, j1)
    return j1 - j0 if j0 >= 0 else None


def ref_erasure_step_prefix(erased, w: str, n: int) -> str:
    if len(w) < n + 1:
        raise FrontierUnresolved("need one symbol past the window")
    dec = ref_parse_blocks(w)
    last = dec.runs[-1]
    if (last.symbol == "1" and not last.bounded_right
            and last.bound_left is not None):
        j1 = last.bound_left
        if j1 <= n - 1 and len(w) <= 2 * (n - 1) and len(w) <= 2 * j1 + 1:
            raise FrontierUnresolved(f"1-run open at {last.start}")
    out = list(w[1:n + 1])
    for j1, l in dec.blocks("1"):
        if erased(l, j1, ref_left_gap(w, j1)):
            j2 = j1 + l + 1
            for i in range(max(j1, (j2 + 1) // 2), min(j2, n)):
                out[i] = "0"
    return "".join(out)


def ref_erase_map_prefix(kind, oracle, w, budget=None):
    fate = block_fate(oracle, kind, budget)
    statuses = [KEPT] * len(w)
    out = list(w)
    for run in ref_parse_blocks(w).runs:
        if run.symbol != "1" or run.bound_left is None:
            continue
        verdict = (fate(run.length, ref_left_gap(w, run.bound_left))
                   if run.bounded_right else None)
        for i in range(run.start, run.start + run.length):
            if verdict is None:
                statuses[i] = UNRESOLVED
            elif verdict:
                statuses[i] = ERASED
                out[i] = "0"
    return "".join(out), statuses


def ref_meets_erasure(kind, oracle, w, budget):
    fate = block_fate(oracle, kind, budget)
    for j1, l in ref_parse_blocks(w).blocks("1"):
        gap = ref_left_gap(w, j1)
        erased = fate(l, gap)
        if erased is None:
            return MeetsVerdict(UNKNOWN, witness=f"block 01^{l} 0 at {j1}")
        if not erased:
            continue
        if kind is EraseKind.PHI:
            why = f"block 01^{l} 0 at {j1}: M_{l} halts"
        elif fate(l, None):
            why = f"block 01^{l} 0 at {j1}: M_{l} has infinite domain"
        else:
            why = (f"factor 10^{gap}1^{l}0 at {j1 - gap}: "
                   f"M_{l} halts on a larger input")
        return MeetsVerdict(NO, witness=why)
    return MeetsVerdict(YES, witness=w + "1^inf")


def ref_single_block_shape(w: str):
    runs = ref_parse_blocks(w).runs
    symbols = [r.symbol for r in runs]
    if symbols in ([], ["0"], ["1"], ["0", "1"], ["1", "0"],
                   ["0", "1", "0"]):
        a = runs[0].length if symbols[:1] == ["0"] else 0
        ones = [r for r in runs if r.symbol == "1"]
        l = ones[0].length if ones else 0
        closed = bool(ones) and ones[0].bounded_right
        return a, l, closed
    return None


def ref_zone_runs(cells: List[str], lo: int, hi: int):
    """Maximal 1-runs of cells[lo:hi] as (absolute start, length)."""
    runs = []
    i = lo
    while i < hi:
        if cells[i] == "1":
            j = i
            while j < hi and cells[j] == "1":
                j += 1
            runs.append((i, j - i))
            i = j
        else:
            i += 1
    return runs


def ref_step_word(oracle, w1, n, w2=None, gate_first=False,
                  second_inserts=False):
    """The zone step, reading each zone's runs off the mutated cells."""
    if len(w1) < n + 1:
        raise FrontierUnresolved("need one symbol past the window")
    cells = list(w1)
    s_pos = [i for i, c in enumerate(cells) if c == "S"]
    reach = n if not s_pos else max(n, s_pos[0] + 2)

    inserts: List[Tuple[int, int, str]] = []
    for k in range(2, len(s_pos) + 1):
        i_k = s_pos[k - 1]
        if i_k >= reach:
            break
        zone_lo = i_k + 1
        zone_hi = s_pos[k] if k < len(s_pos) else len(cells)
        scan_hi = zone_lo + i_k
        if zone_hi == len(cells) and scan_hi > len(cells):
            raise FrontierUnresolved("scan prefix runs past the supplied word")
        scan_hi = min(scan_hi, zone_hi)
        excised = []
        for start, l in ref_zone_runs(cells, zone_lo, zone_hi):
            if start + l <= scan_hi and oracle.answer(
                    l, HaltQuery(QueryKind.ALL_BELOW, i_k, k=k)) is Answer.YES:
                excised.append((start, l))
        if excised:
            for start, l in excised:
                cells[start:start + l] = ["0"] * l
            word = "".join("0" + "1" * l for _, l in excised)
            inserts.append((i_k, 0, word))

    if second_inserts and len(s_pos) >= 2 and s_pos[1] < reach:
        if gate_allows(w2, s_pos[0]):
            inserts.append((s_pos[1], 1, _insertion_word(s_pos[0])))

    for pos, _, word in sorted(inserts, reverse=True):
        cells[pos:pos] = list(word)

    s1 = s_pos[0] if s_pos else None
    if s1 is None:
        i = 0
        while i < len(cells) and cells[i] == "0":
            i += 1
        if i < n and i < len(cells) and all(c == "1" for c in cells[i:]):
            raise FrontierUnresolved(
                "open 1-run may be glued to an S beyond the word")
        return "".join(cells[1:n + 1])
    if s1 + 1 >= len(cells):
        raise FrontierUnresolved(
            "first S reads one symbol past the supplied word")

    u0 = cells[:s1]
    ones = sum(1 for c in u0 if c == "1")
    trailing = 0
    for c in reversed(u0):
        if c != "1":
            break
        trailing += 1
    c = cells[s1 + 1]
    eat = ones == trailing
    if eat and c == "1" and (not gate_first or gate_allows(w2, s1)):
        cells[s1], cells[s1 + 1] = "1", "S"
        shift = False
    elif eat and c == "0":
        cells[s1], cells[s1 + 1] = "0", "S"
        shift = True
    else:
        cells.insert(s1, "0")
        shift = True
    s1 += 1
    if shift:
        del cells[0]
        s1 -= 1
        cells.insert(s1, "0")
    return "".join(cells[:n])


def ref_zone_step_prefix(sys, w, n):
    if sys.id is SystemId.PI2:
        return ref_step_word(sys.oracle, w, n)
    w1, w2 = w
    if len(w2) < n + 1:
        raise FrontierUnresolved(
            "second layer needs one symbol past the window")
    out1 = ref_step_word(sys.oracle, w1, n, w2=w2,
                         gate_first=sys.id is SystemId.WILD_T_PRIME,
                         second_inserts=sys.id is SystemId.WILD_T_SECOND)
    return out1, w2[1:n + 1]


# ---------------------------------------------------------------------------
# Tables: duplicate EMPTY entries, halt-at-1 defaults with machines listed
# only under ALL_BELOW or SOME_IN, never-times, unbounded sizes (shared with
# test_block_rule.py and test_orbit_engine.py)
# ---------------------------------------------------------------------------

_size = st.integers(0, 4)


@st.composite
def _entry(draw):
    e = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(list(QueryKind)))
    time = draw(st.one_of(st.none(), st.integers(0, 12)))
    if kind is QueryKind.EMPTY:
        return Entry(e, kind, time)
    k = draw(_size)
    if kind is QueryKind.ALL_BELOW:
        return Entry(e, kind, time, k=draw(st.sampled_from([k, INF])))
    k_hi = draw(st.one_of(st.just(INF), st.integers(k, k + 4)))
    return Entry(e, kind, time, k=k, k_hi=k_hi)


tables = st.builds(OracleTable.programmed_table, st.lists(_entry(), max_size=8),
                   default=st.sampled_from(["never", "halt1"]))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """The image, or the FrontierUnresolved message."""
    try:
        return fn(*args)
    except FrontierUnresolved as exc:
        return ("unresolved", str(exc))


def _binary_words(max_len):
    for L in range(max_len + 1):
        for bits in itertools.product("01", repeat=L):
            yield "".join(bits)


# ---------------------------------------------------------------------------
# The scanner
# ---------------------------------------------------------------------------


@given(st.text(alphabet="01S", max_size=60))
def test_parse_blocks_matches_reference_runs(w):
    assert parse_blocks(w) == [(r.start, r.length)
                               for r in ref_parse_blocks(w).runs
                               if r.symbol == "1"]


def test_parse_blocks_bounds_match_reference():
    # start > 0 and start + length < len(w) are the reference's bounds
    for w in _binary_words(10):
        ones = [r for r in ref_parse_blocks(w).runs if r.symbol == "1"]
        for (start, l), r in zip(parse_blocks(w), ones):
            assert (start > 0) == (r.bound_left is not None)
            assert (start + l < len(w)) == r.bounded_right


# ---------------------------------------------------------------------------
# The erasure step: every {0,1} word up to length 10, every n <= len
# ---------------------------------------------------------------------------


def _check_erasure_steps(orc, max_len):
    for kind, make in ((EraseKind.PHI, pi1_system),
                       (EraseKind.PHI_PRIME, sigma2_system)):
        sys = make(orc)
        rule = _rule(orc, kind).now
        for w in _binary_words(max_len):
            for n in range(len(w) + 1):
                assert _outcome(step_prefix, sys, w, n) == \
                    _outcome(ref_erasure_step_prefix, rule, w, n), (kind, w, n)


@pytest.mark.parametrize("name", ["worked", "parity"])
def test_erasure_step_matches_reference_exhaustive(name):
    orc = {"worked": worked_example_oracle, "parity": parity_oracle}[name]()
    _check_erasure_steps(orc, 10)


@settings(max_examples=15, deadline=None)
@given(tables)
def test_erasure_step_matches_reference_drawn_tables(orc):
    _check_erasure_steps(orc, 8)


def test_erasure_step_matches_reference_enumerated():
    orc = OracleTable.enumerated()
    rng = random.Random(3)
    for _ in range(400):
        w = "".join(rng.choice("01") for _ in range(rng.randint(1, 14)))
        n = rng.randint(0, len(w))
        assert _outcome(step_prefix, pi1_system(orc), w, n) == _outcome(
            ref_erasure_step_prefix, _rule(orc, EraseKind.PHI).now, w, n)


# ---------------------------------------------------------------------------
# The erasure maps in the limit, the attractor predicates
# ---------------------------------------------------------------------------


def _check_limit_maps(orc, max_len):
    for w in _binary_words(max_len):
        for kind, sid in ((EraseKind.PHI, SystemId.PI1),
                          (EraseKind.PHI_PRIME, SystemId.SIGMA2)):
            assert erase_map_prefix(kind, orc, w) == \
                ref_erase_map_prefix(kind, orc, w)
            assert attractor_meets(sid, Cylinder(w), orc) == \
                ref_meets_erasure(kind, orc, w, None)


@pytest.mark.parametrize("name", ["worked", "parity"])
def test_limit_maps_match_reference_exhaustive(name):
    orc = {"worked": worked_example_oracle, "parity": parity_oracle}[name]()
    _check_limit_maps(orc, 10)


@settings(max_examples=40, deadline=None)
@given(tables)
def test_limit_maps_match_reference_drawn_tables(orc):
    _check_limit_maps(orc, 8)


def test_limit_maps_match_reference_enumerated():
    orc = OracleTable.enumerated()
    for w in _binary_words(8):
        for budget in (0, 3, 20):
            assert erase_map_prefix(EraseKind.PHI, orc, w, budget) == \
                ref_erase_map_prefix(EraseKind.PHI, orc, w, budget)
            assert attractor_meets(SystemId.PI1, Cylinder(w), orc, budget) == \
                ref_meets_erasure(EraseKind.PHI, orc, w, budget)


def test_single_block_shape_matches_reference():
    for w in _binary_words(10):
        assert _single_block_shape(w) == ref_single_block_shape(w), w


# ---------------------------------------------------------------------------
# The zone step: every {0,1,S} word of lookahead(n) symbols
# ---------------------------------------------------------------------------

ZONE_TABLES = {"totality": totality_oracle, "worked": worked_example_oracle}
LAYER2 = ["aaaaaaaaaaaa", "abaabaaabaaa", "baaaaaaaaaab", "bbbbbbbbbbbb"]


@pytest.mark.parametrize("name", sorted(ZONE_TABLES))
def test_pi2_step_matches_reference_exhaustive(name):
    sys = pi2_system(ZONE_TABLES[name]())
    for n in range(4):
        for cells in itertools.product("01S", repeat=sys.lookahead(n)):
            w = "".join(cells)
            assert _outcome(step_prefix, sys, w, n) == \
                _outcome(ref_zone_step_prefix, sys, w, n), (w, n)


@settings(max_examples=30, deadline=None)
@given(tables)
def test_pi2_step_matches_reference_drawn_tables(orc):
    sys = pi2_system(orc)
    for n in range(3):
        for cells in itertools.product("01S", repeat=sys.lookahead(n)):
            w = "".join(cells)
            assert _outcome(step_prefix, sys, w, n) == \
                _outcome(ref_zone_step_prefix, sys, w, n), (w, n)


@pytest.mark.parametrize("make", [wild_t_prime_system, wild_t_second_system],
                         ids=["wild_t_prime_system", "wild_t_second_system"])
def test_product_step_matches_reference_exhaustive(make):
    # every first layer of the pi2 look-ahead, over four second layers
    sys = make(totality_oracle())
    for n in range(4):
        for cells in itertools.product("01S", repeat=2 * n + 2):
            w1 = "".join(cells)
            for w2 in LAYER2:
                w = (w1, w2[:len(w1)])
                assert _outcome(step_prefix, sys, w, n) == \
                    _outcome(ref_zone_step_prefix, sys, w, n), (w, n)


@pytest.mark.parametrize("make", [wild_t_prime_system, wild_t_second_system],
                         ids=["wild_t_prime_system", "wild_t_second_system"])
def test_product_step_matches_reference_seeded(make):
    sys = make(totality_oracle())
    rng = random.Random(17)
    for _ in range(3000):
        n = rng.randint(0, 4)
        la = sys.lookahead(n)
        w1 = "".join(rng.choice("0011S") for _ in range(la))
        w2 = "".join(rng.choice("aab") for _ in range(la))
        assert _outcome(step_prefix, sys, (w1, w2), n) == \
            _outcome(ref_zone_step_prefix, sys, (w1, w2), n), (w1, w2, n)
