"""The string step rules against the list-based step rules they replaced.

``ref_erasure_step_prefix`` and ``ref_step_word`` are the one-step maps as
they were before the steps became string operations: the erasure step
lists every 1-run of the word, the zone step edits a list of cells.
``ref_erases_now`` is the per-block rule as it was before it read the
per-machine profile.  Each test compares outcomes: the image, or
FrontierUnresolved with its message.  Enum members and exceptions come
from the modules under test.
"""

import itertools
import random
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from symdyn.oracle import INF, Answer, Entry, HaltQuery, OracleTable, QueryKind
from symdyn.pi2 import _insertion_word, gate_allows
from symdyn.space import parse_blocks
from symdyn.systems import (EraseKind, FrontierUnresolved, SystemId,
                            pi1_system, pi2_system, shift_system,
                            sigma2_system, step_prefix, wild_t_prime_system,
                            wild_t_second_system)
from symdyn.verify import parity_oracle, totality_oracle, worked_example_oracle

from test_run_scanner import _binary_words, _outcome, tables

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def ref_erases_now(oracle, kind):
    """The per-block rule with no profile: phi' asks ``answer`` once per
    block, phi reads ``empty_halt_time`` (``answer`` on an enumerated
    table)."""
    if kind is EraseKind.PHI_PRIME:
        def erased(l, j1, gap):
            return (gap is not None and l < j1
                    and oracle.answer(l, HaltQuery(QueryKind.SOME_IN, j1, k=gap,
                                                   k_hi=j1)) is Answer.YES)
    elif oracle.programmed:
        halt_time = {}   # l -> least empty-input halting time, asked once

        def erased(l, j1, gap):
            if l > j1:
                return False
            if l not in halt_time:
                halt_time[l] = oracle.empty_halt_time(l)
            t = halt_time[l]
            return t is not None and t <= j1
    else:
        def erased(l, j1, gap):
            return (l <= j1 and oracle.answer(l, HaltQuery(QueryKind.EMPTY, j1))
                    is Answer.YES)
    return erased


def ref_erasure_step_prefix(erased, w: str, n: int) -> str:
    if len(w) < n + 1:
        raise FrontierUnresolved("need one symbol past the window")
    runs = parse_blocks(w)
    if runs:
        start, l = runs[-1]
        j1 = start - 1
        # a right-open run closes at some j2 >= len(w); it can still matter
        # when an erasable candidate (l <= j1, j2 <= 2i, i < n) remains
        if (start > 0 and start + l == len(w) and j1 <= n - 1
                and len(w) <= 2 * (n - 1) and len(w) <= 2 * j1 + 1):
            raise FrontierUnresolved(f"1-run open at {start}")
    out = None
    prev_end = None   # end of the previous 1-run
    for start, l in runs:
        j1 = start - 1
        if j1 >= n:
            break   # the block and all later ones lie right of the window
        gap = None if prev_end is None else start - prev_end
        if start > 0 and start + l < len(w) and erased(l, j1, gap):
            j2 = start + l
            lo, hi = max(j1, (j2 + 1) // 2), min(j2, n)
            if lo < hi:
                if out is None:
                    out = list(w[1:n + 1])
                out[lo:hi] = "0" * (hi - lo)
        prev_end = start + l
    return w[1:n + 1] if out is None else "".join(out)


def ref_step_word(oracle, w1: str, n: int, w2: Optional[str] = None,
                  gate_first: bool = False,
                  second_inserts: bool = False) -> str:
    if len(w1) < n + 1:
        raise FrontierUnresolved("need one symbol past the window")
    cells = list(w1)
    s_pos = [i for i, c in enumerate(cells) if c == "S"]

    # everything strictly right of this position cannot influence the window
    # (the first S reads the symbol to its right, which an excision at an
    # adjacent second S may rewrite)
    reach = n if not s_pos else max(n, s_pos[0] + 2)

    inserts: List[Tuple[int, int, str]] = []  # (position, tiebreak, word)
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
        # earlier excisions zeroed cells of other zones only, so the zone
        # still reads as in w1
        excised = []
        for start, l in parse_blocks(w1[zone_lo:zone_hi]):
            start += zone_lo
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
        # no S within reach: the map shifts, unless a 1-run glued to an S
        # just past the supplied word could freeze the window
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


def ref_step_prefix(sys, w, n):
    """The reference step of any system, its erasure rule read through
    :func:`ref_erases_now`."""
    sid = sys.id
    if sid.erase is not None:
        return ref_erasure_step_prefix(ref_erases_now(sys.oracle, sid.erase),
                                       w, n)
    if sid is SystemId.SHIFT:
        if len(w) < n + 1:
            raise FrontierUnresolved("need one symbol past the window")
        return w[1:n + 1]
    if not sid.product:
        return ref_step_word(sys.oracle, w, n)
    w1, w2 = w
    if len(w2) < n + 1:
        raise FrontierUnresolved(
            "second layer needs one symbol past the window")
    return ref_step_word(sys.oracle, w1, n, w2=w2, gate_first=sid.gate_first,
                         second_inserts=sid.second_inserts), w2[1:n + 1]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

# ALL_BELOW facts with finite and unbounded k, least times below and above
# the S positions of short words, a never-time, and an EMPTY fact
MIXED_ALL_BELOW = OracleTable.programmed_table([
    Entry(1, QueryKind.ALL_BELOW, k=INF, time=2),
    Entry(2, QueryKind.ALL_BELOW, k=3, time=1),
    Entry(2, QueryKind.ALL_BELOW, k=INF, time=5),
    Entry(3, QueryKind.ALL_BELOW, k=2, time=0),
    Entry(4, QueryKind.ALL_BELOW, k=4, time=3),
    Entry(5, QueryKind.ALL_BELOW, k=INF, time=None),
    Entry(1, QueryKind.EMPTY, time=1)])
EMPTY = OracleTable.programmed_table([])
HALT1 = OracleTable.programmed_table([], default="halt1")
SOME_IN_HALT1 = OracleTable.programmed_table(
    [Entry(3, QueryKind.SOME_IN, k=2, k_hi=6, time=5),
     Entry(5, QueryKind.EMPTY, time=4)], default="halt1")

ZONE_TABLES = {"totality": totality_oracle(), "mixed": MIXED_ALL_BELOW,
               "empty": EMPTY, "halt1": HALT1}
ERASURE_TABLES = {"worked": worked_example_oracle(), "parity": parity_oracle(),
                  "empty": EMPTY, "halt1": HALT1,
                  "some_in_halt1": SOME_IN_HALT1}
ZONE_SYSTEMS = [pi2_system, wild_t_prime_system, wild_t_second_system]


def _layer2(rng: random.Random, w1: str) -> str:
    """A second layer rich in a, long enough for most gates at w1's S's."""
    size = rng.randint(len(w1), 3 * len(w1) + 3)
    return "".join("b" if rng.random() < 0.08 else "a" for _ in range(size))


def _assert_same(sys, cases):
    got = [_outcome(step_prefix, sys, w, n) for w, n in cases]
    want = [_outcome(ref_step_prefix, sys, w, n) for w, n in cases]
    if got != want:
        at = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        raise AssertionError((sys.id, cases[at], got[at], want[at]))


# ---------------------------------------------------------------------------
# Exhaustive and drawn comparisons
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ZONE_TABLES))
@pytest.mark.parametrize("make", ZONE_SYSTEMS,
                         ids=["pi2", "wild_t_prime", "wild_t_second"])
def test_zone_step_matches_reference(make, name):
    # every {0,1,S} word of length <= 7 and every n < len(w)
    sys, rng = make(ZONE_TABLES[name]), random.Random(name)
    cases = []
    for size in range(1, 8):
        for cells in itertools.product("01S", repeat=size):
            w1 = "".join(cells)
            w = (w1, _layer2(rng, w1)) if sys.id.product else w1
            cases += [(w, n) for n in range(size)]
    _assert_same(sys, cases)


@pytest.mark.parametrize("name", sorted(ERASURE_TABLES))
@pytest.mark.parametrize("make", [pi1_system, sigma2_system],
                         ids=["phi", "phi_prime"])
def test_erasure_step_matches_reference(make, name):
    # every binary word of length <= 12 and every n, the window one past
    # the word included
    sys = make(ERASURE_TABLES[name])
    _assert_same(sys, [(w, n) for w in _binary_words(12)
                       for n in range(len(w) + 2)])


_zone_word = st.text(alphabet="01SSS", max_size=60)


@settings(max_examples=150, deadline=None)
@given(tables, _zone_word, st.data())
def test_zone_step_matches_reference_long_words(orc, w1, data):
    n = data.draw(st.integers(0, len(w1)))
    w2 = data.draw(st.text(alphabet="aaaaaaab", min_size=n + 1,
                           max_size=3 * len(w1) + 3))
    for make in ZONE_SYSTEMS:
        sys = make(orc)
        _assert_same(sys, [((w1, w2) if sys.id.product else w1, n)])


@settings(max_examples=150, deadline=None)
@given(tables, st.text(alphabet="01", max_size=60), st.data())
def test_erasure_step_matches_reference_long_words(orc, w, data):
    n = data.draw(st.integers(0, len(w)))
    for sys in (pi1_system(orc), sigma2_system(orc)):
        _assert_same(sys, [(w, n)])


# ---------------------------------------------------------------------------
# The checked contract
# ---------------------------------------------------------------------------

ALL_SYSTEMS = [shift_system(), pi1_system(worked_example_oracle()),
               sigma2_system(worked_example_oracle()),
               *(make(totality_oracle()) for make in ZONE_SYSTEMS)]


@pytest.mark.parametrize("sys", ALL_SYSTEMS, ids=lambda s: s.id.value)
def test_step_prefix_refuses_negative_n(sys):
    # n = -1 once read as an empty window
    w = ("0110", "aaaa") if sys.id.product else "0110"
    with pytest.raises(ValueError, match="n >= 0"):
        step_prefix(sys, w, -1)


@pytest.mark.parametrize("sys", ALL_SYSTEMS, ids=lambda s: s.id.value)
def test_step_prefix_refuses_foreign_symbols(sys):
    # pi1 once stepped the S of '01S0' as a 0
    if sys.id.product:
        bad = [("01a0", "aaaa"), ("0110", "aa1a"), ("0110", "aSaa")]
    elif sys.id.alphabet.symbols == ("0", "1"):
        bad = ["01S0", "0120", "a"]
    else:
        bad = ["01a0", "0120", "b"]
    for w in bad:
        with pytest.raises(ValueError, match="does not read"):
            step_prefix(sys, w, 2)


def test_zone_step_needs_a_programmed_table():
    with pytest.raises(ValueError, match="programmed"):
        step_prefix(pi2_system(OracleTable.enumerated()), "0S0S010", 3)
