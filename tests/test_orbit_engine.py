"""The long-orbit engine of the block-erasure maps against its slow form.

The engine materializes the input only up to where the 1-run holding the
horizon closes, keeps runs as plain tuples and emits windows as slices of
one static word.  The form it replaced is kept below as the reference
(``ref_*``): it doubles the word while it ends in 1, keeps one object per
visible run and joins every window cell by cell.  The window counter,
which packs windows into integer codes, is checked against counting the
generated windows.
"""

import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symdyn.analysis import derived_seed, empirical_measure, omega_profile
from symdyn.oracle import Entry, OracleTable, QueryKind
from symdyn.space import Constant, Periodic, Sampler, binary_config
from symdyn.systems import (_erasure_layout, _materialize_closed, _rule,
                            orbit_window_counts, orbit_windows, pi1_system,
                            shift_system, sigma2_system)
from symdyn.verify import parity_oracle

from test_block_rule import tables

# ---------------------------------------------------------------------------
# Reference engine
# ---------------------------------------------------------------------------


@dataclass
class RefVisible:
    start: int
    length: int
    t_from: int
    t_until: Optional[int]


def ref_materialize_closed(x, horizon):
    size = horizon + 1
    w = x.materialize(size)
    while w.endswith("1") and size <= 4 * horizon + 8:
        size *= 2
        w = x.materialize(size)
    return w


def ref_visibles(x, erased, extent):
    w = ref_materialize_closed(x, extent)
    vis, queue, prev_end = [], [], None
    for m in re.finditer("1+", w):
        a, b = m.span()
        if a == 0 or b == len(w):
            vis.append(RefVisible(a, b - a, 0, None))
        else:
            queue.append((a - 1, b - a, 0,
                          None if prev_end is None else a - prev_end))
        prev_end = b
    while queue:
        p, l, s, gap = queue.pop()
        j1 = p - s
        if erased(l, j1, gap):
            vis.append(RefVisible(p + 1, l, s, s))
            if l == j1 and j1 >= 1:
                queue.append((p, 1, s + 1, gap))
        else:
            vis.append(RefVisible(p + 1, l, s, None))
    return vis


def ref_windows(vis, t0, t1, L):
    N = t1 + L + 1
    static = np.zeros(N, dtype=bool)
    add_at, zero_at = {}, {}
    for v in vis:
        lo, hi = v.start, min(v.start + v.length, N)
        if lo >= hi:
            continue
        if v.t_until is None:
            static[lo:hi] = True
            if v.t_from > t0:
                for t in range(max(t0, lo - L + 1), min(v.t_from, t1, hi)):
                    zero_at.setdefault(t, []).extend(
                        range(max(lo, t), min(hi, t + L)))
        elif t0 <= v.t_from < t1:
            s = v.t_from
            add_at.setdefault(s, []).extend(range(max(lo, s), min(hi, s + L)))
    out = []
    for t in range(t0, t1):
        cells = static[t:t + L].copy()
        for pos in zero_at.get(t, ()):
            cells[pos - t] = False
        for pos in add_at.get(t, ()):
            cells[pos - t] = True
        out.append("".join("1" if c else "0" for c in cells))
    return out


def ref_orbit_windows(sys, x, t0, t1, L):
    vis = ref_visibles(x, _rule(sys.oracle, sys.id.erase).now, t1 + L + 1)
    return ref_windows(vis, t0, t1, L)


def ref_layout(sys, x, t0, t1, L):
    """``_erasure_layout``'s static word and its set of patches, read off
    the reference visibles."""
    N = t1 + L + 1
    static, patches = np.zeros(N, dtype=np.uint8), set()
    for v in ref_visibles(x, _rule(sys.oracle, sys.id.erase).now, N):
        if v.t_until is None:
            static[v.start:v.start + v.length] = 1
            continue
        s = v.t_from
        lo, hi = max(v.start, s), min(v.start + v.length, s + L)
        if t0 <= s < t1 and lo < hi:
            patches.add((s, lo, hi))
    return static, patches


def assert_layout_matches_reference(sys, x, t0, t1, L):
    """The static word and the patches agree with the reference; returns
    both, the patches as a set of (step, lo, hi)."""
    static, patches = _erasure_layout(sys, x, t0, t1, L)
    want_static, want_patches = ref_layout(sys, x, t0, t1, L)
    assert static.dtype == np.uint8
    assert np.array_equal(static, want_static)
    got = list(zip(*(col.tolist() for col in patches)))
    assert len(got) == len(set(got))
    assert set(got) == want_patches
    return want_static, want_patches


def assert_matches_reference(sys, x, t0, t1, L):
    assert_layout_matches_reference(sys, x, t0, t1, L)
    want = ref_orbit_windows(sys, x, t0, t1, L)
    got = list(orbit_windows(sys, x, t0, t1, L))
    assert all(type(w) is str for w in got)
    assert got == want
    m = empirical_measure(sys, x, t1 - t0, L, start=t0)
    assert m.counts == dict(Counter(want))
    assert omega_profile(sys, x, t0, t1, L).words == frozenset(want)


# ---------------------------------------------------------------------------
# Inputs whose last 1-run straddles the horizon
# ---------------------------------------------------------------------------

ZONES = ("before_2h", "before_cap", "past_cap", "never")


@st.composite
def straddling(draw, zones=ZONES, rest=True, max_t1=12, max_L=6):
    """(x, t0, t1, L): the 1-run at the horizon h = t1 + L + 1 closes in
    the drawn zone (its closing 0 before 2h, in [2h, 4h + 8), past
    4h + 8, or never); ``rest=False`` puts no 1 after it."""
    t1 = draw(st.integers(1, max_t1))
    t0 = draw(st.integers(0, t1 - 1))
    L = draw(st.integers(1, max_L))
    h = t1 + L + 1
    start = draw(st.integers(0, h))
    head = draw(st.text(alphabet="01", min_size=start, max_size=start))
    zone = draw(st.sampled_from(zones))
    if zone == "never":
        return binary_config(head + "1", Constant("1")), t0, t1, L
    close = draw({"before_2h": st.integers(h + 1, 2 * h - 1),
                  "before_cap": st.integers(2 * h, 4 * h + 7),
                  "past_cap": st.integers(4 * h + 8, 9 * h + 20)}[zone])
    after = draw(st.text(alphabet="01", max_size=12)) if rest else ""
    tail = draw(st.sampled_from([Constant("0"), Periodic("0111"),
                                 Periodic("01")])) if rest else Constant("0")
    word = head + "1" * (close - start) + "0" + after
    return binary_config(word, tail), t0, t1, L


@settings(max_examples=300, deadline=None)
@given(tables, straddling())
def test_engine_matches_reference_programmed(orc, case):
    x, t0, t1, L = case
    for sys in (pi1_system(orc), sigma2_system(orc)):
        assert_matches_reference(sys, x, t0, t1, L)


@settings(max_examples=60, deadline=None)
@given(straddling(), straddling(zones=("before_2h",), rest=False,
                                max_t1=2, max_L=2))
def test_engine_matches_reference_enumerated(case, short):
    orc = OracleTable.enumerated()
    assert_matches_reference(pi1_system(orc), *case)
    # sigma2 enumerates every input size up to j1: a short horizon and no
    # run past the closing 0
    assert_matches_reference(sigma2_system(orc), *short)


SIGMA2_TABLE = OracleTable.programmed_table(
    [Entry(e, QueryKind.SOME_IN, k=e % 3, k_hi=e % 3 + 2, time=e + 1)
     for e in range(1, 12, 2)])


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("t0, t1, L", [(0, 3000, 3), (500, 1500, 5)])
def test_engine_matches_reference_sampled(seed, t0, t1, L):
    x = binary_config("", Sampler(("0", "1"), (1, 1), derived_seed(seed, 0)))
    for sys in (pi1_system(parity_oracle()), sigma2_system(SIGMA2_TABLE)):
        assert_matches_reference(sys, x, t0, t1, L)


@pytest.mark.parametrize("t0", [0, 1, 2])
def test_reborn_survivor_sits_under_its_erased_forebears(t0):
    # 0 1 0 at j1 = 1 is erased at step 0; its first 1 is reborn at step 1
    # as a length-1 block at j1 = 0, which survives
    orc = OracleTable.programmed_table([Entry(1, QueryKind.EMPTY, time=1)])
    sys = pi1_system(orc)
    x = binary_config("0010001", Constant("0"))
    assert list(orbit_windows(sys, x, 0, 3, 4)) == ["0010", "0100", "1000"]
    assert_matches_reference(sys, x, t0, 6, 5)


@pytest.mark.parametrize("make", [lambda: pi1_system(parity_oracle()),
                                  lambda: sigma2_system(SIGMA2_TABLE)],
                         ids=["pi1", "sigma2"])
def test_layout_matches_reference_on_the_criterion_07_input(make):
    x = binary_config("", Sampler(("0", "1"), (1, 1), derived_seed(2024, 0)))
    static, _ = assert_layout_matches_reference(make(), x, 0, 100_000, 3)
    # the static word is the input with its erased runs masked out
    cells = np.frombuffer(x.materialize(len(static)).encode(), np.uint8) - 48
    assert (static <= cells).all() and static.sum() < cells.sum()


def test_layout_matches_reference_on_rebirth_chains():
    # A block 0 1^p 0 with its leading 0 at j1 = p is erased at step 0 when
    # M_p halts by step p, and its first 1 is reborn as 0 1 0 at j1 = p - 1.
    # At p = 2 (cells 3-4) the chain is three blocks long: erased at steps 0
    # and 1, the last one surviving from step 2.  At p = 5 (cells 6-10) the
    # reborn block shows at step 1 and is erased for good by the next step.
    # The run at cells 20-23 survives: M_4 never halts.
    orc = OracleTable.programmed_table(
        [Entry(1, QueryKind.EMPTY, time=1), Entry(2, QueryKind.EMPTY, time=2),
         Entry(5, QueryKind.EMPTY, time=5)])
    sys = pi1_system(orc)
    x = binary_config("000110111110" + "0" * 8 + "11110", Constant("0"))
    _, patches = assert_layout_matches_reference(sys, x, 0, 40, 12)
    assert {p for p in patches if p[0] >= 1} == {(1, 3, 4), (1, 6, 7)}
    assert list(orbit_windows(sys, x, 0, 3, 12)) == [
        "000110111110", "001001000000", "010000000000"]
    assert_matches_reference(sys, x, 0, 40, 12)


@pytest.mark.parametrize("make", [pi1_system, sigma2_system],
                         ids=["pi1", "sigma2"])
@pytest.mark.parametrize("t1", [90, 200])
@pytest.mark.parametrize("times, plus", [(1, 70), (1, 600), (3, 0), (4, 20)],
                         ids=["h+70", "h+600", "3h", "4h+20"])
def test_engine_matches_reference_past_the_first_look_ahead(make, t1, times,
                                                            plus):
    # straddling() keeps h <= 19, where the cap of 4h + 8 symbols comes
    # before the first look-ahead of h + 64 runs out; here the 1-run at the
    # horizon h closes past that look-ahead, before or past the cap, so the
    # word grows
    L = 5
    h = t1 + L + 1
    head = binary_config("", Sampler(("0", "1"), (1, 1), t1)).materialize(
        h - 3) + "0"
    x = binary_config(head + "1" * (times * h + plus - h + 2) + "0110",
                      Periodic("01"))
    w = _materialize_closed(x, h)
    assert len(w) > h + 65 and w == x.materialize(len(w))
    assert_matches_reference(make(parity_oracle()), x, 0, t1, L)


@given(straddling())
def test_word_ends_where_the_straddling_run_closes(case):
    x, _, t1, L = case
    h = t1 + L + 1
    w = _materialize_closed(x, h)
    assert w == x.materialize(len(w))
    assert w[h] == "1"
    if w.endswith("0"):
        assert "0" not in w[h:-1]
    else:
        assert len(w) == 4 * h + 8


def test_word_cut_just_after_the_closing_zero():
    x = binary_config("01101", Constant("1"))
    assert _materialize_closed(x, 3) == "0110"
    assert _materialize_closed(x, 2) == "0110"
    assert len(_materialize_closed(x, 4)) == 4 * 4 + 8


def test_criterion_07_input_materializes_to_the_closing_zero():
    x = binary_config("", Sampler(("0", "1"), (1, 1), derived_seed(2024, 0)))
    w = _materialize_closed(x, 1_000_000 + 4)
    assert len(w) == 1_000_010
    assert w.endswith("10")


# ---------------------------------------------------------------------------
# The window counter against counting the generated windows
# ---------------------------------------------------------------------------

def assert_counts_match(sys, x, t0, t1, L):
    want = Counter(orbit_windows(sys, x, t0, t1, L))
    assert orbit_window_counts(sys, x, t0, t1, L) == dict(want)


@pytest.mark.parametrize("make", [shift_system,
                                  lambda: pi1_system(parity_oracle()),
                                  lambda: sigma2_system(SIGMA2_TABLE)],
                         ids=["shift", "pi1", "sigma2"])
@pytest.mark.parametrize("t0", [0, 37])
@pytest.mark.parametrize("L", [0, 1, 8, 9, 16, 17, 32, 33, 64, 65])
def test_window_counts_match_generated_windows(make, t0, L):
    # the shift and L = 65 (past the widest code) count the generated
    # windows
    x = binary_config("", Sampler(("0", "1"), (1, 1), derived_seed(3, L)))
    assert_counts_match(make(), x, t0, t0 + 400, L)


@pytest.mark.parametrize("t0, t1, L", [(0, 1, 6), (0, 6, 6), (0, 6, 10),
                                      (1, 2, 6), (1, 6, 3), (2, 6, 4)])
def test_window_counts_patch_a_rebirth_chain(t0, t1, L):
    # 0 1^2 0 at j1 = 2 is erased at step 0 (l == j1); its first 1 is
    # reborn at step 1 as 0 1 0 at j1 = 1, erased again (l == j1) and
    # reborn at step 2 at j1 = 0, where it survives.  The block at j1 = 7
    # is erased at step 0 and shows in the window only when L > 8; with
    # t1 = 1 the step-1 run lies past the last window.
    orc = OracleTable.programmed_table([Entry(1, QueryKind.EMPTY, time=1),
                                        Entry(2, QueryKind.EMPTY, time=2)])
    sys = pi1_system(orc)
    x = binary_config("00011000110", Constant("0"))
    assert list(orbit_windows(sys, x, 0, 4, 6)) == [
        "000110", "001000", "010000", "100000"]
    assert_counts_match(sys, x, t0, t1, L)


@pytest.mark.parametrize("L", [0, 1, 3, 8, 16, 17])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_window_counts_on_both_sides_of_every_code(L, extra):
    # 2^L + extra windows: at least 2^L are counted over every code, fewer
    # by sorting; either way the words come out in ascending order
    x = binary_config("", Sampler(("0", "1"), (1, 1), derived_seed(5, L)))
    sys, t1 = pi1_system(parity_oracle()), (1 << L) + extra
    want = Counter(orbit_windows(sys, x, 0, t1, L))
    assert list(orbit_window_counts(sys, x, 0, t1, L).items()) == sorted(
        want.items())


def test_window_counts_on_the_criterion_07_input():
    x = binary_config("", Sampler(("0", "1"), (1, 1), derived_seed(2024, 0)))
    assert_counts_match(pi1_system(parity_oracle()), x, 0, 100_000, 3)
