"""The block-erasure rule: one verdict behind the step map, the orbit
engine, the erasure maps in the limit and the attractor predicates.

The limit predicates the rule replaced are kept below as the reference
(``ref_*``), verdicts and witnesses alike; they read blocks through the
per-character parser kept in ``test_run_scanner.py``.  The per-step
readers, scalar and array, are checked against ``ref_erases_now`` from
``test_step_rules.py``, which reads no profile (phi' asks ``answer`` once
per block).
"""

import functools
import random
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symdyn.analysis import (NO, UNKNOWN, YES, MeetsVerdict, attractor_meets,
                             empirical_measure, omega_profile)
from symdyn.oracle import INF, Answer, Entry, HaltQuery, OracleTable, QueryKind
from symdyn.space import Constant, Cylinder, Periodic, Sampler, binary_config
from symdyn.systems import (ERASED, KEPT, UNRESOLVED, EraseKind, SystemId,
                            _rule, block_fate, erase_map_prefix, orbit,
                            pi1_system, sigma2_system, step_prefix)
from symdyn.verify import parity_oracle, worked_example_oracle

from test_run_scanner import ref_parse_blocks, tables
from test_step_rules import SOME_IN_HALT1, ref_erases_now
from test_systems import reference_orbit

# ---------------------------------------------------------------------------
# Reference limit predicates (the per-function copies the rule replaced)
# ---------------------------------------------------------------------------


def ref_run_halts_empty(oracle, l, budget):
    if oracle.programmed:
        return oracle.empty_halt_time(l) is not None
    if budget is None:
        raise ValueError("enumerated oracles need a budget")
    ans = oracle.answer(l, HaltQuery(QueryKind.EMPTY, budget))
    return True if ans is Answer.YES else None


def ref_meets_pi1(oracle, w, budget):
    dec = ref_parse_blocks(w)
    for j1, l in dec.blocks("1"):
        fate = ref_run_halts_empty(oracle, l, budget)
        if fate is True:
            return MeetsVerdict(NO, witness=f"block 01^{l} 0 at {j1}: M_{l} halts")
        if fate is None:
            return MeetsVerdict(UNKNOWN, witness=f"block 01^{l} 0 at {j1}")
    return MeetsVerdict(YES, witness=w + "1^inf")


def ref_meets_sigma2(oracle, w, budget):
    if not oracle.programmed:
        raise ValueError("the finite-domain predicates need a programmed table")
    dec = ref_parse_blocks(w)
    for j1, l in dec.blocks("1"):
        if not oracle.has_finite_domain(l):
            return MeetsVerdict(NO, witness=f"block 01^{l} 0 at {j1}: "
                                            f"M_{l} has infinite domain")
        j0 = w.rfind("1", 0, j1)
        if j0 >= 0 and oracle.halts_on_size_above(l, j1 - j0):
            return MeetsVerdict(
                NO, witness=f"factor 10^{j1 - j0}1^{l}0 at {j0}: "
                            f"M_{l} halts on a larger input")
    return MeetsVerdict(YES, witness=w + "1^inf")


def ref_phi_fate(oracle, l, gap, kind):
    if kind is EraseKind.PHI:
        return oracle.empty_halt_time(l) is not None
    return (not oracle.has_finite_domain(l)
            or oracle.halts_on_size_above(l, gap))


REPRO_TABLES = [
    OracleTable.programmed_table(
        [Entry(2, QueryKind.ALL_BELOW, k=3, time=2)], default="halt1"),
    OracleTable.programmed_table(
        [Entry(2, QueryKind.EMPTY, time=9), Entry(2, QueryKind.EMPTY, time=3)]),
]


def _config(data, max_prefix=20):
    prefix = data.draw(st.text(alphabet="01", max_size=max_prefix))
    tail = data.draw(st.sampled_from(["0", "01", "0011", "0111"]))
    return binary_config(prefix, Constant("0") if tail == "0" else Periodic(tail))


# ---------------------------------------------------------------------------
# Per-step rule: the orbit engine against the per-position map
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("orc, want", [
    # a listed machine does not take the halt-at-1 default
    (REPRO_TABLES[0], "0001100000"),
    # the least of two EMPTY times counts
    (REPRO_TABLES[1], "0000000000"),
])
def test_step_and_orbit_agree_on_repro_tables(orc, want):
    sys = pi1_system(orc)
    w = "0000110000000000"
    assert step_prefix(sys, w + "0" * sys.lookahead(10), 10) == want
    assert orbit(sys, binary_config(w, Constant("0")), 1, 10) == [want]


@settings(max_examples=200, deadline=None)
@given(tables, st.data())
def test_orbit_matches_reference_programmed(orc, data):
    x = _config(data)
    steps, window = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
    for sys in (pi1_system(orc), sigma2_system(orc)):
        assert orbit(sys, x, steps, window) == \
            reference_orbit(sys, x, steps, window)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_matches_reference_enumerated(data):
    orc = OracleTable.enumerated()
    sys = pi1_system(orc)
    x = _config(data)
    steps, window = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 8))
    assert orbit(sys, x, steps, window) == reference_orbit(sys, x, steps, window)
    # sigma2 enumerates every input size up to j1: keep the words short
    sys = sigma2_system(orc)
    x = binary_config(data.draw(st.text(alphabet="01", max_size=6)),
                      Constant("0"))
    window = data.draw(st.integers(1, 4))
    assert orbit(sys, x, 1, window) == reference_orbit(sys, x, 1, window)


# ---------------------------------------------------------------------------
# Per-step rule: the array reader against the scalar rule
# ---------------------------------------------------------------------------

@functools.cache
def _blocks(max_l, max_j1, kind):
    """Every (l, j1, gap) with l, j1 <= the bounds and gap in {None, 0..64},
    as a list and as the reader's three int64 columns (gap -1 for None).

    phi' keeps gap <= j1: a real block's gap never exceeds its j1 (the run
    before it ends at 1 or later), and past that its scalar rule asks for
    an empty size range, which HaltQuery refuses.
    """
    blocks = [(l, j1, gap) for l in range(max_l + 1)
              for j1 in range(max_j1 + 1) for gap in (None, *range(65))
              if kind is EraseKind.PHI or gap is None or gap <= j1]
    return blocks, [np.array([-1 if v is None else v for v in col], np.int64)
                    for col in zip(*blocks)]


def assert_readers_agree(orc, kinds=tuple(EraseKind), max_l=64, max_j1=64):
    # the rule object's step readers, array and scalar, against the rule
    # that reads no profile
    for kind in kinds:
        blocks, columns = _blocks(max_l, max_j1, kind)
        ref, rule = ref_erases_now(orc, kind), _rule(orc, kind)
        want = [ref(*blk) for blk in blocks]
        got = rule.blocks(*columns)
        assert got.dtype == bool
        assert got.tolist() == want, kind
        assert [rule.now(*blk) for blk in blocks] == want, kind


FAR_MACHINE = OracleTable.programmed_table(
    [Entry(10 ** 9, QueryKind.EMPTY, time=3),
     Entry(10 ** 9, QueryKind.SOME_IN, k=1, k_hi=10 ** 9, time=2),
     Entry(4, QueryKind.SOME_IN, k=1, k_hi=10 ** 12, time=10 ** 15),
     Entry(4, QueryKind.SOME_IN, k=0, k_hi=9, time=7)])


@pytest.mark.parametrize("orc", [
    worked_example_oracle(), parity_oracle(), SOME_IN_HALT1, FAR_MACHINE,
    OracleTable.programmed_table([]),
    OracleTable.programmed_table([], default="halt1")],
    ids=["worked", "parity", "halt1", "machine_1e9", "empty", "empty_halt1"])
def test_array_reader_matches_scalar_rule(orc):
    assert_readers_agree(orc)


@settings(max_examples=10, deadline=None)
@given(tables)
def test_array_reader_matches_scalar_rule_drawn_tables(orc):
    assert_readers_agree(orc)


def test_array_reader_matches_scalar_rule_enumerated():
    assert_readers_agree(OracleTable.enumerated(), kinds=(EraseKind.PHI,),
                         max_l=12, max_j1=12)


@pytest.mark.parametrize("kind", list(EraseKind))
def test_array_reader_on_no_blocks(kind):
    none = np.zeros(0, np.int64)
    for orc in (parity_oracle(), OracleTable.programmed_table([]),
                OracleTable.enumerated()):
        assert _rule(orc, kind).blocks(none, none, none).tolist() == []


# ---------------------------------------------------------------------------
# One rule object per SystemSpec reads each machine once
# ---------------------------------------------------------------------------

@contextmanager
def counted_reads(names=("empty_halt_time", "answer", "timed_facts",
                         "has_finite_domain")):
    """Count the calls of each table reader, by (reader, machine)."""
    reads = Counter()

    def counting(name):
        read = getattr(OracleTable, name)

        def counted(self, e, *args):
            reads[name, e] += 1
            return read(self, e, *args)
        return counted

    with mock.patch.multiple(OracleTable,
                             **{name: counting(name) for name in names}):
        yield reads


SIGMA2_FACTS = OracleTable.programmed_table(
    [Entry(e, QueryKind.SOME_IN, k=e % 3, k_hi=e % 3 + e % 5, time=e + 2)
     for e in range(1, 16)]
    + [Entry(2, QueryKind.SOME_IN, k=1, k_hi=INF, time=3),
       Entry(5, QueryKind.ALL_BELOW, k=INF, time=1),
       Entry(7, QueryKind.EMPTY, time=2)])


@pytest.mark.parametrize("make, orc", [
    (pi1_system, parity_oracle()), (pi1_system, worked_example_oracle()),
    (sigma2_system, SIGMA2_FACTS), (sigma2_system, SOME_IN_HALT1)],
    ids=["pi1_parity", "pi1_worked", "sigma2_facts", "sigma2_halt1"])
def test_each_machine_is_read_once_per_rule(make, orc):
    sys = make(orc)
    x = binary_config("", Sampler(("0", "1"), (1, 1), 5))
    words = [format(bits, "b").zfill(14) for bits in range(0, 1 << 14, 37)]
    with counted_reads() as reads:
        empirical_measure(sys, x, 3000, 3)
        omega_profile(sys, x, 100, 3000, 4)
        for _ in range(2):
            for w in words:
                step_prefix(sys, w, 6)
    assert {e for _, e in reads} & set(orc.listed_machines())
    assert max(reads.values()) == 1, reads.most_common(3)


# ---------------------------------------------------------------------------
# Limit rule: against the reference predicates
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(tables)
def test_block_fate_matches_reference(orc):
    # the limit reader, and the cuts it is constant between
    for kind in EraseKind:
        fate = block_fate(orc, kind)
        l_cuts, g_cuts = fate.cuts()
        for l in range(9):
            for gap in range(1, 9):
                want = ref_phi_fate(orc, l, gap, kind)
                assert fate(l, gap) == want
                lo = max(c for c in l_cuts if c <= l)
                assert ref_phi_fate(orc, lo, max(c for c in g_cuts
                                                 if c <= gap), kind) == want
    fate = block_fate(orc, EraseKind.PHI_PRIME)
    for l in range(9):
        assert fate(l, None) == (not orc.has_finite_domain(l))


@settings(max_examples=200, deadline=None)
@given(tables)
def test_phi_limit_is_the_step_rule_at_a_far_block(orc):
    # under phi a block erased in the limit is erased by one step once its
    # leading 0 lies past every asserted time
    fate = block_fate(orc, EraseKind.PHI)
    erased = _rule(orc, EraseKind.PHI).now
    for l in range(9):
        for gap in (None, *range(1, 9)):
            assert fate(l, gap) == erased(l, 10 ** 6, gap)


@settings(max_examples=200, deadline=None)
@given(tables, st.lists(st.text(alphabet="01", max_size=14), max_size=8))
def test_meets_matches_reference(orc, words):
    for w in words:
        for sid, ref in ((SystemId.PI1, ref_meets_pi1),
                         (SystemId.SIGMA2, ref_meets_sigma2)):
            assert attractor_meets(sid, Cylinder(w), orc) == ref(orc, w, None)


def test_meets_matches_reference_enumerated():
    orc = OracleTable.enumerated()
    rng = random.Random(11)
    for _ in range(200):
        w = "".join(rng.choice("01") for _ in range(rng.randint(0, 14)))
        budget = rng.choice([0, 1, 3, 8, 20])
        assert attractor_meets(SystemId.PI1, Cylinder(w), orc, budget) == \
            ref_meets_pi1(orc, w, budget)


@settings(max_examples=200, deadline=None)
@given(tables, st.text(alphabet="01", max_size=16))
def test_erase_map_matches_reference(orc, w):
    for kind in EraseKind:
        word, status = erase_map_prefix(kind, orc, w)
        for run in ref_parse_blocks(w).runs:
            cells = range(run.start, run.start + run.length)
            if run.symbol != "1" or run.bound_left is None:
                want = KEPT
            elif not run.bounded_right:
                want = UNRESOLVED
            else:
                j1 = run.bound_left
                j0 = w.rfind("1", 0, j1)
                if kind is EraseKind.PHI_PRIME and j0 < 0:
                    erased = not orc.has_finite_domain(run.length)
                else:
                    erased = ref_phi_fate(orc, run.length, j1 - j0, kind)
                want = ERASED if erased else KEPT
            assert all(status[i] == want for i in cells)
            assert all(word[i] == ("0" if want == ERASED else w[i])
                       for i in cells)


# ---------------------------------------------------------------------------
# Tables the limit rule cannot decide
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("w", ["", "0", "11", "0110", "10110"])
def test_sigma2_meets_needs_a_programmed_table(w):
    with pytest.raises(ValueError):
        attractor_meets(SystemId.SIGMA2, Cylinder(w), OracleTable.enumerated())


def test_enumerated_limit_needs_a_budget():
    orc = OracleTable.enumerated()
    with pytest.raises(ValueError):
        attractor_meets(SystemId.PI1, Cylinder("0110"), orc)
    with pytest.raises(ValueError):
        erase_map_prefix(EraseKind.PHI, orc, "0110")
    with pytest.raises(ValueError):
        erase_map_prefix(EraseKind.PHI_PRIME, orc, "10110", budget=8)
    with pytest.raises(ValueError):
        orc.empty_halt_time(1)
