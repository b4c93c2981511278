"""Machine numbering, bounded simulation, and oracle-table semantics."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from symdyn.oracle import (INF, Answer, Entry, HaltQuery, OracleTable,
                           QueryKind, TMSpec, decode_machine, encode_machine,
                           simulate_tm, table_from_json, table_to_json)


def test_decode_zero_is_halt_immediately():
    spec = decode_machine(0)
    assert simulate_tm(spec, "", 5) == 1
    assert simulate_tm(spec, "0110", 5) == 1


def test_decode_encode_roundtrip_on_specs():
    rng = random.Random(7)
    for _ in range(100):
        e = rng.randrange(0, 10 ** 6)
        spec = decode_machine(e)
        assert encode_machine(spec) == e
        assert decode_machine(encode_machine(spec)) == spec


def test_simulate_halt_time_is_reproducible():
    rng = random.Random(3)
    for _ in range(50):
        spec = decode_machine(rng.randrange(0, 10 ** 5))
        t = simulate_tm(spec, "1", 64)
        if t is not None:
            assert t <= 64
            assert simulate_tm(spec, "1", t) == t
            assert simulate_tm(spec, "1", t - 1) is None


def test_simulate_looping_machine():
    # a single state that moves right forever on every symbol
    loop = TMSpec(states=1, transitions=tuple((s, 1, 0) for s in range(3)))
    assert simulate_tm(loop, "", 100) is None


def test_programmed_empty_query_semantics():
    orc = OracleTable.programmed_table([Entry(e=1, kind=QueryKind.EMPTY, time=8)])
    assert orc.answer(1, HaltQuery(QueryKind.EMPTY, budget=8)) is Answer.YES
    assert (orc.answer(1, HaltQuery(QueryKind.EMPTY, budget=7))
            is Answer.NO_WITHIN_BUDGET)
    assert orc.answer(2, HaltQuery(QueryKind.EMPTY, budget=10 ** 6)) is Answer.NEVER


def test_enumerated_halt_immediately_all_below():
    orc = OracleTable.enumerated()
    q = HaltQuery(QueryKind.ALL_BELOW, budget=1, k=2)
    assert orc.answer(0, q) is Answer.YES


def test_enumerated_never_says_never():
    orc = OracleTable.enumerated()
    rng = random.Random(1)
    for _ in range(30):
        e = rng.randrange(0, 10 ** 4)
        a = orc.answer(e, HaltQuery(QueryKind.EMPTY, budget=16))
        assert a in (Answer.YES, Answer.NO_WITHIN_BUDGET)


def test_enumerated_programmed_agreement():
    enum = OracleTable.enumerated()
    rng = random.Random(5)
    for _ in range(20):
        e = rng.randrange(0, 10 ** 4)
        t = simulate_tm(decode_machine(e), "", 32)
        entry = Entry(e=e, kind=QueryKind.EMPTY, time=t)
        prog = OracleTable.programmed_table([entry] if t is not None else [])
        for budget in (0, 1, 16, 32):
            pa = prog.answer(e, HaltQuery(QueryKind.EMPTY, budget=budget))
            ea = enum.answer(e, HaltQuery(QueryKind.EMPTY, budget=budget))
            if t is not None:
                assert pa == ea
            else:
                assert ea is Answer.NO_WITHIN_BUDGET and pa is Answer.NEVER


_entry = st.builds(
    Entry,
    e=st.integers(0, 6),
    kind=st.sampled_from([QueryKind.EMPTY, QueryKind.ALL_BELOW,
                          QueryKind.SOME_IN]),
    time=st.one_of(st.none(), st.integers(0, 40)),
    k=st.one_of(st.none(), st.integers(0, 5)),
    k_hi=st.none(),
)


@given(entries=st.lists(_entry, max_size=6), e=st.integers(0, 6),
       budget=st.integers(0, 40), extra=st.integers(0, 40),
       default=st.sampled_from(["never", "halt1"]))
def test_budget_monotonicity(entries, e, budget, extra, default):
    entries = [x if x.kind is not QueryKind.SOME_IN
               else Entry(x.e, x.kind, x.time, k=x.k or 0, k_hi=(x.k or 0) + 2)
               for x in entries]
    orc = OracleTable.programmed_table(entries, default=default)
    t = orc.empty_halt_time(e)
    assert (orc.answer(e, HaltQuery(QueryKind.EMPTY, budget)) is Answer.YES) \
        == (t is not None and t <= budget)
    for q in (HaltQuery(QueryKind.EMPTY, budget),
              HaltQuery(QueryKind.ALL_BELOW, budget, k=3),
              HaltQuery(QueryKind.SOME_IN, budget, k=0, k_hi=INF)):
        if orc.answer(e, q) is Answer.YES:
            wider = HaltQuery(q.kind, budget + extra, k=q.k, k_hi=q.k_hi)
            assert orc.answer(e, wider) is Answer.YES


def test_json_round_trip_bit_exact():
    orc = OracleTable.programmed_table([
        Entry(e=1, kind=QueryKind.EMPTY, time=8),
        Entry(e=2, kind=QueryKind.EMPTY, time=None),
        Entry(e=3, kind=QueryKind.ALL_BELOW, k=INF, time=2),
        Entry(e=4, kind=QueryKind.ALL_BELOW, k=3, time=9),
        Entry(e=5, kind=QueryKind.SOME_IN, k=1, k_hi=INF, time=4),
        Entry(e=6, kind=QueryKind.SOME_IN, k=0, k_hi=7, time=11),
    ], default="halt1")
    text = table_to_json(orc)
    again = table_from_json(text)
    assert table_to_json(again) == text
    assert again.entries == orc.entries
    assert again.default_halts == orc.default_halts


def test_json_round_trip_enumerated():
    orc = OracleTable.enumerated(work_cap=1234)
    text = table_to_json(orc)
    assert json.loads(text) == {"backend": "enumerated", "work_cap": 1234}
    assert table_from_json(text) == orc
    with pytest.raises(ValueError):
        table_from_json('{"backend": "oracular"}')


def test_table_predicates():
    orc = OracleTable.programmed_table([
        Entry(e=3, kind=QueryKind.ALL_BELOW, k=INF, time=2),
        Entry(e=4, kind=QueryKind.ALL_BELOW, k=2, time=2),
        Entry(e=5, kind=QueryKind.SOME_IN, k=1, k_hi=INF, time=4),
        Entry(e=6, kind=QueryKind.SOME_IN, k=1, k_hi=3, time=4),
    ])
    assert orc.is_total(3) and not orc.is_total(4) and not orc.is_total(7)
    assert orc.halts_on_size_above(5, 100)
    assert orc.halts_on_size_above(6, 2) and not orc.halts_on_size_above(6, 3)
    assert not orc.has_finite_domain(5)
    assert orc.has_finite_domain(6) and orc.has_finite_domain(7)
    assert not orc.has_finite_domain(3)


def test_work_cap():
    from symdyn.oracle import WorkCapExceeded
    orc = OracleTable.enumerated(work_cap=1000)
    with pytest.raises(WorkCapExceeded):
        orc.answer(5, HaltQuery(QueryKind.ALL_BELOW, budget=100, k=20))


def test_replace_builds_a_fresh_index():
    from dataclasses import replace
    orc = OracleTable.programmed_table([
        Entry(e=1, kind=QueryKind.EMPTY, time=8),
        Entry(e=3, kind=QueryKind.EMPTY, time=4),
    ])
    fewer = replace(orc, entries=orc.entries[:1])
    assert fewer.empty_halt_time(1) == 8
    assert fewer.empty_halt_time(3) is None
    assert fewer.listed_machines() == [1]
    # the original's index is untouched: no duplicate entry for M1
    assert orc.listed_machines() == [1, 3]
    assert orc._entries_for(1) == [orc.entries[0]]
    assert orc.empty_halt_time(3) == 4
