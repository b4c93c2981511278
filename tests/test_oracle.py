"""Machine numbering, bounded simulation, and oracle-table semantics."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("field, value", [
    ("k", "0"), ("k", -1), ("k", 1.5), ("k", True), ("k", None),
    ("k", "never"), ("k_hi", "5"), ("k_hi", -2), ("time", "5"),
    ("time", -1), ("time", 2.0), ("time", "inf"), ("time", None)])
def test_json_rejects_malformed_fields(field, value):
    item = {"e": 1, "kind": "some_in", "k": 0, "k_hi": 5, "time": 1}
    table_from_json(json.dumps({"entries": [item]}))
    item[field] = value
    with pytest.raises(ValueError, match=field):
        table_from_json(json.dumps({"entries": [item]}))


@pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
def test_json_rejects_a_document_that_is_not_an_object(text):
    with pytest.raises(ValueError, match="JSON object"):
        table_from_json(text)


@pytest.mark.parametrize("value", [1.9, True, -4, "7", None])
def test_json_rejects_a_malformed_machine_index(value):
    item = {"e": value, "kind": "empty", "time": 1}
    with pytest.raises(ValueError, match="e must be"):
        table_from_json(json.dumps({"entries": [item]}))


@pytest.mark.parametrize("value", ["Halt1", "halts", None, 1])
def test_json_rejects_an_unknown_default(value):
    with pytest.raises(ValueError, match="default"):
        table_from_json(json.dumps({"default": value, "entries": []}))


@pytest.mark.parametrize("value", [-5, 2.5, True, "100"])
def test_json_rejects_a_malformed_work_cap(value):
    with pytest.raises(ValueError, match="work_cap"):
        table_from_json(json.dumps({"backend": "enumerated",
                                    "work_cap": value}))


def test_json_omitted_sizes_read_unbounded():
    orc = table_from_json(json.dumps({"entries": [
        {"e": 1, "kind": "empty", "time": 3},
        {"e": 2, "kind": "some_in", "time": "never"}]}))
    assert orc.entries == (Entry(1, QueryKind.EMPTY, 3),
                           Entry(2, QueryKind.SOME_IN, None, k=INF, k_hi=INF))


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


def test_enumerated_all_below_unbounded_is_refused():
    from symdyn.oracle import WorkCapExceeded
    orc = OracleTable.enumerated()
    with pytest.raises(WorkCapExceeded, match="unboundedly many inputs"):
        orc.answer(0, HaltQuery(QueryKind.ALL_BELOW, budget=1, k=INF))


def _inputs(lo, hi):
    return [format(b, "b").zfill(n) if n else ""
            for n in range(lo, hi + 1) for b in range(2 ** n)]


def test_enumerated_answers_match_direct_simulation():
    # ALL_BELOW is YES exactly when every input of size < k halts within
    # the budget, SOME_IN exactly when some input of size in [k, k_hi]
    # does (k_hi at most the budget); both kinds answer each way here
    orc = OracleTable.enumerated()
    rng = random.Random(11)
    seen = set()
    for e in [0, 1, 2, *(rng.randrange(10 ** 4) for _ in range(40))]:
        spec = decode_machine(e)
        for budget in (1, 4, 9):
            for k in range(4):
                halts = [simulate_tm(spec, w, budget) is not None
                         for w in _inputs(0, k - 1)]
                got = orc.answer(e, HaltQuery(QueryKind.ALL_BELOW, budget, k=k))
                assert got is (Answer.YES if all(halts)
                               else Answer.NO_WITHIN_BUDGET), (e, budget, k)
                seen.add((QueryKind.ALL_BELOW, got))
                for k_hi in [h for h in (k, k + 2) if h <= budget]:
                    halts = [simulate_tm(spec, w, budget) is not None
                             for w in _inputs(k, k_hi)]
                    got = orc.answer(e, HaltQuery(QueryKind.SOME_IN, budget,
                                                  k=k, k_hi=k_hi))
                    assert got is (Answer.YES if any(halts)
                                   else Answer.NO_WITHIN_BUDGET), (e, budget, k)
                    seen.add((QueryKind.SOME_IN, got))
    assert seen == {(kind, a) for kind in (QueryKind.ALL_BELOW,
                                           QueryKind.SOME_IN)
                    for a in (Answer.YES, Answer.NO_WITHIN_BUDGET)}


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
    assert orc._facts[1][QueryKind.EMPTY] == [orc.entries[0]]
    assert orc.empty_halt_time(3) == 4


# ---------------------------------------------------------------------------
# Reference readers: the per-call entry walks the fact index replaced
# ---------------------------------------------------------------------------


def _ref_listed(orc, e):
    return [x for x in orc.entries if x.e == e]


def _ref_least(ents, kind, fits):
    return min((x.time for x in ents
                if x.kind is kind and x.time is not None and fits(x)),
               default=None)


def ref_empty_halt_time(orc, e):
    ents = _ref_listed(orc, e)
    if not ents:
        return 1 if orc.default_halts else None
    return _ref_least(ents, QueryKind.EMPTY, lambda x: True)


def ref_all_below_time(orc, e, k):
    ents = _ref_listed(orc, e)
    if not ents:
        return 1 if orc.default_halts else None
    return _ref_least(ents, QueryKind.ALL_BELOW,
                      lambda x: x.k is INF or (k is not INF and x.k >= k))


def ref_is_total(orc, e):
    return ref_all_below_time(orc, e, INF) is not None


def ref_halts_on_size_above(orc, e, k):
    ents = _ref_listed(orc, e)
    if not ents:
        return orc.default_halts
    for ent in ents:
        if ent.kind is QueryKind.SOME_IN and ent.time is not None:
            if ent.k_hi is INF or ent.k_hi > k:
                return True
    return False


def ref_has_finite_domain(orc, e):
    ents = _ref_listed(orc, e)
    if not ents:
        return not orc.default_halts
    for ent in ents:
        if ent.kind is QueryKind.SOME_IN and ent.time is not None and ent.k_hi is INF:
            return False
        if ent.kind is QueryKind.ALL_BELOW and ent.time is not None and ent.k is INF:
            return False
    return True


def ref_answer(orc, e, q):
    ents = _ref_listed(orc, e)
    if q.kind is QueryKind.EMPTY:
        best = ref_empty_halt_time(orc, e)
    elif q.kind is QueryKind.ALL_BELOW:
        best = ref_all_below_time(orc, e, q.k)
    elif not ents:
        best = 1 if orc.default_halts else None
    else:
        # SOME_IN: an entry answers when its size range lies inside the query's
        best = _ref_least(ents, QueryKind.SOME_IN,
                          lambda x: x.k is not INF
                          and (q.k is None or x.k >= q.k)
                          and (q.k_hi is INF
                               or (x.k_hi is not INF and x.k_hi <= q.k_hi)))
    if best is None:
        return Answer.NEVER
    return Answer.YES if best <= q.budget else Answer.NO_WITHIN_BUDGET


# Tables over machines 0..7: "never" times, INF bounds, SOME_IN facts whose
# low end k is None (what table_from_json builds when a file omits k) and
# duplicated entries, under either default.
_SIZES = [*range(9), INF]
_fact_size = st.sampled_from(_SIZES)


@st.composite
def _fact(draw):
    e = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(list(QueryKind)))
    time = draw(st.one_of(st.none(), st.integers(0, 14)))
    if kind is QueryKind.EMPTY:
        return Entry(e, kind, time)
    k = draw(_fact_size)
    if kind is QueryKind.ALL_BELOW:
        return Entry(e, kind, time, k=k)
    gap = draw(_fact_size)
    k_hi = INF if gap is INF else (k or 0) + gap
    return Entry(e, kind, time, k=k, k_hi=k_hi)


@st.composite
def _indexed_tables(draw):
    facts = draw(st.lists(_fact(), max_size=10))
    if facts:
        facts += draw(st.lists(st.sampled_from(facts), max_size=3))
    return OracleTable.programmed_table(
        facts, default=draw(st.sampled_from(["never", "halt1"])))


def _queries(budget):
    yield HaltQuery(QueryKind.EMPTY, budget)
    for k in _SIZES:
        yield HaltQuery(QueryKind.ALL_BELOW, budget, k=k)
        if k is INF:
            yield HaltQuery(QueryKind.SOME_IN, budget, k=None, k_hi=INF)
            continue
        for gap in _SIZES:
            yield HaltQuery(QueryKind.SOME_IN, budget, k=k,
                            k_hi=INF if gap is INF else k + gap)


@settings(max_examples=150, deadline=None)
@given(_indexed_tables(), st.integers(0, 14))
def test_index_answers_as_the_entry_walk(orc, budget):
    queries = list(_queries(budget))
    for e in range(8):
        for q in queries:
            assert orc.answer(e, q) is ref_answer(orc, e, q), (e, q)


@settings(max_examples=150, deadline=None)
@given(_indexed_tables())
def test_index_predicates_as_the_entry_walk(orc):
    for e in range(8):
        assert orc.empty_halt_time(e) == ref_empty_halt_time(orc, e)
        assert orc.is_total(e) == ref_is_total(orc, e)
        assert orc.has_finite_domain(e) == ref_has_finite_domain(orc, e)
        for k in _SIZES:
            assert orc.all_below_time(e, k) == ref_all_below_time(orc, e, k)
        for k in range(9):
            assert (orc.halts_on_size_above(e, k)
                    == ref_halts_on_size_above(orc, e, k))
    assert orc.listed_machines() == list(dict.fromkeys(x.e for x in orc.entries))


@pytest.mark.parametrize("read", [
    lambda orc: orc.empty_halt_time(0),
    lambda orc: orc.all_below_time(0, 2),
    lambda orc: orc.is_total(0),
    lambda orc: orc.halts_on_size_above(0, 2),
    lambda orc: orc.has_finite_domain(0),
])
def test_predicates_need_a_programmed_table(read):
    with pytest.raises(ValueError):
        read(OracleTable.enumerated())
