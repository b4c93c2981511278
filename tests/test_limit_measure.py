"""The exact limit measure: verdict classes summed in closed form.

Two references are kept below, both reading runs through the
per-character parser kept in ``test_run_scanner.py``.  ``ref_tilde_mu``
is the per-word enumeration: it reruns the whole window × environment sum
for each word, with a sentinel index raised by ``truncation``.
``ref_limit_measure`` is the one-pass enumeration that replaced it: every
window through every environment index up to the largest listed machine
or finite ``k_hi``, with ``Fraction`` masses.
"""

import hashlib
from collections import defaultdict
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from symdyn.analysis import tilde_mu, tilde_mu_table
from symdyn.oracle import INF, Entry, OracleTable, QueryKind
from symdyn.systems import EraseKind, block_fate
from symdyn.verify import parity_oracle, worked_example_oracle

from test_run_scanner import ref_parse_blocks

# ---------------------------------------------------------------------------
# Reference: the per-word enumeration
# ---------------------------------------------------------------------------


def ref_tilde_mu(oracle, p, u, truncation, kind=EraseKind.PHI):
    """(lower, upper) of the limit measure of [u], one word at a time."""
    p = Fraction(p)
    q = 1 - p
    L = len(u)
    if L == 0:
        return Fraction(1), Fraction(1)

    listed = oracle.listed_machines()
    l_big = max(listed, default=0) + 1
    finite_his = [e.k_hi for e in oracle.entries
                  if e.kind is QueryKind.SOME_IN and e.k_hi is not INF]
    k_big = max(finite_his, default=0) + 1
    T = max(truncation, l_big, k_big)
    BIG = None
    need_gap = kind is EraseKind.PHI_PRIME
    rule = block_fate(oracle, kind)

    def fate(l_tot, gap):
        return rule(l_big if l_tot is BIG else l_tot,
                    k_big if gap is BIG else gap)

    if need_gap:
        contexts = [(a, z, p ** (a + 1) * q ** (z + 1))
                    for a in range(T + 1) for z in range(T + 1)]
        contexts += [(a, BIG, p ** a * q ** (T + 2)) for a in range(T + 1)]
        contexts += [(BIG, z, p ** (T + 2) * q ** z) for z in range(T + 1)]
        contexts += [(BIG, BIG, p ** (T + 1) * q ** (T + 1))]
    else:
        contexts = [(a, 0, p ** a * q) for a in range(T + 1)]
        contexts += [(BIG, 0, p ** (T + 1))]

    yes = Fraction(0)
    total = Fraction(0)
    for bits in range(1 << L):
        w = format(bits, "b").zfill(L)
        w_prob = Fraction(1)
        for c in w:
            w_prob *= p if c == "1" else q
        one_runs = [r for r in ref_parse_blocks(w).runs if r.symbol == "1"]
        for a, z, ctx_prob in contexts:
            base = ctx_prob * w_prob
            img = list(w)
            open_run = None
            prev_one = None
            for r in one_runs:
                start, l = r.start, r.length
                if start == 0 and a != 0:
                    l_tot = BIG if a is BIG else a + l
                    gap = BIG if z is BIG else z + 1
                else:
                    if prev_one is None:
                        gap = (start if a != 0
                               else (BIG if z is BIG else start + z + 1))
                    else:
                        gap = start - 1 - prev_one
                    l_tot = l
                if not r.bounded_right:
                    open_run = (start, l, l_tot, gap)
                    break
                if fate(l_tot, gap):
                    for i in range(start, start + l):
                        img[i] = "0"
                prev_one = start + l - 1
            if open_run is None:
                total += base
                if "".join(img) == u:
                    yes += base
                continue
            start, l, l_tot, gap = open_run
            exts = ([(e, p ** e * q) for e in range(T + 1)]
                    + [(BIG, p ** (T + 1))])
            for e, e_prob in exts:
                total += base * e_prob
                img2 = img.copy()
                full = BIG if (e is BIG or l_tot is BIG) else l_tot + e
                if fate(full, gap):
                    for i in range(start, start + l):
                        img2[i] = "0"
                if "".join(img2) == u:
                    yes += base * e_prob

    assert total == 1
    return yes, yes


# ---------------------------------------------------------------------------
# Reference: the one-pass enumeration over every environment index
# ---------------------------------------------------------------------------


def ref_limit_measure(oracle, p, L, kind):
    """{word: mass} of the length-``L`` windows: each (window, environment)
    pair adds its mass to the bucket of its image, with the index T + 1
    standing for the whole geometric tail past T."""
    p = Fraction(p)
    q = 1 - p
    l_big = max(oracle.listed_machines(), default=0) + 1
    k_big = max((e.k_hi for e in oracle.entries
                 if e.kind is QueryKind.SOME_IN and e.k_hi is not INF),
                default=0) + 1
    T = max(l_big, k_big)
    fate = block_fate(oracle, kind)

    def geometric(r, s):
        return ([(n, r ** n * s) for n in range(T + 1)]
                + [(T + 1, r ** (T + 1))])

    # left contexts ... 1 0^{z+1} 1^a | window
    gaps = geometric(q, p) if kind is EraseKind.PHI_PRIME else [(0, 1)]
    contexts = [(a, z, pa * pz) for a, pa in geometric(p, q) for z, pz in gaps]
    tails = geometric(p, q)

    mass = defaultdict(Fraction)
    for w in words(L):
        w_prob = p ** w.count("1") * q ** w.count("0")
        runs = [(r.start, r.length) for r in ref_parse_blocks(w).runs
                if r.symbol == "1"]
        for a, z, ctx_prob in contexts:
            base = ctx_prob * w_prob
            img = list(w)
            open_run = None
            prev_one = -1 if a else -z - 2
            for start, l in runs:
                l_tot = l + a if start == 0 else l
                gap = z + 1 if start == 0 else start - 1 - prev_one
                if start + l == L:
                    open_run = (start, l_tot, gap)
                    break
                if fate(l_tot, gap):
                    img[start:start + l] = "0" * l
                prev_one = start + l - 1
            kept = "".join(img)
            if open_run is None:
                mass[kept] += base
                continue
            start, l_tot, gap = open_run
            erased = kept[:start] + "0" * (L - start)
            for e, e_prob in tails:
                mass[erased if fate(l_tot + e, gap) else kept] += base * e_prob

    assert sum(mass.values()) == 1
    return mass


def words(depth):
    if depth == 0:
        return [""]
    return [format(i, "b").zfill(depth) for i in range(1 << depth)]


# ---------------------------------------------------------------------------
# Tables: EMPTY, ALL_BELOW and SOME_IN entries, finite and unbounded k_hi,
# duplicate entries, halt-at-1 defaults
# ---------------------------------------------------------------------------

@st.composite
def _entry(draw, top_e=6, top_k=4):
    e = draw(st.integers(0, top_e))
    kind = draw(st.sampled_from(list(QueryKind)))
    time = draw(st.one_of(st.none(), st.integers(0, 12)))
    if kind is QueryKind.EMPTY:
        return Entry(e, kind, time)
    k = draw(st.integers(0, top_k))
    if kind is QueryKind.ALL_BELOW:
        return Entry(e, kind, time, k=draw(st.sampled_from([k, INF])))
    k_hi = draw(st.one_of(st.just(INF), st.integers(k, k + 4)))
    return Entry(e, kind, time, k=k, k_hi=k_hi)


@st.composite
def tables(draw, top_e=6, top_k=4):
    entries = draw(st.lists(_entry(top_e, top_k), max_size=6))
    if entries and draw(st.booleans()):
        entries.append(draw(st.sampled_from(entries)))      # a duplicate
    return OracleTable.programmed_table(
        entries, default=draw(st.sampled_from(["never", "halt1"])))


kinds = st.sampled_from(list(EraseKind))
weights = st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)])
truncations = st.sampled_from([0, 3, 9])


@settings(max_examples=60, deadline=None)
@given(tables(), weights, st.integers(0, 3), truncations, kinds)
def test_table_matches_per_word_reference(oracle, p, depth, truncation, kind):
    table = tilde_mu_table(oracle, p, depth, truncation, kind)
    assert list(table) == words(depth)
    for w, est in table.items():
        assert (est.lower, est.upper) == ref_tilde_mu(oracle, p, w,
                                                      truncation, kind), w
        assert est.word == w and est.truncation == truncation
    assert sum(e.lower for e in table.values()) == 1


@settings(max_examples=60, deadline=None)
@given(tables(), weights, st.integers(0, 3), truncations, kinds, st.data())
def test_word_matches_per_word_reference(oracle, p, depth, truncation, kind,
                                         data):
    u = data.draw(st.sampled_from(words(depth)))
    est = tilde_mu(oracle, p, u, truncation, kind)
    assert (est.lower, est.upper) == ref_tilde_mu(oracle, p, u, truncation,
                                                  kind)


def test_programmed_examples_match_reference():
    """Fixed tables whose sentinel index sits well above 0, set by the
    machines (up to 6) or by a finite k_hi (8) on a short block."""
    cases = [
        worked_example_oracle(),
        OracleTable.programmed_table(
            [Entry(6, QueryKind.EMPTY, time=3),
             Entry(2, QueryKind.SOME_IN, 2, k=1, k_hi=8)]),
        OracleTable.programmed_table(
            [Entry(1, QueryKind.SOME_IN, 2, k=3, k_hi=8)]),
        OracleTable.programmed_table(
            [Entry(5, QueryKind.SOME_IN, 1, k=0, k_hi=7),
             Entry(5, QueryKind.SOME_IN, None, k=0, k_hi=INF),
             Entry(1, QueryKind.ALL_BELOW, 4, k=INF)], default="halt1"),
    ]
    for oracle in cases:
        for kind in EraseKind:
            table = tilde_mu_table(oracle, Fraction(1, 3), 3, 0, kind)
            for w, est in table.items():
                assert (est.lower, est.upper) == ref_tilde_mu(
                    oracle, Fraction(1, 3), w, 0, kind), (kind, w)


def test_empty_word_has_mass_one():
    oracle = worked_example_oracle()
    assert tilde_mu_table(oracle, Fraction(1, 2), 0, 5) == {
        "": tilde_mu(oracle, Fraction(1, 2), "", 5)}
    assert tilde_mu(oracle, Fraction(1, 2), "", 5).lower == 1


def test_words_outside_the_alphabet_have_mass_zero():
    assert tilde_mu(worked_example_oracle(), Fraction(1, 2), "0S",
                    4).upper == 0



# ---------------------------------------------------------------------------
# Verdict classes against the one-pass enumeration
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(tables(top_e=40, top_k=36), weights, st.integers(0, 4), kinds,
       st.data())
def test_classes_match_one_pass_reference(oracle, p, depth, kind, data):
    """Machines up to 40 and finite k_hi up to 40 put the reference's
    index T far above the window; both tilde_mu forms read the same mass."""
    ref = ref_limit_measure(oracle, p, depth, kind)
    table = tilde_mu_table(oracle, p, depth, 0, kind)
    assert list(table) == words(depth)
    assert {w: e.lower for w, e in table.items()} == {w: ref[w]
                                                      for w in words(depth)}
    assert all(e.lower == e.upper for e in table.values())
    u = data.draw(st.sampled_from(words(depth)))
    assert tilde_mu(oracle, p, u, 0, kind).lower == ref[u]


def _digest(table):
    return hashlib.sha256("".join(f"{w} {e.lower}\n" for w, e in
                                  table.items()).encode()).hexdigest()


def test_parity_tables_are_pinned():
    """The parity tables whose enumeration took seconds, pinned to the
    values that enumeration gave."""
    half = Fraction(1, 2)
    assert _digest(tilde_mu_table(parity_oracle(), half, 3, 24,
                                  EraseKind.PHI_PRIME)) == (
        "79a0f7d564a9d2f6193560278fbe61bb0c4b7d47389e56c39ac28234ea6ea8b1")
    assert _digest(tilde_mu_table(parity_oracle(), half, 8, 24,
                                  EraseKind.PHI)) == (
        "9cf53618d26d2f22c9cc367c572871f68b0643dde99c8d8b7510997209f87cb2")


def test_far_machine_moves_little_mass():
    """A single halting machine at e = 10^4 erases only blocks of exactly
    that length.  The tables differ only where such a run meets the window:
    at most e + depth - 1 placements, each of mass q^2 p^e."""
    e, depth, p = 10 ** 4, 3, Fraction(1, 2)
    far = tilde_mu_table(OracleTable.programmed_table(
        [Entry(e, QueryKind.EMPTY, time=5)]), p, depth, 0)
    empty = tilde_mu_table(OracleTable.programmed_table([]), p, depth, 0)
    assert sum(est.lower for est in far.values()) == 1
    assert far != empty
    tv = sum(abs(far[w].lower - empty[w].lower) for w in far) / 2
    assert 0 < tv <= (e + depth - 1) * (1 - p) ** 2 * p ** e
