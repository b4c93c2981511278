"""Fat-Cantor interval scheme, the embedding, and the extended map."""

import dataclasses
import functools
import io
import math
import random
import threading
from fractions import Fraction
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest

from symdyn import cantor
from symdyn.cantor import (CantorScheme, GapLocation, InGap, InLevelInterval,
                           escape_fraction, export_intervals, f_eval, gap_map,
                           locate, phi_point)
from symdyn.oracle import INF, Entry, OracleTable, QueryKind
from symdyn.space import (ALPHA_01S, Configuration, Constant, Periodic,
                          Sampler, binary_config)
from symdyn.systems import (SystemSpec, pi1_system, pi2_system,
                            shift_system, sigma2_system, step_prefix)

F = Fraction
NEVER = OracleTable.programmed_table([])
SOME_IN = OracleTable.programmed_table([
    Entry(e=1, kind=QueryKind.SOME_IN, k=0, k_hi=2, time=3),
    Entry(e=2, kind=QueryKind.SOME_IN, k=1, k_hi=3, time=2),
    Entry(e=3, kind=QueryKind.SOME_IN, k=2, k_hi=INF, time=5)])


@pytest.fixture(scope="module")
def scheme():
    return CantorScheme()


def interval_length(scheme, w):
    """|I_w|, from the exact endpoints."""
    lo, hi = scheme.interval_of_word(w)
    return hi - lo


# -- slow Fraction references for the integer paths --------------------------

class ReferenceScheme:
    """The per-word Fraction recursion the integer level table replaced:
    I_w is read off the child layout of I_{w[:-1]}, memoized per word."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.memo = {"": (F(0), F(1))}

    def child_layout(self, w):
        """(child length, gap length, list of child left endpoints) of I_w."""
        lo, hi = self.interval_of_word(w)
        length, k = hi - lo, self.scheme.k
        b = self.scheme.contraction(len(w))
        child = b * length / k
        gap = (1 - b) * length / (k - 1)
        return child, gap, [lo + j * (child + gap) for j in range(k)]

    def interval_of_word(self, w):
        if w not in self.memo:
            child, _, starts = self.child_layout(w[:-1])
            j = self.scheme.alphabet.symbols.index(w[-1])
            self.memo[w] = (starts[j], starts[j] + child)
        return self.memo[w]

    def gap(self, w, j):
        child, _, starts = self.child_layout(w)
        return GapLocation(w, j, starts[j] + child, starts[j + 1])


@functools.cache
def reference_level_layout(scheme, n):
    """(child length, child-to-child stride) shared by all level-n I_w,
    from the Fraction formula the integer recurrence replaced."""
    length = scheme.level_measure(n) / F(scheme.k) ** n
    b = scheme.contraction(n)
    child = b * length / scheme.k
    gap = (1 - b) * length / (scheme.k - 1)
    return child, child + gap


def reference_locate(scheme, y, depth):
    """locate as a Fraction walk down ``reference_level_layout``."""
    y = F(y)
    if not 0 <= y <= 1:
        raise ValueError("point outside [0, 1]")
    w, lo = "", F(0)
    for n in range(depth):
        child, stride = reference_level_layout(scheme, n)
        j = min(int((y - lo) / stride), scheme.k - 1)
        start = lo + j * stride
        if y > start + child:  # strictly inside the gap right of child j
            return InGap(GapLocation(w, j, start + child, start + stride))
        w += scheme.alphabet.symbols[j]
        lo = start
    return InLevelInterval(w)


def reference_gap_eval(gm, y):
    """The three-piece gap map evaluated in Fraction arithmetic."""
    y = F(y)
    if not gm.a <= y <= gm.b:
        raise ValueError("point outside this gap")
    q1, q3 = gm.q1, gm.q3
    if y <= q1:
        return gm.fa + (y - gm.a) / (q1 - gm.a) * (gm.target_lo - gm.fa)
    if y <= q3:
        return gm.target_lo + (y - q1) / (q3 - q1) * (gm.target_hi - gm.target_lo)
    return gm.target_hi + (y - q3) / (gm.b - q3) * (gm.fb - gm.target_hi)


def reference_integer_form(gm):
    """The gap map's integer form built piece by piece from ``Fraction``
    slopes and intercepts, as before the six values shared one
    denominator: (g, breakpoints times g, pieces (u, v, w))."""
    q1, q3 = gm.q1, gm.q3
    pieces = []
    for x0, x1, v0, v1 in ((gm.a, q1, gm.fa, gm.target_lo),
                           (q1, q3, gm.target_lo, gm.target_hi),
                           (q3, gm.b, gm.target_hi, gm.fb)):
        slope = (v1 - v0) / (x1 - x0)
        icpt = v0 - slope * x0
        w = math.lcm(slope.denominator, icpt.denominator)
        pieces.append((slope.numerator * (w // slope.denominator),
                       icpt.numerator * (w // icpt.denominator), w))
    xs = (gm.a, q1, q3, gm.b)
    g = math.lcm(*(x.denominator for x in xs))
    return g, tuple(x.numerator * (g // x.denominator) for x in xs), pieces


def reference_escaped(scheme, sys, iterations, samples, master_seed, depth):
    """The escape loop on Fractions: count samples whose first
    ``iterations`` + 1 iterates all lie strictly inside gaps."""
    rng = np.random.default_rng(master_seed)
    den = 2 ** 53
    escaped = 0
    for _ in range(samples):
        y = F(int(rng.integers(0, den)), den)
        for step in range(iterations + 1):
            loc = reference_locate(scheme, y, depth)
            if isinstance(loc, InLevelInterval):
                break
            if step == iterations:
                escaped += 1
                break
            y = reference_gap_eval(gap_map(scheme, sys, loc.gap), y)
    return escaped


def reference_descend(scheme, p, q, depth):
    """The level-by-level integer descent the block descent replaced, for
    one point y = p/q: (n, index, j, a, b, D), where j is None when y lies
    in the level-depth interval numbered ``index``, and otherwise y lies
    strictly inside the j-th gap (a/D, b/D) of the level-n word numbered
    ``index``.  One floor division per level, growing the table by the
    level it reads next."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    den, levels = scheme._grid
    yd, rem = divmod(p * den, q)
    t, frac = yd, rem != 0
    k, index = scheme.k, 0
    for n in range(depth):
        if n == len(levels):
            lo = yd - t
            d, levels = scheme._integer_layout(n)
            lo *= d // den
            den = d
            yd, rem = divmod(p * den, q)
            t, frac = yd - lo, rem != 0
        stride, child = levels[n]
        j, t = divmod(t, stride)
        if t + frac > child:  # strictly inside the gap right of child j
            start = yd - t
            return n, index, j, start + child, start + stride, den
        index = index * k + j
    return depth, index, None, 0, 0, den


def reference_gap_at(scheme, n, index, j, a, b, den):
    """The gap a ``reference_descend`` that stopped in one names."""
    return GapLocation(scheme._word_at(n, index), j, F(a, den), F(b, den))


_BLOCK = 8    # levels per numpy descent: 2^8 descendant offsets per block
# _DIGITS[d]: the letters of block descendant d, first level first
_DIGITS = (np.arange(2 ** _BLOCK)[:, None]
           >> np.arange(_BLOCK - 1, -1, -1)) & 1
# the number of trailing 1-bits of each block descendant index
_TRAILING_ONES = np.array([(~d & (d + 1)).bit_length() - 1
                           for d in range(2 ** _BLOCK)])


def reference_descent_blocks(scheme, depth):
    """(D, blocks) of the numpy batch descent of a binary scheme: the table
    cut to ``depth`` and divided by the gcd of its entries; each block is
    (L, m, offsets, child) for the m <= 8 levels from L on, in int64 while
    D has at most 62 bits and Python-int object arrays past that."""
    den, levels = scheme._integer_layout(depth - 1)
    levels = levels[:depth]
    g = math.gcd(den, *(x for row in levels for x in row))
    dtype = np.int64 if (den // g).bit_length() <= 62 else object
    blocks = []
    for start in range(0, depth, _BLOCK):
        rows = levels[start:start + _BLOCK]
        m = len(rows)
        offsets = (_DIGITS[:2 ** m, _BLOCK - m:]
                   @ np.array([s // g for s, _ in rows], dtype))
        blocks.append((start, m, offsets, rows[-1][1] // g))
    return den // g, blocks


def reference_gaps_of(den, blocks, points):
    """The numpy batch descent the one Python descent replaced: the
    samples among ``points`` (p, q) strictly inside a gap of level < depth,
    as tuples (i, n, index, a, b) with the gap (a/D, b/D) of the level-n
    word numbered ``index``; one ``searchsorted`` per block for all live
    samples."""
    if not blocks:          # depth 0: nothing lies in a gap
        return []
    whole, frac = [], []
    for p, q in points:
        t, rem = divmod(p * den, q)
        whole.append(t)
        frac.append(rem != 0)
    dtype = blocks[0][2].dtype
    y = np.array(whole, dtype)              # floor(y*D)
    t, up = y, np.array(frac, bool)
    live = np.arange(len(points))
    word = np.zeros(len(points), dtype)     # index of the level-L word
    found = []
    for start, m, offsets, child in blocks:
        d = np.searchsorted(offsets, t, side="right") - 1
        t = t - offsets[d]
        gap = t + up > child
        if gap.any():
            dg = d[gap]
            r = _TRAILING_ONES[dg]
            lo = y[gap] - t[gap]
            index = (word[gap] << (m - 1 - r)) | (dg >> (r + 1))
            found += zip(live[gap].tolist(), (start + m - 1 - r).tolist(),
                         index.tolist(), (lo + child).tolist(),
                         (lo + offsets[dg + 1] - offsets[dg]).tolist())
            keep = ~gap
            live, y, t, up, word, d = (live[keep], y[keep], t[keep],
                                       up[keep], word[keep], d[keep])
        word = (word << m) | d
    return found


def reference_gap_map(scheme, sys, gap):
    """``gap_map`` as built from ``Fraction`` endpoints through
    ``interval_of_word``, before the integer gap values."""
    syms = scheme.alphabet.symbols
    bot, top = syms[0], syms[-1]
    w = gap.parent
    images = []
    for child, tail in ((w + syms[gap.index], top),
                        (w + syms[gap.index + 1], bot)):
        d = len(child) + 8
        images.append(step_prefix(
            sys, child + tail * (sys.lookahead(d) - len(child)), d))
    fa = scheme.interval_of_word(images[0].rstrip(top))[1]
    fb = scheme.interval_of_word(images[1].rstrip(bot))[0]
    t_lo, t_hi = scheme.interval_of_word(images[0][:sys.modulus(len(w))])
    return cantor.GapMap(gap.a, gap.b, fa, fb, t_lo, t_hi)


def reference_escape_loop(scheme, sys, iterations, samples, master_seed,
                          depth):
    """The per-sample escape loop the batch descent replaced: one scalar
    draw per sample, then one ``reference_descend`` per step, with the gap
    maps kept per call under (n, index, j)."""
    rng = np.random.default_rng(master_seed)
    den = 2 ** 53
    cache = {}
    escaped = 0
    for _ in range(samples):
        p, q = int(rng.integers(0, den)), den
        for step in range(iterations + 1):
            found = reference_descend(scheme, p, q, depth)
            if found[2] is None:
                break                      # absorbed
            if step == iterations:
                escaped += 1
                break
            key = found[:3]
            gm = cache.get(key)
            if gm is None:
                gm = cache[key] = reference_gap_map(
                    scheme, sys, reference_gap_at(scheme, *found))
            p, q = cantor._image(gm._integer_form, p, q)
    return escaped


# -- interval recurrence ----------------------------------------------------

def test_interval_examples(scheme):
    assert scheme.interval_of_word("") == (0, 1)
    assert scheme.interval_of_word("0") == (0, F(3, 8))
    assert scheme.interval_of_word("1") == (F(5, 8), 1)
    assert scheme.interval_of_word("01") == (F(7, 32), F(12, 32))
    g = scheme.gap("0", 0)
    assert (g.a, g.b) == (F(5, 32), F(7, 32))
    assert g.b - g.a == F(1, 16)


def test_cantor_measure_examples(scheme):
    assert scheme.cantor_measure("") == F(1, 2)
    assert scheme.cantor_measure("0") == F(1, 4)
    assert scheme.cantor_measure("101") == F(1, 16)


def test_level_identities(scheme):
    # sum of level-n lengths is c_n; each |I_w| = 2^{-n} c_n; the level-n
    # gap length matches 2^{-(n-1)} (1 - b_{n-1}) prod_{i<n-1} b_i
    for n in range(10):
        words = [w for w in scheme.words(n) if len(w) == n]
        total = sum((interval_length(scheme, w) for w in words), F(0))
        assert total == scheme.level_measure(n)
        assert all(interval_length(scheme, w)
                   == scheme.level_measure(n) / 2 ** n for w in words)
        if n >= 1:
            prod = F(1)
            for i in range(n - 1):
                prod *= scheme.contraction(i)
            expected = F(1, 2 ** (n - 1)) * (1 - scheme.contraction(n - 1)) * prod
            g = scheme.gap("0" * (n - 1), 0)
            assert g.b - g.a == expected


def test_nesting_and_endpoint_sharing(scheme):
    for w in scheme.words(8):
        lo, hi = scheme.interval_of_word(w)
        l0, h0 = scheme.interval_of_word(w + "0")
        l1, h1 = scheme.interval_of_word(w + "1")
        assert l0 == lo and h1 == hi           # outer endpoints shared
        assert lo <= l0 < h0 < l1 < h1 <= hi   # nested with a real gap


def test_memo_is_pure_cache(scheme):
    # the integer level table grows only as deep as a call reaches, and a
    # fresh scheme gives the values of one whose table is already deeper
    scheme.interval_of_word("0" * 12)
    fresh = CantorScheme()
    assert fresh._grid == (1, ())
    for w in ("", "0110", "10101", "111111"):
        assert fresh.interval_of_word(w) == scheme.interval_of_word(w)
        assert len(fresh._grid[1]) == len(w)
        assert fresh.gap(w, 0) == scheme.gap(w, 0)
        assert len(fresh._grid[1]) == len(w) + 1


def _quadratic_measure(n):
    return F(1, 3) + F(2, 3) / (n + 1) ** 2


def _triadic_measure(n):
    return F(1, 2) + F(1, 2 * 3 ** n)


_SCHEMES = {
    "binary": lambda: CantorScheme(),
    "ternary": lambda: CantorScheme(ALPHA_01S),
    "custom-measure": lambda: CantorScheme(level_measure=_quadratic_measure,
                                           limit=F(1, 3)),
    "triadic-measure": lambda: CantorScheme(level_measure=_triadic_measure),
}


@pytest.mark.parametrize("make", _SCHEMES.values(), ids=_SCHEMES.keys())
def test_level_table_matches_fraction_formula(make):
    # every entry over D is the Fraction layout of its level, and D is the
    # lcm of the reduced layout denominators: no larger than it must be
    s = make()
    den, levels = s._integer_layout(48)
    assert len(levels) == 49
    ref = [reference_level_layout(s, n) for n in range(49)]
    for n, (stride, child) in enumerate(levels):
        assert (F(child, den), F(stride, den)) == ref[n], n
    assert den == math.lcm(*(x.denominator for row in ref for x in row))


@pytest.mark.parametrize("make", _SCHEMES.values(), ids=_SCHEMES.keys())
def test_level_table_is_the_same_however_grown(make):
    deep = make()
    deep._integer_layout(48)
    stepwise = make()
    for n in range(49):
        stepwise._integer_layout(n)
    by_descent = make()
    locate(by_descent, F(0), 49)  # y = 0 stays in child 0 to the bottom
    assert stepwise._grid == deep._grid == by_descent._grid


def test_descent_grows_the_table_through_integer_layout(monkeypatch):
    # one growth path: a descent past the table asks _integer_layout for
    # each level it reads next, and for no deeper one
    asked = []
    layout = CantorScheme._integer_layout

    def recorded(self, n):
        asked.append(n)
        return layout(self, n)

    monkeypatch.setattr(CantorScheme, "_integer_layout", recorded)
    s = CantorScheme()
    assert locate(s, F(0), 12) == InLevelInterval("0" * 12)
    assert asked == list(range(12)) and len(s._grid[1]) == 12
    asked.clear()
    assert isinstance(locate(s, F(1, 2), 20), InGap)  # level-0 gap
    assert asked == []


@pytest.mark.parametrize("make", _SCHEMES.values(), ids=_SCHEMES.keys())
def test_each_level_measure_is_read_once(make):
    # the table reads c_n once per scheme, however it is grown: deep calls,
    # one level at a time, descents that stop in gaps, endpoint queries
    base = make()
    reads = []

    def counted(n):
        reads.append(n)
        return base._c(n)

    s = CantorScheme(base.alphabet, counted, base.limit)
    rng = random.Random(12)
    for n in (3, 0, 5, 1, 9, 9):
        s._integer_layout(n)
    for depth in (12, 20, 30):
        for _ in range(20):
            locate(s, F(rng.randrange(2 ** 40), 2 ** 40), depth)
    locate(s, F(0), 36)
    s.interval_of_word(s.alphabet.symbols[-1] * 40)
    s.gap("0" * 40, 0)
    for n in range(40, 49):
        s._integer_layout(n)
    assert sorted(reads) == list(range(50))


@pytest.mark.parametrize("make, depth", [
    (lambda: CantorScheme(), 8),
    (lambda: CantorScheme(ALPHA_01S), 5),
    (lambda: CantorScheme(level_measure=_quadratic_measure, limit=F(1, 3)), 8),
], ids=["binary", "ternary", "custom-measure"])
def test_level_table_matches_per_word_recursion(make, depth):
    s, ref = make(), ReferenceScheme(make())
    for w in s.words(depth):
        assert s.interval_of_word(w) == ref.interval_of_word(w), w
        for j in range(s.k - 1):
            assert s.gap(w, j) == ref.gap(w, j), (w, j)


def test_level_measure_that_stops_decreasing_is_refused():
    # c_4 = c_3 = 9/16: level 3 would have no gaps, so b_3 = 1 is refused
    # by every call that reaches level 3, and by none that stops short
    def flat():
        return CantorScheme(
            level_measure=lambda n: F(1, 2) + F(1, 2 ** min(n + 1, 4)),
            limit=F(9, 16))
    default = CantorScheme()
    assert flat().interval_of_word("010") == default.interval_of_word("010")
    assert flat().gap("01", 0) == default.gap("01", 0)
    assert locate(flat(), F(0), 3) == InLevelInterval("000")
    assert locate(flat(), F(1, 2), 10) == locate(default, F(1, 2), 10)
    for call in (lambda s: s.interval_of_word("0100"),
                 lambda s: s.gap("010", 0),
                 lambda s: locate(s, F(0), 4)):
        with pytest.raises(ValueError, match="not strictly decreasing at 3"):
            call(flat())


def test_distortion_implication(scheme):
    # points separated by less than 2^{-n}(1-b_{n-1}) share n symbols: the
    # nearest pair of intervals split before depth n is a level-<=n gap
    # apart, and every such gap beats the threshold
    for n in range(1, 13):
        g = scheme.gap("0" * (n - 1), 0)
        gap_len = g.b - g.a
        assert gap_len >= F(1, 2 ** n) * (1 - scheme.contraction(n - 1))
    for u in scheme.words(6):
        if len(u) != 6:
            continue
        for v in ("000000", "011111", "101010", "111111"):
            if u == v:
                continue
            n = next(i for i in range(6) if u[i] != v[i]) + 1
            (alo, ahi), (blo, bhi) = (scheme.interval_of_word(u),
                                      scheme.interval_of_word(v))
            dist = max(blo - ahi, alo - bhi)
            assert dist >= F(1, 2 ** n) * (1 - scheme.contraction(n - 1))


def test_symbols_outside_the_alphabet_are_refused():
    for s, w in ((CantorScheme(), "01x"), (CantorScheme(ALPHA_01S), "0S2")):
        with pytest.raises(ValueError,
                           match=f"symbol '{w[-1]}' outside scheme alphabet"):
            s.interval_of_word(w)


def test_ternary_scheme_identities():
    s3 = CantorScheme(ALPHA_01S)
    for n in range(5):
        words = [w for w in s3.words(n) if len(w) == n]
        assert sum((interval_length(s3, w) for w in words), F(0)) \
            == s3.level_measure(n)
    assert s3.cantor_measure("0S") == F(1, 2) / 9
    lo, hi = s3.interval_of_word("S")
    assert hi == 1 and lo < 1


# -- locating points --------------------------------------------------------

def test_locate_examples(scheme):
    loc = locate(scheme, F(1, 2), 8)
    assert isinstance(loc, InGap) and loc.gap.parent == ""
    assert (loc.gap.a, loc.gap.b) == (F(3, 8), F(5, 8))
    loc = locate(scheme, F(3, 8), 6)
    assert isinstance(loc, InLevelInterval) and loc.word == "011111"
    loc = locate(scheme, F(6, 32), 8)
    assert isinstance(loc, InGap)
    assert (loc.gap.a, loc.gap.b) == (F(5, 32), F(7, 32))


def test_locate_agrees_with_intervals(scheme):
    rng = random.Random(31)
    for _ in range(200):
        y = F(rng.randrange(0, 2 ** 20), 2 ** 20)
        loc = locate(scheme, y, 6)
        if isinstance(loc, InLevelInterval):
            lo, hi = scheme.interval_of_word(loc.word)
            assert lo <= y <= hi and len(loc.word) == 6
        else:
            assert loc.gap.a < y < loc.gap.b


def _landmarks(scheme, depth):
    """Interval endpoints, gap endpoints, gap midpoints and quarter points
    of every word up to ``depth``."""
    for w in scheme.words(depth):
        yield from scheme.interval_of_word(w)
        for j in range(scheme.k - 1):
            g = scheme.gap(w, j)
            for i in range(5):
                yield g.a + i * (g.b - g.a) / 4


@pytest.mark.parametrize("alphabet", ["binary", "ternary"])
def test_locate_matches_fraction_reference(alphabet):
    s = CantorScheme() if alphabet == "binary" else CantorScheme(ALPHA_01S)
    rng = random.Random(2)
    points = list(_landmarks(s, 5 if alphabet == "binary" else 3))
    for q in (2 ** 10, 2 ** 31, 2 ** 53, 3 ** 12, 7 * 11 * 13):
        points += [F(rng.randrange(q + 1), q) for _ in range(40)]
    points += [F(rng.randrange(q + 1), q)
               for q in (rng.randrange(1, 10 ** 12) for _ in range(60))]
    points += [F(0), F(1)]
    for depth in range(21):
        # a fresh scheme per depth also exercises the lazily grown layout
        fresh = CantorScheme(s.alphabet)
        for y in points:
            assert locate(fresh, y, depth) == reference_locate(s, y, depth), \
                (y, depth)


def test_locate_rejects_outside_points(scheme):
    for y in (F(-1, 2 ** 53), F(1) + F(1, 3 ** 12), 2):
        with pytest.raises(ValueError):
            locate(scheme, y, 4)


def _descent_points(make):
    """0, 1, interval endpoints, gap endpoints and interiors at shallow
    levels and at levels on both sides of block boundaries, and random
    rationals."""
    s, rng = make(), random.Random(9)
    points = {F(0), F(1), *_landmarks(s, 3 if s.k == 2 else 2)}
    for n in (7, 8, 9, 15, 16, 17, 23, 24, 31, 40, 47, 48, 49):
        w = "".join(rng.choice(s.alphabet.symbols) for _ in range(n))
        points.update(s.interval_of_word(w))
        g = s.gap(w, rng.randrange(s.k - 1))
        points.update((g.a, g.b, (g.a + g.b) / 2, g.a + (g.b - g.a) / 2 ** 60))
    for q in (2 ** 53, 3 ** 30, rng.randrange(1, 10 ** 15)):
        points.update(F(rng.randrange(q + 1), q) for _ in range(8))
    return sorted(points)


def _named(scheme, found):
    """A block descent's answer as (n, index, None) for a level-depth
    interval, or as the gap's (parent word, j, a, b) with a and b as
    Fractions, so that answers over different table denominators
    compare."""
    n, index, a, b, den = found
    if a is None:
        return n, index, None
    return (*cantor._gap_owner(scheme, n, index), F(a, den), F(b, den))


def _named_reference(scheme, found):
    """``_named`` for a ``reference_descend`` answer."""
    n, index, j, a, b, den = found
    if j is None:
        return n, index, None
    return scheme._word_at(n, index), j, F(a, den), F(b, den)


_TABLES = {"fresh": None, "grown-48": 47, "grown-21": 20}


@pytest.mark.parametrize("table", _TABLES)
@pytest.mark.parametrize("name", _SCHEMES)
def test_descent_matches_both_references(name, table):
    # the block descent against the level-by-level one and, on the binary
    # schemes, the numpy batch one, at depths 0-50 on tables fresh, grown
    # to 6 complete blocks and grown to a depth that is not a multiple of 8
    make = _SCHEMES[name]
    points = _descent_points(make)
    pq = [(y.numerator, y.denominator) for y in points]
    for depth in range(51):
        s = make()
        if _TABLES[table] is not None:
            s._integer_layout(_TABLES[table])
        got = [_named(s, hit) for hit in cantor._descend(s, pq, depth)]
        ref = make()
        want = [_named_reference(ref, reference_descend(ref, p, q, depth))
                for p, q in pq]
        assert got == want, depth
        if s.k == 2:
            den, blocks = reference_descent_blocks(ref, depth)
            batch = {i: (ref._word_at(n, index), 0, F(a, den), F(b, den))
                     for i, n, index, a, b
                     in reference_gaps_of(den, blocks, pq)}
            assert {i: g for i, g in enumerate(got) if len(g) > 3} == batch, \
                depth


@pytest.mark.parametrize("name", _SCHEMES)
def test_descent_blocks_follow_the_table(name):
    # each block lists, for the descendants m levels below any interval,
    # 2 * (left end - its left end) and 2 * (right end - its left end) + 1
    # over D, and their level; kept while the table stands, rebuilt once
    # it grows
    s = _SCHEMES[name]()
    m = s._m
    assert s.k ** m <= 256 < s.k ** (m + 1)
    for n in range(-1, 20):
        (den, levels), blocks = held = s._descent_table()
        assert (den, levels) == s._grid and s._descent_table() is held
        assert len(blocks) == len(levels) // m
        for b, (ends, level) in enumerate(blocks):
            assert level == (b + 1) * m
            w = s.alphabet.symbols[-1] * (b * m)
            lo = s._span(w)[0]
            want = []
            for d in range(s.k ** m):
                dlo, dhi, dden = s._span(w + s._word_at(m, d))
                assert dden == den
                want += [2 * (dlo - lo), 2 * (dhi - lo) + 1]
            assert ends == want, (n, b)
        assert s._grid == (den, levels)         # read without growing
        s._integer_layout(n + 1)
        assert s._descent_table() is not held


def test_gap_map_matches_three_piece_formula(scheme, worked):
    rng = random.Random(5)
    for sys in (shift_system(), pi1_system(worked)):
        for w in scheme.words(5):
            gm = gap_map(scheme, sys, scheme.gap(w, 0))
            ys = [gm.a + i * (gm.b - gm.a) / 8 for i in range(9)]
            ys += [gm.a + (gm.b - gm.a) * F(rng.randrange(10 ** 9 + 1), 10 ** 9)
                   for _ in range(6)]
            for y in ys:
                assert gm(y) == reference_gap_eval(gm, y)
            for y in (gm.a - F(1, 2 ** 60), gm.b + F(1, 3 ** 30)):
                with pytest.raises(ValueError):
                    gm(y)


def _chosen_piece(form, p, q):
    """The piece an integer form picks for y = p/q: the first whose right
    breakpoint is at least ceil(y*g)."""
    g, (_, q1, q3, _), _ = form
    hi = -(-p * g // q)
    return 0 if hi <= q1 else 1 if hi <= q3 else 2


_BINARY_SYSTEMS = {
    "shift": lambda worked: shift_system(),
    "pi1": pi1_system,
    "sigma2": lambda worked: sigma2_system(SOME_IN),
}


@pytest.mark.parametrize("name", _BINARY_SYSTEMS)
def test_integer_form_matches_per_piece_fractions(scheme, worked, name):
    # one shared denominator gives the pieces the Fraction slopes and
    # intercepts gave, in lowest terms, and picks the same piece everywhere
    sys = _BINARY_SYSTEMS[name](worked)
    rng = random.Random(7)
    for w in scheme.words(7):
        gm = gap_map(scheme, sys, scheme.gap(w, 0))
        ref = reference_integer_form(gm)
        assert gm._integer_form[2] == ref[2], w
        ys = [gm.a + i * (gm.b - gm.a) / 4 for i in range(5)]
        ys += [gm.a + (gm.b - gm.a) * F(rng.randrange(10 ** 9 + 1), 10 ** 9)
               for _ in range(4)]
        for y in ys:
            p, q = y.numerator, y.denominator
            i = _chosen_piece(ref, p, q)
            assert _chosen_piece(gm._integer_form, p, q) == i, (w, y)
            u, v, w_ = ref[2][i]
            assert F(*cantor._image(gm._integer_form, p, q)) \
                == F(u * p + v * q, w_ * q), (w, y)


def _normal_form(form):
    """An integer form's breakpoints as Fractions and its pieces."""
    g, xs, pieces = form
    return [F(x, g) for x in xs], list(pieces)


@pytest.mark.parametrize("table", ["worked", "parity"])
@pytest.mark.parametrize("make", [lambda t: shift_system(), pi1_system,
                                  sigma2_system],
                         ids=["shift", "pi1", "sigma2"])
def test_integer_gap_maps_match_fraction_construction(make, table, request):
    # every gap to depth 10: gap_map against the Fraction construction,
    # all six values and the integer form; and the escape loop's entry
    # for the gap its descent names is the map gap_map returned
    sys = make(request.getfixturevalue(table))
    s, ref = CantorScheme(), CantorScheme()
    for w in s.words(10):
        want = reference_gap_map(ref, sys, ref.gap(w, 0))
        form = _normal_form(reference_integer_form(want))
        gm = gap_map(s, sys, s.gap(w, 0))
        assert gm == want, w
        assert _normal_form(gm._integer_form) == form, w
        mid = (want.a + want.b) / 2
        [(n, index, a, b, den)] = cantor._descend(
            s, [(mid.numerator, mid.denominator)], 11)
        assert (*cantor._gap_owner(s, n, index), F(a, den), F(b, den)) \
            == (w, 0, want.a, want.b)
        built = cantor._gap_entry(s, sys, n, index)
        assert built is gm and _normal_form(built._integer_form) == form, w


def test_gap_map_steps_two_image_words(scheme, worked, monkeypatch):
    # f(a) and the target interval come from one left image word; on a
    # fresh scheme each build steps two words, and a second gap_map on the
    # same gap reads the scheme's memo and steps none
    calls, step_prefix = [], cantor.step_prefix

    def counted(sys, w, n):
        calls.append(n)
        return step_prefix(sys, w, n)

    monkeypatch.setattr(cantor, "step_prefix", counted)
    for make in _BINARY_SYSTEMS.values():
        sys = make(worked)
        for w in scheme.words(5):
            s = CantorScheme()
            calls.clear()
            first = gap_map(s, sys, s.gap(w, 0))
            assert len(calls) == 2, (sys.id, w)
            calls.clear()
            assert gap_map(s, sys, s.gap(w, 0)) is first
            assert calls == [], (sys.id, w)


# (seed, [escaped after n = 1, 2, 4 steps]) of 400 samples at depth 14
_PINNED_ESCAPES = {
    "shift": {5: [91, 32, 4], 6: [75, 23, 3]},
    "pi1": {5: [91, 34, 8], 6: [79, 28, 4]},
    "sigma2": {5: [97, 45, 8], 6: [83, 41, 10]},
}


@pytest.mark.parametrize("name", _BINARY_SYSTEMS)
def test_escape_builds_gaps_from_its_own_descent(worked, monkeypatch, name):
    def refused(*args):
        raise AssertionError("escape_fraction called locate")

    monkeypatch.setattr(cantor, "locate", refused)
    sys = _BINARY_SYSTEMS[name](worked)
    for seed, want in _PINNED_ESCAPES[name].items():
        s = CantorScheme()
        assert [escape_fraction(s, sys, n, 400, seed, 14).escaped
                for n in (1, 2, 4)] == want, seed


def test_negative_counts_are_refused(scheme):
    sys = shift_system()
    for kwargs in ({"iterations": -1, "depth": 8},
                   {"iterations": 1, "depth": -1}):
        with pytest.raises(ValueError, match="must be >= 0"):
            escape_fraction(scheme, sys, samples=3, master_seed=0, **kwargs)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        locate(scheme, F(1, 3), -2)


def test_negative_master_seed_is_refused_before_drawing(scheme, monkeypatch):
    def refused(*args):
        raise AssertionError("escape_fraction drew with a negative seed")

    monkeypatch.setattr(np.random, "default_rng", refused)
    with pytest.raises(ValueError, match="master seed must be >= 0"):
        escape_fraction(scheme, shift_system(), 1, 3, -1, 8)


def _grown_scheme():
    """A scheme whose level table reaches depth 42, as ``interval eval``
    grows the CLI's shared one."""
    s = CantorScheme()
    s._integer_layout(41)
    return s


@pytest.mark.parametrize("grown", [False, True], ids=["fresh", "grown"])
@pytest.mark.parametrize("depth", [0, 1, 7, 8, 9, 16, 17, 29, 30,
                                   *range(31, 41)])
def test_batch_escape_matches_per_sample_loop(worked, depth, grown):
    sys = pi1_system(worked)
    cases = [(0, 60, 1), (1, 60, 2), (3, 40, 3), (2, 1, 4), (0, 1, 5)]
    for iterations, samples, seed in cases:
        s = _grown_scheme() if grown else CantorScheme()
        got = escape_fraction(s, sys, iterations, samples, seed, depth)
        want = reference_escape_loop(CantorScheme(), sys, iterations,
                                     samples, seed, depth)
        assert got.escaped == want, (iterations, samples, seed)
        assert want == reference_escaped(CantorScheme(), sys, iterations,
                                         samples, seed, depth)


@pytest.mark.parametrize("seed", [0, 7, 42, 2 ** 40])
def test_escape_samples_are_the_scalar_draws(monkeypatch, seed):
    first = []
    descend = cantor._descend

    def spy(scheme, points, depth):
        if not first:
            first.extend(points)
        return descend(scheme, points, depth)

    monkeypatch.setattr(cantor, "_descend", spy)
    escape_fraction(CantorScheme(), shift_system(), 0, 2000, seed, 4)
    rng = np.random.default_rng(seed)
    assert first == [(int(rng.integers(0, 2 ** 53)), 2 ** 53)
                     for _ in range(2000)]


@pytest.mark.parametrize("seed", [3, 4])
def test_escape_matches_reference_loop(scheme, worked, seed):
    sys = pi1_system(worked)
    for n in (0, 1, 3):
        got = escape_fraction(CantorScheme(), sys, n, 300, seed, depth=12)
        assert got.escaped == reference_escaped(scheme, sys, n, 300, seed, 12)


def _twin(sys):
    """An equal SystemSpec built separately, on a separately built table."""
    return SystemSpec(sys.id, sys.oracle and dataclasses.replace(sys.oracle))


def _memo_entries(scheme):
    """{(system, gap key): gap map} for every entry of the scheme's memo."""
    return {(sys, key): gm for sys, maps in scheme._gaps.items()
            for key, gm in maps.items()}


# (samples, seed, n, how) calls on one scheme, in order.  "twin" calls
# with an equal SystemSpec built separately, "other" with another system,
# "deeper" one level deeper, and "grow" after locate has grown the level
# table to depth 42.
_RESUME_CALLS = [
    *((40, 3, n, "") for n in range(1, 9)),     # n = 1..8
    (40, 3, 8, ""),                             # a repeated n
    (40, 3, 3, ""),                             # 8 then 3
    (400, 5, 5, ""), (400, 5, 0, ""),           # 0 after 5
    (400, 5, 2, "twin"), (400, 5, 4, ""), (400, 5, 4, "twin"),
    (400, 5, 6, "grow"), (400, 5, 7, ""),
    (1, 9, 2, ""), (1, 9, 3, ""), (1, 9, 4, "other"), (1, 9, 5, ""),
    (40, 3, 4, ""), (40, 3, 5, "deeper"), (40, 3, 6, ""), (40, 3, 8, "grow"),
]


@pytest.mark.parametrize("depth", [0, 1, 16, 35])
@pytest.mark.parametrize("name", _BINARY_SYSTEMS)
def test_resumed_escape_matches_fresh_runs(worked, monkeypatch, name, depth):
    # each call on the shared scheme against a fresh scheme and the
    # per-sample loop; it resumes exactly when its key is the held one and
    # the held run is no longer than asked, leaves the held frontier as it
    # found it, and replaces no entry of the scheme's gap-map memo
    sys = _BINARY_SYSTEMS[name](worked)
    other = shift_system() if name != "shift" else pi1_system(worked)
    assert _twin(sys) == sys and _twin(sys) is not sys
    draws, default_rng = [], np.random.default_rng

    def counted(seed):
        draws.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    s, last = CantorScheme(), (None, 0)
    for samples, seed, n, how in _RESUME_CALLS:
        on = _twin(sys) if how == "twin" else other if how == "other" else sys
        at = depth + 1 if how == "deeper" else depth
        if how == "grow":
            assert isinstance(locate(s, F(0), 42), InLevelInterval)
        key = (on, samples, seed, at)
        held, memo = s._escape, _memo_entries(s)
        kept = list(held[2])
        drawn = len(draws)
        got = escape_fraction(s, on, n, samples, seed, at)
        assert (len(draws) == drawn) == (key == last[0] and last[1] <= n), \
            (samples, seed, n, how)
        assert len(held) == 3 and list(held[2]) == kept
        assert len(s._escape[2]) == got.escaped
        now = _memo_entries(s)
        assert all(now[k] is gm for k, gm in memo.items() if k in now)
        assert s._escape[:2] == (key, n)
        last = key, n
        assert got == escape_fraction(CantorScheme(), on, n, samples, seed, at)
        assert got.escaped == reference_escape_loop(CantorScheme(), on, n,
                                                    samples, seed, at)


def test_rising_escape_calls_cost_one_run(worked, monkeypatch):
    # n = 1..8 on one scheme descend the points and build the gap forms of
    # one fresh 8-step call; calls that each started from step 0 descended
    # 28,317 points and built 653 forms
    count = {"points": 0, "forms": 0}
    descend, gap_entry = cantor._descend, cantor._gap_entry

    def spy_descend(scheme, points, depth):
        count["points"] += len(points)
        return descend(scheme, points, depth)

    def spy_gap_entry(*args):
        count["forms"] += 1
        return gap_entry(*args)

    monkeypatch.setattr(cantor, "_descend", spy_descend)
    monkeypatch.setattr(cantor, "_gap_entry", spy_gap_entry)
    sys, s = pi1_system(worked), CantorScheme()
    rising = [escape_fraction(s, sys, n, 2000, 42, 16) for n in range(1, 9)]
    assert count == {"points": 3673, "forms": 86}
    count.update(points=0, forms=0)
    assert rising[-1] == escape_fraction(CantorScheme(), sys, 8, 2000, 42, 16)
    assert count == {"points": 3673, "forms": 86}


# -- the per-scheme gap-map memo --------------------------------------------

def _memo_size(scheme):
    return sum(map(len, scheme._gaps.values()))


def _same_gap_map(got, want, points):
    """The two maps agree as values, as integer forms and, image for image,
    on ``points``."""
    assert got == want
    assert _normal_form(got._integer_form) == _normal_form(want._integer_form)
    for y in points:
        assert cantor._image(got._integer_form, y.numerator, y.denominator) \
            == cantor._image(want._integer_form, y.numerator, y.denominator), y


@pytest.mark.parametrize("depth", [0, 1, 16, 35])
def test_gap_map_memo_matches_fresh_schemes(worked, parity, depth):
    # f_eval, gap_map and escape_fraction interleaved on one scheme that
    # shift, pi1 and sigma2 on the worked and the parity table share, every
    # other round through a twin SystemSpec, the level table grown to depth
    # 42 halfway; each call against the same call on a fresh scheme
    systems = [shift_system(), *(make(t) for make in (pi1_system, sigma2_system)
                                 for t in (worked, parity))]
    s, rng = CantorScheme(), random.Random(depth)
    for rnd in range(6):
        if rnd == 3:
            assert isinstance(locate(s, F(0), 42), InLevelInterval)
        for sys in systems:
            on = _twin(sys) if rnd % 2 else sys
            w = "".join(rng.choice("01") for _ in range(rng.randrange(9)))
            gap = s.gap(w, 0)
            mid = (gap.a + gap.b) / 2
            near = gap.a + (gap.b - gap.a) * F(rng.randrange(1, 2 ** 20), 2 ** 20)
            for y in (mid, near):
                assert f_eval(s, on, y, depth) \
                    == f_eval(CantorScheme(), on, y, depth), (rnd, w, y)
            fresh = CantorScheme()
            _same_gap_map(gap_map(s, on, gap), gap_map(fresh, on, fresh.gap(w, 0)),
                          (gap.a, mid, near, gap.b))
            n, seed = rng.randrange(5), rng.randrange(2 ** 20)
            assert escape_fraction(s, on, n, 40, seed, depth) \
                == escape_fraction(CantorScheme(), on, n, 40, seed, depth)
    # one sub-memo per system, twins included; pi1 on the two tables keeps
    # its own maps, which differ on the gaps of "000", "010", "100", "110"
    assert len(s._gaps) == len(systems)
    differ = []
    for w in s.words(3):
        got = [gap_map(s, pi1_system(t), s.gap(w, 0)) for t in (worked, parity)]
        fresh = CantorScheme()
        assert got == [gap_map(fresh, pi1_system(t), fresh.gap(w, 0))
                       for t in (worked, parity)], w
        differ += [w] * (got[0] != got[1])
    assert differ == ["000", "010", "100", "110"]


def test_new_escape_seed_builds_only_unbuilt_gaps(worked, monkeypatch):
    # n = 1..4 on a second seed builds only gaps the first run did not; on
    # a fresh scheme the same run also builds some the first run had built
    built, make = [], cantor.GapMap

    def spy(a, b, *values):
        built.append((a, b))
        return make(a, b, *values)

    monkeypatch.setattr(cantor, "GapMap", spy)
    sys, s = pi1_system(worked), CantorScheme()
    runs = {}
    for seed, scheme in ((3, s), (4, s), (4, CantorScheme())):
        built.clear()
        results = [escape_fraction(scheme, sys, n, 400, seed, 16)
                   for n in range(1, 5)]
        assert len(built) == len(set(built)), seed
        runs[seed, scheme is s] = set(built), results
    (first, _), (second, shared), (fresh, alone) = runs.values()
    assert second and not second & first
    assert fresh & first and fresh == second | (fresh & first)
    assert shared == alone


def test_gap_map_memo_stays_under_its_cap(worked, monkeypatch):
    # more distinct gaps than the cap: the memo never holds more, and every
    # result matches a fresh scheme's, first under a small cap
    sys = pi1_system(worked)
    monkeypatch.setattr(cantor, "_GAP_CAP", 24)
    s, sizes = CantorScheme(), []
    for w in s.words(6):
        gap = s.gap(w, 0)
        y = (gap.a + gap.b) / 2
        assert f_eval(s, sys, y, 16) == f_eval(CantorScheme(), sys, y, 16), w
        assert gap_map(s, sys, gap) == gap_map(CantorScheme(), sys, gap), w
        sizes.append(_memo_size(s))
        if len(w) == 4:
            assert escape_fraction(s, sys, 3, 200, len(sizes), 16) \
                == escape_fraction(CantorScheme(), sys, 3, 200, len(sizes), 16)
            sizes.append(_memo_size(s))
    assert max(sizes) == 24 and min(sizes[24:]) < 24
    monkeypatch.undo()
    # then under the module's own cap, over the 8,191 gaps of level <= 13
    s, cap = CantorScheme(), cantor._GAP_CAP
    rng = random.Random(13)
    for i, w in enumerate(s.words(12)):
        gm = gap_map(s, sys, s.gap(w, 0))
        assert _memo_size(s) <= cap
        if rng.random() < 0.02 or i > 2 ** 13 - 4:
            fresh = CantorScheme()
            assert gm == gap_map(fresh, sys, fresh.gap(w, 0)), w
    assert i + 1 == 2 ** 13 - 1 > cap


def test_threads_sharing_a_scheme_match_fresh_schemes(worked, monkeypatch):
    # four threads, more than the cores CI gives, on one scheme, with a
    # 16-map cap and a short switch interval, so table growth, memo inserts
    # and emptyings interleave; 30 rounds, each on a scheme that starts
    # empty, and every call against a fresh scheme
    monkeypatch.setattr(cantor, "_GAP_CAP", 16)
    systems = [shift_system(), pi1_system(worked), sigma2_system(worked)]
    pts, rng = CantorScheme(), random.Random(11)
    calls = []
    for i in range(60):
        sys = systems[i % 3]
        w = "".join(rng.choice("01") for _ in range(rng.randrange(12)))
        gap = pts.gap(w, 0)
        calls += [functools.partial(f_eval, sys=sys, y=(gap.a + gap.b) / 2,
                                    precision=i * 2 // 3),
                  functools.partial(gap_map, sys=sys, gap=gap)]
        if i % 10 == 0:
            calls.append(functools.partial(
                escape_fraction, sys=sys, iterations=2, samples=20,
                master_seed=i, depth=i // 2))
    want = [call(CantorScheme()) for call in calls]
    wrong = []

    def work(s, start):
        for i in range(start, start + len(calls)):
            i %= len(calls)
            try:
                if calls[i](s) != want[i]:
                    wrong.append(i)
            except Exception as e:  # noqa: BLE001 - reported below
                wrong.append(e)

    old = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        for _ in range(30):
            s = CantorScheme()
            threads = [threading.Thread(target=work, args=(s, t))
                       for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        setswitchinterval(old)
    assert wrong == []


def test_contraction_refuses_a_level_measure_that_stops_decreasing():
    # c_4 = c_3 = 9/16: b_n = c_{n+1}/c_n below level 3, and b_3 = 1 refused
    def c(n):
        return F(1, 2) + F(1, 2 ** min(n + 1, 4))

    s = CantorScheme(level_measure=c, limit=F(9, 16))
    assert [s.contraction(n) for n in range(3)] \
        == [c(n + 1) / c(n) for n in range(3)]
    with pytest.raises(ValueError, match="not strictly decreasing at 3"):
        s.contraction(3)


# -- the embedding phi ------------------------------------------------------

def test_phi_exact_points(scheme):
    assert phi_point(scheme, binary_config("", Constant("0")), 10).exact
    assert phi_point(scheme, binary_config("", Constant("0")), 10).lower == 0
    assert phi_point(scheme, binary_config("", Constant("1")), 10).upper == 1
    e = phi_point(scheme, binary_config("1", Constant("0")), 10)
    assert e.exact and e.lower == F(5, 8)


def test_phi_one_symbol_periodic_tail_is_exact(scheme):
    # a period of one repeated symbol is the constant tail: the outer
    # endpoint of I_v, exactly
    for v in ("", "0", "0110"):
        for sym, end in (("0", 0), ("1", 1)):
            e = phi_point(scheme, binary_config(v, Periodic(sym * 3)), 12)
            assert e.exact and e.lower == scheme.interval_of_word(v)[end]
            assert e == phi_point(scheme, binary_config(v, Constant(sym)), 12)


@pytest.mark.parametrize("tail", [Constant("1"), Periodic("11")])
def test_phi_middle_constant_tail_is_enclosed(tail):
    # on a ternary scheme 1 is neither the bottom nor the top symbol: the
    # enclosure is I_w for the first d letters, d the least with
    # 3^-d <= 2^-precision, and nests as the precision grows
    s = CantorScheme(ALPHA_01S)
    for v in ("", "S0"):
        x = Configuration(ALPHA_01S, v, tail)
        prev = None
        for n in (0, 1, 5, 13, 30):
            d = next(d for d in range(n + 1) if 3 ** d >= 2 ** n)
            e = phi_point(s, x, n)
            assert (e.lower, e.upper) == s.interval_of_word((v + "1" * d)[:d])
            assert 0 < e.width <= F(1, 2 ** n)
            assert prev is None or prev.contains(e)
            prev = e


def test_phi_enclosures_nest(scheme):
    x = binary_config("", Periodic("011"))
    prev = None
    for n in (4, 8, 16, 24):
        e = phi_point(scheme, x, n)
        assert e.width <= F(1, 2 ** n)
        if prev is not None:
            assert prev.contains(e)
        prev = e


# -- the interval map f -----------------------------------------------------

def test_f_on_cantor_part(scheme):
    # f(phi(10^inf)) = phi(0^inf) = 0 for the conjugated shift
    e = f_eval(scheme, shift_system(), F(5, 8), 20)
    assert e.lower == 0 and e.width <= F(1, 2 ** 20)


def test_f_on_gap_lands_in_target(scheme, worked):
    sys = pi1_system(worked)
    gm = gap_map(scheme, sys, locate(scheme, F(1, 2), 4).gap)
    y = gm(F(1, 2))
    assert gm.target_lo <= y <= gm.target_hi
    assert f_eval(scheme, sys, F(1, 2), 10).lower == y


def test_gap_map_shape(scheme, worked):
    # continuity at the endpoints, middle piece onto I' exactly, and the
    # middle piece is half of the gap -- for every gap down to depth 5
    for sysf in (shift_system, lambda: pi1_system(worked)):
        sys = sysf() if callable(sysf) else sysf
        for w in scheme.words(5):
            gm = gap_map(scheme, sys, scheme.gap(w, 0))
            assert gm(gm.a) == gm.fa and gm(gm.b) == gm.fb
            assert gm(gm.q1) == gm.target_lo and gm(gm.q3) == gm.target_hi
            assert gm.q3 - gm.q1 == (gm.b - gm.a) / 2
            mid = gm(gm.a + (gm.b - gm.a) / 2)
            assert gm.target_lo <= mid <= gm.target_hi


def test_f_enclosures_nest(scheme, worked):
    sys = pi1_system(worked)
    y = phi_point(scheme, binary_config("01101", Constant("0")), 30).lower
    prev = None
    for n in (6, 12, 20):
        e = f_eval(scheme, sys, y, n)
        assert e.width <= F(1, 2 ** n)
        if prev is not None:
            assert prev.contains(e)
        prev = e


def test_conjugacy_spot_check(scheme, worked):
    from symdyn.systems import orbit
    rng = random.Random(45)
    for sysf in (shift_system(), pi1_system(worked)):
        for _ in range(30):
            pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
            x = binary_config(pre, Constant("0"))
            y = phi_point(scheme, x, 24).lower
            left = f_eval(scheme, sysf, y, 22)
            w = orbit(sysf, x, 1, 40)[0]
            right = phi_point(scheme, binary_config(w, Constant("0")), 22)
            dist = max(right.lower - left.upper, left.lower - right.upper)
            assert dist <= F(1, 2 ** 20)


def test_non_binary_systems_are_refused(scheme):
    with pytest.raises(ValueError):
        f_eval(scheme, pi2_system(NEVER), F(1, 2), 8)


# -- escape experiment ------------------------------------------------------

def test_escape_initial_mass(scheme):
    r = escape_fraction(scheme, shift_system(), 0, 3000, 7, depth=12)
    assert abs(float(r.fraction) - 0.5) < 0.03
    assert r.bound == 1


def test_escape_decays(scheme, worked):
    sys = pi1_system(worked)
    r3 = escape_fraction(scheme, sys, 3, 1500, 11, depth=14)
    assert float(r3.fraction) <= float(F(3, 4) ** 3) + 3 * r3.sigma + 0.02
    r12 = escape_fraction(scheme, sys, 12, 400, 11, depth=14)
    assert float(r12.fraction) < 0.12


def test_escape_deterministic_and_json(scheme):
    a = escape_fraction(scheme, shift_system(), 2, 500, 99, depth=10)
    b = escape_fraction(scheme, shift_system(), 2, 500, 99, depth=10)
    assert a == b
    doc = a.to_json()
    assert set(doc) == {"n", "samples", "fraction", "bound", "sigma"}
    assert doc["n"] == 2 and doc["samples"] == 500


# -- export -----------------------------------------------------------------

def test_export_csv(scheme):
    buf = io.StringIO()
    rows = export_intervals(scheme, 2, buf)
    lines = buf.getvalue().splitlines()
    assert rows == 7 and len(lines) == 8
    assert lines[0] == "word,lo_num,lo_den,hi_num,hi_den"
    assert lines[1] == ",0,1,1,1"
    assert lines[2] == "0,0,1,3,8"


def test_export_refuses_a_flat_measure_before_writing():
    # c_4 = c_3: the table is grown to the full depth before the header,
    # so the refusal leaves the stream empty
    flat = CantorScheme(
        level_measure=lambda n: F(1, 2) + F(1, 2 ** min(n + 1, 4)),
        limit=F(9, 16))
    buf = io.StringIO()
    with pytest.raises(ValueError, match="not strictly decreasing at 3"):
        export_intervals(flat, 5, buf)
    assert buf.getvalue() == ""
