"""Fat-Cantor interval embedding with exact rational arithmetic.

A ``CantorScheme`` builds a nested family of closed intervals I_w, one
per finite word w over a k-letter alphabet.  The children of I_w share
its outer endpoints, have equal length, and are separated by k-1 equal
gaps; the fraction of I_w covered by children at level n is
b_n = c_{n+1}/c_n for the level-measure sequence c.  The default
c_n = (1 + 2^{-n})/2 makes every endpoint, gap and measure an exact
rational, with residual Cantor set C of Lebesgue measure 1/2.

phi maps a configuration x to the unique point of the intersection of
the I_{x[:n]}.  The induced interval map f agrees with phi.T.phi^{-1}
on C and is extended across each gap [a, b] by three linear pieces with
breakpoints at the quarter points: the middle piece maps half of the
gap onto the whole target interval I', so at least a fixed proportion
of every gap escapes into C under one application of f.

Every value is an exact rational; ``Fraction`` appears only at the
public API.  The scheme stores its geometry once, as an integer table:
each level's child-to-child stride and child length times a common
denominator D, the lcm of the level denominators.  Level n follows from
c_n and c_{n+1} alone: the child length is c_{n+1}/k^{n+1} and the
stride (k c_n - c_{n+1}) / ((k-1) k^{n+1}).  c_n is read back off the
table (it is k^n times the level-(n-1) child length), so growing the
table reads the level measure once per level, as an integer pair.  That
table is the scheme's one cache, pure and grown lazily, in one place,
only as deep as a call reaches; a descent that runs past it grows it by
the one level it reads next.  Endpoints and gaps are digit sums over
it: I_w starts at the sum of index(w_i) times the level-i stride, over
D.  ``locate`` unpacks y = p/q once into floor(y*D) and a flag for y*D
not being an integer, then descends with one floor division per level.  Because every table entry
is an integer over D, floor(y*D) picks the same child as y itself, and
"y strictly inside the gap" (y*D > N for the integer N = gap start
times D) holds exactly when ceil(y*D) > N, so every comparison is still
exact.  A ``GapMap`` scales its six values to one denominator and
evaluates each of its three affine pieces as one integer expression
(u*p + v*q) / (w*q).

``escape_fraction`` draws all its samples at once and advances every
sample still in a gap one step at a time.  A step computes floor(y*D)
and the flag per sample in Python, over the table cut to the requested
depth and reduced by its gcd, then descends all samples together with
one ``numpy.searchsorted`` per block of 8 levels against the block's
256 descendant offsets, which every interval of a level shares.  The
arrays hold int64 while that D fits in 62 bits and Python ints
otherwise, so the descent is exact at any depth.  The escape loop builds
each new gap map from its own descent, once per call, and carries each
image as an unreduced (numerator, denominator) pair of Python ints.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .space import ALPHA_01, Alphabet, Configuration, Constant, Periodic, Tail
from .systems import SystemSpec, step_prefix

ZERO = Fraction(0)
ONE = Fraction(1)


def default_level_measure(n: int) -> Fraction:
    """c_n = (1 + 2^{-n}) / 2; c_0 = 1, decreasing, limit 1/2."""
    return Fraction(2 ** n + 1, 2 ** (n + 1))


class CantorScheme:
    """Immutable k-ary fat-Cantor interval scheme.

    Endpoints and gaps are read from the integer level table, a pure
    cache that only ``_integer_layout`` grows, lazily, by one integer
    recurrence per level, with one read of c_n per level: a fresh scheme
    returns the same values, so concurrent readers at worst rebuild
    levels another has built.  A level measure that stops strictly
    decreasing is refused when the table reaches that level.
    """

    def __init__(self,
                 alphabet: Alphabet = ALPHA_01,
                 level_measure: Callable[[int], Fraction]
                 = default_level_measure,
                 limit: Fraction = Fraction(1, 2)):
        self.alphabet = alphabet
        self.k = len(alphabet.symbols)
        if self.k < 2:
            raise ValueError("scheme needs at least two symbols")
        self._c = level_measure
        self.limit = Fraction(limit)
        if not ZERO < self.limit < self._c(0) == ONE:
            raise ValueError("need c_0 = 1 and limit in (0, 1)")
        self._grid: tuple = (1, ())

    def level_measure(self, n: int) -> Fraction:
        """Total length of the level-n intervals: sum_{|w|=n} |I_w|."""
        return Fraction(self._c(n))

    def contraction(self, n: int) -> Fraction:
        """b_n = c_{n+1}/c_n, the covered fraction of a level-n interval."""
        b = self.level_measure(n + 1) / self.level_measure(n)
        if not ZERO < b < ONE:
            raise ValueError(f"level measures not strictly decreasing at {n}")
        return b

    def _index(self, symbol: str) -> int:
        try:
            return self.alphabet.symbols.index(symbol)
        except ValueError:
            raise ValueError(f"symbol {symbol!r} outside scheme alphabet")

    def interval_of_word(self, w: str):
        """Exact endpoints (lo, hi) of I_w: lo*D is the digit sum of
        index(w_i) * stride_i*D, and hi = lo + child_{|w|-1}."""
        n = len(w)
        den, levels = self._integer_layout(n - 1)
        lo = sum(self._index(s) * levels[i][0] for i, s in enumerate(w))
        hi = lo + (levels[n - 1][1] if n else den)
        return Fraction(lo, den), Fraction(hi, den)

    def interval_length(self, w: str) -> Fraction:
        lo, hi = self.interval_of_word(w)
        return hi - lo

    def cantor_measure(self, w: str) -> Fraction:
        """Lebesgue measure of I_w ∩ C: k^{-|w|} times the measure of C."""
        return self.limit / Fraction(self.k) ** len(w)

    def gap(self, w: str, j: int) -> "GapLocation":
        """The j-th gap inside I_w (between children j and j+1)."""
        if not 0 <= j < self.k - 1:
            raise ValueError("gap index out of range")
        syms = self.alphabet.symbols
        a = self.interval_of_word(w + syms[j])[1]
        b = self.interval_of_word(w + syms[j + 1])[0]
        return GapLocation(w, j, a, b)

    def _integer_layout(self, n: int):
        """(D, levels): levels[i] = (stride_i * D, child_i * D), i <= n,
        grown lazily only as deep as n.

        Level m reads the measure once, at m + 1.  With c_m = a/b (read
        back off the last child, or c_0 = 1) and c_{m+1} = p/q, over
        E = b q (k-1) k^{m+1} the child is p b (k-1) and the stride
        k a q - p b.  E/g, for g their gcd with E, is the lcm of the two
        reduced denominators, so D = lcm(D, E/g) is as small as the
        layout allows.  Every row is rescaled to the last D once, and the
        pair is replaced whole, so a reader holding an older pair still
        has a consistent one.
        """
        base, levels = self._grid
        if n < len(levels):
            return self._grid
        k, den = self.k, base
        km = k ** len(levels)
        a, b = (levels[-1][1] * km, base) if levels else (1, 1)
        new = []
        for m in range(len(levels), n + 1):
            p, q = self._c(m + 1).as_integer_ratio()
            if not 0 < p * b < a * q:
                raise ValueError(
                    f"level measures not strictly decreasing at {m}")
            km *= k
            child, stride = p * b * (k - 1), k * a * q - p * b
            e = b * q * (k - 1) * km
            g = math.gcd(child, stride, e)
            e //= g
            den = math.lcm(den, e)
            r = den // e
            new.append((den, stride // g * r, child // g * r))
            a, b = p, q
        r = den // base
        rows = [(s * r, c * r) for s, c in levels]
        rows += [(s * (den // d), c * (den // d)) for d, s, c in new]
        self._grid = (den, tuple(rows))
        return self._grid

    def _word_at(self, n: int, index: int) -> str:
        """The level-n word whose base-k digits (first letter most
        significant) spell ``index``."""
        syms = self.alphabet.symbols
        out = [""] * n
        for i in range(n - 1, -1, -1):
            index, j = divmod(index, self.k)
            out[i] = syms[j]
        return "".join(out)

    def words(self, depth: int) -> Iterator[str]:
        """All words of length <= depth, in breadth-first order."""
        level = [""]
        for _ in range(depth + 1):
            yield from level
            level = [w + s for w in level for s in self.alphabet.symbols]
            if len(level[0]) > depth:
                return


@dataclass(frozen=True)
class PointEnclosure:
    """Exact rational bounds on a real number."""
    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("empty enclosure")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2

    def contains(self, other: "PointEnclosure") -> bool:
        return self.lower <= other.lower and other.upper <= self.upper


@dataclass(frozen=True)
class GapLocation:
    """The open interval (a, b) between children j and j+1 of I_parent."""
    parent: str
    index: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("degenerate gap")


@dataclass(frozen=True)
class InGap:
    gap: GapLocation


@dataclass(frozen=True)
class InLevelInterval:
    word: str


Location = Union[InGap, InLevelInterval]


def _descend(scheme: CantorScheme, p: int, q: int, depth: int):
    """Integer core of ``locate`` for y = p/q in [0, 1] (q > 0).

    Returns (n, index, j, a, b, D).  When j is None, y lies in the
    level-``depth`` interval of the word ``scheme._word_at(depth, index)``;
    otherwise y lies strictly inside the j-th gap (a/D, b/D) of the level-n
    word ``scheme._word_at(n, index)``.

    The walk keeps t = floor(y*D) - lo*D for the current interval
    [lo, hi].  Since lo*D and the layout entries are integers, the child
    index floor((y - lo) / stride) equals t // stride, and y lies right
    of child j (strictly inside the gap after it) exactly when
    t + [y*D is not an integer] > child * D.  A walk that runs past the
    table grows it by the one level it reads next.
    """
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


def _gap_at(scheme: CantorScheme, n: int, index: int, j: int,
            a: int, b: int, den: int) -> GapLocation:
    """The gap a ``_descend`` that stopped in one names."""
    return GapLocation(scheme._word_at(n, index), j, Fraction(a, den),
                       Fraction(b, den))


def locate(scheme: CantorScheme, y: Fraction, depth: int) -> Location:
    """Exact position of y relative to the level-``depth`` intervals.

    Returns ``InGap`` as soon as y falls strictly inside a gap at level
    <= depth, otherwise the depth-letter word whose interval contains y
    (interval endpoints count as inside, since they belong to C).
    """
    y = Fraction(y)
    if not ZERO <= y <= ONE:
        raise ValueError("point outside [0, 1]")
    found = _descend(scheme, y.numerator, y.denominator, depth)
    if found[2] is None:
        return InLevelInterval(scheme._word_at(depth, found[1]))
    return InGap(_gap_at(scheme, *found))


def _word_depth_for(scheme: CantorScheme, precision: int) -> int:
    """Least d with k^{-d} <= 2^{-precision} (so |I_w| < 2^{-precision})."""
    d = 0
    while scheme.k ** d < 2 ** precision:
        d += 1
    return d


def _constant_extreme(scheme: CantorScheme, tail: Tail) -> Optional[int]:
    """-1/+1 when the tail is constantly the bottom/top symbol, else None."""
    if isinstance(tail, Constant):
        sym = tail.symbol
    elif isinstance(tail, Periodic) and len(set(tail.word)) == 1:
        sym = tail.word[0]
    else:
        return None
    if sym == scheme.alphabet.symbols[0]:
        return -1
    if sym == scheme.alphabet.symbols[-1]:
        return 1
    return None


def phi_point(scheme: CantorScheme, x: Configuration,
              precision: int) -> PointEnclosure:
    """Enclosure of phi(x) of width <= 2^{-precision}.

    Exact (width 0) when the tail is constantly the bottom or top
    symbol: phi(v 0^inf) and phi(v top^inf) are the outer endpoints of
    I_v, which the children at every deeper level share.
    """
    side = _constant_extreme(scheme, x.tail)
    if side is not None:
        lo, hi = scheme.interval_of_word(x.prefix)
        p = lo if side < 0 else hi
        return PointEnclosure(p, p)
    d = _word_depth_for(scheme, precision)
    lo, hi = scheme.interval_of_word(x.materialize(d))
    return PointEnclosure(lo, hi)


# ---------------------------------------------------------------------------
# The interval map f
# ---------------------------------------------------------------------------

def _require_embeddable(scheme: CantorScheme, sys: SystemSpec):
    if sys.id.alphabet is not ALPHA_01:
        raise ValueError(
            "interval map supports binary-alphabet systems only; the "
            "three-symbol and product systems need exact values at "
            "S-extremal gap endpoints, which are not computable here")
    if scheme.alphabet.symbols != ALPHA_01.symbols:
        raise ValueError("scheme alphabet must match the system alphabet")


@dataclass(frozen=True)
class GapMap:
    """f restricted to a gap [a, b]: three linear pieces.

    Breakpoints at the quarter points q1, q3; the middle piece carries
    [q1, q3] (half of the gap) linearly onto the whole of the target
    interval I' = [target_lo, target_hi], and the outer pieces connect
    it continuously to the exact values f(a) and f(b).
    """
    a: Fraction
    b: Fraction
    fa: Fraction
    fb: Fraction
    target_lo: Fraction
    target_hi: Fraction

    @property
    def q1(self) -> Fraction:
        return self.a + (self.b - self.a) / 4

    @property
    def q3(self) -> Fraction:
        return self.a + 3 * (self.b - self.a) / 4

    @cached_property
    def _integer_form(self):
        """(g, breakpoints, pieces): the breakpoints a, q1, q3, b times g,
        and for each piece (u, v, w) in lowest terms with
        f(y) = (u*y + v)/w.

        g = 4 lcm of the six denominators makes every breakpoint and
        value times g an integer.  With X, V those integers, the piece
        from (x0, v0) to (x1, v1) is
        f(y) = (g(V1-V0) y + V0(X1-X0) - (V1-V0)X0) / (g(X1-X0)).
        """
        vals = (self.a, self.b, self.fa, self.fb, self.target_lo,
                self.target_hi)
        g = 4 * math.lcm(*(x.denominator for x in vals))
        a, b, fa, fb, lo, hi = (x.numerator * (g // x.denominator)
                                for x in vals)
        q1, q3 = a + (b - a) // 4, a + 3 * (b - a) // 4
        pieces = []
        for x0, x1, v0, v1 in ((a, q1, fa, lo), (q1, q3, lo, hi),
                               (q3, b, hi, fb)):
            dv, dx = v1 - v0, x1 - x0
            u, v, w = g * dv, v0 * dx - dv * x0, g * dx
            r = math.gcd(u, v, w)
            pieces.append((u // r, v // r, w // r))
        return g, (a, q1, q3, b), pieces

    def _image(self, p: int, q: int):
        """f(p/q) as an unnormalized (numerator, denominator) pair."""
        g, (a, q1, q3, b), pieces = self._integer_form
        lo, rem = divmod(p * g, q)
        hi = lo + (rem != 0)  # floor and ceiling of y*g
        if not (a <= lo and hi <= b):
            raise ValueError("point outside this gap")
        u, v, w = pieces[0 if hi <= q1 else 1 if hi <= q3 else 2]
        return u * p + v * q, w * q

    def __call__(self, y: Fraction) -> Fraction:
        y = Fraction(y)
        return Fraction(*self._image(y.numerator, y.denominator))


def gap_map(scheme: CantorScheme, sys: SystemSpec, gap: GapLocation) -> GapMap:
    """Build the three-piece extension of f across ``gap``.

    The binary maps preserve extremal tails: an unbounded trailing
    1-run is never a closed block (so never erased) and a trailing 0^inf
    stays 0^inf.  So the image word of a = phi(left child . top^inf)
    settles to top^inf, and f(a) is the right end of the interval of
    its stripped image word; f(b) is the left end for the right child
    and bottom^inf.  Both gap endpoints extend the parent word w, so
    their images agree to depth m = modulus(|w|) <= |w|, and the first m
    of the |w| + 9 letters of a's image word give the target interval I'.
    """
    _require_embeddable(scheme, sys)
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
    m = sys.modulus(len(w))
    t_lo, t_hi = scheme.interval_of_word(images[0][:m])
    return GapMap(gap.a, gap.b, fa, fb, t_lo, t_hi)


def f_eval(scheme: CantorScheme, sys: SystemSpec, y: Fraction,
           precision: int) -> PointEnclosure:
    """Enclosure of f(y) of width <= 2^{-precision}.

    On a gap the value is an exact rational from the three-piece map;
    on the Cantor part the enclosure is the interval of the stepped
    word, refined by locating y deeply enough that the image word has
    the requested length.
    """
    _require_embeddable(scheme, sys)
    y = Fraction(y)
    d_out = _word_depth_for(scheme, precision)
    depth = sys.lookahead(d_out)
    loc = locate(scheme, y, depth)
    if isinstance(loc, InGap):
        v = gap_map(scheme, sys, loc.gap)(y)
        return PointEnclosure(v, v)
    lo, hi = scheme.interval_of_word(step_prefix(sys, loc.word, d_out))
    return PointEnclosure(lo, hi)


# ---------------------------------------------------------------------------
# Escape experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EscapeResult:
    iterations: int
    samples: int
    escaped: int
    fraction: Fraction
    bound: Fraction
    sigma: float

    def to_json(self) -> dict:
        return {"n": self.iterations, "samples": self.samples,
                "fraction": float(self.fraction), "bound": float(self.bound),
                "sigma": self.sigma}


_BLOCK = 8    # levels per numpy descent: 2^8 descendant offsets per block
# _DIGITS[d]: the letters of block descendant d, first level first
_DIGITS = (np.arange(2 ** _BLOCK)[:, None]
           >> np.arange(_BLOCK - 1, -1, -1)) & 1
# the number of trailing 1-bits of each block descendant index
_TRAILING_ONES = np.array([(~d & (d + 1)).bit_length() - 1
                           for d in range(2 ** _BLOCK)])


def _descent_blocks(scheme: CantorScheme, depth: int):
    """(D, blocks) for descending a binary scheme to ``depth`` in blocks.

    D is the level table cut to ``depth`` and divided by the gcd of its
    entries, so it does not depend on how far the table has grown.  Each
    block is (L, m, offsets, child): the m <= 8 levels from L on, the
    2^m offsets of the level-(L+m) descendants from the left end of
    their level-L ancestor (the same for every level-L interval, sorted
    because the children are), and the descendants' length, all times D.
    The arrays are int64 while D has at most 62 bits, so that no value
    nor a value plus one overflows, and Python ints otherwise.
    """
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


def _gaps_of(den: int, blocks, points):
    """The samples among ``points`` (p, q) that lie strictly inside a gap
    of level < depth, as tuples (i, n, index, a, b): ``points[i]`` lies in
    the gap (a/D, b/D) of the level-n word numbered ``index``.

    Each block is one ``searchsorted`` of every live sample's offset
    t = floor(y*D) - lo*D within its level-L interval: the descendant d
    is the last whose offset is <= t, and y lies right of it, strictly
    inside a gap, exactly when t - offset_d + [y*D is not an integer]
    exceeds the descendant length (the rule of ``_descend``).  The gap
    between descendants d and d+1 belongs to their last common ancestor,
    r levels up for r the trailing 1-bits of d, and is that ancestor's
    gap 0.
    """
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


def escape_fraction(scheme: CantorScheme, sys: SystemSpec, iterations: int,
                    samples: int, master_seed: int, depth: int,
                    ) -> EscapeResult:
    """Fraction of uniform points still certified outside C after n steps.

    A sample counts as escaped when its n-th iterate lies strictly
    inside a gap of level <= depth.  A point whose orbit reaches a
    level-``depth`` interval cannot be certified outside C and is
    counted as absorbed, so the reported fraction is a one-sided
    estimate tested against the (3/4)^n bound.  Gap images are exact
    rationals, so every comparison is rigorous.

    The samples are the first ``samples`` draws of
    ``default_rng(master_seed).integers(0, 2**53)`` over 2^53, drawn at
    once; each step descends all samples still in gaps together.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if master_seed < 0:
        raise ValueError("master seed must be >= 0")
    _require_embeddable(scheme, sys)
    q = 2 ** 53
    draws = np.random.default_rng(master_seed).integers(0, q, size=samples)
    points = [(p, q) for p in draws.tolist()]
    den, blocks = _descent_blocks(scheme, depth)
    cache: dict = {}
    for step in range(iterations + 1):
        found = _gaps_of(den, blocks, points)
        if step == iterations or not found:
            break
        images = []
        for i, n, index, a, b in found:
            gm = cache.get((n, index, 0))
            if gm is None:
                gm = cache[n, index, 0] = gap_map(
                    scheme, sys, _gap_at(scheme, n, index, 0, a, b, den))
            images.append(gm._image(*points[i]))
        points = images
    escaped = len(found)
    frac = Fraction(escaped, samples)
    p = float(frac)
    sigma = math.sqrt(max(p * (1 - p), 1e-12) / samples)
    return EscapeResult(iterations, samples, escaped, frac,
                        Fraction(3, 4) ** iterations, sigma)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_intervals(scheme: CantorScheme, depth: int, stream) -> int:
    """Write the endpoint tree to ``depth`` as CSV; returns the row count."""
    writer = csv.writer(stream)
    writer.writerow(["word", "lo_num", "lo_den", "hi_num", "hi_den"])
    rows = 0
    for w in scheme.words(depth):
        lo, hi = scheme.interval_of_word(w)
        writer.writerow([w, lo.numerator, lo.denominator,
                         hi.numerator, hi.denominator])
        rows += 1
    return rows
