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
table, so the level measure is read once per level.  The table grows
lazily, only as deep as a call reaches.  I_w starts at the sum of
index(w_i) times the level-i stride, over D.

A descent (``locate``, ``f_eval``, the escape loop) turns y = p/q into
the integer z = floor(y*D) + ceil(y*D): for an integer N, y*D > N
exactly when z > 2N and y*D >= N exactly when z >= 2N, so every
comparison is exact at any depth.  For each complete block of m levels
of the table (k^m <= 256), the scheme keeps the doubled ends of the k^m
descendants an interval has m levels down, the same for every interval
of a level, so a descent takes one bisection per block and one floor
division per level past the last block.  A gap map evaluates each of
its three affine pieces as one integer expression (u*p + v*q) / (w*q),
and the escape loop carries each image as an unreduced (numerator,
denominator) pair.  numpy only draws the escape samples, which are
defined as the draws of ``numpy.random.default_rng``.
"""

from __future__ import annotations

import csv
import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .space import (ALPHA_01, Alphabet, ArgumentRefused, Configuration,
                    Constant, Periodic, Tail)
from .systems import SystemSpec, step_prefix

ZERO = Fraction(0)
ONE = Fraction(1)
_GAP_CAP = 4096     # gap maps one scheme's memo holds, over all systems


def default_level_measure(n: int) -> Fraction:
    """c_n = (1 + 2^{-n}) / 2; c_0 = 1, decreasing, limit 1/2."""
    return Fraction(2 ** n + 1, 2 ** (n + 1))


class CantorScheme:
    """Immutable k-ary fat-Cantor interval scheme.

    Endpoints and gaps are read from the integer level table, a pure
    cache that only ``_integer_layout`` grows, lazily, by one integer
    recurrence per level, with one read of c_n per level.  The descent
    blocks are derived from the table and rebuilt once after it grows.
    Beside them the scheme holds the live samples of its last escape
    run, which only ``escape_fraction`` replaces whole, and a memo of gap
    maps by system (an equal ``SystemSpec``) and gap, emptied before it
    passes ``_GAP_CAP``; each map is built once, from ``gap`` and
    ``interval_of_word``.  Table growth and memo inserts take the
    scheme's lock; entries are never changed and all builds agree, so
    concurrent callers at worst build one entry twice.  A level measure
    that stops strictly decreasing is refused when the table reaches
    that level.
    """

    def __init__(self,
                 alphabet: Alphabet = ALPHA_01,
                 level_measure: Callable[[int], Fraction]
                 = default_level_measure,
                 limit: Fraction = Fraction(1, 2)):
        self.alphabet = alphabet
        self.k = len(alphabet.symbols)
        if self.k < 2:
            raise ArgumentRefused("scheme needs at least two symbols")
        self._c = level_measure
        self.limit = Fraction(limit)
        if not ZERO < self.limit < self._c(0) == ONE:
            raise ArgumentRefused("need c_0 = 1 and limit in (0, 1)")
        self._digit = {s: i for i, s in enumerate(alphabet.symbols)}
        self._m = 1      # levels per descent block: k^m <= 256 descendants
        while self.k ** (self._m + 1) <= 256:
            self._m += 1
        self._grid: tuple = (1, ())
        self._blocks: tuple = (self._grid, ())
        # (key, iterations, live), as escape_fraction keeps it
        self._escape: tuple = (None, 0, [])
        self._gaps: dict = {}   # SystemSpec -> {gap key: GapMap}
        self._lock = threading.Lock()   # table growth and memo inserts

    def level_measure(self, n: int) -> Fraction:
        """Total length of the level-n intervals: sum_{|w|=n} |I_w|."""
        return Fraction(self._c(n))

    def contraction(self, n: int) -> Fraction:
        """b_n = c_{n+1}/c_n, the covered fraction of a level-n interval."""
        b = self.level_measure(n + 1) / self.level_measure(n)
        if not ZERO < b < ONE:
            raise ValueError(f"level measures not strictly decreasing at {n}")
        return b

    def _span(self, w: str):
        """(lo, hi, D) with I_w = [lo/D, hi/D]: lo is the digit sum of
        index(w_i) * stride_i*D, and hi = lo + child_{|w|-1}*D."""
        n = len(w)
        den, levels = self._integer_layout(n - 1)
        digit = self._digit
        try:
            lo = sum([digit[s] * row[0] for s, row in zip(w, levels)])
        except KeyError as e:
            raise ArgumentRefused(
                f"symbol {e.args[0]!r} outside scheme alphabet") from None
        return lo, lo + (levels[n - 1][1] if n else den), den

    def interval_of_word(self, w: str):
        """Exact endpoints (lo, hi) of I_w."""
        lo, hi, den = self._span(w)
        return Fraction(lo, den), Fraction(hi, den)

    def cantor_measure(self, w: str) -> Fraction:
        """Lebesgue measure of I_w ∩ C: k^{-|w|} times the measure of C."""
        return self.limit / Fraction(self.k) ** len(w)

    def gap(self, w: str, j: int) -> "GapLocation":
        """The j-th gap inside I_w (between children j and j+1)."""
        if not 0 <= j < self.k - 1:
            raise ArgumentRefused("gap index out of range")
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
        has a consistent one, whose D divides every later one.
        """
        if n < len(self._grid[1]):
            return self._grid
        with self._lock:    # one grower at a time, so the table never shrinks
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

    def _descent_table(self):
        """((D, levels), blocks): for each complete block of m levels in
        the table, (ends, L + m) for the k^m descendants at level L + m of
        a level-L interval [lo, hi], listed in ends as 2 (left end - lo),
        2 (right end - lo) + 1, ..., times D.  Rebuilt only when the table
        has grown since they were derived."""
        grid, held = self._grid, self._blocks
        if held[0] is grid:
            return held
        k, m, levels = self.k, self._m, grid[1]
        blocks = []
        for start in range(0, len(levels) - m + 1, m):
            offsets = [0]
            for stride, _ in levels[start:start + m]:
                offsets = [o + j * stride for o in offsets for j in range(k)]
            child = levels[start + m - 1][1]
            blocks.append(([e for o in offsets
                            for e in (2 * o, 2 * (o + child) + 1)], start + m))
        self._blocks = held = (grid, tuple(blocks))
        return held

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


def _descend(scheme: CantorScheme, points, depth: int):
    """Integer core of ``locate``: yields one (n, index, a, b, D) for each
    y = p/q in [0, 1] (q > 0) of ``points``, in order.  When a is None, y lies in
    the level-``depth`` interval numbered ``index`` (n = depth);
    otherwise y lies strictly inside the gap (a/D, b/D) right after the
    level-n interval numbered ``index``, which ``_gap_owner`` names.

    z is floor(y*D) + ceil(y*D) minus twice the current interval's left
    end, times D.  In a block, the number of listed ends <= z is odd
    when y lies in a descendant (endpoints included) and even when it
    lies strictly inside the gap after one.  A walk that runs past the
    table grows it by the one level it reads next.
    """
    k, m = scheme.k, scheme._m
    width = k ** m                  # descendants per block
    grid = None
    for p, q in points:
        if grid is None:    # first point, or the last one grew the table
            grid, blocks = scheme._descent_table()
            den, levels = grid
            blocks = blocks[:depth // m]
        f, rem = divmod(p * den, q)
        z = whole = 2 * f + (rem != 0)
        index = n = 0
        for ends, n in blocks:
            i = bisect_right(ends, z)
            index = index * width + (i >> 1)
            if not i & 1:   # strictly inside the gap after descendant index-1
                lo = (whole - z) >> 1
                yield (n, index - 1, lo + (ends[i - 1] >> 1),
                       lo + (ends[i] >> 1), den)
                break
            z -= ends[i - 1]
        else:
            while n < depth:
                if n == len(levels):    # grow the table by the level read next
                    lo2, grid = whole - z, None
                    d, levels = scheme._integer_layout(n)
                    lo2 *= d // den
                    den = d
                    f, rem = divmod(p * den, q)
                    whole = 2 * f + (rem != 0)
                    z = whole - lo2
                stride, child = levels[n]
                j, z = divmod(z, 2 * stride)
                index = index * k + j
                n += 1
                if z > 2 * child:   # strictly inside the gap after child j
                    lo = (whole - z) >> 1
                    yield n, index, lo + child, lo + stride, den
                    break
            else:
                yield depth, index, None, None, den


def _gap_key(k: int, n: int, index: int):
    """The canonical (n, index) of the gap right after the level-n interval
    ``index``: its trailing (k-1)-digits climb to where the gap lies."""
    while index % k == k - 1:
        index //= k
        n -= 1
    return n, index


def _gap_owner(scheme: CantorScheme, n: int, index: int):
    """(w, j): the gap after level-n interval ``index`` is gap j of I_w."""
    n, index = _gap_key(scheme.k, n, index)
    index, j = divmod(index, scheme.k)
    return scheme._word_at(n - 1, index), j


def locate(scheme: CantorScheme, y: Fraction, depth: int) -> Location:
    """Exact position of y relative to the level-``depth`` intervals.

    Returns ``InGap`` as soon as y falls strictly inside a gap at level
    <= depth, otherwise the depth-letter word whose interval contains y
    (interval endpoints count as inside, since they belong to C).
    """
    y = Fraction(y)
    if not ZERO <= y <= ONE:
        raise ArgumentRefused("point outside [0, 1]")
    if depth < 0:
        raise ArgumentRefused("depth must be >= 0")
    [(n, index, a, b, den)] = _descend(
        scheme, [(y.numerator, y.denominator)], depth)
    if a is None:
        return InLevelInterval(scheme._word_at(n, index))
    w, j = _gap_owner(scheme, n, index)
    return InGap(GapLocation(w, j, Fraction(a, den), Fraction(b, den)))


def _word_depth_for(scheme: CantorScheme, precision: int) -> int:
    """Least d with k^{-d} <= 2^{-precision} (so |I_w| < 2^{-precision})."""
    if precision < 0:
        raise ArgumentRefused(f"precision must be >= 0, got {precision}")
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
    d = _word_depth_for(scheme, precision)
    side = _constant_extreme(scheme, x.tail)
    if side is not None:
        lo, hi = scheme.interval_of_word(x.prefix)
        p = lo if side < 0 else hi
        return PointEnclosure(p, p)
    lo, hi = scheme.interval_of_word(x.materialize(d))
    return PointEnclosure(lo, hi)


# ---------------------------------------------------------------------------
# The interval map f
# ---------------------------------------------------------------------------

def _require_embeddable(scheme: CantorScheme, sys: SystemSpec):
    if sys.id.alphabet is not ALPHA_01:
        raise ArgumentRefused(
            "interval map supports binary-alphabet systems only; the "
            "three-symbol and product systems need exact values at "
            "S-extremal gap endpoints, which are not computable here")
    if scheme.alphabet.symbols != ALPHA_01.symbols:
        raise ArgumentRefused("scheme alphabet must match the system alphabet")


@dataclass(frozen=True)
class GapMap:
    """f restricted to a gap [a, b]: three linear pieces.

    Breakpoints at the quarter points q1, q3; the middle piece carries
    [q1, q3] (half of the gap) linearly onto the whole of the target
    interval I' = [target_lo, target_hi], and the outer pieces connect
    it continuously to the exact values f(a) and f(b).  The map is
    evaluated through its integer form, built on first use.
    """
    a: Fraction
    b: Fraction
    fa: Fraction
    fb: Fraction
    target_lo: Fraction
    target_hi: Fraction

    @cached_property
    def _integer_form(self):
        """(g, breakpoints, pieces): the breakpoints a, q1, q3, b times
        g = 4D, for D the lcm of the six values' denominators, and for
        each piece (u, v, w) in lowest terms with f(y) = (u*y + v)/w.
        With X, V the breakpoints and values times g, the piece from
        (x0, v0) to (x1, v1) is
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

    def __call__(self, y: Fraction) -> Fraction:
        y = Fraction(y)
        return Fraction(*_image(self._integer_form, y.numerator,
                                y.denominator))


def _image(form, p: int, q: int):
    """The gap map with integer form ``form`` at p/q, as an unnormalized
    (numerator, denominator) pair."""
    g, (a, q1, q3, b), pieces = form
    lo, rem = divmod(p * g, q)
    hi = lo + (rem != 0)  # floor and ceiling of y*g
    if not (a <= lo and hi <= b):
        raise ValueError("point outside this gap")
    u, v, w = pieces[0 if hi <= q1 else 1 if hi <= q3 else 2]
    return u * p + v * q, w * q


def _gap_entry(scheme: CantorScheme, sys: SystemSpec, n: int,
               index: int) -> GapMap:
    """The memo's map of the gap right after level-n interval ``index``, as
    ``_descend`` names it; built on a miss.

    The binary maps preserve extremal tails: an unbounded trailing
    1-run is never a closed block (so never erased) and a trailing 0^inf
    stays 0^inf.  So the image word of a = phi(left child . top^inf)
    settles to top^inf, and f(a) is the right end of the interval of
    its stripped image word; f(b) is the left end for the right child
    and bottom^inf.  Both gap endpoints extend the parent word w, so
    their images agree to depth m = modulus(|w|) <= |w|, and the first m
    of the |w| + 9 letters of a's image word give the target interval I'.
    """
    n, index = _gap_key(scheme.k, n, index)
    gm = scheme._gaps.get(sys, {}).get((n, index))
    if gm is None:
        w, j = _gap_owner(scheme, n, index)
        syms = scheme.alphabet.symbols
        bot, top = syms[0], syms[-1]
        images = []
        for child, tail in ((w + syms[j], top), (w + syms[j + 1], bot)):
            d = len(child) + 8
            images.append(step_prefix(
                sys, child + tail * (sys.lookahead(d) - len(child)), d))
        gap, word = scheme.gap(w, j), scheme.interval_of_word
        gm = GapMap(gap.a, gap.b, word(images[0].rstrip(top))[1],
                    word(images[1].rstrip(bot))[0],
                    *word(images[0][:sys.modulus(len(w))]))
        with scheme._lock:
            if sum(map(len, scheme._gaps.values())) >= _GAP_CAP:
                scheme._gaps = {}
            gm = scheme._gaps.setdefault(sys, {}).setdefault((n, index), gm)
    return gm


def gap_map(scheme: CantorScheme, sys: SystemSpec, gap: GapLocation) -> GapMap:
    """The three-piece extension of f across ``gap``, which must equal
    ``scheme.gap(gap.parent, gap.index)``; built once per system."""
    _require_embeddable(scheme, sys)
    if gap != scheme.gap(gap.parent, gap.index):
        raise ArgumentRefused(f"{gap} is not a gap of this scheme")
    w = gap.parent + "0"    # the left child: binary, so the index is 0
    return _gap_entry(scheme, sys, len(w), int(w, 2))


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


def _in_gaps(scheme: CantorScheme, points, depth: int):
    """(p, q, gap key) for each p/q of ``points`` strictly inside a gap of
    level <= ``depth``; the points in level-``depth`` intervals drop out."""
    k = scheme.k
    return [(p, q, _gap_key(k, n, index)) for (p, q), (n, index, a, _, _)
            in zip(points, _descend(scheme, points, depth)) if a is not None]


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
    once; each step descends every sample still in a gap and maps it by
    the gap map in the scheme's memo, which ``gap_map`` and ``f_eval``
    share, so each gap's map is built once per scheme and system.

    The scheme keeps the run's frontier: its live samples, the unreduced
    images after n steps that lie strictly inside a gap, each with its
    gap's key; absorbed samples are dropped.  A call with the same
    system (an equal ``SystemSpec``), samples, seed and depth and at
    least the held step count resumes from it, so asking for n = 1..N in
    turn costs one N-step run; any other call starts again from the
    draws and replaces the frontier.
    """
    if samples < 1:
        raise ArgumentRefused("need at least one sample")
    if iterations < 0:
        raise ArgumentRefused("iterations must be >= 0")
    if depth < 0:
        raise ArgumentRefused("depth must be >= 0")
    if master_seed < 0:
        raise ArgumentRefused("master seed must be >= 0")
    _require_embeddable(scheme, sys)
    key = (sys, samples, master_seed, depth)
    held, done, live = scheme._escape
    scheme._integer_layout(depth - 1)   # the blocks then reach ``depth``
    if held != key or done > iterations:
        q, rng = 2 ** 53, np.random.default_rng(master_seed)
        done, live = 0, _in_gaps(scheme, [
            (p, q) for p in rng.integers(0, q, size=samples).tolist()], depth)
    with scheme._lock:
        maps = scheme._gaps.setdefault(sys, {})
    for _ in range(done, iterations):
        live = _in_gaps(scheme, [
            _image((maps.get(g) or _gap_entry(scheme, sys, *g))._integer_form,
                   p, q) for p, q, g in live], depth)
    scheme._escape = (key, iterations, live)
    escaped = len(live)
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
    if depth < 0:
        raise ArgumentRefused(f"depth must be >= 0, got {depth}")
    scheme._integer_layout(depth - 1)   # grown once, not level by level
    writer = csv.writer(stream)
    writer.writerow(["word", "lo_num", "lo_den", "hi_num", "hi_den"])
    rows = 0
    for w in scheme.words(depth):
        lo, hi = scheme.interval_of_word(w)
        writer.writerow([w, lo.numerator, lo.denominator,
                         hi.numerator, hi.denominator])
        rows += 1
    return rows
