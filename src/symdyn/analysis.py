"""Attractor membership, empirical orbit statistics, and the limit measure.

The membership predicates decide, by pattern analysis plus oracle queries,
whether a cylinder meets each of the four constructed attractors.  The
statistical side provides visited-window profiles (the desk-scale
surrogate for the omega-limit set), empirical measures along orbits and
their Monte-Carlo averages, and the exact limit measure: a Bernoulli
measure pushed through a block-erasure map, as exact rationals.  The limit
verdict is read once per table, at the cuts where the table's rule object
says it can change, into maximal classes of constant verdict; each
window's environments are summed over those classes in closed form, with
integer masses, so the cost follows the number of verdict changes, not
the size of the machine numbers.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .oracle import OracleTable, TableRefused
from .pi2 import ZoneRule
from .space import ArgumentRefused, Configuration, Cylinder, parse_blocks
from .systems import (EraseKind, SystemId, SystemSpec, block_fate,
                      check_budget, orbit_window_counts, orbit_windows)

YES, NO, UNKNOWN = "yes", "no", "unknown_within_budget"


@dataclass(frozen=True)
class MeetsVerdict:
    value: str                      # YES / NO / UNKNOWN
    witness: Optional[str] = None   # extension sketch or violated block

    def __bool__(self):
        return self.value == YES


def _meets_erasure(kind: EraseKind, oracle, w, budget):
    """No block of ``w`` may be erased in the limit; extending by 1s keeps
    every later block open."""
    fate = block_fate(oracle, kind, budget)
    prev_end = None   # end of the previous 1-run
    for start, l in parse_blocks(w):
        gap = None if prev_end is None else start - prev_end
        prev_end = start + l
        if start == 0 or prev_end == len(w):
            continue   # not a bounded block
        j1 = start - 1
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


def _single_block_shape(w: str):
    """Parse w, a word over {0,1}, as 0^a 1^l 0^b (any part possibly absent).

    Returns (a, l, closed) or None when w has two separated 1-groups.
    """
    runs = parse_blocks(w)
    if not runs:
        return len(w), 0, False
    if len(runs) > 1:
        return None
    a, l = runs[0]
    return a, l, a + l < len(w)


def _meets_single_block(w, rule):
    """The pi2 and T' attractors, read through ``rule``, a
    :class:`ZoneRule`; None reads T'', whose attractor admits every block
    length and no table."""
    if "S" in w:
        return MeetsVerdict(NO, witness="the attractor contains no S")
    shape = _single_block_shape(w)
    if shape is None:
        return MeetsVerdict(NO, witness="two separated 1-groups")
    a, l, closed = shape
    # the 1^a 0^inf family (any leading 1-group, one change afterwards),
    # no 1 at all, or one closed block of an admissible length
    if a == 0 or l == 0 or closed and (rule is None or rule.total(l)):
        return MeetsVerdict(YES, witness=w + "0^inf")
    if closed:
        return MeetsVerdict(NO, witness=f"block 01^{l} 0: index not admissible")
    if rule is None or rule.total_at_least(l):
        return MeetsVerdict(YES, witness="extend the 1-run to an admissible "
                                         "length, then 0^inf")
    return MeetsVerdict(NO, witness=f"no admissible block length >= {l}")


def attractor_meets(system_id: SystemId, c: Cylinder, oracle: OracleTable,
                    budget: Optional[int] = None) -> MeetsVerdict:
    """Does the cylinder meet the attractor of the given system?"""
    if c.position != 0:
        raise ArgumentRefused("predicates are defined at position 0")
    if system_id is SystemId.SHIFT:
        raise ArgumentRefused(f"no attractor predicate for {system_id}")
    check_budget(budget)
    w = c.word
    bad = w.translate(system_id.alphabet.absent)    # its cylinder is empty
    if bad:
        return MeetsVerdict(NO, f"{system_id.value} has no symbol {bad[0]!r}")
    if system_id.erase is not None:
        return _meets_erasure(system_id.erase, oracle, w, budget)
    return _meets_single_block(
        w, None if system_id.second_inserts else ZoneRule(oracle))


def verdict_to_json(predicate: str, v: MeetsVerdict) -> str:
    return json.dumps({"predicate": predicate, "verdict": v.value,
                       "witness": v.witness}, indent=2)


# ---------------------------------------------------------------------------
# Visited-window profiles and empirical measures
# ---------------------------------------------------------------------------

def _project_key(w: str, depth: int) -> str:
    """Cut each layer of a window key ('w1' or 'w1|w2') to ``depth``."""
    return "|".join(layer[:depth] for layer in w.split("|"))


@dataclass(frozen=True)
class OmegaProfile:
    depth: int
    words: frozenset
    burn_in: int
    horizon: int

    def project(self, depth: int) -> "OmegaProfile":
        if not 0 <= depth <= self.depth:
            raise ArgumentRefused(f"cannot project to depth {depth}")
        return OmegaProfile(depth, frozenset(_project_key(w, depth)
                                             for w in self.words),
                            self.burn_in, self.horizon)


def omega_profile(sys: SystemSpec, x, burn_in: int, horizon: int,
                  depth: int) -> OmegaProfile:
    """The set of depth-L windows visited in [burn_in, horizon)."""
    if burn_in >= horizon:
        raise ArgumentRefused("need burn_in < horizon")
    seen = frozenset(orbit_window_counts(sys, x, burn_in, horizon, depth))
    return OmegaProfile(depth, seen, burn_in, horizon)


@dataclass(frozen=True)
class EmpiricalMeasure:
    depth: int
    counts: Dict[str, int]
    total: int

    def frequency(self, word: str) -> Fraction:
        return Fraction(self.counts.get(word, 0), self.total)

    def project(self, depth: int) -> "EmpiricalMeasure":
        if not 0 <= depth <= self.depth:
            raise ArgumentRefused(f"cannot project to depth {depth}")
        agg: Counter = Counter()
        for w, c in self.counts.items():
            agg[_project_key(w, depth)] += c
        return EmpiricalMeasure(depth, dict(agg), self.total)

    def write_csv(self, fh) -> None:
        """Write the table word,count,frequency: one row per word, in word
        order, each ended by a bare newline."""
        fh.write("word,count,frequency\n")
        for w in sorted(self.counts):
            fh.write(f"{w},{self.counts[w]},{float(self.frequency(w))}\n")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)


def empirical_measure(sys: SystemSpec, x, n: int, depth: int,
                      start: int = 0) -> EmpiricalMeasure:
    """Counts of depth-L windows over iterates start .. start+n-1."""
    if n < 1:
        raise ArgumentRefused("need n >= 1")
    counts = orbit_window_counts(sys, x, start, start + n, depth)
    return EmpiricalMeasure(depth, counts, n)


def derived_seed(master_seed: int, index: int) -> int:
    """Per-sample seed: numpy SeedSequence spawn-key [master, index]."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


def pushforward_average(sys: SystemSpec,
                        make_config: Callable[[int], Configuration],
                        n: int, depth: int, samples: int,
                        master_seed: int) -> EmpiricalMeasure:
    """Monte-Carlo average of the first n pushforwards of a sampled measure.

    ``make_config(seed)`` must build a configuration from a derived seed;
    results are bit-identical for a fixed master seed regardless of
    evaluation order.
    """
    if samples < 1:
        raise ArgumentRefused("need samples >= 1")
    agg: Counter = Counter()
    for i in range(samples):
        x = make_config(derived_seed(master_seed, i))
        m = empirical_measure(sys, x, n, depth)
        agg.update(m.counts)
    return EmpiricalMeasure(depth, dict(agg), n * samples)


@dataclass(frozen=True)
class FoundWitness:
    t: int
    seed_index: int


def realm_visit_check(sys: SystemSpec, seeds: Sequence, target: Cylinder,
                      k: int, n: int, m: int) -> Optional[FoundWitness]:
    """First (seed, t), n <= t <= m, whose window meets the depth-k
    neighbourhood of the target cylinder; None when no orbit does."""
    if not 0 <= n <= m or k < 0:
        raise ArgumentRefused(f"need 0 <= n <= m, k >= 0: {n}, {m}, {k}")
    word = target.word[:max(0, k - target.position)]
    lo, hi = target.position, target.position + len(word)
    for idx, x in enumerate(seeds):
        for t, w in enumerate(orbit_windows(sys, x, n, m + 1, hi), start=n):
            key = w[0] if isinstance(w, tuple) else w
            if key[lo:hi] == word:
                return FoundWitness(t=t, seed_index=idx)
    return None


# ---------------------------------------------------------------------------
# Membership in the product-system cylinders U_{s,t}
# ---------------------------------------------------------------------------

def u_st_member(x, s: int, t: int, depth: int) -> Optional[bool]:
    """Membership in U_{s,t}: layer 1 in [{0,1}^{s-1} S]_0, layer 2 with
    an a-run a^{m+s} starting at some position m >= t.

    Returns True, or None when no witnessing run exists up to ``depth``
    (the predicate is open; absence cannot be certified).
    """
    if s < 1:
        raise ArgumentRefused("need s >= 1")
    w1, w2 = x.materialize(max(s, 2 * depth + s))
    if len(w1) < s or "S" in w1[:s - 1] or w1[s - 1] != "S":
        return False
    for m in range(t, depth):
        hi = m + m + s
        if hi <= len(w2) and all(c == "a" for c in w2[m:hi]):
            return True
    return None


# ---------------------------------------------------------------------------
# The limit measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TildeMuEstimate:
    """The exact limit mass of ``word``, kept as ``lower == upper``."""

    word: str
    lower: Fraction
    upper: Fraction
    truncation: int

    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2


def _words(L: int):
    return map("".join, itertools.product("01", repeat=L))


def _verdict_classes(oracle: OracleTable, kind: EraseKind):
    """The limit verdict as a grid of maximal classes of constant verdict.

    A block's verdict depends on its machine l and its gap, and changes
    only at the rule's ``cuts()``, so :func:`block_fate` is read once at the
    lower end of each cell.  Adjacent rows and columns with equal verdicts
    are merged.  Returns (l_cuts, g_cuts, verdicts): l-class i is
    [l_cuts[i], l_cuts[i + 1]), the last one open-ended, gap classes
    likewise, and ``verdicts[i][j]`` the verdict of the cell.
    """
    fate = block_fate(oracle, kind)
    l_cuts, g_cuts = fate.cuts()
    grid = [[fate(l, g) for g in g_cuts] for l in l_cuts]
    cols = [j for j in range(len(g_cuts))
            if j == 0 or any(row[j] != row[j - 1] for row in grid)]
    lows, verdicts = [], []
    for l, row in zip(l_cuts, grid):
        row = [row[j] for j in cols]
        if not verdicts or row != verdicts[-1]:
            lows.append(l)
            verdicts.append(row)
    return lows, [g_cuts[j] for j in cols], verdicts


def _limit_measure(oracle: OracleTable, p: Fraction, L: int,
                   kind: EraseKind) -> Dict[str, Fraction]:
    """The limit distribution of length-``L`` windows, as {word: mass}.

    The limit of the shifted pushforwards of the Bernoulli(p on 1) product
    measure through a block-erasure map makes the window distribution
    stationary.  A window's image erases some of its 1-runs.  Its inner
    runs have verdicts the window fixes; its first run reads the left
    environment (the extension a of a run touching the left edge, and the
    gap, which runs on over z zeros to the nearest 1 on the left) and a
    right-open run reads the extension e.  a, e and z are geometric, so
    over each class of :func:`_verdict_classes` a run's mass sums in closed
    form (sum_{n0 <= n < n1} p^n q = p^n0 - p^n1; a + e, when one run spans
    the window, has tail p^n (1 + n q)).  The left and right environments
    are independent, so a window costs O(classes), whatever the machine
    numbers are.  Masses are integers over pd^N for p = pn/pd; the
    Fractions are built once, at the end.
    """
    if not oracle.programmed:
        raise TableRefused("tilde_mu needs a programmed table")
    p = Fraction(p)
    if not 0 < p < 1 or L < 0:
        raise ArgumentRefused(f"need 0 < p < 1 and depth >= 0, got {p}, {L}")
    pn, pd = p.numerator, p.denominator
    qn = pd - pn
    l_cuts, g_cuts, verdicts = _verdict_classes(oracle, kind)
    HL, HG = l_cuts[-1] + 1, g_cuts[-1]   # scales: pd**HL, pd**HG
    one = pd ** (HL + HG)

    def summed(cuts, x0, tail, vectors, full):
        """For each vector v of per-class values, the sum over classes of
        P(x0 + extension in the class) * v, times ``full``: the value of
        x0's class, plus the change at each later cut times the tail
        there (Abel summation); ``tail`` None means no extension."""
        c = bisect.bisect_right(cuts, x0) - 1
        steps = ([(i, tail(cuts[i] - x0)) for i in range(c + 1, len(cuts))]
                 if tail else ())
        return [full * v[c] + sum(t * (v[i] - v[i - 1]) for i, t in steps
                                  if v[i] != v[i - 1])
                for v in vectors]

    def length_tail(ext):
        """P(the run's extension >= n > 0), times pd**HL, as a function
        of n: ext counts the sides the run extends past the window."""
        if ext == 1:
            return lambda n: pn ** n * pd ** (HL - n)
        return lambda n: pn ** n * (pd + n * qn) * pd ** (HL - n - 1)

    @functools.cache
    def gap_row(g0, g_ext):
        """Per l-class P(an erasing gap), times pd**HG."""
        tail = (lambda m: qn ** m * pd ** (HG - m)) if g_ext else None
        return summed(g_cuts, g0, tail, verdicts, pd ** HG)

    @functools.cache
    def erased(l0, l_ext, g0, g_ext):
        """P(the run is erased), times ``one``."""
        return summed(l_cuts, l0, length_tail(l_ext) if l_ext else None,
                      [gap_row(g0, g_ext)], pd ** HL)[0]

    # every window carries two environment factors over ``one``: one per
    # run whose verdict is uncertain (at most the first and a right-open
    # run), padded with ``one`` for the rest
    pads = (one * one, one, 1)
    mass: Dict[int, int] = defaultdict(int)
    for w in _words(L):
        ones = w.count("1")
        outcomes = [(int(w, 2) if L else 0, pn ** ones * qn ** (L - ones))]
        prev_end, split = None, 0
        for start, l in parse_blocks(w):
            end = start + l
            # the first run reads the left environment: the gap runs on
            # past the window (at least 1 when a run touches the edge)
            first = prev_end is None
            t = erased(l, (first and start == 0) + (end == L),
                       max(start, 1) if first else start - prev_end, first)
            prev_end = end
            zero = ~(((1 << l) - 1) << (L - end))
            if t == one:
                outcomes = [(i & zero, m) for i, m in outcomes]
            elif t:
                outcomes = [o for i, m in outcomes for o in (
                    (i & zero, m * t), (i, m * (one - t)))]
                split += 1
        for i, m in outcomes:
            mass[i] += m * pads[split]

    total = pd ** L * one * one
    if sum(mass.values()) != total:
        raise AssertionError("environment decomposition lost mass")
    return defaultdict(Fraction, {format(i, "b").zfill(L) if L else "":
                                  Fraction(m, total)
                                  for i, m in mass.items()})


def tilde_mu(oracle: OracleTable, p: Fraction, u: str, truncation: int,
             kind: EraseKind = EraseKind.PHI) -> TildeMuEstimate:
    """The exact limit measure of [u] under Bernoulli(p) input.

    The value is an exact rational; ``truncation`` changes neither the
    value nor the work, and is only carried into the result.
    """
    m = _limit_measure(oracle, p, len(u), kind)[u]
    return TildeMuEstimate(u, m, m, truncation)


def tilde_mu_table(oracle: OracleTable, p: Fraction, depth: int,
                   truncation: int,
                   kind: EraseKind = EraseKind.PHI) -> Dict[str, TildeMuEstimate]:
    """The limit measure of every word of the given depth, from one pass."""
    dist = _limit_measure(oracle, p, depth, kind)
    return {w: TildeMuEstimate(w, dist[w], dist[w], truncation)
            for w in _words(depth)}
