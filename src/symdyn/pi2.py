"""The traveling-S maps: zone automaton, gated variant, inserting variant.

A configuration over {0,1,S} is read as u0 S u1 S u2 ...; one application
does, atomically and in this order:

  (b) for the k-th S (k >= 2) at position i_k, every maximal 1-run whose
      1s lie within the first i_k cells of the zone to its right and whose
      length l satisfies the oracle query AllLengthsBelow(k) at budget i_k
      is excised: its cells are zeroed and the word 0 1^l is inserted
      immediately left of that S (several excisions concatenate in their
      original order), pushing the S and everything right of it;
  (c) the first S advances one cell.  If the zone left of it is of the
      form 0^p 1^q (all 1s glued to the S), it consumes the symbol to its
      right: a 1 extends the glued run (whose left end stays fixed), a 0
      is written to its left and ends a crossing; otherwise — or when the
      neighbour is another S — it pushes everything to its right by one
      cell and two 0s fill the vacated space;
  (d) the leftmost zone shifts left one cell (absorbed into the glued-run
      bookkeeping during a crossing step).

The gated variant additionally allows a crossing step at first-S position
i only when the second layer, a word over {a, b}, carries at time t
a^{2i} at position i or a^{2i+1} at position i+1 (``gate_allows``); the
second layer itself is shifted.  The inserting variant leaves the first S
ungated but makes the second S test the same condition at the first S's
position i, and on success insert the word (01)(011)...(01^i)0 at its own
position, pushing itself and everything to its right.

The zone systems read their table only through a :class:`ZoneRule`, one
per ``SystemSpec`` and per ``ZoneEngine``; it refuses an enumerated table.

``step_prefix`` applies one step to a finite word exactly, with string
operations: it finds only the S's within reach, reads each zone's 1-runs
up to its scan prefix and builds a new string only around an excision or
an insertion.  The list-based step it replaced is kept in the test suite
as its reference.

``ZoneEngine`` runs long orbits; it tracks every S inside a finite
materialized horizon and extends the frontier whenever a scan or window
read reaches it.  Its cells are ASCII bytes: u0 and every zone is one
``bytearray``, scanned in place for 1-runs and popped from the front
with ``del``.  An S-free horizon runs as the shift, once it is read on
past any open 1-run an S beyond it could glue (``_past_glued_run``).  S
positions are kept lazily in two flat lists over the zone index, each
zone's insertion displacement and its next excision wake-up, beside the
set of zones with runs pending.  All the excisions of one step (a wave)
cost one scan of that set for the zones due, one C-level prefix sum over
the zone index that applies the wave's displacements, and Python work per
fired zone: heap pops, a sort only when several runs fire, zeroing and one
deposit, however many S's sit to their right.  A wave with one zone due
applies its displacement with one C-level slice add over the zones from
it on, in place of the prefix sum, and skips the scan when that zone is
the only one with runs pending.  A push compares the push
count with a cached bound before any frontier check runs.  Past the
materialization cap the check extends nothing and only counts
``cap_hits``; a wave that meets the cap counts the checks of its later
zones in one addition.  A run of steps that all push only shifts u0, and
``orbit_windows`` applies such a run in one jump (``ZoneEngine.jump``), of
at most ``_JUMP`` steps: the u0 part is four buffer operations, and the
run's windows are slices of one decoded string.  While zone 1 holds cells
and u0 a 1 not glued to the first S, no wave can end the run, so the jump
fires each wave due and each frontier check at its own push count; with
zone 1 empty it stops before the next wave, whose deposit would end the
run, and before the next frontier check.

The engine counts the frontier checks that hit the materialization cap in
``cap_hits``, but a zero count does not make it exact: on criterion 08's
input (``verify.two_zone_configuration``, horizon 3,000) S_2 departs from
``_step_word`` at step 2,063 while ``cap_hits`` is 0.  In the test suite
the engine's windows are fuzz-checked against orbits of ``step_prefix``,
the engine runs in lockstep with the earlier heap engine, and its jumps
are checked against single steps.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from operator import add, itemgetter
from typing import Iterator, List, Optional, Tuple

from .oracle import OracleTable, QueryKind, TableRefused
from .space import (_ONE_RUN, _ONE_RUN_BYTES, ArgumentRefused,
                    Configuration, FrontierUnresolved)


@dataclass(frozen=True)
class ProductConfiguration:
    """Two-layer configuration: {0,1,S} symbols over an {a,b} stream."""

    layer1: Configuration
    layer2: Configuration

    def materialize(self, n: int) -> Tuple[str, str]:
        return self.layer1.materialize(n), self.layer2.materialize(n)


class ZoneRule:
    """What the zone systems read off a programmed table: ``tau(l, k)``,
    the memoized ``all_below_time`` that times the excision of a 1-run of
    length l in zone k; ``excises``, whether any excision can fire; and
    for the attractor predicate, whether M_l (``total``) or some M_e with
    e >= l (``total_at_least``) is total.  Refuses an enumerated table,
    which cannot give excision times in advance."""

    def __init__(self, oracle: OracleTable):
        if not oracle.programmed:
            raise TableRefused("the zone systems need a programmed oracle "
                               "table")
        self.oracle = oracle
        # dense orbits ask few distinct pairs of an immutable table
        self.tau = functools.cache(lambda l, k: oracle.all_below_time(l, k))
        self.excises = oracle.default_halts or any(
            oracle.timed_facts(e, QueryKind.ALL_BELOW)
            for e in oracle.listed_machines())

    def total(self, l: int) -> bool:
        return self.oracle.is_total(l)

    def total_at_least(self, l: int) -> bool:
        # under halt1 every unlisted index is total with bound 1
        oracle = self.oracle
        return oracle.default_halts or any(
            oracle.is_total(e) for e in oracle.listed_machines() if e >= l)


# ---------------------------------------------------------------------------
# The crossing gate read off the second layer
# ---------------------------------------------------------------------------

def gate_allows(w2: str, i: int, t: int = 0) -> bool:
    """True when the second layer ``w2``, a word over {a, b}, carries at
    time ``t`` a^{2i} at position i or a^{2i+1} at i+1.

    Raises FrontierUnresolved if ``w2`` is too short to decide.
    """
    if i == 0:
        return True
    size, runs = len(w2), ((t + i, t + 3 * i), (t + i + 1, t + 3 * i + 2))
    for lo, hi in runs:
        if size >= hi and w2.find("b", lo, hi) < 0:
            return True
    for lo, hi in runs:
        # the supplied part of a run is all a's, so it may still hold
        if size < hi and w2.find("b", lo) < 0:
            raise FrontierUnresolved("second layer too short for the gate")
    return False


def _insertion_word(i: int) -> str:
    """(01)(011)...(01^i)0 — the first i blocks of 1s, then a closing 0."""
    return "".join("0" + "1" * j for j in range(1, i + 1)) + "0"


# ---------------------------------------------------------------------------
# One exact step on a finite word
# ---------------------------------------------------------------------------

def _step_word(rule: ZoneRule, w1: str, n: int,
               w2: Optional[str] = None,
               gate_first: bool = False,
               second_inserts: bool = False) -> str:
    size = len(w1)
    if size < n + 1:
        raise FrontierUnresolved("need one symbol past the window")
    s1 = w1.find("S")
    if s1 < 0:
        # no S within reach: the map shifts, unless a 1-run glued to an S
        # just past the supplied word could freeze the window
        if _glued_run_open(w1, n):
            raise FrontierUnresolved(
                "open 1-run may be glued to an S beyond the word")
        return w1[1:n + 1]
    if s1 + 1 >= size:
        raise FrontierUnresolved(
            "first S reads one symbol past the supplied word")

    # everything strictly right of this position cannot influence the window
    # (the first S reads the symbol to its right, which an excision at an
    # adjacent second S may rewrite)
    reach = max(n, s1 + 2)
    # (lo, hi, text): replace w1[lo:hi] by text, left to right; excisions
    # zero cells of their own zone only, so each zone reads as in w1
    edits: List[Tuple[int, int, str]] = []
    k, i_k = 2, w1.find("S", s1 + 1)
    i_2 = i_k
    while 0 <= i_k < reach:
        zone_lo = i_k + 1
        zone_hi = w1.find("S", zone_lo)
        scan_hi = zone_lo + i_k
        if zone_hi < 0:
            zone_hi = size
            if scan_hi > size:
                raise FrontierUnresolved(
                    "scan prefix runs past the supplied word")
        scan_hi = min(scan_hi, zone_hi)
        excised = []
        for run in _ONE_RUN.finditer(w1, zone_lo, zone_hi):
            start, end = run.span()
            if end > scan_hi:
                break
            tau = rule.tau(end - start, k)
            if tau is not None and tau <= i_k:
                excised.append((start, end, "0" * (end - start)))
        if excised:
            word = "".join("0" + "1" * (end - start)
                           for start, end, _ in excised)
            edits.append((i_k, i_k, word))
            edits += excised
        k, i_k = k + 1, zone_hi if zone_hi < size else -1

    if second_inserts and 0 <= i_2 < reach and gate_allows(w2, s1):
        # after the second zone's excised word, at the second S
        word = _insertion_word(s1)
        if edits and edits[0][0] == i_2:
            edits[0] = (i_2, i_2, edits[0][2] + word)
        else:
            edits.insert(0, (i_2, i_2, word))

    cells = w1
    if edits:
        parts, at = [], 0
        for lo, hi, text in edits:
            parts += (w1[at:lo], text)
            at = hi
        parts.append(w1[at:reach])
        cells = "".join(parts)

    u0 = w1[:s1]
    eat = "1" not in u0.rstrip("1")   # every 1 of u0 is glued to the S
    c = cells[s1 + 1]
    if eat and c == "1" and (not gate_first or gate_allows(w2, s1)):
        # the glued run extends over the 1; its left end stays fixed
        return (u0 + "1S" + cells[s1 + 2:n])[:n]
    # the leftmost zone shifts left one cell and two 0s precede the S
    head = (u0 + "0")[1:] + "0S"
    if eat and c == "0":
        return (head + cells[s1 + 2:n])[:n]   # the S consumed the 0
    return (head + cells[s1 + 1:n])[:n]       # the S pushed its right side


def step_prefix(sys, w, n: int):
    """One application of the zone automaton, restricted to [0, n), read
    through the system's :class:`ZoneRule`."""
    sid, rule = sys.id, sys._rule
    if not sid.product:
        return _step_word(rule, w, n)
    w1, w2 = w
    if len(w2) < n + 1:
        raise FrontierUnresolved(
            "second layer needs one symbol past the window")
    out1 = _step_word(rule, w1, n, w2=w2, gate_first=sid.gate_first,
                      second_inserts=sid.second_inserts)
    return out1, w2[1:n + 1]


# ---------------------------------------------------------------------------
# Long-orbit engine
# ---------------------------------------------------------------------------

_CHUNK = 4096
_NO_KEY = 1 << 62          # wake key of a zone with nothing pending
_JUMP = 1024               # most steps in one push-run jump
_MIN_JUMP = 4              # fewer pushes are left to step()
_ZERO, _ONE, _S = b"01S"   # engine cells are ASCII bytes
_START = itemgetter(1)     # a pending run's start cell


def _glued_run_open(w: str, reach: int) -> bool:
    """True when ``w`` is 0^p 1^r with r >= 1 and p < ``reach``: an open
    1-run that an S just past ``w`` could glue to itself."""
    body = w.lstrip("0")
    return bool(body) and len(w) - len(body) < reach and not body.lstrip("1")


def _past_glued_run(layer1: Configuration, reach: int) -> str:
    """Materialize ``reach + 64`` cells, and more while they hold no S and
    end in an open run 0^p 1^r with p < ``reach``.

    Such a run may be glued to an S beyond the word; that S would eat and
    freeze the window, so the S-free engine may not shift.  The word grows
    until the run closes, an S appears or the rest of the input is a tail
    that writes no S; past 8 times its first size plus ``_CHUNK`` the orbit
    is left undetermined and FrontierUnresolved is raised.
    """
    size = reach + 64
    cap = 8 * size + _CHUNK
    while True:
        w = layer1.materialize(size)
        if not _glued_run_open(w, reach) or (
                len(w) >= len(layer1.prefix) and not layer1.tail.writes("S")):
            return w
        if size == cap:
            raise FrontierUnresolved(
                "open 1-run may be glued to an S beyond the materialized word")
        size = min(2 * size, cap)


class ZoneEngine:
    """Iterates the zone automaton with lazy position bookkeeping.

    Reads its table through one :class:`ZoneRule`, so it refuses an
    enumerated one.  ``u0`` and zone k's content ``zones[k]`` are
    ``bytearray``s of ASCII ``0``/``1`` cells; the position of the k-th
    S is ``base[k] + pushes + dep[k]``.  Two flat lists over the zone
    index hold the bookkeeping: ``dep[k]``, the insertion displacement of
    S_k, and ``key[k]``, zone k's least pending excision threshold minus
    ``base[k]`` (``_NO_KEY`` when nothing is pending).  Zone k is due
    once ``key[k] - dep[k] <= pushes``; the least such value is cached,
    so a step with nothing due costs O(1).  ``_active`` is the set of
    zones with runs pending.  A step with zones due (a wave) scans only
    that set for the due zones and fires them in ascending order; it
    applies all the wave's displacements with one C-level prefix sum over
    ``dep`` and takes the new least over the set.  A wave with one zone k
    due adds its displacement to ``dep[k:]`` in one slice instead; when
    the set holds that zone alone, the wave skips the scan, and a set left
    with one zone gives the new least without a pass.  Per fired zone it
    pops the runs due (sorting them by start only when more than one
    fires), zeroes them and deposits 0 1^l for each into zone k-1, whose
    heap takes the blocks.  ``dep`` of the last S is also kept as a
    running total, and idle zones cost nothing per step.
    ``s_positions()`` reads every position from the second S on.

    ``step()`` is the one single-step path.  ``jump(limit)`` applies the
    next run of pushes at once, when one of at least ``_MIN_JUMP`` steps
    is known in O(1), as four operations on the ``u0`` buffer; ``pushes``
    and ``t`` grow by j.  With zone 1 holding cells, the run ends where
    the rightmost 1 of ``u0`` pops out, and the waves and frontier checks
    inside it fire at their own push counts, as ``step()`` meets them.
    With zone 1 empty and a second S (a sticky run) every step pushes
    until a wave deposits into zone 1, so the run stops before the next
    wave (j <= ``_least - pushes``) and before the step whose frontier
    check would act (j <= ``_frontier_at - pushes``).  No run covers more
    than ``_JUMP`` steps.  The inserting variant, the S-free engine and
    windows longer than ``u0`` never jump.  A product
    engine materializes layer 2 once, as ``_g2``, reads the gate as
    ``gate_allows(_g2, len(u0), t)`` and hands ``orbit_windows`` its
    layer-2 windows.

    ``cap_hits`` counts the frontier checks that stopped at the
    materialization cap while the last S's scan prefix reached past the
    materialized cells; past that point results can be inexact.  A check
    follows every push and every fired zone, but it acts only once the
    room that ``_frontier_room`` gives is negative.  ``_frontier_at``
    caches ``pushes`` plus that room and is refreshed on every other
    change to it, so a push costs one compare.  Past the cap a check
    extends nothing and only counts.  Within a wave the room only shrinks,
    so once the cap stops one check, the wave adds the hits of its later
    zones in one addition.
    ``waves`` counts the steps on which some zone was due,
    ``displacements`` the zones that fired on them, and ``jumped`` the
    steps applied by ``jump``.  A negative ``horizon`` or ``window`` is
    refused with ``ArgumentRefused`` before any cell is materialized.
    """

    def __init__(self, sysid, oracle: OracleTable, layer1: Configuration,
                 layer2: Optional[Configuration], horizon: int, window: int):
        if horizon < 0:
            raise ArgumentRefused(f"need horizon >= 0, got {horizon}")
        if window < 0:
            raise ArgumentRefused(f"need window >= 0, got {window}")
        self.rule = ZoneRule(oracle)
        self.layer1 = layer1
        self.window = window
        self.gate_first = sysid.gate_first
        self.second_inserts = sysid.second_inserts

        w = _past_glued_run(layer1, horizon + window)
        self.src = len(w)          # next unread index of the initial layer 1
        self.cap = len(w)          # excision-scan materialization cap
        self.cap_hits = 0
        self.waves = 0
        self.displacements = 0
        self.jumped = 0
        self.t = 0
        self.pushes = 0            # +1 per first-S push step
        self.completed_crossings = 0
        self.crossing = False

        first_s = w.find("S")
        if sysid.product:
            self._g2 = layer2.materialize(   # S-free: windows, no gate
                horizon + window if first_s < 0
                else 4 * horizon + 3 * first_s + 3 * window + 64)
        if first_s < 0:
            self.u0 = None         # S-free horizon: the map acts as the shift
            self._shift_word = w
            return
        cells = w.encode("ascii")
        self.u0 = bytearray(cells[:first_s])
        self.ones = self.u0.count(b"1")
        self.trailing = first_s - len(self.u0.rstrip(b"1"))

        segs = cells[first_s + 1:].split(b"S")    # u_1, u_2, ..., u_last
        self.last = len(segs)
        # zones[k] holds u_k; base[k] is the initial position of S_k
        self.zones: List = [None, *map(bytearray, segs)]
        self.base: List[int] = [0, first_s]
        for seg in segs[:-1]:
            self.base.append(self.base[-1] + len(seg) + 1)
        # (threshold, start, len) heaps of the zones scanned for excisions
        self.pending: List[list] = [None, None] + [[] for _ in segs[1:]]
        self.parsed: List[int] = [0] * (self.last + 1)
        self.key: List[int] = [_NO_KEY] * (self.last + 1)
        self.dep: List[int] = [0] * (self.last + 1)
        self._active = set()                 # the zones with runs pending
        self._least = _NO_KEY                # min(key[k] - dep[k])
        self._dep_last = 0                   # dep[last], a running total
        for k in range(2, self.last + 1):
            self._absorb_runs(k, complete=(k < self.last))
        self._frontier_at = self._frontier_room()   # pushes + room

    # -- bookkeeping helpers ------------------------------------------------

    def _pos(self, k: int) -> int:
        if k == self.last:
            return self.base[k] + self.pushes + self._dep_last
        return self.base[k] + self.pushes + self.dep[k]

    def s_positions(self) -> List[int]:
        """Current positions of S_2 .. S_last (the first S sits at
        ``len(u0)``)."""
        if self.u0 is None:
            return []
        return [self._pos(k) for k in range(2, self.last + 1)]

    def _absorb_runs(self, k: int, complete: bool):
        """Parse unparsed cells of zone k into pending excision candidates.

        Complete zones are parsed to the end; the frontier zone is parsed
        a little past the scan prefix and never through an open 1-run.
        """
        zone = self.zones[k]
        limit = len(zone) if complete else min(len(zone),
                                               self._pos(k) + _CHUNK)
        off = self.parsed[k]
        if off >= limit:
            return
        if not complete and k == self.last:
            # stop before the open 1-run at the limit
            limit = zone.rfind(b"0", off, limit) + 1 or off
        heap, tau_of = self.pending[k], self.rule.tau
        for run in _ONE_RUN_BYTES.finditer(zone, off, limit):
            start, end = run.span()
            tau = tau_of(end - start, k)
            if tau is not None:
                heapq.heappush(heap, (max(tau, end), start, end - start))
        self.parsed[k] = limit
        if heap:
            # pushes only lower the least threshold, and so the wake key
            self._active.add(k)
            key = self.key[k] = heap[0][0] - self.base[k]
            if key - self.dep[k] < self._least:
                self._least = key - self.dep[k]

    def _extend_frontier(self, needed: int):
        """Materialize layer 1 until the last zone holds ``needed`` cells.

        Returns early when a new S is discovered (the caller re-examines
        the zone structure), so S-dense tails cannot run this unboundedly.
        """
        while len(self.zones[self.last]) < needed:
            w = self.layer1.materialize(self.src + _CHUNK)
            seg = w[self.src:].encode("ascii")
            cut = seg.find(b"S")
            if cut < 0:
                self.zones[self.last] += seg
                self.src += len(seg)
            else:
                self.zones[self.last] += seg[:cut]
                if self.last >= 2:
                    self._absorb_runs(self.last, complete=True)
                # a new S enters the tracked region; everything right of
                # every tracked S shares all pushes and displacements.  In
                # a wave, dep holds the pre-wave displacements and the
                # wave's prefix sum reaches the new zone too.
                self.base.append(self.src + cut)
                dep = self.dep[self.last]
                self.dep.append(dep)
                self.key.append(_NO_KEY)
                self._least = min(self._least, _NO_KEY - dep)
                self.zones.append(bytearray())
                self.pending.append([])
                self.parsed.append(0)
                self.last += 1
                self.src += cut + 1
                break
        if self.last >= 2:
            self._absorb_runs(self.last, complete=False)
        self._frontier_at = self.pushes + self._frontier_room()

    # -- stepping -----------------------------------------------------------

    def _fire_excisions(self):
        """Apply the wave of the zones due now (``_least <= pushes``)."""
        pushes = self.pushes
        key, dep, base = self.key, self.dep, self.base
        pending, zones, active = self.pending, self.zones, self._active
        tau, heappop, heappush = self.rule.tau, heapq.heappop, heapq.heappush
        # the due zones in ascending order, judged against the pre-step
        # displacements: all excisions of one step are judged against the
        # pre-step S positions, a block deposited into zone k-1 is not
        # rescanned before the next application of the map, and same-step
        # displacements must not widen a later scan.  dep changes only
        # once the wave is done.  A lone active zone holds the least wake
        # key, so it is the one zone due.
        due = ([*active] if len(active) == 1 else
               sorted([k for k in active if key[k] - dep[k] <= pushes]))
        amounts = []
        dep_last = self._dep_last
        room = self._frontier_at - pushes    # displacement before a check
        capped = False                       # a check of this wave hit
        for i, k in enumerate(due):
            heap = pending[k]
            pos = base[k] + pushes + dep[k]
            fired = [heappop(heap)]          # a due zone fires at least once
            while heap and heap[0][0] <= pos:
                fired.append(heappop(heap))
            if len(fired) > 1:
                fired.sort(key=_START)
            if heap:
                key[k] = heap[0][0] - base[k]
            else:
                key[k] = _NO_KEY
                active.discard(k)
            # zero the fired runs and deposit 0 1^l for each, in order,
            # at the end of zone k-1
            zone, tgt = zones[k], zones[k - 1]
            off = start_off = len(tgt)
            heap = pending[k - 1] if k > 2 else None
            for _, start, l in fired:
                zone[start:start + l] = b"0" * l
                tgt += b"0" + b"1" * l
                if heap is not None:
                    t = tau(l, k - 1)
                    if t is not None:
                        heappush(heap, (max(t, off + l + 1), off + 1, l))
                off += l + 1
            if heap:
                key[k - 1] = heap[0][0] - base[k - 1]
                active.add(k - 1)
            # S_k .. S_last move right by what was deposited
            amount = off - start_off
            amounts.append(amount)
            dep_last += amount
            room -= amount
            if room < 0 and not capped:
                self._dep_last = dep_last
                if self._check_frontier():
                    # stopped at the cap, where nothing extends the
                    # frontier and the room only shrinks within a wave:
                    # the check after each later zone of the wave hits too
                    self.cap_hits += len(due) - 1 - i
                    capped = True
                room = self._frontier_at - pushes
        self._dep_last = dep_last
        if len(due) == 1:
            dep[k:] = map(amount.__add__, dep[k:])
        else:
            diff = [0] * len(dep)
            for k, amount in zip(due, amounts):
                diff[k] = amount
            self.dep = dep = list(map(add, dep, itertools.accumulate(diff)))
        # idle zones wake at _NO_KEY - dep[k], least for the last zone
        if len(active) == 1:
            (k,) = active
            self._least = key[k] - dep[k]
        else:
            self._least = min([key[k] - dep[k] for k in active],
                              default=_NO_KEY - dep[-1])
        self._frontier_at = pushes + room    # kept exact above
        self.waves += 1
        self.displacements += len(due)

    def _displace_all(self, amount: int):
        """Record that S_2 .. S_last moved right by ``amount``."""
        self.dep[2:] = map(amount.__add__, self.dep[2:])
        self._dep_last += amount
        self._least -= amount
        self._check_frontier()

    def _frontier_room(self) -> int:
        """Pushes left before ``_check_frontier`` must act; negative once
        it must.  ``_frontier_at`` caches ``pushes`` plus this room; every
        change to the room other than a push refreshes it.

        Below the materialization cap it extends the frontier when the
        last zone holds fewer than ``_CHUNK // 2`` cells past the last S;
        at the cap it counts a hit when the last S passes the zone's end.
        """
        last = self.last
        if not self.rule.excises or last < 2:
            return _NO_KEY
        slack = _CHUNK // 2 if self.src <= self.cap else 0
        return (len(self.zones[last]) - slack
                - (self.base[last] + self.pushes + self._dep_last))

    def _check_frontier(self) -> bool:
        """Keep the last S's scan prefix parsed for future excisions.

        Stops at the materialization cap: excision cascades originating
        beyond the initial horizon are outside the engine's contract.  A
        stop while the scan prefix still reaches past the materialized
        cells counts in ``cap_hits``, and the call returns True.
        """
        room = self._frontier_room()
        while room < 0 and self.src <= self.cap:
            prev = (self.last, self.src)
            self._extend_frontier(self._pos(self.last) + _CHUNK)
            room = self._frontier_at - self.pushes
            if (self.last, self.src) == prev:
                break
        self._frontier_at = self.pushes + room
        hit = room < 0 and self.src > self.cap
        self.cap_hits += hit
        return hit

    def step(self):
        u0 = self.u0
        if u0 is None:
            self.t += 1
            return
        if self._least <= self.pushes:
            self._fire_excisions()

        if self.second_inserts and self.last >= 2:
            if gate_allows(self._g2, len(u0), self.t):
                word = _insertion_word(len(u0))
                self.zones[1] += word.encode("ascii")
                self._displace_all(len(word))

        u1 = self.zones[1]
        if not u1 and self.last == 1:
            self._extend_frontier(1)    # adds a chunk of cells or finds S_2
        c = u1[0] if u1 else _S
        eat = self.ones == self.trailing
        if eat and c == _ONE and (not self.gate_first
                                  or gate_allows(self._g2, len(u0), self.t)):
            del u1[0]
            u0.append(_ONE)
            self.ones += 1
            self.trailing += 1
            self.crossing = True
        else:
            # u0 becomes (u0 + "0")[1:] + "0"; the appended 0 ends any
            # trailing run, so the cell popped never belongs to it
            u0 += b"00"
            if u0[0] == _ONE:
                self.ones -= 1
            del u0[0]
            self.trailing = 0
            if eat and c == _ZERO:
                if u1:
                    del u1[0]
                if self.crossing:
                    self.completed_crossings += 1
                    self.crossing = False
            else:
                self.pushes += 1
                self.crossing = False
                if self.pushes > self._frontier_at:
                    self._check_frontier()
        self.t += 1

    def jump(self, limit: int) -> Tuple[int, str]:
        """Apply at once the next j <= ``limit`` steps, when all of them
        are certain to push; returns ``(j, text)`` with
        ``text[s:s + window]`` the window before the s-th of them.

        Returns ``(0, "")`` unless O(1) checks leave room for a run of
        ``_MIN_JUMP`` or more pushes.  With zone 1 holding cells a step
        pushes when ``ones != trailing``; after a push ``trailing`` is 0,
        so a run lasts until the rightmost 1 of ``u0`` pops out.  A wave
        zeroes cells of zones 2 on and appends to zone k-1: it never reads
        or changes ``u0`` and never empties zone 1.  So the run goes on
        through waves, and the jump fires each wave at the push count of
        the step it is due on, before that step's push, and runs each
        frontier check after the push that passes ``_frontier_at``; past
        the cap that is every push.  With zone 1 empty and a second S (a
        sticky run), every step pushes until a wave deposits into zone 1,
        so the run stops before the next wave and before the step whose
        frontier check would act.  No run covers more than ``_JUMP``
        steps, so the cells decoded per jump stay bounded.  The inserting
        variant may insert on any step and never jumps.  With zone 1 empty
        and one S, ``step()`` materializes more of zone 1, so no jump
        starts there.
        """
        u0 = self.u0
        if u0 is None or self.second_inserts or len(u0) < self.window:
            return 0, ""
        p = self.pushes
        bound = min(limit, _JUMP)
        sticky = not self.zones[1]          # the first S reads S_2
        if sticky:
            if self.last == 1:
                return 0, ""
            bound = min(bound, self._least - p, self._frontier_at - p)
        elif self.ones == self.trailing:
            return 0, ""
        if bound < _MIN_JUMP:
            return 0, ""
        j = bound
        if not sticky and u0.count(b"1", 0, bound) == self.ones:
            # every 1 of u0 lies within reach: the run ends with the last
            j = u0.rfind(b"1", 0, bound) + 1
        # the waves and frontier checks inside a non-sticky run, each at
        # the push count at which step() meets it: a wave before the push
        # of the step it is due on, a check after the push that passes
        # _frontier_at.  Neither reads nor changes u0, nor empties zone 1.
        end = p + j
        while True:
            p = max(p, min(self._least, self._frontier_at))
            if p >= end:
                break
            self.pushes = p
            if self._least <= p:
                self._fire_excisions()
            if p >= self._frontier_at:
                self.pushes = p + 1
                self._check_frontier()
            p += 1
        self.ones -= u0.count(b"1", 0, j)
        u0 += b"0" * (2 * j)              # windows read the zeros pushed in
        text = u0[:j + self.window].decode("ascii")
        del u0[:j]
        self.trailing = 0
        self.crossing = False
        self.pushes = end
        self.t += j
        self.jumped += j
        return j, text

    # -- observation --------------------------------------------------------

    def window_word(self) -> str:
        L = self.window
        if self.u0 is None:
            hi = self.t + L
            if hi > len(self._shift_word):
                self._shift_word = self.layer1.materialize(hi + _CHUNK)
            return self._shift_word[self.t:hi]
        # no step removes a cell, and the horizon + L + 64 cells first
        # materialized outnumber L, so the last zone reaches the window's end
        out = self.u0[:L]
        k = 1
        while len(out) < L and k <= self.last:
            out += b"S" + self.zones[k][:L - len(out) - 1]
            k += 1
        return out.decode("ascii")


def orbit_windows(sys, x, t0: int, t1: int, window: int) -> Iterator:
    """Windows T^t(x)[0:window] for t in [t0, t1); pairs for two layers."""
    product = sys.id.product
    layer1 = x.layer1 if product else x
    layer2 = x.layer2 if product else None
    eng = ZoneEngine(sys.id, sys.oracle, layer1, layer2, t1, window)
    g2 = eng._g2 if product else None
    t = 0
    while t < t1:
        j, text = eng.jump(t1 - 1 - t)
        if j:
            for s in range(max(t0 - t, 0), j):
                w1 = text[s:s + window]
                yield (w1, g2[t + s:t + s + window]) if product else w1
            t += j
            continue
        if t >= t0:
            w1 = eng.window_word()
            yield (w1, g2[t:t + window]) if product else w1
        if t + 1 < t1:
            eng.step()
        t += 1
