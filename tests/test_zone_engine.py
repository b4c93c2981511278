"""The flat-list ``ZoneEngine`` against the heap engine it replaced.

``HeapZoneEngine`` below is an earlier engine: every displacement added
to ``dep[j]`` for each later zone and rebuilt the whole wake heap.  It
stays here as the reference.  Both
engines run in lockstep, and before every step their windows, S positions
(second S on), push counts and completed crossings must agree, on dense
and sparse inputs, on all three zone systems, with deep excision cascades,
with many zones and with zones found in the middle of a wave.  After every
step the engine's flat ``dep`` list must equal the reference's, and its
cached least wake key must equal one computed from scratch.  Where a test
lets it, the engine jumps over runs of pushes while the reference steps
through them; each window inside a jump must match the reference's.

``pi2.orbit_windows``, which jumps, is also checked against a driver that
calls only ``step()`` and ``window_word()``: the same windows and the
same final state.
"""

import hashlib
import heapq
import itertools
import random
from collections import deque
from operator import sub
from typing import List, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdyn import pi2, systems, verify
from symdyn.oracle import INF, Entry, OracleTable, QueryKind
from symdyn.pi2 import _CHUNK, ZoneEngine, _insertion_word
from symdyn.space import (ALPHA_01S, ALPHA_AB, Configuration, Constant,
                          FrontierUnresolved, Periodic)
from symdyn.systems import SystemId


class HeapZoneEngine:
    """The heap engine the flat lists replaced, kept as the reference.

    Iterates the zone automaton with lazy position bookkeeping.

    Requires a programmed oracle (excision times must be computable in
    advance).  Zone k content sits in ``zones[k]``; the position of the
    k-th S is ``base[k] + pushes + dep[k]`` where ``dep`` accumulates
    insertion displacements, so idle zones cost nothing per step.
    """

    def __init__(self, sysid, oracle: OracleTable, layer1: Configuration,
                 layer2: Optional[Configuration], horizon: int, window: int):
        if not oracle.programmed:
            raise ValueError("the long-orbit engine needs a programmed oracle")
        self.oracle = oracle
        self.layer1 = layer1
        self.window = window
        self.gate_first = sysid is SystemId.WILD_T_PRIME
        self.second_inserts = sysid is SystemId.WILD_T_SECOND

        w = layer1.materialize(horizon + window + 64)
        self.src = len(w)          # next unread index of the initial layer 1
        self.cap = len(w)          # excision-scan materialization cap
        self.excisable = oracle.default_halts or any(
            ent.kind is QueryKind.ALL_BELOW and ent.time is not None
            for ent in oracle.entries)
        self.t = 0
        self.pushes = 0            # +1 per first-S push step
        self.completed_crossings = 0
        self.crossing = False

        first_s = w.find("S")
        if first_s < 0:
            self.u0 = None         # S-free horizon: the map acts as the shift
            self._shift_word = w
            return
        self.u0 = deque(w[:first_s])
        self.ones = sum(1 for c in self.u0 if c == "1")
        self.trailing = 0
        for c in reversed(self.u0):
            if c != "1":
                break
            self.trailing += 1

        self.zones: List = [None, deque()]   # zones[k] holds u_k
        self.base: List[int] = [0, first_s]  # initial position of S_k
        self.dep: List[int] = [0, 0]         # insertion displacement of S_k
        self.pending: List[list] = [None, None]  # (threshold, start, len) heaps
        self.parsed: List[int] = [0, 0]
        self.wake: list = []                 # (required pushes, zone index)
        rest = w[first_s:]
        idx = rest.find("S", 1)
        while idx >= 0:
            nxt = rest.find("S", idx + 1)
            seg = rest[idx + 1: nxt if nxt >= 0 else len(rest)]
            if len(self.base) == 2:
                self.zones[1].extend(rest[1:idx])
            self.base.append(first_s + idx)
            self.dep.append(0)
            self.zones.append(list(seg))
            self.pending.append([])
            self.parsed.append(0)
            idx = nxt
        if len(self.base) == 2:
            self.zones[1].extend(rest[1:])
        self.last = len(self.base) - 1
        for k in range(2, self.last + 1):
            self._absorb_runs(k, complete=(k < self.last))

        if self.gate_first or self.second_inserts:
            need = 4 * horizon + 3 * first_s + 3 * window + 64
            g = layer2.materialize(need)
            arr = np.frombuffer(g.encode("ascii"), np.uint8) == ord("b")
            idxs = np.arange(len(arr), dtype=np.int64)
            idxs[~arr] = np.iinfo(np.int64).max
            self._next_b = np.minimum.accumulate(idxs[::-1])[::-1]
            self._g2_len = len(g)

    # -- bookkeeping helpers ------------------------------------------------

    def _pos(self, k: int) -> int:
        return self.base[k] + self.pushes + self.dep[k]

    def s_positions(self) -> List[int]:
        if self.u0 is None:
            return []
        return [self._pos(k) for k in range(2, self.last + 1)]

    def _tau(self, l: int, k: int) -> Optional[int]:
        return self.oracle.all_below_time(l, k)

    def _wake_key(self, k: int):
        return self.pending[k][0][0] - self.base[k] - self.dep[k]

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
        cells = zone[off:limit]
        hi = len(cells)
        if not complete and k == self.last:
            while hi > 0 and cells[hi - 1] == "1":
                hi -= 1
        i = 0
        heap = self.pending[k]
        while i < hi:
            if cells[i] == "1":
                j = i
                while j < hi and cells[j] == "1":
                    j += 1
                tau = self._tau(j - i, k)
                if tau is not None:
                    heapq.heappush(heap, (max(tau, off + j), off + i, j - i))
                i = j
            else:
                i += 1
        self.parsed[k] = off + hi
        if heap:
            heapq.heappush(self.wake, (self._wake_key(k), k))

    def _extend_frontier(self, needed: int):
        """Materialize layer 1 until the last zone holds ``needed`` cells.

        Returns early when a new S is discovered (the caller re-examines
        the zone structure), so S-dense tails cannot run this unboundedly.
        """
        while len(self.zones[self.last]) < needed:
            w = self.layer1.materialize(self.src + _CHUNK)
            seg = w[self.src:]
            cut = seg.find("S")
            if cut < 0:
                self.zones[self.last].extend(seg)
                self.src += len(seg)
            else:
                self.zones[self.last].extend(seg[:cut])
                if self.last >= 2:
                    self._absorb_runs(self.last, complete=True)
                # a new S enters the tracked region; everything right of
                # every tracked S shares all pushes and displacements
                self.base.append(self.src + cut)
                self.dep.append(self.dep[self.last])
                self.zones.append([])
                self.pending.append([])
                self.parsed.append(0)
                self.last += 1
                self.src += cut + 1
                break
        if self.last >= 2:
            self._absorb_runs(self.last, complete=False)

    def _gate_ok(self, i: int) -> bool:
        if i == 0:
            return True
        lo1 = i + self.t
        if lo1 + 2 * i <= self._g2_len and self._next_b[lo1] >= lo1 + 2 * i:
            return True
        lo2 = lo1 + 1
        return (lo2 + 2 * i + 1 <= self._g2_len
                and self._next_b[lo2] >= lo2 + 2 * i + 1)

    # -- stepping -----------------------------------------------------------

    def _fire_excisions(self):
        # snapshot the eligible zones first: a block deposited this step is
        # not rescanned until the next application of the map
        ready = []
        while self.wake and self.wake[0][0] <= self.pushes:
            ready.append(heapq.heappop(self.wake)[1])
        # ascending zone order: a deposit into zone k-1 is then never
        # rescanned before the next application of the map
        ready = sorted(set(ready))
        # all excisions of one step are judged against the pre-step S
        # positions; same-step displacements must not widen a later scan
        pos_before = {k: self._pos(k) for k in ready}
        for k in ready:
            heap = self.pending[k]
            if not heap:
                continue
            pos = pos_before[k]
            fired = []
            while heap and heap[0][0] <= pos:
                fired.append(heapq.heappop(heap))
            if heap:
                heapq.heappush(self.wake, (self._wake_key(k), k))
            if not fired:
                continue
            fired.sort(key=lambda e: e[1])
            zone = self.zones[k]
            pieces = []
            for _, start, l in fired:
                zone[start:start + l] = ["0"] * l
                pieces.append("0" + "1" * l)
            w = "".join(pieces)
            tgt = self.zones[k - 1]
            off = len(tgt)
            tgt.extend(w)
            if k - 1 >= 2:
                for piece in pieces:
                    l = len(piece) - 1
                    tau = self._tau(l, k - 1)
                    if tau is not None:
                        heapq.heappush(self.pending[k - 1],
                                       (max(tau, off + l + 1), off + 1, l))
                    off += len(piece)
                if self.pending[k - 1]:
                    heapq.heappush(self.wake, (self._wake_key(k - 1), k - 1))
            self._displace(k, len(w))

    def _displace(self, k: int, amount: int):
        """Record that S_k .. S_last moved right by ``amount``."""
        for j in range(k, self.last + 1):
            self.dep[j] += amount
        refreshed = {}
        while self.wake:
            _, j = heapq.heappop(self.wake)
            if self.pending[j] and j not in refreshed:
                refreshed[j] = self._wake_key(j)
        self.wake = [(key, j) for j, key in refreshed.items()]
        heapq.heapify(self.wake)
        self._check_frontier()

    def _check_frontier(self):
        """Keep the last S's scan prefix parsed for future excisions.

        Stops at the materialization cap: excision cascades originating
        beyond the initial horizon are outside the engine's contract.
        """
        if not self.excisable or self.last < 2:
            return
        while (self.src <= self.cap
               and self._pos(self.last) + _CHUNK // 2
                   > len(self.zones[self.last])):
            prev = (self.last, self.src)
            self._extend_frontier(self._pos(self.last) + _CHUNK)
            if (self.last, self.src) == prev:
                break

    def _u0_popleft(self):
        c = self.u0.popleft()
        if c == "1":
            if self.ones == len(self.u0) + 1:
                self.trailing -= 1
            self.ones -= 1

    def _u0_append(self, c: str):
        self.u0.append(c)
        if c == "1":
            self.ones += 1
            self.trailing += 1
        else:
            self.trailing = 0

    def step(self):
        if self.u0 is None:
            self.t += 1
            return
        self._fire_excisions()

        if self.second_inserts and self.last >= 2:
            if self._gate_ok(len(self.u0)):
                word = _insertion_word(len(self.u0))
                self.zones[1].extend(word)
                self._displace(2, len(word))

        u1 = self.zones[1]
        if not u1 and self.last == 1:
            self._extend_frontier(1)
        if u1:
            c = u1[0]
        elif self.last >= 2:
            c = "S"
        else:
            c = "0"
        eat = self.ones == self.trailing
        if eat and c == "1" and (not self.gate_first
                                 or self._gate_ok(len(self.u0))):
            u1.popleft()
            self._u0_append("1")
            self.crossing = True
        elif eat and c == "0":
            if u1:
                u1.popleft()
            self._u0_append("0")
            if self.u0:
                self._u0_popleft()
            self._u0_append("0")
            if self.crossing:
                self.completed_crossings += 1
                self.crossing = False
        else:
            self._u0_append("0")
            self._u0_popleft()
            self._u0_append("0")
            self.pushes += 1
            self.crossing = False
            self._check_frontier()
        self.t += 1

    # -- observation --------------------------------------------------------

    def window_word(self) -> str:
        L = self.window
        if self.u0 is None:
            hi = self.t + L
            if hi > len(self._shift_word):
                self._shift_word = self.layer1.materialize(hi + _CHUNK)
            return self._shift_word[self.t:hi]
        out = list(itertools.islice(self.u0, 0, L))
        k = 1
        while len(out) < L and k <= self.last:
            out.append("S")
            take = L - len(out)
            if take > 0:
                if k == self.last and len(self.zones[k]) < take:
                    self._extend_frontier(take)
                out.extend(itertools.islice(self.zones[k], 0, take))
            k += 1
        return "".join(out[:L])


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

NEVER = OracleTable.programmed_table([])
TOTALITY = verify.totality_oracle()
# every run of length <= 12 is excisable at once in every zone, so blocks
# deposited into zone k-1 are excised again on the next step: cascades
CASCADE = OracleTable.programmed_table(
    [Entry(e=l, kind=QueryKind.ALL_BELOW, k=INF, time=1)
     for l in range(1, 13)])
MIXED = OracleTable.programmed_table([
    Entry(e=1, kind=QueryKind.ALL_BELOW, k=INF, time=2),
    Entry(e=2, kind=QueryKind.ALL_BELOW, k=2, time=4),
    Entry(e=3, kind=QueryKind.ALL_BELOW, k=5, time=7),
    Entry(e=1, kind=QueryKind.EMPTY, time=3),
    Entry(e=3, kind=QueryKind.SOME_IN, k=1, k_hi=3, time=2),
])
SYSTEMS = (SystemId.PI2, SystemId.WILD_T_PRIME, SystemId.WILD_T_SECOND)


def cfg(prefix, period="0"):
    return Configuration(ALPHA_01S, prefix, Periodic(period))


def same_bookkeeping(new, ref):
    """The flat lists against the reference's per-zone displacements."""
    if ref.u0 is None:
        return True
    return (new.dep == ref.dep
            and new._least == min(map(sub, new.key, new.dep)))


def lockstep(sysid, oracle, layer1, layer2, steps, window, horizon=None,
             engine=ZoneEngine, jumps=False):
    """Run both engines ``steps`` steps; compare before every step.

    With ``jumps`` the engine jumps over runs of pushes where it can while
    the reference steps; every window inside a jump is compared, the rest
    at the end of the jump.
    """
    if sysid is not SystemId.PI2 and layer2 is None:
        layer2 = Configuration(ALPHA_AB, "", Constant("a"))
    horizon = steps if horizon is None else horizon
    new = engine(sysid, oracle, layer1, layer2, horizon, window)
    ref = HeapZoneEngine(sysid, oracle, layer1, layer2, horizon, window)
    t = 0
    while t < steps:
        assert new.window_word() == ref.window_word(), t
        assert new.s_positions() == ref.s_positions(), t
        assert new.pushes == ref.pushes, t
        assert new.completed_crossings == ref.completed_crossings, t
        assert new.crossing == ref.crossing, t
        assert same_bookkeeping(new, ref), t
        j, text = new.jump(steps - t) if jumps else (0, "")
        for s in range(j):
            assert text[s:s + window] == ref.window_word(), (t, s)
            ref.step()
        if not j:
            new.step()
            ref.step()
            j = 1
        t += j
    assert new.t == ref.t == steps
    assert same_bookkeeping(new, ref)
    return new, ref


def displaced(ref):
    """Total insertion displacement of the reference's last S."""
    return ref.dep[ref.last] if ref.u0 is not None else 0


# ---------------------------------------------------------------------------
# The engines agree step by step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sysid", SYSTEMS)
def test_dense_bernoulli_product(sysid):
    # criterion 09's input: dense S, excision- and insertion-dominated
    x = verify.bernoulli_product(5)
    layer2 = None if sysid is SystemId.PI2 else x.layer2
    for jumps in (False, True):
        new, ref = lockstep(sysid, TOTALITY, x.layer1, layer2, 300,
                            8 if sysid is SystemId.PI2 else 4, jumps=jumps)
        assert new.last > 40 and displaced(ref) > 0


@pytest.mark.parametrize("prefix,period", [
    ("0110S01110S", "01100"),        # criterion 08's two-zone input
    ("0S0110", "0110"),
    ("011S0111S", "0"),
    ("S11S", "01"),
])
def test_sparse_two_zone(prefix, period):
    for jumps in (False, True):
        new, _ = lockstep(SystemId.PI2, TOTALITY, cfg(prefix, period), None,
                          1500, 5, jumps=jumps)
        assert new.last <= 3


def test_sparse_gated_crossing_member():
    m = verify.crossing_member()
    for jumps in (False, True):
        new, _ = lockstep(SystemId.WILD_T_PRIME, NEVER, m.layer1, m.layer2,
                          1000, 4, jumps=jumps)
        assert new.completed_crossings >= 1
        assert (new.jumped > 0) == jumps


def crossing_run(horizon, steps=400):
    m = verify.crossing_member()
    eng = ZoneEngine(SystemId.WILD_T_PRIME, NEVER, m.layer1, m.layer2,
                     horizon, 5)
    windows = []
    for _ in range(steps):
        windows.append(eng.window_word())
        eng.step()
    return windows, eng.completed_crossings


def test_gate_past_the_materialized_second_layer_is_not_guessed():
    # stepped past its horizon, the gate reads second-layer cells that
    # were never materialized: the word rule raises rather than closing
    # the gate (which completed 2 crossings, not 6, with wrong windows)
    with pytest.raises(FrontierUnresolved):
        crossing_run(horizon=10)
    windows, crossings = crossing_run(horizon=400)
    assert crossing_run(horizon=2_000) == (windows, crossings)
    assert crossings == 6


@pytest.mark.parametrize("sysid", SYSTEMS)
@pytest.mark.parametrize("prefix,period", [
    ("0S", "S011010"),
    ("0S0110S01110", "S0111011S01"),
    ("011S", "S1S11S111S0"),
])
def test_deep_cascade(sysid, prefix, period):
    layer2 = Configuration(ALPHA_AB, "", Periodic("aab"))
    for jumps in (False, True):
        _, ref = lockstep(sysid, CASCADE, cfg(prefix, period), layer2, 400,
                          8, jumps=jumps)
        assert displaced(ref) > 0


@pytest.mark.parametrize("zones", [5, 20, 70])
def test_zone_counts(zones):
    # S-rich prefixes over an S-free tail: the lists hold every zone from
    # the start
    rng = random.Random(zones)
    prefix = "0" + "".join("S" + "".join(rng.choice("0011")
                                         for _ in range(rng.randint(1, 4)))
                           for _ in range(zones))
    for oracle, jumps in itertools.product((TOTALITY, CASCADE, MIXED),
                                           (False, True)):
        new, _ = lockstep(SystemId.PI2, oracle, cfg(prefix), None, 300, 10,
                          jumps=jumps)
        assert new.last == zones


@pytest.mark.parametrize("prefix", [
    "0S0110S0110",                   # the new zone takes an unoccupied slot
    "0S0110S0110S0110",              # ... fills the last slot
    "0S0110S0110S0110S011",          # ... makes the tree grow
    "0S01S011S0111S01S011",
])
def test_zone_appended_after_displacements(prefix):
    # a small horizon puts an S just past the materialization cap; the
    # first displacement reaches for it, so the new zone must start with
    # the last one's pre-wave displacement and then take the wave's too
    layer1 = cfg(prefix, "0" * 120 + "S0110")
    for jumps in (False, True):
        new, ref = lockstep(SystemId.PI2, CASCADE, layer1, None, 200, 6,
                            horizon=10, jumps=jumps)
        assert new.last == ref.last == prefix.count("S") + 1
        assert displaced(ref) > 0


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SYSTEMS),
       st.sampled_from([TOTALITY, CASCADE, MIXED]),
       st.text("0011S", min_size=1, max_size=40),
       st.sampled_from(["0", "010", "0S011", "S0110", "01100"]),
       st.sampled_from(["a", "ab", "aab", "b"]),
       st.integers(2, 12),
       st.booleans())
def test_drawn_prefixes(sysid, oracle, prefix, period, period2, window,
                        jumps):
    layer2 = Configuration(ALPHA_AB, "", Periodic(period2))
    lockstep(sysid, oracle, cfg(prefix, period), layer2, 80, window,
             jumps=jumps)


# ---------------------------------------------------------------------------
# Waves
# ---------------------------------------------------------------------------

class WaveProbe(ZoneEngine):
    """Counts the waves during which the frontier check found a new S."""

    found_in_wave = 0

    def _fire_excisions(self):
        last = self.last
        super()._fire_excisions()
        self.found_in_wave += self.last > last


def test_new_zone_found_in_a_wave():
    # dense input, small horizon: a displacement in the middle of a wave
    # pulls the last S's scan prefix past its zone, and the frontier check
    # appends a zone before the wave's displacements are applied
    x = verify.bernoulli_product(5)
    new, ref = lockstep(SystemId.PI2, TOTALITY, x.layer1, None, 300, 8,
                        horizon=20, engine=WaveProbe, jumps=True)
    assert new.found_in_wave >= 1 and new.last > 10
    assert displaced(ref) > 0


def test_dense_insertions_over_many_zones():
    # criterion 09's dense first layer under an all-a second layer, whose
    # gate is always open (the product's own second layer never opens it
    # here): every step displaces S_2 .. S_last at once, between waves of
    # excisions over more than a hundred zones
    x = verify.bernoulli_product(5)
    new, ref = lockstep(SystemId.WILD_T_SECOND, TOTALITY, x.layer1, None,
                        600, 4)
    assert new.last > 100 and new.waves > 100
    assert displaced(ref) > 600


def test_cubic_zone_one_growth_under_insertions():
    # criterion 08's two-zone input under T'' with an all-a second layer:
    # every step inserts behind S_2 from a first S far from the origin, so
    # zone 1 grows as t^3 and reaches eleven million cells
    new, ref = lockstep(SystemId.WILD_T_SECOND, TOTALITY,
                        verify.two_zone_configuration(), None, 400, 5)
    assert len(new.zones[1]) == len(ref.zones[1]) == 11_074_054
    assert new.completed_crossings == ref.completed_crossings


@pytest.mark.parametrize("sysid,steps,window,counts,positions", [
    pytest.param(SystemId.PI2, 2_500, 8, (497, 35_006, 37_480),
                 "151d7de68364733d", id="2500-497-35006"),
    pytest.param(SystemId.PI2, 5_000, 8, (1_012, 119_308, 124_279),
                 "8a0775b54896b3ae", id="5000-1012-119308"),
    pytest.param(SystemId.WILD_T_PRIME, 1_500, 4, (305, 14_339, 15_837),
                 "9f0e157e92bc420e", id="wild_t_prime-1500-305-14339"),
    pytest.param(SystemId.WILD_T_SECOND, 2_000, 4, (401, 23_919, 25_896),
                 "4b1b9069b9d5966c", id="wild_t_second-2000-401-23919"),
])
def test_dense_pi2_wave_counts(sysid, steps, window, counts, positions):
    # criterion 09's dense product, run as the zone benchmark's dense
    # tasks run it (horizon = steps): (waves, displacements, cap_hits) and
    # a digest of the final S positions, as the engine that applied each
    # displacement and each frontier check on its own left them.  Past the
    # cap a wave counts its hits in bulk, so cap_hits pins that count.
    x = verify.bernoulli_product(5)
    layer2 = None if sysid is SystemId.PI2 else x.layer2
    eng = ZoneEngine(sysid, TOTALITY, x.layer1, layer2, steps, window)
    for _ in range(steps - 1):
        eng.step()
    assert (eng.waves, eng.displacements, eng.cap_hits) == counts
    assert hashlib.sha256(",".join(map(str, eng.s_positions())).encode()
                          ).hexdigest()[:16] == positions


# ---------------------------------------------------------------------------
# The frontier cap is counted
# ---------------------------------------------------------------------------

def test_cap_hits_counted_past_a_small_horizon():
    eng = ZoneEngine(SystemId.PI2, TOTALITY, cfg("0110S01110S", "01100"),
                     None, horizon=200, window=5)
    for _ in range(3000):
        eng.step()
    assert eng.cap_hits > 0


def test_cap_hits_zero_within_criterion_08_horizon():
    """The ``cap_hits`` counter reads 0 over the first half of criterion
    08's run at its benchmark horizon, where the last S's scan prefix
    stays materialized.

    This checks the counter, not the state: the engine's S_2 departs from
    the word reference ``_step_word`` on this input while ``cap_hits`` is
    still 0.
    """
    eng = ZoneEngine(SystemId.PI2, TOTALITY, verify.two_zone_configuration(),
                     None, horizon=100_000, window=5)
    for _ in range(50_000):
        eng.window_word()
        eng.step()
    assert eng.cap_hits == 0


# ---------------------------------------------------------------------------
# Push-run jumps against single steps
# ---------------------------------------------------------------------------

def engine_state(eng):
    """Everything a jump may touch, as plain values."""
    if eng.u0 is None:
        return eng.t
    return (eng.u0.decode(), [z.decode() for z in eng.zones[1:]],
            eng.s_positions(), eng.pushes, eng.t, eng.ones, eng.trailing,
            eng.cap_hits, eng.waves, eng.displacements,
            eng.completed_crossings, eng.crossing)


def stepped_windows(sys_, x, t0, t1, window):
    """``pi2.orbit_windows`` through ``step()`` and ``window_word()``
    only; returns the windows' digest and the engine."""
    product = sys_.id.product
    layer1, layer2 = (x.layer1, x.layer2) if product else (x, None)
    eng = ZoneEngine(sys_.id, sys_.oracle, layer1, layer2, t1, window)
    g2 = layer2.materialize(t1 + window) if product else None
    digest = hashlib.sha256()
    for t in range(t1):
        if t >= t0:
            digest.update(eng.window_word().encode())
            if product:
                digest.update(g2[t:t + window].encode())
        if t + 1 < t1:
            eng.step()
    return digest.hexdigest(), eng


def jumped_windows(sys_, x, t0, t1, window):
    """``pi2.orbit_windows`` as it runs, with the engine it made."""
    made = []

    class Recorded(ZoneEngine):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    digest = hashlib.sha256()
    with mock.patch.object(pi2, "ZoneEngine", Recorded):
        for w in pi2.orbit_windows(sys_, x, t0, t1, window):
            for part in (w if sys_.id.product else (w,)):
                digest.update(part.encode())
    return digest.hexdigest(), made[0]


def assert_jumps_match_steps(sys_, x, t0, t1, window):
    want, ref = stepped_windows(sys_, x, t0, t1, window)
    got, eng = jumped_windows(sys_, x, t0, t1, window)
    assert got == want
    assert engine_state(eng) == engine_state(ref)
    return got, eng


SPARSE = "0" * 20 + "1"      # far-apart runs: waves far apart
MAKE_SYSTEM = {SystemId.PI2: systems.pi2_system,
               SystemId.WILD_T_PRIME: systems.wild_t_prime_system,
               SystemId.WILD_T_SECOND: systems.wild_t_second_system}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SYSTEMS),
       st.sampled_from([NEVER, TOTALITY, CASCADE, MIXED]),
       # S-free, one S, adjacent S's (an empty zone 1) and u0 shorter or
       # longer than the window all occur
       st.text("00011S", max_size=30),
       st.sampled_from(["0", "01", "011", "0S011", "S0110", "01100", "1",
                        SPARSE, "S" + SPARSE * 2]),
       st.sampled_from(["a", "ab", "aab", "b"]),
       st.integers(0, 12),
       st.integers(0, 400),
       st.integers(0, 400))
def test_drawn_jumps_match_steps(sysid, oracle, prefix, period, period2,
                                 window, t0, t1):
    x = cfg(prefix, period)
    if sysid is not SystemId.PI2:
        x = pi2.ProductConfiguration(
            x, Configuration(ALPHA_AB, "", Periodic(period2)))
    assert_jumps_match_steps(MAKE_SYSTEM[sysid](oracle), x, min(t0, t1 + 1),
                             t1, window)


@pytest.mark.parametrize("oracle,prefix,period,t0,t1,window", [
    (TOTALITY, "", "0110", 0, 2, 0),                  # S-free
    (TOTALITY, "0S", "0110", 0, 1, 3),                # t1 <= 2
    (TOTALITY, "0S", "0110", 3, 2, 3),                # t0 past t1
    (TOTALITY, "00000S0110", "0110", 0, 300, 0),      # window 0
    (NEVER, "0000SS011", "0110", 0, 3000, 3),         # zone 1 empty
    (NEVER, "011SS", "0110", 0, 3000, 8),             # ... u0 < window
    (TOTALITY, "01111100S011", "0110", 150, 300, 4),  # t0 > 0, in a run
    # zone 1 empty until a wave deposits into it, so the first S stops
    # pushing exactly when the wave fires
    (MIXED, "00000SS", SPARSE, 0, 600, 4),
    # past the cap every push counts a hit, so no jump passes one
    (MIXED, "00000SS", "S" + SPARSE * 3, 0, 600, 4),
    # zone 1 runs empty with one S: the step materializes more of it
    (NEVER, "0" * 466 + "S", "0110", 0, 400, 5),
    # the last jump stops inside u0's 1s
    (NEVER, "0110111" * 10 + "S", "0", 0, 30, 3),
    # a jump right after a crossing, into S_2: the crossing is over
    (MIXED, "0S111S", SPARSE, 0, 400, 3),
])
def test_jumps_match_steps_on_edges(oracle, prefix, period, t0, t1,
                                    window):
    assert_jumps_match_steps(systems.pi2_system(oracle),
                             cfg(prefix, period), t0, t1, window)


@pytest.mark.parametrize("steps,window,digest,cap_hits,s2", [
    (100_000, 5, "77bb8e3b09b604cb", 4_421, 161_230),     # the recurrence
    (100_000, 40, "fe9476b3c6575fac", 4_386, 161_251),
    (1_000_000, 5, "e02c3e45966a8eb1", 4_409, 1_601_218),  # criterion 08
])
def test_jumps_match_steps_on_the_recurrence(steps, window, digest,
                                             cap_hits, s2):
    sys_, x = systems.pi2_system(TOTALITY), verify.two_zone_configuration()
    got, eng = assert_jumps_match_steps(sys_, x, 0, steps, window)
    # the step-by-step engine's windows, cap hits and S_2, pinned: both
    # paths above share step(), so a change to it shows here
    assert got[:16] == digest
    assert (eng.cap_hits, eng.s_positions()) == (cap_hits, [s2])
    assert (eng.waves, eng.displacements) == (822, 822)
    # a change that silently disables the jump fails here, not only later
    # in a benchmark
    assert eng.jumped >= 0.9 * steps


@pytest.mark.parametrize("sysid", SYSTEMS)
def test_jumps_match_steps_on_the_dense_product(sysid):
    x = verify.bernoulli_product(5)
    assert_jumps_match_steps(MAKE_SYSTEM[sysid](TOTALITY),
                             x.layer1 if sysid is SystemId.PI2 else x,
                             0, 600, 8)


def test_jumps_match_steps_on_the_crossing_member():
    _, eng = assert_jumps_match_steps(systems.wild_t_prime_system(NEVER),
                                      verify.crossing_member(), 0, 100_000,
                                      4)
    assert eng.completed_crossings >= 3 and eng.jumped >= 0.9 * 100_000


def test_inserting_variant_never_jumps():
    # on the input where the gated variant jumps over almost every step
    _, eng = assert_jumps_match_steps(systems.wild_t_second_system(NEVER),
                                      verify.crossing_member(), 0, 2_000, 4)
    assert eng.jumped == 0 and eng.pushes > 1_000
