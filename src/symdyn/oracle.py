"""Halting-time oracles parameterizing the constructed systems.

Two backends are provided.  The *enumerated* backend decodes machine
indices into actual single-tape Turing machines and answers queries by
bounded simulation; it can therefore never certify non-halting.  The
*programmed* backend is a finite table of asserted halting facts and is
the vehicle for exact desk-scale experiments: it may answer NEVER.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

HALT = -1  # sentinel next-state
BLANK = 2  # tape symbols are 0, 1, BLANK

DEFAULT_WORK_CAP = 50_000_000


class WorkCapExceeded(Exception):
    """Raised when an exhaustive bounded simulation would exceed the work cap."""


# ---------------------------------------------------------------------------
# Turing machines and their Godel numbering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TMSpec:
    """Single-tape machine over tape alphabet {0, 1, blank}.

    ``transitions[(state, read)] = (write, move, next_state)`` with
    ``move`` in {-1, +1} and ``next_state`` in ``range(states)`` or HALT.
    The map is total over ``states x {0, 1, BLANK}``.
    """

    states: int
    transitions: tuple  # ((write, move, next) for each (state, symbol) cell, row-major)
    start_state: int = 0

    def __post_init__(self):
        if self.states < 1:
            raise ValueError("need at least one state")
        if len(self.transitions) != 3 * self.states:
            raise ValueError("transition table must be total")

    def rule(self, state: int, read: int):
        return self.transitions[3 * state + read]


# Per-cell code in base 6*(n+1): write (3) x move (2) x next (n+1).
# Digit 0 decodes to (write BLANK, move right, HALT), so index 0 of every
# state-count block - in particular e = 0 - is a halt-immediately machine.

def _cell_count(states: int) -> int:
    return 6 * (states + 1)


def _decode_cell(digit: int, states: int):
    write = digit % 3
    digit //= 3
    move = 1 if digit % 2 == 0 else -1
    digit //= 2
    nxt = HALT if digit == 0 else digit - 1
    return (write, move, nxt)


def _encode_cell(cell, states: int) -> int:
    write, move, nxt = cell
    d = 0 if nxt == HALT else nxt + 1
    d = d * 2 + (0 if move == 1 else 1)
    return d * 3 + write


def _block_size(states: int) -> int:
    return _cell_count(states) ** (3 * states)


def decode_machine(e: int) -> TMSpec:
    """Decode index ``e`` under the canonical numbering (total, bijective)."""
    if e < 0:
        raise ValueError("index must be a natural number")
    states = 1
    while e >= _block_size(states):
        e -= _block_size(states)
        states += 1
    base = _cell_count(states)
    cells = []
    for _ in range(3 * states):
        cells.append(_decode_cell(e % base, states))
        e //= base
    return TMSpec(states=states, transitions=tuple(cells))


def encode_machine(spec: TMSpec) -> int:
    """Inverse of :func:`decode_machine` on well-formed specs."""
    base = _cell_count(spec.states)
    e = 0
    for cell in reversed(spec.transitions):
        e = e * base + _encode_cell(cell, spec.states)
    return e + sum(_block_size(s) for s in range(1, spec.states))


HALT_IMMEDIATELY = decode_machine(0)


def simulate_tm(spec: TMSpec, input_word: str, max_steps: int):
    """Run ``spec`` on ``input_word`` (over {0,1}) for at most ``max_steps``.

    Returns the halting step count (the halting transition counts as one
    step) or None if still running.  Cells outside the written input are
    blank; the head starts on cell 0.
    """
    tape = {i: int(c) for i, c in enumerate(input_word)}
    head = 0
    state = spec.start_state
    for step in range(1, max_steps + 1):
        write, move, nxt = spec.rule(state, tape.get(head, BLANK))
        tape[head] = write
        head += move
        if nxt == HALT:
            return step
        state = nxt
    return None


# ---------------------------------------------------------------------------
# Queries and tables
# ---------------------------------------------------------------------------

class QueryKind(Enum):
    EMPTY = "empty"
    ALL_BELOW = "all_below"
    SOME_IN = "some_in"


INF = None  # unbounded k / k_hi marker, serialized as "inf"


@dataclass(frozen=True)
class HaltQuery:
    kind: QueryKind
    budget: int
    k: Optional[int] = None        # ALL_BELOW: size bound; SOME_IN: low end
    k_hi: Optional[int] = None     # SOME_IN only; None means unbounded

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.kind is QueryKind.SOME_IN and self.k_hi is not None:
            if self.k is None or self.k > self.k_hi:
                raise ValueError("need k_lo <= k_hi")


class Answer(Enum):
    YES = "yes"
    NO_WITHIN_BUDGET = "no_within_budget"
    NEVER = "never"


@dataclass(frozen=True)
class Entry:
    """One asserted halting fact about machine ``e``.

    kind EMPTY:     halts on the empty input at time ``time`` (or never).
    kind ALL_BELOW: every input of size < ``k`` halts within ``time``;
                    ``k = INF`` asserts the machine total with a uniform bound.
    kind SOME_IN:   some input of size in [``k``, ``k_hi``] halts at ``time``;
                    ``k_hi = INF`` asserts halting inputs of unbounded size.
    """

    e: int
    kind: QueryKind
    time: Optional[int]            # None encodes "never"
    k: Optional[int] = None
    k_hi: Optional[int] = None


@dataclass(frozen=True)
class OracleTable:
    programmed: bool
    entries: tuple = ()
    # unlisted machines halt at time 1 vs never; a listed machine answers
    # from its entries alone, in every query kind and table predicate
    default_halts: bool = False
    work_cap: int = DEFAULT_WORK_CAP
    _by_machine: dict = field(init=False, repr=False, compare=False)
    _empty_time: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # fresh indexes per instance, so dataclasses.replace never shares them
        by_machine: dict = {}
        empty_time: dict = {}      # listed machine -> least EMPTY time or None
        for ent in self.entries:
            by_machine.setdefault(ent.e, []).append(ent)
            t = empty_time.get(ent.e)
            if ent.kind is QueryKind.EMPTY and ent.time is not None:
                t = ent.time if t is None else min(t, ent.time)
            empty_time[ent.e] = t
        object.__setattr__(self, "_by_machine", by_machine)
        object.__setattr__(self, "_empty_time", empty_time)

    # -- construction ------------------------------------------------------

    @staticmethod
    def programmed_table(entries, default="never", work_cap=DEFAULT_WORK_CAP):
        return OracleTable(programmed=True, entries=tuple(entries),
                           default_halts=(default == "halt1"), work_cap=work_cap)

    @staticmethod
    def enumerated(work_cap=DEFAULT_WORK_CAP):
        return OracleTable(programmed=False, work_cap=work_cap)

    # -- programmed answering ---------------------------------------------

    def _entries_for(self, e):
        return self._by_machine.get(e, ())

    def listed_machines(self):
        """Indices of the machines with at least one entry, in order of
        their first entry."""
        return list(self._by_machine)

    def _unlisted_time(self) -> Optional[int]:
        return 1 if self.default_halts else None

    def _least_empty_time(self, e: int) -> Optional[int]:
        return self._empty_time.get(e, self._unlisted_time())

    def _least_all_below_time(self, e: int, k) -> Optional[int]:
        ents = self._entries_for(e)
        if not ents:
            return self._unlisted_time()
        return min((x.time for x in ents
                    if x.kind is QueryKind.ALL_BELOW and x.time is not None
                    and (x.k is INF or (k is not INF and x.k >= k))),
                   default=None)

    def _answer_programmed(self, e: int, q: HaltQuery) -> Answer:
        ents = self._entries_for(e)
        if q.kind is QueryKind.EMPTY:
            best = self._least_empty_time(e)
        elif q.kind is QueryKind.ALL_BELOW:
            best = self._least_all_below_time(e, q.k)
        elif not ents:
            best = self._unlisted_time()
        else:
            # SOME_IN: an entry answers the query when its size range is
            # contained in the queried range.
            best = min((x.time for x in ents
                        if x.kind is QueryKind.SOME_IN and x.time is not None
                        and x.k is not INF and (q.k is None or x.k >= q.k)
                        and (q.k_hi is INF
                             or (x.k_hi is not INF and x.k_hi <= q.k_hi))),
                       default=None)
        if best is None:
            return Answer.NEVER
        return Answer.YES if best <= q.budget else Answer.NO_WITHIN_BUDGET

    # -- enumerated answering ---------------------------------------------

    def _inputs_of_sizes(self, lo, hi):
        for size in range(lo, hi + 1):
            for bits in range(2 ** size):
                yield format(bits, "b").zfill(size) if size else ""

    def _answer_enumerated(self, e: int, q: HaltQuery) -> Answer:
        spec = decode_machine(e)
        if q.kind is QueryKind.EMPTY:
            if q.budget > self.work_cap:
                raise WorkCapExceeded(f"budget {q.budget} over cap")
            t = simulate_tm(spec, "", q.budget)
            return Answer.YES if t is not None else Answer.NO_WITHIN_BUDGET
        if q.kind is QueryKind.ALL_BELOW:
            if q.k is INF:
                raise WorkCapExceeded("cannot enumerate unboundedly many inputs")
            total_work = (2 ** q.k - 1) * q.budget
            if total_work > self.work_cap:
                raise WorkCapExceeded(f"{total_work} simulated steps over cap")
            for w in self._inputs_of_sizes(0, q.k - 1):
                if simulate_tm(spec, w, q.budget) is None:
                    return Answer.NO_WITHIN_BUDGET
            return Answer.YES
        hi = q.budget if q.k_hi is INF else min(q.k_hi, q.budget)
        if hi >= q.k:
            total_work = (2 ** (hi + 1) - 2 ** q.k) * q.budget
            if total_work > self.work_cap:
                raise WorkCapExceeded(f"{total_work} simulated steps over cap")
            for w in self._inputs_of_sizes(q.k, hi):
                if simulate_tm(spec, w, q.budget) is not None:
                    return Answer.YES
        return Answer.NO_WITHIN_BUDGET

    # -- public API --------------------------------------------------------

    def answer(self, e: int, q: HaltQuery) -> Answer:
        if self.programmed:
            return self._answer_programmed(e, q)
        return self._answer_enumerated(e, q)

    def empty_halt_time(self, e: int) -> Optional[int]:
        """Least asserted empty-input halting time, or None for never.

        Programmed backend only; the enumerated backend cannot certify
        non-halting, use :meth:`answer` with an explicit budget instead.
        ``answer`` on an EMPTY query reads the same time.
        """
        if not self.programmed:
            raise ValueError("empty_halt_time requires a programmed table")
        return self._least_empty_time(e)

    def all_below_time(self, e: int, k) -> Optional[int]:
        """Least asserted time within which all inputs of size < k halt."""
        if not self.programmed:
            raise ValueError("programmed table required")
        return self._least_all_below_time(e, k)

    def is_total(self, e: int) -> bool:
        """Table predicate for membership in the totality index set."""
        return self.all_below_time(e, INF) is not None

    def halts_on_size_above(self, e: int, k: int) -> bool:
        """Table predicate: some input of size > k halts (any time)."""
        if not self.programmed:
            raise ValueError("programmed table required")
        if not self._entries_for(e):
            return self.default_halts
        for ent in self._entries_for(e):
            if ent.kind is QueryKind.SOME_IN and ent.time is not None:
                if ent.k_hi is INF or ent.k_hi > k:
                    return True
        return False

    def has_finite_domain(self, e: int) -> bool:
        """Table predicate for the finite-domain index set."""
        if not self.programmed:
            raise ValueError("programmed table required")
        if not self._entries_for(e):
            return not self.default_halts
        for ent in self._entries_for(e):
            if ent.kind is QueryKind.SOME_IN and ent.time is not None and ent.k_hi is INF:
                return False
            if ent.kind is QueryKind.ALL_BELOW and ent.time is not None and ent.k is INF:
                return False
        return True


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _num(v):
    return "inf" if v is INF else v


def _denum(v):
    return INF if v == "inf" else v


def table_to_json(table: OracleTable) -> str:
    if not table.programmed:
        return json.dumps({"backend": "enumerated",
                           "work_cap": table.work_cap}, indent=2)
    doc = {"default": "halt1" if table.default_halts else "never", "entries": []}
    for ent in table.entries:
        item = {"e": ent.e, "kind": ent.kind.value}
        if ent.kind is not QueryKind.EMPTY:
            item["k"] = _num(ent.k)
        if ent.kind is QueryKind.SOME_IN:
            item["k_hi"] = _num(ent.k_hi)
        item["time"] = "never" if ent.time is None else ent.time
        doc["entries"].append(item)
    return json.dumps(doc, indent=2)


def table_from_json(text: str) -> OracleTable:
    doc = json.loads(text)
    backend = doc.get("backend", "programmed")
    if backend == "enumerated":
        return OracleTable.enumerated(int(doc["work_cap"]))
    if backend != "programmed":
        raise ValueError(f"unknown oracle backend {backend!r}")
    entries = []
    for item in doc.get("entries", []):
        kind = QueryKind(item["kind"])
        time = None if item["time"] == "never" else int(item["time"])
        entries.append(Entry(e=int(item["e"]), kind=kind, time=time,
                             k=_denum(item.get("k")), k_hi=_denum(item.get("k_hi"))))
    return OracleTable.programmed_table(entries, default=doc.get("default", "never"))
