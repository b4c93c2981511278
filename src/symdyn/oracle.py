"""Halting-time oracles parameterizing the constructed systems.

The *enumerated* backend decodes machine indices into single-tape Turing
machines and answers by bounded simulation, so it never certifies
non-halting.  The *programmed* backend is a finite table of asserted
halting facts that may answer NEVER; it indexes them per machine and kind
once and answers every query and table predicate through one reader.
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


class TableRefused(ValueError):
    """Raised when a rule cannot be read off the given table: an enumerated
    one where the rule needs facts only a programmed one asserts, or an
    enumerated one given no budget."""


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


_KINDS = {kind.value: kind for kind in QueryKind}  # serialized value -> kind


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

    def __post_init__(self):
        # an empty size range would be read as halting on no input at all;
        # an infinite k below a finite k_hi is one too
        if (self.kind is QueryKind.SOME_IN and self.k_hi is not INF
                and (self.k is INF or self.k > self.k_hi)):
            k = "inf" if self.k is INF else self.k
            raise ValueError(f"a SOME_IN entry needs k <= k_hi, got k = "
                             f"{k}, k_hi = {self.k_hi}")


# The facts that answer a query: ALL_BELOW ones whose bound is at least k, and
# SOME_IN ones whose size range lies inside [lo, hi] (lo None: no low end).
def _covers(k):
    return lambda x: x.k is INF or (k is not INF and x.k >= k)


def _inside(lo, hi):
    return lambda x: (x.k is not INF and (lo is None or x.k >= lo)
                      and (hi is INF or (x.k_hi is not INF and x.k_hi <= hi)))


@dataclass(frozen=True)
class OracleTable:
    """A halting oracle: enumerated (bounded simulation) or programmed.

    A programmed table indexes ``entries`` once, in ``_facts``: each listed
    machine maps to its timed entries by kind, least time first.  ``answer``
    and the five table predicates each read it through :meth:`_least_time`;
    :meth:`timed_facts` hands out one machine's facts of one kind to readers
    that decide many queries at once.
    A listed machine answers from its own facts alone; an unlisted one halts
    at time 1 under ``halt1`` (``default_halts``) and never otherwise.
    ``work_cap`` bounds the simulated steps of an enumerated table; a
    programmed one never reads it.
    """

    programmed: bool
    entries: tuple = ()
    default_halts: bool = False
    work_cap: int = DEFAULT_WORK_CAP
    _facts: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a fresh index per instance, so dataclasses.replace never shares it
        facts = {x.e: {} for x in self.entries}
        for ent in sorted((x for x in self.entries if x.time is not None),
                          key=lambda x: x.time):
            facts[ent.e].setdefault(ent.kind, []).append(ent)
        object.__setattr__(self, "_facts", facts)

    # -- construction ------------------------------------------------------

    @staticmethod
    def programmed_table(entries, default="never"):
        if default not in ("never", "halt1"):
            raise ValueError(f"unknown default {default!r}")
        return OracleTable(programmed=True, entries=tuple(entries),
                           default_halts=(default == "halt1"))

    @staticmethod
    def enumerated(work_cap=DEFAULT_WORK_CAP):
        return OracleTable(programmed=False, work_cap=work_cap)

    # -- programmed answering ---------------------------------------------

    def listed_machines(self):
        """Indices of the machines with any entry, by their first entry."""
        return list(self._facts)

    def timed_facts(self, e: int, kind: QueryKind):
        """The ``kind`` facts of ``e`` that carry a time, least time first,
        as a tuple; None when ``e`` is unlisted."""
        if not self.programmed:
            raise ValueError("programmed table required")
        facts = self._facts.get(e)
        return None if facts is None else tuple(facts.get(kind, ()))

    def _least_time(self, e: int, kind: QueryKind, fits=None) -> Optional[int]:
        """Least time of the ``kind`` facts of ``e`` that ``fits`` accepts
        (all if None), None if none does; 1 or None for unlisted ``e``."""
        if not self.programmed:
            raise ValueError("programmed table required")
        facts = self._facts.get(e)
        if facts is None:
            return 1 if self.default_halts else None
        for x in facts.get(kind, ()):      # least time first
            if fits is None or fits(x):
                return x.time
        return None

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
        if not self.programmed:
            return self._answer_enumerated(e, q)
        fits = (None if q.kind is QueryKind.EMPTY else _covers(q.k)
                if q.kind is QueryKind.ALL_BELOW else _inside(q.k, q.k_hi))
        best = self._least_time(e, q.kind, fits)
        if best is None:
            return Answer.NEVER
        return Answer.YES if best <= q.budget else Answer.NO_WITHIN_BUDGET

    def empty_halt_time(self, e: int) -> Optional[int]:
        """Least asserted empty-input halting time, or None for never (as
        ``answer`` on an EMPTY query reads it).  The enumerated backend
        cannot certify non-halting: use ``answer`` with a budget there."""
        return self._least_time(e, QueryKind.EMPTY)

    def all_below_time(self, e: int, k) -> Optional[int]:
        """Least asserted time within which all inputs of size < k halt."""
        return self._least_time(e, QueryKind.ALL_BELOW, _covers(k))

    def is_total(self, e: int) -> bool:
        """Table predicate for membership in the totality index set."""
        return self._least_time(e, QueryKind.ALL_BELOW, _covers(INF)) is not None

    def halts_on_size_above(self, e: int, k: int) -> bool:
        """Table predicate: some input of size > k halts (any time)."""
        return self._least_time(e, QueryKind.SOME_IN,
                                lambda x: x.k_hi is INF or x.k_hi > k) is not None

    def has_finite_domain(self, e: int) -> bool:
        """Table predicate for the finite-domain index set."""
        return (self._least_time(e, QueryKind.SOME_IN,
                                 lambda x: x.k_hi is INF) is None
                and self._least_time(e, QueryKind.ALL_BELOW, _covers(INF)) is None)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _num(v):
    return "inf" if v is INF else v


def _count(v, field, unbounded=None):
    """A table field read from JSON: a non-negative int, or ``unbounded``
    ("inf" for sizes, "never" for times, none else), read as None."""
    if unbounded is not None and v == unbounded:
        return None
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        also = "" if unbounded is None else f" or {unbounded!r}"
        raise ValueError(f"{field} must be a non-negative integer{also}, "
                         f"got {v!r}")
    return v


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
    if not isinstance(doc, dict):
        raise ValueError(f"an oracle table is a JSON object, not a "
                         f"{type(doc).__name__}")
    backend = doc.get("backend", "programmed")
    if backend == "enumerated":
        return OracleTable.enumerated(_count(doc["work_cap"], "work_cap"))
    if backend != "programmed":
        raise ValueError(f"unknown oracle backend {backend!r}")
    entries = []
    for item in doc.get("entries", []):
        kind = _KINDS.get(item["kind"])
        if kind is None:
            raise ValueError(f"unknown query kind {item['kind']!r}")
        # an omitted size reads as unbounded
        entries.append(Entry(
            e=_count(item["e"], "e"), kind=kind,
            time=_count(item["time"], "time", "never"),
            k=_count(item.get("k", "inf"), "k", "inf"),
            k_hi=_count(item.get("k_hi", "inf"), "k_hi", "inf")))
    return OracleTable.programmed_table(entries,
                                        default=doc.get("default", "never"))
