"""The constructed symbolic maps, packaged as prefix-step functions.

Each map is exposed two ways: ``step_prefix`` applies the literal
per-position rule to a finite word (exact, used for small inputs and as
the reference implementation), and ``orbit`` runs a long simulation with
frontier bookkeeping.  For the block-erasure maps the long-orbit engine
exploits that a block's erasure condition only gets harder as it shifts
toward the origin, so each block is erased at the first step it exists or
never; the engine is cross-checked against the per-position rule in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .oracle import Answer, HaltQuery, OracleTable, QueryKind, INF
from .space import (ALPHA_01, ALPHA_01S, Alphabet, Configuration, parse_blocks)


class FrontierUnresolved(Exception):
    """The supplied word is too short to determine the requested output."""


class SystemId(Enum):
    SHIFT = "shift"
    PI1 = "pi1"
    PI2 = "pi2"
    WILD_T_PRIME = "wild_t_prime"
    WILD_T_SECOND = "wild_t_second"
    SIGMA2 = "sigma2"


_PRODUCT = (SystemId.WILD_T_PRIME, SystemId.WILD_T_SECOND)


@dataclass(frozen=True)
class SystemSpec:
    id: SystemId
    oracle: Optional[OracleTable] = None

    @property
    def alphabet(self) -> Alphabet:
        if self.id in (SystemId.SHIFT, SystemId.PI1, SystemId.SIGMA2):
            return ALPHA_01
        return ALPHA_01S  # first layer of the product systems

    @property
    def is_product(self) -> bool:
        return self.id in _PRODUCT

    def lookahead(self, n: int) -> int:
        if self.id is SystemId.SHIFT:
            return n + 1
        if self.id in _PRODUCT:
            # the crossing gate reads the second layer up to 3i + 2
            return 3 * n + 2
        return 2 * n + 2

    def modulus(self, n: int) -> int:
        """Outputs agree to this depth when inputs agree to depth n."""
        if self.id is SystemId.SHIFT:
            return max(n - 1, 0)
        if self.id is SystemId.PI1:
            return n // 2
        return max((n - 2) // 2, 0)


def shift_system() -> SystemSpec:
    return SystemSpec(SystemId.SHIFT)


def pi1_system(oracle: OracleTable) -> SystemSpec:
    return SystemSpec(SystemId.PI1, oracle)


def sigma2_system(oracle: OracleTable) -> SystemSpec:
    return SystemSpec(SystemId.SIGMA2, oracle)


def pi2_system(oracle: OracleTable) -> SystemSpec:
    return SystemSpec(SystemId.PI2, oracle)


def wild_t_prime_system(oracle: OracleTable) -> SystemSpec:
    return SystemSpec(SystemId.WILD_T_PRIME, oracle)


def wild_t_second_system(oracle: OracleTable) -> SystemSpec:
    return SystemSpec(SystemId.WILD_T_SECOND, oracle)


# ---------------------------------------------------------------------------
# Oracle helpers used by the maps (position-indexed budgets)
# ---------------------------------------------------------------------------

def halts_empty_within(oracle: OracleTable, e: int, budget: int) -> bool:
    return oracle.answer(e, HaltQuery(QueryKind.EMPTY, budget)) is Answer.YES


def halts_some_size_in(oracle: OracleTable, e: int, lo: int, hi: int,
                       budget: int) -> bool:
    if hi < lo:
        return False
    q = HaltQuery(QueryKind.SOME_IN, budget, k=lo, k_hi=hi)
    return oracle.answer(e, q) is Answer.YES


# ---------------------------------------------------------------------------
# Per-position step rules
# ---------------------------------------------------------------------------

def _check_pi1_frontier(w: str, n: int):
    dec = parse_blocks(w)
    if not dec.runs:
        return dec
    last = dec.runs[-1]
    if (last.symbol == "1" and not last.bounded_right
            and last.bound_left is not None):
        j1 = last.bound_left
        # the closing 0 sits at some j2 >= len(w); it can still matter when
        # an erasable candidate (l <= j1, j2 <= 2i, i < n) remains possible
        if j1 <= n - 1 and len(w) <= 2 * (n - 1) and len(w) <= 2 * j1 + 1:
            raise FrontierUnresolved(f"1-run open at {last.start}")
    return dec


def _pi1_step_prefix(oracle: OracleTable, w: str, n: int) -> str:
    if len(w) < n + 1:
        raise FrontierUnresolved("need one symbol past the window")
    dec = _check_pi1_frontier(w, n)
    out = list(w[1:n + 1])
    for j1, l in dec.blocks("1"):
        j2 = j1 + l + 1
        if l <= j1 and halts_empty_within(oracle, l, j1):
            for i in range(max(j1, (j2 + 1) // 2), min(j2, n)):
                out[i] = "0"
    return "".join(out)


def _sigma2_step_prefix(oracle: OracleTable, w: str, n: int) -> str:
    if len(w) < n + 1:
        raise FrontierUnresolved("need one symbol past the window")
    dec = _check_pi1_frontier(w, n)  # same trailing-run geometry
    out = list(w[1:n + 1])
    for j1, l in dec.blocks("1"):
        j2 = j1 + l + 1
        j0 = w.rfind("1", 0, j1)
        if j0 < 0 or l >= j1:
            continue
        k = j1 - j0
        if halts_some_size_in(oracle, l, k, j1, j1):
            for i in range(max(j1, (j2 + 1) // 2), min(j2, n)):
                out[i] = "0"
    return "".join(out)


def step_prefix(sys: SystemSpec, w, n: int):
    """First ``n`` symbols of the image of any configuration extending ``w``.

    Raises FrontierUnresolved when ``w`` is too short to determine them.
    For the shift, pi1 and sigma2, words of length >= ``sys.lookahead(n)``
    always suffice.  For pi2 and the product systems they need not: an S
    near the end of the word can read past it (pi2 with n = 1 raises on
    ``'000S'``, "first S reads one symbol past the supplied word"), so
    callers must be ready for FrontierUnresolved at any length.
    """
    if sys.is_product or sys.id is SystemId.PI2:
        from . import pi2
        return pi2.step_prefix(sys, w, n)
    if sys.id is SystemId.SHIFT:
        if len(w) < n + 1:
            raise FrontierUnresolved("need one symbol past the window")
        return w[1:n + 1]
    if sys.id is SystemId.PI1:
        return _pi1_step_prefix(sys.oracle, w, n)
    if sys.id is SystemId.SIGMA2:
        return _sigma2_step_prefix(sys.oracle, w, n)
    raise ValueError(sys.id)


# ---------------------------------------------------------------------------
# Erasure maps (phi / phi')
# ---------------------------------------------------------------------------

class EraseKind(Enum):
    PHI = "phi"
    PHI_PRIME = "phi_prime"


KEPT, ERASED, UNRESOLVED = "kept", "erased", "unresolved"


def erase_map_prefix(kind: EraseKind, oracle: OracleTable, w: str,
                     budget: Optional[int] = None):
    """Apply the block-erasure map to ``w``; returns (word, statuses).

    Interior 1s of bounded blocks are erased or kept per the oracle
    verdict; runs whose closing symbol lies past the end of ``w`` are
    unresolved, as are NoWithinBudget verdicts from enumerated backends.
    """
    statuses = [KEPT] * len(w)
    out = list(w)
    dec = parse_blocks(w)
    for run in dec.runs:
        if run.symbol != "1":
            continue
        if not run.bounded:
            if run.bound_left is not None and not run.bounded_right:
                for i in range(run.start, run.start + run.length):
                    statuses[i] = UNRESOLVED
            continue
        l = run.length
        j1 = run.bound_left
        if kind is EraseKind.PHI:
            if oracle.programmed:
                verdict = oracle.empty_halt_time(l) is not None
            else:
                if budget is None:
                    raise ValueError("enumerated backend needs a budget")
                ans = oracle.answer(l, HaltQuery(QueryKind.EMPTY, budget))
                verdict = True if ans is Answer.YES else None
        else:
            j0 = w.rfind("1", 0, j1)
            verdict = not oracle.has_finite_domain(l)
            if not verdict and j0 >= 0:
                verdict = oracle.halts_on_size_above(l, j1 - j0)
            if not verdict and j0 < 0:
                # the preceding 0-gap can be arbitrarily long in an extension
                verdict = False
        for i in range(run.start, run.start + run.length):
            if verdict is None:
                statuses[i] = UNRESOLVED
            elif verdict:
                statuses[i] = ERASED
                out[i] = "0"
    return "".join(out), statuses


# ---------------------------------------------------------------------------
# Long-orbit engine for the block-erasure systems
# ---------------------------------------------------------------------------

@dataclass
class _Visible:
    """A 1-run in absolute coordinates (config_t position = abs - t).

    ``t_until`` is the last step at which the run exists (inclusive);
    None means it survives forever.
    """

    start: int      # absolute position of the first 1
    length: int
    t_from: int     # first step at which it exists
    t_until: Optional[int]


def _materialize_closed(x: Configuration, horizon: int) -> str:
    """Materialize past ``horizon`` until the straddling 1-run closes.

    A run left open after the capped extension is longer than any
    position it borders, so the erasure conditions (which need l <= j1,
    resp. l < j1) can never fire on it and it is safely a survivor.
    """
    size = horizon + 1
    w = x.materialize(size)
    while w.endswith("1") and size <= 4 * horizon + 8:
        size *= 2
        w = x.materialize(size)
    return w


def _one_runs(w: str):
    """(starts, ends) of maximal 1-runs, via numpy for long words."""
    if not w:
        return [], []
    arr = np.frombuffer(w.encode("ascii"), dtype=np.uint8) == ord("1")
    d = np.diff(arr.astype(np.int8))
    starts = (np.flatnonzero(d == 1) + 1).tolist()
    ends = (np.flatnonzero(d == -1) + 1).tolist()
    if arr[0]:
        starts.insert(0, 0)
    if arr[-1]:
        ends.append(len(w))
    return starts, ends


def _pi1_visibles(x: Configuration, oracle: OracleTable, extent: int):
    w = _materialize_closed(x, extent)
    starts, ends = _one_runs(w)
    vis: List[_Visible] = []
    queue: List[Tuple[int, int, int]] = []  # (abs leading-0 pos, length, birth)
    for a, b in zip(starts, ends):
        if a == 0 or b == len(w):
            vis.append(_Visible(a, b - a, 0, None))
        else:
            queue.append((a - 1, b - a, 0))
    halt_time = {}
    while queue:
        p, l, s = queue.pop()
        if l not in halt_time:
            halt_time[l] = oracle.empty_halt_time(l) if oracle.programmed \
                else None
        j1 = p - s  # position of the leading 0 in config_s
        if oracle.programmed:
            erased = (j1 >= l and halt_time[l] is not None
                      and halt_time[l] <= j1)
        else:
            erased = j1 >= l and halts_empty_within(oracle, l, j1)
        if erased:
            vis.append(_Visible(p + 1, l, s, s))
            if l == j1 and j1 >= 1:
                # position j1 escapes the j2 <= 2i bound and inherits the
                # block's first 1; a fresh length-1 block is born
                queue.append((p, 1, s + 1))
        else:
            vis.append(_Visible(p + 1, l, s, None))
    return vis


def _sigma2_visibles(x: Configuration, oracle: OracleTable, extent: int):
    w = _materialize_closed(x, extent)
    starts, ends = _one_runs(w)
    vis: List[_Visible] = []
    prev_end = None  # end of the previous 1-run
    for a, b in zip(starts, ends):
        if a == 0 or b == len(w):
            vis.append(_Visible(a, b - a, 0, None))
        else:
            j1, l = a - 1, b - a
            erased = (prev_end is not None and l < j1
                      and halts_some_size_in(oracle, l, j1 - prev_end + 1,
                                             j1, j1))
            vis.append(_Visible(a, l, 0, 0 if erased else None))
        prev_end = b
    return vis


def _windows_from_visibles(vis, t0: int, t1: int, L: int) -> Iterator[str]:
    """Yield config_t[0:L] for t in [t0, t1) from visible-run data.

    Survivors go into one static absolute-coordinate array; short-lived
    runs and not-yet-born survivors become per-step correction buckets,
    so each window costs O(L) regardless of the number of blocks.
    """
    N = t1 + L + 1
    static = np.zeros(N, dtype=bool)
    add_at: dict = {}
    zero_at: dict = {}
    for v in vis:
        lo, hi = v.start, min(v.start + v.length, N)
        if lo >= hi:
            continue
        if v.t_until is None:
            static[lo:hi] = True
            if v.t_from > t0:
                # hide the run at steps before its birth
                for t in range(max(t0, lo - L + 1), min(v.t_from, t1, hi)):
                    zero_at.setdefault(t, []).extend(
                        range(max(lo, t), min(hi, t + L)))
        elif t0 <= v.t_from < t1:
            s = v.t_from  # == t_until for erased blocks
            add_at.setdefault(s, []).extend(
                range(max(lo, s), min(hi, s + L)))
    ones = "1"
    for t in range(t0, t1):
        cells = static[t:t + L]
        if t in zero_at or t in add_at:
            cells = cells.copy()
            for pos in zero_at.get(t, ()):
                cells[pos - t] = False
            for pos in add_at.get(t, ()):
                cells[pos - t] = True
        yield "".join(ones if c else "0" for c in cells)


def orbit_windows(sys: SystemSpec, x: Configuration, t0: int, t1: int,
                  window: int) -> Iterator[str]:
    """Windows T^t(x)[0:window] for t in [t0, t1); t = 0 is x itself."""
    if sys.is_product or sys.id is SystemId.PI2:
        from . import pi2
        yield from pi2.orbit_windows(sys, x, t0, t1, window)
        return
    if sys.id is SystemId.SHIFT:
        w = x.materialize(t1 + window)
        for t in range(t0, t1):
            yield w[t:t + window]
        return
    extent = t1 + window + 1
    if sys.id is SystemId.PI1:
        vis = _pi1_visibles(x, sys.oracle, extent)
    else:
        vis = _sigma2_visibles(x, sys.oracle, extent)
    yield from _windows_from_visibles(vis, t0, t1, window)


def orbit(sys: SystemSpec, x: Configuration, steps: int, window: int):
    """The sequence T(x), T^2(x), ..., T^steps(x) restricted to [0, window)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    return list(orbit_windows(sys, x, 1, steps + 1, window))


def reference_orbit(sys: SystemSpec, x: Configuration, steps: int,
                    window: int):
    """Orbit by repeated step_prefix on a shrinking buffer (test reference)."""
    sizes = [window]
    for _ in range(steps - 1):
        sizes.append(sys.lookahead(sizes[-1]))
    sizes.reverse()
    def clip(word, n):
        return word[:n] if isinstance(word, str) else tuple(s[:n] for s in word)

    w = x.materialize(sys.lookahead(sizes[0]))
    out = []
    for n in sizes:
        w = step_prefix(sys, w, n)
        out.append(clip(w, window))
    return out
