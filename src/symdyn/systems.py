"""The constructed symbolic maps, packaged as prefix-step functions.

Each map is exposed two ways: ``step_prefix`` applies one step to a finite
word exactly, with string operations, and ``orbit`` runs a long
simulation.  The list-based steps ``step_prefix`` replaced are kept in the
test suite as its references; the orbit fuzz tests read ``step_prefix``.
Each system but the shift reads its table through one rule object, built
once per :class:`SystemSpec`.  The block-erasure rule is a :class:`_Rule`:
the one-step verdict, the same over block arrays (the long-orbit engine
decides every block in one pass), the limit verdict (for the maps in the
limit and :mod:`symdyn.analysis`) and the cuts where it can change; a
programmed table is read once per machine.  The zone systems run in
:mod:`symdyn.pi2` and read a :class:`symdyn.pi2.ZoneRule`.  Each
``SystemId`` member carries the facts that fix its system.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, Optional

import numpy as np

from . import pi2
from .oracle import (INF, Answer, HaltQuery, OracleTable, QueryKind,
                     TableRefused)
from .space import (ALPHA_01, ALPHA_01S, ALPHA_AB, ArgumentRefused,
                    Configuration, FrontierUnresolved, parse_blocks)


class EraseKind(Enum):
    PHI = "phi"
    PHI_PRIME = "phi_prime"


class SystemId(Enum):
    """The six systems, each with the facts that fix it: its (first-layer)
    ``alphabet``, its block-erasure rule ``erase`` (None for the shift and
    the zone systems), and for the products, which read a second layer,
    whether it gates the first S (``gate_first``) or lets the second S
    insert (``second_inserts``); ``product`` is either flag.  A word's
    symbols outside the alphabet are ``w.translate(alphabet.absent)``."""

    SHIFT = ("shift", ALPHA_01, None)
    PI1 = ("pi1", ALPHA_01, EraseKind.PHI)
    PI2 = ("pi2", ALPHA_01S, None)
    WILD_T_PRIME = ("wild_t_prime", ALPHA_01S, None, True)
    WILD_T_SECOND = ("wild_t_second", ALPHA_01S, None, False, True)
    SIGMA2 = ("sigma2", ALPHA_01, EraseKind.PHI_PRIME)

    def __new__(cls, value, alphabet, erase, gate_first=False,
                second_inserts=False):
        member = object.__new__(cls)
        member._value_ = value
        member.alphabet, member.erase = alphabet, erase
        member.gate_first, member.second_inserts = gate_first, second_inserts
        member.product = gate_first or second_inserts
        return member


@dataclass(frozen=True)
class SystemSpec:
    """A system and its oracle table, read through one rule object built
    once, in ``_rule``: a :class:`_Rule` for the erasure systems, a
    :class:`symdyn.pi2.ZoneRule` for the zone systems, None for the shift.
    It is not a field that ``dataclasses.replace``, equality or hashing
    read."""

    id: SystemId
    oracle: Optional[OracleTable] = None
    _rule: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sid, oracle = self.id, self.oracle
        if sid is not SystemId.SHIFT and oracle is None:
            raise ArgumentRefused(f"{sid.value} needs an oracle table")
        object.__setattr__(self, "_rule", None if sid is SystemId.SHIFT
                           else pi2.ZoneRule(oracle) if sid.erase is None
                           else _rule(oracle, sid.erase))

    def lookahead(self, n: int) -> int:
        if self.id is SystemId.SHIFT:
            return n + 1
        if self.id.product:
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


# one constructor per system: pi1_system(oracle) is SystemSpec(SystemId.PI1,
# oracle), shift_system() is SystemSpec(SystemId.SHIFT)
shift_system = functools.partial(SystemSpec, SystemId.SHIFT)
pi1_system = functools.partial(SystemSpec, SystemId.PI1)
sigma2_system = functools.partial(SystemSpec, SystemId.SIGMA2)
pi2_system = functools.partial(SystemSpec, SystemId.PI2)
wild_t_prime_system = functools.partial(SystemSpec, SystemId.WILD_T_PRIME)
wild_t_second_system = functools.partial(SystemSpec, SystemId.WILD_T_SECOND)


# ---------------------------------------------------------------------------
# The block-erasure rule (phi / phi')
# ---------------------------------------------------------------------------

_FAR = 1 << 62   # past every j1 and gap; profiles are clipped to it
_SOME_SIZE = HaltQuery(QueryKind.SOME_IN, _FAR, k=0, k_hi=_FAR)   # any range


class _Rule:
    """The phi or phi' rule of one table, asking an enumerated one per block.

    A block 0 1^l 0 has its leading 0 at ``j1``; ``gap`` is ``j1`` minus
    the position of the nearest 1 to its left, None (-1 in arrays) if none.
    ``now(l, j1, gap)``: one step erases the block; under phi when l <= j1
    and M_l halts on the empty input within j1 steps, under phi' when a 1
    precedes the block, l < j1 and M_l halts within j1 steps on some input
    of size in [gap, j1].  ``blocks``: ``now`` over int64 arrays.  Called
    as ``fate(l, gap)``: the block is erased in the limit (here: a YES on
    the empty input within ``budget``, else None).
    """

    def __init__(self, oracle: OracleTable, kind: EraseKind,
                 budget: Optional[int] = None):
        self.oracle, self.budget = oracle, budget
        self.phi = kind is EraseKind.PHI
        self._profiles = {}   # e -> M_e's profile, on a programmed table

    def now(self, l, j1, gap) -> bool:
        if (l > j1) if self.phi else (gap is None or l >= j1):
            return False
        return self._halts(l, j1, gap)

    def _halts(self, l, j1, gap) -> bool:
        return self.oracle.answer(l, HaltQuery(QueryKind.EMPTY, j1) if self.phi
                                  else HaltQuery(QueryKind.SOME_IN, j1, k=gap,
                                                 k_hi=j1)) is Answer.YES

    def blocks(self, l, j1, gap):
        return np.array([self.now(n, j, None if g < 0 else g) for n, j, g
                         in zip(l.tolist(), j1.tolist(), gap.tolist())], bool)

    def __call__(self, l, gap):
        return (self.oracle.answer(l, HaltQuery(QueryKind.EMPTY, self.budget))
                is Answer.YES) or None


class _TableRule(_Rule):
    """The rule on a programmed table, read from M_e's profile ``(pairs,
    infinite, top)``, built once per machine.  A step erases a block of
    length e when a (k, need) pair, clipped to [-1, ``_FAR``], has k >= gap
    and need <= j1: under phi (inf, t_e), t_e the least empty-input halting
    time; under phi' one per finite-range SOME_IN fact, need = max(k_hi,
    time), if ``answer`` finds any (an unlisted machine halts at 1 under
    halt1).  The limit erases under phi when t_e exists (``infinite``),
    under phi' when M_e's domain is infinite or its largest finite k_hi
    (``top``, -1 if none) is above the gap.  So phi' reads it two ways:

    - a step asks for a fact inside [gap, j1], in time (``pairs``);
    - the limit asks for an infinite domain or any fact reaching past gap.

    On the one-fact tables SOME_IN e=1 with (k, k_hi) = (1, 1), (1, inf)
    or (0, 4) they disagree: sigma2's empirical measure stays at total
    variation 0.14, 0.28 and 0.24 from the phi' limit measure.  Which one
    the paper means is open; settling it moves the benchmark's sigma2
    goldens (``erasure``'s ``sigma2_measure``, ``exact``'s ``meets
    --system sigma2`` on the ``mixed`` table), so it waits for a change
    that regenerates them.
    """

    def profile(self, e: int):
        if e not in self._profiles:
            self._profiles[e] = self._read(e)
        return self._profiles[e]

    def _read(self, e: int):
        oracle = self.oracle
        if self.phi:
            t = oracle.empty_halt_time(e)
            return (() if t is None else ((_FAR, min(t, _FAR)),),
                    t is not None, -1)
        facts, pairs = oracle.timed_facts(e, QueryKind.SOME_IN), ()
        if oracle.answer(e, _SOME_SIZE) is Answer.YES:
            pairs = ((_FAR, 1),) if facts is None else tuple(
                (min(max(f.k, -1), _FAR), min(max(f.k_hi, f.time), _FAR))
                for f in facts if f.k is not INF and f.k_hi is not INF)
        top = max((f.k_hi for f in facts or () if f.k_hi is not INF),
                  default=-1)
        return pairs, not oracle.has_finite_domain(e), top

    def _halts(self, l, j1, gap) -> bool:
        for k, need in self.profile(l)[0]:
            if need <= j1 and (gap is None or k >= gap):
                return True
        return False

    def blocks(self, l, j1, gap):
        # np.searchsorted maps each block to its machine's pairs, and one
        # expression per pair rank decides every block
        cand = (l <= j1) if self.phi else (gap >= 0) & (l < j1)
        machines = sorted(set(l[cand].tolist()))
        pairs = [self.profile(e)[0] for e in machines]
        at, hit = np.searchsorted(np.array(machines, np.int64), l), False
        for rank in itertools.zip_longest(*pairs, [], fillvalue=(-1, _FAR)):
            k, need = np.array(rank, np.int64).T[:, at]
            hit = hit | (k >= gap) & (need <= j1)
        return cand & hit

    def __call__(self, l, gap) -> bool:
        _, infinite, top = self.profile(l)
        return infinite or (gap is not None and gap < top)

    def cuts(self):
        """(l_cuts, g_cuts), sorted from 0, where the limit verdict can
        change: unlisted machines share one profile, and a gap changes the
        verdict only where it reaches a listed machine's ``top``."""
        listed = self.oracle.listed_machines()
        tops = (self.profile(m)[2] for m in listed)
        return (sorted({0, *(c for m in listed for c in (m, m + 1) if c)}),
                sorted({0, *(top for top in tops if top > 0)}))


def _rule(oracle, kind, budget=None) -> _Rule:
    return (_TableRule if oracle.programmed else _Rule)(oracle, kind, budget)


def check_budget(budget: Optional[int]) -> None:
    """Raise ArgumentRefused unless ``budget`` is None or >= 0."""
    if budget is not None and budget < 0:
        raise ArgumentRefused(f"budget must be >= 0, got {budget}")


def block_fate(oracle: OracleTable, kind: EraseKind,
               budget: Optional[int] = None):
    """The limit rule, a new :class:`_Rule` called as ``fate(l, gap)``:
    True (erased), False (kept) or None (no YES within ``budget`` on an
    enumerated table).  Raises ArgumentRefused for a negative budget and
    TableRefused when the table cannot decide, both at once."""
    check_budget(budget)
    if not oracle.programmed:
        if kind is EraseKind.PHI_PRIME:
            raise TableRefused("the finite-domain predicates need a "
                               "programmed table")
        if budget is None:
            raise TableRefused("enumerated oracles need a budget")
    return _rule(oracle, kind, budget)


# ---------------------------------------------------------------------------
# Per-position step rules
# ---------------------------------------------------------------------------

def _erasure_step_prefix(erased, w: str, n: int) -> str:
    size = len(w)
    if size < n + 1:
        raise FrontierUnresolved("need one symbol past the window")
    # a right-open last run (start > 0) closes at some j2 >= len(w); it can
    # still matter when an erasable candidate (l <= j1, j2 <= 2i, i < n)
    # remains
    start = len(w.rstrip("1"))
    if (0 < start < size and start <= n and size <= 2 * (n - 1)
            and size < 2 * start):
        raise FrontierUnresolved(f"1-run open at {start}")
    # the blocks with j1 < n are the runs of the word up to its first 0 at
    # or past n; later blocks lie right of the window
    cut = w.find("0", n)
    out = None
    prev_end = None   # end of the previous 1-run
    for start, l in parse_blocks(w if cut < 0 else w[:cut]):
        end = start + l
        if start and end < size and erased(
                l, start - 1, None if prev_end is None else start - prev_end):
            lo, hi = max(start - 1, (end + 1) // 2), min(end, n)
            if lo < hi:
                if out is None:
                    out = list(w[1:n + 1])
                out[lo:hi] = "0" * (hi - lo)
        prev_end = end
    return w[1:n + 1] if out is None else "".join(out)


def step_prefix(sys: SystemSpec, w, n: int):
    """First ``n`` symbols of the image of any configuration extending ``w``.

    Raises FrontierUnresolved when ``w`` is too short to determine them.
    For the shift, pi1 and sigma2, words of length >= ``sys.lookahead(n)``
    always suffice.  For pi2 and the product systems they need not: an S
    near the end of the word can read past it (pi2 with n = 1 raises on
    ``'000S'``, "first S reads one symbol past the supplied word"), so
    callers must be ready for FrontierUnresolved at any length.  Raises
    ArgumentRefused when ``n`` is negative or ``w`` holds a symbol outside
    the system's alphabet; a product reads ``w`` as (layer 1, layer 2),
    the second over {a, b}.
    """
    sid = sys.id
    if n < 0:
        raise ArgumentRefused(f"need n >= 0, got {n}")
    if sid.product:
        w1, w2 = w
        bad = w1.translate(sid.alphabet.absent) + w2.translate(ALPHA_AB.absent)
    else:
        bad = w.translate(sid.alphabet.absent)
    if bad:
        raise ArgumentRefused(f"{sid.value} does not read the symbol "
                              f"{bad[0]!r}")
    if sid.erase is not None:
        return _erasure_step_prefix(sys._rule.now, w, n)
    if sid is not SystemId.SHIFT:
        return pi2.step_prefix(sys, w, n)
    if len(w) < n + 1:
        raise FrontierUnresolved("need one symbol past the window")
    return w[1:n + 1]


# ---------------------------------------------------------------------------
# The erasure maps in the limit
# ---------------------------------------------------------------------------

KEPT, ERASED, UNRESOLVED = "kept", "erased", "unresolved"


def erase_map_prefix(kind: EraseKind, oracle: OracleTable, w: str,
                     budget: Optional[int] = None):
    """Apply the block-erasure map to ``w``; returns (word, statuses).

    Interior 1s of bounded blocks are erased or kept per the limit rule
    :func:`block_fate`; runs whose closing symbol lies past the end of
    ``w`` are unresolved, as are NoWithinBudget verdicts from enumerated
    backends.  A symbol outside {0, 1} raises ArgumentRefused.
    """
    bad = w.translate(ALPHA_01.absent)
    if bad:
        raise ArgumentRefused(f"{kind.value} does not read the symbol "
                              f"{bad[0]!r}")
    fate = block_fate(oracle, kind, budget)
    statuses = [KEPT] * len(w)
    out = list(w)
    prev_end = None   # end of the previous 1-run
    for start, l in parse_blocks(w):
        end = start + l
        if start > 0:
            gap = None if prev_end is None else start - prev_end
            verdict = fate(l, gap) if end < len(w) else None
            if verdict is None:
                statuses[start:end] = [UNRESOLVED] * l
            elif verdict:
                statuses[start:end] = [ERASED] * l
                out[start:end] = "0" * l
        prev_end = end
    return "".join(out), statuses


# ---------------------------------------------------------------------------
# Long-orbit engine for the block-erasure systems
# ---------------------------------------------------------------------------

def _materialize_closed(x: Configuration, horizon: int) -> str:
    """Materialize through ``horizon`` and on until the 1-run there closes.

    The word ends just after the first 0 at or past ``horizon``; no later
    run reaches a window.  A run still open at 4·horizon + 8 symbols is
    longer than any position it borders, so the erasure conditions never
    fire on it: it is left open, a survivor.  Each extension regenerates
    the word, so the look-ahead starts at 64 symbols and grows eightfold.
    """
    cap = 4 * horizon + 8
    size, step = min(horizon + 65, cap), 512
    while True:
        w = x.materialize(size)
        close = w.find("0", horizon)
        if close >= 0:
            return w[:close + 1]
        if size == cap:
            return w
        size, step = min(size + step, cap), 8 * step


def _erasure_layout(sys: SystemSpec, x: Configuration, t0: int, t1: int,
                    L: int):
    """The erasure orbit's windows in [t0, t1) as one static word plus patches.

    A block's erasure condition only gets harder as it shifts toward the
    origin (j1 and the budget shrink, the gap never does), so each block is
    erased at the first step it exists or never.  ``static`` is the input's
    0/1 cells over absolute positions [0, t1 + L + 1), the runs
    the rule's ``blocks`` erases zeroed.  An erased block with l == j1
    leaves its first 1 as a fresh 0 1 0 a step later, which the scalar rule
    judges in a Python loop; a survivor shows from step 0 on, in the cell
    its forebears hold.  config_t[0:L] is ``static[t:t + L]`` with the cells
    [lo, hi) of each patch ``(step, lo, hi)``, an erased run clipped to the
    window of its one step, set to 1 at t == step; in three columns.
    """
    rule, extent = sys._rule, t1 + L + 1
    w = _materialize_closed(x, extent)
    ones = np.frombuffer(b"0" + w.encode("ascii") + b"0", np.uint8) - ord("0")
    # each 1-run is w[a:b]; a run at the origin (j1 = -1) or open at the
    # end of w (longer than any j1, see above) is never erased
    a, b = np.flatnonzero(ones[1:] != ones[:-1]).reshape(-1, 2).T
    gap = np.concatenate(([-1], a[1:] - b[:-1]))[:len(a)]   # -1: none
    l, j1 = b - a, a - 1
    er = rule.blocks(l, j1, gap)
    ea, eb = a[er], b[er]
    d = np.zeros(len(w), np.uint8)   # erased runs open +1, close -1 mod 256
    d[ea], d[eb] = 1, 255
    static = ones[1:extent + 1] - np.cumsum(d[:extent], dtype=np.uint8)
    # (step, start, end) of the erased runs some window can show
    seen = int(np.searchsorted(ea, L))
    rows = [(0, *run) for run in zip(ea[:seen].tolist(), eb[:seen].tolist())]
    for p in j1[er & (l == j1)].tolist():   # phi alone rebirths; no gap read
        s = 1   # 0 1 0 at j1 = p - s in config_s
        while rule.now(1, p - s, None):
            rows.append((s, p + 1, p + 2))
            if p - s != 1:
                break
            s += 1
        else:
            static[p + 1:p + 2] = 1
    patches = [(s, max(lo, s), min(hi, s + L)) for s, lo, hi in rows
               if t0 <= s < t1 and max(lo, s) < min(hi, s + L)]
    return static, tuple(np.array(patches, np.int64).reshape(-1, 3).T)


def _patched_windows(static, patches, t0: int, t1: int,
                     L: int) -> Iterator[str]:
    """Yield config_t[0:L] for t in [t0, t1) from :func:`_erasure_layout`:
    slices of the static word, copied only at the steps with patches."""
    add_at: dict = {}
    for s, lo, hi in zip(*(col.tolist() for col in patches)):
        add_at.setdefault(s, []).append((lo - s, hi - s))
    word = (static + ord("0")).tobytes().decode("ascii")
    for t in range(t0, t1):
        if t in add_at:
            cells = bytearray(word[t:t + L], "ascii")
            for a, b in add_at[t]:
                cells[a:b] = b"1" * (b - a)
            yield cells.decode("ascii")
        else:
            yield word[t:t + L]


def _count_codes(static, patches, t0: int, t1: int,
                 L: int) -> Dict[str, int]:
    """Count the windows ``static[t:t + L]``, patched as in
    :func:`_patched_windows`, for t in [t0, t1), with L <= 64: each is
    packed into an L-bit code, first cell highest, and only the distinct
    codes are formatted back to words, in ascending order."""
    dtype = np.min_scalar_type((1 << L) - 1)
    codes = np.zeros(max(t1 - t0, 0), dtype=dtype)
    for i in range(L):
        codes <<= 1
        codes |= static[t0 + i:t1 + i]
    step, lo, hi = patches
    # low[k] has the low k bits set; window cells [a, b) are the bits
    # L - b .. L - a - 1
    low = np.array([(1 << k) - 1 for k in range(L + 1)], dtype=dtype)
    masks = low[L - (lo - step)] - low[L - (hi - step)]
    np.bitwise_or.at(codes, step - t0, masks)
    if len(codes) >= 1 << L:
        counts = np.bincount(codes, minlength=1 << L)
        values = np.flatnonzero(counts)
        counts = counts[values]
    else:
        values, counts = np.unique(codes, return_counts=True)
    fmt = f"0{L}b"
    return {format(v, fmt) if L else "": c
            for v, c in zip(values.tolist(), counts.tolist())}


def _window_key(w) -> str:
    """A window as one string: a product window (w1, w2) reads 'w1|w2'."""
    return w if isinstance(w, str) else "|".join(w)


def _check_orbit_args(sys: SystemSpec, x: Configuration, t0: int,
                      window: int) -> None:
    if t0 < 0 or window < 0:
        raise ArgumentRefused(f"need t0, window >= 0, got {t0}, {window}")
    layers = ((x.layer1, x.layer2) if isinstance(x, pi2.ProductConfiguration)
              else (x,))
    want = (sys.id.alphabet, ALPHA_AB)[:1 + sys.id.product]
    if [getattr(layer, "alphabet", None) for layer in layers] != list(want):
        raise ArgumentRefused(
            f"{sys.id.value} reads {len(want)} layer(s) over "
            f"{' x '.join(''.join(a.symbols) for a in want)}")


def orbit_windows(sys: SystemSpec, x: Configuration, t0: int, t1: int,
                  window: int) -> Iterator[str]:
    """Windows T^t(x)[0:window] for t in [t0, t1); t = 0 is x itself.

    Raises ArgumentRefused before the first window when ``t0`` or
    ``window`` is negative, or when ``x`` does not have the layers the
    system reads: a ``ProductConfiguration`` exactly for the products,
    with layer 1 over the system's alphabet and layer 2 over {a, b}.
    """
    _check_orbit_args(sys, x, t0, window)
    if t1 < t0:     # no windows; t1 + window cells may be a negative count
        return
    if sys.id.erase is not None:
        yield from _patched_windows(*_erasure_layout(sys, x, t0, t1, window),
                                    t0, t1, window)
    elif sys.id is not SystemId.SHIFT:
        yield from pi2.orbit_windows(sys, x, t0, t1, window)
    else:
        w = x.materialize(t1 + window)
        for t in range(t0, t1):
            yield w[t:t + window]


def orbit_window_counts(sys: SystemSpec, x: Configuration, t0: int, t1: int,
                        window: int) -> Dict[str, int]:
    """How often each window of :func:`orbit_windows` occurs, as
    ``Counter(map(_window_key, orbit_windows(...)))`` would count it.

    For the block-erasure maps the windows are counted as integer codes
    over :func:`_erasure_layout`, and no window string is built.  The shift,
    pi2, the products and windows wider than 64 count the generated
    windows.  It refuses at once what :func:`orbit_windows` refuses.
    """
    _check_orbit_args(sys, x, t0, window)
    if t1 < t0:
        return {}
    if sys.id.erase is not None and window <= 64:
        return _count_codes(*_erasure_layout(sys, x, t0, t1, window),
                            t0, t1, window)
    return dict(Counter(map(_window_key,
                            orbit_windows(sys, x, t0, t1, window))))


def orbit(sys: SystemSpec, x: Configuration, steps: int, window: int):
    """The sequence T(x), T^2(x), ..., T^steps(x) restricted to [0, window)."""
    if window < 1:
        raise ArgumentRefused("window must be >= 1")
    return list(orbit_windows(sys, x, 1, steps + 1, window))
