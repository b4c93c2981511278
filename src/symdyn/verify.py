"""One-shot verification suites aggregating the library's invariants.

Each suite runs a deterministic batch of checks and reports measured
versus expected values; ``verify_suite("all")`` is the whole battery at
scales sized for an interactive run (the test suite repeats the heavy
experiments at full scale).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List

from . import analysis, cantor, systems
from .oracle import INF, Entry, OracleTable, QueryKind
from .pi2 import ProductConfiguration, ZoneEngine
from .space import (ALPHA_01S, ALPHA_AB, ArgumentRefused, Configuration,
                    Constant, Cylinder, Periodic, Sampler, binary_config,
                    rich_configuration)
from .systems import SystemId, step_prefix

# ---------------------------------------------------------------------------
# Shared oracle tables
# ---------------------------------------------------------------------------


def worked_example_oracle() -> OracleTable:
    """M1 halts at 8, M3 at 4, everything else never."""
    return OracleTable.programmed_table([
        Entry(e=1, kind=QueryKind.EMPTY, time=8),
        Entry(e=3, kind=QueryKind.EMPTY, time=4),
    ])


def parity_oracle(limit: int = 64) -> OracleTable:
    """Odd machines below ``limit`` halt on empty input at time e; the
    rest never halt."""
    return OracleTable.programmed_table([
        Entry(e=e, kind=QueryKind.EMPTY, time=e)
        for e in range(1, limit, 2)])


def totality_oracle() -> OracleTable:
    """Machine 2 is total with a uniform bound; machine 3 halts only on
    the empty input; everything else never halts."""
    return OracleTable.programmed_table([
        Entry(e=2, kind=QueryKind.ALL_BELOW, k=INF, time=2),
        Entry(e=3, kind=QueryKind.ALL_BELOW, k=1, time=2),
    ])


# ---------------------------------------------------------------------------
# Report structure
# ---------------------------------------------------------------------------

WORKED_INPUT = "1001011100101100"
WORKED_OUTPUT = "0010000000011000"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str                      # "pass" | "fail" | "skipped"
    measured: object = None
    expected: object = None
    tolerance: object = None


@dataclass
class VerificationReport:
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def add(self, name, ok, measured=None, expected=None, tolerance=None):
        self.checks.append(CheckResult(name, "pass" if ok else "fail",
                                       measured, expected, tolerance))

    def to_json(self) -> dict:
        return {"passed": self.passed,
                "checks": [{"name": c.name, "status": c.status,
                            "measured": _plain(c.measured),
                            "expected": _plain(c.expected),
                            "tolerance": _plain(c.tolerance)}
                           for c in self.checks]}


def _plain(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (frozenset, set)):
        return sorted(v)
    return v


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def check_worked_example(report: VerificationReport) -> None:
    sys = systems.pi1_system(worked_example_oracle())
    x = binary_config(WORKED_INPUT, Constant("0"))
    row = systems.orbit(sys, x, 1, len(WORKED_INPUT))[0]
    report.add("worked-example.single-step", row == WORKED_OUTPUT, row, WORKED_OUTPUT)


def check_cantor_identities(report: VerificationReport, depth: int = 12,
                            gap_depth: int = 8) -> None:
    sch = cantor.CantorScheme()
    ok_sum = ok_meas = ok_nest = True
    by_level: Dict[int, Fraction] = {n: Fraction(0) for n in range(depth + 1)}
    for w in sch.words(depth):
        lo, hi = sch.interval_of_word(w)
        by_level[len(w)] += hi - lo
        if sch.cantor_measure(w) != sch.limit / 2 ** len(w):
            ok_meas = False
        if w:
            plo, phi_ = sch.interval_of_word(w[:-1])
            if not (plo <= lo and hi <= phi_):
                ok_nest = False
            if w[-1] == "0" and lo != plo:
                ok_nest = False
            if w[-1] == "1" and hi != phi_:
                ok_nest = False
    for n in range(depth + 1):
        # words() yields every length <= depth once, so the per-level sums
        # are comparable against c_n directly
        if by_level[n] != sch.level_measure(n):
            ok_sum = False
    report.add("cantor.level-sums", ok_sum)
    report.add("cantor.restricted-measure", ok_meas)
    report.add("cantor.nesting-endpoints", ok_nest)
    ok_gap = True
    for n in range(1, gap_depth + 1):
        b = sch.contraction(n - 1)
        expect = Fraction(1, 2 ** (n - 1)) * (1 - b) * (
            sch.level_measure(n - 1))
        for w in sch.words(n - 1):
            if len(w) != n - 1:
                continue
            g = sch.gap(w, 0)
            if g.b - g.a != expect:
                ok_gap = False
    report.add("cantor.gap-lengths", ok_gap)


def check_conjugacy(report: VerificationReport, samples: int = 60,
                    seed: int = 11) -> None:
    sch = cantor.CantorScheme()
    sys = systems.pi1_system(worked_example_oracle())
    rng = random.Random(seed)
    tol = Fraction(1, 2 ** 20)
    worst = Fraction(0)
    for _ in range(samples):
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 14)))
        x = binary_config(pre, Constant("0"))
        y = cantor.phi_point(sch, x, 40).lower
        left = cantor.f_eval(sch, sys, y, 22)
        img = step_prefix(sys, x.materialize(sys.lookahead(30)), 30)
        right = cantor.phi_point(
            sch, binary_config(img.rstrip("0"), Constant("0")), 22)
        worst = max(worst, abs(left.midpoint() - right.midpoint()))
    report.add("conjugacy.pi1", worst <= tol, float(worst), float(tol))


def within_escape_band(f: Fraction, b: Fraction, samples: int) -> bool:
    """f <= b + 3 sqrt(b (1 - b) / samples), decided exactly: f <= b, or
    (f - b)^2 <= 9 b (1 - b) / samples."""
    return f <= b or (f - b) ** 2 * samples <= 9 * b * (1 - b)


def check_escape(report: VerificationReport, samples: int = 3000,
                 depth: int = 16, seed: int = 42) -> None:
    """n = 1..8 on one seed: the scheme resumes each run from the last,
    so the eight counts cost one 8-step run."""
    sch = cantor.CantorScheme()
    sys = systems.pi1_system(worked_example_oracle())
    for n in range(1, 9):
        r = cantor.escape_fraction(sch, sys, n, samples, seed, depth)
        p = float(r.bound)
        band = p + 3 * math.sqrt(p * (1 - p) / samples)
        report.add(f"escape.n={n}",
                   within_escape_band(r.fraction, r.bound, samples),
                   float(r.fraction), p, band - p)


def check_hierarchy(report: VerificationReport, max_n: int = 16) -> None:
    """attractor_meets on [01^n 0] against the raw table predicates."""
    tables = {
        "mixed": OracleTable.programmed_table([
            Entry(e=2, kind=QueryKind.EMPTY, time=3),
            Entry(e=5, kind=QueryKind.EMPTY, time=9),
            Entry(e=3, kind=QueryKind.ALL_BELOW, k=INF, time=2),
            Entry(e=4, kind=QueryKind.ALL_BELOW, k=2, time=2),
            Entry(e=2, kind=QueryKind.SOME_IN, k=0, k_hi=INF, time=4),
            Entry(e=6, kind=QueryKind.SOME_IN, k=1, k_hi=3, time=4),
        ]),
        "default-halt": OracleTable.programmed_table(
            [Entry(e=7, kind=QueryKind.EMPTY, time=None)], default="halt1"),
    }
    agree = total = 0
    for name, orc in tables.items():
        for n in range(1, max_n + 1):
            cyl = Cylinder("0" + "1" * n + "0")
            pi1 = analysis.attractor_meets(SystemId.PI1, cyl, orc)
            pi2 = analysis.attractor_meets(SystemId.PI2, cyl, orc)
            s2 = analysis.attractor_meets(SystemId.SIGMA2, cyl, orc)
            want1 = orc.empty_halt_time(n) is None            # co-halting
            want2 = orc.is_total(n)                           # totality
            wantS = orc.has_finite_domain(n)                  # finiteness
            total += 3
            agree += (pi1.value == ("yes" if want1 else "no"))
            agree += (pi2.value == ("yes" if want2 else "no"))
            agree += (s2.value == ("yes" if wantS else "no"))
    report.add("hierarchy.cylinder-vs-table", agree == total, agree, total)


def attractor_language(oracle: OracleTable, depth: int) -> frozenset:
    """Depth-``depth`` factors at position 0 of the erasure-limit set:
    the words whose cylinder meets the pi1 attractor."""
    words = (format(bits, "b").zfill(depth) for bits in range(1 << depth))
    return frozenset(w for w in words if analysis.attractor_meets(
        SystemId.PI1, Cylinder(w), oracle).value == analysis.YES)


def check_omega(report: VerificationReport, burn_in: int = 2000,
                horizon: int = 30000, depth: int = 4) -> None:
    orc = parity_oracle()
    sys = systems.pi1_system(orc)
    x = rich_configuration("all01")
    prof = analysis.omega_profile(sys, x, burn_in, horizon, depth)
    want = attractor_language(orc, depth)
    report.add("omega.pi1-depth4", prof.words == want,
               sorted(prof.words), sorted(want))


def check_statistical(report: VerificationReport, n: int = 100_000,
                      depth: int = 3, seed: int = 2024,
                      tol: Fraction = Fraction(1, 20)) -> None:
    """Total variation between the empirical and the limit measure at
    ``depth``, decided exactly: tv <= tol in Fractions."""
    orc = parity_oracle()
    sys = systems.pi1_system(orc)
    x = binary_config("", Sampler(("0", "1"), (1, 1), analysis.derived_seed(seed, 0)))
    emp = analysis.empirical_measure(sys, x, n, depth)
    limit = analysis.tilde_mu_table(orc, Fraction(1, 2), depth, 24)
    tv = sum(abs(emp.frequency(w) - est.midpoint())
             for w, est in limit.items()) / 2
    report.add("statistical.tv-depth3", tv <= tol, float(tv), float(tol))


def two_zone_configuration() -> Configuration:
    """Two S-zones; short totality-2 runs beyond the last separator keep
    being excised and recycled toward position 0, a length-3 run parks in
    the middle zone forever."""
    return Configuration(ALPHA_01S, "0110S01110S", Periodic("01100"))


def check_recurrence(report: VerificationReport, steps: int = 100_000,
                     burn_in: int = 10_000, window: int = 5) -> None:
    sys = systems.pi2_system(totality_oracle())
    x = two_zone_configuration()
    returns = late_bad = 0
    for t, w in enumerate(systems.orbit_windows(sys, x, 0, steps, window)):
        if w[:4] == "0110":
            returns += 1
        if t >= burn_in and w[:5] == "01110":
            late_bad += 1
    report.add("recurrence.returns-0110", returns >= 5, returns, ">= 5")
    report.add("recurrence.no-late-01110", late_bad == 0, late_bad, 0)


def bernoulli_product(seed: int) -> ProductConfiguration:
    return ProductConfiguration(
        Configuration(ALPHA_01S, "",
                      Sampler(("0", "1", "S"), (2, 2, 1),
                              analysis.derived_seed(seed, 1))),
        Configuration(ALPHA_AB, "",
                      Sampler(("a", "b"), (1, 1), analysis.derived_seed(seed, 2))))


def crossing_member() -> ProductConfiguration:
    """All-a second layer: every crossing gate is open, so the first S
    eats through the 1-runs ahead of it and completes a crossing at the
    end of each run."""
    return ProductConfiguration(
        Configuration(ALPHA_01S, "01S", Periodic("0110")),
        Configuration(ALPHA_AB, "", Constant("a")))


def check_wild(report: VerificationReport, t0: int = 10_000,
               t1: int = 20_000, cross_steps: int = 100_000,
               seed: int = 5) -> None:
    orc = OracleTable.programmed_table([])    # nothing ever halts
    sys = systems.wild_t_prime_system(orc)
    x = bernoulli_product(seed)
    zeros = total = 0
    for w in systems.orbit_windows(sys, x, t0, t1, 4):
        total += 1
        zeros += (w[0] == "0000")
    # at least 99 % of the windows blocked, decided exactly
    report.add("wild.blocked-crossings",
               Fraction(zeros, total) >= Fraction(99, 100),
               zeros / total, ">= 0.99")
    member = crossing_member()
    eng = ZoneEngine(SystemId.WILD_T_PRIME, orc, member.layer1,
                     member.layer2, horizon=cross_steps, window=4)
    for _ in range(cross_steps):
        eng.step()
    report.add("wild.completed-crossings", eng.completed_crossings >= 3,
               eng.completed_crossings, ">= 3")


def check_structural(report: VerificationReport, samples: int = 120,
                     seed: int = 3) -> None:
    rng = random.Random(seed)
    orc = worked_example_oracle()
    specs = [systems.shift_system(), systems.pi1_system(orc),
             systems.sigma2_system(orc)]
    ok_ext = ok_mod = ok_create = True
    for _ in range(samples):
        sys = rng.choice(specs)
        n = rng.randint(1, 10)
        w = "".join(rng.choice("01") for _ in range(sys.lookahead(n)))
        out = step_prefix(sys, w, n)
        if step_prefix(sys, w + rng.choice("01"), n) != out:
            ok_ext = False
        m = sys.modulus(len(w))
        other = w + "".join(rng.choice("01") for _ in range(4))
        if m and step_prefix(sys, other, m)[:m] != step_prefix(
                sys, w + "0000", m)[:m]:
            ok_mod = False
        if sys.id is SystemId.PI1:
            shifted = w[1:1 + n]
            if any(a == "1" and b != "1" for a, b in zip(out, shifted)):
                ok_create = False
    report.add("structural.extension-invariance", ok_ext)
    report.add("structural.modulus-contract", ok_mod)
    report.add("structural.pi1-no-creation", ok_create)
    # enclosure nesting
    sch = cantor.CantorScheme()
    sys = systems.pi1_system(orc)
    ok_nest = True
    for _ in range(20):
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
        x = binary_config(pre, Periodic("01"))
        prev = None
        for prec in (4, 8, 12, 20):
            enc = cantor.phi_point(sch, x, prec)
            if prev is not None and not prev.contains(enc):
                ok_nest = False
            prev = enc
        y = Fraction(rng.randrange(0, 2 ** 30), 2 ** 30)
        prev = None
        for prec in (4, 8, 14):
            enc = cantor.f_eval(sch, sys, y, prec)
            if prev is not None and not prev.contains(enc):
                ok_nest = False
            prev = enc
    report.add("structural.enclosure-nesting", ok_nest)


SUITES: Dict[str, Callable[[VerificationReport], None]] = {
    "worked-example": check_worked_example,
    "cantor-identities": check_cantor_identities,
    "conjugacy": check_conjugacy,
    "escape": check_escape,
    "hierarchy": check_hierarchy,
    "omega": check_omega,
    "statistical": check_statistical,
    "recurrence": check_recurrence,
    "wild": check_wild,
    "structural": check_structural,
}


def verify_suite(selection: str = "all") -> VerificationReport:
    report = VerificationReport()
    if selection == "all":
        for fn in SUITES.values():
            fn(report)
        return report
    fn = SUITES.get(selection)
    if fn is None:
        raise ArgumentRefused(f"unknown suite {selection!r}; "
                              f"choose from {', '.join(['all', *SUITES])}")
    fn(report)
    return report
