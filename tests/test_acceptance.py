"""Acceptance suite: the ten primary criteria at full scale.

Each test prints one [PASS]/[FAIL] line with the measured values and the
wall-clock budget, then asserts.  Run with ``pytest -s`` to see the lines
as they complete.
"""

import time
from fractions import Fraction
from unittest import mock

from symdyn import analysis, cantor, systems, verify
from symdyn.oracle import OracleTable
from symdyn.pi2 import ZoneEngine
from symdyn.space import (ALPHA_01S, Configuration, Periodic, Sampler,
                          binary_config)
from symdyn.systems import SystemId, step_prefix
from symdyn.verify import WORKED_INPUT, WORKED_OUTPUT, VerificationReport


def _finish(num, title, limit, t0, rep=None, ok=None, detail=""):
    elapsed = time.perf_counter() - t0
    if rep is not None:
        ok = rep.passed
        detail = "; ".join(
            f"{c.name}={c.measured}" for c in rep.checks
            if c.measured is not None) or detail
    in_time = elapsed <= limit
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"[{status}] criterion {num}: {title} "
          f"({elapsed:.2f}s of {limit}s) {detail}")
    assert ok, detail
    assert in_time, f"{elapsed:.2f}s exceeds the {limit}s budget"


def test_criterion_01_worked_example_regression():
    sys = systems.pi1_system(verify.worked_example_oracle())
    w = WORKED_INPUT + "0" * (sys.lookahead(16) - 16)
    step_prefix(sys, w, 16)                      # warm the oracle caches
    best = min(_timed_step(sys, w) for _ in range(5))
    t0 = time.perf_counter()
    out = step_prefix(sys, w, 16)
    _finish(1, "worked-example one-step regression", 0.001, t0,
            ok=(out == WORKED_OUTPUT and best < 0.001),
            detail=f"output={out}, best step {best * 1e6:.0f} us")


def _timed_step(sys, w):
    t0 = time.perf_counter()
    step_prefix(sys, w, 16)
    return time.perf_counter() - t0


def test_criterion_02_cantor_identities_depth_12():
    t0 = time.perf_counter()
    rep = VerificationReport()
    verify.check_cantor_identities(rep, depth=12)
    _finish(2, "exact Cantor identities to depth 12", 10, t0, rep=rep)


def test_criterion_03_conjugacy_200_configs():
    t0 = time.perf_counter()
    rep = VerificationReport()
    verify.check_conjugacy(rep, samples=200)
    _finish(3, "conjugacy |f(phi(x)) - phi(T(x))| <= 2^-20", 60, t0, rep=rep)


def test_criterion_04_escape_bound():
    t0 = time.perf_counter()
    rep = VerificationReport()
    verify.check_escape(rep, samples=100_000, depth=16)
    _finish(4, "escape fraction <= (3/4)^n + 3 sigma, n=1..8", 300, t0,
            rep=rep)


def test_escape_band_is_decided_exactly():
    # f <= b or (f - b)^2 <= 9 b (1 - b) / N, on Fractions
    band, half = verify.within_escape_band, Fraction(1, 2)
    assert band(Fraction(27, 36), half, 36)     # on the boundary: passes
    assert not band(Fraction(28, 36), half, 36)
    assert not band(Fraction(27, 36) + Fraction(1, 10 ** 30), half, 36)
    assert band(Fraction(0), half, 36) and band(half, half, 36)
    assert band(Fraction(1), Fraction(1), 1)    # b = 1 leaves no band
    assert not band(Fraction(1, 10 ** 6), Fraction(0), 10 ** 6)
    assert band(Fraction(1, 8), Fraction(3, 4) ** 8, 100)
    assert not band(Fraction(1, 8), Fraction(3, 4) ** 8, 10 ** 5)


def test_criterion_05_hierarchy_equivalences():
    t0 = time.perf_counter()
    rep = VerificationReport()
    verify.check_hierarchy(rep, max_n=32)
    _finish(5, "cylinder predicates vs oracle tables, n <= 32", 10, t0,
            rep=rep)


def test_criterion_06_omega_realization():
    t0 = time.perf_counter()
    rep = VerificationReport()
    verify.check_omega(rep, burn_in=10_000, horizon=100_000, depth=4)
    c = rep.checks[0]
    _finish(6, "depth-4 omega profile equals the enumerated language", 120,
            t0, ok=rep.passed, detail=f"{len(c.measured)} words")


def test_criterion_07_statistical_attractor():
    t0 = time.perf_counter()
    rep = VerificationReport()
    verify.check_statistical(rep, n=1_000_000)
    _finish(7, "TV(empirical, tilde-mu) at depth 3 <= 0.05", 300, t0,
            rep=rep)


def test_statistical_verdict_is_decided_exactly():
    # tv <= tol on Fractions: a tolerance 10^-30 below tv rounds to the
    # same float as tv, yet fails
    n, depth, seed = 2_000, 3, 2024
    orc = verify.parity_oracle()
    x = binary_config("", Sampler(("0", "1"), (1, 1),
                                  analysis.derived_seed(seed, 0)))
    emp = analysis.empirical_measure(systems.pi1_system(orc), x, n, depth)
    limit = analysis.tilde_mu_table(orc, Fraction(1, 2), depth, 24)
    tv = sum(abs(emp.frequency(w) - est.midpoint())
             for w, est in limit.items()) / 2
    below = tv - Fraction(1, 10 ** 30)
    assert float(below) == float(tv)
    for tol, status in ((tv, "pass"), (below, "fail")):
        rep = VerificationReport()
        verify.check_statistical(rep, n=n, depth=depth, seed=seed, tol=tol)
        c = rep.checks[0]
        assert (c.status, c.measured, c.expected) == (status, float(tv),
                                                      float(tv))


def test_wild_verdict_is_decided_exactly():
    # zeros / total >= 99/100 on Fractions: exactly 99 % blocked passes
    def windows(zeros, total):
        return lambda *args: iter([("0000", "aaaa")] * zeros
                                  + [("0100", "aaaa")] * (total - zeros))

    for zeros, total, status in ((99, 100, "pass"), (9_900, 10_000, "pass"),
                                 (98, 99, "fail"), (9_899, 10_000, "fail")):
        rep = VerificationReport()
        with mock.patch.object(verify.systems, "orbit_windows",
                               windows(zeros, total)):
            verify.check_wild(rep, cross_steps=0)
        c = rep.checks[0]
        assert (c.name, c.status, c.measured) == (
            "wild.blocked-crossings", status, zeros / total)


def test_criterion_08_recurrence_dichotomy():
    t0 = time.perf_counter()
    rep = VerificationReport()
    verify.check_recurrence(rep, steps=1_000_000, burn_in=100_000)
    _finish(8, "0110 recurs >= 5 times, 01110 never after burn-in", 600,
            t0, rep=rep)


def test_criterion_09_wild_contrast():
    t0 = time.perf_counter()
    rep = VerificationReport()
    verify.check_wild(rep, t0=100_000, t1=200_000, cross_steps=1_000_000)
    _finish(9, "generic orbits flatten; the member keeps crossing", 600,
            t0, rep=rep)


def test_criterion_10_structural_suites():
    t0 = time.perf_counter()
    orc = verify.worked_example_oracle()
    specs = [systems.shift_system(), systems.pi1_system(orc),
             systems.sigma2_system(orc)]
    ext_bad = mod_bad = checked = 0
    # exhaustive over every word that fits in a 16-cell prefix
    for sys in specs:
        n = 1
        while sys.lookahead(n) + 1 <= 16:
            la = sys.lookahead(n)
            m = sys.modulus(la)
            for bits in range(1 << la):
                w = format(bits, "b").zfill(la)
                out = step_prefix(sys, w, n)
                checked += 1
                if (step_prefix(sys, w + "0", n) != out
                        or step_prefix(sys, w + "1", n) != out):
                    ext_bad += 1
                if m and step_prefix(sys, w + "0" * 8, m)[:m] != \
                        step_prefix(sys, w + "10" * 4, m)[:m]:
                    mod_bad += 1
            n += 1
    ok = ext_bad == 0 and mod_bad == 0

    # S positions: the first S advances strictly, later ones never move left
    eng = ZoneEngine(SystemId.PI2, verify.totality_oracle(),
                     Configuration(ALPHA_01S, "01S0110S011", Periodic("0")),
                     None, horizon=2_000, window=4)
    prev_first, prev_pos = -1, None
    for _ in range(1_000):
        first = len(eng.u0)
        pos = eng.s_positions()
        ok &= first > prev_first
        ok &= prev_pos is None or all(p >= q for p, q in zip(pos, prev_pos))
        prev_first, prev_pos = first, pos
        eng.step()

    # tilde-mu is exact: lower == upper, the same value at every truncation
    values = set()
    for R in (4, 8, 16):
        est = analysis.tilde_mu(verify.parity_oracle(), Fraction(1, 2),
                                "010", R)
        ok &= est.lower == est.upper
        values.add(est.lower)
    ok &= len(values) == 1

    rep = VerificationReport()
    verify.check_structural(rep)      # sampled no-creation + phi/f nesting
    ok &= rep.passed
    _finish(10, "structural suites (exhaustive + nesting)", 300, t0, ok=ok,
            detail=f"{checked} words exhaustively, ext_bad={ext_bad}, "
                   f"mod_bad={mod_bad}")
