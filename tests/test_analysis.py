"""Membership predicates, orbit statistics, and the exact limit measure."""

import json
import random
from fractions import Fraction

import pytest

from symdyn.analysis import (NO, UNKNOWN, YES, attractor_meets,
                             empirical_measure, omega_profile,
                             pushforward_average, realm_visit_check, tilde_mu,
                             tilde_mu_table, u_st_member, verdict_to_json)
from symdyn.oracle import INF, Entry, OracleTable, QueryKind
from symdyn.pi2 import ProductConfiguration
from symdyn.space import (ALPHA_01S, ALPHA_AB, ArgumentRefused,
                          Configuration, Constant, Cylinder, Periodic,
                          Sampler, binary_config, rich_configuration)
from symdyn.systems import (EraseKind, SystemId, pi1_system, shift_system,
                            sigma2_system, wild_t_second_system)
from symdyn.verify import totality_oracle

NEVER = OracleTable.programmed_table([])
ALL_HALT = OracleTable.programmed_table([], default="halt1")


def cyl(word):
    return Cylinder(word, 0)


# -- membership predicates --------------------------------------------------

def test_meets_examples():
    orc = OracleTable.programmed_table([])           # 2 unlisted: never halts
    assert attractor_meets(SystemId.PI1, cyl("0110"), orc)
    orc2 = OracleTable.programmed_table(
        [Entry(e=1, kind=QueryKind.EMPTY, time=8)])
    v = attractor_meets(SystemId.PI1, cyl("010"), orc2)
    assert v.value == NO and "M_1" in v.witness
    assert attractor_meets(SystemId.PI1, cyl("11"), orc2)
    assert attractor_meets(SystemId.PI2, cyl("0101"), NEVER).value == NO
    assert attractor_meets(SystemId.SIGMA2, cyl(""), NEVER)


@pytest.mark.parametrize("sysid, word, symbol", [
    (SystemId.PI1, "0S0", "S"),
    (SystemId.SIGMA2, "01a", "a"),
    (SystemId.PI2, "0a", "a"),
    (SystemId.WILD_T_PRIME, "0b1", "b"),
    (SystemId.WILD_T_SECOND, "0a", "a"),
])
def test_meets_says_no_outside_the_alphabet(sysid, word, symbol):
    # the cylinder of a word with a symbol the system does not read is empty
    v = attractor_meets(sysid, cyl(word), ALL_HALT)
    assert v.value == NO and v.witness == f"{sysid.value} has no symbol " \
                                          f"{symbol!r}"


def test_meets_position_zero_only():
    with pytest.raises(ValueError):
        attractor_meets(SystemId.PI1, Cylinder("01", 1), NEVER)


def test_meets_enumerated_unknown():
    orc = OracleTable.enumerated()
    v = attractor_meets(SystemId.PI1, cyl("0110"), orc, budget=4)
    assert v.value in (NO, UNKNOWN)


def test_meets_prefix_monotone():
    orc = OracleTable.programmed_table([
        Entry(e=1, kind=QueryKind.EMPTY, time=3),
        Entry(e=3, kind=QueryKind.ALL_BELOW, k=INF, time=2),
        Entry(e=2, kind=QueryKind.SOME_IN, k=1, k_hi=4, time=2),
    ])
    rng = random.Random(17)
    for sysid in (SystemId.PI1, SystemId.SIGMA2, SystemId.PI2,
                  SystemId.WILD_T_SECOND):
        for _ in range(60):
            w = "".join(rng.choice("01") for _ in range(rng.randint(1, 10)))
            if attractor_meets(sysid, cyl(w), orc):
                for i in range(len(w)):
                    assert attractor_meets(sysid, cyl(w[:i]), orc), (sysid, w)


def test_meets_single_block_equivalences():
    orc = OracleTable.programmed_table([
        Entry(e=1, kind=QueryKind.EMPTY, time=3),
        Entry(e=4, kind=QueryKind.EMPTY, time=9),
        Entry(e=2, kind=QueryKind.ALL_BELOW, k=INF, time=2),
        Entry(e=5, kind=QueryKind.ALL_BELOW, k=3, time=2),
        Entry(e=3, kind=QueryKind.SOME_IN, k=1, k_hi=4, time=2),
        Entry(e=6, kind=QueryKind.SOME_IN, k=0, k_hi=INF, time=1),
    ])
    for n in range(1, 13):
        c = cyl("0" + "1" * n + "0")
        assert bool(attractor_meets(SystemId.PI1, c, orc)) == \
            (orc.empty_halt_time(n) is None)
        assert bool(attractor_meets(SystemId.PI2, c, orc)) == orc.is_total(n)
        assert bool(attractor_meets(SystemId.SIGMA2, c, orc)) == \
            orc.has_finite_domain(n)


def test_verdict_json_shape():
    v = attractor_meets(SystemId.SIGMA2, cyl(""), NEVER)
    doc = json.loads(verdict_to_json("sigma2-attractor-meets[]_0", v))
    assert set(doc) == {"predicate", "verdict", "witness"}
    assert doc["verdict"] == YES


# -- omega profiles ---------------------------------------------------------

def test_omega_shift_periodic():
    prof = omega_profile(shift_system(), binary_config("", Periodic("01")),
                         burn_in=0, horizon=10, depth=2)
    assert prof.words == {"01", "10"}


def test_omega_all_halt_collapses():
    x = binary_config("", Sampler(("0", "1"), (1, 1), 3))
    prof = omega_profile(pi1_system(ALL_HALT), x, burn_in=500,
                         horizon=2000, depth=2)
    assert prof.words == {"00"}


def test_omega_projection_consistency():
    x = binary_config("", Sampler(("0", "1"), (1, 2), 8))
    p3 = omega_profile(shift_system(), x, 10, 300, 3)
    assert p3.project(2).words == {w[:2] for w in p3.words}
    with pytest.raises(ValueError):
        p3.project(4)
    with pytest.raises(ValueError):
        omega_profile(shift_system(), x, 5, 5, 1)


# -- empirical measures -----------------------------------------------------

def test_empirical_zero_fixed_point():
    m = empirical_measure(shift_system(), binary_config("", Constant("0")),
                          n=50, depth=1)
    assert m.frequency("0") == 1


def test_empirical_law_of_large_numbers():
    x = binary_config("", Sampler(("0", "1"), (1, 1), 5))
    m = empirical_measure(shift_system(), x, n=30_000, depth=1)
    assert abs(m.frequency("1") - Fraction(1, 2)) < Fraction(1, 100)
    # the window at time t is the materialized word itself: exact cross-check
    w = x.materialize(30_000)
    assert m.counts["1"] == w.count("1")


def test_empirical_never_oracle_matches_bernoulli():
    x = binary_config("", Sampler(("0", "1"), (1, 1), 5))
    m = empirical_measure(pi1_system(NEVER), x, n=20_000, depth=2)
    for w in ("00", "01", "10", "11"):
        assert abs(m.frequency(w) - Fraction(1, 4)) < Fraction(3, 200)


def test_empirical_projection_exact():
    x = binary_config("", Sampler(("0", "1"), (2, 1), 12))
    m3 = empirical_measure(shift_system(), x, n=2_000, depth=3)
    m2 = empirical_measure(shift_system(), x, n=2_000, depth=2)
    assert m3.project(2).counts == m2.counts
    assert sum(m3.counts.values()) == m3.total
    assert sum((m3.frequency(w) for w in m3.counts), Fraction(0)) == 1


def test_projection_refuses_a_negative_depth():
    # a negative depth would cut each word from the right: '011'[:-1]
    x = binary_config("", Periodic("0110"))
    m = empirical_measure(shift_system(), x, n=8, depth=3)
    assert m.counts == {"011": 2, "110": 2, "100": 2, "001": 2}
    prof = omega_profile(shift_system(), x, 0, 8, 3)
    for value in (m, prof):
        assert value.project(0).depth == 0
        with pytest.raises(ArgumentRefused):
            value.project(-1)


def test_empirical_csv(tmp_path):
    m = empirical_measure(shift_system(), binary_config("", Periodic("01")),
                          n=10, depth=1)
    path = tmp_path / "m.csv"
    m.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "word,count,frequency"
    assert lines[1] == "0,5,0.5"


def test_product_projection_cuts_each_layer():
    x = ProductConfiguration(Configuration(ALPHA_01S, "01S0", Periodic("01")),
                             Configuration(ALPHA_AB, "ab", Periodic("ab")))
    sys = wild_t_second_system(totality_oracle())
    m = empirical_measure(sys, x, n=50, depth=3)
    assert "01S|aba" in m.counts
    assert m.project(2).counts == {"01|ab": 3, "10|ba": 3, "00|ab": 22,
                                   "00|ba": 22}
    assert omega_profile(sys, x, 0, 50, 3).project(2).words == {
        "01|ab", "10|ba", "00|ab", "00|ba"}


# -- the exact limit measure ------------------------------------------------

def test_tilde_mu_identity_case():
    est = tilde_mu(NEVER, Fraction(1, 2), "01", truncation=6)
    assert est.lower == est.upper == Fraction(1, 4)


def test_tilde_mu_all_halt_is_point_mass():
    for L in (1, 3, 5):
        est = tilde_mu(ALL_HALT, Fraction(1, 2), "0" * L, truncation=6)
        assert est.lower == est.upper == 1
        est1 = tilde_mu(ALL_HALT, Fraction(1, 2), "1" + "0" * (L - 1), 6)
        assert est1.upper == 0


def test_tilde_mu_truncation_nested():
    # the value is exact, so the truncation changes nothing
    orc = OracleTable.programmed_table([Entry(e=1, kind=QueryKind.EMPTY, time=2)])
    values = set()
    for R in (0, 2, 4, 8):
        est = tilde_mu(orc, Fraction(1, 2), "010", truncation=R)
        assert est.lower == est.upper
        values.add(est.lower)
    assert len(values) == 1


def test_tilde_mu_table_is_a_probability():
    table = tilde_mu_table(parity := OracleTable.programmed_table(
        [Entry(e=1, kind=QueryKind.EMPTY, time=1),
         Entry(e=3, kind=QueryKind.EMPTY, time=3)]), Fraction(1, 2), 2, 4)
    assert sum((e.midpoint() for e in table.values()), Fraction(0)) == 1
    # projection: depth-2 masses aggregate to the depth-1 masses
    t1 = tilde_mu_table(parity, Fraction(1, 2), 1, 4)
    for c in "01":
        assert t1[c].midpoint() == sum(
            (table[c + d].midpoint() for d in "01"), Fraction(0))


def test_tilde_mu_matches_simulation():
    orc = OracleTable.programmed_table([Entry(e=1, kind=QueryKind.EMPTY, time=2)])
    x = binary_config("", Sampler(("0", "1"), (1, 1), 21))
    m = empirical_measure(pi1_system(orc), x, n=30_000, depth=3, start=300)
    for bits in range(8):
        w = format(bits, "b").zfill(3)
        est = tilde_mu(orc, Fraction(1, 2), w, truncation=8)
        assert abs(m.frequency(w) - est.midpoint()) < Fraction(1, 50), w


def test_tilde_mu_phi_prime_kind():
    # every machine halts on arbitrarily large inputs: all runs vanish
    est = tilde_mu(ALL_HALT, Fraction(1, 2), "11", truncation=6,
                   kind=EraseKind.PHI_PRIME)
    assert est.upper == 0
    # nothing ever halts: empty finite domains keep every run
    ident = tilde_mu(NEVER, Fraction(1, 2), "11", truncation=6,
                     kind=EraseKind.PHI_PRIME)
    assert ident.midpoint() == Fraction(1, 4)
    # M_2 halts on sizes 1..3 only: length-2 runs are erased exactly when
    # their preceding 0-gap is small, so some but not all "11" mass survives
    orc = OracleTable.programmed_table(
        [Entry(e=2, kind=QueryKind.SOME_IN, k=1, k_hi=3, time=2)])
    part = tilde_mu(orc, Fraction(1, 2), "11", truncation=8,
                    kind=EraseKind.PHI_PRIME)
    assert 0 < part.lower and part.upper < Fraction(1, 4)


def test_tilde_mu_needs_programmed_table():
    with pytest.raises(ValueError):
        tilde_mu(OracleTable.enumerated(), Fraction(1, 2), "0", 4)
    with pytest.raises(ValueError):
        tilde_mu(NEVER, Fraction(2, 1), "0", 4)


# -- realm visits and pushforward averages ----------------------------------

def test_realm_shift_immediate_hit():
    w = realm_visit_check(shift_system(),
                          [binary_config("", Periodic("01"))],
                          cyl("01"), k=2, n=0, m=3)
    assert w is not None and w.t == 0 and w.seed_index == 0


def test_realm_erased_block_never_recurs():
    orc = OracleTable.programmed_table([Entry(e=1, kind=QueryKind.EMPTY, time=1)])
    seeds = [binary_config("", Sampler(("0", "1"), (1, 1), s)) for s in (1, 2)]
    assert realm_visit_check(pi1_system(orc), seeds, cyl("010"),
                             k=3, n=50, m=2_000) is None
    # the same block recurs when nothing halts
    found = realm_visit_check(pi1_system(NEVER), seeds, cyl("010"),
                              k=3, n=50, m=2_000)
    assert found is not None


def test_realm_depth_weakening():
    # k=1 weakens [010]_0 to [0]_0, which 1^inf-free orbits hit at once
    orc = OracleTable.programmed_table([Entry(e=1, kind=QueryKind.EMPTY, time=1)])
    found = realm_visit_check(pi1_system(orc),
                              [binary_config("", Sampler(("0", "1"), (1, 1), 4))],
                              cyl("010"), k=1, n=10, m=40)
    assert found is not None


def test_pushforward_uniform_and_deterministic():
    def make(seed):
        return binary_config("", Sampler(("0", "1"), (1, 1), seed))
    m = pushforward_average(shift_system(), make, n=50, depth=2,
                            samples=40, master_seed=11)
    for w in ("00", "01", "10", "11"):
        assert abs(m.frequency(w) - Fraction(1, 4)) < Fraction(4, 100)
    again = pushforward_average(shift_system(), make, n=50, depth=2,
                                samples=40, master_seed=11)
    assert again.counts == m.counts


def test_pushforward_all_halt_concentrates():
    def make(seed):
        return binary_config("", Sampler(("0", "1"), (1, 1), seed))
    m = pushforward_average(pi1_system(ALL_HALT), make, n=400, depth=2,
                            samples=5, master_seed=3)
    assert m.frequency("00") > Fraction(9, 10)


# -- product-system cylinder membership -------------------------------------

def _product(w1, tail1, w2, tail2):
    from symdyn.space import ALPHA_01S
    return ProductConfiguration(Configuration(ALPHA_01S, w1, tail1),
                                Configuration(ALPHA_AB, w2, tail2))


def test_u_st_member_examples():
    x = _product("00S", Periodic("0"), "", Constant("a"))
    assert u_st_member(x, s=3, t=0, depth=50) is True
    y = _product("00S", Periodic("0"), "", Constant("b"))
    assert u_st_member(y, s=3, t=0, depth=50) is None
    z = _product("0S0", Periodic("0"), "", Constant("a"))
    assert u_st_member(z, s=3, t=0, depth=50) is False


def test_u_st_member_matches_brute_force():
    rng = random.Random(77)
    s, t, depth = 2, 5, 200
    for _ in range(40):
        w2 = "".join(rng.choice("ab") for _ in range(3 * depth))
        x = _product("0S", Periodic("0"), w2, Constant("b"))
        got = u_st_member(x, s, t, depth)
        brute = any(all(c == "a" for c in w2[m:m + m + s])
                    for m in range(t, depth))
        assert (got is True) == brute
