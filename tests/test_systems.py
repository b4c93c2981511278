"""Single-step maps, erasure maps, and orbit machinery (binary systems)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from symdyn.oracle import INF, Entry, OracleTable, QueryKind
from symdyn.pi2 import ProductConfiguration
from symdyn.space import (ALPHA_01S, ALPHA_AB, Configuration, Constant,
                          Periodic, Sampler, binary_config)
from symdyn.systems import (ERASED, KEPT, UNRESOLVED, EraseKind,
                            FrontierUnresolved, SystemId, erase_map_prefix,
                            orbit, orbit_windows, pi1_system, pi2_system,
                            shift_system, sigma2_system, step_prefix,
                            wild_t_prime_system, wild_t_second_system)

WORKED_IN = "1001011100101100"
WORKED_OUT = "0010000000011000"


def reference_orbit(sys, x, steps, window):
    """Orbit by repeated step_prefix on a shrinking buffer: the reference
    for every orbit engine (shared with test_block_rule.py and
    test_pi2.py)."""
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


def test_pi1_worked_example_step(worked):
    sys = pi1_system(worked)
    w = WORKED_IN + "0" * (sys.lookahead(16) - 16)
    assert step_prefix(sys, w, 16) == WORKED_OUT


def test_pi1_zero_fixed_point(worked):
    sys = pi1_system(worked)
    for n in (1, 5, 12):
        assert step_prefix(sys, "0" * sys.lookahead(n), n) == "0" * n


def test_shift_step():
    sys = shift_system()
    assert step_prefix(sys, "0110", 3) == "110"
    with pytest.raises(FrontierUnresolved):
        step_prefix(sys, "011", 3)


def test_sigma2_keeps_never_halting_block():
    # nothing halts on any input: blocks are never deleted, so T = shift
    orc = OracleTable.programmed_table([])
    sys = sigma2_system(orc)
    w = "100110" + "0" * sys.lookahead(6)
    assert step_prefix(sys, w, 6) == w[1:7]


def test_sigma2_deletes_matching_block():
    # block 1^2 preceded by a 0-gap of size 3: deleted when M_2 halts on
    # some input of size in [3, j1] within the j1-step budget
    orc = OracleTable.programmed_table(
        [Entry(e=2, kind=QueryKind.SOME_IN, k=3, k_hi=3, time=3)])
    sys = sigma2_system(orc)
    w = "1000110000000000000000000"
    out = step_prefix(sys, w + "0" * 30, 10)
    assert out == "0000000000"


def test_erase_phi_examples(worked):
    orc = OracleTable.programmed_table([Entry(e=1, kind=QueryKind.EMPTY, time=3)])
    word, status = erase_map_prefix(EraseKind.PHI, orc, "0010")
    assert word == "0000"
    assert status[2] == ERASED

    never = OracleTable.programmed_table([])
    w = "011010011100"
    word, status = erase_map_prefix(EraseKind.PHI, never, w)
    assert word == w
    assert all(s == KEPT for s in status)


def test_erase_phi_prime_example():
    orc = OracleTable.programmed_table(
        [Entry(e=2, kind=QueryKind.SOME_IN, k=2, k_hi=INF, time=5)])
    word, status = erase_map_prefix(EraseKind.PHI_PRIME, orc, "10011000")
    assert word == "10000000"
    assert status[3] == status[4] == ERASED


def test_erase_map_refuses_foreign_symbols(worked):
    # "0210" once mapped to "0200" and "0S1110a0" to "0S0000a0"
    for w in ("0210", "0S1110a0"):
        with pytest.raises(ValueError, match="does not read the symbol"):
            erase_map_prefix(EraseKind.PHI, worked, w)


def test_erase_open_run_unresolved():
    orc = OracleTable.programmed_table([Entry(e=2, kind=QueryKind.EMPTY, time=1)])
    word, status = erase_map_prefix(EraseKind.PHI, orc, "0011")
    assert status[2] == status[3] == UNRESOLVED


def test_orbit_shift_rotations():
    sys = shift_system()
    x = binary_config("", Periodic("011"))
    assert orbit(sys, x, 3, 3) == ["110", "101", "011"]


def test_orbit_worked_example_row(worked):
    sys = pi1_system(worked)
    x = binary_config(WORKED_IN, Constant("0"))
    assert orbit(sys, x, 1, 16) == [WORKED_OUT]


def test_orbit_all_halt_flushes_to_zero():
    orc = OracleTable.programmed_table([], default="halt1")
    sys = pi1_system(orc)
    x = binary_config("", Sampler(("0", "1"), (1, 1), 7))
    rows = orbit(sys, x, 10_000, 4)
    assert all(w == "0000" for w in rows[-1000:])


def test_orbit_matches_reference(worked, parity):
    rng = random.Random(13)
    for orc in (worked, parity):
        for sysf in (pi1_system, sigma2_system):
            sys = sysf(orc)
            for _ in range(25):
                pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 25)))
                x = binary_config(pre, Periodic(rng.choice(["0", "01", "0011"])))
                steps, window = rng.randint(1, 8), rng.randint(1, 10)
                assert (orbit(sys, x, steps, window)
                        == reference_orbit(sys, x, steps, window))


def test_pi1_no_creation(worked):
    sys = pi1_system(worked)
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 12)
        w = "".join(rng.choice("01") for _ in range(sys.lookahead(n)))
        out = step_prefix(sys, w, n)
        shifted = w[1:1 + n]
        assert all(b == "1" for a, b in zip(out, shifted) if a == "1")


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="01", min_size=0, max_size=30),
       st.integers(1, 10), st.data())
def test_extension_invariance_property(w, n, data):
    orc = OracleTable.programmed_table([
        Entry(e=1, kind=QueryKind.EMPTY, time=2),
        Entry(e=2, kind=QueryKind.SOME_IN, k=0, k_hi=INF, time=1),
    ])
    for sys in (shift_system(), pi1_system(orc), sigma2_system(orc)):
        word = w + "0" * max(0, sys.lookahead(n) - len(w))
        out = step_prefix(sys, word, n)
        ext = data.draw(st.text(alphabet="01", min_size=1, max_size=4))
        assert step_prefix(sys, word + ext, n) == out


def test_modulus_contract_exhaustive_small(worked):
    sys = pi1_system(worked)
    for bits in range(1 << 10):
        w = format(bits, "b").zfill(10)
        m = sys.modulus(10)
        a = step_prefix(sys, w + "0" * (sys.lookahead(m)), m)
        b = step_prefix(sys, w + "10" * (sys.lookahead(m)), m)
        assert a == b


def test_pi1_leak_erasure_takes_effect_later():
    # l == j1: the block is eligible exactly at the step where the budget
    # first covers the halting time; the erasure happens on later passes
    orc = OracleTable.programmed_table([Entry(e=2, kind=QueryKind.EMPTY, time=2)])
    sys = pi1_system(orc)
    x = binary_config("0110", Constant("0"))
    rows = orbit(sys, x, 4, 4)
    assert rows == reference_orbit(sys, x, 4, 4)
    assert rows[-1] == "0000"


# -- orbit input checks -----------------------------------------------------

LAYER1 = Configuration(ALPHA_01S, "01S01S", Constant("0"))
LAYER2 = Configuration(ALPHA_AB, "", Periodic("ab"))
BINARY = binary_config("0110", Constant("0"))


@pytest.mark.parametrize("make, x", [
    (wild_t_prime_system, LAYER1),
    (pi1_system, ProductConfiguration(BINARY, LAYER2)),
    (pi2_system, ProductConfiguration(LAYER1, LAYER2)),
    (lambda orc: shift_system(), ProductConfiguration(BINARY, LAYER2)),
    (pi1_system, LAYER1),
    (wild_t_second_system, ProductConfiguration(LAYER1, BINARY)),
    (wild_t_prime_system, ProductConfiguration(BINARY, LAYER2)),
], ids=["product-on-one-layer", "pi1-on-two-layers", "pi2-on-two-layers",
        "shift-on-two-layers", "pi1-on-S-cells", "layer2-not-over-ab",
        "layer1-not-over-01S"])
def test_orbit_windows_refuses_mismatched_configuration(totality, make, x):
    windows = orbit_windows(make(totality), x, 0, 3, 6)
    with pytest.raises(ValueError, match="layer"):
        next(windows)


@pytest.mark.parametrize("t0, window", [(-2, 4), (0, -1)])
def test_orbit_windows_refuses_negative_start_or_window(worked, t0, window):
    for sys in (shift_system(), pi1_system(worked)):
        with pytest.raises(ValueError, match=">= 0"):
            next(orbit_windows(sys, BINARY, t0, 3, window))
