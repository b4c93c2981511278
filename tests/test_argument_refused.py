"""Every public entry point refuses an argument value it does not accept
with ``ArgumentRefused``, a ``ValueError``; the CLI maps it to exit 2.

One or more rows per refusing entry point of ``space``, ``pi2``,
``systems``, ``analysis``, ``cantor`` and ``verify``.  The rows under
``# library only`` pin checks that only the command-line front end used
to make; without them the library answers: a witness at t = 0 for
k = -1, a bare CSV header for depth -1, [0, 1] for precision -1.
"""

import io
import re
from fractions import Fraction

import pytest

from symdyn import ArgumentRefused
from symdyn.analysis import (EmpiricalMeasure, OmegaProfile, attractor_meets,
                             empirical_measure, omega_profile,
                             realm_visit_check, tilde_mu, tilde_mu_table)
from symdyn.cantor import (CantorScheme, GapLocation, escape_fraction,
                           export_intervals, f_eval, gap_map, locate,
                           phi_point)
from symdyn.oracle import OracleTable
from symdyn.pi2 import ZoneEngine
from symdyn.space import (ALPHA_01, ALPHA_01S, Alphabet, Configuration,
                          Constant, Cylinder, Periodic, Sampler, Scheduled,
                          binary_config, config_from_json)
from symdyn.systems import (EraseKind, SystemId, SystemSpec, block_fate,
                            erase_map_prefix, orbit, orbit_window_counts,
                            orbit_windows, pi1_system, pi2_system,
                            shift_system, step_prefix)
from symdyn.verify import totality_oracle, verify_suite, worked_example_oracle

WORKED = worked_example_oracle()
ENUMERATED = OracleTable.enumerated()
SHIFT = shift_system()
ZEROS = binary_config("", Constant("0"))
ONES = binary_config("", Constant("1"))
HALF = binary_config("0110", Sampler(("0", "1"), (1, 1), 3))
MEASURE = EmpiricalMeasure(2, {"01": 1, "10": 1}, 2)
PROFILE = OmegaProfile(2, frozenset({"01", "10"}), 0, 2)
ONE_ZONE = Configuration(ALPHA_01S, "01S", Constant("0"))


def _scheme():
    return CantorScheme()


_REFUSALS = {
    # space
    "Alphabet-empty": lambda: Alphabet(()),
    "Alphabet-repeated": lambda: Alphabet(("0", "0")),
    "Alphabet-long-symbol": lambda: Alphabet(("0", "10")),
    "Cylinder-position": lambda: Cylinder("0", -1),
    "Sampler-symbol": lambda: Sampler(("0", "10"), (1, 1), 0),
    "Sampler-weights": lambda: Sampler(("0", "1"), (1, -1), 0),
    "Sampler-seed": lambda: Sampler(("0", "1"), (1, 1), -1),
    "Configuration-prefix": lambda: binary_config("2", Constant("0")),
    "Configuration-tail-kind": lambda: binary_config("", object()),
    "Configuration-constant": lambda: binary_config("", Constant("S")),
    "Configuration-period": lambda: binary_config("", Periodic("")),
    "Configuration-sampler": lambda: Configuration(
        ALPHA_01, "", Sampler(("0", "1", "S"), (1, 1, 1), 0)),
    "Configuration-language": lambda: binary_config("", Scheduled("nosuch")),
    "Configuration-filler": lambda: binary_config("", Scheduled("all01", "S")),
    # unchecked, materialize(-1) returned the prefix less its last symbol
    "materialize-n": lambda: binary_config(
        "0110", Constant("0")).materialize(-1),
    "config_from_json-not-an-object": lambda: config_from_json("[]"),
    "config_from_json-tail-kind": lambda: config_from_json(
        '{"alphabet": ["0", "1"], "prefix": "", "tail": {"kind": "x"}}'),
    "config_from_json-key": lambda: config_from_json('{"tail": {}}'),
    # pi2: a negative window once built an engine whose window_word() was
    # '', and a negative horizon failed materializing a negative count
    "ZoneEngine-horizon": lambda: ZoneEngine(
        SystemId.PI2, totality_oracle(), ONE_ZONE, None, -100, 3),
    "ZoneEngine-window": lambda: ZoneEngine(
        SystemId.PI2, totality_oracle(), ONE_ZONE, None, 10, -30),
    # systems
    "SystemSpec-oracle": lambda: SystemSpec(SystemId.PI1),
    "step_prefix-n": lambda: step_prefix(SHIFT, "0101", -1),
    "step_prefix-symbol": lambda: step_prefix(SHIFT, "0201", 2),
    "erase_map_prefix-symbol": lambda: erase_map_prefix(
        EraseKind.PHI, WORKED, "0210"),
    "orbit_windows-t0": lambda: next(orbit_windows(SHIFT, ZEROS, -1, 2, 3)),
    "orbit_windows-layers": lambda: next(orbit_windows(
        pi2_system(WORKED), ZEROS, 0, 2, 3)),
    "orbit_window_counts-window": lambda: orbit_window_counts(
        SHIFT, ZEROS, 0, 2, -1),
    "orbit-window": lambda: orbit(SHIFT, ZEROS, 2, 0),
    # library only
    "block_fate-budget": lambda: block_fate(ENUMERATED, EraseKind.PHI, -1),
    # analysis
    "attractor_meets-position": lambda: attractor_meets(
        SystemId.PI1, Cylinder("01", 1), WORKED),
    "attractor_meets-shift": lambda: attractor_meets(
        SystemId.SHIFT, Cylinder("01"), WORKED),
    "OmegaProfile.project-deeper": lambda: PROFILE.project(3),
    "OmegaProfile.project-negative": lambda: PROFILE.project(-1),
    "EmpiricalMeasure.project-deeper": lambda: MEASURE.project(3),
    "EmpiricalMeasure.project-negative": lambda: MEASURE.project(-1),
    "omega_profile": lambda: omega_profile(SHIFT, ZEROS, 5, 5, 1),
    "empirical_measure": lambda: empirical_measure(SHIFT, ZEROS, 0, 1),
    "realm_visit_check-order": lambda: realm_visit_check(
        SHIFT, [ONES], Cylinder("0"), 1, 5, 2),
    "tilde_mu-p": lambda: tilde_mu(WORKED, Fraction(0), "01", 24),
    # library only
    "attractor_meets-budget": lambda: attractor_meets(
        SystemId.WILD_T_SECOND, Cylinder("01"), ENUMERATED, budget=-1),
    "realm_visit_check-k": lambda: realm_visit_check(
        SHIFT, [ONES], Cylinder("0"), -1, 0, 2),
    "realm_visit_check-start-no-seeds": lambda: realm_visit_check(
        SHIFT, [], Cylinder("0"), 1, -3, 2),
    "tilde_mu_table-depth": lambda: tilde_mu_table(
        WORKED, Fraction(1, 2), -1, 24),
    # cantor
    "CantorScheme-symbols": lambda: CantorScheme(Alphabet(("0",))),
    "CantorScheme-limit": lambda: CantorScheme(limit=Fraction(1)),
    "interval_of_word": lambda: _scheme().interval_of_word("2"),
    "gap-index": lambda: _scheme().gap("", 1),
    "locate-point": lambda: locate(_scheme(), Fraction(2), 3),
    "locate-depth": lambda: locate(_scheme(), Fraction(1, 3), -1),
    "f_eval-system": lambda: f_eval(_scheme(), pi2_system(WORKED),
                                    Fraction(1, 3), 4),
    "f_eval-scheme-alphabet": lambda: f_eval(
        CantorScheme(ALPHA_01S), pi1_system(WORKED), Fraction(1, 3), 4),
    "gap_map-system": lambda: gap_map(
        _scheme(), pi2_system(WORKED),
        GapLocation("", 0, Fraction(1, 3), Fraction(2, 3))),
    # a hand-made GapLocation must be the scheme's own gap(parent, index):
    # index -1 once picked the wrong children, index 1 raised IndexError,
    # and other endpoints were served as the gap (5/32, 7/32) of "0"
    "gap_map-index-negative": lambda: gap_map(
        _scheme(), SHIFT, GapLocation("0", -1, Fraction(1, 3), Fraction(2, 3))),
    "gap_map-index-past-last": lambda: gap_map(
        _scheme(), SHIFT, GapLocation("0", 1, Fraction(1, 3), Fraction(2, 3))),
    "gap_map-endpoints": lambda: gap_map(
        _scheme(), SHIFT, GapLocation("0", 0, Fraction(1, 3), Fraction(2, 3))),
    "gap_map-one-endpoint": lambda: gap_map(
        _scheme(), SHIFT, GapLocation("0", 0, Fraction(5, 32), Fraction(1, 4))),
    "gap_map-parent-symbol": lambda: gap_map(
        _scheme(), SHIFT, GapLocation("02", 0, Fraction(1, 3), Fraction(2, 3))),
    "escape_fraction-samples": lambda: escape_fraction(
        _scheme(), SHIFT, 1, 0, 0, 8),
    "escape_fraction-iterations": lambda: escape_fraction(
        _scheme(), SHIFT, -1, 3, 0, 8),
    "escape_fraction-depth": lambda: escape_fraction(
        _scheme(), SHIFT, 1, 3, 0, -1),
    "escape_fraction-seed": lambda: escape_fraction(
        _scheme(), SHIFT, 1, 3, -1, 8),
    # library only
    "f_eval-precision": lambda: f_eval(_scheme(), SHIFT, Fraction(1, 3), -1),
    "phi_point-precision": lambda: phi_point(_scheme(), HALF, -1),
    "phi_point-precision-constant-tail": lambda: phi_point(
        _scheme(), ZEROS, -1),
    # verify
    "verify_suite": lambda: verify_suite("nosuch"),
}


@pytest.mark.parametrize("call", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_entry_point_refuses_the_argument(call):
    with pytest.raises(ArgumentRefused) as exc:
        call()
    assert isinstance(exc.value, ValueError)


# a refusal names the caller's arguments, not those of the call it makes:
# a negative depth once read "need t0, window >= 0", and a word's p
# "... depth >= 0, got 0, 2"
_MESSAGES = {
    "empirical_measure-depth": (
        lambda: empirical_measure(SHIFT, ZEROS, 2, -1),
        "need start, depth >= 0, got 0, -1"),
    "empirical_measure-start": (
        lambda: empirical_measure(SHIFT, ZEROS, 2, 2, start=-1),
        "need start, depth >= 0, got -1, 2"),
    "omega_profile-burn_in": (
        lambda: omega_profile(SHIFT, ZEROS, -1, 2, 2),
        "need burn_in, depth >= 0, got -1, 2"),
    "omega_profile-depth": (
        lambda: omega_profile(SHIFT, ZEROS, 0, 2, -1),
        "need burn_in, depth >= 0, got 0, -1"),
    "tilde_mu-p": (lambda: tilde_mu(WORKED, Fraction(0), "01", 24),
                   "need 0 < p < 1, got 0"),
    "tilde_mu_table-p": (
        lambda: tilde_mu_table(WORKED, Fraction(3, 2), 2, 24),
        "need 0 < p < 1, got 3/2"),
    "tilde_mu_table-depth": (
        lambda: tilde_mu_table(WORKED, Fraction(1, 2), -1, 24),
        "need depth >= 0, got -1"),
}


@pytest.mark.parametrize("call, message", _MESSAGES.values(),
                         ids=_MESSAGES.keys())
def test_refusal_names_the_arguments(call, message):
    with pytest.raises(ArgumentRefused, match=f"^{re.escape(message)}$"):
        call()


def test_export_refuses_a_negative_depth_before_writing():
    out = io.StringIO()
    with pytest.raises(ArgumentRefused):
        export_intervals(_scheme(), -1, out)
    assert out.getvalue() == ""


@pytest.mark.parametrize("sys", [SHIFT, pi1_system(WORKED),
                                 pi2_system(WORKED)],
                         ids=["shift", "pi1", "pi2"])
def test_an_empty_orbit_range_reads_no_cells(sys):
    # t1 + window < 0, but the range [t0, t1) is empty: there is nothing
    # to refuse and no cell to materialize
    x = Configuration(sys.id.alphabet, "01", Constant("0"))
    assert list(orbit_windows(sys, x, 0, -10, 3)) == []
    assert orbit_window_counts(sys, x, 0, -10, 3) == {}
    assert orbit(sys, x, -10, 3) == []
