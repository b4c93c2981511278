"""Workbench for oracle-parameterized symbolic dynamics.

The package provides, in order of dependency:

- :mod:`symdyn.oracle` — Turing-machine numbering, bounded simulation,
  and programmed/enumerated halting-oracle tables;
- :mod:`symdyn.space` — configurations, cylinders, tails, the 1-run
  scanner, ``FrontierUnresolved`` and ``ArgumentRefused``;
- :mod:`symdyn.pi2` — the three-symbol zone automaton, its product
  variants, and a long-orbit engine;
- :mod:`symdyn.systems` — ``SystemId`` (one row of facts per system),
  the erasure maps and the dispatch of every system's orbit machinery;
- :mod:`symdyn.analysis` — attractor-membership predicates, visit
  profiles, empirical measures, and the exact limit measure;
- :mod:`symdyn.cantor` — the exact-rational fat-Cantor interval
  embedding, interval map, and escape experiment;
- :mod:`symdyn.verify` / :mod:`symdyn.cli` — verification suites and
  the command-line front end.
"""

from .oracle import (INF, Answer, Entry, HaltQuery, OracleTable, QueryKind,
                     TMSpec, decode_machine, simulate_tm, table_from_json,
                     table_to_json)
from .space import (ALPHA_01, ALPHA_01S, ALPHA_AB, Alphabet, ArgumentRefused,
                    Configuration, Constant, Cylinder, FrontierUnresolved,
                    Periodic, Sampler, Scheduled, Tail, binary_config,
                    config_from_json, config_to_json, parse_blocks,
                    rich_configuration)
from .pi2 import ProductConfiguration, ZoneEngine, gate_allows
from .systems import (EraseKind, SystemId, SystemSpec, erase_map_prefix, orbit,
                      orbit_window_counts, orbit_windows, pi1_system,
                      pi2_system, shift_system, sigma2_system, step_prefix,
                      wild_t_prime_system, wild_t_second_system)
from .analysis import (EmpiricalMeasure, MeetsVerdict, OmegaProfile,
                       TildeMuEstimate, attractor_meets, derived_seed,
                       empirical_measure, omega_profile, realm_visit_check,
                       tilde_mu, tilde_mu_table)
from .cantor import (CantorScheme, EscapeResult, GapLocation, GapMap, InGap,
                     InLevelInterval, PointEnclosure, escape_fraction,
                     export_intervals, f_eval, gap_map, locate, phi_point)
from .verify import (VerificationReport, bernoulli_product, crossing_member,
                     worked_example_oracle, parity_oracle, totality_oracle,
                     two_zone_configuration, verify_suite)

__version__ = "0.1.0"
