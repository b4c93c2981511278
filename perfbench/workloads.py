"""The four benchmark workloads: inputs, one pass of tasks, and output checks.

Each workload is a function ``build(seed, workdir)`` that does all set-up
(oracle tables, configurations, the Cantor scheme, oracle JSON files and
the query list) and returns a :class:`Workload`.  A pass runs every task
once, in order; each task returns a small JSON-able record that is
compared with the committed golden (at the default seed, and at every
seed for tasks whose input does not depend on it) and checked against
invariants that hold for any seed.

Seeds: workload seed 0 reproduces the acceptance-criteria seeds (42 for
the escape experiment, 2024 for the statistical run, 5 for the wild
contrast).  The long runs that carry the known superlinear costs stay on
those inputs at every seed, so the defects are always measured and the
figures stay comparable; the seed draws everything else (the escape
samples, the sigma2 table and input, the cheap queries of every stream).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from symdyn import analysis, cantor, cli, oracle, space, systems, verify
from symdyn.oracle import INF, Entry, HaltQuery, OracleTable, QueryKind
from symdyn.pi2 import ZoneEngine
from symdyn.space import Sampler, binary_config
from symdyn.systems import SystemId


@dataclass
class Task:
    name: str
    run: Callable[[], dict]
    query: bool = False          # one interactive query of the closed loop
    anchored: bool = False       # input independent of the workload seed
    check: Optional[Callable[[dict], Optional[str]]] = None


@dataclass
class Workload:
    name: str
    tasks: List[Task]
    spans: tuple                 # layer spans that must fire in a traced pass
    warm: Optional[Callable[[], None]] = None


GOLDENS = Path(__file__).with_name("goldens.json")


def load_goldens() -> dict:
    """Golden records at the default seed, plus the exact depth-3 tilde-mu
    table of the parity oracle at p = 1/2 (independent of every seed)."""
    return json.loads(GOLDENS.read_text())


def seeded(base: int, seed: int) -> int:
    """``base`` at the default seed 0, otherwise a seed derived from both."""
    if seed == 0:
        return base
    return int(np.random.SeedSequence([base, seed]).generate_state(1)[0])


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _windows_digest(windows) -> str:
    return digest(w if isinstance(w, str) else "|".join(w) for w in windows)


def _write_oracles(workdir: Path, tables: Dict[str, OracleTable]):
    paths = {}
    for name, table in tables.items():
        path = workdir / f"{name}.json"
        path.write_text(oracle.table_to_json(table))
        paths[name] = str(path)
    return paths


# ---------------------------------------------------------------------------
# Closed-loop interactive queries through the command-line front end
# ---------------------------------------------------------------------------

def cli_query(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    text = buf.getvalue()
    return {"rc": rc, "out": digest([text]), "_text": text}


def _query_task(i: int, kind: str, argv, check=None) -> Task:
    def run():
        return cli_query(argv)

    def full_check(rec):
        if rec["rc"] != 0:
            return f"exit code {rec['rc']}"
        return check(rec["_text"]) if check else None

    return Task(f"q{i:04d}.{kind}", run, query=True, check=full_check)


def _json_check(text):
    json.loads(text)
    return None


def _tilde_mu_query_check(text):
    doc = json.loads(text)
    for e in doc["entries"].values():
        lo, hi = Fraction(e["lower"]), Fraction(e["upper"])
        if not 0 <= lo <= hi <= 1:
            return f"tilde-mu value outside [0, 1]: {e}"
    return None


def _orbit_check(window):
    def check(text):
        rows = text.splitlines()
        if len(rows) != 2 or any(len(r.split(",")[1]) != window for r in rows):
            return "orbit rows malformed"
        return None
    return check


def _stream(rng: random.Random, count: int, cheap, heavy, heavy_every: int):
    """``count`` queries (closed loop, one client): in every
    ``heavy_every``-th slot the k-th heavy query, otherwise the cheap kinds
    in turn, each with arguments drawn by ``rng``.

    The mix of kinds and the heavy queries do not depend on the seed, so
    the latency percentiles they set compare across seeds.
    """
    tasks = []
    for i in range(count):
        if i % heavy_every == heavy_every - 1:
            kind, argv, check = heavy(i // heavy_every)
        else:
            kind, argv, check = cheap[i % len(cheap)](rng)
        tasks.append(_query_task(i, kind, argv, check))
    return tasks


def _interleave(tasks, queries):
    """Spread the query stream in equal chunks around the long tasks, so
    query latencies are sampled across the whole pass."""
    out, chunks = [], len(tasks) + 1
    for i in range(chunks):
        out += queries[i * len(queries) // chunks:(i + 1) * len(queries) // chunks]
        if i < len(tasks):
            out.append(tasks[i])
    return out


def _bits(rng, n, alphabet="01"):
    return "".join(rng.choice(alphabet) for _ in range(n))


def _point(rng):
    den = rng.randrange(2, 1 << 20)
    return f"{rng.randrange(0, den + 1)}/{den}"


# ---------------------------------------------------------------------------
# escape: the criterion-04 hot loop in the exact Cantor layer
# ---------------------------------------------------------------------------

ESCAPE_DEPTH = 16
ESCAPE_SAMPLES = 2000
ESCAPE_ITERATIONS = range(1, 9)


def build_escape(seed: int, workdir: Path) -> Workload:
    worked = verify.worked_example_oracle()
    sch = cantor.CantorScheme()
    sys_ = systems.pi1_system(worked)
    master = seeded(42, seed)
    paths = _write_oracles(workdir, {"worked": worked})
    counts: Dict[int, int] = {}

    def task(n):
        def run():
            r = cantor.escape_fraction(sch, sys_, n, ESCAPE_SAMPLES, master,
                                       ESCAPE_DEPTH)
            counts[n] = r.escaped
            return {"escaped": r.escaped, "samples": r.samples}

        def check(rec):
            p = 0.75 ** n
            band = p + 3 * math.sqrt(p * (1 - p) / ESCAPE_SAMPLES)
            if rec["escaped"] / ESCAPE_SAMPLES > band:
                return f"escape fraction over (3/4)^{n} + 3 sigma"
            if n - 1 in counts and rec["escaped"] > counts[n - 1]:
                return "escaped count increased with n"
            return None
        return Task(f"escape.n={n}", run, check=check)

    # Half of [0, 1] lies in gaps, where f_eval stops early, so uniform
    # points would put the median latency between two cost classes.  The
    # query points are instead endpoints of depth-12 intervals (in the
    # Cantor set, the full-depth path) and midpoints of gaps at depth < 8,
    # two of the first kind to one of the second.  A separate scheme keeps
    # the escape tasks' endpoint memo cold.
    points = cantor.CantorScheme()

    def in_cantor_set(rng):
        lo, hi = points.interval_of_word(_bits(rng, 12))
        return lo if rng.random() < 0.5 else hi

    def in_gap(rng):
        g = points.gap(_bits(rng, rng.randrange(8)), 0)
        return (g.a + g.b) / 2

    def f_eval(system, where):
        def query(rng):
            y = where(rng)
            return ("interval-eval",
                    ["interval", "eval", "--system", system,
                     "--oracle", paths["worked"],
                     "--point", f"{y.numerator}/{y.denominator}",
                     "--precision", "20"], _json_check)
        return query

    def escape_query(k):
        return ("interval-escape",
                ["interval", "escape", "--system", "pi1",
                 "--oracle", paths["worked"], "--iterations", "4",
                 "--samples", "40", "--depth", str(ESCAPE_DEPTH),
                 "--seed", str(k)], _json_check)

    rng = random.Random(seeded(42, seed))
    tasks = [task(n) for n in ESCAPE_ITERATIONS]
    queries = _stream(rng, 200, [f_eval("pi1", in_cantor_set),
                                 f_eval("sigma2", in_cantor_set),
                                 f_eval("pi1", in_gap)], escape_query, 33)
    return Workload(
        "escape", _interleave(tasks, queries),
        spans=("cantor.locate", "cantor.gap_map", "cantor.gapmap_eval",
               "cantor.escape_fraction", "cantor.interval_of_word",
               "cantor.f_eval", "systems.step_prefix", "space.parse_blocks",
               "oracle.answer", "cli.main"),
        warm=lambda: cantor.escape_fraction(sch, sys_, 8, 20, master,
                                            ESCAPE_DEPTH))


# ---------------------------------------------------------------------------
# erasure: block-erasure long orbits with window statistics
# ---------------------------------------------------------------------------

ERASURE_N = 1_000_000
SIGMA2_N = 50_000


def _sigma2_table(rng: random.Random) -> OracleTable:
    """Finite-domain facts (SOME_IN with finite and unbounded ranges)."""
    entries = []
    for e in range(1, 24):
        if rng.random() < 0.6:
            lo = rng.randrange(0, 4)
            hi = INF if rng.random() < 0.3 else lo + rng.randrange(0, 6)
            entries.append(Entry(e=e, kind=QueryKind.SOME_IN, k=lo, k_hi=hi,
                                 time=rng.randrange(1, 40)))
    return OracleTable.programmed_table(entries)


def build_erasure(seed: int, workdir: Path) -> Workload:
    parity = verify.parity_oracle()
    pi1 = systems.pi1_system(parity)
    # criterion 07's input; seed 2024 makes _materialize_closed double the
    # word three times, a known cost kept in the measured run on purpose
    x = binary_config("", Sampler(("0", "1"), (1, 1),
                                  analysis.derived_seed(2024, 0)))
    rich = space.rich_configuration("all01")
    language = sorted(verify.attractor_language(parity, 4))
    rng = random.Random(seeded(2024, seed))
    sigma2 = systems.sigma2_system(_sigma2_table(rng))
    y = binary_config("", Sampler(("0", "1"), (1, 1), rng.randrange(1 << 30)))
    limit = {w: Fraction(v) for w, v in load_goldens()["tilde_mu_parity_d3"].items()}
    paths = _write_oracles(workdir, {"parity": parity,
                                     "sigma2": sigma2.oracle})

    def measure_check(total, depth):
        def check(rec):
            if sum(rec["counts"].values()) != total:
                return "window counts do not sum to n"
            if any(len(w) != depth for w in rec["counts"]):
                return "window of the wrong depth"
            return None
        return check

    def pi1_measure():
        m = analysis.empirical_measure(pi1, x, ERASURE_N, 3)
        return {"counts": dict(sorted(m.counts.items()))}

    def pi1_check(rec):
        bad = measure_check(ERASURE_N, 3)(rec)
        if bad:
            return bad
        tv = sum(abs(Fraction(rec["counts"].get(w, 0), ERASURE_N) - v)
                 for w, v in limit.items()) / 2
        if tv > Fraction(1, 20):
            return f"total variation {float(tv):.4f} to tilde-mu over 0.05"
        return None

    def omega():
        prof = analysis.omega_profile(pi1, rich, 10_000, 100_000, 4)
        return {"words": sorted(prof.words)}

    def sigma2_measure():
        m = analysis.empirical_measure(sigma2, y, SIGMA2_N, 3)
        return {"counts": dict(sorted(m.counts.items()))}

    def orbit_query(system, table):
        return lambda rng: ("orbit", ["orbit", "--system", system,
                                      "--oracle", paths[table],
                                      "--init", f"prefix:{_bits(rng, 16)},tail:0",
                                      "--steps", "1", "--window", "16"],
                            _orbit_check(16))

    def omega_query(k):
        return ("omega", ["omega", "--system", "pi1",
                          "--oracle", paths["parity"],
                          "--init", "tail:rich=all01",
                          "--burn-in", str(500 + 100 * (k % 5)),
                          "--horizon", "5000", "--depth", "4"],
                _json_check)

    tasks = [
        Task("pi1_measure", pi1_measure, anchored=True, check=pi1_check),
        Task("omega", omega, anchored=True,
             check=lambda rec: None if rec["words"] == language
             else "omega words differ from the attractor language"),
        Task("sigma2_measure", sigma2_measure,
             check=measure_check(SIGMA2_N, 3)),
    ]
    queries = _stream(rng, 200, [orbit_query("pi1", "parity"),
                                 orbit_query("sigma2", "sigma2")],
                      omega_query, 33)
    return Workload(
        "erasure", _interleave(tasks, queries),
        spans=("analysis.empirical_measure", "analysis.omega_profile",
               "systems.orbit_windows", "space.generate.sampler",
               "space.generate.scheduled", "oracle.predicate.empty_halt_time",
               "oracle.answer", "cli.main"))


# ---------------------------------------------------------------------------
# zone: the three-symbol long-orbit engine, push- and excision-dominated
# ---------------------------------------------------------------------------

RECURRENCE_STEPS = 100_000
RECURRENCE_BURN_IN = 10_000
CROSSING_STEPS = 100_000
DENSE_PI2_STEPS = 2_500
DENSE_GATED_STEPS = 1_500
DENSE_INSERT_STEPS = 2_000


def build_zone(seed: int, workdir: Path) -> Workload:
    totality = verify.totality_oracle()
    never = OracleTable.programmed_table([])
    two_zone = verify.two_zone_configuration()
    member = verify.crossing_member()
    # criterion 09's product input (seed 5): dense S, so excision and
    # insertion dominate and the engine's superlinear costs show
    product = verify.bernoulli_product(5)
    paths = _write_oracles(workdir, {"totality": totality})

    def recurrence():
        returns = late_bad = 0
        seen = []
        sys_ = systems.pi2_system(totality)
        for t, w in enumerate(systems.orbit_windows(sys_, two_zone, 0,
                                                    RECURRENCE_STEPS, 5)):
            seen.append(w)
            returns += w[:4] == "0110"
            late_bad += t >= RECURRENCE_BURN_IN and w == "01110"
        return {"returns": returns, "late_bad": late_bad,
                "windows": _windows_digest(seen)}

    def crossing():
        eng = ZoneEngine(SystemId.WILD_T_PRIME, never, member.layer1,
                         member.layer2, horizon=CROSSING_STEPS, window=4)
        seen = []
        for _ in range(CROSSING_STEPS):
            eng.step()
            seen.append(eng.window_word())
        return {"crossings": eng.completed_crossings,
                "windows": _windows_digest(seen)}

    def orbit_task(make_sys, x, steps, window):
        def run():
            seen = list(systems.orbit_windows(make_sys(totality), x, 0,
                                              steps, window))
            return {"windows": _windows_digest(seen), "count": len(seen)}
        return run

    def count_check(steps):
        return lambda rec: (None if rec["count"] == steps
                            else "orbit ended early")

    def pi2_query(rng):
        word = _bits(rng, 12, "01S")
        return ("orbit-pi2", ["orbit", "--system", "pi2",
                              "--oracle", paths["totality"],
                              "--init", f"prefix:{word},tail:0",
                              "--steps", "1", "--window", "16"],
                _orbit_check(16))

    def product_query(system):
        return lambda rng: (
            "orbit-product",
            ["orbit", "--system", system, "--oracle", paths["totality"],
             "--init", f"prefix:{_bits(rng, 12, '01S')},tail:0",
             "--init2", f"prefix:{_bits(rng, 24, 'ab')},tail:a",
             "--steps", "1", "--window", "16"], None)

    def long_query(k):
        return ("orbit-pi2-long",
                ["orbit", "--system", "pi2", "--oracle", paths["totality"],
                 "--init", "prefix:0110S01110S,tail:period=01100",
                 "--start", str(k), "--steps", "3000", "--window", "5"], None)

    tasks = [
        Task("recurrence", recurrence, anchored=True,
             check=lambda rec: (None if rec["returns"] >= 5
                                and rec["late_bad"] == 0
                                else "recurrence dichotomy violated")),
        Task("crossing", crossing, anchored=True,
             check=lambda rec: (None if rec["crossings"] >= 3
                                else "member stopped crossing")),
        Task("dense_pi2", orbit_task(systems.pi2_system, product.layer1,
                                     DENSE_PI2_STEPS, 8),
             anchored=True, check=count_check(DENSE_PI2_STEPS)),
        Task("dense_gated", orbit_task(systems.wild_t_prime_system, product,
                                       DENSE_GATED_STEPS, 4),
             anchored=True, check=count_check(DENSE_GATED_STEPS)),
        Task("dense_insert", orbit_task(systems.wild_t_second_system,
                                        product, DENSE_INSERT_STEPS, 4),
             anchored=True, check=count_check(DENSE_INSERT_STEPS)),
    ]
    rng = random.Random(seeded(5, seed))
    queries = _stream(rng, 200, [pi2_query, product_query("wild_t_prime"),
                                 product_query("wild_t_second")],
                      long_query, 33)
    return Workload(
        "zone", _interleave(tasks, queries),
        spans=("pi2.orbit_windows", "pi2.engine.step",
               "pi2.engine.window_word", "systems.orbit_windows",
               "space.generate.sampler", "space.generate.periodic",
               "oracle.predicate.all_below_time", "cli.main"))


# ---------------------------------------------------------------------------
# exact: many short exact calls plus batch sweeps
# ---------------------------------------------------------------------------

SWEEP_MAX_WORD = 14     # words with lookahead(n) + 1 <= this length
PI2_SWEEP_N = 4         # pi2 words of length lookahead(n) = 2n + 2
ENUM_MACHINES = 400
CANTOR_TREE_DEPTH = 12


def _hierarchy_table() -> OracleTable:
    return OracleTable.programmed_table([
        Entry(e=2, kind=QueryKind.EMPTY, time=3),
        Entry(e=5, kind=QueryKind.EMPTY, time=9),
        Entry(e=3, kind=QueryKind.ALL_BELOW, k=INF, time=2),
        Entry(e=4, kind=QueryKind.ALL_BELOW, k=2, time=2),
        Entry(e=2, kind=QueryKind.SOME_IN, k=0, k_hi=INF, time=4),
        Entry(e=6, kind=QueryKind.SOME_IN, k=1, k_hi=3, time=4),
    ])


def build_exact(seed: int, workdir: Path) -> Workload:
    worked = verify.worked_example_oracle()
    totality = verify.totality_oracle()
    paths = _write_oracles(workdir, {"worked": worked,
                                     "parity": verify.parity_oracle(),
                                     "totality": totality,
                                     "mixed": _hierarchy_table()})
    specs = [systems.shift_system(), systems.pi1_system(worked),
             systems.sigma2_system(worked)]
    enumerated = OracleTable.enumerated()

    def sweep():
        checked = ext_bad = mod_bad = 0
        for sys_ in specs:
            n = 1
            while sys_.lookahead(n) + 1 <= SWEEP_MAX_WORD:
                la = sys_.lookahead(n)
                m = sys_.modulus(la)
                for bits in range(1 << la):
                    w = format(bits, "b").zfill(la)
                    out = systems.step_prefix(sys_, w, n)
                    checked += 1
                    if (systems.step_prefix(sys_, w + "0", n) != out
                            or systems.step_prefix(sys_, w + "1", n) != out):
                        ext_bad += 1
                    if m and systems.step_prefix(sys_, w + "0" * 8, m)[:m] != \
                            systems.step_prefix(sys_, w + "10" * 4, m)[:m]:
                        mod_bad += 1
                n += 1
        return {"checked": checked, "ext_bad": ext_bad, "mod_bad": mod_bad}

    def pi2_sweep():
        """Images of every {0,1,S} word of length lookahead(n), n <= PI2_SWEEP_N.

        Some of these words are unresolved (for example an S in the last
        cell); they are recorded as "?" and pinned by the golden record.
        """
        sys_ = systems.pi2_system(totality)
        images = []
        for n in range(1, PI2_SWEEP_N + 1):
            for word in itertools.product("01S", repeat=sys_.lookahead(n)):
                try:
                    images.append(systems.step_prefix(sys_, "".join(word), n))
                except systems.FrontierUnresolved:
                    images.append("?")
        return {"words": len(images), "unresolved": images.count("?"),
                "images": digest(images)}

    def enumerated_sweep():
        sys_ = systems.pi1_system(enumerated)
        answers = []
        monotone = True
        for e in range(ENUM_MACHINES):
            prev = False
            for b in (2, 4, 8, 16, 32):
                yes = enumerated.answer(
                    e, HaltQuery(QueryKind.EMPTY, b)) is oracle.Answer.YES
                monotone &= yes or not prev
                prev = yes
                answers.append("1" if yes else "0")
            for q in (HaltQuery(QueryKind.ALL_BELOW, 8, k=4),
                      HaltQuery(QueryKind.SOME_IN, 8, k=1, k_hi=4)):
                answers.append(enumerated.answer(e, q).value[0])
        images = [systems.step_prefix(sys_, format(bits, "b").zfill(la),
                                      la // 2 - 1)
                  for la in range(4, 13, 2) for bits in range(1 << la)]
        return {"answers": digest(answers), "images": digest(images),
                "monotone": monotone}

    def cantor_tree():
        sch = cantor.CantorScheme()
        buf = io.StringIO()
        rows = cantor.export_intervals(sch, CANTOR_TREE_DEPTH, buf)
        by_level: Dict[int, Fraction] = {}
        for w in sch.words(CANTOR_TREE_DEPTH):
            lo, hi = sch.interval_of_word(w)
            by_level[len(w)] = by_level.get(len(w), Fraction(0)) + hi - lo
        sums_ok = all(v == sch.level_measure(n) for n, v in by_level.items())
        return {"rows": rows, "csv": digest([buf.getvalue()]),
                "level_sums": sums_ok}

    def table():
        t = analysis.tilde_mu_table(worked, Fraction(1, 2), 3, 24)
        return {"table": {w: f"{e.lower.numerator}/{e.lower.denominator}"
                          for w, e in sorted(t.items())},
                "exact": all(e.lower == e.upper for e in t.values())}

    def table_check(rec):
        total = sum(Fraction(v) for v in rec["table"].values())
        if total != 1 or not rec["exact"]:
            return f"tilde-mu table sums to {total}, not exactly 1"
        return None

    def meets(system, table_name):
        return lambda rng: ("meets", ["meets", "--system", system,
                                      "--oracle", paths[table_name],
                                      "--cylinder",
                                      _bits(rng, rng.randrange(4, 13))],
                            _json_check)

    def orbit_query(system):
        return lambda rng: ("orbit", ["orbit", "--system", system,
                                      "--oracle", paths["worked"],
                                      "--init", f"prefix:{_bits(rng, 16)},tail:0",
                                      "--steps", "1", "--window", "16"],
                            _orbit_check(16))

    def interval_eval(rng):
        return ("interval-eval", ["interval", "eval", "--system", "pi1",
                                  "--oracle", paths["worked"],
                                  "--point", _point(rng)], _json_check)

    def tilde_mu_query(k):
        return ("tilde-mu", ["tilde-mu", "--oracle", paths["worked"],
                             "--word", format(k % 16, "04b")],
                _tilde_mu_query_check)

    rng = random.Random(seeded(3, seed))
    queries = _stream(rng, 330, [meets("pi1", "worked"), meets("pi1", "parity"),
                                 meets("sigma2", "mixed"),
                                 meets("pi2", "totality"), orbit_query("pi1"),
                                 orbit_query("sigma2"), interval_eval],
                      tilde_mu_query, 33)
    tasks = [
        Task("sweep", sweep, anchored=True,
             check=lambda rec: (None if rec["ext_bad"] == rec["mod_bad"] == 0
                                else "extension or modulus violation")),
        Task("pi2_sweep", pi2_sweep, anchored=True),
        Task("enumerated", enumerated_sweep, anchored=True,
             check=lambda rec: (None if rec["monotone"]
                                else "answer not monotone in the budget")),
        Task("cantor_tree", cantor_tree, anchored=True,
             check=lambda rec: (None if rec["level_sums"]
                                else "level lengths differ from c_n")),
        Task("tilde_mu_table", table, anchored=True, check=table_check),
    ]
    return Workload(
        "exact", _interleave(tasks, queries),
        spans=("cli.main", "analysis.attractor_meets", "analysis.tilde_mu",
               "analysis.tilde_mu_table", "systems.step_prefix",
               "space.parse_blocks", "oracle.answer", "oracle.simulate_tm",
               "oracle.predicate.empty_halt_time", "pi2.step_prefix",
               "cantor.f_eval", "cantor.locate", "cantor.interval_of_word",
               "systems.orbit_windows"))


WORKLOADS = {"escape": build_escape, "erasure": build_erasure,
             "zone": build_zone, "exact": build_exact}
