"""Layer spans around symdyn's public functions, installed from outside.

``Tracer.install()`` replaces every binding of each traced function --
in its home module, in every symdyn module that imported it by name and
in the package's re-exports -- and each traced method on its class, with
a timing wrapper; ``restore()`` puts the originals back.  A span records
calls, inclusive time and self time (inclusive minus the time of traced
children).  Generator functions are timed across each ``next()``, so a
span covers the whole iteration and not only the creation of the
generator.  Spans are aggregated in memory per (task, span).
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import symdyn
from symdyn import analysis, cantor, cli, oracle, pi2, space, systems, verify

MODULES = (symdyn, oracle, space, systems, pi2, analysis, cantor, verify, cli)

PREDICATES = ("empty_halt_time", "all_below_time", "is_total",
              "has_finite_domain", "halts_on_size_above")


def _answer_yes(tr, args, result):
    tr.count("oracle.answer.yes", result is oracle.Answer.YES)


def _predicate_args(name):
    def observe(tr, args, result):
        tr.distinct.add((name, id(args[0]), args[1:]))
    return observe


def _generated(kind):
    def observe(tr, args, result):
        tr.count(f"space.generate.{kind}.symbols", len(result))
        key = (kind, args[0])
        if args[1] > tr.longest.get(key, 0):
            tr.longest[key] = args[1]
    return observe


def _located(tr, args, result):
    tr.count("cantor.locate.in_gap", isinstance(result, cantor.InGap))


# (span name, owner, attribute, observer); owner is a module for functions
# (every symdyn module binding the same object is wrapped) or a class.
SPANS = [
    ("oracle.answer", oracle.OracleTable, "answer", _answer_yes),
    ("oracle.simulate_tm", oracle, "simulate_tm", None),
    *[(f"oracle.predicate.{p}", oracle.OracleTable, p, _predicate_args(p))
      for p in PREDICATES],
    ("space.generate.sampler", space.Sampler, "generate",
     _generated("sampler")),
    ("space.generate.scheduled", space.Scheduled, "generate",
     _generated("scheduled")),
    ("space.generate.periodic", space.Periodic, "generate",
     _generated("periodic")),
    ("space.parse_blocks", space, "parse_blocks", None),
    ("systems.step_prefix", systems, "step_prefix", None),
    ("systems.orbit_windows", systems, "orbit_windows", None),
    ("pi2.orbit_windows", pi2, "orbit_windows", None),
    ("pi2.step_prefix", pi2, "step_prefix", None),
    ("pi2.engine.step", pi2.ZoneEngine, "step", None),
    ("pi2.engine.window_word", pi2.ZoneEngine, "window_word", None),
    ("analysis.empirical_measure", analysis, "empirical_measure", None),
    ("analysis.omega_profile", analysis, "omega_profile", None),
    ("analysis.tilde_mu", analysis, "tilde_mu", None),
    ("analysis.tilde_mu_table", analysis, "tilde_mu_table", None),
    ("analysis.attractor_meets", analysis, "attractor_meets", None),
    ("cantor.locate", cantor, "locate", _located),
    ("cantor.gap_map", cantor, "gap_map", None),
    ("cantor.gapmap_eval", cantor.GapMap, "__call__", None),
    ("cantor.escape_fraction", cantor, "escape_fraction", None),
    ("cantor.interval_of_word", cantor.CantorScheme, "interval_of_word", None),
    ("cantor.f_eval", cantor, "f_eval", None),
    ("cantor.phi_point", cantor, "phi_point", None),
    ("cli.main", cli, "main", None),
]


class Tracer:
    def __init__(self):
        self.task = "-"
        self.spans = {}            # (task, span) -> [calls, total, self, first, items]
        self.counters = defaultdict(int)   # (task, counter) -> value
        self.distinct = set()      # predicate argument tuples seen
        self.longest = {}          # (tail kind, tail) -> longest prefix asked
        self.missing = []          # spans whose target no longer exists
        self._stack = []
        self._saved = []

    def count(self, name, amount=1):
        self.counters[(self.task, name)] += amount

    def _record(self, span, total, self_time, calls=1, first=0.0, items=0):
        rec = self.spans.get((self.task, span))
        if rec is None:
            rec = self.spans[(self.task, span)] = [0, 0.0, 0.0, 0.0, 0]
        rec[0] += calls
        rec[1] += total
        rec[2] += self_time
        rec[3] += first
        rec[4] += items

    # -- wrappers ----------------------------------------------------------

    def _call_wrapper(self, span, fn, observe):
        stack, clock, record = self._stack, time.perf_counter, self._record
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                record(span, dt, dt - frame[0])
            if observe is not None:
                observe(tracer, args, result)
            return result
        return traced

    def _generator_wrapper(self, span, fn):
        stack, clock, record = self._stack, time.perf_counter, self._record

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            first = True
            try:
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = clock()
                    done = False
                    try:
                        item = next(gen)
                    except StopIteration:
                        done = True
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        if stack:
                            stack[-1][0] += dt
                        record(span, dt, dt - frame[0], calls=int(first),
                               first=dt if first else 0.0,
                               items=0 if done else 1)
                    if done:
                        return
                    first = False
                    yield item
            finally:
                gen.close()
        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        for span, owner, attr, observe in SPANS:
            if inspect.isclass(owner):
                orig = owner.__dict__.get(attr)
                if orig is None:
                    self.missing.append(span)
                    continue
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self._call_wrapper(span, orig, observe))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(span)
                continue
            if inspect.isgeneratorfunction(orig):
                wrapper = self._generator_wrapper(span, orig)
            else:
                wrapper = self._call_wrapper(span, orig, observe)
            for mod in MODULES:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


# -- per-layer metrics ---------------------------------------------------------

def _total(rows, span):
    """[calls, total, self, first, items] of ``span`` (or of every span under
    ``span.``) summed over the given per-task rows."""
    out = [0, 0.0, 0.0, 0.0, 0]
    for name, rec in rows.items():
        if name == span or name.startswith(span + "."):
            for i, v in enumerate(rec):
                out[i] += v
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, task=None) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, base text).

    With ``task`` given, only that task's spans count; otherwise all.
    """
    rows = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0])
    for (t, span), rec in tr.spans.items():
        if task is None or t == task:
            for i, v in enumerate(rec):
                rows[span][i] += v
    counters = defaultdict(int)
    for (t, name), v in tr.counters.items():
        if task is None or t == task:
            counters[name] += v
    m = {}

    def calls_self(prefix, span):
        c, _, s, _, _ = _total(rows, span)
        m[f"{prefix}.calls"] = (c, "calls")
        m[f"{prefix}.self_s"] = (s, f"self time of {c} calls")

    calls_self("oracle.answer", "oracle.answer")
    c = _total(rows, "oracle.answer")[0]
    y = counters["oracle.answer.yes"]
    m["oracle.answer.yes_ratio"] = (_ratio(y, c), f"{y} YES of {c} answers")
    calls_self("oracle.simulate_tm", "oracle.simulate_tm")
    calls_self("oracle.predicate", "oracle.predicate")
    if task is None:
        c, d = _total(rows, "oracle.predicate")[0], len(tr.distinct)
        m["oracle.predicate.distinct_ratio"] = (
            _ratio(d, c), f"{d} distinct argument tuples of {c} calls")

    sym_total = 0
    for kind in ("sampler", "scheduled", "periodic"):
        span = f"space.generate.{kind}"
        c, _, s, _, _ = _total(rows, span)
        sym = counters[f"{span}.symbols"]
        sym_total += sym
        m[f"{span}.calls"] = (c, "calls")
        m[f"{span}.symbols"] = (sym, "symbols generated")
        m[f"{span}.self_s"] = (s, f"self time of {c} calls")
    if task is None:
        longest = sum(tr.longest.values())
        m["space.generate.regen_ratio"] = (
            _ratio(sym_total, longest),
            f"{sym_total} symbols generated for {longest} symbols of "
            f"longest prefixes over {len(tr.longest)} tails")
    calls_self("space.parse_blocks", "space.parse_blocks")

    c, tot, _, _, _ = _total(rows, "systems.step_prefix")
    calls_self("systems.step_prefix", "systems.step_prefix")
    m["systems.step_prefix.us_per_call"] = (
        _ratio(tot, c) * 1e6, f"inclusive {tot:.4f} s over {c} calls")
    c, tot, s, first, items = _total(rows, "systems.orbit_windows")
    m["systems.orbit_windows.windows"] = (items, f"windows from {c} orbits")
    m["systems.orbit_windows.first_s"] = (first, f"to first window, {c} orbits")
    m["systems.orbit_windows.us_per_window"] = (
        _ratio(tot - first, items) * 1e6,
        f"inclusive {tot - first:.4f} s after the first window over "
        f"{items} windows")
    m["systems.orbit_windows.self_s"] = (s, f"self time of {c} orbits")

    c, _, _, first, _ = _total(rows, "pi2.orbit_windows")
    m["pi2.orbit_windows.first_s"] = (first, f"to first window, {c} orbits")
    c, tot, s, _, _ = _total(rows, "pi2.engine.step")
    m["pi2.engine.steps"] = (c, "ZoneEngine.step calls")
    m["pi2.engine.step_self_s"] = (s, f"self time of {c} steps")
    m["pi2.engine.us_per_step"] = (_ratio(tot, c) * 1e6,
                                   f"inclusive {tot:.4f} s over {c} steps")
    c, _, s, _, _ = _total(rows, "pi2.engine.window_word")
    m["pi2.engine.window_word.self_s"] = (s, f"self time of {c} calls")
    calls_self("pi2.step_prefix", "pi2.step_prefix")

    for fn in ("empirical_measure", "omega_profile", "tilde_mu_table"):
        c, _, s, _, _ = _total(rows, f"analysis.{fn}")
        m[f"analysis.{fn}.self_s"] = (s, f"self time of {c} calls, "
                                         f"traced children excluded")
    calls_self("analysis.tilde_mu", "analysis.tilde_mu")
    calls_self("analysis.attractor_meets", "analysis.attractor_meets")

    c, tot, _, _, _ = _total(rows, "cantor.locate")
    calls_self("cantor.locate", "cantor.locate")
    m["cantor.locate.us_per_call"] = (_ratio(tot, c) * 1e6,
                                      f"inclusive {tot:.4f} s over {c} calls")
    in_gap = counters["cantor.locate.in_gap"]
    m["cantor.locate.in_gap_ratio"] = (_ratio(in_gap, c),
                                       f"{in_gap} in-gap of {c} locates")
    calls_self("cantor.gap_map", "cantor.gap_map")
    misses = _total(rows, "cantor.gap_map")[0]
    m["cantor.gap_map.hit_ratio"] = (
        1 - _ratio(misses, in_gap) if in_gap else 0.0,
        f"1 - {misses} gap maps built / {in_gap} in-gap locates")
    calls_self("cantor.gapmap_eval", "cantor.gapmap_eval")
    c, _, s, _, _ = _total(rows, "cantor.escape_fraction")
    m["cantor.escape_fraction.self_s"] = (s, f"self time of {c} calls")
    calls_self("cantor.interval_of_word", "cantor.interval_of_word")
    c, _, s, _, _ = _total(rows, "cantor.f_eval")
    m["cantor.f_eval.self_s"] = (s, f"self time of {c} calls")
    m["cantor.phi_point.calls"] = (_total(rows, "cantor.phi_point")[0], "calls")

    c, _, s, _, _ = _total(rows, "cli.main")
    calls_self("cli.main", "cli.main")
    m["cli.main.ms_per_call"] = (_ratio(s, c) * 1e3,
                                 f"self {s:.4f} s over {c} queries")
    return m


def fired(tr: Tracer) -> set:
    return {span for (_, span), rec in tr.spans.items() if rec[0] or rec[4]}
