"""Command-line front end: reproducible experiments over the library.

Every run is fully determined by its arguments (system, oracle file,
initial-configuration descriptor, seeds).  The only state kept between
calls in one process is the default ``CantorScheme`` of the ``interval``
commands, whose level table gives the same values however far it has
grown, which holds the live samples of its last escape run (each
``interval escape`` call resumes them only on the same system, samples,
seed and depth, and otherwise replaces them) and a memo of at most 4,096
gap maps that ``interval eval`` and ``interval escape`` share; the
oracle tables parsed from the last 16 file texts read, keyed by the
text, so a rewritten file is parsed afresh; and the parser, with a table
of it that the first ``main`` call builds.  ``main`` reads an argv made
of a command path and then only exact ``--option value`` pairs, no value
starting with ``-``, from that table, with the parser's types, choices,
defaults, required options and exclusive groups; any other argv (help,
an abbreviation, ``--opt=value``, a missing or invalid value) goes to
argparse, which reads and reports it as it always has.  None of these
changes a result.
Exit codes: 0 success, 1 verification failure, 2 usage error, a refused
argument or table, or an orbit the input leaves undetermined.  The
library refuses arguments and tables (``ArgumentRefused``,
``TableRefused``, ``WorkCapExceeded``) and undetermined orbits
(``FrontierUnresolved``); the commands do not check first.  They raise
``UsageError`` on what only they read (descriptor and number syntax,
``--oracle``) and in the checks the library cannot make: ``orbit
--window >= 1`` and ``--steps >= 0`` (the library accepts both, and
``omega --depth 0`` reads width 0); ``orbit --start`` and ``interval
export --depth`` >= 0 (refused there only after ``--out`` is opened); a
``bernoulli=`` weight in [0, 1], read exactly (the sampler's float reads
1.00000000000000001 as 1); ``meets`` on the shift (refused before
``--oracle`` is read); ``meets --budget`` on a programmed table.  Any
other exception is a fault in the program and ends the run with its
traceback.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import analysis, cantor, systems, verify
from .oracle import (OracleTable, TableRefused, WorkCapExceeded,
                     table_from_json)
from .pi2 import ProductConfiguration
from .space import (ALPHA_AB, Alphabet, ArgumentRefused, Configuration,
                    Constant, Cylinder, FrontierUnresolved, Periodic, Sampler,
                    Scheduled)
from .systems import EraseKind, SystemId, SystemSpec


class UsageError(Exception):
    pass


def _need(ok: bool, message: str) -> None:
    """An argument check: raise ``UsageError(message)`` unless ``ok``."""
    if not ok:
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def parse_descriptor(text: str, alphabet: Alphabet,
                     default_seed: int = 0) -> Configuration:
    """``prefix:<word>,tail:<spec>`` where <spec> is a constant symbol,
    ``period=<word>``, ``bernoulli=<p>:seed=<n>`` or ``rich=<enumerator>``."""
    prefix, tail_spec = "", None
    for part in text.split(","):
        part = part.strip()
        if part.startswith("prefix:"):
            prefix = part[len("prefix:"):]
        elif part.startswith("tail:"):
            tail_spec = part[len("tail:"):]
        elif part:
            raise UsageError(f"unknown descriptor field {part!r}")
    if tail_spec is None:
        raise UsageError("descriptor needs a tail: field")
    try:
        return Configuration(alphabet, prefix,
                             _parse_tail(tail_spec, alphabet, default_seed))
    except ArgumentRefused as ex:
        raise UsageError(str(ex))


def _parse_tail(tail_spec: str, alphabet: Alphabet, default_seed: int):
    """The tail a descriptor's ``tail:`` field names."""
    if tail_spec in alphabet.symbols:
        return Constant(tail_spec)
    if tail_spec.startswith("period="):
        return Periodic(tail_spec[len("period="):])
    if tail_spec.startswith("bernoulli="):
        body = tail_spec[len("bernoulli="):]
        seed = default_seed
        try:
            if ":" in body:
                body, seed_part = body.split(":", 1)
                _need(seed_part.startswith("seed="),
                      f"bad bernoulli tail {tail_spec!r}")
                seed = int(seed_part[len("seed="):])
            p = Fraction(body)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad bernoulli tail {tail_spec!r}")
        _need(0 <= p <= 1, f"bernoulli weight outside [0, 1]: {tail_spec!r}")
        p = float(p)
        return Sampler(alphabet.symbols, (1 - p, p), seed)
    if tail_spec.startswith("rich="):
        return Scheduled(tail_spec[len("rich="):], alphabet.symbols[0])
    raise UsageError(f"unknown tail spec {tail_spec!r}")


@functools.lru_cache(maxsize=16)
def _table(text: str) -> OracleTable:
    """The table a file's text parses to, kept per text (tables are
    immutable); a text that fails to parse raises again each time."""
    return table_from_json(text)


def load_oracle(path) -> OracleTable:
    if path is None:
        raise UsageError("this system needs --oracle <file>")
    try:
        with open(path) as fh:
            return _table(fh.read())
    except OSError as ex:
        raise UsageError(f"cannot read oracle file: {ex}")
    except (ValueError, KeyError, TypeError) as ex:
        raise UsageError(f"malformed oracle file {path}: {ex}")


def build_system(args) -> SystemSpec:
    """The system named by ``--system``.  The shift reads no table, but a
    given ``--oracle`` is still loaded, so a bad path or file exits 2."""
    sid = SystemId(args.system)
    if sid is SystemId.SHIFT:
        if args.oracle is not None:
            load_oracle(args.oracle)
        return systems.shift_system()
    return SystemSpec(sid, load_oracle(args.oracle))


def build_config(sys_spec: SystemSpec, init: str, init2, seed: int):
    """The initial configuration from its descriptor(s); ``init2`` is the
    second layer of a product system."""
    if sys_spec.id.product and init2 is None:
        raise UsageError("product systems need --init2 for the second layer")
    x = parse_descriptor(init, sys_spec.id.alphabet, seed)
    if sys_spec.id.product:
        return ProductConfiguration(x, parse_descriptor(init2, ALPHA_AB,
                                                        seed + 1))
    return x


@contextmanager
def out_stream(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_json(fh, doc) -> None:
    """Write ``doc`` as one JSON document: two-space indent, then a newline."""
    json.dump(doc, fh, indent=2)
    fh.write("\n")


def _frac(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {text!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_orbit(args) -> int:
    _need(args.window >= 1, "--window must be >= 1")
    _need(min(args.start, args.steps) >= 0,
          "--start and --steps must be >= 0")
    sys_spec = build_system(args)
    x = build_config(sys_spec, args.init, args.init2, args.seed)
    rows = enumerate(systems.orbit_windows(sys_spec, x, args.start,
                                           args.start + args.steps + 1,
                                           args.window), start=args.start)
    # a product's rows are (t, (w, w2)); windows are over {0, 1, S} and
    # {a, b}, which JSON writes unescaped
    product = sys_spec.id.product
    if args.format == "json":
        lines = ((f'{{"t": {t}, "w": "{w}", "w2": "{w2}"}}\n'
                  for t, (w, w2) in rows) if product
                 else (f'{{"t": {t}, "w": "{w}"}}\n' for t, w in rows))
    else:
        lines = ((f"{t},{w},{w2}\n" for t, (w, w2) in rows) if product
                 else (f"{t},{w}\n" for t, w in rows))
    with out_stream(args.out) as fh:
        fh.writelines(lines)
    return 0


def cmd_omega(args) -> int:
    sys_spec = build_system(args)
    x = build_config(sys_spec, args.init, args.init2, args.seed)
    prof = analysis.omega_profile(sys_spec, x, args.burn_in, args.horizon,
                                  args.depth)
    with out_stream(args.out) as fh:
        if args.format == "csv":
            for w in sorted(prof.words):
                fh.write(w + "\n")
        else:
            _write_json(fh, {"depth": prof.depth, "burn_in": prof.burn_in,
                             "horizon": prof.horizon,
                             "words": sorted(prof.words)})
    return 0


def cmd_measure(args) -> int:
    sys_spec = build_system(args)
    x = build_config(sys_spec, args.init, args.init2, args.seed)
    m = analysis.empirical_measure(sys_spec, x, args.steps, args.depth,
                                   start=args.start)
    with out_stream(args.out) as fh:
        if args.format == "json":
            _write_json(fh, {"depth": m.depth, "total": m.total,
                             "counts": dict(sorted(m.counts.items()))})
        else:
            m.write_csv(fh)
    return 0


def cmd_meets(args) -> int:
    sid = SystemId(args.system)
    if sid is SystemId.SHIFT:
        raise UsageError("the shift has no attractor predicate; "
                         "pick pi1, sigma2, pi2 or a product system")
    oracle = load_oracle(args.oracle)
    _need(args.budget is None or not oracle.programmed,
          "--budget is for enumerated oracles; this table is programmed")
    cyl = Cylinder(args.cylinder, args.position)
    verdict = analysis.attractor_meets(sid, cyl, oracle, budget=args.budget)
    with out_stream(args.out) as fh:
        fh.write(analysis.verdict_to_json(
            f"{args.system}-attractor-meets[{args.cylinder}]_{args.position}",
            verdict) + "\n")
    return 0


def cmd_tilde_mu(args) -> int:
    oracle = load_oracle(args.oracle)
    p = parse_fraction(args.p)
    kind = EraseKind.PHI if args.kind == "phi" else EraseKind.PHI_PRIME
    if args.word is not None:
        table = {args.word: analysis.tilde_mu(oracle, p, args.word,
                                              args.truncation, kind)}
    elif args.depth is not None:
        table = analysis.tilde_mu_table(oracle, p, args.depth,
                                        args.truncation, kind)
    else:
        raise UsageError("need --word or --depth")
    with out_stream(args.out) as fh:
        if args.format == "csv":
            fh.write("word,lower,upper\n")
            for w in sorted(table):
                est = table[w]
                fh.write(f"{w},{_frac(est.lower)},{_frac(est.upper)}\n")
        else:
            _write_json(fh, {"p": _frac(p), "truncation": args.truncation,
                             "kind": args.kind,
                             "entries": {w: {"lower": _frac(e.lower),
                                             "upper": _frac(e.upper)}
                                         for w, e in sorted(table.items())}})
    return 0


def cmd_realm(args) -> int:
    sys_spec = build_system(args)
    seeds = [build_config(sys_spec, d, args.init2, args.seed + 17 * i)
             for i, d in enumerate(args.init)]
    target = Cylinder(args.target, args.position)
    witness = analysis.realm_visit_check(sys_spec, seeds, target,
                                         args.match_depth,
                                         args.t_from, args.t_to)
    doc = {"found": witness is not None}
    if witness is not None:
        doc.update(t=witness.t, seed_index=witness.seed_index)
    with out_stream(args.out) as fh:
        _write_json(fh, doc)
    return 0


def cmd_interval_eval(args) -> int:
    sys_spec = build_system(args)
    point = parse_fraction(args.point)
    enc = cantor.f_eval(_scheme(), sys_spec, point, args.precision)
    with out_stream(args.out) as fh:
        _write_json(fh, {"lower": _frac(enc.lower), "upper": _frac(enc.upper),
                         "width": float(enc.width)})
    return 0


def cmd_interval_export(args) -> int:
    _need(args.depth >= 0, "--depth must be >= 0")
    with out_stream(args.out) as fh:
        cantor.export_intervals(_scheme(), args.depth, fh)
    return 0


def cmd_interval_escape(args) -> int:
    sys_spec = build_system(args)
    res = cantor.escape_fraction(_scheme(), sys_spec, args.iterations,
                                 args.samples, args.seed, args.depth)
    with out_stream(args.out) as fh:
        _write_json(fh, res.to_json())
    return 0


def cmd_verify(args) -> int:
    report = verify.verify_suite(args.suite)
    with out_stream(args.out) as fh:
        if args.format == "csv":
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["check", "status", "measured", "expected"])
            out.writerows([c.name, c.status, str(c.measured),
                           str(c.expected)] for c in report.checks)
        else:
            _write_json(fh, report.to_json())
    if args.out is not None or args.format == "json":
        print(f"{sum(c.status == 'pass' for c in report.checks)}/"
              f"{len(report.checks)} checks passed", file=sys.stderr)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p, oracle=True, seed=False, fmt=None):
    """``--out``, and ``--oracle``, ``--seed`` and ``--format`` (default
    ``fmt``) for the commands that read them."""
    if oracle:
        p.add_argument("--oracle", help="oracle table JSON file")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", help="output path (default stdout)")
    if fmt:
        p.add_argument("--format", choices=["csv", "json"], default=fmt)


def _add_system(p, init=True):
    p.add_argument("--system", required=True,
                   choices=sorted(sid.value for sid in SystemId))
    if init:
        p.add_argument("--init", required=True,
                       help="initial-configuration descriptor, e.g. "
                            "prefix:1001,tail:0")
        p.add_argument("--init2", help="second-layer descriptor "
                                       "(product systems)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symdyn",
        description="simulation and verification workbench for "
                    "oracle-parameterized symbolic dynamics")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", help="window words along an orbit")
    _add_system(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--start", type=int, default=0)
    _add_common(p, seed=True, fmt="csv")
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("omega", help="set of windows visited after burn-in")
    _add_system(p)
    p.add_argument("--burn-in", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    _add_common(p, seed=True, fmt="json")
    p.set_defaults(fn=cmd_omega)

    p = sub.add_parser("measure", help="empirical window measure of an orbit")
    _add_system(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--start", type=int, default=0)
    _add_common(p, seed=True, fmt="csv")
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("meets",
                       help="does the attractor meet a cylinder set?")
    _add_system(p, init=False)
    p.add_argument("--cylinder", required=True, help="cylinder word")
    p.add_argument("--position", type=int, default=0)
    p.add_argument("--budget", type=int, default=None,
                   help="step budget for enumerated oracles")
    _add_common(p)
    p.set_defaults(fn=cmd_meets)

    p = sub.add_parser("tilde-mu",
                       help="the exact limit measure of windows")
    p.add_argument("--p", default="1/2", help="Bernoulli weight of symbol 1")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--word", help="single window word")
    which.add_argument("--depth", type=int, help="all words of this length")
    p.add_argument("--truncation", type=int, default=24)
    p.add_argument("--kind", choices=["phi", "phi-prime"], default="phi")
    _add_common(p, fmt="json")
    p.set_defaults(fn=cmd_tilde_mu)

    p = sub.add_parser("realm",
                       help="search orbits for a visit to a target cylinder")
    _add_system(p, init=False)
    p.add_argument("--init", action="append", required=True,
                   help="initial-configuration descriptor (repeatable)")
    p.add_argument("--init2", help="second-layer descriptor")
    p.add_argument("--target", required=True)
    p.add_argument("--position", type=int, default=0)
    p.add_argument("--match-depth", type=int, required=True,
                   help="neighbourhood depth k")
    p.add_argument("--from", dest="t_from", type=int, required=True)
    p.add_argument("--to", dest="t_to", type=int, required=True)
    _add_common(p, seed=True)
    p.set_defaults(fn=cmd_realm)

    p = sub.add_parser("interval", help="fat-Cantor interval embedding")
    isub = p.add_subparsers(dest="interval_command", required=True)

    q = isub.add_parser("eval", help="rigorous value of the interval map")
    _add_system(q, init=False)
    q.add_argument("--point", required=True, help="rational in [0,1]")
    q.add_argument("--precision", type=int, default=20)
    _add_common(q)
    q.set_defaults(fn=cmd_interval_eval)

    q = isub.add_parser("export", help="endpoint tree as CSV")
    q.add_argument("--depth", type=int, required=True)
    _add_common(q, oracle=False)
    q.set_defaults(fn=cmd_interval_export)

    q = isub.add_parser("escape", help="certified-outside fraction after n steps")
    _add_system(q, init=False)
    q.add_argument("--iterations", type=int, required=True)
    q.add_argument("--samples", type=int, default=10_000)
    q.add_argument("--depth", type=int, default=16)
    _add_common(q, seed=True)
    q.set_defaults(fn=cmd_interval_escape)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=["all", *verify.SUITES])
    _add_common(p, oracle=False, fmt="json")
    p.set_defaults(fn=cmd_verify)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    return build_parser()


@functools.cache
def _scheme() -> cantor.CantorScheme:
    """The default scheme of the ``interval`` commands, kept for the
    process so its level table is grown once."""
    return cantor.CantorScheme()


# ---------------------------------------------------------------------------
# Reading plain argv without an argparse pass
# ---------------------------------------------------------------------------

def _routes(parser: argparse.ArgumentParser, base=None):
    """The reader's table for ``parser``: {command word: table}, down to
    one route per command.

    A route is (options, base, required, groups, typed): the command's
    actions by exact option string, the namespace argparse starts it from
    (every default on the command path, and each parser name), its
    required actions, its exclusive groups as (actions, required), and
    its actions whose string default argparse passes through ``type``
    when they are not given.  A parser with subparsers is served only when
    its other actions are help; a command only when its other actions are
    store or append actions of options taking one value (an append
    default None or a list).  Other commands get an empty table, and
    argparse reads them.
    """
    layer = {}      # argparse sets action defaults first, then set_defaults
    for a in parser._actions:
        if (a.dest is not argparse.SUPPRESS
                and a.default is not argparse.SUPPRESS):
            layer.setdefault(a.dest, a.default)
    for dest, value in parser._defaults.items():
        layer.setdefault(dest, value)
    ns = {**(base or {}), **layer}
    actions = [a for a in parser._actions
               if not isinstance(a, argparse._HelpAction)]
    if parser._subparsers is not None:
        if len(actions) != 1 or actions[0].dest is argparse.SUPPRESS:
            return {}
        sub, = actions
        return {name: _routes(child, {**ns, sub.dest: name})
                for name, child in sub.choices.items()}
    if not all(a.option_strings and a.nargs is None and (
            type(a) is argparse._StoreAction
            or type(a) is argparse._AppendAction
            and (a.default is None or type(a.default) is list))
            for a in actions):
        return {}
    return ({s: a for a in actions for s in a.option_strings}, ns,
            tuple(a for a in actions if a.required),
            tuple((frozenset(g._group_actions), g.required)
                  for g in parser._mutually_exclusive_groups),
            tuple(a for a in actions
                  if isinstance(a.default, str) and a.type is not None))


@functools.cache
def _reader() -> dict:
    """The reader's table for the parser, built on first use."""
    return _routes(_parser())


_NO_VALUE = object()


def _typed(action: argparse.Action, text: str):
    """``text`` through the action's ``type``; ``_NO_VALUE`` where argparse
    reports an invalid value."""
    if action.type is None:
        return text
    try:
        return action.type(text)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return _NO_VALUE


def _fast_args(argv, table):
    """The namespace ``parse_args(argv)`` gives, read from the parser's
    ``table`` (see :func:`_routes`), or None.

    It reads only a command path followed by exact ``--option value``
    pairs, each value not starting with ``-``, and returns None for
    anything else (help, abbreviations, ``--opt=value``, unknown words,
    missing or invalid values, a missing required option or a group
    conflict), which argparse then reads and reports exactly as before.
    """
    node, i = table, 0
    while type(node) is dict and i < len(argv):
        node, i = node.get(argv[i]), i + 1
    if type(node) is not tuple or (len(argv) - i) % 2:
        return None
    options, base, required, groups, typed = node
    ns, seen = dict(base), set()
    for opt, text in zip(argv[i::2], argv[i + 1::2]):
        action = options.get(opt)
        if action is None or text.startswith("-"):
            return None
        value = _typed(action, text)
        if value is _NO_VALUE or (action.choices is not None
                                  and value not in action.choices):
            return None
        if type(action) is argparse._AppendAction:
            value = [*(ns.get(action.dest) or ()), value]
        ns[action.dest] = value
        seen.add(action)
    if not seen.issuperset(required):
        return None
    for group, one_needed in groups:
        given = len(group & seen)
        if given > 1 or one_needed and not given:
            return None
    for a in typed:
        if a not in seen and ns.get(a.dest) is a.default:
            ns[a.dest] = _typed(a, a.default)
            if ns[a.dest] is _NO_VALUE:
                return None
    return argparse.Namespace(**ns)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_args(argv, _reader()) or _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, OSError, ArgumentRefused, FrontierUnresolved,
            TableRefused, WorkCapExceeded) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
