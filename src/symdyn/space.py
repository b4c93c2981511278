"""Configurations, words, cylinders and the 1-run scanner on A^N.

A configuration is a finite prefix plus a tail descriptor (constant,
periodic, seeded Bernoulli sampler, or a scheduled word stream).  All
values are immutable; sampler tails rebuild their PRNG stream from the
seed on every materialization, so sharing across threads is safe.  Each
cell a tail writes is one alphabet symbol, and each symbol is one
character, so ``materialize(n)`` always gives ``n`` symbols over the
alphabet.

Each alphabet carries ``absent``, a ``str.translate`` table that deletes
its symbols: ``w.translate(a.absent)`` keeps the symbols of ``w`` outside
``a``, and every check of a word's symbols reads it.  Scheduled tails run
through one fixed table, ``LANGUAGES``; a scheduled tail calls its
language once per round and writes all its rounds with one C-level
join.  ``parse_blocks`` lists the
maximal 1-runs of a finite word as ``(start, length)`` tuples; the
per-position maps, the attractor predicates and the limit measure read
blocks through it.  The π2 zone engine, whose zones are ASCII byte
buffers, scans them in place with the same 1-run rule over bytes
(``_ONE_RUN_BYTES``).  A map raises ``FrontierUnresolved`` when a finite
word is too short to fix its image, and an entry point
``ArgumentRefused`` when it does not accept an argument's value.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import List, Tuple

import numpy as np

BINARY = ("0", "1")
TERNARY = ("0", "1", "S")
LAYER2 = ("a", "b")


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple
    # deletes the symbols under str.translate; equality does not read it
    absent: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.symbols or len(set(self.symbols)) != len(self.symbols):
            raise ArgumentRefused("need one or more distinct symbols")
        if any(not isinstance(c, str) or len(c) != 1 for c in self.symbols):
            raise ArgumentRefused(f"alphabet symbols must be single "
                                  f"characters, got {self.symbols!r}")
        object.__setattr__(self, "absent",
                           str.maketrans("", "", "".join(self.symbols)))

    def __contains__(self, s):
        return s in self.symbols


ALPHA_01 = Alphabet(BINARY)
ALPHA_01S = Alphabet(TERNARY)
ALPHA_AB = Alphabet(LAYER2)


class FrontierUnresolved(Exception):
    """The supplied word is too short to determine the requested output."""


class ArgumentRefused(ValueError):
    """An argument value that a public entry point does not accept."""


@dataclass(frozen=True)
class Cylinder:
    word: str
    position: int = 0

    def __post_init__(self):
        if self.position < 0:
            raise ArgumentRefused("cylinder position must be >= 0")


# ---------------------------------------------------------------------------
# Tail descriptors
# ---------------------------------------------------------------------------

class Tail:
    """``generate(n)`` writes a tail's first ``n`` cells and ``writes(symbol)``
    says whether ``symbol`` can occur in it; a configuration takes one of
    the four kinds below only."""


@dataclass(frozen=True)
class Constant(Tail):
    symbol: str

    def generate(self, n):
        return self.symbol * n

    def writes(self, symbol):
        return symbol == self.symbol


@dataclass(frozen=True)
class Periodic(Tail):
    word: str

    def generate(self, n):
        reps = -(-n // len(self.word))
        return (self.word * reps)[:n]

    def writes(self, symbol):
        return symbol in self.word


@dataclass(frozen=True)
class Sampler(Tail):
    """I.i.d. symbols with the given weights, reproducible from the seed.

    The weights are finite, nonnegative and not all zero, and the seed
    is >= 0; anything else is refused when the sampler is built.
    """

    alphabet: tuple
    weights: tuple
    seed: int

    def __post_init__(self):
        # generate writes one UTF-32 code unit per draw
        if any(not isinstance(c, str) or len(c) != 1 for c in self.alphabet):
            raise ArgumentRefused(f"sampler symbols must be single "
                                  f"characters, got {self.alphabet!r}")
        # generate draws with the probabilities weights / sum(weights)
        if not (all(math.isfinite(w) and w >= 0 for w in self.weights)
                and 0 < sum(self.weights) < math.inf):
            raise ArgumentRefused(f"sampler weights {self.weights!r} are "
                                  "not finite, nonnegative and not all zero")
        if self.seed < 0:
            raise ArgumentRefused(f"sampler seed {self.seed} is negative")

    def generate(self, n):
        rng = np.random.Generator(np.random.PCG64(self.seed))
        p = np.asarray(self.weights, dtype=float)
        idx = rng.choice(len(self.alphabet), size=n, p=p / p.sum())
        codes = np.array(self.alphabet, "U1").view(np.uint32)
        return codes[idx].tobytes().decode("utf-32-le")

    def writes(self, symbol):
        return any(c == symbol and w > 0
                   for c, w in zip(self.alphabet, self.weights))


def _all_binary_words(i: int) -> str:
    # epsilon, 0, 1, 00, 01, ...
    length = 0
    while i >= 2 ** length:
        i -= 2 ** length
        length += 1
    return format(i, "b").zfill(length) if length else ""


# The languages of scheduled tails, by name: index -> word over {0, 1}.
LANGUAGES = MappingProxyType({"all01": _all_binary_words})


@dataclass(frozen=True)
class Scheduled(Tail):
    """Triangular schedule w1 f w1 f w2 f w1 f w2 f w3 ... over a language.

    Every enumerated word occurs infinitely often, at positions that can be
    computed in advance from the schedule alone.  Round r writes
    w1 f ... wr f, a prefix of round r + 1, so ``generate(n)`` calls the
    language once per round (520 calls for 10^6 symbols) and writes
    every round with one C-level join of prefixes of the last one.
    """

    enumerator: str
    filler: str = "0"

    def generate(self, n):
        fn, words, ends, size = LANGUAGES[self.enumerator], "", [], 0
        while size < n:
            words += fn(len(ends)) + self.filler   # round len(ends) + 1
            ends.append(len(words))
            size += len(words)
        return "".join([words[:e] for e in ends])[:n]

    def writes(self, symbol):
        return symbol == self.filler or symbol in BINARY


@dataclass(frozen=True)
class Configuration:
    alphabet: Alphabet
    prefix: str
    tail: Tail

    def __post_init__(self):
        absent, t = self.alphabet.absent, self.tail
        bad = self.prefix.translate(absent)
        if bad:
            raise ArgumentRefused(f"symbol {bad[0]!r} outside alphabet")
        # materialize(n) returns n symbols over the alphabet only when each
        # cell a tail writes is one alphabet symbol
        if not isinstance(t, (Constant, Periodic, Sampler, Scheduled)):
            raise ArgumentRefused(f"tail {t!r} is not a constant, periodic, "
                                  "sampler or scheduled tail")
        if isinstance(t, Constant) and t.symbol not in self.alphabet:
            raise ArgumentRefused(f"constant tail {t.symbol!r} is not one "
                                  "alphabet symbol")
        if isinstance(t, Periodic) and (not isinstance(t.word, str)
                                        or not t.word
                                        or t.word.translate(absent)):
            raise ArgumentRefused(f"periodic tail {t.word!r} is not a "
                                  "nonempty word over the alphabet")
        if isinstance(t, Sampler) and (len(t.weights) != len(t.alphabet) or
                                       "".join(t.alphabet).translate(absent)):
            raise ArgumentRefused(f"sampler tail {t!r} does not fit the "
                                  "alphabet")
        if isinstance(t, Scheduled):
            if t.enumerator not in LANGUAGES:
                raise ArgumentRefused(f"unknown language {t.enumerator!r}")
            if t.filler not in self.alphabet or "01".translate(absent):
                raise ArgumentRefused(f"scheduled tail {t!r} writes "
                                      "symbols outside the alphabet")

    def materialize(self, n: int) -> str:
        """First ``n`` symbols; deterministic and prefix-consistent."""
        if n < 0:
            raise ArgumentRefused(f"cannot materialize {n} symbols")
        if n <= len(self.prefix):
            return self.prefix[:n]
        return self.prefix + self.tail.generate(n - len(self.prefix))


def binary_config(prefix: str, tail: Tail) -> Configuration:
    return Configuration(ALPHA_01, prefix, tail)


def rich_configuration(enumerator: str, filler: str = "0",
                       alphabet: Alphabet = ALPHA_01) -> Configuration:
    """A configuration in which every enumerated word appears infinitely often."""
    return Configuration(alphabet, "", Scheduled(enumerator, filler))


# ---------------------------------------------------------------------------
# 1-runs
# ---------------------------------------------------------------------------

_ONE_RUN = re.compile("1+")
_ONE_RUN_BYTES = re.compile(b"1+")     # the same rule over ASCII cell buffers


def parse_blocks(w: str) -> List[Tuple[int, int]]:
    """The maximal 1-runs of ``w``, left to right, as ``(start, length)``.

    Any other symbol (0 or S) ends a run.  A run is bounded on the left
    when ``start > 0`` (its left neighbour, at ``start - 1``, is the
    position the erasure rules key on) and on the right when
    ``start + length < len(w)``.
    """
    return [(m.start(), m.end() - m.start()) for m in _ONE_RUN.finditer(w)]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def config_to_json(x: Configuration) -> str:
    t = x.tail
    if isinstance(t, Constant):
        tail = {"kind": "constant", "symbol": t.symbol}
    elif isinstance(t, Periodic):
        tail = {"kind": "periodic", "word": t.word}
    elif isinstance(t, Sampler):
        tail = {"kind": "sampler", "alphabet": list(t.alphabet),
                "weights": list(t.weights), "seed": t.seed}
    else:   # Scheduled: ``Configuration`` admits no other kind
        tail = {"kind": "scheduled", "language": t.enumerator, "filler": t.filler}
    return json.dumps({"alphabet": list(x.alphabet.symbols),
                       "prefix": x.prefix, "tail": tail}, indent=2)


def config_from_json(text: str) -> Configuration:
    """The configuration ``config_to_json`` wrote; a document that is not
    an object, lacks a key or names an unknown tail kind raises
    ``ArgumentRefused``."""
    doc = json.loads(text)
    t = doc.get("tail") if isinstance(doc, dict) else None
    if not isinstance(t, dict):
        raise ArgumentRefused("a configuration is a JSON object whose tail "
                              "is an object")
    try:
        kind = t["kind"]
        if kind == "constant":
            tail = Constant(t["symbol"])
        elif kind == "periodic":
            tail = Periodic(t["word"])
        elif kind == "sampler":
            tail = Sampler(tuple(t["alphabet"]), tuple(t["weights"]),
                           int(t["seed"]))
        elif kind == "scheduled":
            tail = Scheduled(t["language"], t["filler"])
        else:
            raise ArgumentRefused(f"unknown tail kind {kind!r}")
        return Configuration(Alphabet(tuple(doc["alphabet"])), doc["prefix"],
                             tail)
    except KeyError as ex:
        raise ArgumentRefused(f"configuration document lacks the key {ex}")
