"""Configurations, cylinders, the 1-run scanner, distance."""

import json
import random
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from symdyn import space
from symdyn.space import (ALPHA_01, ALPHA_01S, ALPHA_AB, LANGUAGES, Alphabet,
                          ArgumentRefused, Configuration, Constant, Cylinder,
                          Periodic, Sampler, Scheduled, Tail, binary_config,
                          config_from_json, config_to_json, parse_blocks,
                          rich_configuration)

WORKED = "1001011100101100"


def test_materialize_examples():
    assert binary_config("10", Constant("0")).materialize(5) == "10000"
    assert binary_config("", Periodic("01")).materialize(5) == "01010"


@pytest.mark.parametrize("tail", [
    Constant("1"), Periodic("01S"), Periodic("0110"),
    Sampler(("0", "S"), (1, 0), 3), Sampler(("0", "1", "S"), (1, 1, 1), 3),
    Scheduled("all01", "S"), Scheduled("all01")])
def test_tail_writes_what_it_generates(tail):
    seen = set(tail.generate(3000))
    for symbol in "01S":
        assert tail.writes(symbol) == (symbol in seen), symbol


def test_sampler_determinism():
    x = binary_config("", Sampler(("0", "1"), (1, 1), 7))
    assert x.materialize(20) == x.materialize(20)
    assert x.materialize(40)[:20] == x.materialize(20)


def ref_sampler_generate(t, n):
    """The per-symbol join ``Sampler.generate`` replaced."""
    rng = np.random.Generator(np.random.PCG64(t.seed))
    p = np.asarray(t.weights, dtype=float)
    idx = rng.choice(len(t.alphabet), size=n, p=p / p.sum())
    return "".join(t.alphabet[i] for i in idx)


def ref_sampler_object_array(t, n):
    """The object-array join ``Sampler.generate`` replaced."""
    rng = np.random.Generator(np.random.PCG64(t.seed))
    p = np.asarray(t.weights, dtype=float)
    idx = rng.choice(len(t.alphabet), size=n, p=p / p.sum())
    return "".join(np.array(t.alphabet, dtype=object)[idx].tolist())


@pytest.mark.parametrize("alphabet, weights", [
    (("0", "1"), (3, 1)),
    (("0", "1"), (1, 1)),
    (("0", "1", "S"), (2, 2, 1)),
    (("0", "1", "S"), (1, 0, 9)),
    (("a", "b"), (1, 5)),
    (("é", "字", "😀"), (1, 2, 3)),
])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_sampler_matches_per_symbol_join(alphabet, weights, seed):
    t = Sampler(alphabet, weights, seed)
    for n in (0, 1, 17, 5000):
        got = t.generate(n)
        assert got == ref_sampler_generate(t, n)
        assert got.encode("utf-8") == \
            ref_sampler_object_array(t, n).encode("utf-8")
    assert t.generate(200) == t.generate(5000)[:200]


@given(st.text(alphabet="01", max_size=12), st.integers(0, 30),
       st.integers(0, 30))
def test_prefix_consistency(prefix, n, extra):
    x = binary_config(prefix, Periodic("011"))
    assert x.materialize(n + extra)[:n] == x.materialize(n)


def _blocks(w):
    """Bounded 1-runs as (position of the leading 0, length)."""
    return [(start - 1, l) for start, l in parse_blocks(w)
            if start > 0 and start + l < len(w)]


def test_parse_blocks_simple():
    assert parse_blocks("0110") == [(1, 2)]
    assert _blocks("0110") == [(0, 2)]


def test_parse_blocks_worked_example():
    assert _blocks(WORKED) == [(2, 1), (4, 3), (9, 1), (11, 2)]
    # the leading run touches the left boundary: unbounded
    assert parse_blocks(WORKED)[0] == (0, 1)


def test_parse_blocks_empty():
    assert parse_blocks("") == []


def test_parse_blocks_lists_runs_left_to_right():
    runs = parse_blocks("011" + "0" * 10 + "1S1")
    assert runs == [(1, 2), (13, 1), (15, 1)]


def test_parse_blocks_s_positions():
    # an S ends a 1-run as a 0 does
    assert parse_blocks("01S11S1") == [(1, 1), (3, 2), (6, 1)]
    assert _blocks("01S0S") == [(0, 1)]


@given(st.text(alphabet="01S", max_size=40))
def test_parse_render_round_trip(w):
    runs = parse_blocks(w)
    cells = list(w.replace("1", "0"))
    prev_end = -1
    for start, l in runs:
        assert l > 0 and start > prev_end   # maximal: runs never touch
        cells[start:start + l] = "1" * l
        prev_end = start + l
    assert "".join(cells) == w


def distance_exponent(x, y, depth):
    """First index of disagreement, or None when agreeing up to ``depth``.

    ``d(x, y) <= 2^-n`` exactly when this returns None for ``depth = n``.
    """
    if x.alphabet != y.alphabet:
        raise ArgumentRefused("configurations over different alphabets")
    a, b = x.materialize(depth), y.materialize(depth)
    for i in range(depth):
        if a[i] != b[i]:
            return i
    return None


def test_distance_exponent():
    a = binary_config("10", Constant("0"))
    b = binary_config("11", Constant("0"))
    assert distance_exponent(a, b, 64) == 1
    assert distance_exponent(a, a, 64) is None  # agree up to depth


def test_distance_matches_brute_force():
    rng = random.Random(9)
    for _ in range(40):
        u = "".join(rng.choice("01") for _ in range(20))
        v = "".join(rng.choice("01") for _ in range(20))
        a = binary_config(u, Constant("0"))
        b = binary_config(v, Constant("0"))
        brute = next((i for i in range(64)
                      if a.materialize(64)[i] != b.materialize(64)[i]), None)
        assert distance_exponent(a, b, 64) == brute


def test_distance_exponent_refuses_different_alphabets():
    with pytest.raises(ArgumentRefused):
        distance_exponent(binary_config("", Constant("0")),
                          Configuration(ALPHA_01S, "", Constant("0")), 3)


def ref_scheduled_generate(t, n):
    """The word-by-word join ``Scheduled.generate`` replaced: round r
    enumerates w1 .. wr again."""
    fn = LANGUAGES[t.enumerator]
    parts, size, round_no = [], 0, 0
    while True:
        round_no += 1
        for i in range(round_no):
            w = fn(i)
            parts.append(w)
            parts.append(t.filler)
            size += len(w) + 1
            if size >= n:
                return "".join(parts)[:n]


@pytest.mark.parametrize("alphabet, filler", [
    (ALPHA_01, "0"), (ALPHA_01, "1"), (ALPHA_01S, "S")], ids=["0", "1", "S"])
def test_scheduled_matches_word_by_word_join(alphabet, filler):
    t = rich_configuration("all01", filler, alphabet).tail
    for n in range(3001):
        assert t.generate(n) == ref_scheduled_generate(t, n), n
    for n in (10**5, 10**6):
        assert t.generate(n) == ref_scheduled_generate(t, n), n


def test_scheduled_calls_the_language_once_per_round():
    calls = []
    fn = LANGUAGES["all01"]

    def counting(i):
        calls.append(i)
        return fn(i)

    with mock.patch.object(space, "LANGUAGES",
                           MappingProxyType({"all01": counting})):
        w = Scheduled("all01").generate(10**6)
    # round r adds the word w_r; rounds 1 .. 520 write 10^6 symbols
    assert calls == list(range(520)) and len(w) == 10**6


def test_rich_configuration_schedule():
    x = rich_configuration("all01")
    w = x.materialize(100_000)
    # every early enumerated word recurs many times
    fn = LANGUAGES["all01"]
    for i in range(1, 20):
        word = fn(i)
        assert w.count(word) >= 3, word
    assert "11" in w


def test_languages_are_fixed():
    # an equal configuration always materializes the same word
    with pytest.raises(TypeError):
        LANGUAGES["all01"] = lambda i: "10"
    assert rich_configuration("all01").materialize(20) == \
        "00000001000010000000"


def test_configuration_refuses_other_tail_kinds():
    # materialize's contract is checked for the four kinds only
    class Twos(Tail):
        def generate(self, n):
            return "2" * n

    with pytest.raises(ValueError, match="not a constant"):
        binary_config("01", Twos())


@given(st.text(alphabet="01Sab2", max_size=20),
       st.sampled_from([ALPHA_01, ALPHA_01S, ALPHA_AB]))
def test_absent_deletes_the_alphabet(w, a):
    assert w.translate(a.absent) == "".join(c for c in w if c not in a)


def test_absent_is_outside_equality():
    assert Alphabet(("0", "1")) == ALPHA_01
    assert hash(Alphabet(("0", "1"))) == hash(ALPHA_01)
    assert "absent" not in repr(ALPHA_01)


def test_cylinder_validation():
    assert Cylinder("01", 3).position == 3
    with pytest.raises(ValueError):
        Cylinder("01", -1)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("0", "0"))
    # each symbol is one character, the one cell a tail writes
    for symbols in (("0", "10"), ("", "1"), ("0", 1), ("ab",)):
        with pytest.raises(ValueError, match="single characters"):
            Alphabet(symbols)
    assert Alphabet(("é", "字")).symbols == ("é", "字")
    with pytest.raises(ValueError, match="single characters"):
        Sampler(("0", "11"), (1, 1), 0)
    with pytest.raises(ValueError):
        Configuration(ALPHA_01, "01S", Constant("0"))


@pytest.mark.parametrize("alphabet, tail", [
    (ALPHA_01, Constant("")),
    (ALPHA_01, Constant("01")),
    (ALPHA_01, Constant("S")),
    (ALPHA_01, Periodic("")),
    (ALPHA_01, Periodic("0S")),
    (ALPHA_01S, Periodic("01a")),
])
def test_tail_outside_alphabet_rejected(alphabet, tail):
    with pytest.raises(ValueError):
        Configuration(alphabet, "01", tail)


def test_tail_symbols_checked_in_json():
    text = config_to_json(binary_config("01", Constant("0")))
    with pytest.raises(ValueError):
        config_from_json(text.replace('"symbol": "0"', '"symbol": "00"'))
    # a sampler over a two-character alphabet would write two cells a draw
    doc = json.loads(config_to_json(
        binary_config("", Sampler(("0", "1"), (1, 1), 3))))
    doc["alphabet"] = doc["tail"]["alphabet"] = ["0", "11"]
    with pytest.raises(ValueError, match="single characters"):
        config_from_json(json.dumps(doc))


@given(st.text(alphabet="01", max_size=6), st.sampled_from("01"),
       st.text(alphabet="01", min_size=1, max_size=4), st.integers(0, 20))
def test_materialize_length(prefix, symbol, period, n):
    for tail in (Constant(symbol), Periodic(period),
                 Sampler(("0", "1"), (1, 2), n), Scheduled("all01", symbol)):
        w = binary_config(prefix, tail).materialize(n)
        assert len(w) == n and set(w) <= {"0", "1"}


def test_scheduled_filler_must_be_one_symbol():
    # an empty filler would make materialize(20) return 8 symbols
    with pytest.raises(ValueError):
        binary_config("", Scheduled("all01", ""))
    with pytest.raises(ValueError):
        binary_config("", Scheduled("all01", "01"))


def test_sampler_symbols_must_lie_in_the_alphabet():
    # unchecked, materialize(12) would return 00S10110S011
    with pytest.raises(ValueError):
        binary_config("", Sampler(("0", "1", "S"), (1, 1, 1), 3))


def test_sampler_needs_one_weight_per_symbol():
    with pytest.raises(ValueError):
        binary_config("", Sampler(("0", "1"), (1, 1, 1), 3))


@pytest.mark.parametrize("weights, seed", [
    ((1, -1), 3), ((0, 0), 3), ((float("nan"), 1), 3),
    ((float("inf"), 1), 3), ((1e308, 1e308), 3), ((1, 1), -1)],
    ids=["negative", "all-zero", "nan", "infinite", "sum-overflows",
         "negative-seed"])
def test_sampler_refuses_weights_it_cannot_draw_with(weights, seed):
    # unchecked, materialize raised inside numpy (or warned, for NaN)
    with pytest.raises(ValueError, match="sampler (weights|seed)"):
        binary_config("", Sampler(("0", "1"), weights, seed))


@pytest.mark.parametrize("text, match", [
    ("[]", "JSON object"),
    ('{"alphabet": ["0", "1"], "prefix": ""}', "JSON object"),
    ('{"alphabet": ["0", "1"], "prefix": "", "tail": "0"}', "JSON object"),
    ('{"prefix": "", "tail": {"kind": "constant", "symbol": "0"}}',
     "lacks the key 'alphabet'"),
    ('{"alphabet": ["0", "1"], "prefix": "", "tail": {"kind": "periodic"}}',
     "lacks the key 'word'"),
    ('{"alphabet": ["0", "1"], "prefix": "", "tail": {"symbol": "0"}}',
     "lacks the key 'kind'"),
    ('{"alphabet": ["0", "1"], "prefix": "", "tail": {"kind": "markov"}}',
     "unknown tail kind 'markov'"),
], ids=["list", "no-tail", "string-tail", "no-alphabet", "no-word",
        "no-kind", "unknown-kind"])
def test_config_json_refuses_malformed_documents(text, match):
    with pytest.raises(ValueError, match=match):
        config_from_json(text)


def test_scheduled_enumerator_must_write_alphabet_symbols():
    # all01 writes 0s and 1s, which are not layer-2 symbols
    with pytest.raises(ValueError):
        Configuration(ALPHA_AB, "", Scheduled("all01", "a"))
    with pytest.raises(ValueError):
        binary_config("", Scheduled("no-such-enumerator", "0"))


def test_config_json_round_trip():
    samples = [
        binary_config("101", Constant("0")),
        binary_config("", Periodic("01")),
        binary_config("1", Sampler(("0", "1"), (1, 3), 99)),
        Configuration(ALPHA_01S, "0S", Scheduled("all01", "0")),
    ]
    for x in samples:
        text = config_to_json(x)
        y = config_from_json(text)
        assert y == x
        assert json.loads(config_to_json(y)) == json.loads(text)
        assert y.materialize(64) == x.materialize(64)
