"""Pair statistics, entropy and rate figures, and report rendering."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import adacode.analysis
import adacode.codec
from adacode import (
    AdaptiveCodeError,
    CSV_COLUMNS,
    EncodeError,
    TableError,
    alphabet_from_bytes,
    compare_report,
    eh_positions,
    encode,
    h_a,
    huffman_entropy,
    huffman_rate,
    l_huffman,
    l_not_huffman,
    pair_stats,
    r_a_literal,
    render_comparison,
    render_csv,
    render_stats,
    table_from_text,
    table_get,
)
from adacode.builder import build_order1
from adacode.prefix import huffman_total_length

from helpers import literal_l_huffman, literal_l_not_huffman, random_string, random_table

W1 = b"abbbcabccaabccabbcba"
W2 = b"abbbccbccaabccaaacba"


def test_pair_stats_examples():
    s = pair_stats(W1)
    assert s.pairs == frozenset({2, 3, 8, 10, 13, 16})
    assert s.nrpairs == 6
    assert s.prate == Fraction(3, 10)

    s = pair_stats(W2)
    assert s.pairs == frozenset({2, 3, 5, 8, 10, 13, 15, 16})
    assert s.nrpairs == 8
    assert s.prate == Fraction(2, 5)

    assert pair_stats(b"aaaa").pairs == frozenset({1, 2, 3})
    assert pair_stats(b"a").pairs == frozenset()
    assert pair_stats(b"ab").nrpairs == 0


def test_pair_stats_rejects_empty():
    with pytest.raises(AdaptiveCodeError):
        pair_stats(b"")


def test_eh_positions_examples():
    assert eh_positions(b"aaaa") == frozenset()
    assert eh_positions(b"ab") == frozenset({2})
    assert eh_positions(b"abab") == frozenset({2, 3, 4})


def test_pairs_and_eh_partition_positions():
    rng = random.Random(7)
    alphabet = alphabet_from_bytes(b"abc")
    for _ in range(50):
        w = random_string(rng, alphabet, rng.randint(1, 60))
        pairs = pair_stats(w).pairs
        eh = eh_positions(w)
        # position i repeats iff position i+1 is not a transition
        assert {i + 1 for i in pairs} | eh == set(range(2, len(w) + 1))
        assert not ({i + 1 for i in pairs} & eh)


def test_huffman_entropy_examples():
    assert huffman_entropy(b"aaaa") == 0.0
    assert huffman_entropy(b"aabb") == 1.0
    expected = (6 * math.log2(20 / 6) + 8 * math.log2(20 / 8) + 6 * math.log2(20 / 6)) / 20
    assert abs(huffman_entropy(W1) - expected) < 1e-12


def test_huffman_rate_examples():
    assert huffman_rate(W1) == 32 / 20
    assert huffman_rate(b"aaaa") == 1.0


def test_entropy_rate_bound():
    rng = random.Random(11)
    for _ in range(60):
        size = rng.randint(1, 8)
        alphabet = alphabet_from_bytes(bytes(range(65, 65 + size)))
        w = random_string(rng, alphabet, rng.randint(1, 200))
        low = huffman_entropy(w)
        rate = huffman_rate(w)
        assert low - 1e-9 <= rate <= low + 1.0 + 1e-9


def test_l_not_huffman_examples():
    t3 = build_order1(alphabet_from_bytes(b"abc"))
    assert l_not_huffman(W1, t3) == 7
    assert l_not_huffman(W2, t3) == 9
    t2 = build_order1(alphabet_from_bytes(b"ab"))
    assert l_not_huffman(b"aaaa", t2) == 4


def test_l_not_huffman_closed_form_for_builder_tables():
    rng = random.Random(23)
    for size in (2, 3, 4):
        alphabet = alphabet_from_bytes(bytes(range(97, 97 + size)))
        t = build_order1(alphabet)
        for _ in range(20):
            w = random_string(rng, alphabet, rng.randint(1, 50))
            first = table_get(t, alphabet.index_of(w[0]), ())
            assert l_not_huffman(w, t) == pair_stats(w).nrpairs + len(first)
            if w[0] == alphabet.symbols[0]:
                assert l_not_huffman(w, t) == pair_stats(w).nrpairs + 1


def test_l_not_huffman_requires_order1():
    from helpers import example_order2_table

    with pytest.raises(TableError, match="order-1"):
        l_not_huffman(b"ab", example_order2_table())


def test_l_huffman_examples():
    assert l_huffman(b"aaaa") == 0.0
    assert l_huffman(b"ab") == 1.0
    assert l_huffman(b"abab") == 3.0


def test_l_huffman_matches_literal_formula_exhaustively():
    for length in range(1, 6):
        for symbols in product(b"abc", repeat=length):
            w = bytes(symbols)
            assert abs(l_huffman(w) - literal_l_huffman(w)) <= 1e-12


def test_h_a_example():
    t = build_order1(alphabet_from_bytes(b"ab"))
    assert h_a(b"aaaa", t) == 4.0


def test_r_a_literal():
    t = build_order1(alphabet_from_bytes(b"abc"))
    assert r_a_literal(W1, t) == 33 / 20
    assert r_a_literal(W2, t) == 31 / 20


def test_compare_report_fields():
    t = build_order1(alphabet_from_bytes(b"abc"))
    r = compare_report(W1, t)
    assert r.length == 20
    assert r.stats.nrpairs == 6
    assert r.encoded_bits == 33
    assert r.huffman_total_bits == 32
    assert r.l_not_huffman == 7
    assert abs(r.h_a - (r.l_not_huffman + r.l_huffman)) < 1e-12
    assert r.eh == eh_positions(W1)
    assert r.r_a_literal == 33 / 20

    r2 = compare_report(W2, t)
    assert r2.stats.nrpairs == 8
    assert r2.encoded_bits == 31
    assert r2.huffman_total_bits == 33


def test_compare_report_small():
    t = build_order1(alphabet_from_bytes(b"ab"))
    r = compare_report(b"aa", t)
    assert r.encoded_bits == 2
    assert r.huffman_total_bits == 2
    assert r.stats.prate == Fraction(1, 2)


def test_render_csv_columns_and_values():
    t = build_order1(alphabet_from_bytes(b"abc"))
    text = render_csv([("w1", compare_report(W1, t))])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "w1"
    assert cells[1] == "20"
    assert cells[2] == "6"
    assert cells[3] == "0.300000"
    assert cells[4] == "33"
    assert cells[5] == "32"
    assert len(cells) == len(CSV_COLUMNS)


def test_render_comparison_winner_column():
    t = build_order1(alphabet_from_bytes(b"abc"))
    text = render_comparison(
        [("w1", compare_report(W1, t)), ("w2", compare_report(W2, t))]
    )
    lines = text.strip().split("\n")
    assert lines[0].split()[0] == "string-id"
    assert lines[0].split()[-1] == "winner"
    assert lines[1].split()[-1] == "huffman"
    assert lines[2].split()[-1] == "adaptive"
    header = "  ".join(list(CSV_COLUMNS) + ["winner"])
    assert render_comparison([]) == header + "\n"


def test_render_stats_reports_bounds_without_asserting():
    t = build_order1(alphabet_from_bytes(b"ab"))
    text = render_stats("x", compare_report(b"ab", t))
    assert "huffman_bound_ok: true" in text
    assert "adaptive_bound_totals_ok:" in text
    assert "adaptive_bound_rates_ok:" in text
    assert "prate: 0.000000" in text


def test_render_stats_lists_at_most_32_positions():
    t = build_order1(alphabet_from_bytes(b"ab"))
    # 0, 1, 31, 32 and 33 pair positions, and the same counts of transitions
    strings = (b"a", b"ab", b"a" * 33, b"a" * 34)
    for w in strings + (b"ab" * 16 + b"b", b"ab" * 16 + b"a", b"ab" * 17):
        r = compare_report(w, t)
        fields = dict(line.split(": ", 1) for line in render_stats("x", r).splitlines())
        for key, positions in (("pairs", pair_stats(w).pairs), ("eh", eh_positions(w))):
            if len(positions) > 32:
                assert fields[key] == f"({len(positions)} positions)"
            else:
                assert fields[key] == "{" + ",".join(map(str, sorted(positions))) + "}"
        assert r.nrpairs == pair_stats(w).nrpairs
    # beyond 32 of each, rendering never builds the position sets
    r = compare_report(b"ab" * 20 + b"a" * 40, t)
    render_stats("x", r)
    assert "stats" not in vars(r) and "eh" not in vars(r)
    assert r.stats == pair_stats(r.w) and r.eh == eh_positions(r.w)


def test_encoded_bits_match_encode():
    rng = random.Random(3)
    for k in range(6):
        if k == 0:
            t = build_order1(alphabet_from_bytes(b"abc"))
        else:
            t = random_table(rng, 1, rng.randint(2, 6))
        for _ in range(20):
            w = random_string(rng, t.alphabet, rng.randint(1, 60))
            r = compare_report(w, t)
            assert r.encoded_bits == len(encode(t, w))
            assert r.l_not_huffman == l_not_huffman(w, t) == literal_l_not_huffman(w, t)
            assert r.h_a == h_a(w, t)
            assert r.r_a_literal == r_a_literal(w, t)


def test_codable_input_never_runs_the_encoder(monkeypatch):
    def refuse(*args):
        raise AssertionError("the encoder ran")

    monkeypatch.setattr(adacode.codec, "encode", refuse)
    t = build_order1(alphabet_from_bytes(b"abc"))
    r = compare_report(W1, t)
    assert (r.encoded_bits, r.l_not_huffman) == (33, 7)
    assert r_a_literal(W1, t) == 33 / 20


PARTIAL = table_from_text("order 1\nalphabet ab\n~ a 0\n~ b 1\na a 0\na b 1\n")


@pytest.mark.parametrize(
    "w, table, message, position",
    [
        (b"abcab", build_order1(alphabet_from_bytes(b"ab")), "symbol c not in alphabet", 3),
        (b"aabba", PARTIAL, "no codeword for (symbol index 1, context 'b')", 4),
    ],
)
def test_uncodable_input_raises_the_encoders_error(w, table, message, position):
    for figure in (compare_report, l_not_huffman, h_a, r_a_literal):
        with pytest.raises(EncodeError) as info:
            figure(w, table)
        assert str(info.value) == f"{message} (position {position})"
        assert info.value.position == position


CHUNK = adacode.analysis._PAIR_CHUNK


def _counted_figures(w: bytes, t) -> dict:
    """Every field of compare_report, from a tuple per pair and a count of
    the symbols, the encoder's bits and the run-cost oracle."""
    pairs = Counter(zip(w, w[1:]))
    into: Counter = Counter()
    for (a, b), f in pairs.items():
        if a != b:
            into[b] += f
    transitions = math.fsum(
        f * (1.0 + math.log2(into[b] / f)) for (a, b), f in pairs.items() if a != b
    )
    freqs = sorted(Counter(w).items())
    n, bits, run = len(w), len(encode(t, w)), literal_l_not_huffman(w, t)
    huffman_bits = huffman_total_length(freqs)
    return {
        "length": n,
        "nrpairs": sum(f for (a, b), f in pairs.items() if a == b),
        "encoded_bits": bits,
        "r_a_literal": bits / n,
        "huffman_total_bits": huffman_bits,
        "huffman_rate": huffman_bits / n,
        "huffman_entropy": sum(f * math.log2(n / f) for _, f in freqs) / n,
        "l_not_huffman": run,
        "l_huffman": transitions,
        "h_a": run + transitions,
    }


@settings(max_examples=40, deadline=None)
@given(
    chunk=st.sampled_from([1, 2, 5, 16, CHUNK]),
    # the length as (chunks, extra symbols): 1, 2, c - 1, c, c + 1, c + 2, 3c
    shape=st.sampled_from([(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (1, 2), (3, 0)]),
    size=st.one_of(st.integers(2, 8), st.integers(9, 256), st.just(256)),
    seed=st.integers(0, 2**32 - 1),
)
def test_figures_are_the_same_at_every_chunk_boundary(chunk, shape, size, seed):
    rng = random.Random(seed)
    t = random_table(rng, 1, size)
    # skewed weights, so repeated symbols and runs occur at every size
    weights = [1 / (i + 1) for i in range(size)]
    w = bytes(rng.choices(t.alphabet.symbols, weights, k=max(1, shape[0] * chunk + shape[1])))
    with mock.patch.object(adacode.analysis, "_PAIR_CHUNK", chunk):
        r, expected = compare_report(w, t), _counted_figures(w, t)
        assert {name: getattr(r, name) for name in expected} == expected
        assert l_huffman(w) == r.l_huffman
        assert l_not_huffman(w, t) == r.l_not_huffman
        assert h_a(w, t) == r.h_a
        assert r_a_literal(w, t) == r.r_a_literal
        if len(w) <= 64:  # the transition-cost oracle is quadratic
            assert math.isclose(r.l_huffman, literal_l_huffman(w), rel_tol=1e-12, abs_tol=1e-12)
        for other in (bytearray(w), memoryview(w)):
            assert compare_report(other, t) == r


def test_compare_report_memory_does_not_grow_with_the_input():
    rng = random.Random(11)
    symbols = bytes(range(0x61, 0x71))
    w = rng.randbytes(1 << 20).translate(symbols * 16)  # 1 MiB over 16 symbols
    t = build_order1(alphabet_from_bytes(symbols))
    compare_report(w, t)
    tracemalloc.start()
    try:
        compare_report(w, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
