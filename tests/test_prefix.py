"""Prefix predicates, Kraft sums, and the deterministic Huffman constructor."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from adacode import (
    AdaptiveCodeError,
    huffman_build,
    huffman_total_length,
    is_prefix_code,
    kraft_sum,
    prefix_violation,
)
from adacode.prefix import canonical_codewords

from helpers import brute_force_huffman_total


def test_is_prefix_code_examples():
    assert is_prefix_code(["0", "10", "11"])
    assert not is_prefix_code(["0", "01"])
    assert is_prefix_code(["0"])
    assert not is_prefix_code(["0", "0"])  # duplicates are violations
    assert is_prefix_code(["00", "01", "10", "11"])


def test_prefix_violation_reports_pair():
    assert prefix_violation(["0", "01"]) == ("0", "01")
    assert prefix_violation(["1", "1"]) == ("1", "1")
    assert prefix_violation(["0", "10", "11"]) is None


def test_prefix_check_rejects_empty():
    with pytest.raises(AdaptiveCodeError):
        is_prefix_code([])


def test_kraft_sum_exact():
    assert kraft_sum(["0", "10", "11"]) == Fraction(1)
    assert kraft_sum(["0", "01"]) == Fraction(3, 4)
    assert kraft_sum(["0"]) == Fraction(1, 2)
    with pytest.raises(AdaptiveCodeError):
        kraft_sum([])


def test_huffman_examples():
    # distinct frequencies: the middle symbol is cheapest
    r = huffman_build([(0, 6), (1, 8), (2, 6)])
    assert r.codewords == {1: "0", 0: "10", 2: "11"}
    assert r.lengths == {0: 2, 1: 1, 2: 2}
    assert huffman_total_length([(0, 6), (1, 8), (2, 6)]) == 32

    # tied frequencies: the lowest-index tied symbol merges first, so the
    # highest-index one keeps the single-bit codeword
    r = huffman_build([(0, 7), (1, 6), (2, 7)])
    assert sorted(r.lengths.values()) == [1, 2, 2]
    assert r.codewords == {2: "0", 0: "10", 1: "11"}
    assert huffman_total_length([(0, 7), (1, 6), (2, 7)]) == 33

    # single entry convention
    assert huffman_build([(9, 20)]).codewords == {9: "0"}
    assert huffman_total_length([(9, 20)]) == 20

    # all equal weights balance
    assert huffman_total_length([(0, 1), (1, 1), (2, 1), (3, 1)]) == 8


def test_huffman_zero_frequencies_balance():
    r = huffman_build([(0, 0), (1, 0), (2, 0), (3, 0)])
    assert sorted(r.lengths.values()) == [2, 2, 2, 2]
    r = huffman_build([(0, 0), (1, 0), (2, 0)])
    assert sorted(r.lengths.values()) == [1, 2, 2]


def test_huffman_canonical_order():
    # codewords increase lexicographically when visited by (length, symbol)
    r = huffman_build([(0, 1), (1, 2), (2, 4), (3, 8)])
    ordered = sorted(r.codewords.items(), key=lambda kv: (len(kv[1]), kv[0]))
    words = [w for _, w in ordered]
    assert words == sorted(words)
    assert is_prefix_code(words)


def test_canonical_codewords_follow_rfc1951():
    # the example of RFC 1951, section 3.2.2: symbols A..H
    assert canonical_codewords((3, 3, 3, 3, 3, 2, 4, 4)) == (
        "010", "011", "100", "101", "110", "00", "1110", "1111",
    )
    words: dict = {}
    first = canonical_codewords(bytes([2, 1, 2]), words)
    assert first == ("10", "0", "11")
    assert canonical_codewords((1, 2, 2), words)[1] is first[0]  # shared strings
    assert canonical_codewords((2, 2, 2)) == ("00", "01", "10")  # Kraft sum 3/4
    for lengths, message in (
        ((), "at least one length"),
        ((1, 0), "below 1"),
        ((1, 1, 1), "oversubscribe the 1-bit"),
        ((2, 2, 2, 2, 3), "oversubscribe the 3-bit"),
    ):
        with pytest.raises(AdaptiveCodeError, match=message):
            canonical_codewords(lengths)


def test_huffman_input_validation():
    with pytest.raises(AdaptiveCodeError):
        huffman_build([])
    with pytest.raises(AdaptiveCodeError, match="distinct"):
        huffman_build([(0, 1), (0, 2)])
    with pytest.raises(AdaptiveCodeError, match="nonnegative"):
        huffman_build([(0, -1)])


def test_huffman_deterministic():
    entries = [(0, 3), (1, 3), (2, 3), (3, 1), (4, 1)]
    first = huffman_build(entries)
    for _ in range(5):
        assert huffman_build(entries).codewords == first.codewords


@given(
    st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=6)
)
@settings(max_examples=120)
def test_huffman_prefix_and_complete(frequencies):
    entries = list(enumerate(frequencies))
    result = huffman_build(entries)
    words = list(result.codewords.values())
    assert is_prefix_code(words)
    assert kraft_sum(words) == Fraction(1)


@given(
    st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6)
)
@settings(max_examples=120)
def test_huffman_total_is_optimal(frequencies):
    entries = list(enumerate(frequencies))
    assert huffman_total_length(entries) == brute_force_huffman_total(frequencies)


def test_huffman_optimal_on_random_larger_tables():
    rng = random.Random(20260818)
    for _ in range(40):
        count = rng.randint(2, 6)
        frequencies = [rng.randint(0, 8) for _ in range(count)]
        entries = list(enumerate(frequencies))
        assert huffman_total_length(entries) == brute_force_huffman_total(frequencies)
