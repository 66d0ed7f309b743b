"""Alphabets, contexts, and table lookups."""

import time

import pytest
from hypothesis import given, strategies as st

from adacode import (
    AdaptiveCodeError,
    Alphabet,
    CodeTable,
    TableError,
    alphabet_from_bytes,
    format_context,
    format_symbol,
    iter_contexts,
    table_from_text,
    table_get,
)
from adacode.builder import build_order1
from adacode.core import _context_count, is_bits

from helpers import example_order2_table


def test_alphabet_from_bytes_sorts_and_dedups():
    assert alphabet_from_bytes(b"abca").symbols == (97, 98, 99)
    assert alphabet_from_bytes(b"\x00").symbols == (0,)
    assert alphabet_from_bytes(bytes(range(256))).size == 256


@given(st.lists(st.tuples(st.integers(0, 255), st.integers(1, 3000)), min_size=1, max_size=12))
def test_alphabet_from_bytes_is_the_sorted_set_for_every_bytes_like_input(runs):
    # runs of one value, so that values first appear after a 4 KiB piece
    data = b"".join(bytes([value]) * count for value, count in runs)
    strided = memoryview(b"\xff" + data)[1::2]  # a view that is not contiguous
    for source in (data, bytearray(data), memoryview(data), strided):
        assert alphabet_from_bytes(source) == Alphabet(tuple(sorted(set(source))))


def test_alphabet_from_bytes_rejects_empty():
    with pytest.raises(AdaptiveCodeError, match="empty alphabet source"):
        alphabet_from_bytes(b"")


def test_alphabet_preserves_explicit_order():
    a = Alphabet((ord("b"), ord("a")))
    assert a.symbols == (98, 97)
    assert a.index_of(97) == 1
    assert len(a) == a.size == 2


def test_alphabet_rejects_duplicates_and_non_bytes():
    with pytest.raises(AdaptiveCodeError, match="distinct"):
        Alphabet((1, 1))
    with pytest.raises(AdaptiveCodeError, match="byte value"):
        Alphabet((0, 256))
    with pytest.raises(AdaptiveCodeError, match="empty alphabet"):
        Alphabet(())


def test_alphabet_index_of_unknown_symbol():
    a = alphabet_from_bytes(b"ab")
    with pytest.raises(TableError, match="not in alphabet"):
        a.index_of(ord("z"))


def test_iter_contexts_enumeration_order():
    got = list(iter_contexts(2, 2))
    assert got == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(list(iter_contexts(3, 3))) == 1 + 3 + 9 + 27


def test_format_symbol_and_context():
    a = alphabet_from_bytes(b"ab\x00~")
    assert format_symbol(ord("a")) == "a"
    assert format_symbol(0) == "\\x00"
    assert format_symbol(ord("~")) == "\\x7e"
    assert format_symbol(ord("\\")) == "\\x5c"
    assert format_context(a, ()) == "~"
    assert format_context(a, (a.index_of(ord("a")), a.index_of(0))) == "a\\x00"


def test_table_get_builder_cells():
    t = build_order1(alphabet_from_bytes(b"abc"))
    a = t.alphabet
    # repeating any symbol costs one bit
    for i in range(3):
        assert table_get(t, i, (i,)) == "0"
    assert table_get(t, a.index_of(ord("b")), (a.index_of(ord("c")),)) == "10"
    assert table_get(t, a.index_of(ord("b")), ()) == "10"


def test_table_get_order2_cells():
    t = example_order2_table()
    assert table_get(t, 0, ()) == "0"
    assert table_get(t, 0, (1, 0)) == "1"
    assert table_get(t, 1, (1, 1)) == "0"


def test_table_get_missing_row_and_bad_index():
    t = example_order2_table()
    with pytest.raises(TableError, match="no codeword"):
        table_get(t, 0, (0, 1, 1))  # longer than the order, never present
    with pytest.raises(TableError, match="no codeword"):
        table_get(t, 5, ())
    partial = CodeTable(
        alphabet=alphabet_from_bytes(b"ab"), order=1, rows={(): ("0", "1")}
    )
    with pytest.raises(TableError, match="no codeword"):
        table_get(partial, 0, (1,))


def test_code_table_requires_empty_context_row():
    with pytest.raises(TableError, match="empty-context row"):
        CodeTable(
            alphabet=alphabet_from_bytes(b"ab"), order=1, rows={(0,): ("0", "1")}
        )


def test_code_table_validates_rows():
    a = alphabet_from_bytes(b"ab")
    with pytest.raises(TableError, match="2 codewords|expected 2"):
        CodeTable(alphabet=a, order=1, rows={(): ("0",)})
    with pytest.raises(TableError, match="nonempty string of 0/1"):
        CodeTable(alphabet=a, order=1, rows={(): ("0", "")})
    with pytest.raises(TableError, match="nonempty string of 0/1"):
        CodeTable(alphabet=a, order=1, rows={(): ("0", "12")})
    # the first bad codeword in row order is the one reported
    with pytest.raises(TableError, match="got '1x'$"):
        CodeTable(alphabet=a, order=1, rows={(): ("0", "1"), (0,): ("1x", ""), (1,): ("", "2")})
    # a codeword that is not a str, here an unhashable list
    with pytest.raises(TableError, match=r"got \['1'\]$"):
        CodeTable(alphabet=a, order=1, rows={(): ("0", "1"), (0,): ("0", ["1"])})
    # a bad str before an unhashable word is still the one named
    with pytest.raises(TableError, match="got '1x'$"):
        CodeTable(alphabet=a, order=1, rows={(): ("0", "1"), (0,): ("1x", ["1"])})
    # a non-ASCII digit, a sign and a separator are not bits, nor is 1 itself
    for word in ("\u0661", "+1", "0_1", 1, True):
        with pytest.raises(TableError, match="nonempty string of 0/1"):
            CodeTable(alphabet=a, order=1, rows={(): ("0", "1"), (0,): ("0", word)})
    with pytest.raises(TableError, match="exceeds table order"):
        CodeTable(alphabet=a, order=1, rows={(): ("0", "1"), (0, 1): ("0", "1")})
    with pytest.raises(TableError, match="out of range"):
        CodeTable(alphabet=a, order=1, rows={(): ("0", "1"), (7,): ("0", "1")})
    with pytest.raises(TableError, match="order must be at least 1"):
        CodeTable(alphabet=a, order=0, rows={(): ("0", "1")})
    # table_to_text would write "order 1.5" or "order True", which it cannot read back
    for order in (1.5, 2.0, True):
        with pytest.raises(TableError, match="table order must be an int"):
            CodeTable(alphabet=a, order=order, rows={(): ("0", "1")})


def test_is_total():
    t = build_order1(alphabet_from_bytes(b"abc"))
    assert t.is_total()
    partial = CodeTable(
        alphabet=alphabet_from_bytes(b"ab"), order=1, rows={(): ("0", "1")}
    )
    assert not partial.is_total()
    # one row per context is total, whatever the order
    one = CodeTable(alphabet_from_bytes(b"a"), 3, {(0,) * k: ("0",) for k in range(4)})
    assert one.is_total() and not CodeTable(one.alphabet, 3, {(): ("0",)}).is_total()
    # a total table has more rows than its order, so a table with no more
    # answers without counting its h**(order + 1) contexts
    deep = table_from_text("order 10000000\nalphabet abc\n~ a 0\n~ b 10\n~ c 11\n")
    start = time.perf_counter()
    assert not deep.is_total()
    assert time.perf_counter() - start < 0.1


def test_context_count_is_the_number_of_contexts():
    for h in range(1, 5):
        for order in range(7):
            assert _context_count(h, order) == sum(1 for _ in iter_contexts(h, order))
    # the count is a closed form, not a sum over the orders
    deep = CodeTable(alphabet_from_bytes(b"ab"), 100_000, {(): ("0", "1")})
    start = time.perf_counter()
    assert not deep.is_total()
    assert time.perf_counter() - start < 1


@given(st.binary(min_size=1, max_size=64))
def test_alphabet_roundtrips_indices(data):
    a = alphabet_from_bytes(data)
    indices = [a.index_of(b) for b in data]
    assert a.to_bytes(indices) == data


def test_is_bits_edge_cases():
    assert is_bits("") and is_bits("0") and is_bits("10" * 40000)
    for s in ("0_1", " 01", "01 ", "+1", "-0", "\u0660\u0661", "0\u0661", "2"):
        assert not is_bits(s), s
    # long strings are checked in slices of 64 KiB: a bad character just
    # before and just after a slice boundary, and at either end
    n = 1 << 16
    s = "1" * (3 * n)
    assert is_bits(s)
    for at in (0, n - 1, n, 2 * n - 1, 2 * n, 3 * n - 1):
        for bad in ("2", "_", "\u0661"):
            assert not is_bits(s[:at] + bad + s[at + 1 :]), (at, bad)
