"""Encoding, greedy decoding, and their invariants."""

import gc
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from adacode import (
    AdaptiveFunction,
    Alphabet,
    CodeTable,
    ContainerError,
    DecodeError,
    EncodeError,
    GACode,
    IncrementalEncoder,
    alphabet_from_bytes,
    decode,
    decode_payload,
    encode,
    format_context,
    format_symbol,
    ga_decode,
    ga_encode,
    iter_contexts,
    lookup_from_table,
    order_n_function,
    pack_bits,
    prefix_predicate,
    read_container,
    table_get,
    write_container,
)
from adacode import codec
from adacode.builder import build_order1
from adacode.codec import _code

from helpers import (
    example_order2_table,
    nonprefix_order2_table,
    random_string,
    random_table,
    scan_decode,
    scan_decode_outcome,
    unary_table,
)


def test_prefix_predicate_examples():
    assert prefix_predicate(example_order2_table())
    assert not prefix_predicate(nonprefix_order2_table())
    assert prefix_predicate(build_order1(alphabet_from_bytes(b"abc")))


def test_prefix_predicate_runs_once_per_table(monkeypatch):
    good, bad = example_order2_table(), nonprefix_order2_table()
    assert decode(good, "0101").output == b"abaa"
    with pytest.raises(DecodeError, match="refused"):
        decode(bad, "0")

    def unused(row):
        raise AssertionError("prefix_predicate ran again on a table it has seen")

    monkeypatch.setattr("adacode.codec.is_prefix_code", unused)
    assert decode(good, "0101").output == b"abaa"
    assert prefix_predicate(good) and not prefix_predicate(bad)
    with pytest.raises(DecodeError, match="refused") as info:
        decode(bad, "0")
    assert (info.value.position, info.value.context) == (None, None)
    # an equal table is a new value, checked on its own first call
    with pytest.raises(AssertionError, match="ran again"):
        decode(example_order2_table(), "0101")


def test_encode_examples():
    ex = example_order2_table()
    assert encode(ex, b"abaa") == "0101"
    assert encode(ex, b"") == ""
    t = build_order1(alphabet_from_bytes(b"abc"))
    assert len(encode(t, b"abbbcabccaabccabbcba")) == 33


def test_encode_non_prefix_table_still_encodes():
    # the prefix property gates decoding, not encoding
    t = nonprefix_order2_table()
    assert encode(t, b"ab") == "0" + "01"


def test_encode_unknown_symbol_position():
    t = build_order1(alphabet_from_bytes(b"abc"))
    with pytest.raises(EncodeError, match="not in alphabet") as info:
        encode(t, b"abd")
    assert info.value.position == 3
    assert "position 3" in str(info.value)


def test_encode_missing_row():
    from adacode import CodeTable

    partial = CodeTable(
        alphabet=alphabet_from_bytes(b"ab"), order=1, rows={(): ("0", "1")}
    )
    with pytest.raises(EncodeError, match="no codeword") as info:
        encode(partial, b"ab")
    assert info.value.position == 2

    # a kept encoder fails the same way the second time, and names the
    # row's own context
    partial = CodeTable(alphabet_from_bytes(b"ab"), 1, {(): ("0", "1"), (0,): ("0", "1")})
    encoder = IncrementalEncoder(partial)
    for _ in range(2):
        with pytest.raises(EncodeError, match=r"^no codeword .* context 'b'\) \(position 3\)$"):
            encoder.feed(b"abb")


def _wide_order2_text() -> tuple[CodeTable, bytes]:
    """A random total order-2 table over 32 symbols and 8 Ki symbols of
    text, which visit 1,026 of its 1,057 rows."""
    rng = random.Random(5)
    table = random_table(rng, 2, 32)
    return table, random_string(rng, table.alphabet, 1 << 13)


def test_encoder_holds_no_rows_of_its_own():
    # a feed holds its chunk's words, indices and bits, whatever the number
    # of rows it visits, and a failed feed changes no later feed
    table, data = _wide_order2_text()
    bits = encode(table, data)
    peak = _traced_peak(lambda: IncrementalEncoder(table).feed(data))
    assert peak < 16 * len(data) + 2 * len(bits)
    t = random_table(random.Random(3), 2, 4)
    a, b = t.alphabet.symbols[:2]
    outside = bytes(v for v in range(256) if v not in t.alphabet)
    enc, fresh = IncrementalEncoder(t), IncrementalEncoder(t)
    assert enc.feed(bytes([a, a, b])) == fresh.feed(bytes([a, a, b]))
    with pytest.raises(EncodeError, match=r"not in alphabet \(position 5\)$"):
        enc.feed(bytes([a]) + outside)
    after = bytes([b, a, a, b, b, a])
    assert enc.feed(after) == fresh.feed(after)
    for encoder in (enc, fresh):
        with pytest.raises(EncodeError, match=r"not in alphabet \(position 11\)$"):
            encoder.feed(bytes([a]) + outside)


def test_encoder_cost_does_not_grow_with_the_order():
    # no position of a feed shorter than the order has a full window, so a
    # feed builds no window slices
    table = CodeTable(
        alphabet_from_bytes(b"ab"), 100_000, {ctx: ("0", "1") for ctx in ((), (0,), (0, 0))}
    )
    assert _traced_peak(lambda: encode(table, b"a")) < 1 << 20

    def three_feeds():
        encoder = IncrementalEncoder(table)
        assert [encoder.feed(b"a") for _ in range(3)] == ["0"] * 3

    assert _traced_peak(three_feeds) < 1 << 20


def test_encoder_reaches_deep_orders():
    # order 2,000 over ab with every all-a prefix row, whose codewords
    # alternate with the window's length: a feed past the order chains 2,001
    # lookup levels, materialised every 32, and matches the GA rule's bits
    order, rows = 2000, {}
    for n in range(order + 1):
        rows[(0,) * n] = ("0", "1") if n % 2 else ("1", "0")
    table = CodeTable(alphabet_from_bytes(b"ab"), order, rows)
    data = b"a" * 2300 + b"b"
    encoder = IncrementalEncoder(table)
    bits = "".join(encoder.feed(data[i : i + 700]) for i in range(0, len(data), 700))
    assert bits == "10" * 1000 + "1" * 300 + "0" == encode(table, data)
    code = GACode(order_n_function(order), lookup_from_table(table))
    assert ga_encode(code, data) == bits
    assert decode(table, bits).output == data
    # a feed holds at most 32 slices of its symbol indices at a time
    encoder = IncrementalEncoder(table)
    assert _traced_peak(lambda: encoder.feed(b"a" * 4000)) < 100 * 4000
    # position 2,102 is the first whose window holds the b, in its last
    # place; the windows of later positions hold it in a materialised level
    with pytest.raises(EncodeError) as info:
        encode(table, b"a" * 2100 + b"b" + b"a" * 2100)
    context = "a" * 1999 + "b"
    assert str(info.value) == f"no codeword for (symbol index 0, context '{context}') (position 2102)"
    assert info.value.position == 2102


def test_encoder_trie_is_bounded_by_the_rows_keys():
    # a sparse order-64 table of 300 random full windows over abcd: the trie
    # holds at most order - 1 dicts of its own per row, which in the deep
    # levels hold one key each
    rng = random.Random(64)
    row, windows = ("0", "10", "110", "111"), set()
    while len(windows) < 300:
        windows.add(tuple(rng.choices(range(4), k=64)))
    first = min(windows)  # with the rows of its prefixes, so that it can be encoded
    rows = dict.fromkeys([first[:n] for n in range(64)] + sorted(windows), row)
    table = CodeTable(alphabet_from_bytes(b"abcd"), 64, rows)
    keys = sum(map(len, rows))
    assert _traced_peak(lambda: IncrementalEncoder(table)) < 2 * sys.getsizeof({0: None}) * keys
    w = table.alphabet.to_bytes(first + (3,))
    assert decode(table, encode(table, w)).output == w


def test_incremental_matches_batch():
    t = build_order1(alphabet_from_bytes(b"abc"))
    w = b"abbbcabccaabccabbcba"
    whole = encode(t, w)
    for split in range(len(w) + 1):
        enc = IncrementalEncoder(t)
        assert enc.feed(w[:split]) + enc.feed(w[split:]) == whole
    enc = IncrementalEncoder(t)
    assert "".join(enc.feed(bytes([b])) for b in w) == whole


def _bits_or_error(encoder) -> str | tuple[str, int]:
    try:
        return encoder()
    except EncodeError as exc:
        return str(exc), exc.position


def _scan_encode(table: CodeTable, w: bytes) -> str | tuple[str, int]:
    """Codeword by codeword, or the EncodeError message and 1-based position
    of the first symbol outside the alphabet or under a missing row."""
    symbols = table.alphabet.symbols
    out = []
    for i, value in enumerate(w):
        window = tuple(symbols.index(v) for v in w[max(0, i - table.order) : i])
        row = table.rows.get(window)
        if value not in symbols:
            reason = f"symbol {format_symbol(value)} not in alphabet"
        elif row is None:
            context = format_context(table.alphabet, window)
            reason = f"no codeword for (symbol index {symbols.index(value)}, context '{context}')"
        else:
            out.append(row[symbols.index(value)])
            continue
        return f"{reason} (position {i + 1})", i + 1
    return "".join(out)


def _windows(alphabet: Alphabet, order: int, w: bytes) -> set:
    """The order-n context of every position of w, a string over alphabet."""
    indices = tuple(map(alphabet.index_of, w))
    return {indices[max(0, i - order) : i] for i in range(len(w))}


def test_encoders_agree_on_random_tables():
    # encode, IncrementalEncoder fed in random chunks (often shorter than the
    # order) and ga_encode under the order-n rule give the same bits, or fail
    # at the same position; the table encoders also with the same message.
    # Orders up to 8 take the encoder's trie eight levels deep.
    rng = random.Random(61)
    kinds = dict.fromkeys(("encoded", "outside head", "outside body", "missing row"), 0)
    for case in range(300):
        order = rng.randint(1, 8)
        # a total table of at most 511 rows
        size = rng.randint(2, 4 if order < 4 else 3 if order < 6 else 2)
        table = random_table(rng, order, size)
        w = random_string(rng, table.alphabet, rng.randint(0, 40))
        visited = sorted(ctx for ctx in _windows(table.alphabet, order, w) if ctx)
        if case % 4 == 0 and visited:
            dropped = rng.choice(visited)
            rows = {ctx: row for ctx, row in table.rows.items() if ctx != dropped}
            table = CodeTable(table.alphabet, order, rows)
        outside = bytes([rng.choice([v for v in range(256) if v not in table.alphabet])])
        if case % 3 == 0:
            # a byte outside the alphabet after a long run of cached contexts
            w += table.alphabet.to_bytes((0, 1)) * 50 + outside
        elif case % 3 == 1:
            # a byte outside the alphabet among the first order symbols
            at = rng.randint(0, min(order - 1, len(w)))
            w = w[:at] + outside + w[at:]
        if case % 2:
            cuts = sorted(rng.randint(0, len(w)) for _ in range(rng.randint(0, 4)))
        else:
            cuts = sorted(rng.sample(range(len(w) + 1), min(len(w) + 1, 12)))
        chunks = [w[i:j] for i, j in zip([0, *cuts], [*cuts, len(w)])]

        def chunked() -> str:
            enc = IncrementalEncoder(table)
            return "".join(enc.feed(chunk) for chunk in chunks)

        code = GACode(order_n_function(order), lookup_from_table(table))
        expected = _scan_encode(table, w)
        assert _bits_or_error(lambda: encode(table, w)) == expected
        assert _bits_or_error(chunked) == expected
        ga = _bits_or_error(lambda: ga_encode(code, w))
        assert ga == expected if isinstance(expected, str) else ga[1] == expected[1]
        if isinstance(expected, str):
            kinds["encoded"] += 1
        elif w[expected[1] - 1] in table.alphabet:
            kinds["missing row"] += 1
        else:
            kinds["outside head" if expected[1] <= order else "outside body"] += 1
    assert min(kinds.values()) >= 20, kinds


def _faults(order: int) -> list[tuple[CodeTable, bytes, str]]:
    """Four tables and strings whose encoding fails at position order + 2, with
    a full window, and the message that names the failure: the window's row
    missing from a dict of the trie that holds its sibling; no full window
    that starts with the window's first order - 1 symbols, so that the trie
    has no dict for them; a byte outside the alphabet that the windows of
    the positions after it hold; and one that ends the string."""
    alphabet = alphabet_from_bytes(b"abc")
    if order == 3:
        w = b"cabcab"
        whole = CodeTable(alphabet, 3, dict.fromkeys(iter_contexts(3, 3), ("0", "10", "11")))
    else:  # every context of a random string, whose windows all differ
        w = random_string(random.Random(order), alphabet, 2 * order)
        rows = dict.fromkeys(_windows(alphabet, order, w), ("0", "10", "11"))
        whole = CodeTable(alphabet, order, rows)
    at = order + 1  # the index of position order + 2
    window = tuple(map(alphabet.index_of, w[at - order : at]))
    sibling = window[:-1] + ((window[-1] + 1) % 3,)
    rows = {ctx: row for ctx, row in whole.rows.items() if ctx != window}
    last = CodeTable(alphabet, order, {**rows, sibling: ("0", "10", "11")})
    rows = {ctx: row for ctx, row in rows.items() if len(ctx) < order or ctx[:-1] != window[:-1]}
    inner = CodeTable(alphabet, order, rows)
    missing = (
        f"no codeword for (symbol index {alphabet.index_of(w[at])}, "
        f"context '{w[at - order : at].decode()}') (position {at + 1})"
    )
    outside = f"symbol x not in alphabet (position {at + 1})"
    return [
        (last, w, missing),
        (inner, w, missing),
        (whole, w[:at] + b"x" + w[at:], outside),
        (whole, w[:at] + b"x", outside),
    ]


@pytest.mark.parametrize("order", [3, 40])
def test_encode_errors_name_the_first_failing_position(order):
    # at order 40 a feed materialises its first 32 lookup levels, where the
    # positions after a byte outside the alphabet fail before its own does
    faults = _faults(order)
    if order == 3:
        missing = "no codeword for (symbol index 0, context 'abc') (position 5)"
        assert [message for *_, message in faults] == [missing] * 2 + [
            "symbol x not in alphabet (position 5)"
        ] * 2
    for table, w, message in faults:
        expected = (message, order + 2)
        assert _scan_encode(table, w) == expected
        assert _bits_or_error(lambda: encode(table, w)) == expected
        for cut in range(len(w) + 1):
            encoder = IncrementalEncoder(table)
            assert _bits_or_error(lambda: encoder.feed(w[:cut]) + encoder.feed(w[cut:])) == expected


def test_decode_examples():
    ex = example_order2_table()
    trace = decode(ex, "0101")
    assert trace.output == b"abaa"
    assert trace.iterations == 4
    assert trace.bits_consumed == 4

    ab = build_order1(alphabet_from_bytes(b"ab"))
    trace = decode(ab, "010")
    assert trace.output == b"ab"
    assert trace.iterations == 2

    assert decode(ex, "").output == b""
    assert decode(ex, "").iterations == 0


def test_decode_refuses_non_prefix_table():
    with pytest.raises(DecodeError, match="refused") as info:
        decode(nonprefix_order2_table(), "0")
    assert (info.value.position, info.value.context) == (None, None)
    repeated = CodeTable(alphabet=alphabet_from_bytes(b"ab"), order=1, rows={(): ("0", "0")})
    with pytest.raises(DecodeError, match="refused"):
        decode(repeated, "0")


def test_decode_rejects_bad_bits():
    with pytest.raises(DecodeError, match="only 0 and 1") as info:
        decode(example_order2_table(), "012")
    assert (info.value.bit_offset, info.value.position, info.value.context) == (None, None, None)


def _assert_symbol_position(error: DecodeError, table: CodeTable, bits: str) -> None:
    """A decode error names the symbol after those its bit offset ends, and
    the window of up to table.order symbols before it."""
    before = decode(table, bits[: error.bit_offset]).output
    assert error.position == 1 + len(before)
    assert error.context == before[max(0, len(before) - table.order) :]


def test_decode_error_offsets():
    ab = build_order1(alphabet_from_bytes(b"ab"))
    # after 'a' (bit 0), "1" begins b's codeword "10" and then input ends
    with pytest.raises(DecodeError, match="truncated input at bit offset 1") as info:
        decode(ab, "01")
    assert info.value.bit_offset == 1
    assert info.value.position == 2
    _assert_symbol_position(info.value, ab, "01")
    with pytest.raises(DecodeError, match="^truncated input at bit offset 1$") as info:
        decode_payload(ab, "01", 2)
    assert (info.value.bit_offset, info.value.position, info.value.context) == (1, 2, b"a")

    from adacode import CodeTable

    t = CodeTable(
        alphabet=alphabet_from_bytes(b"ab"), order=1, rows={(): ("00", "01")}
    )
    with pytest.raises(DecodeError, match="undecodable at bit offset 0") as info:
        decode(t, "11")
    assert info.value.bit_offset == 0
    assert info.value.position == 1
    _assert_symbol_position(info.value, t, "11")

    def order1(symbols: bytes, row: tuple[str, ...]) -> CodeTable:
        contexts = iter_contexts(len(symbols), 1)
        return CodeTable(alphabet_from_bytes(symbols), order=1, rows=dict.fromkeys(contexts, row))

    # a 3-bit decode window: after "0" and "10", one bit is left and "0" fits
    # it; after "0", the two bits left begin "110" inside the window
    window3 = order1(b"abcd", ("0", "10", "110", "111"))
    assert decode(window3, "0100").output == b"aba"
    assert scan_decode_outcome(window3, "011") == ("truncated", 1)
    with pytest.raises(DecodeError, match="^truncated input at bit offset 1$") as info:
        decode(window3, "011")
    _assert_symbol_position(info.value, window3, "011")
    # a 2-bit window with a hole at "11", and a 3-bit one whose longest
    # codeword "1110" lies beyond it, with a hole at "1111"
    holes = (order1(b"abc", ("00", "01", "10")), order1(b"abcd", ("0", "10", "110", "1110")))
    for table, bits, offset in ((holes[0], "0011", 2), (holes[1], "01111", 1)):
        assert scan_decode_outcome(table, bits) == ("undecodable", offset)
        with pytest.raises(DecodeError, match=f"^undecodable at bit offset {offset}$") as info:
            decode(table, bits)
        _assert_symbol_position(info.value, table, bits)


def test_decode_missing_row_reports_context():
    from adacode import CodeTable

    partial = CodeTable(
        alphabet=alphabet_from_bytes(b"ab"), order=1, rows={(): ("0", "1")}
    )
    with pytest.raises(DecodeError, match="no codeword row for context 'a'") as info:
        decode(partial, "00")
    assert (info.value.bit_offset, info.value.position, info.value.context) == (1, 2, b"a")


def test_decode_max_symbols():
    ab = build_order1(alphabet_from_bytes(b"ab"))
    bits = encode(ab, b"abab")
    trace = decode(ab, bits + "000", max_symbols=4)
    assert trace.output == b"abab"
    assert trace.bits_consumed == len(bits)
    assert decode(ab, bits, max_symbols=0).output == b""


def test_decode_takes_only_a_str_or_bytes():
    ab = build_order1(alphabet_from_bytes(b"ab"))
    code = GACode(order_n_function(1), lookup_from_table(ab))
    assert decode(ab, b"\x50").output == ga_decode(code, b"\x50") == decode(ab, "01010000").output
    for bad in (bytearray(b"\x50"), memoryview(b"\x50"), [0, 1], None, 5):
        for run in (lambda: decode(ab, bad), lambda: ga_decode(code, bad)):
            with pytest.raises(DecodeError, match="^bit sequence must be a str or bytes, not "):
                run()


def test_decode_max_symbols_must_be_none_or_an_int():
    ab = build_order1(alphabet_from_bytes(b"ab"))
    for bad in (1.5, 2.0, True, False, "1"):
        with pytest.raises(DecodeError, match="^max_symbols must be None or an int") as info:
            decode(ab, "010", max_symbols=bad)
        assert info.value.bit_offset is info.value.position is info.value.context is None
    assert decode(ab, "010", max_symbols=1).output == b"a"
    assert decode(ab, "010", max_symbols=-1).output == b""


@st.composite
def _stretched_prefix_rows(draw, size: int) -> tuple[str, ...]:
    """A prefix code of size words: the leaves of a random binary tree, each
    stretched by 0 to 24 random bits or by zeros and a 1, so that codewords
    of 1-8, 9-16 and more than 16 bits all occur, in complete and
    incomplete rows."""
    words = [""]
    while len(words) < size:
        word = words.pop(draw(st.integers(0, len(words) - 1)))
        words += [word + "0", word + "1"]
    stretches = st.one_of(st.just(0), st.integers(1, 8), st.integers(9, 24))
    out = []
    for word in words:
        extra = draw(stretches)
        bits = st.text("01", min_size=extra, max_size=extra)
        # a run of zeros then a 1 is what zero padding follows furthest
        out.append(word + draw(bits | st.just("0" * (extra - 1) + "1"[:extra])))
    return tuple(out)


@st.composite
def _grouped_prefix_rows(draw, size: int) -> tuple[str, ...]:
    """The words of _stretched_prefix_rows under a stem of 0 to 12 bits,
    some stretched by up to 230 more random bits, so that one first byte
    holds words of several lengths from 9 to 255 bits."""
    stem = draw(st.text("01", max_size=12))
    out = []
    for word in draw(_stretched_prefix_rows(size)):
        extra = draw(st.one_of(st.just(0), st.integers(1, 230)))
        tail = bin(draw(st.integers(1 << extra, (2 << extra) - 1)))[3:]  # extra bits
        out.append((stem + word + tail)[:255])
    return tuple(out)


def _decode_outcome(table: CodeTable, bits: str):
    try:
        return decode(table, bits).output
    except DecodeError as exc:
        return (str(exc), exc.bit_offset, exc.position, exc.context)


def _oracle_outcome(table: CodeTable, bits: str):
    """scan_decode_outcome in the shape of _decode_outcome: the message,
    offset, position and context that a failure must carry."""
    out = scan_decode_outcome(table, bits)
    if isinstance(out, bytes):
        return out
    kind, offset = out
    before = scan_decode_outcome(table, bits[:offset])
    context = before[max(0, len(before) - table.order) :]
    name = format_context(table.alphabet, tuple(map(table.alphabet.index_of, context)))
    message = {
        "truncated": "truncated input",
        "undecodable": "undecodable",
        "missing row": f"no codeword row for context '{name}'",
    }[kind]
    return (f"{message} at bit offset {offset}", offset, len(before) + 1, context)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decode_matches_the_scan_oracle_at_every_cut(draw):
    data = draw.draw
    size = data(st.integers(2, 5))
    order = data(st.integers(1, 2))
    symbols = data(st.sets(st.integers(0, 255), min_size=size, max_size=size))
    alphabet = Alphabet(tuple(sorted(symbols)))
    contexts = list(iter_contexts(size, order))
    full = CodeTable(alphabet, order, {ctx: data(_stretched_prefix_rows(size)) for ctx in contexts})
    dropped = data(st.sets(st.sampled_from(contexts[1:]), max_size=2))
    table = CodeTable(alphabet, order, {c: r for c, r in full.rows.items() if c not in dropped})
    text = data(st.lists(st.sampled_from(alphabet.symbols), max_size=10).map(bytes))
    bits = encode(full, text)
    stray = data(st.text("01", max_size=8))
    for cut in range(len(bits) + 1):
        for cut_bits in (bits[:cut], bits[:cut] + stray):
            assert _decode_outcome(table, cut_bits) == _oracle_outcome(table, cut_bits)
            # the packed payload decodes as its padded '0'/'1' form
            packed = pack_bits(cut_bits).data
            padded = cut_bits.ljust(8 * len(packed), "0")
            for count in range(len(text) + 2):
                outcomes = []
                for payload in (packed, padded):
                    try:
                        outcomes.append(decode_payload(table, payload, count))
                    except (DecodeError, ContainerError) as exc:
                        outcomes.append((type(exc), str(exc), vars(exc)))
                assert outcomes[0] == outcomes[1]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_long_codeword_groups_decode_as_the_scan_oracle(draw):
    # the clean payload, trailing bits, cuts and bit flips decode through the
    # flat groups of long codewords, in decode and ga_decode alike, to the
    # oracle's bytes or to its error kind, bit offset, position and context
    data = draw.draw
    size = data(st.integers(2, 5))
    symbols = data(st.sets(st.integers(0, 255), min_size=size, max_size=size))
    alphabet = Alphabet(tuple(sorted(symbols)))
    rows = {ctx: data(_grouped_prefix_rows(size)) for ctx in iter_contexts(size, 1)}
    table = CodeTable(alphabet, 1, rows)
    code = GACode(order_n_function(1), lookup_from_table(table))
    text = data(st.lists(st.sampled_from(alphabet.symbols), min_size=1, max_size=8).map(bytes))
    bits = encode(table, text)
    payloads = [bits, bits + data(st.text("01", min_size=1, max_size=9))]
    for cut in data(st.lists(st.integers(0, len(bits) - 1), min_size=1, max_size=3)):
        flip = "10"[int(bits[cut])]
        # cut before a flipped bit, right after it, and not at all
        payloads += [bits[:cut], bits[:cut] + flip, bits[:cut] + flip + bits[cut + 1 :]]
    for payload in payloads:
        expected = _oracle_outcome(table, payload)
        assert _decode_outcome(table, payload) == expected
        try:
            got = ga_decode(code, payload)
        except DecodeError as exc:
            got = (str(exc), exc.bit_offset, exc.position, exc.context)
        assert got == expected


def test_roundtrip_random_tables_and_oracle():
    rng = random.Random(97)
    cases = []
    for _ in range(150):
        table = random_table(rng, rng.randint(1, 3), rng.randint(2, 5))
        cases.append((table, random_string(rng, table.alphabet, rng.randint(0, 60))))
    # every codeword length from 1 to 255 bits, the longest ones included
    unary = unary_table()
    long_words = random_string(rng, unary.alphabet, 200) + b"\xff\xfe\xff\x00"
    cases.append((unary, long_words))
    # wide rows, whose decode window is often shorter than their longest codeword
    for _ in range(40):
        table = random_table(rng, rng.randint(1, 2), rng.randint(6, 40))
        cases.append((table, random_string(rng, table.alphabet, rng.randint(0, 60))))
    for row in set(unary.rows.values()):
        # the codewords of up to 8 bits fill their spans with leaf cells, and
        # the 248 longer ones, all under the first byte 11111111, share one
        # flat group of strings and cells, so no entry holds a list; the
        # table ends in one successor slot per symbol and the row's context
        symbols = unary.alphabet.symbols
        cells = [(symbols[i], len(word), 256 + i) for i, word in enumerate(row)]
        table = _code(zip(cells, row), 256, b"\x07")
        assert table[256:] == [None] * 256 + [b"\x07"]
        assert set(table[:255]) <= set(cells)
        group = tuple(x for cell, word in zip(cells, row) if len(word) > 8 for x in (word, cell))
        assert table[255] == (group, 0, 255) and len(group) == 2 * 248
    for table, w in cases:
        bits = encode(table, w)
        trace = decode(table, bits)
        assert trace.output == w
        assert trace.iterations == len(w)
        assert trace.bits_consumed == len(bits)
        oracle_out, oracle_iterations = scan_decode(table, bits)
        assert oracle_out == w
        assert oracle_iterations == len(w)
    n, bits = len(long_words), encode(unary, long_words)
    content = read_container(write_container(unary, n, bits, builder_mode=False))
    assert decode_payload(content.table, content.payload_bits, n) == long_words
    code = GACode(order_n_function(1), lookup_from_table(unary))
    assert ga_decode(code, bits) == long_words


def test_iteration_count_formula():
    rng = random.Random(1213)
    for _ in range(50):
        table = random_table(rng, rng.randint(1, 3), rng.randint(2, 5))
        w = random_string(rng, table.alphabet, rng.randint(1, 50))
        bits = encode(table, w)
        trace = decode(table, bits)
        indices = [table.alphabet.index_of(b) for b in w]
        lengths = [
            len(table_get(table, indices[i], tuple(indices[max(0, i - table.order) : i])))
            for i in range(len(indices))
        ]
        assert sum(lengths) == len(bits)
        assert trace.iterations == len(bits) - sum(length - 1 for length in lengths)
        assert trace.iterations == len(w)


def test_encode_length_additivity():
    rng = random.Random(5)
    t = build_order1(alphabet_from_bytes(b"abcd"))
    for _ in range(20):
        w = random_string(rng, t.alphabet, rng.randint(0, 40))
        split = rng.randint(0, len(w))
        enc = IncrementalEncoder(t)
        first = enc.feed(w[:split])
        second = enc.feed(w[split:])
        assert len(first) + len(second) == len(encode(t, w))


def _chunked_outcome(run):
    try:
        return run()
    except (DecodeError, ContainerError) as exc:
        return type(exc), str(exc), vars(exc)


@pytest.mark.parametrize("chunk", [1, 2, 7, 8])
def test_decode_chunk_boundaries_change_no_result_or_error(monkeypatch, chunk):
    # window buffers of chunk Ki bits decode as one buffer does: the same
    # output, or the same error with the same message, bit offset, position
    # and context, for payloads cut or with a bit flipped around each
    # boundary and for trailing garbage, with and without a symbol count
    rng = random.Random(chunk)
    size = chunk << 10  # bits per buffer
    long_words = ("0", "1" * 300)  # longer than a container allows
    wide = CodeTable(alphabet_from_bytes(b"ab"), 1, dict.fromkeys(iter_contexts(2, 1), long_words))
    tables = [random_table(rng, order, 3) for order in (1, 2, 3)] + [unary_table(), wide]
    skip2 = GACode(AdaptiveFunction(lambda i, prior: prior[-2:-1], 1), lookup_from_table(tables[0]))
    for table in tables:
        # the unary table's rows take long to build: visit a few of them
        alphabet = Alphabet((0, 200, 254, 255)) if table.alphabet.size == 256 else table.alphabet
        # a 300-bit codeword that starts two bits before the first boundary
        data = b"a" * (size - 2) + b"b" if table is wide else b""
        while len(encode(table, data)) < 2 * size + 2:
            data += random_string(rng, alphabet, size // 8)
        n, bits = len(data), encode(table, data)
        cuts = [k * size + d for k in (1, 2) for d in (-1, 0, 1)]
        flip = {"0": "1", "1": "0"}
        payloads = [bits, bits + "1" * 9, bits + "0" * 8]
        payloads += [bits[:cut] for cut in cuts]
        payloads += [bits[:cut] + flip[bits[cut]] + bits[cut + 1 :] for cut in cuts[:3]]
        runs = []
        for p in payloads:
            packed = pack_bits(p).data
            runs += [
                lambda p=p: decode(table, p),
                lambda p=p: decode(table, p, n),
                lambda packed=packed: decode_payload(table, packed, n),
            ]
        if table is tables[0]:
            ga_bits = ga_encode(skip2, data)
            runs += [lambda p=p: ga_decode(skip2, p) for p in (ga_bits, ga_bits[:size + 1])]
        if table is wide:  # the GA path of a codeword longer than a container allows
            wide_ga = GACode(skip2.function, lookup_from_table(wide))
            ga_bits = ga_encode(wide_ga, data)
            runs += [lambda p=p: ga_decode(wide_ga, p) for p in (ga_bits, ga_bits[:size + 1])]
        for run in runs:
            monkeypatch.setattr(codec, "_CHUNK", size // 8)
            chunked = _chunked_outcome(run)
            monkeypatch.setattr(codec, "_CHUNK", 1 << 40)
            assert chunked == _chunked_outcome(run)


def test_decode_leaves_no_cyclic_garbage():
    # rows link to their successors' rows through their slots: decode breaks
    # those links before it returns or raises, so that the garbage collector
    # is not needed to free them
    for size in (16, 32):
        rng = random.Random(29)
        table = random_table(rng, 2, size)
        assert table._longest > 8  # codewords of up to 10 and 15 bits
        data = random_string(rng, table.alphabet, 1 << 15)
        payload = pack_bits(encode(table, data)).data
        middle = len(payload) // 2
        broken = payload[:middle] + bytes([payload[middle] ^ 0xFF]) + b"\xff" * 64

        def fail() -> None:
            with pytest.raises(DecodeError):
                decode(table, broken, len(data))

        gc.collect()
        gc.disable()
        try:
            decode(table, payload, len(data))  # fills the interpreter's free lists
            fail()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assert decode(table, payload, len(data)).output == data
                returned = tracemalloc.get_traced_memory()[0]
                fail()
                raised = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        finally:
            gc.enable()
        assert returned - before < 64 * 1024
        assert raised - before < 64 * 1024


def _traced_peak(run) -> int:
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_without_a_symbol_count_sizes_its_output_by_symbols():
    # the output grows with the symbols decoded, not with the payload's bits
    rng = random.Random(23)
    symbols = bytes(range(0x61, 0x71))
    table = build_order1(alphabet_from_bytes(symbols))
    data = rng.randbytes(1 << 17).translate(symbols * 16)
    bits = encode(table, data)
    unsized = _traced_peak(lambda: decode(table, bits))
    sized = _traced_peak(lambda: decode(table, bits, len(data)))
    assert unsized < sized + 96 * 1024


def test_decode_memory_per_visited_row():
    # a visited row holds its 256 window entries, one successor slot per
    # symbol and one flat group per first byte of its longer codewords
    # (about 2.5 KB here), while the cells of its codewords are shared with
    # every other row
    rng = random.Random(41)
    table = random_table(rng, 2, 32)
    assert table._longest > 8
    data = random_string(rng, table.alphabet, 1 << 13)
    bits = encode(table, data)
    payload = pack_bits(bits).data
    rows = len({data[max(0, i - 2) : i] for i in range(len(data))})
    assert rows > 1000  # of the table's 1,057
    peak = _traced_peak(lambda: decode(table, payload, len(data)))
    assert peak < 8 * len(payload) + 2 * len(data) + 3 * 1024 * rows
    code = GACode(order_n_function(2), lookup_from_table(table))
    assert ga_decode(code, bits) == decode(table, payload, len(data)).output == data


@pytest.mark.parametrize("length", [16, 64, 255])
def test_decode_memory_per_visited_row_of_long_codewords(length):
    # every row of 256 symbols gives codeword i the 8 bits of i, then zeros:
    # each first byte holds one long codeword, whose group costs the row a
    # few tuples, however long the codeword is
    words = tuple(f"{i:08b}".ljust(length, "0") for i in range(256))
    table = CodeTable(Alphabet(tuple(range(256))), 1, dict.fromkeys(iter_contexts(256, 1), words))
    data = b"\x01\x02\x03\x04"  # visits the rows of (), 1, 2 and 3
    payload = pack_bits(encode(table, data)).data
    peak = _traced_peak(lambda: decode(table, payload, len(data)))
    assert peak < 64 * 1024 * len(data)


def test_decode_runs_its_window_rule_once_per_visited_row(monkeypatch):
    # a row is linked to its built neighbours when it is built, so the rule
    # runs only to name a row that is not built yet
    table, data = _wide_order2_text()
    rows = len({data[max(0, i - 2) : i] for i in range(len(data))})
    calls = []
    window = codec._window

    def counted(order):
        rule = window(order)
        return lambda position, prior: calls.append(position) or rule(position, prior)

    monkeypatch.setattr(codec, "_window", counted)
    assert decode(table, encode(table, data)).output == data
    assert len(calls) == rows == 1026


def _link_faults(table: CodeTable, codes: dict, groups: dict) -> list:
    """What breaks the link invariant of decode's built rows: a successor
    slot that does not hold the built row of stem + symbol (None if that row
    is not built), a row outside the group of its stem, and a short window t
    of length order - 1 whose row is not in the group of the built rows
    u + t. Rows refer to each other, so they are compared by identity."""
    order, heads = table.order, [bytes((v,)) for v in table.alphabet.symbols]
    members = {stem: set(map(id, group)) for stem, group in groups.items()}
    faults = []
    for window, code in codes.items():
        stem = window[1:] if len(window) == order else window
        faults += [(window, v) for i, v in enumerate(heads) if code[256 + i] is not codes.get(stem + v)]
        if id(code) not in members.get(stem, ()):
            faults.append((window, "not in its stem's group"))
        if len(window) == order - 1 and any(u + window in codes for u in heads):
            if id(code) not in members.get(window, ()):
                faults.append((window, "not in the group of the rows u + t"))
    return faults


def test_decode_links_each_built_row_to_its_built_neighbours(monkeypatch):
    # after the loop, and before decode clears its rows, every built row's
    # successor slots hold exactly the built rows that follow it, over walks
    # that run to the end or, in a partial table, into a missing row
    rng = random.Random(37)
    inner, checked = codec._greedy_decode, []

    def inspected(bits, max_symbols, context, codes, missing, lookahead):
        try:
            return inner(bits, max_symbols, context, codes, missing, lookahead)
        finally:
            closure = dict(zip(missing.__code__.co_freevars, missing.__closure__))
            groups = closure["groups"].cell_contents
            checked.append((len(codes), _link_faults(decoded, codes, groups)))

    monkeypatch.setattr(codec, "_greedy_decode", inspected)
    wide, text = _wide_order2_text()
    cases = [(wide, wide, text)]
    for order, size in [(1, 2), (1, 32), (2, 2), (2, 5), (2, 16), (3, 2), (3, 3), (3, 6)]:
        full = random_table(rng, order, size)
        # every context that ends with symbol 0 is kept, so the walk goes on
        kept = {c: r for c, r in full.rows.items() if c[-1:] in ((), (0,)) or rng.random() < 0.8}
        part = CodeTable(full.alphabet, order, kept)
        window, walk = (), []
        for _ in range(3000):
            s = rng.choice([s for s in range(size) if (window + (s,))[-order:] in kept])
            walk.append(s)
            window = (window + (s,))[-order:]
        exits = [s for s in range(size) if (window + (s,))[-order:] not in kept]
        if exits:  # into a missing row, which the next symbol needs
            walk += [rng.choice(exits), 0]
        data = full.alphabet.to_bytes(walk)
        cases += [(full, full, data), (full, part, data)]
    for encoded, decoded, data in cases:
        try:
            assert decode(decoded, encode(encoded, data)).output == data
        except DecodeError:
            assert decoded is not encoded and len(decoded.rows) < len(encoded.rows)
    assert len(checked) == len(cases) and checked[0][0] == 1026
    assert all(rows > 1 and faults == [] for rows, faults in checked)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(2, 5), st.booleans(), st.integers(0, 2**32))
def test_decode_links_rows_on_long_inputs(order, size, partial, seed):
    # thousands of symbols that cross the first 8 KiB window buffer, over
    # rows built in the order the text first reaches them, decode as the
    # scan oracle does, also with a bit flipped or cut past the boundary and,
    # for a partial table, when the text runs into a missing row at the end
    rng = random.Random(seed)
    table = random_table(rng, order, size)
    # stretched words stay a prefix code, and at most 28 bits long they
    # leave more than 2 Ki symbols before the boundary
    rows = {
        ctx: tuple(word + "".join(rng.choices("01", k=rng.randint(0, 24))) for word in row)
        for ctx, row in table.rows.items()
    }
    full = CodeTable(table.alphabet, order, rows)
    # a context that ends with z is never dropped, so the walk can always go on
    z = rng.randrange(size)
    dropped = {c for c in rows if partial and c[-1:] not in ((), (z,)) and rng.random() < 0.25}
    kept = {c: r for c, r in rows.items() if c not in dropped}
    part = CodeTable(table.alphabet, order, kept)
    boundary = 8 * codec._CHUNK
    window, text, n, end = (), [], 0, boundary + rng.randint(0, 2048)
    while n <= end:
        s = rng.choice([s for s in range(size) if (window + (s,))[-order:] in kept])
        n += len(rows[window][s])
        text.append(s)
        window = (window + (s,))[-order:]
    exits = [s for s in range(size) if (window + (s,))[-order:] not in kept]
    if exits:  # into a missing row, which the next symbol needs
        text += [rng.choice(exits), 0]
    assert len(text) >= 2048
    bits = encode(full, table.alphabet.to_bytes(text))
    flip = rng.randrange(boundary - 64, len(bits))
    cut = rng.randrange(boundary, len(bits))
    payloads = [bits, bits[:flip] + "10"[int(bits[flip])] + bits[flip + 1 :], bits[:cut]]
    for payload in payloads:
        assert _decode_outcome(part, payload) == _oracle_outcome(part, payload)
