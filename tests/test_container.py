"""Bit packing, the binary container, and the table text format."""

import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from adacode import (
    Alphabet,
    CodeTable,
    ContainerContent,
    ContainerError,
    DecodeError,
    PackedBits,
    TableError,
    alphabet_from_bytes,
    decode_payload,
    encode,
    iter_contexts,
    pack_bits,
    prefix_predicate,
    read_container,
    table_from_text,
    table_to_text,
    unpack_bits,
    write_container,
)
from adacode.builder import build_order1
from adacode.container import _decode_container

from helpers import (
    example_order2_table,
    explicit_table_bytes,
    nonprefix_order2_table,
    random_string,
    random_table,
    scan_decode_outcome,
    unary_table,
)

W1 = b"abbbcabccaabccabbcba"


def test_pack_bits_examples():
    packed = pack_bits("0101")
    assert packed.data == b"\x50"
    assert packed.bit_count == 4
    assert pack_bits("") == PackedBits(b"", 0)
    assert pack_bits("1" * 9).data == b"\xff\x80"


def test_pack_bits_rejects_non_bits():
    # int(bits, 2) would parse all but the first of these
    for bits in ("01a", "0_1", " 01", "01\n"):
        with pytest.raises(ContainerError):
            pack_bits(bits)


def test_unpack_bits_examples():
    assert unpack_bits(PackedBits(b"\x50", 4)) == "0101"
    assert unpack_bits(PackedBits(b"", 0)) == ""
    assert unpack_bits(PackedBits(b"\xff\x80", 9)) == "1" * 9


def test_unpack_bits_validation():
    with pytest.raises(ContainerError, match="truncated bit payload"):
        unpack_bits(PackedBits(b"", 8))
    with pytest.raises(ContainerError, match="nonnegative"):
        unpack_bits(PackedBits(b"\x00", -1))


@given(st.text(alphabet="01", max_size=120))
def test_pack_unpack_roundtrip(bits):
    assert unpack_bits(pack_bits(bits)) == bits


def test_container_layout_builder_mode():
    t = build_order1(alphabet_from_bytes(b"abc"))
    bits = encode(t, W1)
    assert len(bits) == 33
    blob = write_container(t, len(W1), bits)
    # 17 + h header bytes, then ceil(33/8) payload bytes
    assert len(blob) == 20 + 5
    assert blob[:4] == b"ADC1"
    assert blob[4] == 0x01
    assert blob[5] == 1
    assert blob[6:8] == (3).to_bytes(2, "big")
    assert blob[8:11] == b"abc"
    assert blob[11:19] == (20).to_bytes(8, "big")
    assert blob[19] == 0x00


def test_container_roundtrip_builder_mode():
    t = build_order1(alphabet_from_bytes(b"abc"))
    bits = encode(t, W1)
    content = read_container(write_container(t, len(W1), bits))
    assert content.builder_mode is True
    assert content.symbol_count == 20
    assert content.table == t
    assert content.payload_bits.startswith(bits)
    assert len(content.payload_bits) == 40
    assert decode_payload(content.table, content.payload_bits, 20) == W1


def test_container_explicit_mode_layout_and_roundtrip():
    t = build_order1(alphabet_from_bytes(b"abc"))
    bits = encode(t, W1)
    blob = write_container(t, len(W1), bits, builder_mode=False)
    # every codeword here is 1 or 2 bits: a length byte plus one packed byte
    assert len(blob) == 20 + 4 * 3 * 2 + 5
    assert blob[19] == 0x01
    content = read_container(blob)
    assert content.builder_mode is False
    assert content.table == t
    assert decode_payload(content.table, content.payload_bits, 20) == W1


def test_container_modes_agree():
    t = build_order1(alphabet_from_bytes(b"ab"))
    w = b"abba"
    bits = encode(t, w)
    implied = read_container(write_container(t, len(w), bits))
    explicit = read_container(write_container(t, len(w), bits, builder_mode=False))
    assert implied.table == explicit.table
    assert implied.payload_bits == explicit.payload_bits
    assert decode_payload(implied.table, implied.payload_bits, len(w)) == w
    assert decode_payload(explicit.table, explicit.payload_bits, len(w)) == w


def test_container_rewrite_is_byte_identical():
    rng = random.Random(31)
    for _ in range(20):
        if rng.random() < 0.5:
            table = build_order1(
                alphabet_from_bytes(bytes(sorted(rng.sample(range(256), rng.randint(2, 6)))))
            )
        else:
            table = random_table(rng, rng.randint(1, 2), rng.randint(2, 4))
        w = random_string(rng, table.alphabet, rng.randint(0, 40))
        blob = write_container(table, len(w), encode(table, w))
        content = read_container(blob)
        again = write_container(
            content.table,
            content.symbol_count,
            content.payload_bits,
            builder_mode=content.builder_mode,
        )
        assert again == blob


def test_container_roundtrip_order2_table():
    t = example_order2_table()
    bits = encode(t, b"abaa")
    blob = write_container(t, 4, bits)
    content = read_container(blob)
    assert content.builder_mode is False
    assert content.table == t
    assert decode_payload(content.table, content.payload_bits, 4) == b"abaa"


def test_write_container_validation():
    t = build_order1(alphabet_from_bytes(b"ab"))
    with pytest.raises(ContainerError, match="symbol count"):
        write_container(t, -1, "0")
    with pytest.raises(ContainerError, match="symbol count"):
        write_container(t, 1 << 64, "0")
    order256 = CodeTable(alphabet=Alphabet((97,)), order=256, rows={(): ("0",)})
    with pytest.raises(ContainerError, match="order must be between 1 and 255"):
        write_container(order256, 0, "")

    partial = CodeTable(
        alphabet=Alphabet((97, 98)), order=1, rows={(): ("0", "1")}
    )
    with pytest.raises(ContainerError, match="total table"):
        write_container(partial, 0, "")
    with pytest.raises(ContainerError, match="implied order-1 construction"):
        write_container(example_order2_table(), 0, "", builder_mode=True)

    unsorted = CodeTable(
        alphabet=Alphabet((98, 97)),
        order=1,
        rows={
            (): ("0", "1"),
            (0,): ("0", "1"),
            (1,): ("0", "1"),
        },
    )
    with pytest.raises(ContainerError, match="strictly increasing"):
        write_container(unsorted, 0, "")

    huge = CodeTable(
        alphabet=Alphabet((65,)),
        order=1,
        rows={(): ("0" * 256,), (0,): ("0",)},
    )
    with pytest.raises(ContainerError, match="longer than 255 bits"):
        write_container(huge, 0, "", builder_mode=False)


def test_read_container_errors():
    t = build_order1(alphabet_from_bytes(b"abc"))
    blob = bytearray(write_container(t, len(W1), encode(t, W1)))

    bad = bytearray(blob)
    bad[0] = ord("X")
    with pytest.raises(ContainerError, match="bad magic"):
        read_container(bytes(bad))

    bad = bytearray(blob)
    bad[4] = 0x02
    with pytest.raises(ContainerError, match="unsupported container version 2"):
        read_container(bytes(bad))

    bad = bytearray(blob)
    bad[5] = 0
    with pytest.raises(ContainerError, match="order must be at least 1"):
        read_container(bytes(bad))

    bad = bytearray(blob)
    bad[5] = 2
    with pytest.raises(ContainerError, match="builder mode requires order 1"):
        read_container(bytes(bad))

    bad = bytearray(blob)
    bad[6:8] = b"\x00\x00"
    with pytest.raises(ContainerError, match="alphabet must be nonempty"):
        read_container(bytes(bad))

    bad = bytearray(blob)
    bad[8], bad[9] = bad[9], bad[8]
    with pytest.raises(ContainerError, match="strictly increasing"):
        read_container(bytes(bad))

    bad = bytearray(blob)
    bad[9] = bad[8]  # alphabet "aac"
    with pytest.raises(
        ContainerError, match="^container alphabets must be strictly increasing byte values$"
    ):
        read_container(bytes(bad))

    bad = bytearray(blob)
    bad[19] = 0x05
    with pytest.raises(ContainerError, match="unknown table mode 0x05"):
        read_container(bytes(bad))

    with pytest.raises(ContainerError, match="truncated container"):
        read_container(bytes(blob[:10]))
    with pytest.raises(ContainerError, match="truncated container"):
        read_container(b"")


def test_read_container_zero_length_codeword():
    t = build_order1(alphabet_from_bytes(b"abc"))
    blob = bytearray(write_container(t, len(W1), encode(t, W1), builder_mode=False))
    blob[20] = 0
    with pytest.raises(ContainerError, match="codeword length 0"):
        read_container(bytes(blob))


def test_decode_payload_trailing_garbage():
    t = build_order1(alphabet_from_bytes(b"abc"))
    bits = encode(t, W1)
    blob = write_container(t, len(W1), bits)

    content = read_container(blob + b"\xff")
    with pytest.raises(ContainerError, match="trailing garbage"):
        decode_payload(content.table, content.payload_bits, content.symbol_count)

    content = read_container(blob + b"\x00")
    with pytest.raises(ContainerError, match="trailing garbage"):
        decode_payload(content.table, content.payload_bits, content.symbol_count)


def test_symbol_counts_must_be_nonnegative_ints():
    t = build_order1(alphabet_from_bytes(b"ab"))
    for bad in (-1, -5, 1.5, True, "2", 1 << 64):
        with pytest.raises(ContainerError, match="symbol count"):
            write_container(t, bad, "0")
        with pytest.raises(ContainerError, match="symbol count"):
            decode_payload(t, "0", bad)


def test_decode_payload_reads_the_packed_payload():
    t = build_order1(alphabet_from_bytes(b"abc"))
    bits = encode(t, W1)
    blob = write_container(t, len(W1), bits)
    assert read_container(blob).payload_bits == bits.ljust(40, "0")
    assert decode_payload(t, blob[-5:], len(W1)) == W1
    assert _decode_container(blob) == W1


def test_long_codeword_cut_over_zero_padding_is_truncated():
    """Past the end the decoder reads zeros, which follow a long codeword's
    sub-tables by their 0 entries until one misses; the bits left are still
    a proper prefix of that codeword, so the input is truncated."""
    ab = alphabet_from_bytes(b"ab")
    for word in ("1" + "0" * 14 + "1", "1" + "0" * 38 + "1", "1" + "0" * 253 + "1"):
        t = CodeTable(ab, 1, {ctx: ("0", word) for ctx in iter_contexts(2, 1)})
        blob = write_container(t, 1, "1", builder_mode=False)
        for payload in ("1", "1" + "0" * 7, b"\x80"):
            with pytest.raises(DecodeError) as info:
                decode_payload(t, payload, 1)
            assert str(info.value) == "truncated input at bit offset 0"
            assert (info.value.bit_offset, info.value.position, info.value.context) == (0, 1, b"")
        assert scan_decode_outcome(t, "1" + "0" * 7) == ("truncated", 0)
        with pytest.raises(DecodeError, match="^truncated input at bit offset 0$"):
            _decode_container(blob)
        # a 0 for the codeword's last bit leaves no prefix of it
        with pytest.raises(DecodeError, match="^undecodable at bit offset 0$"):
            decode_payload(t, word[:-1] + "0", 1)


def test_last_codeword_ends_inside_the_final_byte():
    """The 10-bit codeword of the last symbol ends in the final byte, whose
    five padding bits are zeros. The container cannot tell padding from
    codewords, so a symbol count one higher decodes a symbol from the
    padding, and one more runs past the end."""
    ab = alphabet_from_bytes(b"ab")
    t = CodeTable(ab, 1, {(): ("0", "1"), (0,): ("000", "1" * 10), (1,): ("000", "1")})
    blob = write_container(t, 2, encode(t, b"ab"), builder_mode=False)
    content = read_container(blob)
    assert content.payload_bits == "0111111111100000"
    assert scan_decode_outcome(t, content.payload_bits) == ("truncated", 14)
    for payload in (content.payload_bits, blob[-2:]):
        assert decode_payload(content.table, payload, 2) == b"ab"
        assert decode_payload(content.table, payload, 3) == b"aba"
        with pytest.raises(DecodeError, match="^truncated input at bit offset 14$") as info:
            decode_payload(content.table, payload, 4)
        assert (info.value.position, info.value.context) == (4, b"a")


def test_empty_payload_container():
    t = build_order1(alphabet_from_bytes(b"ab"))
    content = read_container(write_container(t, 0, ""))
    assert content.payload_bits == ""
    assert decode_payload(content.table, content.payload_bits, 0) == b""


def test_table_text_example_order2():
    text = table_to_text(example_order2_table())
    lines = text.strip().split("\n")
    assert lines[0] == "order 2"
    assert lines[1] == "alphabet ab"
    assert len(lines) == 2 + 14
    assert lines[2] == "~ a 0"
    assert lines[3] == "~ b 1"
    assert lines[12] == "ba a 1"
    assert lines[13] == "ba b 0"
    assert table_from_text(text) == example_order2_table()


def test_table_text_roundtrip_builder():
    for source in (b"ab", b"abc", b"abcdef"):
        t = build_order1(alphabet_from_bytes(source))
        assert table_from_text(table_to_text(t)) == t


def test_table_text_roundtrip_nonprefix():
    t = nonprefix_order2_table()
    parsed = table_from_text(table_to_text(t))
    assert parsed == t
    assert prefix_predicate(parsed) is False


def test_table_text_roundtrip_escaped_symbols():
    t = build_order1(alphabet_from_bytes(bytes([126, 0, 92])))
    text = table_to_text(t)
    assert "alphabet \\x00\\x5c\\x7e" in text
    assert table_from_text(text) == t
    # escapes take upper-case hex digits too
    assert table_from_text(text.replace("\\x5c", "\\x5C")) == t


def test_table_text_ignores_comments_and_blank_lines():
    text = (
        "# a comment\n"
        "\n"
        "order 1\n"
        "alphabet ab\n"
        "  # indented comment\n"
        "~ a 0\n"
        "~ b 10\n"
        "a a 0\n"
        "a b 10\n"
        "b a 10\n"
        "b b 0\n"
    )
    assert table_from_text(text) == build_order1(alphabet_from_bytes(b"ab"))


def test_table_text_cell_order_is_free():
    ordered = table_to_text(build_order1(alphabet_from_bytes(b"ab")))
    lines = ordered.strip().split("\n")
    shuffled = lines[:2] + list(reversed(lines[2:]))
    assert table_from_text("\n".join(shuffled)) == table_from_text(ordered)


def test_table_text_parse_errors():
    with pytest.raises(
        TableError, match="^table text needs an order line and an alphabet line$"
    ):
        table_from_text("# nothing here\n")
    with pytest.raises(TableError, match="^line 1: expected 'order <n>'$"):
        table_from_text("ordre 1\nalphabet ab\n")
    # only ASCII decimal digits: int() alone would read the last four as 1, 10, 1 and -1
    for order in ("x", "+1", "1_0", "\u0661", "-1"):
        with pytest.raises(TableError, match="^line 1: expected 'order <n>'$"):
            table_from_text(f"order {order}\nalphabet ab\n")
    # more digits than int() converts from a str
    with pytest.raises(TableError, match="^line 1: expected 'order <n>'$"):
        table_from_text("order " + "9" * 5000 + "\nalphabet ab\n")
    with pytest.raises(TableError, match="^line 1: order must be at least 1$"):
        table_from_text("order 0\nalphabet ab\n")
    with pytest.raises(TableError, match="^line 2: expected 'alphabet <symbols>'$"):
        table_from_text("order 1\nalpha ab\n")
    with pytest.raises(TableError, match="^line 2: alphabet symbols must be distinct$"):
        table_from_text("order 1\nalphabet aa\n")
    with pytest.raises(TableError, match=r"^line 2: bad escape in '\\xZZ'$"):
        table_from_text("order 1\nalphabet \\xZZ\n")
    with pytest.raises(TableError, match=r"^line 2: bad escape in '\\x4'$"):
        table_from_text("order 1\nalphabet \\x4\n")
    # only two ASCII hex digits: int(..., 16) alone would read these as 1, -1, 0x12
    for escape in ("\\x+1", "\\x-1", "\\x\u0661\u0662"):
        message = re.escape(f"bad escape in 'a{escape}'")
        with pytest.raises(TableError, match=f"^line 2: {message}$"):
            table_from_text(f"order 1\nalphabet a{escape}\n")
        message = re.escape(f"bad escape in '{escape}'")
        with pytest.raises(TableError, match=f"^line 3: {message}$"):
            table_from_text(f"order 1\nalphabet ab\n{escape} a 0\n")
    with pytest.raises(
        TableError, match="^line 3: expected '<context> <symbol> <bits>', got '~ a'$"
    ):
        table_from_text("order 1\nalphabet ab\n~ a\n")
    with pytest.raises(TableError, match="^line 3: symbol c not in alphabet$"):
        table_from_text("order 1\nalphabet ab\n~ c 0\n")
    with pytest.raises(TableError, match="^line 3: symbol c not in alphabet$"):
        table_from_text("order 1\nalphabet ab\nc a 0\n")
    with pytest.raises(TableError, match="^line 3: expected a single symbol, got 'ab'$"):
        table_from_text("order 1\nalphabet ab\n~ ab 0\n")
    with pytest.raises(TableError, match="^line 3: context longer than order 1$"):
        table_from_text("order 1\nalphabet ab\naa a 0\n")
    with pytest.raises(TableError, match="^line 3: codeword must be nonempty bits, got '01x'$"):
        table_from_text("order 1\nalphabet ab\n~ a 01x\n")
    with pytest.raises(
        TableError, match="^line 4: duplicate cell for context '~' and symbol 'a'$"
    ):
        table_from_text("order 1\nalphabet ab\n~ a 0\n~ a 1\n")
    with pytest.raises(TableError, match="^line 2: '\u0100' is not a single byte$"):
        table_from_text("order 1\nalphabet a\u0100\n")
    with pytest.raises(
        TableError, match="^incomplete row for context '~': 1 of 2 codewords$"
    ):
        table_from_text("order 1\nalphabet ab\n~ a 0\n")
    # a field that repeats across lines reports the first line with the error
    with pytest.raises(TableError, match="^line 3: symbol c not in alphabet$"):
        table_from_text("order 1\nalphabet ab\nc a 0\n~ a 0\nc b 1\n")
    with pytest.raises(TableError, match="^line 4: codeword must be nonempty bits, got '1x'$"):
        table_from_text("order 1\nalphabet ab\n~ a 0\n~ b 1x\na a 1x\n")
    # context field 'a' is first seen on line 3; its duplicate cell is on line 6
    with pytest.raises(
        TableError, match="^line 6: duplicate cell for context 'a' and symbol 'a'$"
    ):
        table_from_text("order 1\nalphabet ab\na a 0\na b 1\n~ a 0\na a 1\n")


def test_random_tables_roundtrip_both_formats():
    rng = random.Random(37)
    for _ in range(25):
        t = random_table(rng, rng.randint(1, 2), rng.randint(2, 5))
        assert table_from_text(table_to_text(t)) == t
        w = random_string(rng, t.alphabet, rng.randint(0, 30))
        blob = write_container(t, len(w), encode(t, w))
        content = read_container(blob)
        assert content.table == t
        assert decode_payload(content.table, content.payload_bits, len(w)) == w


def test_decode_payload_rejects_payload_shorter_than_symbol_count():
    t = build_order1(alphabet_from_bytes(b"abc"))
    w = W1 + b"a"
    content = read_container(write_container(t, 121, encode(t, w)))
    with pytest.raises(ContainerError, match="payload ends after 2[1-7] of 121 symbols"):
        decode_payload(content.table, content.payload_bits, content.symbol_count)


def test_read_container_sizes_explicit_table_before_parsing(monkeypatch):
    import adacode.container as container

    # h = 256, order 3: 16.8M codewords of at least 2 bytes each, over 600 KB
    header = b"ADC1" + bytes([1, 3]) + (256).to_bytes(2, "big") + bytes(range(256))
    header += (0).to_bytes(8, "big") + bytes([1])
    parsed = []
    real_unpack = container.unpack_bits
    monkeypatch.setattr(
        container, "unpack_bits", lambda packed: parsed.append(1) or real_unpack(packed)
    )
    with pytest.raises(ContainerError, match="explicit table needs at least"):
        read_container(header + b"\x01\x00" * 300_000)
    assert parsed == []

    # a table of one-byte codewords with no payload is exactly the minimum size
    t = build_order1(alphabet_from_bytes(b"abc"))
    blob = write_container(t, 0, "", builder_mode=False)
    assert read_container(blob).table == t
    with pytest.raises(ContainerError, match="explicit table needs at least"):
        read_container(blob[:-1])


def _shared_codeword_table(rng: random.Random, order: int, size: int) -> CodeTable:
    """A total table whose rows draw most codewords from a small shared pool
    and a few unique ones of up to 255 bits. Rows need not be prefix codes:
    the container stores any table."""

    def bits(length: int) -> str:
        return "".join(rng.choice("01") for _ in range(length))

    pool = [bits(rng.choice((1, 2, 3, 7, 8, 9, 16, 17, 255))) for _ in range(rng.randint(1, 4))]
    rows = {
        ctx: tuple(
            bits(rng.randint(1, 255)) if rng.random() < 0.1 else rng.choice(pool)
            for _ in range(size)
        )
        for ctx in iter_contexts(size, order)
    }
    symbols = tuple(sorted(rng.sample(range(256), size)))
    return CodeTable(alphabet=Alphabet(symbols), order=order, rows=rows)


def test_explicit_table_section_matches_independent_serializer():
    rng = random.Random(41)
    tables = [
        _shared_codeword_table(rng, rng.randint(1, 2), rng.randint(2, 6)) for _ in range(30)
    ]
    for table in tables + [unary_table()]:
        blob = write_container(table, 0, "", builder_mode=False)
        header = 17 + table.alphabet.size
        assert blob[header:] == explicit_table_bytes(table)
        assert read_container(blob).table == table


def _repeated_codeword_container() -> bytes:
    """An explicit order-1 container over {a, b} whose six codewords are all
    the same 9 bits: a length byte and two bytes each, no payload."""
    word = "101010101"
    table = CodeTable(
        alphabet=Alphabet((97, 98)),
        order=1,
        rows={ctx: (word, word) for ctx in iter_contexts(2, 1)},
    )
    return write_container(table, 0, "", builder_mode=False)


def test_read_container_cut_short_after_repeated_codewords():
    blob = _repeated_codeword_container()
    assert len(blob) == 19 + 6 * 3
    # the last codeword keeps its length byte but loses a byte of bits; the
    # table still clears the up-front size check of 2 bytes per codeword
    with pytest.raises(ContainerError) as info:
        read_container(blob[:-1])
    assert str(info.value) == "truncated container"


def test_read_container_zero_length_after_repeated_codewords():
    blob = bytearray(_repeated_codeword_container())
    blob[19 + 3 * 3] = 0  # the fourth codeword's length byte
    with pytest.raises(ContainerError) as info:
        read_container(bytes(blob))
    assert str(info.value) == "codeword length 0"


def _fuzz_container() -> bytes:
    """A small explicit order-2 container over {a, b, c} with one- and
    two-byte codewords and a payload."""
    rows = {ctx: ("0", "10", "11") for ctx in iter_contexts(3, 2)}
    rows[(0,)] = ("1", "01", "001111111111")
    rows[(2, 1)] = ("10", "0", "11")
    table = CodeTable(alphabet=alphabet_from_bytes(b"abc"), order=2, rows=rows)
    data = b"abcaacbbacab"
    return write_container(table, len(data), encode(table, data))


FUZZ_CONTAINER = _fuzz_container()


def _mutated_containers() -> st.SearchStrategy[bytes]:
    size = len(FUZZ_CONTAINER)
    cuts = st.integers(0, size - 1).map(lambda n: FUZZ_CONTAINER[:n])
    substitutions = st.tuples(st.integers(0, size - 1), st.integers(0, 255)).map(
        lambda change: FUZZ_CONTAINER[: change[0]]
        + bytes([change[1]])
        + FUZZ_CONTAINER[change[0] + 1 :]
    )
    return st.one_of(cuts, substitutions)


@given(_mutated_containers())
@example(FUZZ_CONTAINER[:9] + b"a" + FUZZ_CONTAINER[10:])  # alphabet "aac"
@example(FUZZ_CONTAINER[:8] + b"b" + FUZZ_CONTAINER[9:])  # alphabet "bbc"
@settings(max_examples=300, deadline=None)
def test_read_container_fuzz_raises_only_container_errors(blob):
    try:
        content = read_container(blob)
    except ContainerError:
        return
    assert isinstance(content, ContainerContent)


TABLE_TOKENS = (
    "~", "a", "b", "c", "ab", "aa", "\\x61", "\\x6", "\\xZZ", "\\", "\u0100",
    "\\x-1", "\\x+1", "\\x\u0661\u0662",
    "0", "1", "01", "10", "0x", "2", "#", "order", "alphabet",
)


@given(
    st.sampled_from(("order 1", "order 2", "order 0", "order x", "order", "ordre 1")),
    st.sampled_from((
        "alphabet ab", "alphabet aa", "alphabet \\x61b", "alphabet \\xZ", "alphabet",
        "alphabet a\\x-1", "alphabet a\\x+1", "alphabet a\\x\u0661\u0662",
    )),
    st.lists(st.lists(st.sampled_from(TABLE_TOKENS), min_size=0, max_size=4), max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_table_from_text_fuzz_raises_only_table_errors(order_line, alphabet_line, cells):
    text = "\n".join([order_line, alphabet_line] + [" ".join(cell) for cell in cells])
    try:
        table = table_from_text(text)
    except TableError:
        return
    assert isinstance(table, CodeTable)
