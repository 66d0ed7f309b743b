"""Bit packing and the binary container."""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from adacode import (
    Alphabet,
    CodeTable,
    ContainerContent,
    ContainerError,
    DecodeError,
    PackedBits,
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
from adacode.prefix import canonical_codewords, huffman_build

from helpers import (
    example_order2_table,
    explicit_table_bytes,
    length_table_bytes,
    random_prefix_row,
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
    assert pack_bits("1" * 70001) == PackedBits(b"\xff" * 8750 + b"\x80", 70001)


def test_pack_bits_rejects_non_bits():
    # int(bits, 2) would parse all but the first of these
    for bits in ("01a", "0_1", " 01", "01\n", "\u0660\u0661", "+1", "1" * 70000 + "_"):
        with pytest.raises(ContainerError):
            pack_bits(bits)
    table = build_order1(alphabet_from_bytes(b"ab"))
    for bits in (b"01", bytearray(b"01"), ["0", "1"]):
        with pytest.raises(ContainerError, match="only 0 and 1"):
            pack_bits(bits)
        with pytest.raises(ContainerError, match="only 0 and 1"):
            write_container(table, 2, bits)


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
    """Past the end the decoder reads zeros, which lead to the flat group
    of the long codeword's first byte but do not match the codeword; the
    bits left are still a proper prefix of it, so the input is truncated."""
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


def _mutated_containers(blob: bytes) -> st.SearchStrategy[bytes]:
    size = len(blob)
    cuts = st.integers(0, size - 1).map(lambda n: blob[:n])
    substitutions = st.tuples(st.integers(0, size - 1), st.integers(0, 255)).map(
        lambda change: blob[: change[0]] + bytes([change[1]]) + blob[change[0] + 1 :]
    )
    return st.one_of(cuts, substitutions)


@given(_mutated_containers(FUZZ_CONTAINER))
@example(FUZZ_CONTAINER[:9] + b"a" + FUZZ_CONTAINER[10:])  # alphabet "aac"
@example(FUZZ_CONTAINER[:8] + b"b" + FUZZ_CONTAINER[9:])  # alphabet "bbc"
@settings(max_examples=300, deadline=None)
def test_read_container_fuzz_raises_only_container_errors(blob):
    try:
        content = read_container(blob)
    except ContainerError:
        return
    assert isinstance(content, ContainerContent)


def _fitted_table(rng: random.Random, order: int, size: int) -> CodeTable:
    """A total table whose every row is the canonical Huffman code of random
    frequencies, skewed in some rows so that code lengths spread widely."""
    rows = {}
    for ctx in iter_contexts(size, order):
        power = rng.choice((1, 1, 2, 4))
        words = huffman_build([(s, rng.randint(0, 30) ** power) for s in range(size)]).codewords
        rows[ctx] = tuple(words[s] for s in range(size))
    symbols = tuple(sorted(rng.sample(range(256), size)))
    return CodeTable(alphabet=Alphabet(symbols), order=order, rows=rows)


@given(st.integers(1, 2), st.integers(1, 40), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_fitted_tables_roundtrip_as_code_lengths(order, size, rng):
    table = _fitted_table(rng, order, size)
    data = random_string(rng, table.alphabet, rng.randint(0, 60))
    blob = write_container(table, len(data), encode(table, data))
    header = 17 + size
    if max(len(word) for row in table.rows.values() for word in row) <= 15:
        assert blob[header - 1] == 0x02
        section = length_table_bytes(table)
        assert blob[header : header + len(section)] == section
    else:
        assert blob[header - 1] == 0x01
    content = read_container(blob)
    assert content.table == table
    assert content.builder_mode is False
    assert decode_payload(content.table, content.payload_bits, len(data)) == data
    assert _decode_container(blob) == data


def test_writer_keeps_codewords_for_tables_that_are_not_canonical():
    tables = [unary_table(), example_order2_table()]
    tables += [build_order1(Alphabet(tuple(range(97, 97 + n)))) for n in range(3, 17)]
    # lengths 1, 1, 2 oversubscribe the one-bit codes, so these rows have no canonical code
    oversubscribed = dict.fromkeys(iter_contexts(3, 1), ("0", "1", "00"))
    tables.append(CodeTable(alphabet_from_bytes(b"abc"), 1, oversubscribed))
    for table in tables:
        blob = write_container(table, 0, "", builder_mode=False)
        header = 17 + table.alphabet.size
        assert blob[header - 1] == 0x01
        assert blob[header:] == explicit_table_bytes(table)
        assert read_container(blob).table == table
    # both rows of the two-symbol builder table, "0" "10" and "10" "0", are canonical
    pair = build_order1(alphabet_from_bytes(b"ab"))
    blob = write_container(pair, 0, "", builder_mode=False)
    assert blob[18] == 0x02
    assert blob[19:] == length_table_bytes(pair)
    assert read_container(blob).table == pair


def test_code_length_reader_proves_the_prefix_property(monkeypatch):
    rng = random.Random(43)
    tables = [_fitted_table(rng, rng.randint(1, 2), rng.randint(1, 6)) for _ in range(20)]
    # incomplete rows, with Kraft sums 3/4 and 7/8
    incomplete = {ctx: ("00", "01", "10") for ctx in iter_contexts(3, 2)}
    incomplete[(1, 2)] = ("0", "10", "110")
    tables.append(CodeTable(alphabet_from_bytes(b"abc"), 2, incomplete))
    for table in tables:
        blob = write_container(table, 0, "", builder_mode=False)
        assert blob[16 + table.alphabet.size] == 0x02
        read = read_container(blob).table
        fresh = CodeTable(read.alphabet, read.order, dict(read.rows))
        assert read._prefix == prefix_predicate(fresh)
        assert read._prefix is True

    def unused(words):
        raise AssertionError("a row of a code-length table was sorted")

    monkeypatch.setattr("adacode.codec.is_prefix_code", unused)
    table = tables[-1]
    data = b"abcbbacab"
    assert _decode_container(write_container(table, len(data), encode(table, data))) == data


def _code_length_container(size: int, order: int, nibbles: list[int]) -> bytes:
    """A code-length container over the first size byte values with no
    payload, whose table section packs nibbles two to a byte."""
    header = b"ADC1" + bytes([1, order]) + size.to_bytes(2, "big") + bytes(range(size))
    section = bytes(16 * high + low for high, low in zip(nibbles[0::2], nibbles[1::2]))
    return header + (0).to_bytes(8, "big") + bytes([2]) + section


def test_hostile_code_length_tables_raise_container_errors():
    # order 1 over three symbols: 4 rows of 3 lengths; lengths 1, 2, 2 are "0", "10", "11"
    lengths = [1, 2, 2] * 4
    table = read_container(_code_length_container(3, 1, lengths)).table
    assert set(table.rows.values()) == {("0", "10", "11")}
    # order 2 has 13 rows: 39 lengths and a pad nibble, which must be 0
    assert read_container(_code_length_container(3, 2, [1, 2, 2] * 13 + [0])).table.order == 2
    for order, nibbles, message in (
        (1, [1, 2, 0] + lengths[3:], "^code length below 1$"),
        (1, [1, 1, 1] + lengths[3:], "^code lengths oversubscribe the 1-bit codes$"),
        (2, [1, 2, 2] * 13 + [5], "^nonzero pad nibble after the code lengths$"),
    ):
        with pytest.raises(ContainerError, match=message):
            read_container(_code_length_container(3, order, nibbles))
    with pytest.raises(
        ContainerError, match="^truncated container: a code-length table needs 6 bytes, 5 remain$"
    ):
        read_container(_code_length_container(3, 1, lengths)[:-1])


def test_read_container_sizes_code_length_table_before_parsing(monkeypatch):
    import adacode.container as container

    built = []
    monkeypatch.setattr(container, "canonical_codewords", lambda *args: built.append(1))
    # h = 256, order 255: more rows than any container holds
    blob = _code_length_container(256, 255, [1] * 600_000)
    with pytest.raises(ContainerError, match="^truncated container: a code-length table needs"):
        read_container(blob)
    assert built == []


def _is_canonical_row(row: tuple[str, ...]) -> bool:
    """True if row is the code that RFC 1951, section 3.2.2, assigns to its
    own lengths: in (length, position) order the first word is all zeros,
    each next word is the one before plus 1, shifted left to its length, and
    no word needs more bits than its length."""
    code = length = 0
    for word in sorted(row, key=len):  # a stable sort keeps positions in order
        code <<= len(word) - length
        length = len(word)
        if code >> length or word != format(code, f"0{length}b"):
            return False
        code += 1
    return True


def _bent_row(rng: random.Random, size: int, bend: bool) -> tuple[str, ...]:
    """The canonical code of random lengths of at most 15 bits; if bend, then
    two of its words of different lengths swapped or all of its bits
    complemented, which keeps a prefix code, or two words replaced by 0 and
    1, which oversubscribes."""
    lengths = [len(word) for word in random_prefix_row(rng, size)]
    lengths = [n + rng.choice((0, 0, rng.randint(1, 15 - n))) for n in lengths]
    row = list(canonical_codewords(lengths))
    how = rng.choice(("swap", "complement", "oversubscribe")) if bend else ""
    pairs = [(i, j) for i in range(size) for j in range(i) if lengths[i] != lengths[j]]
    if how == "swap" and pairs:
        i, j = rng.choice(pairs)
        row[i], row[j] = row[j], row[i]
    elif how == "complement":
        row = [word.translate(str.maketrans("01", "10")) for word in row]
    elif how == "oversubscribe" and size >= 3:
        row[:2] = "0", "1"
    return tuple(row)


@given(st.integers(1, 2), st.integers(2, 6), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_code_lengths_exactly_when_every_row_is_canonical(order, size, rng):
    share = rng.choice((0, 0, 0.1, 0.5))  # of the rows that are bent
    rows = {ctx: _bent_row(rng, size, rng.random() < share) for ctx in iter_contexts(size, order)}
    table = CodeTable(Alphabet(tuple(sorted(rng.sample(range(256), size)))), order, rows)
    blob = write_container(table, 0, "", builder_mode=False)
    header = 17 + size
    canonical = all(map(_is_canonical_row, rows.values()))
    assert blob[header - 1] == (0x02 if canonical else 0x01)
    assert blob[header:] == (length_table_bytes if canonical else explicit_table_bytes)(table)
    assert read_container(blob).table == table


def test_writer_stops_at_the_first_row_the_rebuild_does_not_give_back(monkeypatch):
    import adacode.container as container

    rebuilt = []

    def counted(*args):
        rebuilt.append(1)
        return canonical_codewords(*args)

    monkeypatch.setattr(container, "canonical_codewords", counted)
    rows = dict.fromkeys(iter_contexts(3, 2), ("0", "10", "11"))
    table = CodeTable(alphabet_from_bytes(b"abc"), 2, rows)
    assert write_container(table, 0, "", builder_mode=False)[19] == 0x02
    assert len(rebuilt) == 13
    # an empty-context row that is a prefix code but not canonical, and one
    # whose lengths have no canonical code: the first rebuild decides
    for first in (("1", "01", "00"), ("0", "1", "00")):
        rebuilt.clear()
        table = CodeTable(alphabet_from_bytes(b"abc"), 2, {**rows, (): first})
        assert write_container(table, 0, "", builder_mode=False)[19] == 0x01
        assert len(rebuilt) <= 1


def test_writer_holds_one_rebuilt_row_at_a_time():
    # a canonical order-2 table over 64 symbols: 4,161 rows, 266,304 lengths
    rng = random.Random(29)
    lengths = [5] * 16 + [6] * 16 + [7] * 32
    rows, words = {}, {}
    for ctx in iter_contexts(64, 2):
        rng.shuffle(lengths)
        rows[ctx] = canonical_codewords(lengths, words)
    table = CodeTable(Alphabet(tuple(range(64))), 2, rows)
    tracemalloc.start()
    try:
        blob = write_container(table, 0, "", builder_mode=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blob[80] == 0x02
    # the hex text of the lengths and the copy of the container fit in the
    # allowance; the 4,161 rebuilt rows, 2.3 MB as tuples, would not
    assert peak < 64 * len(rows) + len(blob) + (1 << 20)


def test_explicit_table_writer_memory_is_bounded():
    # an order-2 table over 32 symbols stored codeword by codeword: 1,057
    # rows, 33,824 cells; one bytes.join over every cell would hold a buffer
    # struct per cell, about 3.3 MB
    table = random_table(random.Random(43), 2, 32)
    tracemalloc.start()
    try:
        blob = write_container(table, 0, "", builder_mode=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blob[48] == 0x01
    assert peak < 4 * len(blob) + (1 << 19)


def _fuzz_lengths_container() -> bytes:
    """A small code-length order-2 container over {a, b, c} with a payload;
    one row is incomplete, so some bit patterns decode to nothing."""
    rows = {ctx: ("0", "10", "11") for ctx in iter_contexts(3, 2)}
    rows[(0,)] = ("10", "11", "0")
    rows[(2, 1)] = ("10", "0", "11")
    rows[(1, 2)] = ("00", "01", "10")
    table = CodeTable(alphabet=alphabet_from_bytes(b"abc"), order=2, rows=rows)
    data = b"abcaacbbacab"
    return write_container(table, len(data), encode(table, data))


LENGTHS_FUZZ_CONTAINER = _fuzz_lengths_container()


@given(_mutated_containers(LENGTHS_FUZZ_CONTAINER))
@settings(max_examples=300, deadline=None)
def test_read_code_length_container_fuzz_raises_only_container_errors(blob):
    assert LENGTHS_FUZZ_CONTAINER[19] == 0x02
    try:
        content = read_container(blob)
        data = decode_payload(content.table, content.payload_bits, content.symbol_count)
    except (ContainerError, DecodeError):  # DecodeError: bits that no row decodes
        return
    assert isinstance(data, bytes)
