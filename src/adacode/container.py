"""On-disk binary formats: MSB-first bit packing and the stream container.

Container layout, all integers big-endian:

    magic   4 bytes   b"ADC1"
    version 1 byte    0x01
    order   1 byte    table order, 1..255
    h       2 bytes   alphabet size
    alpha   h bytes   symbol values, strictly increasing
    s       8 bytes   number of source symbols in the payload
    mode    1 byte    0x00 implied order-1 table, 0x01 explicit table,
                      0x02 canonical code lengths
    table   modes 0x01 and 0x02 only: one row per context, every context up
            to the order in canonical enumeration order (empty first, then
            by length, then lexicographic index order), each row h entries
            in alphabet index order. Mode 0x01: each entry is a codeword, a
            length byte 1..255 followed by ceil(len/8) MSB-first bytes,
            zero-padded. Mode 0x02: each entry is a code length 1..15 in
            4 bits, two to a byte, high nibble first; an odd final nibble
            is 0
    payload encoded bits, MSB-first, zero-padded to a byte boundary

Mode 0x00 stores no table; the reader rebuilds it with build_order1 from
the alphabet, which requires order 1 and at least two symbols. Any other
table whose every row is the canonical code of its own lengths
(prefix.canonical_codewords, as in DEFLATE) and whose codewords have at most
15 bits is written in mode 0x02, which stores only those lengths; the
reader rebuilds each row, and refuses rows whose Kraft sum exceeds 1, so
every row it returns is a prefix code. Other tables use mode 0x01, which is
read and written once per distinct codeword encoding: the rows of an
order-n table repeat a few codewords many times, so the writer packs each
distinct codeword once and the reader unpacks each distinct run of length
byte and bits once, and rows share the resulting strings. The payload
length in bits is not stored: the reader decodes exactly s symbols and
treats leftover bits as padding, which must be fewer than 8 and all zero.

A stream goes one way through _encode_container, which feeds the encoder
_CHUNK symbols at a time and packs each chunk's bits as it goes, so that it
never holds a codeword per symbol, and back through _decode_container.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

from .builder import build_order1
from .codec import IncrementalEncoder, decode
from .core import (
    AdaptiveCodeError,
    Alphabet,
    CodeTable,
    Codeword,
    ContainerError,
    Context,
    EncodeError,
    Record,
    _context_count,
    _pack_bits,
    is_bits,
    iter_contexts,
)
from .prefix import canonical_codewords

MAGIC = b"ADC1"
VERSION = 0x01
MODE_BUILDER = 0x00
MODE_EXPLICIT = 0x01
MODE_LENGTHS = 0x02
# code lengths 0..15 <-> the hex digits that bytes.fromhex and bytes.hex use
_TO_HEX = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")
_FROM_HEX = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
_CHUNK = 1 << 14  # symbols per encoder feed: encoding keeps one chunk's bits at a time


class PackedBits(Record):
    """Bits packed MSB-first into bytes, final byte zero-padded."""

    __slots__ = _fields = ("data", "bit_count")


def pack_bits(bits: str) -> PackedBits:
    return PackedBits(b"".join(_pack((bits,))), len(bits))


def _pack(chunks: Iterable[str]) -> Iterator[bytes]:
    """Bit strings packed MSB-first as one stream: the whole bytes of each
    chunk as soon as it comes, fewer than 8 bits carried to the next, and
    the last carry zero-padded to a byte."""
    carry = ""
    for bits in chunks:
        # int() would also accept "_", a sign and surrounding whitespace
        if not isinstance(bits, str) or not is_bits(bits):
            raise ContainerError("bit sequence must contain only 0 and 1")
        bits = carry + bits
        rest = len(bits) % 8
        yield (int(bits or "0", 2) >> rest).to_bytes(len(bits) // 8, "big")
        carry = bits[len(bits) - rest :]
    yield _pack_bits(carry)


def unpack_bits(packed: PackedBits) -> str:
    if packed.bit_count < 0:
        raise ContainerError("bit count must be nonnegative")
    if packed.bit_count > 8 * len(packed.data):
        raise ContainerError("truncated bit payload: bit count exceeds available bytes")
    if packed.bit_count == 0:
        return ""
    data = packed.data
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")[: packed.bit_count]


class ContainerContent(Record):
    """Everything read_container recovers from a container."""

    __slots__ = _fields = ("table", "symbol_count", "payload_bits", "builder_mode")


def _check_symbol_count(count: object) -> None:
    if type(count) is bool or not isinstance(count, int) or not 0 <= count < 1 << 64:
        raise ContainerError(f"symbol count {count!r} is not an int from 0 to 2**64 - 1")


def _check_container_alphabet(values: Sequence[int]) -> None:
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ContainerError("container alphabets must be strictly increasing byte values")


def _container_mode(table: CodeTable, builder_mode: bool | None = None) -> int:
    """The mode byte of a container of table, or ContainerError if no
    container can store it. builder_mode as in write_container."""
    if not 1 <= table.order <= 255:
        raise ContainerError("container order must be between 1 and 255")
    _check_container_alphabet(table.alphabet.symbols)
    if builder_mode is None or builder_mode:
        if table.order == 1 and table.alphabet.size >= 2 and table == build_order1(table.alphabet):
            return MODE_BUILDER
        if builder_mode:
            raise ContainerError(
                "table is not the implied order-1 construction for its alphabet"
            )
    if not table.is_total():
        raise ContainerError("explicit containers require a total table")
    if table._longest > 255:
        raise ContainerError("codeword longer than 255 bits")
    return MODE_LENGTHS if table._longest <= 15 and _is_canonical(table) else MODE_EXPLICIT


def _is_canonical(table: CodeTable) -> bool:
    """True if every row is the canonical code of its own codeword lengths."""
    words: dict[int, Codeword] = {}
    try:
        return all(
            row == canonical_codewords(bytes(map(len, row)), words)
            for row in table.rows.values()
        )
    except AdaptiveCodeError:  # oversubscribed lengths have no canonical code
        return False


def write_container(
    table: CodeTable,
    symbol_count: int,
    payload_bits: str,
    builder_mode: bool | None = None,
) -> bytes:
    """Serialize a table and an encoded payload.

    builder_mode None picks mode 0x00 automatically when the table equals
    its alphabet's build_order1 result. Forcing True on any other table is
    an error. Any other table must be total; it is stored as code lengths
    (mode 0x02) when every row is canonical, else codeword by codeword.
    """
    _check_symbol_count(symbol_count)
    return bytes(_write_container(table, symbol_count, (payload_bits,), builder_mode))


def _write_container(
    table: CodeTable, symbol_count: int, payload: Iterable[str], builder_mode: bool | None = None
) -> bytearray:
    """write_container of a payload given as consecutive pieces of its bits,
    which are packed as they come. The mode is chosen, or the table refused,
    before the first piece is read."""
    mode = _container_mode(table, builder_mode)
    h = table.alphabet.size
    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out.append(table.order)
    out += h.to_bytes(2, "big")
    out += bytes(table.alphabet.symbols)
    out += symbol_count.to_bytes(8, "big")
    out.append(mode)
    if mode == MODE_LENGTHS:
        contexts = iter_contexts(h, table.order)
        lengths = b"".join(bytes(map(len, table.rows[ctx])) for ctx in contexts)
        if len(lengths) % 2:
            lengths += b"\0"  # the pad nibble
        out += bytes.fromhex(lengths.translate(_TO_HEX).decode())
    elif mode == MODE_EXPLICIT:
        # rows repeat codewords, so each distinct one is packed once, length byte first
        words = set(chain.from_iterable(table.rows.values()))
        encoded = {word: bytes((len(word),)) + _pack_bits(word) for word in words}
        for ctx in iter_contexts(h, table.order):
            out += b"".join(map(encoded.__getitem__, table.rows[ctx]))
    for piece in _pack(payload):
        out += piece
    return out


def _encode_container(table: CodeTable, data: bytes) -> bytearray:
    """The container of data encoded with table, the mirror of
    _decode_container. A table that no container can store is an
    EncodeError before any symbol is encoded."""
    feed = IncrementalEncoder(table).feed
    bits = (feed(data[i : i + _CHUNK]) for i in range(0, len(data), _CHUNK))
    try:
        return _write_container(table, len(data), bits)
    except ContainerError as exc:
        raise EncodeError(str(exc)) from exc


def read_container(data: bytes) -> ContainerContent:
    """Parse container bytes back into a table, symbol count, and payload."""
    table, symbol_count, payload, builder_mode = _parse_container(data)
    payload_bits = unpack_bits(PackedBits(payload, 8 * len(payload)))
    return ContainerContent(table, symbol_count, payload_bits, builder_mode)


def _decode_container(data: bytes) -> bytes:
    """A container's source bytes: data is rebound to its payload, so the rest is freed."""
    table, symbol_count, data, _ = _parse_container(data)
    return decode_payload(table, data, symbol_count)


def _parse_container(data: bytes) -> tuple[CodeTable, int, bytes, bool]:
    """A container's table, symbol count, payload bytes and builder mode."""
    data = bytes(data)  # codeword slices key a dict, so they must be hashable
    cursor = 0

    def take(count: int) -> bytes:
        nonlocal cursor
        if cursor + count > len(data):
            raise ContainerError("truncated container")
        piece = data[cursor : cursor + count]
        cursor += count
        return piece

    if take(4) != MAGIC:
        raise ContainerError("bad magic: not a container")
    version = take(1)[0]
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    order = take(1)[0]
    if order < 1:
        raise ContainerError("container order must be at least 1")
    h = int.from_bytes(take(2), "big")
    if h < 1:
        raise ContainerError("container alphabet must be nonempty")
    values = take(h)
    _check_container_alphabet(values)
    alphabet = Alphabet(tuple(values))
    symbol_count = int.from_bytes(take(8), "big")
    mode = take(1)[0]
    if mode == MODE_BUILDER:
        if order != 1 or h < 2:
            raise ContainerError("builder mode requires order 1 and at least two symbols")
        table = build_order1(alphabet)
    elif mode == MODE_EXPLICIT:
        # Each codeword takes at least two bytes: its length and one of bits.
        minimum = 2 * h * _context_count(h, order)
        if minimum > len(data) - cursor:
            raise ContainerError(
                f"truncated container: an explicit table needs at least {minimum} "
                f"bytes, {len(data) - cursor} remain"
            )
        rows: dict[Context, tuple[Codeword, ...]] = {}
        # a codeword's raw bytes (length byte and packed bits) -> its bits. A
        # slice cut short by the end of data is shorter than every key.
        decoded: dict[bytes, Codeword] = {}
        size = len(data)
        for ctx in iter_contexts(h, order):
            row = []
            for _ in range(h):
                end = cursor + 1 + (data[cursor] + 7) // 8 if cursor < size else cursor + 1
                raw = data[cursor:end]
                word = decoded.get(raw)
                if word is None:
                    if end > size:
                        raise ContainerError("truncated container")
                    if raw[0] == 0:
                        raise ContainerError("codeword length 0")
                    word = decoded[raw] = unpack_bits(PackedBits(raw[1:], raw[0]))
                row.append(word)
                cursor = end
            rows[ctx] = tuple(row)
        table = CodeTable(alphabet=alphabet, order=order, rows=rows)
    elif mode == MODE_LENGTHS:
        count = h * _context_count(h, order)
        size = (count + 1) // 2
        if size > len(data) - cursor:
            raise ContainerError(
                f"truncated container: a code-length table needs {size} bytes, "
                f"{len(data) - cursor} remain"
            )
        lengths = data[cursor : cursor + size].hex().encode().translate(_FROM_HEX)
        cursor += size
        if lengths[count:] not in (b"", b"\0"):
            raise ContainerError("nonzero pad nibble after the code lengths")
        lengths = lengths[:count]
        words: dict[int, Codeword] = {}
        try:
            rows = {
                ctx: canonical_codewords(lengths[start : start + h], words)
                for ctx, start in zip(iter_contexts(h, order), range(0, count, h))
            }
        except AdaptiveCodeError as exc:
            raise ContainerError(str(exc)) from None
        table = CodeTable(alphabet=alphabet, order=order, rows=rows)
        # a canonical code whose Kraft sum is at most 1 is a prefix code
        object.__setattr__(table, "_prefix", True)
    else:
        raise ContainerError(f"unknown table mode {mode:#04x}")
    return table, symbol_count, data[cursor:], mode == MODE_BUILDER


def decode_payload(table: CodeTable, payload_bits: str | bytes, symbol_count: int) -> bytes:
    """Decode exactly symbol_count symbols of a '0'/'1' str, or of payload
    bytes without unpacking them. A payload that ends before symbol_count
    symbols is an error. Leftover bits after the last symbol must number
    fewer than 8 and all be zero; anything else is trailing garbage."""
    _check_symbol_count(symbol_count)
    trace = decode(table, payload_bits, symbol_count)
    if trace.iterations < symbol_count:
        raise ContainerError(f"payload ends after {trace.iterations} of {symbol_count} symbols")
    packed = isinstance(payload_bits, bytes)
    left = len(payload_bits) * (8 if packed else 1) - trace.bits_consumed
    tail = left and (payload_bits[-1] % (1 << left) if packed else "1" in payload_bits[-left:])
    if left >= 8 or tail:
        raise ContainerError(f"trailing garbage after encoded payload ({left} bits left)")
    return trace.output
