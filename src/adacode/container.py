"""On-disk formats: MSB-first bit packing, the binary stream container, and
a line-oriented table text format.

Container layout, all integers big-endian:

    magic   4 bytes   b"ADC1"
    version 1 byte    0x01
    order   1 byte    table order, 1..255
    h       2 bytes   alphabet size
    alpha   h bytes   symbol values, strictly increasing
    s       8 bytes   number of source symbols in the payload
    mode    1 byte    0x00 implied order-1 table, 0x01 explicit table
    table   mode 0x01 only: one row per context, every context up to the
            order in canonical enumeration order (empty first, then by
            length, then lexicographic index order); each row holds h
            codewords, each codeword a length byte 1..255 followed by
            ceil(len/8) MSB-first bytes, zero-padded
    payload encoded bits, MSB-first, zero-padded to a byte boundary

Mode 0x00 stores no table; the reader rebuilds it with build_order1 from
the alphabet, which requires order 1 and at least two symbols. Explicit
tables are read and written once per distinct codeword encoding: the rows
of an order-n table repeat a few codewords many times, so the writer packs
each distinct codeword once and the reader unpacks each distinct run of
length byte and bits once, and rows share the resulting strings. The payload
length in bits is not stored: the reader decodes exactly s symbols and
treats leftover bits as padding, which must be fewer than 8 and all zero.

The table text format is three whitespace-separated fields per line after
two header lines:

    order 2
    alphabet ab
    ~ a 0
    ~ b 1
    a a 0
    ...

`~` denotes the empty context. Symbols use the same escaping as everywhere
else: printable ASCII except backslash and tilde is literal, anything else
is \\xNN. Lines starting with # and blank lines are ignored.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from .builder import build_order1
from .codec import decode
from .core import (
    AdaptiveCodeError,
    Alphabet,
    CodeTable,
    Codeword,
    Context,
    Record,
    TableError,
    format_context,
    format_symbol,
    is_bits,
    iter_contexts,
)

MAGIC = b"ADC1"
VERSION = 0x01
MODE_BUILDER = 0x00
MODE_EXPLICIT = 0x01
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class ContainerError(AdaptiveCodeError):
    """Malformed or unreadable container bytes."""


class PackedBits(Record):
    """Bits packed MSB-first into bytes, final byte zero-padded."""

    __slots__ = _fields = ("data", "bit_count")

    def __init__(self, data: bytes, bit_count: int):
        super().__init__(data, bit_count)


def pack_bits(bits: str) -> PackedBits:
    # int() would also accept "_", a sign and surrounding whitespace
    if not is_bits(bits):
        raise ContainerError("bit sequence must contain only 0 and 1")
    size = (len(bits) + 7) // 8
    data = int(bits.ljust(8 * size, "0") or "0", 2).to_bytes(size, "big")
    return PackedBits(data, len(bits))


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

    def __init__(self, table: CodeTable, symbol_count: int, payload_bits: str, builder_mode: bool):
        super().__init__(table, symbol_count, payload_bits, builder_mode)


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
    if max(map(len, chain.from_iterable(table.rows.values()))) > 255:
        raise ContainerError("codeword longer than 255 bits")
    return MODE_EXPLICIT


def write_container(
    table: CodeTable,
    symbol_count: int,
    payload_bits: str,
    builder_mode: bool | None = None,
) -> bytes:
    """Serialize a table and an encoded payload.

    builder_mode None picks mode 0x00 automatically when the table equals
    its alphabet's build_order1 result. Forcing True on any other table is
    an error; explicit mode requires a total table.
    """
    _check_symbol_count(symbol_count)
    return _write_container(table, symbol_count, payload_bits, _container_mode(table, builder_mode))


def _write_container(table: CodeTable, symbol_count: int, payload_bits: str, mode: int) -> bytes:
    """write_container for a mode that _container_mode gave for this table."""
    h = table.alphabet.size
    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out.append(table.order)
    out += h.to_bytes(2, "big")
    out += bytes(table.alphabet.symbols)
    out += symbol_count.to_bytes(8, "big")
    out.append(mode)
    if mode == MODE_EXPLICIT:
        # codeword -> its length byte and packed bits; rows repeat codewords
        encoded: dict[Codeword, bytes] = {}
        for ctx in iter_contexts(h, table.order):
            for word in table.rows[ctx]:
                raw = encoded.get(word)
                if raw is None:
                    raw = encoded[word] = bytes((len(word),)) + pack_bits(word).data
                out += raw
    out += pack_bits(payload_bits).data
    return bytes(out)


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
        minimum = 2 * h * sum(h**k for k in range(order + 1))
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


def table_to_text(table: CodeTable) -> str:
    """Render a table in the line-oriented text format, rows in canonical
    context order."""
    lines = [
        f"order {table.order}",
        "alphabet " + "".join(format_symbol(v) for v in table.alphabet.symbols),
    ]
    for ctx in sorted(table.rows, key=lambda c: (len(c), c)):
        ctx_text = format_context(table.alphabet, ctx)
        for index, word in enumerate(table.rows[ctx]):
            lines.append(
                f"{ctx_text} {format_symbol(table.alphabet.symbols[index])} {word}"
            )
    return "\n".join(lines) + "\n"


def _parse_symbol_values(text: str) -> list[int]:
    values = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            # int() alone would also take a sign or non-ASCII digits
            digits = text[i + 2 : i + 4]
            if text[i + 1 : i + 2] != "x" or len(digits) != 2 or not set(digits) <= _HEX_DIGITS:
                raise TableError(f"bad escape in '{text}'")
            values.append(int(digits, 16))
            i += 4
        else:
            if ord(ch) > 255:
                raise TableError(f"'{ch}' is not a single byte")
            values.append(ord(ch))
            i += 1
    return values


def table_from_text(text: str) -> CodeTable:
    """Parse the table text format. Errors carry 1-based line numbers."""
    entries: list[tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            entries.append((line_no, line))
    if len(entries) < 2:
        raise TableError("table text needs an order line and an alphabet line")

    cells: dict[Context, dict[int, str]] = {}
    # Fields repeat from line to line. Only fields that passed their checks
    # are remembered, so an error still names the first line that has it.
    contexts: dict[str, Context] = {"~": ()}
    symbols: dict[str, int] = {}
    codewords: set[str] = set()
    line_no, line = entries[0]
    try:
        fields = line.split()
        # int() alone would also take a sign, "_" or non-ASCII digits
        digits = fields[-1]
        if len(fields) != 2 or fields[0] != "order" or not (digits.isascii() and digits.isdigit()):
            raise TableError("expected 'order <n>'")
        try:
            order = int(digits)
        except ValueError:  # more digits than int() converts
            raise TableError("expected 'order <n>'") from None
        if order < 1:
            raise TableError("order must be at least 1")

        line_no, line = entries[1]
        fields = line.split()
        if len(fields) != 2 or fields[0] != "alphabet":
            raise TableError("expected 'alphabet <symbols>'")
        values = _parse_symbol_values(fields[1])
        if len(set(values)) != len(values):
            raise TableError("alphabet symbols must be distinct")
        alphabet = Alphabet(tuple(values))

        for line_no, line in entries[2:]:
            fields = line.split()
            if len(fields) != 3:
                raise TableError(f"expected '<context> <symbol> <bits>', got '{line}'")
            ctx_field, symbol_field, bits = fields
            ctx = contexts.get(ctx_field)
            if ctx is None:
                ctx = tuple(map(alphabet.index_of, _parse_symbol_values(ctx_field)))
                if len(ctx) > order:
                    raise TableError(f"context longer than order {order}")
                contexts[ctx_field] = ctx
            symbol = symbols.get(symbol_field)
            if symbol is None:
                symbol_values = _parse_symbol_values(symbol_field)
                if len(symbol_values) != 1:
                    raise TableError(f"expected a single symbol, got '{symbol_field}'")
                symbol = symbols[symbol_field] = alphabet.index_of(symbol_values[0])
            if bits not in codewords:
                if not bits or not is_bits(bits):
                    raise TableError(f"codeword must be nonempty bits, got '{bits}'")
                codewords.add(bits)
            row = cells.setdefault(ctx, {})
            if symbol in row:
                raise TableError(
                    f"duplicate cell for context '{ctx_field}' and symbol '{symbol_field}'"
                )
            row[symbol] = bits
    except TableError as exc:
        raise TableError(f"line {line_no}: {exc}") from None

    h = alphabet.size
    rows: dict[Context, tuple[Codeword, ...]] = {}
    for ctx, row in cells.items():
        if len(row) != h:
            raise TableError(
                f"incomplete row for context '{format_context(alphabet, ctx)}': "
                f"{len(row)} of {h} codewords"
            )
        rows[ctx] = tuple(row[i] for i in range(h))
    return CodeTable(alphabet=alphabet, order=order, rows=rows)
