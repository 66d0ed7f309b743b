"""Context-conditioned encoding and greedy prefix decoding.

Encoding walks the input once, emitting the codeword of each symbol under
the window of up to `order` preceding symbols. Decoding is greedy: because
every context row it visits is a prefix code, at most one codeword can match
the next bits, so for each codeword length of the row, shortest first, the
decoder looks the next that many bits up in the row's codeword dict, and the
first hit is the symbol. The same decode loop serves the GA codes of adacode.ga.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from .core import AdaptiveCodeError, CodeTable, TableError, format_context, is_bits, table_get
from .prefix import is_prefix_code


class EncodeError(AdaptiveCodeError):
    """A symbol could not be encoded; carries its 1-based position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class DecodeError(AdaptiveCodeError):
    """A bit sequence could not be decoded; carries the failing bit offset."""

    def __init__(self, message: str, bit_offset: int | None = None):
        super().__init__(message)
        self.bit_offset = bit_offset


@dataclass(frozen=True)
class DecodeTrace:
    """Decoder result: the output bytes, how many greedy iterations ran
    (always one per output symbol), and how many bits were consumed."""

    output: bytes
    iterations: int
    bits_consumed: int


def prefix_predicate(table: CodeTable) -> bool:
    """True if every context row present in the table is a prefix code.

    Sufficient for decodability, not necessary: a table can fail this check
    and still encode injectively. Such tables are refused by decode().
    """
    return all(is_prefix_code(row) for row in table.rows.values())


class IncrementalEncoder:
    """Streaming encoder. Feeding data in chunks yields exactly the bits of
    one-shot encoding, since only the trailing window carries between calls."""

    def __init__(self, table: CodeTable):
        self._table = table
        self._rows: dict[bytes, dict[int, str]] = {}
        self._tail = b""
        self._position = 0

    def feed(self, data: bytes) -> str:
        table, rows, order = self._table, self._rows, self._table.order
        index_of = table.alphabet.index_of
        buf = self._tail + data
        start = len(self._tail)
        out: list[str] = []
        for i in range(start, len(buf)):
            window = buf[i - order : i] if i >= order else buf[:i]
            row = rows.get(window)
            if row is None:
                words = table.rows.get(tuple(map(index_of, window)), ())
                row = rows[window] = dict(zip(table.alphabet.symbols, words))
            word = row.get(buf[i])
            if word is None:
                position = self._position + i - start + 1
                try:
                    table_get(table, index_of(buf[i]), tuple(map(index_of, window)))
                except TableError as exc:
                    raise EncodeError(f"{exc} (position {position})", position) from exc
            out.append(word)
        self._position += len(buf) - start
        self._tail = buf[-order:]
        return "".join(out)


def encode(table: CodeTable, data: bytes) -> str:
    """Concatenated codewords of data, each conditioned on its preceding
    window of up to table.order symbols. Empty input encodes to ""."""
    return IncrementalEncoder(table).feed(data)


def _code(row: Iterable[tuple[int, str]]) -> tuple[dict[str, list], tuple[int, ...]]:
    """A prefix-code row's (byte value, codeword) pairs as a dict from codeword
    to cell [byte value, next code], and its distinct codeword lengths in
    increasing order."""
    words = {word: [value, None] for value, word in row}
    return words, tuple(sorted({len(word) for word in words}))


def _greedy_decode(
    bits: str,
    max_symbols: int | None,
    context: Callable[[int, memoryview], Hashable],
    row: Callable[[Hashable, int], tuple],
    fixed_window: bool = False,
) -> DecodeTrace:
    """The greedy decode loop behind decode() and ga_decode().

    context(position, view) names the context of the symbol at a 1-based
    position from a read-only view of the output, whose first position-1 bytes
    are decoded and never change. row(ctx, cursor) builds the context's code
    (see _code) on first use or raises DecodeError. Each step looks up the
    next k bits for each codeword length k of the row, shortest first. With
    fixed_window, the next context depends only on the current one and the
    decoded symbol, so cells cache their next code.
    """
    total = len(bits)
    if not is_bits(bits):
        raise DecodeError("bit sequence must contain only 0 and 1")
    out = bytearray(total if max_symbols is None else max(0, min(max_symbols, total)))
    view = memoryview(out).toreadonly()
    limit = len(out)
    codes: dict = {}
    cursor = count = 0
    code = cell = None
    while count < limit and cursor < total:
        if code is None:
            ctx = context(count + 1, view)
            code = codes.get(ctx)
            if code is None:
                code = codes[ctx] = row(ctx, cursor)
            if fixed_window and cell is not None:
                cell[1] = code
        words, lengths = code
        for k in lengths:
            cell = words.get(bits[cursor : cursor + k])
            if cell is not None:
                break
        else:
            tail = bits[cursor : cursor + lengths[-1]]
            if any(word.startswith(tail) for word in words):
                raise DecodeError(f"truncated input at bit offset {cursor}", cursor)
            raise DecodeError(f"undecodable at bit offset {cursor}", cursor)
        out[count] = cell[0]
        count += 1
        cursor += k
        code = cell[1]
    return DecodeTrace(view[:count].tobytes(), count, cursor)


def decode(table: CodeTable, bits: str, max_symbols: int | None = None) -> DecodeTrace:
    """Greedily decode a bit sequence produced by encode() with this table.

    Tables with prefix_predicate false are refused outright. When max_symbols
    is given, decoding stops after that many symbols and reports how many
    bits were consumed; otherwise the whole sequence must decode.
    """
    if not prefix_predicate(table):
        raise DecodeError(
            "table has a context row that is not a prefix code; decoding refused"
        )

    def row(window: bytes, cursor: int) -> tuple:
        ctx = tuple(map(table.alphabet.index_of, window))
        if ctx not in table.rows:
            raise DecodeError(
                f"no codeword row for context "
                f"'{format_context(table.alphabet, ctx)}' at bit offset {cursor}",
                cursor,
            )
        return _code(zip(table.alphabet.symbols, table.rows[ctx]))

    def window(position: int, view: memoryview) -> bytes:
        return view[max(0, position - 1 - table.order) : position - 1].tobytes()

    return _greedy_decode(bits, max_symbols, window, row, fixed_window=True)
