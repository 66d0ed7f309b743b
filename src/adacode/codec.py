"""Context-conditioned encoding and greedy prefix decoding.

Encoding walks the input once, emitting the codeword of each symbol under
the window of up to `order` preceding symbols. Decoding is greedy: because
every context row it visits is a prefix code, at most one codeword can match
the next bits. Each row is built once into a single-level window table, as
canonical Huffman decoders do: one lookup of the next w bits finds any
codeword of at most w bits, w being at most the bit length of the row's
symbol count so that the table stays within twice that count; the few longer
codewords are looked up by length. There is one encode loop and one decode
loop; the table codec and the GA codes of adacode.ga supply only their
context rule, their rows and their error wording.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable

from .core import AdaptiveCodeError, CodeTable, Record, TableError
from .core import format_context, is_bits, table_get
from .prefix import is_prefix_code


class EncodeError(AdaptiveCodeError):
    """A symbol could not be encoded; carries its 1-based position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class DecodeError(AdaptiveCodeError):
    """A bit sequence could not be decoded; carries the failing bit offset,
    and the 1-based position and the context (as byte values) of the symbol
    being decoded. position and context are None when decoding was refused
    before it started."""

    def __init__(
        self,
        message: str,
        bit_offset: int | None = None,
        position: int | None = None,
        context: bytes | None = None,
    ):
        super().__init__(message)
        self.bit_offset = bit_offset
        self.position = position
        self.context = context


class DecodeTrace(Record):
    """Decoder result: the output bytes, how many greedy iterations ran
    (always one per output symbol), and how many bits were consumed."""

    __slots__ = _fields = ("output", "iterations", "bits_consumed")

    def __init__(self, output: bytes, iterations: int, bits_consumed: int):
        super().__init__(output, iterations, bits_consumed)


def prefix_predicate(table: CodeTable) -> bool:
    """True if every context row present in the table is a prefix code.

    Sufficient for decodability, not necessary: a table can fail this check
    and still encode injectively. Such tables are refused by decode(). The
    answer is computed once per table and kept in its _prefix slot.
    """
    try:
        return table._prefix
    except AttributeError:
        ok = all(is_prefix_code(row) for row in table.rows.values())
        object.__setattr__(table, "_prefix", ok)
        return ok


class IncrementalEncoder:
    """Streaming encoder. Feeding data in chunks yields exactly the bits of
    one-shot encoding, since only the trailing window carries between calls.
    The cells of each visited context are built once and kept."""

    def __init__(self, table: CodeTable):
        self._table = table
        self._codes: dict[bytes, dict[int, list]] = {}
        self._tail = b""
        self._position = 0

    def feed(self, data: bytes) -> str:
        table, index_of = self._table, self._table.alphabet.index_of
        buf = self._tail + data
        start = len(self._tail)

        def row(window: bytes) -> dict[int, list]:
            words = table.rows.get(tuple(map(index_of, window)), ())
            return {value: [word, None] for value, word in zip(table.alphabet.symbols, words)}

        def fail(index: int, window: bytes) -> EncodeError:
            position = self._position + index - start + 1
            try:
                table_get(table, index_of(buf[index]), tuple(map(index_of, window)))
            except TableError as exc:
                return EncodeError(f"{exc} (position {position})", position)

        bits = _greedy_encode(
            buf, start, _window(table.order), None, self._codes, row, fail, fixed_window=True
        )
        self._position += len(buf) - start
        self._tail = buf[-table.order :]
        return bits


def encode(table: CodeTable, data: bytes) -> str:
    """Concatenated codewords of data, each conditioned on its preceding
    window of up to table.order symbols. Empty input encodes to ""."""
    return IncrementalEncoder(table).feed(data)


def _window(order: int) -> Callable[[int, memoryview], bytes]:
    """The context rule of order-n tables: the up to n bytes before a position."""
    return lambda position, prior: prior[-order:].tobytes()


def _greedy_encode(
    data: bytes,
    start: int,
    context: Callable[[int, memoryview], object],
    check: Callable[[object, int], bytes] | None,
    codes: dict,
    row: Callable[[bytes], dict[int, list]],
    fail: Callable[[int, bytes], EncodeError],
    fixed_window: bool = False,
) -> str:
    """The encode loop behind encode() and ga_encode(), the mirror of
    _greedy_decode: it encodes data[start:], naming the context of data[i]
    by context(i + 1, view[:i]), view being a read-only view of data. codes
    maps a context's bytes to its cells, a dict from byte value to
    [codeword, next cells]. A result that is bytes, or a one-dimensional 'B'
    memoryview, whose bytes are a key of codes is used as it is; any other
    result goes to check(result, position), which raises or returns its
    bytes (None: results are always bytes), and row(ctx) builds the cells of
    a context not in codes yet. A byte without a cell raises fail(index,
    ctx). With fixed_window, a cell caches the cells of the next context, as
    in _greedy_decode.
    """
    view = memoryview(data).toreadonly()
    out: list[str] = []
    code = cell = None
    for i in range(start, len(data)):
        if code is None:
            ctx = context(i + 1, view[:i])
            if type(ctx) is memoryview and ctx.format == "B" and ctx.ndim == 1:
                ctx = ctx.tobytes()
            code = codes.get(ctx) if type(ctx) is bytes else None
            if code is None:
                if check is not None:
                    ctx = check(ctx, i + 1)
                    code = codes.get(ctx)
                if code is None:
                    code = codes[ctx] = row(ctx)
            if fixed_window and cell is not None:
                cell[1] = code
        cell = code.get(data[i])
        if cell is None:
            if fixed_window:  # a cached successor leaves ctx stale
                ctx = context(i + 1, view[:i])
            raise fail(i, ctx)
        out.append(cell[0])
        code = cell[1]
    return "".join(out)


@cache
def _spans(w: int) -> dict[str, list[str]]:
    """Every bit string of at most w bits, mapped to the w-bit windows that
    start with it. Built once per window width (at most 9, see _code) and
    shared, never written, by all rows, so that building a row's table
    allocates no key strings."""
    spans: dict[str, list[str]] = {}
    for i in range(1 << w):
        window = format(i, f"0{w}b")
        for k in range(1, w + 1):
            spans.setdefault(window[:k], []).append(window)
    return spans


def _code(row: Iterable[tuple[int, str]]) -> tuple[dict[str, list], int, tuple[int, ...]]:
    """A prefix-code row's (byte value, codeword) pairs as a decode table
    (table, w, longer). w is the row's longest codeword length, capped at the
    bit length of its codeword count h, so the table holds at most 2h window
    keys. table maps each w-bit window that starts with a codeword of at most
    w bits, and each longer codeword itself, to the codeword's cell
    [byte value, next code, codeword length]; longer holds the distinct
    lengths above w in increasing order."""
    cells = {word: [value, None, len(word)] for value, word in row}
    w = min(max(map(len, cells)), len(cells).bit_length())
    spans = _spans(w)
    table = {key: cell for word, cell in cells.items() for key in spans.get(word, (word,))}
    return table, w, tuple(sorted({len(word) for word in cells if len(word) > w}))


def _greedy_decode(
    bits: str,
    max_symbols: int | None,
    context: Callable[[int, memoryview], object],
    check: Callable[[object, int], bytes] | None,
    codes: dict,
    row: Callable[[bytes, int], tuple],
    fixed_window: bool = False,
) -> DecodeTrace:
    """The greedy decode loop behind decode() and ga_decode().

    The context of the symbol at 1-based position p is named by context(p,
    prior) from a read-only view of exactly the p-1 bytes decoded before it,
    which never change; a result is looked up and checked as in
    _greedy_encode. codes maps a context's bytes to its code (see _code);
    row(ctx, cursor) builds that of a context not in codes yet or raises
    DecodeError. Each step looks the next w bits up once, and only on a miss
    the next k bits for each longer length k. Fewer than w bits before the
    end are padded with zeros, and the hit counts only if its codeword fits
    in them. With fixed_window, a cell caches the code of the next context,
    which follows from its context and symbol, so the rule does not run at
    every position. Every DecodeError raised once decoding has started
    carries the position and the context of the symbol being decoded.
    """
    total = len(bits)
    if not is_bits(bits):
        raise DecodeError("bit sequence must contain only 0 and 1")
    out = bytearray(total if max_symbols is None else max(0, min(max_symbols, total)))
    view = memoryview(out).toreadonly()
    limit = len(out)
    cursor = count = 0
    code = cell = None
    while count < limit and cursor < total:
        if code is None:
            ctx = context(count + 1, view[:count])
            # views of a bytearray cannot be hashed
            if type(ctx) is memoryview and ctx.format == "B" and ctx.ndim == 1:
                ctx = ctx.tobytes()
            code = codes.get(ctx) if type(ctx) is bytes else None
            if code is None:
                if check is not None:
                    ctx = check(ctx, count + 1)
                    code = codes.get(ctx)
                if code is None:
                    try:
                        code = codes[ctx] = row(ctx, cursor)
                    except DecodeError as exc:
                        exc.position, exc.context = count + 1, ctx
                        raise
            if fixed_window and cell is not None:
                cell[1] = code
        table, w, longer = code
        cell = table.get(bits[cursor : cursor + w])
        if cell is None:
            for k in longer:
                cell = table.get(bits[cursor : cursor + k])
                if cell is not None:
                    break
            else:
                left = total - cursor
                if left < w:
                    cell = table.get(bits[cursor:].ljust(w, "0"))
                if cell is None or cell[2] > left:
                    if fixed_window:  # a cached successor leaves ctx stale
                        ctx = context(count + 1, view[:count])
                    # padded keys start with the rest exactly when codewords do
                    tail = bits[cursor : cursor + (longer[-1] if longer else w)]
                    if any(key.startswith(tail) for key in table):
                        raise DecodeError(
                            f"truncated input at bit offset {cursor}", cursor, count + 1, ctx
                        )
                    raise DecodeError(
                        f"undecodable at bit offset {cursor}", cursor, count + 1, ctx
                    )
        out[count] = cell[0]
        count += 1
        cursor += cell[2]
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

    return _greedy_decode(
        bits, max_symbols, _window(table.order), None, {}, row, fixed_window=True
    )
