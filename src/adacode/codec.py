"""Context-conditioned encoding and greedy prefix decoding.

Encoding walks the input once, emitting the codeword of each symbol under
the window of up to `order` preceding symbols. Decoding is greedy: because
every context row it visits is a prefix code, at most one codeword can match
the next bits. As in zlib's inflate, each row is built once into a table of
256 entries indexed by the next 8 bits, read from a buffer of every bit
offset's window byte, and longer codewords go on through sub-tables. There
is one encode loop and one decode loop; the table codec and the GA codes of
adacode.ga supply only their context rule, a cache of their rows and one
callback for a context not in it, which also words their errors.
"""

from __future__ import annotations

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

        def missing(window: bytes, position: int) -> tuple[bytes, dict[int, list]]:
            words = table.rows.get(tuple(map(index_of, window)), ())
            cells = {value: [word, None] for value, word in zip(table.alphabet.symbols, words)}
            self._codes[window] = cells
            return window, cells

        def fail(index: int, window: bytes) -> EncodeError:
            position = self._position + index - start + 1
            try:
                table_get(table, index_of(buf[index]), tuple(map(index_of, window)))
            except TableError as exc:
                return EncodeError(f"{exc} (position {position})", position)

        bits = _greedy_encode(
            buf, start, _window(table.order), self._codes, missing, fail, fixed_window=True
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
    codes: dict,
    missing: Callable[[object, int], tuple[bytes, dict[int, list]]],
    fail: Callable[[int, bytes], EncodeError],
    fixed_window: bool = False,
) -> str:
    """The encode loop behind encode() and ga_encode(), the mirror of
    _greedy_decode: it encodes data[start:], naming the context of data[i]
    by context(i + 1, view[:i]), view being a read-only view of data. codes
    maps a context's bytes to its cells, a dict from byte value to
    [codeword, next cells]. A result that is bytes, or a one-dimensional 'B'
    memoryview, whose bytes are a key of codes is used as it is; any other
    result goes to missing(result, position), which raises or returns the
    bytes of the context it names and that context's cells. The loop never
    writes codes; missing may. A byte without a cell raises fail(index,
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
                ctx, code = missing(ctx, i + 1)
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


_MISS = (None, 0, 0)  # the entry of bits that begin no codeword


def _code(row: Iterable[tuple[int, str]], depth: int = 0, width: int = 8) -> list:
    """A prefix-code row's (byte value, codeword) pairs as a decode table of
    2 ** width entries, indexed by the width bits from bit depth on. A
    codeword that ends there fills the entries that start with it with its
    cell [byte value, next code, length]; longer ones go on through a
    sub-table entry (sub-table, 8 - k, 0) of k <= 8 bits, as in zlib's
    inflate; the rest are _MISS."""
    table = [_MISS] * (1 << width)
    longer: dict[int, list] = {}
    for value, word in row:
        if len(word) - depth <= width:
            span = 1 << (width - len(word) + depth)
            start = int(word[depth:], 2) * span
            table[start : start + span] = [[value, None, len(word)]] * span
        else:
            longer.setdefault(int(word[depth : depth + 8], 2), []).append((value, word))
    for index, group in longer.items():
        k = min(8, max(len(word) for _, word in group) - depth - 8)
        table[index] = (_code(group, depth + 8, k), 8 - k, 0)
    return table


def _descend(table: list, windows: bytearray, cursor: int, total: int) -> list | bool:
    """The cell of the codeword at cursor that a row's table reaches through
    sub-tables, or on a miss whether the bits left begin a longer codeword,
    as they do when a sub-table is reached with none left."""
    shift = 0
    while cursor < total:
        index = windows[cursor] >> shift
        if table[index] is _MISS:
            span = 1 << max(0, 8 - shift - total + cursor)
            return total - cursor < 8 - shift and table[index : index + span] != [_MISS] * span
        if table[index][2]:
            return table[index]
        table, shift, _ = table[index]
        cursor += 8
    return True


def _greedy_decode(
    bits: str | bytes,
    max_symbols: int | None,
    context: Callable[[int, memoryview], object],
    codes: dict,
    missing: Callable[[object, int, int], tuple[bytes, list]],
    fixed_window: bool = False,
) -> DecodeTrace:
    """The greedy decode loop behind decode() and ga_decode(). The context of
    the symbol at 1-based position p is named by context(p, prior) from a
    read-only view of the p-1 bytes decoded before it, and looked up as in
    _greedy_encode. codes maps a context's bytes to its decode table (see
    _code); a result that is not a key goes to missing(result, p, cursor),
    which returns the bytes of the context it names and its decode table, or
    raises a DecodeError that carries that context. windows[i] is the 8 bits
    from bit i, zeros past the end. With fixed_window, a cell caches the code
    of the next context. Every DecodeError raised once decoding has started
    names the position and the context of the symbol being decoded."""
    if not isinstance(bits, (str, bytes)):
        raise DecodeError(f"bit sequence must be a str or bytes, not {type(bits).__name__}")
    if isinstance(bits, str) and not is_bits(bits):
        raise DecodeError("bit sequence must contain only 0 and 1")
    total = len(bits) if isinstance(bits, str) else 8 * len(bits)
    bits = int(bits or "0", 2) if isinstance(bits, str) else int.from_bytes(bits, "big")
    windows = bytearray(total)  # one shift per bit offset s fills windows[s::8]
    for s in range(min(8, total)):
        k = (total - s + 7) // 8
        windows[s::8] = memoryview((bits << (8 * k + s - total)).to_bytes(k + 1, "big"))[1:]
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
                try:
                    ctx, code = missing(ctx, count + 1, cursor)
                except DecodeError as exc:
                    exc.position = count + 1
                    raise
            if fixed_window and cell is not None:
                cell[1] = code
        cell = code[windows[cursor]]
        if not cell[2]:
            cell = _descend(code, windows, cursor, total)
            if type(cell) is bool:  # a miss; cell tells if the input is truncated
                break
        out[count] = cell[0]
        count += 1
        cursor += cell[2]
        code = cell[1]
    else:
        if cursor <= total:
            return DecodeTrace(view[:count].tobytes(), count, cursor)
        count -= 1
        cursor -= cell[2]
        cell = True  # the last codeword runs past the end
    if fixed_window:  # a cached successor leaves ctx stale
        ctx = context(count + 1, view[:count])
    kind = "truncated input" if cell else "undecodable"
    raise DecodeError(f"{kind} at bit offset {cursor}", cursor, count + 1, ctx)


def decode(table: CodeTable, bits: str | bytes, max_symbols: int | None = None) -> DecodeTrace:
    """Greedily decode a bit sequence produced by encode() with this table:
    a '0'/'1' str, or bytes that pack 8 bits each, most significant first.

    Tables with prefix_predicate false are refused outright. When max_symbols
    (None or an int) is given, decoding stops after that many symbols and
    reports how many bits were consumed; otherwise the whole sequence must
    decode.
    """
    if max_symbols is not None and (type(max_symbols) is bool or not isinstance(max_symbols, int)):
        raise DecodeError(f"max_symbols must be None or an int, got {max_symbols!r}")
    if not prefix_predicate(table):
        raise DecodeError("table has a context row that is not a prefix code; decoding refused")

    codes: dict[bytes, list] = {}

    def missing(window: bytes, position: int, cursor: int) -> tuple[bytes, list]:
        ctx = tuple(map(table.alphabet.index_of, window))
        if ctx not in table.rows:
            name = f"'{format_context(table.alphabet, ctx)}' at bit offset {cursor}"
            raise DecodeError(f"no codeword row for context {name}", cursor, context=window)
        code = codes[window] = _code(zip(table.alphabet.symbols, table.rows[ctx]))
        return window, code

    return _greedy_decode(bits, max_symbols, _window(table.order), codes, missing, fixed_window=True)
