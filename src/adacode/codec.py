"""Context-conditioned encoding and greedy prefix decoding.

The codeword of each symbol depends only on the symbol and the window of up
to `order` symbols before it, so encoding reads the table's own rows: a
chunk becomes symbol indices in one translate. A position with a full
window of `order` symbols finds its row in a trie of the table's
full-window rows, one dict per distinct proper prefix of a window keyed by
symbol index, whose leaves are the rows themselves: the lookups of a chunk
are chained C-level maps, one per window symbol, over shifted slices of the
indices, so no window tuple is built or hashed per symbol. The first
`order` positions, whose windows are shorter, look their rows up directly.
Besides the trie, the encoder keeps only the last window it was fed.
Decoding is greedy:
because every context row it visits is a prefix code, at most one codeword
can match the next bits. Each row it visits is built once, at a cost in
proportion to its own codewords, into a table of 256 entries indexed by the
next 8 bits, read from a buffer of every bit offset's window byte. Each
entry holds an immutable cell (byte value, length, successor slot), from
one dict per codeword length that all rows share; each distinct codeword's
entries are computed once. The codewords longer than 8 bits that share a
first byte share one entry, a flat group that is compared word by word with
the bits that follow. After its 256 entries a row has one slot per symbol,
which holds the row that follows that symbol, and then its own context.
Built rows are grouped by stem, the window without its first symbol (a
shorter window is its own stem): a group's rows have the same successors,
so a new row copies them from a sibling, and fills its slot in each row of
the group that its window extends by one symbol. So the context rule runs
once per visited row. The buffer covers one chunk of the input bits at a
time and as many bits after it as the code's longest codeword has, and the
output grows chunk by chunk, so decoding holds its input, its output and,
per visited context row, at most 256 + 3h + 1 entries for an alphabet of h
symbols, whatever the codeword lengths; IncrementalEncoder lets a caller
encode in chunks the same way. There is one decode loop; the table codec
and the GA codes of adacode.ga supply only their context rule, a cache of
their rows and one callback for a context not in it, which also words their
errors. Only decoding and adacode.ga.ga_encode run a loop per symbol.
"""

from __future__ import annotations

from collections import defaultdict
from operator import getitem
from typing import Callable, Iterable

# the errors live in core, so that the CLI can catch them without this module
from .core import CodeTable, DecodeError, EncodeError, Record, TableError
from .core import _pack_bits, format_context, is_bits, table_get
from .prefix import is_prefix_code


class DecodeTrace(Record):
    """Decoder result: the output bytes, how many greedy iterations ran
    (always one per output symbol), and how many bits were consumed."""

    __slots__ = _fields = ("output", "iterations", "bits_consumed")


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


_DEPTH = 32  # chained lookup levels of a feed before they are materialised


class IncrementalEncoder:
    """Streaming encoder. Feeding data in chunks yields exactly the bits of
    one-shot encoding, since only the trailing window carries between calls.
    Each codeword is read straight from the table's rows: through a trie of
    its full-window rows, built once per encoder, for a position with a
    full window, and keyed by the shorter window otherwise. The trie holds
    one dict per distinct proper prefix of a full window and the table's
    own row tuples as its leaves, so it copies no row; the encoder holds no
    other state."""

    def __init__(self, table: CodeTable):
        self._table = table
        # byte value -> symbol index; a byte outside the alphabet maps to the
        # alphabet size h, which no row and no context holds
        index, h = table.alphabet._index, table.alphabet.size
        self._indices = bytes(index.get(v, h) for v in range(256))
        self._tail = b""
        self._position = 0
        self._trie: dict = {}
        for ctx, row in table.rows.items():
            if len(ctx) == table.order:
                node = self._trie
                for v in ctx[:-1]:
                    node = node.setdefault(v, {})
                node[ctx[-1]] = row

    def feed(self, data: bytes) -> str:
        order, rows = self._table.order, self._table.rows
        buf = self._tail + data
        start, n = len(self._tail), len(buf)
        idx = buf.translate(self._indices)
        words: list[str] = []  # the codeword of buf[i], i >= start, is words[i - start]
        try:
            words += (rows[tuple(idx[:i])][idx[i]] for i in range(start, min(order, n)))
            if n > order:  # position i >= order has the window idx[i - order : i]
                m = n - order
                level = map(self._trie.__getitem__, idx[:m])
                for k in range(1, order + 1):
                    if not k % _DEPTH:  # bounds the nesting of the maps and the live slices
                        level = list(level)
                    level = map(getitem, level, idx[k : k + m])
                words += level
        except (KeyError, IndexError):  # a missing row, or a byte outside the alphabet
            # words keeps what the lookups gave before the failure, so the scan
            # starts at the failing position, except after a failure in a
            # materialised level, which leaves words at the first full window
            alphabet = self._table.alphabet
            for i in range(start + len(words), n):
                try:
                    table_get(self._table, alphabet.index_of(buf[i]), idx[max(0, i - order) : i])
                except TableError as exc:
                    position = self._position + i - start + 1
                    raise EncodeError(f"{exc} (position {position})", position) from None
        self._position += n - start
        self._tail = buf[-order:]
        return "".join(words)


def encode(table: CodeTable, data: bytes) -> str:
    """Concatenated codewords of data, each conditioned on its preceding
    window of up to table.order symbols. Empty input encodes to ""."""
    return IncrementalEncoder(table).feed(data)


def _window(order: int) -> Callable[[int, memoryview], bytes]:
    """The context rule of order-n tables: the up to n bytes before a position."""
    return lambda position, prior: prior[-order:].tobytes()


_MISS = (None, 0, 0)  # the entry of bits that begin no codeword
_CHUNK = 1 << 13  # payload bytes per window buffer of the decode loop


def _code(row: Iterable[tuple], slots: int, context: bytes, places: dict | None = None) -> list:
    """A prefix-code row's (cell, codeword) pairs as a decode table of 256
    entries, indexed by the next 8 bits, then slots entries that start as
    None, for the caller's successor slots, then the row's context. A cell
    is an immutable tuple (byte value, length, index of its successor slot)
    that rows may share; a codeword of at most 8 bits fills the entries that
    start with it with its cell. All the longer codewords that share a first
    byte go into one entry (group, 0, width): group is the flat tuple word,
    cell, word, cell, ... of their codewords and cells, and width the length
    of the longest. The rest are _MISS. Every leaf has a length, every other
    entry length 0. places, a dict that rows may share, keeps the entries of
    each codeword as one int: start << 9 | span, or ~first byte if longer."""
    table = [_MISS] * (257 + slots)  # built at its size: a list that grows keeps spare room
    table[256:] = [None] * slots + [context]
    longer: dict[int, list] = {}
    places = {} if places is None else places
    for cell, word in row:
        place = places.get(word)
        if place is None:
            n = 8 - len(word)
            place = places[word] = int(word, 2) << n + 9 | 1 << n if n >= 0 else ~int(word[:8], 2)
        if place < 0:
            longer.setdefault(~place, []).extend((word, cell))
        else:
            start, span = place >> 9, place & 511
            table[start : start + span] = [cell] * span
    for index, group in longer.items():
        table[index] = (tuple(group), 0, max(map(len, group[::2])))
    return table


def _descend(table: list, windows: bytearray, cursor: int, end: int) -> tuple | bool:
    """The shared cell of the codeword at cursor, whose first byte's entry
    has length 0: the word of that byte's group (see _code) that the bits
    from cursor on begin with, read from windows, which holds every bit of
    the longest codeword that can start at cursor. On a miss, whether the
    input is truncated: the end - cursor bits left are a proper prefix of a
    codeword of the row."""
    index = windows[cursor]
    group, _, width = table[index]
    if group is None:  # _MISS
        span = 1 << max(0, 8 - end + cursor)
        return table[index : index + span] != [_MISS] * span
    piece = windows[cursor : cursor + width : 8]
    bits = f"{int.from_bytes(piece, 'big'):0{8 * len(piece)}b}"
    for i in range(0, len(group), 2):
        if bits.startswith(group[i]):
            return group[i + 1]
    left = bits[: end - cursor]
    return any(word.startswith(left) for word in group[::2])


def _greedy_decode(
    bits: str | bytes,
    max_symbols: int | None,
    context: Callable[[int, memoryview], object],
    codes: dict,
    missing: Callable[[object, int, int], list],
    lookahead: int,
) -> DecodeTrace:
    """The greedy decode loop behind decode() and ga_decode(). The context of
    the symbol at 1-based position p is named by context(p, prior) from a
    read-only view of the p-1 bytes decoded before it; a result that is bytes,
    or a one-dimensional 'B' memoryview, is looked up by its bytes. codes
    maps a context's bytes to its decode table (see _code), whose last entry
    is those bytes; a result that is not a key goes to missing(result, p,
    cursor), which returns the decode table of the context it names, or
    raises a DecodeError that carries that context and the position p. The
    bits are decoded _CHUNK bytes at a time: windows[i] is the 8 bits from
    bit base + i, zeros past the end, for the chunk and the lookahead bits
    after it, which number the length of the longest codeword, so every
    codeword that starts in the chunk is read whole. The output grows by at
    most one byte per bit of each chunk. The next symbol's table is the one
    in the slot that the last cell names; an empty slot sends the loop to
    the context rule. Every DecodeError raised once decoding has started
    names the position and the context of the symbol being decoded, and its
    global bit offset."""
    if isinstance(bits, str):
        if not is_bits(bits):
            raise DecodeError("bit sequence must contain only 0 and 1")
        total = len(bits)
        bits = _pack_bits(bits)
    elif isinstance(bits, bytes):
        total = 8 * len(bits)
    else:
        raise DecodeError(f"bit sequence must be a str or bytes, not {type(bits).__name__}")
    limit = total if max_symbols is None else max(0, min(max_symbols, total))
    out = bytearray()
    view = memoryview(out).toreadonly()
    base = cursor = count = 0  # cursor counts bits from base, a multiple of 8
    code, cell = [None], _MISS  # the first symbol's slot is empty
    while True:
        end = total - base
        stop = min(end, 8 * _CHUNK)  # a codeword that starts before stop is decoded here
        # windows[i], i < size: the 8 bits from bit base + i, which the bytes
        # of piece hold, with zeros past the end of the input
        size = min(end, stop + lookahead)
        piece = bits[base // 8 : (base + size + 14) // 8]
        value = int.from_bytes(piece, "big")
        n = 8 * len(piece)
        windows = bytearray(n)  # one shift per bit offset s fills windows[s::8]
        for s in range(min(8, n)):
            k = (n - s + 7) // 8
            windows[s::8] = memoryview((value << (8 * k + s - n)).to_bytes(k + 1, "big"))[1:]
        del windows[size:]
        room = min(limit, count + stop)  # every codeword has a bit
        if len(out) < room:
            view.release()
            try:
                out += bytes(room - len(out))
            except BufferError:  # the rule kept a view of out, which must not change
                out = out + bytes(room - len(out))
            view = memoryview(out).toreadonly()
        while count < limit and cursor < stop:
            code = code[cell[2]]  # not after the symbol: an error names the row it failed in
            if code is None:
                ctx = context(count + 1, view[:count])
                # views of a bytearray cannot be hashed
                if type(ctx) is memoryview and ctx.format == "B" and ctx.ndim == 1:
                    ctx = ctx.tobytes()
                code = codes.get(ctx) if type(ctx) is bytes else None
                if code is None:
                    code = missing(ctx, count + 1, base + cursor)
            cell = code[windows[cursor]]
            if not cell[1]:
                cell = _descend(code, windows, cursor, end)
                # a miss gives True if the input is truncated, else False
                if type(cell) is not tuple:
                    break
            out[count] = cell[0]
            count += 1
            cursor += cell[1]
        else:
            if count < limit and cursor < end:  # the next codeword starts past stop
                base += cursor & ~7
                cursor &= 7
                continue
            if cursor <= end:
                return DecodeTrace(view[:count].tobytes(), count, base + cursor)
            count -= 1
            cursor -= cell[1]
            cell = True  # the last codeword runs past the end
        break  # on to the error
    kind = "truncated input" if cell else "undecodable"
    cursor += base
    raise DecodeError(f"{kind} at bit offset {cursor}", cursor, count + 1, code[-1])


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
    places: dict[str, int] = {}  # see _code
    cells: dict[int, dict] = defaultdict(dict)  # length -> symbol index -> cell, shared
    groups: dict[bytes, list] = {}  # stem -> the built rows whose successors are stem + v
    order, alphabet, h = table.order, table.alphabet, table.alphabet.size
    heads = [bytes((v,)) for v in alphabet.symbols]

    def missing(window: bytes, position: int, cursor: int) -> list:
        ctx = tuple(map(alphabet.index_of, window))
        if ctx not in table.rows:
            name = f"'{format_context(alphabet, ctx)}' at bit offset {cursor}"
            raise DecodeError(f"no codeword row for context {name}", cursor, position, window)
        words = table.rows[ctx]
        lengths = list(map(len, words))
        try:  # a cell is made when a visited row first needs it
            row = list(map(getitem, map(cells.__getitem__, lengths), range(h)))
        except KeyError:
            new = zip(alphabet.symbols, lengths, range(256, 256 + h))
            row = list(map(dict.setdefault, map(cells.__getitem__, lengths), range(h), new))
        code = codes[window] = _code(zip(row, words), h, window, places)
        # link the row once, in place: it copies its successors from a sibling,
        # or looks them up if it is the first, and the rows it follows take it
        stem = window[1:] if len(window) == order else window
        group = groups.setdefault(stem, [])
        code[256:-1] = group[0][256:-1] if group else [codes.get(stem + v) for v in heads]
        group.append(code)
        for before in groups.get(window[:-1], ()) if window else ():
            before[256 + ctx[-1]] = code
        return code

    try:
        return _greedy_decode(bits, max_symbols, _window(order), codes, missing, table._longest)
    finally:  # rows refer to each other through their successor slots
        for code in codes.values():
            code.clear()
