"""Alphabets, contexts, and context-conditioned codeword tables.

Symbols are single byte values (0..255). A code table of order n maps a
context, the tuple of up to n preceding symbol indices, to a row of binary
codewords, one codeword per alphabet symbol. Codewords are nonempty strings
over "01". Tables may be partial: looking up a missing row is an error.
Every value here is immutable after construction and safe to share. The
package's errors are defined here too, so that a layer can catch them
without loading the layer that raises them.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Collection, Iterable, Iterator, Mapping, Sequence

Codeword = str
Context = tuple[int, ...]

EMPTY_CONTEXT: Context = ()


class AdaptiveCodeError(Exception):
    """Base class for every error raised by this package."""


class TableError(AdaptiveCodeError):
    """Structurally invalid table, or a failed codeword lookup."""


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


class ContainerError(AdaptiveCodeError):
    """Malformed or unreadable container bytes."""


def format_symbol(symbol: int) -> str:
    """Render a byte value for messages, reports, and the table text format.

    Printable ASCII stands for itself; #, backslash, tilde, and everything
    outside 33..126 render as a \\xNN escape so renderings stay unambiguous
    (a table text line starting with # would be a comment).
    """
    if 33 <= symbol <= 126 and symbol not in (0x23, 0x5C, 0x7E):
        return chr(symbol)
    return f"\\x{symbol:02x}"


class Record:
    """Base of the package's immutable values.

    A subclass lists its fields in _fields, in constructor order.
    Record.__init__ binds positional and keyword arguments to them as a
    function binds its parameters, and raises TypeError for too many,
    missing, unknown or repeated arguments; a subclass that checks its
    arguments has its own __init__, which hands the field values on.
    Records are equal when they have the same type and equal fields, hash as
    the tuple of their fields (so a record holding a dict is unhashable),
    and repr as Name(field=value, ...) without the fields in _hidden.
    Nothing can be assigned or deleted after construction; slots outside
    _fields are caches, set once with object.__setattr__. Copies and
    unpickled records are built by calling the class with the field values.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls._fields  # positional class patterns in match

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        values = dict(zip(fields, args))
        repeated = len(args) > len(fields) or values.keys() & kwargs.keys()
        values.update(kwargs)
        if repeated or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the arguments {', '.join(fields)}")
        for name in fields:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild a record through its checked __init__
        return type(self), self._values()

    def __repr__(self) -> str:
        shown = (f"{n}={getattr(self, n)!r}" for n in self._fields if n not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")


class Alphabet(Record):
    """Ordered set of distinct byte values with index lookup."""

    __slots__ = ("symbols", "_index")
    _fields = ("symbols",)

    def __init__(self, symbols: tuple[int, ...]):
        symbols = tuple(symbols)
        if not symbols:
            raise AdaptiveCodeError("empty alphabet source")
        for value in symbols:
            if not isinstance(value, int) or not 0 <= value <= 255:
                raise AdaptiveCodeError(f"alphabet symbol {value!r} is not a byte value")
        if len(set(symbols)) != len(symbols):
            raise AdaptiveCodeError("alphabet symbols must be distinct")
        super().__init__(symbols)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: int) -> bool:
        return symbol in self._index

    def index_of(self, symbol: int) -> int:
        """Index of a byte value, or TableError if it is not in the alphabet."""
        try:
            return self._index[symbol]
        except KeyError:
            raise TableError(f"symbol {format_symbol(symbol)} not in alphabet") from None

    def to_bytes(self, indices: Sequence[int]) -> bytes:
        return bytes(self.symbols[i] for i in indices)


def alphabet_from_bytes(data: bytes) -> Alphabet:
    """The sorted distinct byte values of data as an Alphabet."""
    view, seen = memoryview(data), set()
    for start in range(0, len(view), 4096):  # at C level, deleting the values seen
        seen.update(bytes(view[start : start + 4096]).translate(None, bytes(seen)))
    return Alphabet(tuple(sorted(seen)))


def format_context(alphabet: Alphabet, ctx: Sequence[int]) -> str:
    """Render a context of symbol indices; the empty context renders as ~."""
    if not ctx:
        return "~"
    return "".join(format_symbol(alphabet.symbols[i]) for i in ctx)


def iter_contexts(alphabet_size: int, order: int) -> Iterator[Context]:
    """All contexts up to the given order: empty first, then by length, then
    in lexicographic index order. This is the canonical enumeration used by
    the container and table text formats."""
    yield EMPTY_CONTEXT
    for length in range(1, order + 1):
        yield from product(range(alphabet_size), repeat=length)


def _context_count(h: int, order: int) -> int:
    """How many contexts iter_contexts(h, order) yields: the sum of h**k for k = 0..order."""
    return order + 1 if h == 1 else (h ** (order + 1) - 1) // (h - 1)


def _pack_bits(bits: str) -> bytes:
    """A '0'/'1' str packed MSB-first into bytes, the last one zero-padded."""
    return (int(bits or "0", 2) << (-len(bits) % 8)).to_bytes((len(bits) + 7) // 8, "big")


def is_bits(s: str) -> bool:
    """True if s holds only the characters 0 and 1. A long s is checked in
    slices of 64 KiB, so that it is never copied whole."""
    if len(s) <= 1 << 16:
        return s.isascii() and not s.encode().translate(None, b"01")
    return all(map(is_bits, (s[i : i + (1 << 16)] for i in range(0, len(s), 1 << 16))))


def _check_codewords(rows: Collection[Iterable[Codeword]]) -> int:
    """The length of the longest word of rows (0 if there is none), or
    TableError unless every word is a nonempty string of 0/1 bits. Tables
    repeat codewords, so the distinct words are checked together; only if
    one is bad or unhashable does a scan in order name the first bad word."""
    try:
        words = set(chain.from_iterable(rows))
        if "" not in words and is_bits("".join(words)):
            return max(map(len, words), default=0)
    except TypeError:  # an unhashable word, or a word that is not a str
        pass
    for word in chain.from_iterable(rows):
        if not isinstance(word, str) or not word or not is_bits(word):
            raise TableError(f"codeword must be a nonempty string of 0/1 bits, got {word!r}")


class CodeTable(Record):
    """A context-conditioned codeword table.

    rows maps a context (tuple of symbol indices, at most order long) to a
    tuple of h codewords in alphabet index order. The empty-context row is
    mandatory; other rows may be absent, in which case encoding through the
    missing context fails.
    """

    # _prefix caches codec.prefix_predicate, set on its first call or by the
    # container reader, which rebuilds code-length rows as prefix codes;
    # _longest is the length of the longest codeword
    __slots__ = ("alphabet", "order", "rows", "_prefix", "_longest")
    _fields = ("alphabet", "order", "rows")

    def __init__(
        self, alphabet: Alphabet, order: int, rows: Mapping[Context, tuple[Codeword, ...]]
    ):
        if isinstance(order, bool) or not isinstance(order, int):
            raise TableError(f"table order must be an int, got {order!r}")
        if order < 1:
            raise TableError("table order must be at least 1")
        h = alphabet.size
        normalized: dict[Context, tuple[Codeword, ...]] = {}
        for raw_ctx, raw_row in rows.items():
            ctx = tuple(raw_ctx)
            if len(ctx) > order:
                raise TableError(f"context of length {len(ctx)} exceeds table order {order}")
            if any(not 0 <= i < h for i in ctx):
                raise TableError(f"context {ctx} has a symbol index out of range")
            row = tuple(raw_row)
            if len(row) != h:
                raise TableError(
                    f"row for context '{format_context(alphabet, ctx)}' has "
                    f"{len(row)} codewords, expected {h}"
                )
            normalized[ctx] = row
        longest = _check_codewords(normalized.values())
        if EMPTY_CONTEXT not in normalized:
            raise TableError("table must define the empty-context row")
        super().__init__(alphabet, order, normalized)
        object.__setattr__(self, "_longest", longest)

    def is_total(self) -> bool:
        """True if every context up to the table's order has a row."""
        # a total table has a row of each length 0..order, so a table with no
        # more rows than its order is not, without computing h**(order + 1)
        n = len(self.rows)
        return n > self.order and n == _context_count(self.alphabet.size, self.order)


def table_get(table: CodeTable, symbol: int, ctx: Sequence[int]) -> Codeword:
    """Codeword for a symbol index in a context; never empty.

    Raises TableError when the context row is missing or the symbol index is
    out of range.
    """
    key = tuple(ctx)
    row = table.rows.get(key)
    if row is None or not 0 <= symbol < table.alphabet.size:
        raise TableError(
            f"no codeword for (symbol index {symbol}, "
            f"context '{format_context(table.alphabet, key)}')"
        )
    return row[symbol]
