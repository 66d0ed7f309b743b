"""Alphabets, contexts, and context-conditioned codeword tables.

Symbols are single byte values (0..255). A code table of order n maps a
context, the tuple of up to n preceding symbol indices, to a row of binary
codewords, one codeword per alphabet symbol. Codewords are nonempty strings
over "01". Tables may be partial: looking up a missing row is an error.
Every value here is immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product
from typing import Iterable, Iterator, Mapping, Sequence

Codeword = str
Context = tuple[int, ...]

EMPTY_CONTEXT: Context = ()


class AdaptiveCodeError(Exception):
    """Base class for every error raised by this package."""


class TableError(AdaptiveCodeError):
    """Structurally invalid table, or a failed codeword lookup."""


def format_symbol(symbol: int) -> str:
    """Render a byte value for messages, reports, and the table text format.

    Printable ASCII stands for itself; backslash, tilde, and everything
    outside 33..126 render as a \\xNN escape so renderings stay unambiguous.
    """
    if 33 <= symbol <= 126 and symbol not in (0x5C, 0x7E):
        return chr(symbol)
    return f"\\x{symbol:02x}"


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct byte values with index lookup."""

    symbols: tuple[int, ...]
    _index: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        symbols = tuple(self.symbols)
        if not symbols:
            raise AdaptiveCodeError("empty alphabet source")
        for value in symbols:
            if not isinstance(value, int) or not 0 <= value <= 255:
                raise AdaptiveCodeError(f"alphabet symbol {value!r} is not a byte value")
        if len(set(symbols)) != len(symbols):
            raise AdaptiveCodeError("alphabet symbols must be distinct")
        object.__setattr__(self, "symbols", symbols)
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
    if not data:
        raise AdaptiveCodeError("empty alphabet source")
    return Alphabet(tuple(sorted(set(data))))


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


def is_bits(s: str) -> bool:
    """True if s holds only the characters 0 and 1."""
    return s.count("0") + s.count("1") == len(s)


def _check_codewords(words: Iterable[Codeword]) -> None:
    """Raise TableError unless every word is a nonempty string of 0/1 bits.
    Tables repeat codewords, so each distinct one is checked once."""
    checked: set[Codeword] = set()
    for word in words:
        # a non-str word, possibly unhashable, never reaches the set
        if not (isinstance(word, str) and word in checked):
            if not isinstance(word, str) or not word or not is_bits(word):
                raise TableError(f"codeword must be a nonempty string of 0/1 bits, got {word!r}")
            checked.add(word)


@dataclass(frozen=True)
class CodeTable:
    """A context-conditioned codeword table.

    rows maps a context (tuple of symbol indices, at most order long) to a
    tuple of h codewords in alphabet index order. The empty-context row is
    mandatory; other rows may be absent, in which case encoding through the
    missing context fails.
    """

    alphabet: Alphabet
    order: int
    rows: Mapping[Context, tuple[Codeword, ...]]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise TableError("table order must be at least 1")
        h = self.alphabet.size
        normalized: dict[Context, tuple[Codeword, ...]] = {}
        for raw_ctx, raw_row in self.rows.items():
            ctx = tuple(raw_ctx)
            if len(ctx) > self.order:
                raise TableError(
                    f"context of length {len(ctx)} exceeds table order {self.order}"
                )
            if any(not 0 <= i < h for i in ctx):
                raise TableError(f"context {ctx} has a symbol index out of range")
            row = tuple(raw_row)
            if len(row) != h:
                raise TableError(
                    f"row for context '{format_context(self.alphabet, ctx)}' has "
                    f"{len(row)} codewords, expected {h}"
                )
            normalized[ctx] = row
        _check_codewords(chain.from_iterable(normalized.values()))
        if EMPTY_CONTEXT not in normalized:
            raise TableError("table must define the empty-context row")
        object.__setattr__(self, "rows", normalized)

    def is_total(self) -> bool:
        """True if every context up to the table's order has a row."""
        expected = sum(self.alphabet.size ** k for k in range(self.order + 1))
        return len(self.rows) == expected


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
