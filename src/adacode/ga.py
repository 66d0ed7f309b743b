"""Generalized adaptive coding with pluggable causal context rules.

Instead of a fixed-length suffix window, the context for each position comes
from an arbitrary rule. The rule only ever sees the symbols strictly before
the position it is asked about; that restriction is what makes greedy
decoding possible, since the decoder can recompute every context from what
it has already emitted. ga_decode runs the decode loop of table codes and
ga_encode its mirror; both call the rule itself once per position, over
rows that a GACode builds and checks once, keyed by the bytes of their
context; a row that is not a prefix code raises only when decoding visits
it. A result that is bytes, or a 'B' memoryview such as a slice of the view
the rule was given, and equals a known context is used as it is; every other
result is checked in full, as AdaptiveFunction.__call__ checks it. Symbols
here are raw byte values, and lookups are keyed by (symbol value, context of
symbol values), so any code table can be flattened into this representation.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .codec import _code, _greedy_decode, _window
from .core import (
    AdaptiveCodeError,
    Alphabet,
    CodeTable,
    Codeword,
    DecodeError,
    EncodeError,
    Record,
    _check_codewords,
    format_context,
)
from .prefix import is_prefix_code

Symbols = tuple[int, ...]
_BYTE_VALUES = Alphabet(tuple(range(256)))  # format_context over byte values


class AdaptiveFunction(Record):
    """Causal context rule: (1-based position, prior symbols) -> context.

    The rule is handed a read-only bytes-like view (a memoryview) of exactly
    the position-1 byte values before the queried position. Indexing and
    slicing work, tuple() and bytes() copy it, but tuple concatenation does
    not; a kept view stays valid and unchanged. The rule returns byte values,
    no more than the declared max_context bound (None means unbounded, else
    an int >= 0). ga_encode and ga_decode run it once per position, in order.
    """

    __slots__ = _fields = ("rule", "max_context")

    def __init__(
        self, rule: Callable[[int, memoryview], Sequence[int]], max_context: int | None = None
    ):
        if max_context is not None and (
            isinstance(max_context, bool) or not isinstance(max_context, int) or max_context < 0
        ):
            raise AdaptiveCodeError(f"max_context must be None or an int >= 0, got {max_context!r}")
        super().__init__(rule, max_context)

    def __call__(self, position: int, prefix: Sequence[int]) -> Symbols:
        if position < 1:
            raise AdaptiveCodeError("positions are 1-based")
        view = prefix if isinstance(prefix, memoryview) else memoryview(bytes(prefix))
        return self._context(self.rule(position, view[: position - 1].toreadonly()), position)

    def _context(self, raw: object, position: int) -> Symbols:
        """The context that the rule's result raw at a position names, or
        AdaptiveCodeError: the one check of rule results."""
        try:
            # tuple() first, since bytes(n) of an int n is n zero bytes
            ctx = tuple(raw)
            bytes(ctx)
        except (TypeError, ValueError, NotImplementedError) as exc:  # n-d memoryviews
            raise AdaptiveCodeError(
                f"context rule did not return byte values at position {position}: {exc}"
            ) from None
        if self.max_context is not None and len(ctx) > self.max_context:
            raise AdaptiveCodeError(
                f"context rule produced {len(ctx)} symbols, "
                f"exceeding its declared bound {self.max_context}"
            )
        return ctx


def order_n_function(n: int) -> AdaptiveFunction:
    """The suffix-window rule of order-n tables: at position i the context is
    the last min(i-1, n) symbols."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise AdaptiveCodeError(f"order must be an int, got {n!r}")
    if n < 1:
        raise AdaptiveCodeError("order must be at least 1")
    return AdaptiveFunction(_window(n), max_context=n)


class GACode(Record):
    """A context rule plus a codeword lookup keyed by (symbol, context)."""

    # _cells and _codes are built once per code, never written after: per
    # context within the rule's bound, keyed by its bytes, the encoder row
    # (symbol -> codeword) and, if the row is a prefix code, its _code, whose
    # cells the rows share, whose one successor slot stays None, since a
    # rule's context need not follow from the row and the symbol, and whose
    # last entry is the context's bytes; _longest is the length of the
    # longest codeword
    __slots__ = ("function", "lookup", "_cells", "_codes", "_longest")
    _fields = ("function", "lookup")

    def __init__(
        self, function: AdaptiveFunction, lookup: Mapping[tuple[int, Symbols], Codeword]
    ):
        if not isinstance(function, AdaptiveFunction):
            raise AdaptiveCodeError(f"function {function!r} is not an AdaptiveFunction")
        normalized: dict[tuple[int, Symbols], Codeword] = {}
        rows: dict[Symbols, dict[int, Codeword]] = {}
        for key, word in lookup.items():
            symbol, ctx = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
            if not isinstance(ctx, (tuple, bytes)):
                raise AdaptiveCodeError(f"lookup key {key!r} is not a (symbol, context) pair")
            ctx = tuple(ctx)
            normalized[(symbol, ctx)] = word
            rows.setdefault(ctx, {})[symbol] = word
        longest = _check_codewords([normalized.values()])
        if not normalized:
            raise AdaptiveCodeError("lookup must define at least one codeword")
        for ctx, row in rows.items():
            bad = [v for v in (*ctx, *row) if not (isinstance(v, int) and 0 <= v < 256)]
            if bad:
                raise AdaptiveCodeError(f"lookup key in context {ctx!r} holds non-byte {bad[0]!r}")
        # a context over the bound is never looked up: the rule's check refuses it
        bound = function.max_context
        rows = {bytes(c): r for c, r in rows.items() if bound is None or len(c) <= bound}
        cells: dict[tuple, tuple] = {}  # one per (symbol, length), shared by the rows
        codes = {}
        for c, r in rows.items():
            # r.values() keeps a repeated codeword, so such a row is not a prefix code
            if is_prefix_code(r.values()):
                keys = [(v, len(w), 256) for v, w in r.items()]
                codes[c] = _code(zip(map(cells.setdefault, keys, keys), r.values()), 1, c)
        super().__init__(function, normalized)
        object.__setattr__(self, "_cells", rows)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_longest", longest)


def lookup_from_table(table: CodeTable) -> dict[tuple[int, Symbols], Codeword]:
    """Flatten a code table into a GA lookup keyed by symbol values."""
    values = table.alphabet.symbols
    out: dict[tuple[int, Symbols], Codeword] = {}
    for ctx, row in table.rows.items():
        ctx_values = tuple(values[i] for i in ctx)
        for index, word in enumerate(row):
            out[(values[index], ctx_values)] = word
    return out


def ga_encode(code: GACode, data: bytes) -> str:
    """Concatenated codewords of data under the code's context rule, which
    runs once per position, as ga_decode runs it."""
    rule, rows = code.function.rule, code._cells
    view = memoryview(data).toreadonly()
    out: list[str] = []
    for i in range(len(data)):
        ctx = rule(i + 1, view[:i])
        if type(ctx) is memoryview and ctx.format == "B" and ctx.ndim == 1:
            ctx = ctx.tobytes()
        row = rows.get(ctx) if type(ctx) is bytes else None
        if row is None:
            ctx = bytes(code.function._context(ctx, i + 1))
            row = rows.get(ctx, {})
        word = row.get(data[i])
        if word is None:
            raise EncodeError(
                f"no codeword for symbol {format_context(_BYTE_VALUES, (data[i],))} "
                f"in context '{format_context(_BYTE_VALUES, ctx)}' (position {i + 1})",
                i + 1,
            )
        out.append(word)
    return "".join(out)


def ga_decode(code: GACode, bits: str | bytes) -> bytes:
    """Greedy inverse of ga_encode, of a '0'/'1' str or of bytes that pack 8
    bits each, most significant first. Rows are checked once per code; one
    that is not a prefix code raises only when decoding visits its context."""

    def missing(raw: object, position: int, cursor: int) -> list:
        ctx = bytes(code.function._context(raw, position))
        if ctx in code._codes:
            return code._codes[ctx]
        name = format_context(_BYTE_VALUES, ctx)
        if ctx in code._cells:
            raise DecodeError(f"non-prefix row at visited context '{name}'", cursor, position, ctx)
        message = f"no codewords for context '{name}' at bit offset {cursor}"
        raise DecodeError(message, cursor, position, ctx)

    rule = code.function.rule
    return _greedy_decode(bits, None, rule, code._codes, missing, code._longest).output
