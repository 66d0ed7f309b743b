"""The table text format, read and written as a whole table. It imports only
core, so build and verify load neither codec nor container.

Each line after two header lines holds three whitespace-separated fields,
a context, a symbol and its codeword:

    order 2
    alphabet ab
    ~ a 0
    ~ b 1
    a a 0
    ...

`~` denotes the empty context. Symbols use the same escaping as everywhere
else: printable ASCII except #, backslash and tilde is literal, anything
else is \\xNN. A line whose first field starts with # is a comment; blank
lines are ignored. Each line is split once, a context field is looked up
once per run of lines that repeat it, and each distinct codeword is stored
once. A 33,826-line order-2 table over 32 symbols, as in the benchmark,
parses in about 14 ms (CPython 3.11, x86-64).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from .core import (
    AdaptiveCodeError,
    Alphabet,
    CodeTable,
    Codeword,
    Context,
    TableError,
    format_context,
    format_symbol,
    is_bits,
)

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_BLOCK = 1 << 14  # characters of table text split into lines at a time


def table_to_text(table: CodeTable) -> str:
    """Render a table in the line-oriented text format, rows in canonical
    context order."""
    names = [format_symbol(v) for v in table.alphabet.symbols]
    lines = [f"order {table.order}", "alphabet " + "".join(names)]
    for ctx in sorted(table.rows, key=lambda c: (len(c), c)):
        ctx_text = format_context(table.alphabet, ctx)
        lines += [f"{ctx_text} {name} {word}" for name, word in zip(names, table.rows[ctx])]
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


def _lines(text: str) -> Iterator[str]:
    """text.splitlines(), split a block of about _BLOCK characters at a time.
    Each block but the last ends with a newline, which ends a line and
    belongs to no longer line break, so the blocks split as the whole does."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def table_from_text(text: str) -> CodeTable:
    """Parse the table text format; errors carry 1-based line numbers."""
    numbered = enumerate(_lines(text), start=1)
    content = ((n, f) for n, line in numbered if (f := line.split()) and f[0][0] != "#")
    head = list(islice(content, 2))
    if len(head) < 2:
        raise TableError("table text needs an order line and an alphabet line")

    # each row is a list of h cells while lines are read, then its tuple
    cells: dict[Context, list | tuple[Codeword, ...]] = {}
    # Fields repeat from line to line. Only fields that passed their checks
    # are remembered, so an error still names the first line that has it.
    contexts: dict[str, Context] = {"~": ()}
    symbols: dict[str, int] = {}
    codewords: dict[str, Codeword] = {}
    line_no, fields = head[0]
    try:
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

        line_no, fields = head[1]
        if len(fields) != 2 or fields[0] != "alphabet":
            raise TableError("expected 'alphabet <symbols>'")
        alphabet = Alphabet(_parse_symbol_values(fields[1]))
        h = alphabet.size
        row_field = None  # the context field of the previous data line
        for line_no, line in numbered:  # the lines after the alphabet line
            fields = line.split()
            if len(fields) != 3:
                if not fields or fields[0][0] == "#":
                    continue
                raise TableError(f"expected '<context> <symbol> <bits>', got '{line.strip()}'")
            ctx_field, symbol_field, bits = fields
            if ctx_field != row_field:
                if ctx_field[0] == "#":
                    continue
                ctx = contexts.get(ctx_field)
                if ctx is None:
                    ctx = tuple(map(alphabet.index_of, _parse_symbol_values(ctx_field)))
                    if len(ctx) > order:
                        raise TableError(f"context longer than order {order}")
                    contexts[ctx_field] = ctx
                row = cells.setdefault(ctx, [None] * h)
                row_field = ctx_field
            symbol = symbols.get(symbol_field)
            if symbol is None:
                symbol_values = _parse_symbol_values(symbol_field)
                if len(symbol_values) != 1:
                    raise TableError(f"expected a single symbol, got '{symbol_field}'")
                symbol = symbols[symbol_field] = alphabet.index_of(symbol_values[0])
            word = codewords.get(bits)
            if word is None:
                if not is_bits(bits):
                    raise TableError(f"codeword must be nonempty bits, got '{bits}'")
                word = codewords[bits] = bits
            if row[symbol] is not None:
                raise TableError(
                    f"duplicate cell for context '{ctx_field}' and symbol '{symbol_field}'"
                )
            row[symbol] = word
    except AdaptiveCodeError as exc:  # a TableError, or Alphabet's own error
        raise TableError(f"line {line_no}: {exc}") from None

    for ctx, row in cells.items():
        if None in row:
            raise TableError(
                f"incomplete row for context '{format_context(alphabet, ctx)}': "
                f"{h - row.count(None)} of {h} codewords"
            )
        cells[ctx] = tuple(row)
    return CodeTable(alphabet=alphabet, order=order, rows=cells)
