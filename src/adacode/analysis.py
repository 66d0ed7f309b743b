"""Pair statistics and entropy/rate accounting for order-1 coding.

Two families of quantities are computed for a string. The classical Huffman
figures treat the string as a bag of symbols: entropy H and per-symbol rate
R, with H <= R <= H+1 guaranteed. The adaptive figures split the order-1
coder's cost into a run part (first codeword plus the codeword of every
repeated position) and a transition part estimated from how often each
symbol is entered from each predecessor. The adaptive entropy-vs-rate bound
is reported but never asserted, because the two sides do not share a unit.

An order-1 coder spends one codeword per adjacent pair, so every adaptive
figure comes from one count of adjacent pairs and the codeword lengths, with
the transition part summed over distinct (predecessor, symbol) pairs. That
count is made once, at C level: each fixed chunk of pairs is laid out as
one byte per pair when the string has at most 16 distinct symbols, and as
16-bit units otherwise, and counted by Counter, so no tuple is built per
pair and no copy of the string is made. compare_report derives the symbol
counts of the Huffman figures from it too. A string the table cannot code raises the
encoder's positioned EncodeError.
"""

from __future__ import annotations

import csv
import io
import sys
from collections import Counter
from functools import cached_property
from itertools import compress, starmap
from math import fsum, log2
from operator import eq, ne
from typing import Callable, Sequence

from .core import AdaptiveCodeError, CodeTable, EMPTY_CONTEXT, Record, TableError
from .core import alphabet_from_bytes
from .prefix import huffman_total_length


class PairStats(Record):
    """Repeated-symbol positions of a string, 1-based.

    pairs holds every i with w[i] == w[i+1]; prate is their count divided by
    the string length, kept exact.
    """

    __slots__ = _fields = ("pairs", "nrpairs", "prate")


class AnalysisReport(Record):
    """All per-string figures produced by compare_report. The position sets
    stats and eh, one int per position, are built from w on first use, and
    kept in the instance dict, so this record has no slots."""

    _fields = (
        "length", "nrpairs", "encoded_bits", "r_a_literal", "huffman_total_bits",
        "huffman_rate", "huffman_entropy", "l_not_huffman", "l_huffman", "h_a", "w",
    )
    _hidden = ("w",)

    @cached_property
    def stats(self) -> PairStats:
        return pair_stats(self.w)

    @cached_property
    def eh(self) -> frozenset[int]:
        return eh_positions(self.w)


def _require_nonempty(w: bytes) -> None:
    if not w:
        raise AdaptiveCodeError("analysis requires a nonempty string")


def pair_stats(w: bytes) -> PairStats:
    """Positions (1-based) where a symbol repeats its predecessor's value."""
    from fractions import Fraction

    _require_nonempty(w)
    pairs = frozenset(compress(range(1, len(w)), map(eq, w, w[1:])))
    return PairStats(pairs=pairs, nrpairs=len(pairs), prate=Fraction(len(pairs), len(w)))


def eh_positions(w: bytes) -> frozenset[int]:
    """Positions (1-based, from 2) whose symbol differs from its predecessor.

    Together with the pair positions these cover 2..len(w) exactly once,
    shifted by one: i is a pair position iff i+1 is not in eh_positions.
    """
    _require_nonempty(w)
    return frozenset(compress(range(2, len(w) + 1), map(ne, w, w[1:])))


# Pairs are counted in chunks of at most this many pairs, so the buffers
# stay at 64 KiB whatever the length of the string.
_PAIR_CHUNK = 1 << 15
# byte offset of a unit's high byte, which holds the pair's first symbol
_HIGH = int(sys.byteorder == "little")


def _pair_counts(w: bytes) -> dict[tuple[int, int], int]:
    """How often each adjacent pair (a, b) occurs in the nonempty w.

    Over at most 16 distinct symbols, each chunk becomes 4-bit symbol
    indices in one translate, read as one big int x, and byte i + 1 of
    x >> 4 | x is the pair at i, index(a) << 4 | index(b). Over more, each
    chunk is written as 16-bit units a * 256 + b into a fresh buffer by two
    strided copies from views of w. Counter counts the bytes or units at C
    level.
    """
    view, symbols = memoryview(w), alphabet_from_bytes(w).symbols
    counts: Counter = Counter()
    if len(symbols) <= 16:
        indices = bytes.maketrans(bytes(symbols), bytes(range(len(symbols))))
        for start in range(0, len(w) - 1, _PAIR_CHUNK):
            chunk = bytes(view[start : start + _PAIR_CHUNK + 1]).translate(indices)
            x = int.from_bytes(chunk, "big")
            counts.update((x >> 4 | x).to_bytes(len(chunk), "big")[1:])
        return {(symbols[u >> 4], symbols[u & 15]): f for u, f in counts.items()}
    for start in range(0, len(w) - 1, _PAIR_CHUNK):
        chunk = view[start : start + _PAIR_CHUNK + 1]
        units = bytearray(2 * len(chunk) - 2)
        units[_HIGH::2] = chunk[:-1]
        units[1 - _HIGH :: 2] = chunk[1:]
        counts.update(memoryview(units).cast("H"))
    return {divmod(unit, 256): f for unit, f in counts.items()}


def _frequencies(w: bytes) -> list[tuple[int, int]]:
    _require_nonempty(w)
    return sorted(Counter(w).items())


def _entropy(freqs: list[tuple[int, int]], n: int) -> float:
    return sum(f * log2(n / f) for _, f in freqs) / n


def huffman_entropy(w: bytes) -> float:
    """Per-symbol entropy of the string's frequency distribution, in bits."""
    return _entropy(_frequencies(w), len(w))


def huffman_rate(w: bytes) -> float:
    """Per-symbol cost of the canonical Huffman code built from the string's
    own frequencies."""
    return huffman_total_length(_frequencies(w)) / len(w)


def _transition_bits(pairs: dict[tuple[int, int], int]) -> float:
    """l_huffman from a count of adjacent pairs."""
    into: Counter = Counter()
    for (a, b), f in pairs.items():
        if a != b:
            into[b] += f
    return fsum(f * (1.0 + log2(into[b] / f)) for (a, b), f in pairs.items() if a != b)


def _order1_pass(w: bytes, table: CodeTable) -> tuple[int, int, float, int, dict]:
    """(encoded bits, run bits, transition bits, nrpairs, pair counts) of w
    under an order-1 table, from one count of adjacent pairs and the table's
    codeword lengths."""
    _require_nonempty(w)
    if table.order != 1:
        raise TableError("this analysis requires an order-1 table")
    pairs = _pair_counts(w)
    rows, index_of = table.rows, table.alphabet.index_of
    try:
        encoded = run = len(rows[EMPTY_CONTEXT][index_of(w[0])])
        nrpairs = 0
        for (a, b), f in pairs.items():
            bits = f * len(rows[(index_of(a),)][index_of(b)])
            encoded += bits
            if a == b:
                run += bits
                nrpairs += f
    except (KeyError, TableError):
        from .codec import IncrementalEncoder

        # the encoder raises its positioned EncodeError; fed in chunks, it
        # never holds more than one chunk's bits
        feed = IncrementalEncoder(table).feed
        for start in range(0, len(w), _PAIR_CHUNK):
            feed(w[start : start + _PAIR_CHUNK])
        raise
    return encoded, run, _transition_bits(pairs), nrpairs, pairs


def l_not_huffman(w: bytes, table: CodeTable) -> int:
    """Bits spent outside transitions: the first codeword plus the codeword
    of every repeated position. For tables from build_order1 this is
    nrpairs(w) + len of the first symbol's empty-context codeword."""
    return _order1_pass(w, table)[1]


def l_huffman(w: bytes) -> float:
    """Estimated transition cost: over the distinct (predecessor, symbol)
    pairs with different symbols, seen f times, f * (1 + log2(n / f)), where
    n counts the transitions into that symbol from any predecessor."""
    _require_nonempty(w)
    return _transition_bits(_pair_counts(w))


def h_a(w: bytes, table: CodeTable) -> float:
    """Adaptive entropy estimate: run bits plus estimated transition bits."""
    _, run_bits, transition_bits, *_ = _order1_pass(w, table)
    return run_bits + transition_bits


def r_a_literal(w: bytes, table: CodeTable) -> float:
    """Actual per-symbol rate of the order-1 adaptive coder on this string."""
    return _order1_pass(w, table)[0] / len(w)


def compare_report(w: bytes, table: CodeTable) -> AnalysisReport:
    """Every analysis figure for one string under one order-1 table."""
    encoded_bits, run_bits, transition_bits, nrpairs, pairs = _order1_pass(w, table)
    counts = Counter({w[0]: 1})  # every symbol after the first ends one pair
    for (_, b), f in pairs.items():
        counts[b] += f
    freqs = sorted(counts.items())
    huffman_bits = huffman_total_length(freqs)
    n = len(w)
    return AnalysisReport(
        length=n,
        nrpairs=nrpairs,
        encoded_bits=encoded_bits,
        r_a_literal=encoded_bits / n,
        huffman_total_bits=huffman_bits,
        huffman_rate=huffman_bits / n,
        huffman_entropy=_entropy(freqs, n),
        l_not_huffman=run_bits,
        l_huffman=transition_bits,
        h_a=run_bits + transition_bits,
        w=w,
    )


CSV_COLUMNS = (
    "string-id",
    "length",
    "nrpairs",
    "prate",
    "adaptive_bits",
    "huffman_bits",
    "H",
    "R",
    "LNotHuffman",
    "LHuffman",
    "H_A",
    "R_A",
)


def _csv_row(name: str, r: AnalysisReport) -> list[str]:
    return [
        name,
        str(r.length),
        str(r.nrpairs),
        f"{r.nrpairs / r.length:.6f}",
        str(r.encoded_bits),
        str(r.huffman_total_bits),
        f"{r.huffman_entropy:.6f}",
        f"{r.huffman_rate:.6f}",
        str(r.l_not_huffman),
        f"{r.l_huffman:.6f}",
        f"{r.h_a:.6f}",
        f"{r.r_a_literal:.6f}",
    ]


def render_csv(rows: Sequence[tuple[str, AnalysisReport]]) -> str:
    """CSV rendering, one line per (name, report) pair plus a header."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([CSV_COLUMNS, *starmap(_csv_row, rows)])
    return buffer.getvalue()


def winner(r: AnalysisReport) -> str:
    """Which coder used fewer bits on this string."""
    if r.encoded_bits < r.huffman_total_bits:
        return "adaptive"
    if r.encoded_bits > r.huffman_total_bits:
        return "huffman"
    return "tie"


def render_comparison(rows: Sequence[tuple[str, AnalysisReport]]) -> str:
    """Aligned text table with one row per input and a winner column."""
    grid = [[*CSV_COLUMNS, "winner"]]
    grid += [_csv_row(name, report) + [winner(report)] for name, report in rows]
    widths = [max(map(len, column)) for column in zip(*grid)]
    return "".join("  ".join(map(str.ljust, row, widths)).rstrip() + "\n" for row in grid)


def _positions_text(count: int, positions: Callable[[], frozenset[int]]) -> str:
    """The positions in braces, or only their count when there are over 32,
    in which case the set is never built."""
    if count > 32:
        return f"({count} positions)"
    return "{" + ",".join(str(i) for i in sorted(positions())) + "}"


def render_stats(name: str, r: AnalysisReport) -> str:
    """Multi-line key/value rendering of one report, including the reported
    (never asserted) adaptive bound checks in both total and rate form."""
    huffman_ok = r.huffman_entropy <= r.huffman_rate <= r.huffman_entropy + 1.0
    totals_ok = r.h_a <= r.encoded_bits <= r.h_a + 1.0
    per_symbol = r.h_a / r.length
    rates_ok = per_symbol <= r.r_a_literal <= per_symbol + 1.0
    lines = [f"{column}: {cell}" for column, cell in zip(CSV_COLUMNS, _csv_row(name, r))]
    lines.insert(2, f"pairs: {_positions_text(r.nrpairs, lambda: r.stats.pairs)}")
    lines.insert(5, f"eh: {_positions_text(r.length - 1 - r.nrpairs, lambda: r.eh)}")
    lines += [
        f"winner: {winner(r)}",
        f"huffman_bound_ok: {str(huffman_ok).lower()} (H <= R <= H+1)",
        f"adaptive_bound_totals_ok: {str(totals_ok).lower()} (H_A <= adaptive_bits <= H_A+1)",
        f"adaptive_bound_rates_ok: {str(rates_ok).lower()} (H_A/length <= R_A <= H_A/length+1)",
    ]
    return "\n".join(lines) + "\n"
