"""Prefix-code predicates, exact Kraft sums, and deterministic canonical Huffman.

The Huffman constructor is pinned so that equal inputs always produce
bit-identical codes: leaves queue in (frequency, symbol) order, merging uses
the two-queue method preferring the earlier-created node on weight ties, and
codewords are assigned canonically in (length, symbol) order. The merge tree
therefore only contributes the per-symbol code lengths.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import AdaptiveCodeError, Codeword, Record

if TYPE_CHECKING:
    from fractions import Fraction


def prefix_violation(words: Iterable[str]) -> tuple[str, str] | None:
    """First offending (shorter, longer) pair in sorted order, or None.

    Duplicate words count as violations. In a lexicographically sorted list
    any prefix relation shows up between neighbours, so adjacent checks are
    enough.
    """
    ws = sorted(words)
    if not ws:
        raise AdaptiveCodeError("prefix check requires at least one codeword")
    for a, b in zip(ws, ws[1:]):
        if b.startswith(a):
            return a, b
    return None


def is_prefix_code(words: Iterable[str]) -> bool:
    """True if the words are pairwise distinct and none prefixes another."""
    return prefix_violation(words) is None


def kraft_sum(words: Iterable[str]) -> Fraction:
    """Sum of 2**-len(w) over the words, as an exact rational."""
    from fractions import Fraction

    ws = list(words)
    if not ws:
        raise AdaptiveCodeError("Kraft sum requires at least one codeword")
    return sum((Fraction(1, 2 ** len(w)) for w in ws), Fraction(0))


class HuffmanResult(Record):
    """Canonical codewords keyed by symbol id."""

    __slots__ = _fields = ("codewords",)

    def __init__(self, codewords: dict[int, Codeword]):
        super().__init__(codewords)

    @property
    def lengths(self) -> dict[int, int]:
        return {symbol: len(word) for symbol, word in self.codewords.items()}


def huffman_build(entries: Sequence[tuple[int, int]]) -> HuffmanResult:
    """Deterministic canonical Huffman code for (symbol, frequency) entries.

    Frequencies may be zero; zeros simply tie with each other. A single entry
    gets the one-bit codeword "0" by convention.
    """
    if not entries:
        raise AdaptiveCodeError("Huffman construction requires at least one entry")
    symbols = [s for s, _ in entries]
    if len(set(symbols)) != len(symbols):
        raise AdaptiveCodeError("Huffman entries must have distinct symbols")
    if any(f < 0 for _, f in entries):
        raise AdaptiveCodeError("Huffman frequencies must be nonnegative")
    if len(entries) == 1:
        return HuffmanResult({entries[0][0]: "0"})

    depth = {s: 0 for s in symbols}
    leaves = deque((f, [s]) for f, s in sorted((f, s) for s, f in entries))
    merged: deque[tuple[int, list[int]]] = deque()

    def pop_lightest() -> tuple[int, list[int]]:
        # On weight ties prefer the earlier-created node; every leaf predates
        # every merge, and each queue is already in creation order.
        if not merged or (leaves and leaves[0][0] <= merged[0][0]):
            return leaves.popleft()
        return merged.popleft()

    while len(leaves) + len(merged) > 1:
        weight_a, syms_a = pop_lightest()
        weight_b, syms_b = pop_lightest()
        for s in syms_a:
            depth[s] += 1
        for s in syms_b:
            depth[s] += 1
        merged.append((weight_a + weight_b, syms_a + syms_b))
    return HuffmanResult(_canonical(depth))


def _canonical(lengths: dict[int, int]) -> dict[int, Codeword]:
    # Standard canonical assignment: visit symbols by (length, symbol) and
    # hand out lexicographically increasing codewords.
    out: dict[int, Codeword] = {}
    code = 0
    previous = 0
    for symbol, length in sorted(lengths.items(), key=lambda kv: (kv[1], kv[0])):
        code <<= length - previous
        previous = length
        out[symbol] = format(code, f"0{length}b")
        code += 1
    return out


def huffman_total_length(entries: Sequence[tuple[int, int]]) -> int:
    """Total weighted code length sum(frequency * length) of the Huffman code."""
    lengths = huffman_build(entries).lengths
    return sum(f * lengths[s] for s, f in entries)
