"""Prefix-code predicates, exact Kraft sums, and deterministic canonical Huffman.

The Huffman constructor is pinned so that equal inputs always produce
bit-identical codes: leaves queue in (frequency, symbol) order, merging uses
the two-queue method preferring the earlier-created node on weight ties, and
codewords are assigned canonically in (length, symbol) order. The merge tree
therefore only contributes the per-symbol code lengths. canonical_codewords
is that assignment on its own, shared with the container's code-length
tables.
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
        merged.append((weight_a + weight_b, syms_a + syms_b))
        for s in merged[-1][1]:
            depth[s] += 1
    ordered = sorted(symbols)
    return HuffmanResult(dict(zip(ordered, canonical_codewords([depth[s] for s in ordered]))))


def canonical_codewords(
    lengths: Sequence[int], words: dict[int, Codeword] | None = None
) -> tuple[Codeword, ...]:
    """The canonical code with these codeword lengths, one word per length in
    the same order, as DEFLATE builds it (RFC 1951, 3.2.2): the words of
    each length are consecutive binary numbers in order of position, and
    the first of them follows the last shorter word, shifted left. Raises
    AdaptiveCodeError for a length below 1 or lengths whose Kraft sum
    exceeds 1; otherwise the words form a prefix code. words, if given, is
    shared between calls and maps 1 << length | code to its codeword, so
    equal words are one string.
    """
    if not lengths:
        raise AdaptiveCodeError("a canonical code needs at least one length")
    words = {} if words is None else words
    # next_code[n] is the next free n-bit code, under a 1 bit that keeps its
    # leading zeros: bin() of it without "0b1" is the codeword
    next_code = [0]
    code = count = counted = 0
    for length in range(1, max(lengths) + 1):
        code = (code + count) << 1
        count = lengths.count(length)  # bl_count[length]
        counted += count
        if code + count > 1 << length:
            raise AdaptiveCodeError(f"code lengths oversubscribe the {length}-bit codes")
        next_code.append(1 << length | code)
    if counted != len(lengths):
        raise AdaptiveCodeError("code length below 1")
    out = []
    for length in lengths:
        key = next_code[length]
        next_code[length] = key + 1
        word = words.get(key)
        if word is None:
            word = words[key] = bin(key)[3:]
        out.append(word)
    return tuple(out)


def huffman_total_length(entries: Sequence[tuple[int, int]]) -> int:
    """Total weighted code length sum(frequency * length) of the Huffman code."""
    lengths = huffman_build(entries).lengths
    return sum(f * lengths[s] for s, f in entries)
