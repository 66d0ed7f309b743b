"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own code paths: the Huffman
oracle enumerates Kraft-feasible length assignments, the decoder oracles
scan rows linearly instead of looking codewords up by length, and the
run-cost and transition-cost oracles transliterate the defining formulas
position by position.
"""

from __future__ import annotations

import math
import random
from itertools import combinations_with_replacement

from adacode import Alphabet, CodeTable, iter_contexts


def example_order2_table() -> CodeTable:
    """Order-2 table over {a, b} whose context rows flip after a b."""
    flip = ("1", "0")
    keep = ("0", "1")
    return CodeTable(
        alphabet=Alphabet((ord("a"), ord("b"))),
        order=2,
        rows={
            (): keep,
            (0,): keep,
            (1,): keep,
            (0, 0): keep,
            (0, 1): keep,
            (1, 0): flip,
            (1, 1): flip,
        },
    )


def nonprefix_order2_table() -> CodeTable:
    """Order-2 table over {a, b} with one non-prefix row that still encodes
    injectively (the codeword sets overlap only in a decodable way)."""
    keep = ("0", "1")
    return CodeTable(
        alphabet=Alphabet((ord("a"), ord("b"))),
        order=2,
        rows={
            (): keep,
            (0,): ("0", "01"),
            (1,): keep,
            (0, 0): keep,
            (0, 1): keep,
            (1, 0): keep,
            (1, 1): keep,
        },
    )


def random_prefix_row(rng: random.Random, count: int) -> tuple[str, ...]:
    """A random complete prefix code with `count` words, shuffled."""
    words = [""]
    while len(words) < count:
        picked = words.pop(rng.randrange(len(words)))
        words.append(picked + "0")
        words.append(picked + "1")
    rng.shuffle(words)
    return tuple(words)


def random_table(rng: random.Random, order: int, size: int) -> CodeTable:
    """A random total table with prefix-code rows over `size` random bytes."""
    symbols = tuple(sorted(rng.sample(range(256), size)))
    rows = {
        ctx: random_prefix_row(rng, size) for ctx in iter_contexts(size, order)
    }
    return CodeTable(alphabet=Alphabet(symbols), order=order, rows=rows)


def random_string(rng: random.Random, alphabet: Alphabet, length: int) -> bytes:
    return bytes(rng.choice(alphabet.symbols) for _ in range(length))


def scan_decode_outcome(table: CodeTable, bits: str) -> bytes | tuple[str, int]:
    """Naive decoder oracle for any bit string: the decoded bytes, or
    (kind, bit offset) of the first failure, kind being "truncated" (the
    remaining bits are a proper prefix of a codeword of the row),
    "undecodable" (no codeword of the row matches or could match) or
    "missing row" (the context has no row)."""
    window: list[int] = []
    out: list[int] = []
    cursor = 0
    while cursor < len(bits):
        row = table.rows.get(tuple(window))
        if row is None:
            return ("missing row", cursor)
        matches = [i for i, word in enumerate(row) if bits.startswith(word, cursor)]
        if not matches:
            rest = bits[cursor:]
            if any(word.startswith(rest) and word != rest for word in row):
                return ("truncated", cursor)
            return ("undecodable", cursor)
        assert len(matches) == 1, f"expected at most one match, got {matches}"
        out.append(matches[0])
        cursor += len(row[matches[0]])
        window.append(matches[0])
        if len(window) > table.order:
            del window[0]
    return table.alphabet.to_bytes(out)


def scan_decode(table: CodeTable, bits: str) -> tuple[bytes, int]:
    """scan_decode_outcome for valid encodings: (output, iterations), and
    AssertionError on any failure."""
    out = scan_decode_outcome(table, bits)
    assert isinstance(out, bytes), f"expected a valid encoding, got {out}"
    return out, len(out)


def unary_table() -> CodeTable:
    """Order-1 table over all 256 byte values whose every row is the unary
    code "0", "10", ..., "1"*254 + "0", "1"*255: 255 distinct codeword
    lengths, up to the container maximum of 255 bits."""
    row = tuple("1" * k + "0" for k in range(255)) + ("1" * 255,)
    return CodeTable(
        alphabet=Alphabet(tuple(range(256))),
        order=1,
        rows={ctx: row for ctx in iter_contexts(256, 1)},
    )


def brute_force_huffman_total(frequencies: list[int]) -> int:
    """Minimum total weighted length over Kraft-feasible length assignments.

    Enumerates length multisets up to size-1 bits per word (enough for any
    optimal code) and pairs sorted frequencies with sorted lengths, which is
    optimal for a fixed multiset. A single symbol costs one bit per use.
    """
    count = len(frequencies)
    if count == 1:
        return frequencies[0]
    best = None
    longest = count - 1
    for multiset in combinations_with_replacement(range(1, longest + 1), count):
        if sum(2 ** (longest - length) for length in multiset) > 2 ** longest:
            continue
        total = sum(
            f * length
            for f, length in zip(sorted(frequencies, reverse=True), sorted(multiset))
        )
        if best is None or total < best:
            best = total
    assert best is not None
    return best


def literal_l_huffman(w: bytes) -> float:
    """Position-by-position transliteration of the transition-cost formula,
    inner sum over distinct predecessor symbols."""
    s = len(w)
    eh = [i for i in range(2, s + 1) if w[i - 1] != w[i - 2]]
    eh_set = set(eh)
    total = 0.0
    for i in eh:
        n_i = len([j for j in eh if w[j - 1] == w[i - 1]])
        predecessor_symbols = sorted(
            {w[j - 1] for j in range(1, s) if (j + 1) in eh_set and w[j] == w[i - 1]}
        )
        inner = 0.0
        for q in predecessor_symbols:
            f_q = len([j for j in eh if w[j - 1] == w[i - 1] and w[j - 2] == q])
            inner += f_q * (1.0 + math.log2(n_i / f_q))
        total += inner / n_i
    return total


def literal_l_not_huffman(w: bytes, table: CodeTable) -> int:
    """Position-by-position run cost of an order-1 table: the first
    codeword plus the codeword at every repeated position, read straight
    from table.rows."""
    index = table.alphabet.symbols.index
    total = len(table.rows[()][index(w[0])])
    for i in range(1, len(w)):
        if w[i] == w[i - 1]:
            total += len(table.rows[(index(w[i - 1]),)][index(w[i])])
    return total


def explicit_table_bytes(table: CodeTable) -> bytes:
    """Independent serializer of an explicit container's table section: for
    each context, shortest first and then in index order, each codeword as a
    length byte followed by its bits, eight to a byte, most significant bit
    first, the last byte padded with zero bits."""
    packed: dict[str, bytes] = {}  # only to keep large tables fast
    out = bytearray()
    for ctx in sorted(table.rows, key=lambda c: (len(c), c)):
        for word in table.rows[ctx]:
            if word not in packed:
                cell = bytearray([len(word)])
                for start in range(0, len(word), 8):
                    value = 0
                    for position, bit in enumerate(word[start : start + 8]):
                        if bit == "1":
                            value |= 0x80 >> position
                    cell.append(value)
                packed[word] = bytes(cell)
            out += packed[word]
    return bytes(out)


def length_table_bytes(table: CodeTable) -> bytes:
    """Independent serializer of a code-length container's table section:
    for each context, shortest first and then in index order, each
    codeword's length in 4 bits, two to a byte, the first in the high bits,
    and 4 zero bits after an odd last one. First asserts that every row is
    the code RFC 1951, section 3.2.2, assigns to its lengths."""
    nibbles: list[int] = []
    for ctx in sorted(table.rows, key=lambda c: (len(c), c)):
        row = table.rows[ctx]
        lengths = [len(word) for word in row]
        assert max(lengths) <= 15, f"context {ctx}: a length does not fit in 4 bits"
        # step 1: count the number of codes for each code length
        bl_count = [0] * 16
        for length in lengths:
            bl_count[length] += 1
        # step 2: find the numerical value of the smallest code for each length
        code = 0
        bl_count[0] = 0
        next_code = [0] * 16
        for bits in range(1, 16):
            code = (code + bl_count[bits - 1]) << 1
            next_code[bits] = code
        # step 3: assign consecutive values to the codes of one length, in order
        for symbol, length in enumerate(lengths):
            expected = bin(next_code[length])[2:].zfill(length)
            assert row[symbol] == expected, f"context {ctx}, symbol {symbol}: not canonical"
            next_code[length] += 1
        nibbles.extend(lengths)
    if len(nibbles) % 2:
        nibbles.append(0)
    return bytes(16 * high + low for high, low in zip(nibbles[0::2], nibbles[1::2]))
