"""Seeded corpora, code tables and GA codes for the benchmark workloads.

Every input is derived from the workload name and the seed alone, so the
same seed always gives the same bytes and tables. The program under test
only ever sees the generated files and tables.
"""

from __future__ import annotations

import bisect
import bz2
import random
import zlib
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from adacode import (
    CodeTable,
    GACode,
    alphabet_from_bytes,
    build_order1,
    huffman_build,
    iter_contexts,
    lookup_from_table,
    order_n_function,
    table_to_text,
)

from skip2 import skip2_code

# Symbols per corpus, (full, quick). Each CLI call stays under about a
# second, so that a run holds ten or more calls of every kind and their
# median is steady on a shared host. At this size order2-explicit's table
# (text parse, explicit container table, decoder set-up) is about half of
# each call. repeat16 avoids a power of two: its non-repeat count, 60% of
# the symbols, would then sit exactly on a set-resize boundary in
# analysis.eh_positions, and the stats peak RSS would jump between seeds.
SIZES = {
    "repeat16": (250_000, 10_000),
    "order2-explicit": (1 << 18, 1 << 13),
    "ga-skip2": (20_000, 2_000),
}
NAMES = tuple(SIZES)
# The GA legs of the two CLI workloads code a prefix of this many symbols,
# because ga_encode/ga_decode cost grows with the square of the input.
GA_SLICE = (8192, 1024)

REPEAT16_ALPHABET = b"abcdefghijklmnop"
ORDER2_ALPHABET = bytes(range(0x30, 0x50))
ORDER2_ZIPF = 1.1


@dataclass
class Workload:
    """One workload's inputs.

    data and table feed the CLI legs; table_text is what `encode --table`
    reads, or None when the CLI builds the order-1 table itself
    (`--builder`). ga_code and ga_data feed the in-process GA legs.
    """

    name: str
    data: bytes
    table: CodeTable
    table_text: str | None
    ga_code: GACode
    ga_data: bytes
    info: dict


def _lagged_repeats(rng: random.Random, n: int, h: int, lag: int, p_repeat: float) -> list[int]:
    """Indices where each one repeats the index `lag` positions back with
    probability p_repeat, and is otherwise uniform over the other h-1."""
    out = [rng.randrange(h) for _ in range(min(lag, n))]
    coin, pick = rng.random, rng.randrange
    for i in range(lag, n):
        back = out[i - lag]
        if coin() < p_repeat:
            out.append(back)
        else:
            k = pick(h - 1)
            out.append(k + (k >= back))
    return out


def _order2_markov(rng: random.Random, n: int, h: int, zipf_s: float) -> list[int]:
    """Order-2 Markov indices: each context (a, b) ranks the h successors by
    its own random permutation and draws them with Zipf(zipf_s) weights."""
    cumulative = list(accumulate(1.0 / (r + 1) ** zipf_s for r in range(h)))
    total = cumulative[-1]
    ranked = []
    for _ in range(h * h):
        order = list(range(h))
        rng.shuffle(order)
        ranked.append(order)
    a, b = rng.randrange(h), rng.randrange(h)
    out = [a, b][:n]
    coin = rng.random
    for _ in range(n - 2):
        c = ranked[a * h + b][bisect.bisect(cumulative, coin() * total)]
        out.append(c)
        a, b = b, c
    return out


def order2_table(data: bytes) -> CodeTable:
    """Total order-2 table whose every row is the canonical Huffman code of
    the symbols that follow that context in data (the empty context uses the
    plain symbol counts)."""
    alphabet = alphabet_from_bytes(data)
    position = {v: i for i, v in enumerate(alphabet.symbols)}
    idx = [position[v] for v in data]
    counts = [Counter(zip(*(idx[k:] for k in range(width)))) for width in (1, 2, 3)]
    h = alphabet.size
    rows = {}
    for ctx in iter_contexts(h, 2):
        seen = counts[len(ctx)]
        words = huffman_build([(s, seen[ctx + (s,)]) for s in range(h)]).codewords
        rows[ctx] = tuple(words[s] for s in range(h))
    return CodeTable(alphabet=alphabet, order=2, rows=rows)


def build(name: str, seed: int, quick: bool = False) -> Workload:
    """Generate one workload's inputs from its name and seed."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    n = SIZES[name][quick]
    rng = random.Random(f"{name}:{seed}")
    if name == "order2-explicit":
        idx = _order2_markov(rng, n, len(ORDER2_ALPHABET), ORDER2_ZIPF)
        data = bytes(ORDER2_ALPHABET[i] for i in idx)
        table = order2_table(data)
        table_text = table_to_text(table)
    else:
        lag, p_repeat = (2, 0.6) if name == "ga-skip2" else (1, 0.4)
        idx = _lagged_repeats(rng, n, len(REPEAT16_ALPHABET), lag, p_repeat)
        data = bytes(REPEAT16_ALPHABET[i] for i in idx)
        table = build_order1(alphabet_from_bytes(data))
        table_text = None
    if name == "ga-skip2":
        ga_code, ga_data = skip2_code(table), data
    else:
        ga_data = data[: GA_SLICE[quick]]
        ga_code = GACode(order_n_function(table.order), lookup_from_table(table))
    rows = table.rows.values()
    info = {
        "seed": seed,
        "symbols": n,
        "alphabet_size": table.alphabet.size,
        "alphabet_hex": bytes(table.alphabet.symbols).hex(),
        "order": table.order,
        "table_rows": len(table.rows),
        "table_codewords": sum(len(row) for row in rows),
        "max_codeword_bits": max(len(word) for row in rows for word in row),
        "ga_symbols": len(ga_data),
        "reference_zlib9_bytes": len(zlib.compress(data, 9)),
        "reference_bz2_9_bytes": len(bz2.compress(data, 9)),
    }
    return Workload(name, data, table, table_text, ga_code, ga_data, info)
