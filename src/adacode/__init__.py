"""Context-conditioned variable-length codes.

A codeword here depends not only on its symbol but on the window of up to n
preceding symbols, so repetitive structure that a memoryless code cannot see
becomes cheap. The package provides the coding core (tables, encoder, greedy
decoder), an order-1 table builder that spends one bit per repeated symbol,
a deterministic canonical Huffman baseline, analysis utilities, a
generalized layer with pluggable context rules, on-disk formats, and a CLI.
"""

from .analysis import (
    CSV_COLUMNS,
    compare_report,
    eh_positions,
    h_a,
    huffman_entropy,
    huffman_rate,
    l_huffman,
    l_not_huffman,
    pair_stats,
    r_a_literal,
    render_comparison,
    render_csv,
    render_stats,
)
from .builder import build_order1
from .codec import (
    DecodeError,
    EncodeError,
    IncrementalEncoder,
    decode,
    encode,
    prefix_predicate,
)
from .container import (
    ContainerContent,
    ContainerError,
    PackedBits,
    decode_payload,
    pack_bits,
    read_container,
    table_from_text,
    table_to_text,
    unpack_bits,
    write_container,
)
from .core import (
    AdaptiveCodeError,
    Alphabet,
    CodeTable,
    TableError,
    alphabet_from_bytes,
    format_context,
    format_symbol,
    iter_contexts,
    table_get,
)
from .ga import (
    AdaptiveFunction,
    GACode,
    ga_decode,
    ga_encode,
    lookup_from_table,
    order_n_function,
)
from .prefix import (
    huffman_build,
    huffman_total_length,
    is_prefix_code,
    kraft_sum,
    prefix_violation,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveCodeError",
    "AdaptiveFunction",
    "Alphabet",
    "CSV_COLUMNS",
    "CodeTable",
    "ContainerContent",
    "ContainerError",
    "DecodeError",
    "EncodeError",
    "GACode",
    "IncrementalEncoder",
    "PackedBits",
    "TableError",
    "alphabet_from_bytes",
    "build_order1",
    "compare_report",
    "decode",
    "decode_payload",
    "eh_positions",
    "encode",
    "format_context",
    "format_symbol",
    "ga_decode",
    "ga_encode",
    "h_a",
    "huffman_build",
    "huffman_entropy",
    "huffman_rate",
    "huffman_total_length",
    "is_prefix_code",
    "iter_contexts",
    "kraft_sum",
    "l_huffman",
    "l_not_huffman",
    "lookup_from_table",
    "order_n_function",
    "pack_bits",
    "pair_stats",
    "prefix_predicate",
    "prefix_violation",
    "r_a_literal",
    "read_container",
    "render_comparison",
    "render_csv",
    "render_stats",
    "table_from_text",
    "table_get",
    "table_to_text",
    "unpack_bits",
    "write_container",
]
