"""Context-conditioned variable-length codes.

A codeword here depends not only on its symbol but on the window of up to n
preceding symbols, so repetitive structure that a memoryless code cannot see
becomes cheap. The package provides the coding core (tables, encoder, greedy
decoder), an order-1 table builder that spends one bit per repeated symbol,
a deterministic canonical Huffman baseline, analysis utilities, a
generalized layer with pluggable context rules, on-disk formats, and a CLI.

Each exported name is imported from its module on first use (PEP 562), so
`import adacode` loads none of the modules, and a program or a CLI command
loads only the layers it runs.
"""

import importlib as _importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": "CSV_COLUMNS compare_report eh_positions h_a huffman_entropy huffman_rate"
    " l_huffman l_not_huffman pair_stats r_a_literal render_comparison render_csv render_stats",
    "builder": "build_order1",
    "codec": "IncrementalEncoder decode encode prefix_predicate",
    "container": "ContainerContent PackedBits decode_payload pack_bits read_container"
    " unpack_bits write_container",
    # codec and container re-export the errors they raise
    "core": "AdaptiveCodeError Alphabet CodeTable ContainerError DecodeError EncodeError"
    " TableError alphabet_from_bytes format_context format_symbol iter_contexts table_get",
    "ga": "AdaptiveFunction GACode ga_decode ga_encode lookup_from_table order_n_function",
    "prefix": "huffman_build huffman_total_length is_prefix_code kraft_sum prefix_violation",
    "tabletext": "table_from_text table_to_text",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups no longer reach __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
