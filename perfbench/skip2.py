"""The ga-skip2 GA code, and its set-up leg.

Run as a script with the alphabet as hex, this is the child process whose
wall time is ga-skip2's setup_s: a fresh interpreter that imports adacode
and builds the workload's GACode, nothing more.
"""

from __future__ import annotations

import sys

from adacode import AdaptiveFunction, Alphabet, CodeTable, GACode, build_order1, lookup_from_table


def symbol_two_back(position: int, prefix: tuple[int, ...]) -> tuple[int, ...]:
    """GA context rule: the symbol two positions back, empty before that."""
    return prefix[-2:-1] if position >= 3 else ()


def skip2_code(table: CodeTable) -> GACode:
    """Order-1 builder codewords, keyed by the symbol two positions back
    instead of the previous one."""
    return GACode(AdaptiveFunction(symbol_two_back, max_context=1), lookup_from_table(table))


if __name__ == "__main__":
    skip2_code(build_order1(Alphabet(tuple(bytes.fromhex(sys.argv[1])))))
