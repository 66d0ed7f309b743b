"""Batch front end: build tables, encode and decode streams, verify the
per-context prefix property, and print analysis reports.

Exit codes: 0 success, 1 failed verification, 2 usage or parse errors,
3 encode errors, 4 decode or container errors. Data and reports go to
stdout, diagnostics to stderr. An input path of - reads standard input.
Each command imports the layers it runs inside its own function, so that it
starts faster: build and verify import tabletext, the table text format;
encode and decode import container, which imports codec; stats and compare
import analysis. A --table adds tabletext to encode, stats and compare.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .builder import build_order1
from .core import AdaptiveCodeError, Alphabet, ContainerError, DecodeError, EncodeError
from .core import TableError, alphabet_from_bytes, format_context
from .prefix import prefix_violation

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_ENCODE = 3
EXIT_DECODE = 4
_EXIT_CODES = {EncodeError: EXIT_ENCODE, DecodeError: EXIT_DECODE, ContainerError: EXIT_DECODE}


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_bytes(path: str | None, data: bytes | bytearray) -> None:
    if path:
        with open(path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _alphabet_literal(literal: str) -> bytes:
    try:
        return literal.encode("latin-1")
    except UnicodeEncodeError:
        raise AdaptiveCodeError(
            "alphabet literal must contain only single-byte characters"
        ) from None


def _refuse_both(args: argparse.Namespace, first: str, second: str) -> None:
    """Refuse two flags of which the second would be ignored."""
    if getattr(args, first) is not None and getattr(args, second) is not None:
        message = f"--{first} and --{second} cannot be used together"
        raise AdaptiveCodeError(message.replace("_", "-"))


def _resolve_alphabet(args: argparse.Namespace, fallback: bytes | None) -> Alphabet:
    _refuse_both(args, "alphabet", "from_corpus")
    if args.alphabet:
        return alphabet_from_bytes(_alphabet_literal(args.alphabet))
    if args.from_corpus:
        return alphabet_from_bytes(_read_input(args.from_corpus))
    if fallback is not None:
        return alphabet_from_bytes(fallback)
    raise AdaptiveCodeError("an alphabet source is required (--alphabet or --from-corpus)")


def _read_table(path: str):
    from .tabletext import table_from_text

    try:
        text = _read_input(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TableError(f"table text is not UTF-8 at byte offset {exc.start}") from None
    return table_from_text(text)


def _resolve_table(args: argparse.Namespace, fallback: bytes | None):
    _refuse_both(args, "table", "alphabet")
    _refuse_both(args, "table", "from_corpus")
    if args.table:
        return _read_table(args.table)
    return build_order1(_resolve_alphabet(args, fallback))


def cmd_build(args: argparse.Namespace) -> int:
    from .tabletext import table_to_text

    table = build_order1(_resolve_alphabet(args, None))
    _write_text(args.out, table_to_text(table))
    return EXIT_OK


def cmd_encode(args: argparse.Namespace) -> int:
    from .container import _encode_container

    data = _read_input(args.input)
    _write_bytes(args.out, _encode_container(_resolve_table(args, data), data))
    return EXIT_OK


def cmd_decode(args: argparse.Namespace) -> int:
    from .container import _decode_container

    _write_bytes(args.out, _decode_container(_read_input(args.input)))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    table = _read_table(args.input)
    all_ok = True
    lines = []
    for ctx in sorted(table.rows, key=lambda c: (len(c), c)):
        name = format_context(table.alphabet, ctx)
        violation = prefix_violation(table.rows[ctx])
        if violation is None:
            lines.append(f"context {name}: ok")
            continue
        all_ok = False
        shorter, longer = violation
        if shorter == longer:
            lines.append(f"context {name}: duplicate codeword {shorter}")
        else:
            lines.append(
                f"context {name}: not a prefix code ({shorter} is a prefix of {longer})"
            )
    lines.append(f"prefix: {'true' if all_ok else 'false'}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def cmd_report(args: argparse.Namespace) -> int:
    """stats and compare: one report per input, all under the table resolved
    from their concatenation."""
    from .analysis import compare_report, render_comparison, render_csv, render_stats

    datas = [(path, _read_input(path)) for path in args.inputs]
    # one exact bytes object joins to itself, so stats copies nothing
    table = _resolve_table(args, b"".join(d for _, d in datas))
    rows = [(path, compare_report(data, table)) for path, data in datas]
    if args.csv:
        _write_text(args.out, render_csv(rows))
    elif args.command == "stats":
        _write_text(args.out, render_stats(*rows[0]))
    else:
        _write_text(args.out, render_comparison(rows))
    return EXIT_OK


def _add_alphabet_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alphabet", metavar="LITERAL", help="alphabet as a literal string")
    sub.add_argument(
        "--from-corpus", metavar="PATH", help="derive the alphabet from a corpus file"
    )


def _add_table_flags(sub: argparse.ArgumentParser, required: bool) -> None:
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--table", metavar="PATH", help="code table in text format")
    group.add_argument(
        "--builder",
        action="store_true",
        help="use the order-1 built table for the alphabet",
    )
    _add_alphabet_flags(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adacode",
        description="Context-conditioned variable-length coding tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="print the order-1 table for an alphabet")
    _add_alphabet_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("encode", help="encode a file into a container")
    p.add_argument("input", help="input file, or - for stdin")
    _add_table_flags(p, required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a container back to bytes")
    p.add_argument("input", help="container file, or - for stdin")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("verify", help="check the per-context prefix property")
    p.add_argument("input", help="table file in text format, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="analysis report for one input")
    p.add_argument("inputs", nargs=1, metavar="input", help="input file, or - for stdin")
    _add_table_flags(p, required=False)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("compare", help="side-by-side report for several inputs")
    p.add_argument("inputs", nargs="+", help="input files, - for stdin")
    _add_table_flags(p, required=False)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_report)

    for p in sub.choices.values():
        p.add_argument("--out", metavar="PATH")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (AdaptiveCodeError, OSError) as exc:
        print(f"adacode: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
