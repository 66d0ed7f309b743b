"""The table text format: round trips, escapes, comments, spacing and parse errors."""

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from adacode import (
    Alphabet,
    CodeTable,
    TableError,
    alphabet_from_bytes,
    iter_contexts,
    prefix_predicate,
    table_from_text,
    table_to_text,
)
from adacode import tabletext
from adacode.builder import build_order1
from adacode.tabletext import _lines

from helpers import example_order2_table, nonprefix_order2_table, random_prefix_row, random_table

AB_TEXT = "order 1\nalphabet ab\n~ a 0\n~ b 10\na a 0\na b 10\nb a 10\nb b 0\n"


def _outcome(text: str):
    try:
        return table_from_text(text)
    except TableError as exc:
        return str(exc)


_table_text_outcome = _outcome


def test_comments_inside_and_after_a_rows_lines():
    table = build_order1(alphabet_from_bytes(b"ab"))
    assert table_from_text(AB_TEXT) == table
    # a three-field comment between two lines of one context
    text = AB_TEXT.replace("a a 0\n", "a a 0\n# a 0\n")
    assert table_from_text(text) == table
    # an indented comment, and a commented-out copy of the line before it
    text = AB_TEXT.replace("a b 10\n", "a b 10\n\t  # indented\n#a b 10\n")
    assert table_from_text(text) == table
    # a line whose first field starts with #, right after a data line
    text = AB_TEXT.replace("~ b 10\n", "~ b 10\n#~ a 1\n#b a 0\n")
    assert table_from_text(text) == table
    # a context field spelled \x23 is the symbol #, not a comment
    text = "order 1\nalphabet #a\n~ # 0\n~ a 1\n#~ a 1\n\\x23 # 0\n# # 0\n\\x23 a 1\na # 1\na a 0\n"
    assert table_from_text(text).rows == {(): ("0", "1"), (0,): ("0", "1"), (1,): ("1", "0")}


def test_fields_separated_by_tabs_or_padded_with_spaces():
    table = build_order1(alphabet_from_bytes(b"ab"))
    padded = (
        "  order\t1 \nalphabet \t ab\n~\ta\t0\n  ~  b  10  \na a\t0\t\na\t b 10\nb a 10\n\tb b 0"
    )
    assert table_from_text(padded) == table
    # an error quotes its line without the outer spaces, the inner ones kept
    assert _outcome("order 1\nalphabet ab\n\t~ \t a  \n") == (
        "line 3: expected '<context> <symbol> <bits>', got '~ \t a'"
    )
    # a comment with three fields inside a row, then a bad line of that row
    assert _outcome("order 1\nalphabet ab\n~ a 0\n# b 1\n~ b 1x\n") == (
        "line 5: codeword must be nonempty bits, got '1x'"
    )


def _noisy_lines(rng: random.Random, lines: list[str]) -> tuple[list[str], list[int]]:
    """lines with blank lines and comments put in, and with each line's
    fields spaced by runs of spaces and tabs; also the indices of the data
    lines, the header's included, in the result."""

    def space(least: int) -> str:
        return "".join(rng.choice(" \t") for _ in range(rng.randint(least, 3)))

    out, data = [], []
    for line in lines:
        while rng.random() < 0.3:
            fields = line.split()
            out.append(
                rng.choice([
                    "",
                    space(1),
                    space(0) + "# " + " ".join(fields[1:]),  # three fields, as in "# a 0"
                    space(0) + "#" + space(0).join(fields),
                    "#" + space(1).join(["x"] * rng.randint(0, 4)),
                ])
            )
        data.append(len(out))
        out.append(space(0) + space(1).join(line.split(" ")) + space(0))
    return out, data


def _join(rng: random.Random, lines: list[str]) -> str:
    """lines ended by \\n, \\r\\n or \\r, chosen so that text.splitlines()
    gives them back: a \\r is never followed by an empty line's \\n."""
    text = ""
    for line in lines:
        ends = ["\n", "\r\n", "\r"]
        if not line and text.endswith("\r"):
            ends = ["\r"]
        text += line + rng.choice(ends)
    assert text.splitlines() == lines
    return text


@given(st.integers(1, 2), st.integers(2, 5), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_noisy_text_parses_as_the_clean_text_and_names_a_bad_line(order, size, seed):
    rng = random.Random(seed)
    table = random_table(rng, order, size)
    clean = table_to_text(table).splitlines()
    lines, data = _noisy_lines(rng, clean)
    assert table_from_text(_join(rng, lines)) == table

    # one data line, found by its clean index, made bad in one of several ways
    at = rng.randrange(2, len(clean))
    ctx, symbol, bits = clean[at].split()
    bad = rng.choice([
        f"{ctx} {symbol}",
        f"{ctx} {symbol} {bits} {bits}",
        f"{ctx} {symbol} {bits}2",
        f"{ctx} {symbol}{symbol} {bits}",
        f"{symbol * (order + 1)} {symbol} {bits}",
        clean[rng.randrange(2, at)] if at > 2 else f"{ctx} {symbol} -",
    ])
    expected = _outcome("\n".join(clean[:at] + [bad] + clean[at + 1 :]))
    assert expected.startswith(f"line {at + 1}: ")
    lines[data[at]] = rng.choice(["", " ", "\t "]) + bad + rng.choice(["", "\t"])
    message = _outcome(_join(rng, lines))
    assert message == f"line {data[at] + 1}: " + expected.split(": ", 1)[1]


def test_table_text_example_order2():
    text = table_to_text(example_order2_table())
    lines = text.strip().split("\n")
    assert lines[0] == "order 2"
    assert lines[1] == "alphabet ab"
    assert len(lines) == 2 + 14
    assert lines[2] == "~ a 0"
    assert lines[3] == "~ b 1"
    assert lines[12] == "ba a 1"
    assert lines[13] == "ba b 0"
    assert table_from_text(text) == example_order2_table()


def test_table_text_roundtrip_builder():
    for source in (b"ab", b"abc", b"abcdef"):
        t = build_order1(alphabet_from_bytes(source))
        assert table_from_text(table_to_text(t)) == t


def test_table_text_roundtrip_nonprefix():
    t = nonprefix_order2_table()
    parsed = table_from_text(table_to_text(t))
    assert parsed == t
    assert prefix_predicate(parsed) is False


def test_table_text_roundtrip_escaped_symbols():
    t = build_order1(alphabet_from_bytes(bytes([126, 0, 92])))
    text = table_to_text(t)
    assert "alphabet \\x00\\x5c\\x7e" in text
    assert table_from_text(text) == t
    # escapes take upper-case hex digits too
    assert table_from_text(text.replace("\\x5c", "\\x5C")) == t


def test_table_text_roundtrip_hash_symbol():
    # a row whose context starts with # must not read as a comment line
    text = table_to_text(build_order1(alphabet_from_bytes(b"#ab")))
    assert "\\x23 \\x23 0\n" in text
    rng = random.Random(53)
    tables = [build_order1(alphabet_from_bytes(b"#ab"))]
    for _ in range(10):
        size = rng.randint(1, 4)
        symbols = sorted({0x23, *rng.sample(range(256), size)})
        rows = {ctx: random_prefix_row(rng, len(symbols)) for ctx in iter_contexts(len(symbols), 2)}
        tables.append(CodeTable(Alphabet(tuple(symbols)), 2, rows))
    for table in tables:
        assert table_from_text(table_to_text(table)) == table


def test_table_text_reads_a_literal_hash_after_the_line_start():
    text = "order 1\nalphabet #a\n~ # 0\n~ a 1\n\\x23 # 0\n\\x23 a 1\na # 1\na a 0\n"
    table = table_from_text(text)
    assert table.alphabet.symbols == (0x23, 0x61)
    assert table.rows == {(): ("0", "1"), (0,): ("0", "1"), (1,): ("1", "0")}


def test_table_text_ignores_comments_and_blank_lines():
    text = (
        "# a comment\n"
        "\n"
        "order 1\n"
        "alphabet ab\n"
        "  # indented comment\n"
        "~ a 0\n"
        "~ b 10\n"
        "a a 0\n"
        "a b 10\n"
        "b a 10\n"
        "b b 0\n"
    )
    assert table_from_text(text) == build_order1(alphabet_from_bytes(b"ab"))


def test_table_text_cell_order_is_free():
    ordered = table_to_text(build_order1(alphabet_from_bytes(b"ab")))
    lines = ordered.strip().split("\n")
    shuffled = lines[:2] + list(reversed(lines[2:]))
    assert table_from_text("\n".join(shuffled)) == table_from_text(ordered)
    # data lines sorted by symbol, so that each context's lines fall in h runs
    ordered = table_to_text(example_order2_table())
    lines = ordered.strip().split("\n")
    by_symbol = lines[:2] + sorted(lines[2:], key=lambda line: line.split()[1])
    assert table_from_text("\n".join(by_symbol)) == table_from_text(ordered)
    # a context field longer than the order is named at the first line that has it
    long = ["a" + line if line.startswith("ab ") else line for line in by_symbol]
    first = next(i for i, line in enumerate(long) if line.startswith("aab ")) + 1
    assert _outcome("\n".join(long)) == f"line {first}: context longer than order 2"


def test_table_text_parse_errors():
    with pytest.raises(
        TableError, match="^table text needs an order line and an alphabet line$"
    ):
        table_from_text("# nothing here\n")
    with pytest.raises(TableError, match="^line 1: expected 'order <n>'$"):
        table_from_text("ordre 1\nalphabet ab\n")
    # only ASCII decimal digits: int() alone would read the last four as 1, 10, 1 and -1
    for order in ("x", "+1", "1_0", "\u0661", "-1"):
        with pytest.raises(TableError, match="^line 1: expected 'order <n>'$"):
            table_from_text(f"order {order}\nalphabet ab\n")
    # more digits than int() converts from a str
    with pytest.raises(TableError, match="^line 1: expected 'order <n>'$"):
        table_from_text("order " + "9" * 5000 + "\nalphabet ab\n")
    with pytest.raises(TableError, match="^line 1: order must be at least 1$"):
        table_from_text("order 0\nalphabet ab\n")
    with pytest.raises(TableError, match="^line 2: expected 'alphabet <symbols>'$"):
        table_from_text("order 1\nalpha ab\n")
    with pytest.raises(TableError, match="^line 2: alphabet symbols must be distinct$"):
        table_from_text("order 1\nalphabet aa\n")
    with pytest.raises(TableError, match=r"^line 2: bad escape in '\\xZZ'$"):
        table_from_text("order 1\nalphabet \\xZZ\n")
    with pytest.raises(TableError, match=r"^line 2: bad escape in '\\x4'$"):
        table_from_text("order 1\nalphabet \\x4\n")
    # only two ASCII hex digits: int(..., 16) alone would read these as 1, -1, 0x12
    for escape in ("\\x+1", "\\x-1", "\\x\u0661\u0662"):
        message = re.escape(f"bad escape in 'a{escape}'")
        with pytest.raises(TableError, match=f"^line 2: {message}$"):
            table_from_text(f"order 1\nalphabet a{escape}\n")
        message = re.escape(f"bad escape in '{escape}'")
        with pytest.raises(TableError, match=f"^line 3: {message}$"):
            table_from_text(f"order 1\nalphabet ab\n{escape} a 0\n")
    with pytest.raises(
        TableError, match="^line 3: expected '<context> <symbol> <bits>', got '~ a'$"
    ):
        table_from_text("order 1\nalphabet ab\n~ a\n")
    with pytest.raises(TableError, match="^line 3: symbol c not in alphabet$"):
        table_from_text("order 1\nalphabet ab\n~ c 0\n")
    with pytest.raises(TableError, match="^line 3: symbol c not in alphabet$"):
        table_from_text("order 1\nalphabet ab\nc a 0\n")
    with pytest.raises(TableError, match="^line 3: expected a single symbol, got 'ab'$"):
        table_from_text("order 1\nalphabet ab\n~ ab 0\n")
    with pytest.raises(TableError, match="^line 3: context longer than order 1$"):
        table_from_text("order 1\nalphabet ab\naa a 0\n")
    with pytest.raises(TableError, match="^line 3: codeword must be nonempty bits, got '01x'$"):
        table_from_text("order 1\nalphabet ab\n~ a 01x\n")
    with pytest.raises(
        TableError, match="^line 4: duplicate cell for context '~' and symbol 'a'$"
    ):
        table_from_text("order 1\nalphabet ab\n~ a 0\n~ a 1\n")
    with pytest.raises(TableError, match="^line 2: '\u0100' is not a single byte$"):
        table_from_text("order 1\nalphabet a\u0100\n")
    with pytest.raises(
        TableError, match="^incomplete row for context '~': 1 of 2 codewords$"
    ):
        table_from_text("order 1\nalphabet ab\n~ a 0\n")
    # a field that repeats across lines reports the first line with the error
    with pytest.raises(TableError, match="^line 3: symbol c not in alphabet$"):
        table_from_text("order 1\nalphabet ab\nc a 0\n~ a 0\nc b 1\n")
    with pytest.raises(TableError, match="^line 4: codeword must be nonempty bits, got '1x'$"):
        table_from_text("order 1\nalphabet ab\n~ a 0\n~ b 1x\na a 1x\n")
    # context field 'a' is first seen on line 3; its duplicate cell is on line 6
    with pytest.raises(
        TableError, match="^line 6: duplicate cell for context 'a' and symbol 'a'$"
    ):
        table_from_text("order 1\nalphabet ab\na a 0\na b 1\n~ a 0\na a 1\n")


@pytest.mark.parametrize("block", [1, 2, 7, 8, 1 << 14])
def test_table_text_with_one_bad_line_reports_that_line(monkeypatch, block):
    # a text read a block of characters at a time, with one bad line: that
    # line's error wins over the incomplete row it leaves; with fewer than
    # two content lines the missing header wins over a bad order line
    monkeypatch.setattr(tabletext, "_BLOCK", block)
    lines = ["# header", "order 2", "", "alphabet ab"]
    body = table_to_text(example_order2_table()).splitlines()[2:]
    lines += body[:5] + ["  # a comment between cells", "\t"] + body[5:]
    assert _table_text_outcome("\n".join(lines)) == example_order2_table()
    header = {
        1: [("order x", "expected 'order <n>'"), ("order 0", "order must be at least 1")],
        3: [("alphabet aa", "alphabet symbols must be distinct"), ("alpha ab", "expected 'alphabet <symbols>'")],
    }
    for index, bad_lines in header.items():
        for bad, message in bad_lines:
            text = "\n".join(lines[:index] + [bad] + lines[index + 1 :])
            assert _table_text_outcome(text) == f"line {index + 1}: {message}"
    data = [i for i, line in enumerate(lines) if i > 3 and line.strip() and line.strip()[0] != "#"]
    for index in data:
        ctx, symbol, _ = lines[index].split()
        bad_lines = [
            (f"{ctx} {symbol}", f"expected '<context> <symbol> <bits>', got '{ctx} {symbol}'"),
            (f"{ctx} {symbol} 0x", "codeword must be nonempty bits, got '0x'"),
            (f"{ctx} c 0", "symbol c not in alphabet"),
            (f"{ctx} ab 0", "expected a single symbol, got 'ab'"),
            (f"aaa {symbol} 0", "context longer than order 2"),
        ]
        if index > data[0]:
            first = lines[data[0]]
            ctx, symbol, _ = first.split()
            bad_lines.append((first, f"duplicate cell for context '{ctx}' and symbol '{symbol}'"))
        for bad, message in bad_lines:
            text = "\n".join(lines[:index] + [bad] + lines[index + 1 :])
            assert _table_text_outcome(text) == f"line {index + 1}: {message}"
    needs = "table text needs an order line and an alphabet line"
    for text in ("", "order x", "# c\norder 2\n\n", "order x\n# alphabet ab\n"):
        assert _table_text_outcome(text) == needs
    assert _table_text_outcome("order x\n~ a 0") == "line 1: expected 'order <n>'"
    assert _table_text_outcome("order 2\n~ a 0") == "line 2: expected 'alphabet <symbols>'"


@pytest.mark.parametrize("block", [1, 2, 7, 8, 1 << 14])
def test_table_text_lines_split_as_splitlines(monkeypatch, block):
    # blocks end after a newline, so no line break, \r\n included, is cut
    monkeypatch.setattr(tabletext, "_BLOCK", block)
    rng = random.Random(block)
    breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\n\n"]
    for _ in range(50):
        text = "".join(
            rng.choice(["", "a", "~ b 10", " # c "]) + rng.choice(breaks) for _ in range(rng.randint(0, 30))
        )
        text += rng.choice(["", "tail"])
        assert list(_lines(text)) == text.splitlines()


def test_table_from_text_memory_is_bounded():
    # one pass over the lines, one string per distinct codeword: the peak
    # stays within a fixed multiple of the text, also for texts that fail
    # on their last line or on an incomplete row
    text = table_to_text(random_table(random.Random(43), 2, 32))
    lines = text.splitlines()
    texts = [
        text,
        text + lines[-1] + "\n",
        text + "~ ab 0\n",
        "\n".join(lines[:-1]),
    ]
    for text in texts:
        tracemalloc.start()
        try:
            _table_text_outcome(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(text) + 256 * 1024


TABLE_TOKENS = (
    "~", "a", "b", "c", "ab", "aa", "\\x61", "\\x6", "\\xZZ", "\\", "\u0100",
    "\\x-1", "\\x+1", "\\x\u0661\u0662",
    "0", "1", "01", "10", "0x", "2", "#", "order", "alphabet",
)


@given(
    st.sampled_from(("order 1", "order 2", "order 0", "order x", "order", "ordre 1")),
    st.sampled_from((
        "alphabet ab", "alphabet aa", "alphabet \\x61b", "alphabet \\xZ", "alphabet",
        "alphabet a\\x-1", "alphabet a\\x+1", "alphabet a\\x\u0661\u0662",
    )),
    st.lists(st.lists(st.sampled_from(TABLE_TOKENS), min_size=0, max_size=4), max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_table_from_text_fuzz_raises_only_table_errors(order_line, alphabet_line, cells):
    text = "\n".join([order_line, alphabet_line] + [" ".join(cell) for cell in cells])
    try:
        table = table_from_text(text)
    except TableError:
        return
    assert isinstance(table, CodeTable)
