"""The table text format: comments, blank lines and spacing around the fields."""

import random

from hypothesis import given, settings, strategies as st

from adacode import TableError, alphabet_from_bytes, table_from_text, table_to_text
from adacode.builder import build_order1

from helpers import random_table

AB_TEXT = "order 1\nalphabet ab\n~ a 0\n~ b 10\na a 0\na b 10\nb a 10\nb b 0\n"


def _outcome(text: str):
    try:
        return table_from_text(text)
    except TableError as exc:
        return str(exc)


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
