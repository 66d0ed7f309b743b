"""Command line behavior: subcommands, exit codes, IO discipline."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from adacode import (
    CSV_COLUMNS,
    CodeTable,
    alphabet_from_bytes,
    encode,
    read_container,
    table_to_text,
    write_container,
)
from adacode import cli, container
from adacode.builder import build_order1
from adacode.cli import main

from helpers import example_order2_table, nonprefix_order2_table

W1 = b"abbbcabccaabccabbcba"
W2 = b"abbbccbccaabccaaacba"


def fake_stdin(monkeypatch, data: bytes) -> None:
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=io.BytesIO(data)))


def test_build_to_stdout(capsys):
    assert main(["build", "--alphabet", "ab"]) == 0
    out = capsys.readouterr()
    assert out.out == table_to_text(build_order1(alphabet_from_bytes(b"ab")))
    assert out.err == ""


def test_build_alphabet_deduplicates_and_sorts(capsys):
    assert main(["build", "--alphabet", "baab"]) == 0
    assert capsys.readouterr().out == table_to_text(
        build_order1(alphabet_from_bytes(b"ab"))
    )


def test_build_to_file(tmp_path, capsys):
    out = tmp_path / "table.txt"
    assert main(["build", "--alphabet", "abc", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == table_to_text(build_order1(alphabet_from_bytes(b"abc")))


def test_build_from_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.write_bytes(W1)
    assert main(["build", "--from-corpus", str(corpus)]) == 0
    assert capsys.readouterr().out == table_to_text(
        build_order1(alphabet_from_bytes(b"abc"))
    )


def test_build_single_symbol_alphabet_fails(capsys):
    assert main(["build", "--alphabet", "a"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "at least two symbols" in out.err


def test_build_requires_alphabet_source(capsys):
    assert main(["build"]) == 2
    assert "alphabet source is required" in capsys.readouterr().err


def test_build_rejects_multibyte_alphabet_literal(capsys):
    assert main(["build", "--alphabet", "a€"]) == 2
    assert "single-byte characters" in capsys.readouterr().err


def test_encode_decode_roundtrip_files(tmp_path):
    inp = tmp_path / "input"
    cont = tmp_path / "c.bin"
    out = tmp_path / "output"
    inp.write_bytes(W1)
    assert main(["encode", str(inp), "--builder", "--out", str(cont)]) == 0
    table = build_order1(alphabet_from_bytes(b"abc"))
    assert cont.read_bytes() == write_container(table, len(W1), encode(table, W1))
    assert main(["decode", str(cont), "--out", str(out)]) == 0
    assert out.read_bytes() == W1


def test_encode_to_stdout(tmp_path, capsysbinary):
    inp = tmp_path / "input"
    inp.write_bytes(b"abba")
    assert main(["encode", str(inp), "--builder"]) == 0
    table = build_order1(alphabet_from_bytes(b"ab"))
    assert capsysbinary.readouterr().out == write_container(
        table, 4, encode(table, b"abba")
    )


def test_decode_to_stdout(tmp_path, capsysbinary):
    table = build_order1(alphabet_from_bytes(b"ab"))
    cont = tmp_path / "c.bin"
    cont.write_bytes(write_container(table, 4, encode(table, b"abba")))
    assert main(["decode", str(cont)]) == 0
    assert capsysbinary.readouterr().out == b"abba"


def test_encode_with_table_file(tmp_path):
    table_file = tmp_path / "table.txt"
    table_file.write_text(table_to_text(example_order2_table()))
    inp = tmp_path / "input"
    inp.write_bytes(b"abaa")
    cont = tmp_path / "c.bin"
    assert main(["encode", str(inp), "--table", str(table_file), "--out", str(cont)]) == 0
    content = read_container(cont.read_bytes())
    assert content.builder_mode is False
    assert content.payload_bits == "01010000"
    assert content.symbol_count == 4

    out = tmp_path / "output"
    assert main(["decode", str(cont), "--out", str(out)]) == 0
    assert out.read_bytes() == b"abaa"


def test_decode_reads_the_packed_payload(tmp_path, monkeypatch):
    table = build_order1(alphabet_from_bytes(b"abc"))
    cont = tmp_path / "c.bin"
    cont.write_bytes(write_container(table, len(W1), encode(table, W1)))

    def unpacked(packed):
        raise AssertionError("decode unpacked the payload into a bit string")

    monkeypatch.setattr(container, "unpack_bits", unpacked)
    out = tmp_path / "output"
    assert main(["decode", str(cont), "--out", str(out)]) == 0
    assert out.read_bytes() == W1


def test_encode_alphabet_flag_overrides_input(tmp_path):
    inp = tmp_path / "input"
    inp.write_bytes(b"ab")
    cont = tmp_path / "c.bin"
    args = ["encode", str(inp), "--builder", "--alphabet", "abc", "--out", str(cont)]
    assert main(args) == 0
    assert read_container(cont.read_bytes()).table == build_order1(
        alphabet_from_bytes(b"abc")
    )


def test_encode_unknown_symbol(tmp_path, capsys):
    table_file = tmp_path / "table.txt"
    table_file.write_text(table_to_text(example_order2_table()))
    inp = tmp_path / "input"
    inp.write_bytes(b"abd")
    assert main(["encode", str(inp), "--table", str(table_file)]) == 3
    err = capsys.readouterr().err
    assert "position 3" in err
    assert err.startswith("adacode:")


def test_encode_partial_table_cannot_be_containerized(tmp_path, capsys):
    table_file = tmp_path / "table.txt"
    table_file.write_text(
        "order 1\nalphabet ab\n~ a 0\n~ b 1\na a 0\na b 1\n"
    )
    inp = tmp_path / "input"
    inp.write_bytes(b"aa")
    assert main(["encode", str(inp), "--table", str(table_file)]) == 3
    assert "total table" in capsys.readouterr().err


def test_encode_refuses_an_unstorable_table_before_encoding(tmp_path, monkeypatch, capsys):
    def no_encode(table, data):
        raise AssertionError("encode ran with a table no container can store")

    monkeypatch.setattr(cli, "encode", no_encode)
    long_word = "1" + "0" * 255
    tables = [
        ("order 1\nalphabet ab\n~ a 0\n~ b 1\na a 0\na b 1\n", "explicit containers require a total table"),
        ("order 256\nalphabet ab\n~ a 0\n~ b 1\n", "container order must be between 1 and 255"),
        (
            f"order 1\nalphabet ab\n~ a 0\n~ b {long_word}\na a 0\na b 1\nb a 0\nb b 1\n",
            "codeword longer than 255 bits",
        ),
    ]
    inp = tmp_path / "input"
    inp.write_bytes(b"aa")
    table_file = tmp_path / "table.txt"
    for text, message in tables:
        table_file.write_text(text)
        assert main(["encode", str(inp), "--table", str(table_file)]) == 3
        assert capsys.readouterr().err == f"adacode: {message}\n"


def test_encode_requires_table_choice(tmp_path, capsys):
    inp = tmp_path / "input"
    inp.write_bytes(b"ab")
    assert main(["encode", str(inp)]) == 2
    assert main(["encode", str(inp), "--builder", "--table", "x"]) == 2


def test_decode_corrupt_container(tmp_path, capsysbinary):
    table = build_order1(alphabet_from_bytes(b"ab"))
    blob = bytearray(write_container(table, 4, encode(table, b"abba")))
    blob[0] = ord("X")
    cont = tmp_path / "c.bin"
    cont.write_bytes(bytes(blob))
    assert main(["decode", str(cont)]) == 4
    out = capsysbinary.readouterr()
    assert out.out == b""
    assert b"bad magic" in out.err


def test_decode_repeated_alphabet_byte(tmp_path, capsys):
    blob = b"ADC1" + bytes([1, 1]) + (2).to_bytes(2, "big") + b"aa"
    cont = tmp_path / "c.bin"
    cont.write_bytes(blob + (0).to_bytes(8, "big") + bytes([0]))
    assert main(["decode", str(cont)]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "adacode: container alphabets must be strictly increasing byte values\n"


def test_decode_long_codeword_cut_short(tmp_path, capsys):
    ab = alphabet_from_bytes(b"ab")
    table = CodeTable(ab, 1, {ctx: ("0", "1" + "0" * 253 + "1") for ctx in ((), (0,), (1,))})
    cont = tmp_path / "c.bin"
    cont.write_bytes(write_container(table, 1, "1", builder_mode=False))
    assert main(["decode", str(cont)]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "adacode: truncated input at bit offset 0\n"


def test_decode_trailing_garbage(tmp_path, capsys):
    table = build_order1(alphabet_from_bytes(b"ab"))
    blob = write_container(table, 4, encode(table, b"abba")) + b"\xff"
    cont = tmp_path / "c.bin"
    cont.write_bytes(blob)
    assert main(["decode", str(cont)]) == 4
    assert "trailing garbage" in capsys.readouterr().err


def test_decode_payload_shorter_than_header_count(tmp_path, capsysbinary):
    table = build_order1(alphabet_from_bytes(b"abc"))
    cont = tmp_path / "c.bin"
    cont.write_bytes(write_container(table, 121, encode(table, W1 + b"a")))
    assert main(["decode", str(cont)]) == 4
    out = capsysbinary.readouterr()
    assert out.out == b""
    assert b"of 121 symbols" in out.err


def test_missing_input_file(tmp_path, capsys):
    assert main(["decode", str(tmp_path / "nope.bin")]) == 2
    assert capsys.readouterr().err != ""


def test_verify_ok(tmp_path, capsys):
    table_file = tmp_path / "table.txt"
    table_file.write_text(table_to_text(build_order1(alphabet_from_bytes(b"ab"))))
    assert main(["verify", str(table_file)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "context ~: ok"
    assert lines[-1] == "prefix: true"
    assert len(lines) == 4


def test_verify_nonprefix(tmp_path, capsys):
    table_file = tmp_path / "table.txt"
    table_file.write_text(table_to_text(nonprefix_order2_table()))
    assert main(["verify", str(table_file)]) == 1
    out = capsys.readouterr().out
    assert "context a: not a prefix code (0 is a prefix of 01)" in out
    assert out.strip().endswith("prefix: false")


def test_verify_duplicate_codeword(tmp_path, capsys):
    table_file = tmp_path / "table.txt"
    table_file.write_text("order 1\nalphabet ab\n~ a 0\n~ b 0\n")
    assert main(["verify", str(table_file)]) == 1
    assert "context ~: duplicate codeword 0" in capsys.readouterr().out


def test_verify_parse_error(tmp_path, capsys):
    table_file = tmp_path / "table.txt"
    table_file.write_text("order 1\nalphabet ab\n~ a\n")
    assert main(["verify", str(table_file)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_table_file_not_utf8(tmp_path, capsys):
    inp = tmp_path / "input"
    inp.write_bytes(b"ab")
    table_file = tmp_path / "table.txt"
    table_file.write_bytes(b"order 1\nalphabet a\xff\n")
    for argv in (
        ["verify", str(table_file)],
        ["encode", str(inp), "--table", str(table_file)],
        ["stats", str(inp), "--table", str(table_file)],
        ["compare", str(inp), "--table", str(table_file)],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == "adacode: table text is not UTF-8 at byte offset 18\n"


def test_stats_text(tmp_path, capsys):
    inp = tmp_path / "input"
    inp.write_bytes(b"aa")
    assert main(["stats", str(inp), "--alphabet", "ab"]) == 0
    out = capsys.readouterr().out
    assert "adaptive_bits: 2" in out
    assert "huffman_bits: 2" in out
    assert "winner: tie" in out


def test_stats_single_symbol_input_needs_explicit_alphabet(tmp_path, capsys):
    # the default alphabet is the input's distinct bytes, which is too small
    # here for the order-1 construction
    inp = tmp_path / "input"
    inp.write_bytes(b"aa")
    assert main(["stats", str(inp)]) == 2
    assert "at least two symbols" in capsys.readouterr().err


def test_stats_csv(tmp_path, capsys):
    inp = tmp_path / "w1"
    inp.write_bytes(W1)
    assert main(["stats", str(inp), "--csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == str(inp)
    assert cells[4] == "33"
    assert cells[5] == "32"


def test_stats_empty_input(tmp_path, capsys):
    inp = tmp_path / "empty"
    inp.write_bytes(b"")
    # without an explicit alphabet the derivation fails first
    assert main(["stats", str(inp)]) == 2
    assert "empty alphabet source" in capsys.readouterr().err
    # with one, the analysis itself refuses the empty string
    assert main(["stats", str(inp), "--alphabet", "ab"]) == 2
    assert "nonempty" in capsys.readouterr().err


def test_stats_symbol_outside_alphabet(tmp_path, capsys):
    inp = tmp_path / "input"
    inp.write_bytes(b"abcab")
    assert main(["stats", str(inp), "--alphabet", "ab"]) == 3
    assert capsys.readouterr().err == "adacode: symbol c not in alphabet (position 3)\n"


def test_stats_partial_table_missing_row(tmp_path, capsys):
    inp = tmp_path / "input"
    inp.write_bytes(b"aabba")
    table_file = tmp_path / "partial.txt"
    table_file.write_text("order 1\nalphabet ab\n~ a 0\n~ b 1\na a 0\na b 1\n")
    assert main(["stats", str(inp), "--table", str(table_file)]) == 3
    assert capsys.readouterr().err == (
        "adacode: no codeword for (symbol index 1, context 'b') (position 4)\n"
    )


def test_stats_from_stdin(monkeypatch, capsys):
    fake_stdin(monkeypatch, b"abab")
    assert main(["stats", "-"]) == 0
    out = capsys.readouterr().out
    assert "string-id: -" in out
    assert "length: 4" in out


def test_compare_two_inputs(tmp_path, capsys):
    f1 = tmp_path / "w1"
    f2 = tmp_path / "w2"
    f1.write_bytes(W1)
    f2.write_bytes(W2)
    assert main(["compare", str(f1), str(f2)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].split()[-1] == "winner"
    assert lines[1].split()[-1] == "huffman"
    assert lines[2].split()[-1] == "adaptive"


def test_compare_csv(tmp_path, capsys):
    f1 = tmp_path / "a"
    f2 = tmp_path / "b"
    f1.write_bytes(b"ab")
    f2.write_bytes(b"ba")
    assert main(["compare", str(f1), str(f2), "--csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3


def test_compare_shares_one_table(tmp_path, capsys):
    # the table comes from the concatenated inputs, so each report sees
    # the union alphabet even when one file lacks a symbol
    f1 = tmp_path / "a"
    f2 = tmp_path / "b"
    f1.write_bytes(b"ab")
    f2.write_bytes(b"ac")
    assert main(["compare", str(f1), str(f2), "--csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    table = build_order1(alphabet_from_bytes(b"abc"))
    assert lines[1].split(",")[4] == str(len(encode(table, b"ab")))
    assert lines[2].split(",")[4] == str(len(encode(table, b"ac")))


def test_compare_requires_inputs(capsys):
    assert main(["compare"]) == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_module_entry_point(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "adacode.cli", "build", "--alphabet", "ab"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == table_to_text(build_order1(alphabet_from_bytes(b"ab")))


STATS_W1 = """\
string-id: w1
length: 20
pairs: {2,3,8,10,13,16}
nrpairs: 6
prate: 0.300000
eh: {2,5,6,7,8,10,12,13,15,16,18,19,20}
adaptive_bits: 33
huffman_bits: 32
H: 1.570951
R: 1.600000
LNotHuffman: 7
LHuffman: 19.854753
H_A: 26.854753
R_A: 1.650000
winner: huffman
huffman_bound_ok: true (H <= R <= H+1)
adaptive_bound_totals_ok: false (H_A <= adaptive_bits <= H_A+1)
adaptive_bound_rates_ok: true (H_A/length <= R_A <= H_A/length+1)
"""
STATS_W2 = """\
string-id: w2
length: 20
pairs: {2,3,5,8,10,13,15,16}
nrpairs: 8
prate: 0.400000
eh: {2,5,7,8,10,12,13,15,18,19,20}
adaptive_bits: 31
huffman_bits: 33
H: 1.581291
R: 1.650000
LNotHuffman: 9
LHuffman: 21.000000
H_A: 30.000000
R_A: 1.550000
winner: adaptive
huffman_bound_ok: true (H <= R <= H+1)
adaptive_bound_totals_ok: true (H_A <= adaptive_bits <= H_A+1)
adaptive_bound_rates_ok: true (H_A/length <= R_A <= H_A/length+1)
"""
CSV_HEADER = "string-id,length,nrpairs,prate,adaptive_bits,huffman_bits,H,R,LNotHuffman,LHuffman,H_A,R_A\n"
CSV_W1 = "w1,20,6,0.300000,33,32,1.570951,1.600000,7,19.854753,26.854753,1.650000\n"
CSV_W2 = "w2,20,8,0.400000,31,33,1.581291,1.650000,9,21.000000,30.000000,1.550000\n"
COMPARE_W1_W2 = """\
string-id  length  nrpairs  prate     adaptive_bits  huffman_bits  H         R         LNotHuffman  LHuffman   H_A        R_A       winner
w1         20      6        0.300000  33             32            1.570951  1.600000  7            19.854753  26.854753  1.650000  huffman
w2         20      8        0.400000  31             33            1.581291  1.650000  9            21.000000  30.000000  1.550000  adaptive
"""


def test_report_golden_output(tmp_path, monkeypatch, capsys):
    # the full stdout of the report commands on the paper's reference strings
    monkeypatch.chdir(tmp_path)
    Path("w1").write_bytes(W1)
    Path("w2").write_bytes(W2)
    for argv, expected in (
        (["stats", "w1"], STATS_W1),
        (["stats", "w2"], STATS_W2),
        (["stats", "w1", "--csv"], CSV_HEADER + CSV_W1),
        (["stats", "w2", "--csv"], CSV_HEADER + CSV_W2),
        (["compare", "w1", "w2"], COMPARE_W1_W2),
        (["compare", "w1", "w2", "--csv"], CSV_HEADER + CSV_W1 + CSV_W2),
    ):
        assert main(argv) == 0
        assert capsys.readouterr() == (expected, "")


def test_report_usage_lines(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for command, usage in (
        ("stats", "usage: adacode stats [-h] [--table PATH | --builder] [--alphabet LITERAL]\n"
         "                     [--from-corpus PATH] [--csv] [--out PATH]\n"
         "                     input\n\n"
         "positional arguments:\n"
         "  input               input file, or - for stdin\n\n"),
        ("compare", "usage: adacode compare [-h] [--table PATH | --builder] [--alphabet LITERAL]\n"
         "                       [--from-corpus PATH] [--csv] [--out PATH]\n"
         "                       inputs [inputs ...]\n\n"
         "positional arguments:\n"
         "  inputs              input files, - for stdin\n\n"),
    ):
        assert main([command, "-h"]) == 0
        assert capsys.readouterr().out.startswith(usage)


ABC_TABLE = build_order1(alphabet_from_bytes(b"abc"))
ROBUSTNESS_CONTAINERS = (
    write_container(ABC_TABLE, len(W1), encode(ABC_TABLE, W1)),
    write_container(example_order2_table(), 12, encode(example_order2_table(), b"abbabaabbbab")),
)
ROBUSTNESS_TABLES = tuple(
    table_to_text(t) for t in (ABC_TABLE, example_order2_table(), nonprefix_order2_table())
)
TEXT_PIECES = st.one_of(
    st.sampled_from(("\\x", "\\x6", "order", "alphabet", "\n~ a ", " 0\n")),
    st.text("01 \n\t~abcx\\#+-_9\xff\u0100\u0661", min_size=1, max_size=3),
)


@st.composite
def _mutated(draw, base, pieces):
    """base after one to three edits, each substituting a piece for one item
    or inserting one, then perhaps truncated, and cut to 4 KiB. Positions are
    uniform, so that edits reach past the header."""
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(1, 3))):
        i = rng.randint(0, len(base))
        base = base[:i] + draw(pieces) + base[i + draw(st.integers(0, 1)) :]
    if draw(st.booleans()):
        base = base[: rng.randint(0, len(base))]
    return base[:4096]


@given(
    st.sampled_from(ROBUSTNESS_CONTAINERS).flatmap(lambda c: _mutated(c, st.binary(min_size=1, max_size=8))),
    st.sampled_from(ROBUSTNESS_TABLES).flatmap(lambda t: _mutated(t, TEXT_PIECES)),
)
@settings(max_examples=150, deadline=None)
def test_mutated_inputs_end_with_an_exit_code(container, table_text):
    # every data input ends in an exit code from 0 to 4, never an escaped exception
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        source, adc, table, out = (os.path.join(tmp, name) for name in ("in", "adc", "t", "out"))
        Path(source).write_bytes(W1)
        Path(adc).write_bytes(container)
        Path(table).write_text(table_text, encoding="utf-8")
        for argv in (
            ["decode", adc],
            ["verify", table],
            ["encode", source, "--table", table],
            ["stats", source, "--table", table],
        ):
            assert main(argv + ["--out", out]) in range(5)
