"""Command line behavior: subcommands, exit codes, IO discipline."""

import contextlib
import io
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from adacode import (
    CSV_COLUMNS,
    CodeTable,
    EncodeError,
    IncrementalEncoder,
    alphabet_from_bytes,
    encode,
    read_container,
    table_to_text,
    write_container,
)
from adacode import codec, container
from adacode.builder import build_order1
from adacode.cli import main

from helpers import example_order2_table, nonprefix_order2_table, random_string, random_table

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


@pytest.mark.parametrize(
    "argv, flags",
    [
        ("build --alphabet ab --from-corpus MISSING", "--alphabet and --from-corpus"),
        ("encode IN --table TABLE --alphabet xyz", "--table and --alphabet"),
        ("encode IN --table TABLE --from-corpus MISSING", "--table and --from-corpus"),
        ("encode IN --builder --alphabet ab --from-corpus MISSING", "--alphabet and --from-corpus"),
        ("stats IN --table TABLE --from-corpus MISSING", "--table and --from-corpus"),
        ("stats IN --alphabet abc --from-corpus MISSING", "--alphabet and --from-corpus"),
        ("compare IN IN --table TABLE --alphabet ab", "--table and --alphabet"),
        ("compare IN IN --alphabet abc --from-corpus MISSING", "--alphabet and --from-corpus"),
    ],
)
def test_flags_that_would_be_ignored_are_refused(tmp_path, capsys, argv, flags):
    # neither flag wins silently, and the path of an ignored corpus is never read
    paths = {"IN": tmp_path / "in", "TABLE": tmp_path / "t.txt", "MISSING": tmp_path / "missing"}
    paths["IN"].write_bytes(W1)
    paths["TABLE"].write_text(table_to_text(build_order1(alphabet_from_bytes(b"abc"))))
    out = tmp_path / "out"
    assert main([str(paths.get(arg, arg)) for arg in argv.split()] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"adacode: {flags} cannot be used together\n"
    assert not out.exists()


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
    def no_feed(encoder, data):
        raise AssertionError("encode ran with a table no container can store")

    monkeypatch.setattr(codec.IncrementalEncoder, "feed", no_feed)
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
    table_file, out = tmp_path / "table.txt", tmp_path / "out.adc"
    for text, message in tables:
        table_file.write_text(text)
        assert main(["encode", str(inp), "--table", str(table_file), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"adacode: {message}\n"
        assert not out.exists()


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


def test_hash_symbol_survives_the_table_text(tmp_path, capsys):
    table, source, adc, out = (str(tmp_path / name) for name in ("t", "in", "adc", "out"))
    assert main(["build", "--alphabet", "#ab", "--out", table]) == 0
    assert main(["verify", table]) == 0
    assert capsys.readouterr().out.count("context ") == 4
    Path(source).write_bytes(b"#a##bab#")
    assert main(["encode", source, "--table", table, "--out", adc]) == 0
    assert main(["decode", adc, "--out", out]) == 0
    assert Path(out).read_bytes() == b"#a##bab#"


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


def test_usage_and_positional_sections(monkeypatch, capsys):
    # --out is added to every command after its own flags, and stays last
    monkeypatch.setenv("COLUMNS", "80")
    for argv, usage in (
        ([], "usage: adacode [-h] {build,encode,decode,verify,stats,compare} ...\n\n"
         "Context-conditioned variable-length coding tools.\n\n"
         "positional arguments:\n"
         "  {build,encode,decode,verify,stats,compare}\n"
         "    build               print the order-1 table for an alphabet\n"
         "    encode              encode a file into a container\n"
         "    decode              decode a container back to bytes\n"
         "    verify              check the per-context prefix property\n"
         "    stats               analysis report for one input\n"
         "    compare             side-by-side report for several inputs\n\n"),
        (["build"], "usage: adacode build [-h] [--alphabet LITERAL] [--from-corpus PATH]\n"
         "                     [--out PATH]\n\n"),
        (["encode"], "usage: adacode encode [-h] (--table PATH | --builder) [--alphabet LITERAL]\n"
         "                      [--from-corpus PATH] [--out PATH]\n"
         "                      input\n\n"
         "positional arguments:\n"
         "  input               input file, or - for stdin\n\n"),
        (["decode"], "usage: adacode decode [-h] [--out PATH] input\n\n"
         "positional arguments:\n"
         "  input       container file, or - for stdin\n\n"),
        (["verify"], "usage: adacode verify [-h] [--out PATH] input\n\n"
         "positional arguments:\n"
         "  input       table file in text format, or - for stdin\n\n"),
    ):
        assert main(argv + ["-h"]) == 0
        assert capsys.readouterr().out.startswith(usage)


ABC_TABLE = build_order1(alphabet_from_bytes(b"abc"))
# every row is the canonical code of its lengths, so the table is stored as lengths
LENGTHS_TABLE = CodeTable(ABC_TABLE.alphabet, 1, {ctx: ("0", "10", "11") for ctx in ABC_TABLE.rows})
ROBUSTNESS_CONTAINERS = (
    write_container(ABC_TABLE, len(W1), encode(ABC_TABLE, W1)),
    write_container(LENGTHS_TABLE, len(W1), encode(LENGTHS_TABLE, W1)),
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
    # every data input ends in an exit code from 0 to 4, never an escaped
    # exception, and what a command writes when it exits 0 is consistent
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        source, adc, table, out, back = (
            os.path.join(tmp, name) for name in ("in", "adc", "t", "out", "back")
        )
        Path(source).write_bytes(W1)
        Path(adc).write_bytes(container)
        Path(table).write_text(table_text, encoding="utf-8")
        codes = {}
        for argv in (
            ["decode", adc],
            ["verify", table],
            ["encode", source, "--table", table],
            ["stats", source, "--table", table],
        ):
            codes[argv[0]] = code = main(argv + ["--out", out])
            assert code in range(5)
            if code == 0 and argv[0] == "decode":
                _assert_decode_agrees(container, Path(out).read_bytes())
            if code == 0 and argv[0] == "encode" and codes["verify"] == 0:
                assert main(["decode", out, "--out", back]) == 0
                assert Path(back).read_bytes() == W1


def _assert_decode_agrees(blob: bytes, output: bytes) -> None:
    """A decode that exits 0 returns as many symbols as its container states,
    and they encode to its payload followed by fewer than 8 zero bits."""
    content = read_container(blob)
    assert content.symbol_count == len(output)
    bits = encode(content.table, output)
    padding = content.payload_bits[len(bits) :]
    assert content.payload_bits == bits + padding and len(padding) < 8 and "1" not in padding


def test_payload_bit_flips_exit_0_or_4_and_decode_consistently(tmp_path):
    # version 1 containers carry no checksum, so a flipped payload bit may
    # decode to other bytes; such a decode must still agree with its container
    adc, out = tmp_path / "adc", tmp_path / "out"
    flips = 0
    for blob in ROBUSTNESS_CONTAINERS:
        payload_bits = len(read_container(blob).payload_bits)  # every bit of the payload bytes
        for bit in range(8 * len(blob) - payload_bits, 8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 0x80 >> bit % 8
            adc.write_bytes(flipped)
            code = main(["decode", str(adc), "--out", str(out)])
            assert code in (0, 4)
            if code == 0:
                _assert_decode_agrees(bytes(flipped), out.read_bytes())
            flips += 1
    assert flips == 96


@pytest.mark.parametrize("chunk", [1, 2, 7, 8])
def test_encode_chunk_boundaries(tmp_path, monkeypatch, capsys, chunk):
    # encode feeds the encoder chunk Ki symbols at a time: around each chunk
    # boundary its container is write_container's of the whole input, and an
    # encode error has the text and position of a single-chunk run
    rng = random.Random(chunk)
    size = chunk << 10
    monkeypatch.setattr(container, "_CHUNK", size)
    source, table_file, out = tmp_path / "in", tmp_path / "t.txt", tmp_path / "out.adc"
    for order in (1, 2, 3):
        table = random_table(rng, order, 3)
        table_file.write_text(table_to_text(table))
        outside = bytes([next(v for v in range(256) if v not in table.alphabet)])
        for n in (k * size + d for k in (1, 2) for d in (-1, 0, 1)):
            data = random_string(rng, table.alphabet, n)
            argv = ["encode", str(source), "--table", str(table_file), "--out", str(out)]
            source.write_bytes(data)
            assert main(argv) == 0
            assert out.read_bytes() == write_container(table, n, encode(table, data))
            if order == 1:
                assert main(argv[:2] + ["--builder", "--out", str(out)]) == 0
                built = build_order1(alphabet_from_bytes(data))
                assert out.read_bytes() == write_container(built, n, encode(built, data))
            bad = data[:-1] + outside  # the last symbol, at position n
            source.write_bytes(bad)
            with pytest.raises(EncodeError) as whole:
                encode(table, bad)
            assert whole.value.position == n
            assert main(argv) == 3
            assert capsys.readouterr().err == f"adacode: {whole.value}\n"
            encoder = IncrementalEncoder(table)
            with pytest.raises(EncodeError) as chunked:
                for start in range(0, n, size):
                    encoder.feed(bad[start : start + size])
            assert (str(chunked.value), chunked.value.position) == (str(whole.value), n)
        # a missing row first reached by the first symbol of the second
        # chunk, whose window ends with the last symbol of the first
        a, b = table.alphabet.symbols[:2]
        data = bytes([a]) * (size - 1) + bytes([b]) + bytes([a]) * 8
        ctx = (0,) * (order - 1) + (1,)
        partial = CodeTable(table.alphabet, order, {c: r for c, r in table.rows.items() if c != ctx})
        with pytest.raises(EncodeError) as whole:
            encode(partial, data)
        assert whole.value.position == size + 1
        encoder = IncrementalEncoder(partial)
        with pytest.raises(EncodeError) as chunked:
            for start in range(0, len(data), size):
                encoder.feed(data[start : start + size])
        assert (str(chunked.value), chunked.value.position) == (str(whole.value), size + 1)


def _traced_peak(argv: list[str]) -> tuple[int, int]:
    """The exit code of main(argv) and its tracemalloc peak."""
    with contextlib.redirect_stderr(io.StringIO()):
        tracemalloc.start()
        try:
            code = main(argv)
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_encode_and_decode_memory_is_bounded(tmp_path):
    # 1 MiB over 16 symbols: encode holds its input, its output and one
    # chunk's bits, and decode its input, its output and one chunk's window
    # buffer, never one byte or pointer per symbol or payload bit
    rng = random.Random(41)
    symbols = bytes(range(0x61, 0x71))
    order2 = CodeTable(alphabet_from_bytes(symbols), 2, random_table(rng, 2, 16).rows)
    source, table_file, blob = tmp_path / "in", tmp_path / "t.txt", tmp_path / "c.adc"
    table_file.write_text(table_to_text(order2))
    source.write_bytes(symbols)
    for argv in (["encode", str(source), "--table", str(table_file)], ["decode", str(blob)]):
        assert main(argv + ["--out", str(blob)]) == 0  # imports every module these use
    text = table_file.stat().st_size
    # the mutated containers, decoded under tracemalloc, take long: a smaller input
    for n in (1 << 20, 1 << 16):
        data = rng.randbytes(n).translate(symbols * 16)
        source.write_bytes(data)
        for flags, extra in ((["--table", str(table_file)], 8 * text), (["--builder"], 0)):
            code, peak = _traced_peak(["encode", str(source), *flags, "--out", str(blob)])
            assert code == 0
            assert peak < 2 * n + extra + 512 * 1024
        good = blob.read_bytes()
        containers = [(good, 0)]
        if n < 1 << 20:
            # a symbol count of 2**64 - 1, a payload cut in half, a flipped
            # byte, trailing garbage
            count_at = 4 + 1 + 1 + 2 + len(symbols)
            middle = len(good) // 2
            containers += [
                (good[:count_at] + b"\xff" * 8 + good[count_at + 8 :], 4),
                (good[:middle], 4),
                (good[:middle] + bytes([good[middle] ^ 0xFF]) + good[middle + 1 :], 4),
                (good + b"\xff" * 1000, 4),
            ]
        for raw, exit_code in containers:
            blob.write_bytes(raw)
            code, peak = _traced_peak(["decode", str(blob), "--out", str(tmp_path / "out")])
            assert code == exit_code
            assert peak < 2 * (n + len(raw)) + 512 * 1024
        assert (tmp_path / "out").read_bytes() == data
