"""The package root: its exported names, loaded lazily, and what importing
the CLI or the GA layer, or running each CLI command, loads."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import adacode

SRC = Path(__file__).resolve().parent.parent / "src"

# every name the package root exports, by the module that defines it
EXPORTS = {
    "analysis": [
        "CSV_COLUMNS", "compare_report", "eh_positions", "h_a", "huffman_entropy",
        "huffman_rate", "l_huffman", "l_not_huffman", "pair_stats", "r_a_literal",
        "render_comparison", "render_csv", "render_stats",
    ],
    "builder": ["build_order1"],
    "codec": [
        "DecodeError", "EncodeError", "IncrementalEncoder", "decode", "encode", "prefix_predicate",
    ],
    "container": [
        "ContainerContent", "ContainerError", "PackedBits", "decode_payload", "pack_bits",
        "read_container", "unpack_bits", "write_container",
    ],
    "core": [
        "AdaptiveCodeError", "Alphabet", "CodeTable", "TableError", "alphabet_from_bytes",
        "format_context", "format_symbol", "iter_contexts", "table_get",
    ],
    "ga": [
        "AdaptiveFunction", "GACode", "ga_decode", "ga_encode", "lookup_from_table",
        "order_n_function",
    ],
    "prefix": [
        "huffman_build", "huffman_total_length", "is_prefix_code", "kraft_sum",
        "prefix_violation",
    ],
    "tabletext": ["table_from_text", "table_to_text"],
}


def test_all_lists_the_exported_names():
    names = sorted(name for names in EXPORTS.values() for name in names)
    assert len(names) == 50
    assert adacode.__all__ == names
    assert adacode.__version__ == "0.1.0"


def test_each_name_is_the_object_of_its_module():
    for module, names in EXPORTS.items():
        home = import_module(f"adacode.{module}")
        for name in names:
            assert getattr(adacode, name) is getattr(home, name), name


def test_star_import_and_dir_cover_every_name():
    namespace: dict = {}
    exec("from adacode import *", namespace)
    assert set(adacode.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(adacode, name) for name in adacode.__all__)
    assert set(adacode.__all__) <= set(dir(adacode))
    assert "__version__" in dir(adacode)


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        adacode.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from adacode import no_such_name", {})


def _newly_loaded(statement: str) -> set[str]:
    """Modules a fresh interpreter loads to run statement, beyond those it
    had loaded before it."""
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return set(json.loads(proc.stdout))


def test_the_cli_loads_no_analysis_ga_or_heavy_stdlib():
    loaded = _newly_loaded("import adacode.cli")
    assert "adacode.cli" in loaded
    unwanted = {
        "dataclasses", "inspect", "fractions", "decimal", "csv", "string",
        "adacode.analysis", "adacode.ga", "adacode.tabletext",
    }
    assert loaded & unwanted == set()


def test_the_ga_names_load_no_container_or_analysis():
    loaded = _newly_loaded(
        "from adacode import AdaptiveFunction, Alphabet, CodeTable, GACode, build_order1, "
        "lookup_from_table"
    )
    assert "adacode.ga" in loaded
    assert loaded & {"adacode.analysis", "adacode.container", "dataclasses"} == set()


def test_the_errors_live_in_core_and_are_re_exported():
    from adacode import codec, container, core

    assert codec.EncodeError is core.EncodeError is adacode.EncodeError
    assert codec.DecodeError is core.DecodeError is adacode.DecodeError
    assert container.ContainerError is core.ContainerError is adacode.ContainerError


@pytest.mark.parametrize("command, inputs", [("stats", 1), ("compare", 2)])
def test_the_report_commands_load_no_codec_or_container(tmp_path, command, inputs):
    source = tmp_path / "in.txt"
    source.write_bytes(b"abracadabra abracada")
    argv = [command, *[str(source)] * inputs, "--csv", "--out", str(tmp_path / "out.csv")]
    loaded = _newly_loaded(f"import adacode.cli; assert adacode.cli.main({argv!r}) == 0")
    assert "adacode.analysis" in loaded
    assert loaded & {"adacode.codec", "adacode.container"} == set()


def test_decode_loads_no_analysis(tmp_path):
    table = adacode.build_order1(adacode.alphabet_from_bytes(b"ab"))
    source = tmp_path / "in.adc"
    source.write_bytes(adacode.write_container(table, 4, adacode.encode(table, b"abba")))
    out = tmp_path / "out.txt"
    argv = ["decode", str(source), "--out", str(out)]
    loaded = _newly_loaded(f"import adacode.cli; assert adacode.cli.main({argv!r}) == 0")
    assert {"adacode.codec", "adacode.container"} <= loaded
    assert "adacode.analysis" not in loaded
    assert out.read_bytes() == b"abba"


FORMATS = {"adacode.codec", "adacode.container", "adacode.tabletext"}


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["build", "--alphabet", "ab"], {"adacode.tabletext"}),
        (["verify", "{table}"], {"adacode.tabletext"}),
        (["stats", "{source}", "--table", "{table}", "--csv"], {"adacode.tabletext"}),
        (["decode", "{adc}"], {"adacode.codec", "adacode.container"}),
        (["encode", "{source}", "--builder"], {"adacode.codec", "adacode.container"}),
        (["encode", "{source}", "--table", "{table}"], FORMATS),
    ],
    ids=["build", "verify", "stats-table", "decode", "encode-builder", "encode-table"],
)
def test_each_command_loads_only_the_formats_it_reads_or_writes(tmp_path, argv, loads):
    table = adacode.build_order1(adacode.alphabet_from_bytes(b"ab"))
    paths = {name: tmp_path / name for name in ("source", "table", "adc")}
    paths["source"].write_bytes(b"abba")
    paths["table"].write_text(adacode.table_to_text(table))
    paths["adc"].write_bytes(adacode.write_container(table, 4, adacode.encode(table, b"abba")))
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "out")]
    loaded = _newly_loaded(f"import adacode.cli; assert adacode.cli.main({argv!r}) == 0")
    assert loaded & FORMATS == loads
