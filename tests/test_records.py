"""The package's record types: repr, equality, hashing, immutability and
construction, pinned for every one of them."""

import copy
import pickle
from fractions import Fraction

import pytest

from adacode import (
    AdaptiveFunction,
    Alphabet,
    CodeTable,
    ContainerContent,
    GACode,
    PackedBits,
    build_order1,
    compare_report,
)
from adacode.analysis import AnalysisReport, PairStats
from adacode.codec import DecodeTrace
from adacode.prefix import HuffmanResult


def rule(position, prefix):
    return prefix[-1:]


AB = Alphabet((97, 98))
TABLE = CodeTable(alphabet=AB, order=1, rows={(): ("0", "1")})
FUNCTION = AdaptiveFunction(rule, max_context=1)
FIGURES = dict(
    length=3, nrpairs=1, encoded_bits=4, r_a_literal=4 / 3, huffman_total_bits=3,
    huffman_rate=1.0, huffman_entropy=0.5, l_not_huffman=2, l_huffman=2.0, h_a=4.0,
)
TABLE_REPR = "CodeTable(alphabet=Alphabet(symbols=(97, 98)), order=1, rows={(): ('0', '1')})"

# each record type, its fields in constructor order, its exact repr, and
# whether it is hashable
RECORDS = [
    (Alphabet, dict(symbols=(97, 98)), "Alphabet(symbols=(97, 98))", True),
    (CodeTable, dict(alphabet=AB, order=1, rows={(): ("0", "1")}), TABLE_REPR, False),
    (
        DecodeTrace,
        dict(output=b"ab", iterations=2, bits_consumed=3),
        "DecodeTrace(output=b'ab', iterations=2, bits_consumed=3)",
        True,
    ),
    (PackedBits, dict(data=b"\x80", bit_count=1), "PackedBits(data=b'\\x80', bit_count=1)", True),
    (
        ContainerContent,
        dict(table=TABLE, symbol_count=2, payload_bits="01", builder_mode=False),
        f"ContainerContent(table={TABLE_REPR}, symbol_count=2, payload_bits='01', "
        "builder_mode=False)",
        False,
    ),
    (
        HuffmanResult,
        dict(codewords={1: "0", 2: "1"}),
        "HuffmanResult(codewords={1: '0', 2: '1'})",
        False,
    ),
    (
        PairStats,
        dict(pairs=frozenset({2}), nrpairs=1, prate=Fraction(1, 3)),
        "PairStats(pairs=frozenset({2}), nrpairs=1, prate=Fraction(1, 3))",
        True,
    ),
    (
        AnalysisReport,
        dict(FIGURES, w=b"aab"),
        "AnalysisReport(length=3, nrpairs=1, encoded_bits=4, r_a_literal=1.3333333333333333, "
        "huffman_total_bits=3, huffman_rate=1.0, huffman_entropy=0.5, l_not_huffman=2, "
        "l_huffman=2.0, h_a=4.0)",
        True,
    ),
    (
        AdaptiveFunction,
        dict(rule=rule, max_context=1),
        f"AdaptiveFunction(rule={rule!r}, max_context=1)",
        True,
    ),
    (
        GACode,
        dict(function=FUNCTION, lookup={(97, ()): "0", (98, ()): "1"}),
        f"GACode(function=AdaptiveFunction(rule={rule!r}, max_context=1), "
        "lookup={(97, ()): '0', (98, ()): '1'})",
        False,
    ),
]
each_record = pytest.mark.parametrize(
    "cls, fields, text, hashable", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS]
)
HIDDEN = ("_index", "_prefix", "_cells", "_codes", "_longest")


@each_record
def test_repr_is_pinned_and_hides_internal_fields(cls, fields, text, hashable):
    record = cls(**fields)
    assert repr(record) == text
    assert not any(name in text for name in (*HIDDEN, "w="))


@each_record
def test_hashability(cls, fields, text, hashable):
    record = cls(**fields)
    if hashable:
        assert hash(record) == hash(cls(**fields))
        assert len({record, cls(**fields)}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)


@each_record
def test_equality_is_by_type_and_value(cls, fields, text, hashable):
    record = cls(**fields)
    assert record == cls(**fields) and not record != cls(**fields)
    assert cls(*fields.values()) == record
    assert cls.__match_args__ == tuple(fields)
    assert record != tuple(fields.values()) and tuple(fields.values()) != record
    assert record != None  # noqa: E711
    assert type("Sub" + cls.__name__, (cls,), {})(**fields) != record


def test_equality_compares_every_field():
    assert Alphabet((97, 98)) != Alphabet((98, 97))
    assert CodeTable(AB, 1, {(): ("0", "1")}) != CodeTable(AB, 1, {(): ("1", "0")})
    assert PackedBits(b"\x80", 1) != PackedBits(b"\x80", 2)
    assert AdaptiveFunction(rule) != FUNCTION
    # w is not shown, but it is compared
    assert AnalysisReport(**FIGURES, w=b"aab") != AnalysisReport(**FIGURES, w=b"abb")
    # caches built from the fields are not compared
    assert GACode(FUNCTION, {(97, ()): "0"}) == GACode(FUNCTION, {(97, ()): "0"})


@each_record
def test_fields_cannot_be_assigned_or_deleted(cls, fields, text, hashable):
    record = cls(**fields)
    for name in (*fields, *HIDDEN, "new_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@each_record
def test_copies_and_pickles_are_equal_records(cls, fields, text, hashable):
    record = cls(**fields)
    for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        twin = clone(record)
        assert type(twin) is cls and twin == record and repr(twin) == text
    if cls is Alphabet:  # the index is rebuilt, not lost
        assert copy.copy(record).index_of(98) == 1


def test_keyword_and_positional_construction():
    assert CodeTable(alphabet=AB, order=1, rows={(): ("0", "1")}) == TABLE
    assert PackedBits(b"\x80", 1) == PackedBits(data=b"\x80", bit_count=1)
    assert Alphabet(symbols=[97, 98]) == AB
    assert AdaptiveFunction(rule).max_context is None
    assert AdaptiveFunction(rule=rule, max_context=1) == FUNCTION
    assert GACode(function=FUNCTION, lookup={(97, ()): "0"}).lookup == {(97, ()): "0"}
    assert HuffmanResult(codewords={1: "0"}).lengths == {1: 1}
    assert AnalysisReport(*FIGURES.values(), b"aab") == AnalysisReport(**FIGURES, w=b"aab")
    match PackedBits(b"\x80", 1):
        case PackedBits(data, bit_count):
            matched = (data, bit_count)
    assert matched == (b"\x80", 1)
    for args, kwargs in (
        ((b"",), {}), ((b"", 0, 1), {}), ((b"",), {"bits": 0}), ((b"", 0), {"data": b""})
    ):
        with pytest.raises(TypeError):
            PackedBits(*args, **kwargs)


def test_analysis_report_caches_its_position_sets():
    report = compare_report(b"aabba", build_order1(AB))
    stats, eh = report.stats, report.eh
    assert stats.pairs == frozenset({1, 3}) and eh == frozenset({3, 5})
    assert report.stats is stats and report.eh is eh
    assert vars(report)["stats"] is stats and vars(report)["eh"] is eh
