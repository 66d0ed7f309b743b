"""Generalized coding layer: context rules, lookups, encode/decode."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from adacode import (
    AdaptiveCodeError,
    AdaptiveFunction,
    Alphabet,
    CodeTable,
    DecodeError,
    EncodeError,
    GACode,
    TableError,
    alphabet_from_bytes,
    decode,
    encode,
    format_context,
    ga_decode,
    ga_encode,
    is_prefix_code,
    lookup_from_table,
    order_n_function,
)
from adacode import codec
from adacode.builder import build_order1

from helpers import (
    example_order2_table,
    random_string,
    random_table,
    scan_decode_outcome,
)


def test_order_n_function_examples():
    f1 = order_n_function(1)
    assert f1(1, ()) == ()
    assert f1(2, (97,)) == (97,)
    assert f1(5, (1, 2, 3, 4)) == (4,)

    f2 = order_n_function(2)
    assert f2(1, ()) == ()
    assert f2(2, (97,)) == (97,)
    assert f2(3, (97, 98)) == (97, 98)
    assert f2(4, (97, 98, 99)) == (98, 99)


def test_order_n_function_window_length():
    rng = random.Random(5)
    for n in (1, 2, 3, 5):
        f = order_n_function(n)
        for _ in range(30):
            w = tuple(rng.randrange(256) for _ in range(rng.randint(1, 30)))
            i = rng.randint(1, len(w))
            ctx = f(i, w[: i - 1])
            assert len(ctx) == min(i - 1, n)
            assert ctx == w[max(0, i - 1 - n) : i - 1]


def test_order_n_function_rejects_bad_order():
    with pytest.raises(AdaptiveCodeError):
        order_n_function(0)
    for n in (1.5, 2.0, "2", None, True):
        with pytest.raises(AdaptiveCodeError, match="order must be an int"):
            order_n_function(n)


def test_adaptive_function_rejects_bad_bound():
    rule = lambda i, prefix: ()  # noqa: E731
    for bound in (None, 0, 1, 7):
        assert AdaptiveFunction(rule, max_context=bound).max_context == bound
    for bound in ("x", -1, 1.0, True, False, (1,)):
        with pytest.raises(AdaptiveCodeError, match="max_context must be None or an int >= 0"):
            AdaptiveFunction(rule, max_context=bound)


def test_adaptive_function_only_sees_prior_symbols():
    f = AdaptiveFunction(lambda i, prefix: prefix)
    # symbols at and after the queried position are sliced away before the
    # rule runs, so handing it the whole string changes nothing
    assert f(2, (1, 2, 3)) == (1,)
    assert f(1, (1, 2, 3)) == ()


def test_adaptive_function_positions_are_one_based():
    f = AdaptiveFunction(lambda i, prefix: ())
    with pytest.raises(AdaptiveCodeError):
        f(0, ())


def test_adaptive_function_enforces_declared_bound():
    f = AdaptiveFunction(lambda i, prefix: prefix, max_context=1)
    assert f(2, (7,)) == (7,)
    with pytest.raises(AdaptiveCodeError, match="bound"):
        f(3, (7, 8))


def test_ga_code_validation():
    f = order_n_function(1)
    with pytest.raises(AdaptiveCodeError):
        GACode(f, {})
    with pytest.raises(AdaptiveCodeError, match="is not an AdaptiveFunction"):
        GACode(f.rule, {(97, ()): "0"})
    with pytest.raises(AdaptiveCodeError):
        GACode(f, {(256, ()): "0"})
    with pytest.raises(AdaptiveCodeError):
        GACode(f, {(97, ()): ""})
    with pytest.raises(AdaptiveCodeError):
        GACode(f, {(97, ()): "012"})
    for key in ((97.0, ()), ("a", ()), 97, (97,), (97, (300,)), (97, (-1,)), (97, "a")):
        with pytest.raises(AdaptiveCodeError, match="lookup key"):
            GACode(f, {key: "0", (98, ()): "1"})
    for word in (["0"], 0):
        with pytest.raises(TableError, match="codeword must be"):
            GACode(f, {(97, ()): "0", (98, ()): word})


def test_rules_that_return_no_byte_values():
    for bad in (None, [300], 3, True):
        code = GACode(AdaptiveFunction(lambda i, prefix: bad), {(97, ()): "0"})
        with pytest.raises(AdaptiveCodeError, match="context rule did not return byte values"):
            ga_encode(code, b"a")
        with pytest.raises(AdaptiveCodeError, match="context rule did not return byte values"):
            ga_decode(code, "0")

    # an exception raised inside the rule itself propagates unchanged
    code = GACode(AdaptiveFunction(lambda i, prefix: {}["from the rule"]), {(97, ()): "0"})
    with pytest.raises(KeyError, match="from the rule"):
        ga_encode(code, b"a")
    with pytest.raises(KeyError, match="from the rule"):
        ga_decode(code, "0")


def test_lookup_from_table_builder_ab():
    t = build_order1(alphabet_from_bytes(b"ab"))
    lookup = lookup_from_table(t)
    assert lookup[(97, ())] == "0"
    assert lookup[(98, ())] == "10"
    assert lookup[(97, (97,))] == "0"
    assert lookup[(98, (97,))] == "10"
    assert lookup[(97, (98,))] == "10"
    assert lookup[(98, (98,))] == "0"
    assert len(lookup) == 6


def test_ga_encode_examples():
    t2 = example_order2_table()
    code = GACode(order_n_function(2), lookup_from_table(t2))
    assert ga_encode(code, b"abaa") == "0101"

    t1 = build_order1(alphabet_from_bytes(b"ab"))
    code1 = GACode(order_n_function(1), lookup_from_table(t1))
    assert ga_encode(code1, b"aa") == "00"
    assert ga_encode(code1, b"") == ""


def test_ga_encode_missing_entry():
    code = GACode(order_n_function(1), {(97, ()): "0", (97, (97,)): "0"})
    with pytest.raises(EncodeError) as err:
        ga_encode(code, b"ab")
    assert err.value.position == 2
    assert "context 'a'" in str(err.value)


def test_ga_decode_examples():
    t2 = example_order2_table()
    code = GACode(order_n_function(2), lookup_from_table(t2))
    assert ga_decode(code, "0101") == b"abaa"
    assert ga_decode(code, "") == b""


def test_ga_decode_rejects_bad_bits():
    t = build_order1(alphabet_from_bytes(b"ab"))
    code = GACode(order_n_function(1), lookup_from_table(t))
    with pytest.raises(DecodeError) as err:
        ga_decode(code, "01x")
    assert (err.value.position, err.value.context) == (None, None)


def test_ga_decode_checks_rows_lazily():
    lookup = {
        (97, ()): "0",
        (98, ()): "1",
        (97, (97,)): "0",
        (98, (97,)): "1",
        # this row is not a prefix code, but only matters if visited
        (97, (98,)): "0",
        (98, (98,)): "01",
    }
    code = GACode(order_n_function(1), lookup)
    assert ga_decode(code, "01") == b"ab"
    with pytest.raises(DecodeError, match="non-prefix row at visited context 'b'") as err:
        ga_decode(code, "010")
    assert (err.value.position, err.value.context) == (3, b"b")

    # a row that repeats a codeword is not a prefix code either
    code = GACode(order_n_function(1), lookup | {(98, (98,)): "0"})
    assert ga_decode(code, "01") == b"ab"
    with pytest.raises(DecodeError, match="non-prefix row at visited context 'b'") as err:
        ga_decode(code, "010")
    assert (err.value.bit_offset, err.value.position, err.value.context) == (2, 3, b"b")


def test_ga_rows_are_built_once_per_code(monkeypatch):
    lookup = {
        (97, ()): "0",
        (98, ()): "1",
        (97, (97,)): "0",
        (98, (97,)): "1",
        (97, (98,)): "0",
        (98, (98,)): "01",
    }
    code = GACode(order_n_function(1), lookup)
    missing = GACode(order_n_function(1), {(97, ()): "0", (98, ()): "1"})

    def unused(*args):
        raise AssertionError("GA rows are rebuilt after construction")

    monkeypatch.setattr("adacode.ga.is_prefix_code", unused)
    monkeypatch.setattr("adacode.ga._code", unused)
    assert ga_encode(code, b"aab") == "001"
    assert ga_decode(code, "001") == b"aab"
    with pytest.raises(DecodeError, match="^non-prefix row at visited context 'b'$"):
        ga_decode(code, "010")
    with pytest.raises(DecodeError, match="^no codewords for context 'a' at bit offset 1$"):
        ga_decode(missing, "00")


def test_ga_decode_missing_row():
    lookup = {
        (97, ()): "0",
        (98, ()): "1",
        (97, (97,)): "0",
        (98, (97,)): "1",
    }
    code = GACode(order_n_function(1), lookup)
    assert ga_decode(code, "01") == b"ab"
    with pytest.raises(DecodeError) as err:
        ga_decode(code, "011")
    assert err.value.bit_offset == 2
    assert err.value.position == 3
    assert err.value.context == b"b"
    assert "no codewords for context 'b'" in str(err.value)


def test_ga_decode_truncated_and_undecodable():
    code = GACode(
        AdaptiveFunction(lambda i, prefix: (), max_context=0),
        {(97, ()): "00", (98, ()): "01"},
    )
    with pytest.raises(DecodeError, match="truncated input at bit offset 0") as err:
        ga_decode(code, "0")
    assert (err.value.position, err.value.context) == (1, b"")
    with pytest.raises(DecodeError, match="undecodable at bit offset 0") as err:
        ga_decode(code, "1")
    assert (err.value.position, err.value.context) == (1, b"")


def test_ga_matches_table_codec():
    rng = random.Random(29)
    for _ in range(60):
        order = rng.randint(1, 3)
        table = random_table(rng, order, rng.randint(2, 5))
        code = GACode(order_n_function(order), lookup_from_table(table))
        w = random_string(rng, table.alphabet, rng.randint(0, 40))
        bits = encode(table, w)
        assert ga_encode(code, w) == bits
        assert ga_decode(code, bits) == w
        assert decode(table, bits).output == w


@given(st.lists(st.sampled_from([97, 98]), max_size=40).map(bytes))
def test_ga_roundtrip_order1(w):
    t = build_order1(alphabet_from_bytes(b"ab"))
    code = GACode(order_n_function(1), lookup_from_table(t))
    assert ga_decode(code, ga_encode(code, w)) == w


def _outcome(run, table, bits):
    """The decoded bytes, or (kind, bit offset) as scan_decode_outcome names them.
    A failure names the symbol after those the bits before its offset decode to."""
    try:
        return run()
    except DecodeError as exc:
        before = decode(table, bits[: exc.bit_offset]).output
        assert exc.position == 1 + len(before)
        assert exc.context == before[max(0, len(before) - table.order) :]
        message = str(exc)
        if message.startswith("truncated input at bit offset"):
            return ("truncated", exc.bit_offset)
        if message.startswith("undecodable at bit offset"):
            return ("undecodable", exc.bit_offset)
        assert message.startswith("no codeword"), message
        return ("missing row", exc.bit_offset)


def test_ga_and_table_decoders_fail_at_the_same_bit_offset():
    rng = random.Random(41)
    failures = 0
    for _ in range(200):
        order = rng.randint(1, 3)
        table = random_table(rng, order, rng.randint(2, 5))
        bits = encode(table, random_string(rng, table.alphabet, rng.randint(1, 40)))
        if rng.random() < 0.5:
            # drop a nonempty-context row, so some streams reach a missing row
            dropped = rng.choice([ctx for ctx in table.rows if ctx])
            rows = {ctx: row for ctx, row in table.rows.items() if ctx != dropped}
            table = CodeTable(alphabet=table.alphabet, order=order, rows=rows)
        code = GACode(order_n_function(order), lookup_from_table(table))
        flip = rng.randrange(len(bits))
        flipped = bits[:flip] + "10"[int(bits[flip])] + bits[flip + 1 :]
        for damaged in (bits[: rng.randrange(len(bits))], flipped):
            table_result = _outcome(lambda: decode(table, damaged).output, table, damaged)
            assert _outcome(lambda: ga_decode(code, damaged), table, damaged) == table_result
            failures += isinstance(table_result, tuple)
    assert failures > 50


def test_decoders_match_the_scan_oracle_on_incomplete_rows():
    # small rows, then wide ones whose decode window is often shorter than
    # their longest codeword; each group meets the floor on its own
    groups = ((random.Random(43), (1, 3), (2, 5)), (random.Random(47), (1, 1), (6, 40)))
    for rng, orders, sizes in groups:
        kinds = Counter()
        for _ in range(200):
            order = rng.randint(*orders)
            table = random_table(rng, order, rng.randint(*sizes))
            rows = {}
            for ctx, row in table.rows.items():
                # lengthening one codeword leaves a prefix code with a hole in it
                words = list(row)
                words[rng.randrange(len(words))] += "0"
                rows[ctx] = tuple(words)
            table = CodeTable(alphabet=table.alphabet, order=order, rows=rows)
            bits = encode(table, random_string(rng, table.alphabet, rng.randint(1, 40)))
            if rng.random() < 0.25:
                dropped = rng.choice([ctx for ctx in rows if ctx])
                rows = {ctx: row for ctx, row in rows.items() if ctx != dropped}
                table = CodeTable(alphabet=table.alphabet, order=order, rows=rows)
            code = GACode(order_n_function(order), lookup_from_table(table))
            flip = rng.randrange(len(bits))
            flipped = bits[:flip] + "10"[int(bits[flip])] + bits[flip + 1 :]
            for damaged in (bits[: rng.randrange(len(bits))], flipped):
                expected = scan_decode_outcome(table, damaged)
                assert _outcome(lambda: decode(table, damaged).output, table, damaged) == expected
                assert _outcome(lambda: ga_decode(code, damaged), table, damaged) == expected
                kinds[expected[0] if isinstance(expected, tuple) else "decoded"] += 1
        assert min(kinds[k] for k in ("truncated", "undecodable", "missing row")) >= 20, kinds


def test_rules_get_a_readonly_view_of_exactly_the_prior_symbols():
    data = b"abracadabra"
    seen = []

    def rule(position, prefix):
        assert isinstance(prefix, memoryview) and prefix.readonly
        seen.append((position, bytes(prefix)))
        with pytest.raises(TypeError):
            prefix[:0] = b""
        return prefix[-1:]

    table = build_order1(alphabet_from_bytes(data))
    code = GACode(AdaptiveFunction(rule, max_context=1), lookup_from_table(table))
    expected = [(i, data[: i - 1]) for i in range(1, len(data) + 1)]
    bits = ga_encode(code, data)
    assert seen == expected
    seen.clear()
    assert ga_decode(code, bits) == data
    assert seen == expected


def test_rule_that_keeps_its_views_still_roundtrips(monkeypatch):
    # the decoder's output grows chunk by chunk of payload bytes; views the
    # rule kept pin the old output, which keeps the bytes they saw
    rng = random.Random(3)
    kept = []

    def rule(position, prefix):
        kept.append(prefix)
        return prefix[-2:-1]

    table = build_order1(alphabet_from_bytes(b"abcd"))
    code = GACode(AdaptiveFunction(rule, max_context=1), lookup_from_table(table))
    data = random_string(rng, table.alphabet, 300)
    for chunk in (1 << 13, 7, 1):
        monkeypatch.setattr(codec, "_CHUNK", chunk)
        kept.clear()
        assert ga_decode(code, ga_encode(code, data)) == data
        assert [bytes(view) for view in kept] == [data[:i] for i in range(len(data))] * 2


def test_bytes_and_view_results_skip_the_full_check(monkeypatch):
    # order_n_function's rule returns bytes and the README's rule slices its
    # view, so with a total table no position needs the full check
    rng = random.Random(53)
    table = random_table(rng, 2, 5)
    data = random_string(rng, table.alphabet, 200)
    window = GACode(order_n_function(2), lookup_from_table(table))
    skip2 = GACode(
        AdaptiveFunction(lambda i, prior: prior[-2:-1], max_context=1),
        lookup_from_table(table),
    )
    expected = [ga_encode(window, data), ga_encode(skip2, data)]
    assert expected[0] == encode(table, data)

    def unused(self, raw, position):
        raise AssertionError(f"the result at position {position} was checked in full")

    monkeypatch.setattr(AdaptiveFunction, "_context", unused)
    assert [ga_encode(window, data), ga_encode(skip2, data)] == expected


def test_multi_dimensional_memoryview_results_raise_library_errors():
    def grid(position, prior):
        return memoryview(b"ab").cast("B", shape=[1, 2])

    code = GACode(AdaptiveFunction(grid), {(97, (97, 98)): "0"})
    calls = (
        lambda: ga_encode(code, b"a"),
        lambda: ga_decode(code, "0"),
        lambda: code.function(1, b""),
    )
    for call in calls:
        with pytest.raises(AdaptiveCodeError, match="did not return byte values at position 1"):
            call()


# The rule-result contract. A rule may return anything; the coding loops use
# a bytes or 'B'-memoryview result that equals a known context as it is and
# check every other one in full, and that must never change an outcome. The
# reference below asks AdaptiveFunction.__call__ for the context at each
# position and codes one symbol at a time from the lookup.
CONTRACT_SYMBOLS = (97, 98, 255)
CONTRACT_CONTEXTS = (
    (),
    *((a,) for a in CONTRACT_SYMBOLS),
    *((a, b) for a in CONTRACT_SYMBOLS for b in CONTRACT_SYMBOLS),
    (98, 97, 255),
    (97, 97, 97),
)
UNKNOWN_CONTEXTS = ((1,), (99, 98), (0,))
# the first two rows are prefix codes; the others are not
CONTRACT_ROWS = (("0", "10", "11"), ("1", "01", "00"), ("0", "1", "01"), ("0", "0", "1"))
# what a rule returns at most positions: slices of its view, or their bytes
USUAL_RESULTS = (
    lambda prior, ctx: prior[-1:],
    lambda prior, ctx: prior[-2:],
    lambda prior, ctx: prior[-2:-1],
    lambda prior, ctx: prior[:0],
    lambda prior, ctx: prior[-3:],
    lambda prior, ctx: bytes(prior[-1:]),
)
# what it returns at a few positions, ctx drawn from every context above
ODD_RESULTS = (
    *USUAL_RESULTS,
    lambda prior, ctx: bytes(ctx),
    lambda prior, ctx: bytearray(ctx),
    lambda prior, ctx: tuple(ctx),
    lambda prior, ctx: list(ctx),
    lambda prior, ctx: (*ctx, 256),
    lambda prior, ctx: [255, *ctx],
    lambda prior, ctx: (-1,),
    lambda prior, ctx: len(ctx),
    lambda prior, ctx: True,
    lambda prior, ctx: tuple(map(bool, ctx)),
    lambda prior, ctx: (1.0,),
    lambda prior, ctx: "a",
    lambda prior, ctx: None,
    lambda prior, ctx: memoryview(bytearray(ctx)),
    lambda prior, ctx: prior.cast("b")[-1:],
    lambda prior, ctx: prior.cast("c")[-1:],
    lambda prior, ctx: memoryview(bytes(ctx)).cast("b"),
    lambda prior, ctx: memoryview(bytes(ctx)).cast("c"),
    lambda prior, ctx: memoryview(bytes(ctx) or b"a").cast("B", shape=[1, len(ctx) or 1]),
    lambda prior, ctx: memoryview(bytes(ctx[:1]) or b"a").cast("B", shape=[]),
)
_BYTE_VALUES = Alphabet(tuple(range(256)))


def _reference_encode(function, lookup, data):
    out = []
    for i in range(len(data)):
        ctx = function(i + 1, data)
        word = lookup.get((data[i], ctx))
        if word is None:
            raise EncodeError(
                f"no codeword for symbol {format_context(_BYTE_VALUES, (data[i],))} "
                f"in context '{format_context(_BYTE_VALUES, ctx)}' (position {i + 1})",
                i + 1,
            )
        out.append(word)
    return "".join(out)


def _reference_decode(function, lookup, bits):
    rows = {}
    for (symbol, ctx), word in lookup.items():
        rows.setdefault(ctx, {})[symbol] = word
    out, cursor = bytearray(), 0
    while cursor < len(bits):
        position = len(out) + 1
        ctx = function(position, bytes(out))
        row, name = rows.get(ctx), format_context(_BYTE_VALUES, ctx)
        if row is None:
            message = f"no codewords for context '{name}' at bit offset {cursor}"
            raise DecodeError(message, cursor, position, bytes(ctx))
        if not is_prefix_code(row.values()):
            message = f"non-prefix row at visited context '{name}'"
            raise DecodeError(message, cursor, position, bytes(ctx))
        hits = [(symbol, word) for symbol, word in row.items() if bits.startswith(word, cursor)]
        if not hits:
            kind = "undecodable"
            if any(word.startswith(bits[cursor:]) for word in row.values()):
                kind = "truncated input"
            raise DecodeError(f"{kind} at bit offset {cursor}", cursor, position, bytes(ctx))
        (symbol, word), = hits
        out.append(symbol)
        cursor += len(word)
    return bytes(out)


def _outcome_and_calls(run, calls):
    """What run returns or raises, with every attribute of an error, and the
    positions the rule was called at."""
    calls.clear()
    try:
        result = run()
    except Exception as exc:
        result = (type(exc), str(exc), vars(exc))
    return result, list(calls)


@settings(max_examples=250)
@given(st.data())
def test_rule_results_are_used_exactly_as_checked(draw):
    data = draw.draw
    bound = data(st.sampled_from((None, 1, 2, 0)))
    dropped = data(st.sets(st.sampled_from(CONTRACT_CONTEXTS[1:]), max_size=3))
    rows = data(st.dictionaries(st.sampled_from(CONTRACT_CONTEXTS), st.sampled_from(CONTRACT_ROWS)))
    pairs = st.tuples(st.sampled_from(CONTRACT_SYMBOLS), st.sampled_from(CONTRACT_CONTEXTS))
    holes = data(st.sets(pairs, max_size=2))
    lookup = {
        (symbol, ctx): word
        for ctx in CONTRACT_CONTEXTS
        if ctx not in dropped
        for symbol, word in zip(CONTRACT_SYMBOLS, rows.get(ctx, CONTRACT_ROWS[0]))
        if (symbol, ctx) not in holes
    }
    text = data(st.lists(st.sampled_from(CONTRACT_SYMBOLS), max_size=12).map(bytes))
    usual = data(st.sampled_from(USUAL_RESULTS))
    odd = data(
        st.dictionaries(
            st.integers(1, 8),
            st.tuples(
                st.sampled_from(ODD_RESULTS),
                st.sampled_from(CONTRACT_CONTEXTS + UNKNOWN_CONTEXTS),
            ),
            max_size=4,
        )
    )
    calls = []

    def rule(position, prior):
        calls.append(position)
        result, ctx = odd.get(position, (usual, None))
        return result(prior, ctx)

    function = AdaptiveFunction(rule, max_context=bound)
    code = GACode(function, lookup)
    expected = _outcome_and_calls(lambda: _reference_encode(function, lookup, text), calls)
    # slices of the view of a bytearray do not hash, so they are checked in full
    for same in (text, bytearray(text), memoryview(text)):
        assert _outcome_and_calls(lambda: ga_encode(code, same), calls) == expected
    assert expected[1] == list(range(1, len(expected[1]) + 1))

    bits = expected[0] if isinstance(expected[0], str) else ""
    bits = bits[: data(st.integers(0, len(bits)))] + data(st.text("01", max_size=4))
    expected = _outcome_and_calls(lambda: _reference_decode(function, lookup, bits), calls)
    assert _outcome_and_calls(lambda: ga_decode(code, bits), calls) == expected
    assert expected[1] == list(range(1, len(expected[1]) + 1))
