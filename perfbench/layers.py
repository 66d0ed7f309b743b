"""Per-layer measurement for the traced run (--trace 1).

Spans are taken from outside the program, around calls into the public
functions of each adacode layer, on the workload's own inputs. A span keeps
its name, start, end, parent span, workload and run id; spans and counts
stay in memory and the caller writes them out when the run ends. The
tracemalloc peaks come from a second pass whose time is never used, so the
spans are timed with tracemalloc off.

Some public calls contain others. For those the outer call's self time is
its span minus a separately timed span of the inner call on the same
inputs: an estimate from outside, reported under a `_self_s` name.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from typing import Callable, Iterator

from adacode import (
    CodeTable,
    PackedBits,
    alphabet_from_bytes,
    build_order1,
    compare_report,
    decode,
    decode_payload,
    eh_positions,
    encode,
    ga_decode,
    ga_encode,
    huffman_rate,
    l_huffman,
    l_not_huffman,
    lookup_from_table,
    pack_bits,
    pair_stats,
    prefix_predicate,
    read_container,
    table_from_text,
    table_to_text,
    unpack_bits,
    write_container,
)

from workloads import Workload

# Per-layer metric -> (end-to-end metrics it should move, workloads where it
# matters most). Later changes cite these names when they predict a gain.
MOVES: dict[str, tuple[str, str]] = {
    "codec.encode_s": ("encode_msym_s stats_msym_s", "repeat16"),
    "codec.encode_peak_mb": ("encode_msym_s stats_msym_s", "repeat16"),
    "codec.decode_s": ("decode_msym_s decode_peak_rss_mb", "repeat16 order2-explicit"),
    "codec.decode_peak_mb": ("decode_msym_s decode_peak_rss_mb", "repeat16 order2-explicit"),
    "codec.decode_iterations": ("decode_msym_s decode_peak_rss_mb", "repeat16 order2-explicit"),
    "codec.prefix_predicate_s": ("decode_msym_s setup_s", "repeat16 order2-explicit"),
    "container.pack_bits_s": ("encode_msym_s", "repeat16"),
    "container.write_container_s": ("encode_msym_s", "repeat16"),
    "container.write_container_self_s": ("encode_msym_s", "order2-explicit"),
    "container.unpack_bits_s": ("decode_msym_s setup_s", "repeat16"),
    "container.read_container_s": ("decode_msym_s setup_s", "order2-explicit"),
    "container.read_container_peak_mb": ("decode_peak_rss_mb setup_s", "order2-explicit"),
    "container.decode_payload_s": ("decode_msym_s setup_s", "repeat16"),
    "container.decode_payload_self_s": ("decode_msym_s setup_s", "repeat16"),
    "container.table_from_text_s": ("encode_msym_s setup_s", "order2-explicit"),
    "core.code_table_s": ("encode_msym_s setup_s", "order2-explicit"),
    "container.header_bytes": ("container_bytes_per_symbol", "repeat16"),
    "container.table_bytes": ("container_bytes_per_symbol", "order2-explicit"),
    "container.payload_bytes": ("container_bytes_per_symbol bits_per_symbol", "repeat16"),
    "container.padding_bits": ("container_bytes_per_symbol", "repeat16"),
    "builder.build_order1_s": ("setup_s", "repeat16"),
    "analysis.compare_report_s": ("stats_msym_s", "repeat16"),
    "analysis.compare_report_self_s": ("stats_msym_s", "repeat16"),
    "analysis.compare_report_peak_mb": ("stats_peak_rss_mb", "repeat16"),
    "analysis.pair_stats_s": ("stats_msym_s", "repeat16"),
    "analysis.eh_positions_s": ("stats_msym_s", "repeat16"),
    "analysis.l_not_huffman_s": ("stats_msym_s", "repeat16"),
    "analysis.l_huffman_s": ("stats_msym_s", "repeat16"),
    "analysis.huffman_rate_s": ("stats_msym_s", "repeat16"),
    "ga.lookup_from_table_s": ("setup_s", "ga-skip2"),
    "ga.ga_encode_s": ("ga_encode_msym_s", "ga-skip2"),
    "ga.ga_decode_s": ("ga_decode_msym_s", "ga-skip2"),
    "ga.ga_decode_peak_mb": ("ga_decode_msym_s", "ga-skip2"),
    "cli.encode.cpu_s": ("encode_msym_s", "repeat16 order2-explicit"),
    "cli.decode.cpu_s": ("decode_msym_s", "repeat16 order2-explicit"),
    "cli.stats.cpu_s": ("stats_msym_s", "repeat16 order2-explicit"),
    "cli.encode.overhead_s": ("encode_msym_s", "repeat16 order2-explicit"),
    "cli.decode.overhead_s": ("decode_msym_s", "repeat16 order2-explicit"),
    "cli.stats.overhead_s": ("stats_msym_s", "repeat16 order2-explicit"),
    "trace.spans": ("none: cost of tracing itself", "all"),
    "trace.overhead_s": ("none: cost of tracing itself", "all"),
}

# Fixed container header fields before the table (see container.py):
# magic 4, version 1, order 1, h 2, alphabet h, symbol count 8, mode 1.
_HEADER_FIXED_BYTES = 17


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "run_id": self.run_id,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            record["start"] = start - self._t0
            record["end"] = end - self._t0

    def seconds(self, name: str) -> float:
        """Total duration of the spans with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def span_cost_s(samples: int = 2000) -> float:
    """Measured cost of opening and closing one empty span."""
    tracer = Tracer("calibration", "calibration")
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - start) / samples


def trace_layers(w: Workload, tracer: Tracer, check: Callable[[str, bool], None]) -> dict:
    """One pass over every layer's public calls, each inside a span, in the
    order the CLI makes them. Every output that has a reference goes through
    check(name, ok). Returns the inputs the memory pass reuses."""
    data, n, table = w.data, len(w.data), w.table
    span = tracer.span
    text = w.table_text if w.table_text is not None else table_to_text(table)
    alphabet = alphabet_from_bytes(data)

    with span("phase.encode"):
        with span("container.table_from_text"):
            parsed = table_from_text(text)
        with span("core.code_table"):
            CodeTable(alphabet=parsed.alphabet, order=parsed.order, rows=parsed.rows)
        with span("builder.build_order1"):
            order1 = build_order1(alphabet)
        with span("codec.encode"):
            bits = encode(table, data)
        with span("container.pack_bits"):
            packed = pack_bits(bits)
        with span("container.write_container"):
            blob = write_container(table, n, bits)
    check("table_from_text matches the workload table", parsed == table)
    header = _HEADER_FIXED_BYTES + table.alphabet.size
    payload = len(packed.data)
    tracer.counts["container.header_bytes"] = header
    tracer.counts["container.table_bytes"] = len(blob) - header - payload
    tracer.counts["container.payload_bytes"] = payload
    tracer.counts["container.padding_bits"] = 8 * payload - len(bits)

    with span("phase.decode"):
        with span("container.read_container"):
            content = read_container(blob)
        with span("container.unpack_bits"):
            unpack_bits(PackedBits(packed.data, 8 * payload))
        with span("codec.prefix_predicate"):
            prefix_ok = prefix_predicate(content.table)
        with span("codec.decode"):
            trace = decode(content.table, content.payload_bits, max_symbols=n)
        with span("container.decode_payload"):
            restored = decode_payload(content.table, content.payload_bits, n)
    tracer.counts["codec.decode_iterations"] = trace.iterations
    check("prefix_predicate holds", prefix_ok)
    check("decode returns the input", trace.output == data)
    check("decode_payload returns the input", restored == data)

    with span("phase.stats"):
        with span("analysis.compare_report"):
            report = compare_report(data, order1)
        with span("analysis.encode"):
            stats_bits = encode(order1, data)
        with span("analysis.pair_stats"):
            pair_stats(data)
        with span("analysis.eh_positions"):
            eh_positions(data)
        with span("analysis.l_not_huffman"):
            l_not_huffman(data, order1)
        with span("analysis.l_huffman"):
            l_huffman(data)
        with span("analysis.huffman_rate"):
            huffman_rate(data)
    check("compare_report counts the encoded bits", report.encoded_bits == len(stats_bits))

    with span("phase.ga"):
        with span("ga.lookup_from_table"):
            lookup_from_table(table)
        with span("ga.ga_encode"):
            ga_bits = ga_encode(w.ga_code, w.ga_data)
        with span("ga.ga_decode"):
            ga_out = ga_decode(w.ga_code, ga_bits)
    check("ga_decode returns the input", ga_out == w.ga_data)
    return {"blob": blob, "content": content, "order1": order1, "ga_bits": ga_bits}


def _peak_mb(call: Callable[[], object]) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def memory_peaks(w: Workload, reused: dict) -> dict[str, float]:
    """tracemalloc peak of each call, in MB allocated during the call."""
    content, n = reused["content"], len(w.data)
    return {
        "codec.encode_peak_mb": _peak_mb(lambda: encode(w.table, w.data)),
        "codec.decode_peak_mb": _peak_mb(
            lambda: decode(content.table, content.payload_bits, max_symbols=n)
        ),
        "container.read_container_peak_mb": _peak_mb(lambda: read_container(reused["blob"])),
        "analysis.compare_report_peak_mb": _peak_mb(
            lambda: compare_report(w.data, reused["order1"])
        ),
        "ga.ga_decode_peak_mb": _peak_mb(lambda: ga_decode(w.ga_code, reused["ga_bits"])),
    }


def layer_metrics(
    tracer: Tracer,
    peaks: dict[str, float],
    cli_medians: dict[str, dict[str, float]],
    explicit_table: bool,
    per_span_s: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    cli_medians maps encode/decode/stats to the median wall_s and cpu_s of
    that CLI leg. A CLI leg's overhead is its wall time minus the in-process
    spans of the same steps: start-up, imports, argument parsing and I/O.
    """
    s = tracer.seconds
    metrics = {
        "codec.encode_s": s("codec.encode"),
        "codec.decode_s": s("codec.decode"),
        "codec.prefix_predicate_s": s("codec.prefix_predicate"),
        "container.pack_bits_s": s("container.pack_bits"),
        "container.write_container_s": s("container.write_container"),
        "container.write_container_self_s": s("container.write_container")
        - s("container.pack_bits"),
        "container.unpack_bits_s": s("container.unpack_bits"),
        "container.read_container_s": s("container.read_container"),
        "container.decode_payload_s": s("container.decode_payload"),
        "container.decode_payload_self_s": s("container.decode_payload") - s("codec.decode"),
        "container.table_from_text_s": s("container.table_from_text"),
        "core.code_table_s": s("core.code_table"),
        "builder.build_order1_s": s("builder.build_order1"),
        "analysis.compare_report_s": s("analysis.compare_report"),
        "analysis.compare_report_self_s": s("analysis.compare_report")
        - s("analysis.encode")
        - s("analysis.pair_stats"),
        "analysis.pair_stats_s": s("analysis.pair_stats"),
        "analysis.eh_positions_s": s("analysis.eh_positions"),
        "analysis.l_not_huffman_s": s("analysis.l_not_huffman"),
        "analysis.l_huffman_s": s("analysis.l_huffman"),
        "analysis.huffman_rate_s": s("analysis.huffman_rate"),
        "ga.lookup_from_table_s": s("ga.lookup_from_table"),
        "ga.ga_encode_s": s("ga.ga_encode"),
        "ga.ga_decode_s": s("ga.ga_decode"),
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": len(tracer.spans) * per_span_s,
    }
    metrics.update(tracer.counts)
    metrics.update(peaks)
    table_step = "container.table_from_text" if explicit_table else "builder.build_order1"
    in_process = {
        "encode": s(table_step) + s("codec.encode") + s("container.write_container"),
        "decode": s("container.read_container") + s("container.decode_payload"),
        "stats": s("builder.build_order1") + s("analysis.compare_report"),
    }
    for leg, steps_s in in_process.items():
        metrics[f"cli.{leg}.cpu_s"] = cli_medians[leg]["cpu_s"]
        metrics[f"cli.{leg}.overhead_s"] = cli_medians[leg]["wall_s"] - steps_s
    return metrics
