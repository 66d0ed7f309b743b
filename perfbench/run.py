"""Seeded benchmark of the adacode CLI and its layers.

Run from the repository root:

    python3 perfbench/run.py --workload repeat16 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --quick

One run generates its workload from --seed, then drives the CLI closed loop,
one child process at a time, in cycles of set-up, encode, decode and stats
legs plus the in-process GA legs, until --seconds have passed since it
started (at least three cycles). Every leg is checked: decode must return
the input byte for byte, encode must write exactly the container an
in-process write_container gives, stats must count exactly the library's
bits, and ga_decode must return its input. A failed check or a nonzero exit
counts as a failed operation.

--trace 0 prints the end-to-end metrics, medians over each leg's samples.
Their times are scaled to the host's speed at the moment of each sample
(see reference_s); the record keeps the raw wall times next to them, and
the CPU seconds of every child, so a host stall can be told apart from
slower code. --trace 1 runs the same legs after one traced in-process pass over every
layer (see layers.py) and prints the per-layer metrics instead. The last
line of standard output is the result as JSON; a record with the samples,
sample counts, quartiles, provenance, reference sizes and spans goes to
.perfbench_out/. --quick runs every workload at a small size in both modes,
with every check and no timing judgement, and exits nonzero on any failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "adacode" / "__init__.py").is_file():
    sys.exit(f"perfbench: no adacode sources at {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

from adacode import (  # noqa: E402
    AdaptiveCodeError,
    alphabet_from_bytes,
    build_order1,
    encode,
    ga_decode,
    ga_encode,
    write_container,
)

import layers  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
MIN_CYCLES = 3
MAX_CYCLES = 100
# Within a cycle a leg repeats until it has run this long, so that short
# legs collect as many samples as long ones.
LEG_MIN_S = 1.0
# A run must end within 180 s; no child or cycle starts past this point.
HARD_LIMIT_S = 150.0
CLI_LEGS = ("encode", "decode", "stats")
# Scaled times read as if reference_s() took this long: about its median on
# the 2-vCPU Xeon host the benchmark was tuned on, so that scaled times read
# close to typical wall times there.
REFERENCE_NOMINAL_S = 0.016


def reference_s() -> float:
    """Time of a fixed pure-Python loop: a gauge of the host's speed now.

    On a shared host the same work can take 1.5x longer from one second to
    the next, and whole runs drift by 50%. Every sample is bracketed by two
    of these, and its scaled time is its wall time times REFERENCE_NOMINAL_S
    over the faster of the two. The loop mixes the two costs of adacode's
    own loops: interpreter dispatch over dicts and lists, and memory traffic
    from copying tuple slices (the GA layer's main cost).
    """
    start = time.perf_counter()
    words = {i: format(i, "b") for i in range(256)}
    out = []
    for i in range(75_000):
        out.append(words[(i * 7919) & 255])
    "".join(out)
    block = tuple(range(20_000))
    for k in range(0, 20_000, 100):
        block[:k]
    return time.perf_counter() - start


class Launcher:
    """The launcher.py process, which starts each child and measures it."""

    def __init__(self, env: dict):
        script = Path(__file__).with_name("launcher.py")
        self._proc = subprocess.Popen(
            [sys.executable, str(script)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], stderr_path: Path, timeout_s: float) -> dict:
        """Run one child to completion: its wall_s, cpu_s, peak_rss_mb, exit_code."""
        request = {"argv": argv, "stderr": str(stderr_path), "timeout_s": timeout_s}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self._proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class Bench:
    """One workload's legs, their samples and their checks."""

    def __init__(
        self, w: workloads.Workload, workdir: Path, launcher: Launcher, hard_deadline: float, leg_min_s: float
    ):
        self.w = w
        self.t0 = time.perf_counter()
        self.leg_min_s = leg_min_s
        self.dir = workdir
        self.launcher = launcher
        self.hard_deadline = hard_deadline
        self.samples: dict[str, list[dict]] = {}
        self.attempted = 0
        self.failures: list[str] = []

        data = w.data
        self.bits = encode(w.table, data)
        self.blob = write_container(w.table, len(data), self.bits)
        order1 = build_order1(alphabet_from_bytes(data))
        self.stats_bits = len(self.bits if order1 == w.table else encode(order1, data))
        if w.name == "ga-skip2":
            self.ga_reference = None
        else:
            # The GA code of a CLI workload is the table's own order-n rule,
            # so it must emit exactly the table encoder's bits.
            self.ga_reference = encode(w.table, w.ga_data)
        self.ga_bits = 0

        self.corpus = self._write("corpus.bin", data)
        self.reference = self._write("reference.adc", self.blob)
        self.empty = self._write("empty.adc", write_container(w.table, 0, ""))
        if w.table_text is None:
            self.table_args = ["--builder"]
        else:
            self.table_args = ["--table", str(self._write("table.txt", w.table_text.encode()))]

    def _write(self, name: str, payload: bytes) -> Path:
        path = self.dir / name
        path.write_bytes(payload)
        return path

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def _child(self, leg: str, argv: list[str], output: Path | None) -> dict:
        if output is not None:
            output.unlink(missing_ok=True)
        timeout = max(1.0, self.hard_deadline - time.perf_counter())
        return self._timed(leg, lambda: self.launcher.run(argv, self.dir / f"{leg}.stderr", timeout))

    def _in_process(self, leg: str, call: Callable[[], Any]) -> Any:
        result = None

        def measure() -> dict:
            nonlocal result
            wall, cpu = time.perf_counter(), time.process_time()
            result = call()
            return {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu}

        self._timed(leg, measure)
        return result

    def _timed(self, leg: str, measure: Callable[[], dict]) -> dict:
        """One sample of a leg, bracketed by host speed references."""
        before = reference_s()
        start = time.perf_counter()
        sample = measure()
        reference = min(before, reference_s())
        sample["start_s"] = start - self.t0
        sample["reference_s"] = reference
        sample["scaled_s"] = sample["wall_s"] * REFERENCE_NOMINAL_S / reference
        self.samples.setdefault(leg, []).append(sample)
        return sample

    def _cli(self, leg: str, args: list[str], output: Path) -> dict:
        argv = [sys.executable, "-m", "adacode.cli", *args, "--out", str(output)]
        return self._child(leg, argv, output)

    def _exit_ok(self, leg: str, child: dict) -> bool:
        if child["exit_code"] == 0:
            return True
        err = (self.dir / f"{leg}.stderr").read_text(errors="replace").strip()
        self.check(f"{leg} exited {child['exit_code']}: {err[-300:]}", False)
        return False

    def setup_leg(self) -> None:
        if self.w.name == "ga-skip2":
            script = Path(__file__).with_name("skip2.py")
            argv = [sys.executable, str(script), self.w.info["alphabet_hex"]]
            child = self._child("setup", argv, None)
            if self._exit_ok("setup", child):
                self.check("GA set-up child exits 0", True)
            return
        out = self.dir / "setup.out"
        child = self._cli("setup", ["decode", str(self.empty)], out)
        if self._exit_ok("setup", child):
            self.check("setup decodes an empty container to no bytes", out.read_bytes() == b"")

    def encode_leg(self) -> None:
        out = self.dir / "run.adc"
        child = self._cli("encode", ["encode", str(self.corpus), *self.table_args], out)
        if self._exit_ok("encode", child):
            self.check("CLI container equals write_container", out.read_bytes() == self.blob)

    def decode_leg(self) -> None:
        out = self.dir / "run.out"
        child = self._cli("decode", ["decode", str(self.reference)], out)
        if self._exit_ok("decode", child):
            self.check("CLI decode returns the input", out.read_bytes() == self.w.data)

    def stats_leg(self) -> None:
        out = self.dir / "run.csv"
        child = self._cli("stats", ["stats", str(self.corpus), "--csv"], out)
        if self._exit_ok("stats", child):
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            counted = rows[0].get("adaptive_bits") if len(rows) == 1 else None
            self.check("stats adaptive_bits equals the library count", counted == str(self.stats_bits))

    def ga_legs(self) -> None:
        code, data = self.w.ga_code, self.w.ga_data
        try:
            bits = self._in_process("ga_encode", lambda: ga_encode(code, data))
            out = self._in_process("ga_decode", lambda: ga_decode(code, bits))
        except AdaptiveCodeError as exc:
            self.check(f"GA legs raised {exc!r}", False)
            return
        self.ga_bits = len(bits)
        self.check("ga_encode matches the table encoder", self.ga_reference in (None, bits))
        self.check("ga_decode returns the input", out == data)

    def cycle(self) -> None:
        for leg in (self.setup_leg, self.encode_leg, self.decode_leg, self.stats_leg, self.ga_legs):
            start = time.perf_counter()
            leg()
            while time.perf_counter() - start < self.leg_min_s and time.perf_counter() < self.hard_deadline:
                leg()

    def run_cycles(self, deadline: float, min_cycles: int) -> None:
        """Closed loop: cycle until the next cycle would end past deadline."""
        durations: list[float] = []
        while len(durations) < MAX_CYCLES:
            start = time.perf_counter()
            self.cycle()
            end = time.perf_counter()
            durations.append(end - start)
            expected_end = end + statistics.median(durations)
            if expected_end > self.hard_deadline:
                break
            if len(durations) >= min_cycles and expected_end > deadline:
                break

    def median(self, leg: str, key: str) -> float:
        return statistics.median(s[key] for s in self.samples[leg])

    def end_to_end(self, time_key: str = "scaled_s") -> dict[str, float]:
        n, g = len(self.w.data), len(self.w.ga_data)
        coded = self.ga_bits if self.w.name == "ga-skip2" else len(self.bits)
        metrics = {
            f"{leg}_msym_s": n / self.median(leg, time_key) / 1e6 for leg in CLI_LEGS
        } | {
            f"{leg}_msym_s": g / self.median(leg, time_key) / 1e6 for leg in ("ga_encode", "ga_decode")
        } | {
            f"{leg}_peak_rss_mb": self.median(leg, "peak_rss_mb") for leg in CLI_LEGS
        }
        metrics["setup_s"] = self.median("setup", time_key)
        metrics["bits_per_symbol"] = coded / n
        metrics["container_bytes_per_symbol"] = len(self.blob) / n
        metrics["success_rate"] = 1 - len(self.failures) / self.attempted
        return metrics

    def summary(self) -> dict:
        """Per leg: sample count, median and quartiles of each measure."""
        out = {}
        for leg, samples in self.samples.items():
            out[leg] = {"samples": len(samples)}
            for key in ("scaled_s", "wall_s", "reference_s", "cpu_s", "peak_rss_mb"):
                if key not in samples[0]:
                    continue
                values = [s[key] for s in samples]
                quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                out[leg][key] = {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2]}
        return out


def provenance() -> dict:
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        top = sha = None
    if top is None or Path(top).resolve() != ROOT:
        sha = None  # not a checkout of its own, or inside another repository
    digest = hashlib.sha256()
    for path in sorted((SRC / "adacode").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def select(spec: dict, section: str, computed: dict[str, float]) -> dict:
    """The metrics BENCHMARK.json lists in one section, with their units."""
    names = [m["name"] for m in spec[section]]
    missing = sorted(set(names) - set(computed))
    extra = sorted(set(computed) - set(names))
    if missing or extra:
        raise RuntimeError(f"{section} mismatch: missing {missing}, unlisted {extra}")
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in spec[section]}


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One benchmark run; returns the result line and writes the record."""
    start = time.perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = workloads.build(name, seed, quick)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    launcher = Launcher(dict(os.environ, PYTHONPATH=str(SRC)))
    try:
        bench = Bench(w, workdir, launcher, start + HARD_LIMIT_S, 0.0 if quick else LEG_MIN_S)
        min_cycles = 1 if quick or trace else MIN_CYCLES
        record: dict = {
            "workload": name,
            "trace": trace,
            "quick": quick,
            "provenance": provenance(),
            "inputs": w.info,
        }
        if trace:
            tracer = layers.Tracer(name, f"{name}/seed={seed}/trace")
            reused = layers.trace_layers(w, tracer, bench.check)
            peaks = layers.memory_peaks(w, reused)
            bench.run_cycles(start + seconds, min_cycles)
            cli = {leg: {k: bench.median(leg, k) for k in ("wall_s", "cpu_s")} for leg in CLI_LEGS}
            computed = layers.layer_metrics(
                tracer, peaks, cli, w.table_text is not None, layers.span_cost_s()
            )
            metrics = select(spec, "per_layer", computed)
            record["moves"] = {k: dict(zip(("moves", "mainly_on"), v)) for k, v in layers.MOVES.items()}
            record["spans"] = tracer.spans
            record["end_to_end_while_traced"] = bench.end_to_end()
        else:
            bench.run_cycles(start + seconds, min_cycles)
            metrics = select(spec, "end_to_end", bench.end_to_end())
            record["end_to_end_wall"] = bench.end_to_end("wall_s")
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }
    record.update(
        legs=bench.summary(),
        samples=bench.samples,
        failures=bench.failures,
        wall_s=time.perf_counter() - start,
        result=result,
    )
    OUT_DIR.mkdir(exist_ok=True)
    mode = ("quick-" if quick else "") + f"trace{int(trace)}"
    (OUT_DIR / f"{name}-seed{seed}-{mode}.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, every workload and mode")
    args = parser.parse_args(argv)
    if args.quick:
        all_correct = True
        for name in [args.workload] if args.workload else workloads.NAMES:
            for trace in (False, True):
                result = run(name, args.seed, 0.0, trace, quick=True)
                all_correct &= result["correct"]
                print(json.dumps({"workload": name, "trace": int(trace), **result}))
        return 0 if all_correct else 1
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), quick=False)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
