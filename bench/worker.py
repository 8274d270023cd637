"""Run one workload in this process and print its result as one JSON line.

Usage: python3 bench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

``run.py`` starts one worker per workload, so the worker's peak resident
memory belongs to that workload alone. The worker imports the package,
makes one warm-up call, prints ``READY`` (the end of set-up; on ``cli_cold``
followed by the warm-up invocation's wall time in seconds) and then, unless
``--setup-only``, runs rounds of calls for SECONDS seconds:

* TRACE 0: the timed run. Every call is timed; checks are not. Every
  SEGMENT_NS of call time the workload's reference kernel is timed too
  (``hostspeed``), and each call's wall time is scaled by the kernel's
  nominal time over its mean time just before and just after the call's
  segment. The metrics are of the scaled times; the wall-time metrics are
  given beside them, under ``unscaled``.
* TRACE 1: the traced run. Each round runs once untimed-by-layer and once
  with every layer wrapped; per-layer metrics are given per round.
"""

from __future__ import annotations

import array
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import hostspeed
import workloads
from spans import LAYERS, ROOT, Tracer

ROOT_DIR = Path(__file__).resolve().parent.parent
SPAN_CAP = 200_000  # stop starting traced rounds beyond this many spans
FLOOR_SPAWNS = 5
MAX_REPORTED_FAILURES = 5
SEGMENT_NS = 250_000_000  # call time between two runs of the reference kernel


class Tally:
    """Calls attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op: workloads.Op, result) -> bool:
        self.attempted += 1
        try:
            if isinstance(result, Exception):
                raise result
            op.check(result)
            return True
        except Exception as exc:  # any failure of a call or its check is counted
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"check failed: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return False


def timed_run(workload, seconds: float, cli: bool) -> dict:
    tally = Tally()
    kind = workload.REFERENCE
    wall_ns = array.array("q")  # flat, so the lists add little to peak memory
    scaled_ns = array.array("d")
    kernel_ns = array.array("q")
    segment = array.array("q")  # wall times of the calls since the last kernel run
    segment_ns = 0
    kernel_ns.append(hostspeed.kernel_ns(kind))

    def close_segment():
        kernel_ns.append(hostspeed.kernel_ns(kind))
        scale = hostspeed.NOMINAL_NS[kind] / ((kernel_ns[-2] + kernel_ns[-1]) / 2)
        scaled_ns.extend(ns * scale for ns in segment)
        wall_ns.extend(segment)
        del segment[:]

    work = 0
    deadline = time.perf_counter() + seconds
    r = 0
    while time.perf_counter() < deadline:
        for op in workload.round_ops(r):
            start = time.perf_counter_ns()
            try:
                result = op.call()
            except Exception as exc:  # a failed call, counted below
                result = exc
            ns = time.perf_counter_ns() - start
            segment.append(ns)
            segment_ns += ns
            if tally.record(op, result):
                work += op.work
            if segment_ns >= SEGMENT_NS:
                close_segment()
                segment_ns = 0
            if time.perf_counter() >= deadline:
                break
        r += 1
    if segment:
        close_segment()
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    n = len(wall_ns)

    def timings(latencies_ns) -> dict:
        latencies_ms = [ns / 1e6 for ns in latencies_ns]
        return {
            "work_per_s": (work / (sum(latencies_ns) / 1e9), "1/s", n),
            "call_ms.p50": (statistics.median(latencies_ms), "ms", n),
            "call_ms.p90": (statistics.quantiles(latencies_ms, n=10)[8], "ms", n),
        }

    unscaled = timings(wall_ns)
    unscaled["reference_kernel_ms"] = (statistics.median(kernel_ns) / 1e6, "ms",
                                       len(kernel_ns))
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            **timings(scaled_ns),
            "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024.0, "MiB", 1),
            "pass_rate": ((tally.attempted - tally.failed) / tally.attempted, "ratio",
                          tally.attempted),
        },
        "unscaled": unscaled,
    }


def _spawn_ms(code: str) -> float:
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, timeout=60)
    return (time.perf_counter_ns() - start) / 1e6


def import_floors() -> dict:
    """Fresh-interpreter import costs, medians of FLOOR_SPAWNS spawns each.

    ``import.numpy_floor_ms`` is the extra wall time of ``import numpy`` over a
    bare interpreter; ``import.package_ms`` times ``import bellwigner.cli``
    inside a fresh process that has already imported numpy.
    """
    bare = statistics.median(_spawn_ms("pass") for _ in range(FLOOR_SPAWNS))
    with_numpy = statistics.median(_spawn_ms("import numpy") for _ in range(FLOOR_SPAWNS))
    probe = ("import time, numpy; t = time.perf_counter_ns(); import bellwigner.cli; "
             "print(time.perf_counter_ns() - t)")
    package = statistics.median(
        int(subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                           timeout=60).stdout) / 1e6
        for _ in range(FLOOR_SPAWNS))
    return {
        "import.python_floor_ms": (bare, "ms", FLOOR_SPAWNS),
        "import.numpy_floor_ms": (with_numpy - bare, "ms", FLOOR_SPAWNS),
        "import.package_ms": (package, "ms", FLOOR_SPAWNS),
    }


def _same(a, b) -> bool:
    if isinstance(a, subprocess.CompletedProcess):
        return (a.returncode, a.stdout, a.stderr) == (b.returncode, b.stdout, b.stderr)
    return a == b


def traced_run(workload, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes over the same rounds."""
    tally = Tally()
    tracer = Tracer()
    floors = import_floors()
    untraced_ns = 0
    distinct_tables = 0
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or (time.perf_counter() < deadline and len(tracer.spans) < SPAN_CAP):
        ops = workload.round_ops(rounds)
        plain = []
        for op in ops:
            start = time.perf_counter_ns()
            try:
                plain.append(op.call())
            except Exception as exc:  # a failed call, counted below
                plain.append(exc)
            untraced_ns += time.perf_counter_ns() - start
        tracer.joint_keys.clear()
        traced = workload.traced_round(ops, tracer)
        distinct_tables += len(tracer.joint_keys)
        for op, a, b in zip(ops, plain, traced):
            if tally.record(op, b) and not _same(a, b):
                tally.failed += 1
                print(f"check failed: {op.name}: traced result differs", file=sys.stderr)
        rounds += 1
    tracer.write(spans_path)

    self_ns = tracer.self_times_ns()
    calls = tracer.layer_calls()
    counts = tracer.counts
    traced_ns = sum(end - start for layer, start, end, parent in tracer.spans if parent < 0)
    wall_ms = traced_ns / 1e6 / rounds
    unattributed_ms = self_ns[ROOT] / 1e6 / rounds
    errors = tracer.nesting_errors()
    errors += [f"span of unknown layer {layer!r}" for layer in self_ns
               if layer not in LAYERS and layer != ROOT]
    if errors:
        tally.failed += 1
        print(f"check failed: trace: {len(errors)} errors, first: {errors[0]}",
              file=sys.stderr)
    distinct_tables += counts["chsh.tables_distinct"]
    tables = counts["chsh.tables_built"]
    expectations = counts["linalg.expectations"]

    def per_round(value, unit):
        return (value / rounds, unit, rounds)

    metrics = dict(floors)
    metrics.update({
        "import.self_ms": per_round(self_ns["import"] / 1e6, "ms"),
        "cli.self_ms": per_round(self_ns["cli"] / 1e6, "ms"),
        "cli.calls": per_round(counts["cli.calls"], "count"),
        "states.self_us": per_round(self_ns["states"] / 1e3, "us"),
        "states.calls": per_round(calls["states"], "count"),
        "linalg.self_us": per_round(self_ns["linalg"] / 1e3, "us"),
        "linalg.calls": per_round(calls["linalg"], "count"),
        "linalg.hermitian_checks_per_expectation": (
            counts["linalg.hermitian_checks"] / expectations if expectations else 0.0,
            "ratio", expectations),
        "observables.self_us": per_round(self_ns["observables"] / 1e3, "us"),
        "observables.calls": per_round(calls["observables"], "count"),
        "chsh.exact.self_us": per_round(self_ns["chsh.exact"] / 1e3, "us"),
        "chsh.joint.self_us": per_round(self_ns["chsh.joint"] / 1e3, "us"),
        "chsh.table_reuse_ratio": (distinct_tables / tables if tables else 0.0, "ratio", tables),
        "chsh.sample.self_ms": per_round(self_ns["chsh.sample"] / 1e6, "ms"),
        "chsh.samples_drawn": per_round(counts["chsh.samples_drawn"], "count"),
        "chsh.sample_bytes_computed": per_round(counts["chsh.sample_bytes_computed"], "bytes"),
        "chsh.report.self_us": per_round(self_ns["chsh.report"] / 1e3, "us"),
        "interpretations.ensemble.self_us":
            per_round(self_ns["interpretations.ensemble"] / 1e3, "us"),
        "interpretations.agreement.self_ms":
            per_round(self_ns["interpretations.agreement"] / 1e6, "ms"),
        "interpretations.grw.self_ms": per_round(self_ns["interpretations.grw"] / 1e6, "ms"),
        "interpretations.grw.trials_drawn":
            per_round(counts["interpretations.grw.trials_drawn"], "count"),
        "trace.overhead_ratio": (traced_ns / untraced_ns, "ratio", rounds),
        "trace.unattributed_ms": (unattributed_ms, "ms", rounds),
        "trace.wall_ms": (wall_ms, "ms", rounds),
    })
    return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main() -> int:
    name, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    spans_dir = ROOT_DIR / ".bench_build" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(name, seed, ROOT_DIR, spans_dir)
    warmup = workload.round_ops(workloads.WARMUP_ROUND)[0]
    start = time.perf_counter()
    result = warmup.call()
    call_s = time.perf_counter() - start
    if not Tally().record(warmup, result):
        return 1
    # The CLI's set-up is its own start-up: the warm-up invocation's wall time.
    print(f"READY {call_s!r}" if name == "cli_cold" else "READY", flush=True)
    if sys.argv[5:] == ["--setup-only"]:
        return 0
    if trace == "1":
        result = traced_run(workload, seconds, spans_dir / f"{name}-seed{seed}.jsonl")
    else:
        result = timed_run(workload, seconds, cli=name == "cli_cold")
    result["numpy_version"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
