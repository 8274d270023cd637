"""The bellwigner benchmark: end-to-end and per-layer metrics of three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {cli_cold,many_small,few_large,all}
                         --seed N --seconds S --trace {0,1}

Each workload runs in its own worker process (``worker.py``). With
``--trace 0`` the run is timed and reports the end-to-end metrics; with
``--trace 1`` a separate traced run reports the per-layer metrics. Every
call's output is checked against an independent reference. The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``). The lines before it give every
metric with its sample count, and the run's provenance.

Set-up time (``setup_s``) is the median over SETUP_SPAWNS fresh workers of
the wall time from spawning the worker until it has imported the package
and made one warm-up call; on ``cli_cold`` it is the wall time of each
worker's warm-up invocation, from spawning the CLI process until it exits.
The package and the benchmark are byte-compiled first, so no measured spawn
pays for compiling them.

The benchmark pins itself and every process it starts to one CPU, and
scales its timings to a nominal host speed measured by a fixed kernel
(``hostspeed``); each set-up time is scaled by the kernel's mean time just
before and just after its spawn. The unscaled wall times are printed
beside the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
WORKLOADS = ("cli_cold", "many_small", "few_large")
SETUP_SPAWNS = 7
SETUP_KERNEL = "small_ops"  # set-up is interpreter start and imports
READY_TIMEOUT_S = 60
RUN_GRACE_S = 120
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT_DIR / "src")
    env.pop("BELLWIGNER_SEED", None)  # every seeded call passes --seed itself
    return env


def build(env: dict) -> None:
    """Byte-compile the package and the benchmark: the Python 'build'."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT_DIR / "src"),
                    str(BENCH_DIR)], env=env, check=True, timeout=120)


def spawn_worker(name: str, seed: int, seconds: int, trace: int, env: dict,
                 setup_only: bool) -> tuple[float, str]:
    """Start a worker; return (its set-up time in seconds, the rest of its stdout).

    The set-up time is the time until the worker prints READY, or the time
    the worker gives after READY (on ``cli_cold``, one CLI invocation's).
    """
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), name, str(seed), str(seconds),
            str(trace)] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT_DIR, text=True)
    timer = threading.Timer(READY_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
    finally:
        timer.cancel()
    try:
        rest, _ = proc.communicate(timeout=seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: {name} worker did not finish")
    words = line.split()
    if words[:1] != ["READY"] or proc.returncode != 0:
        raise SystemExit(f"error: {name} worker failed (exit {proc.returncode})")
    return (float(words[1]) if len(words) > 1 else ready), rest


def run_workload(name: str, seed: int, seconds: int, trace: int, env: dict) -> dict:
    wall, scaled = [], []
    if not trace:
        before = hostspeed.kernel_ns(SETUP_KERNEL)
        for _ in range(SETUP_SPAWNS):
            wall.append(spawn_worker(name, seed, seconds, trace, env, setup_only=True)[0])
            after = hostspeed.kernel_ns(SETUP_KERNEL)
            scaled.append(wall[-1] * hostspeed.NOMINAL_NS[SETUP_KERNEL] / ((before + after) / 2))
            before = after
    out = spawn_worker(name, seed, seconds, trace, env, setup_only=False)[1]
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        result["metrics"]["setup_s"] = (statistics.median(scaled), "s", len(scaled))
        result["unscaled"]["setup_s"] = (statistics.median(wall), "s", len(wall))
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    if (ROOT_DIR / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT_DIR,
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "unknown (not a git checkout)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT_DIR / "src" / "bellwigner" / "__init__.py").is_file():
        print(f"error: no bellwigner package under {ROOT_DIR / 'src'}", file=sys.stderr)
        return 2

    cpu = hostspeed.pin_to_one_cpu()
    env = child_env()
    build(env)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace, env)
               for name in names}

    meta = {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "pinned_cpu": cpu, "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": next(iter(results.values())).pop("numpy_version"),
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "git_commit": git_commit(),
    }
    metrics = {}
    for name, result in results.items():
        result.pop("numpy_version", None)
        for metric, (value, unit, n) in sorted(result["metrics"].items()):
            print(f"{name:<10} {metric:<40} {value:>16.6g} {unit:<6} n={n}")
            key = metric if len(results) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        for metric, (value, unit, n) in sorted(result.pop("unscaled", {}).items()):
            print(f"{name:<10} {'unscaled.' + metric:<40} {value:>16.6g} {unit:<6} n={n}")
    print(json.dumps({"meta": meta, "workloads": list(results)}))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
