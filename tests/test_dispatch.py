"""Every golden output has the same bytes under each BLAS kernel and SIMD level.

OpenBLAS picks a kernel for the CPU when it loads, and ``OPENBLAS_CORETYPE``
forces one for a process; ``NPY_DISABLE_CPU_FEATURES`` turns numpy's
dispatched SIMD loops off. Kernels differ in summation order and in their use
of fused multiply-adds, so an output computed through BLAS can change its last
bits from one CPU to another and, through the multinomial, whole sampled
draws. Each subprocess here runs every golden argv through ``main`` in process
and prints the files whose bytes differ from ``tests/golden``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"
# each forced kernel with the /proc/cpuinfo flag it needs: a kernel that the
# CPU lacks dies with an illegal instruction
KERNELS = {
    "SkylakeX": "avx512f",
    "Haswell": "avx2",
    "Zen": "avx2",
    "SandyBridge": "avx",
    "Nehalem": "sse4_2",
    "Prescott": "pni",
}
NO_SIMD = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"
CHILD = """
from test_golden import GOLDEN_DIR, golden_cases, run_stdout

for filename, argv in golden_cases():
    if run_stdout(argv) != (0, (GOLDEN_DIR / filename).read_bytes()):
        print(filename)
"""
TIMEOUT_S = 60


def cpu_flags() -> set[str]:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return next((set(line.partition(":")[2].split())
                 for line in lines if line.startswith("flags")), set())


def blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 has no dict mode
        return ""
    return config["Build Dependencies"]["blas"]["name"]


def test_golden_bytes_are_the_same_under_every_blas_kernel_and_simd_level():
    if "openblas" not in blas_name().lower():
        pytest.skip(f"numpy's BLAS is {blas_name() or 'unknown'}, not OpenBLAS")
    flags = cpu_flags()
    runs = {f"OPENBLAS_CORETYPE={kernel}": {"OPENBLAS_CORETYPE": kernel}
            for kernel, flag in KERNELS.items() if flag in flags}
    if not runs:
        pytest.skip("/proc/cpuinfo lists none of the x86 flags the OpenBLAS kernels need")
    runs[f"NPY_DISABLE_CPU_FEATURES={NO_SIMD}"] = {"NPY_DISABLE_CPU_FEATURES": NO_SIMD}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (SRC_DIR, TESTS_DIR))),
           "OPENBLAS_NUM_THREADS": "1"}
    # started together: each takes ~0.8 s
    procs = {name: subprocess.Popen([sys.executable, "-c", CHILD], env={**env, **extra},
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for name, extra in runs.items()}
    try:
        outputs = {name: proc.communicate(timeout=TIMEOUT_S) for name, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    failures = {name: (procs[name].returncode, out.split(), err[-500:])
                for name, (out, err) in outputs.items()
                if procs[name].returncode != 0 or out}
    assert failures == {}
