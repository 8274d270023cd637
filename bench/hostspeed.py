"""Fixed reference kernels that measure the host CPU's current speed.

The benchmark's host is a shared VM whose CPU speed drifts by up to 2x in
phases that last from seconds to minutes: the same ``chsh_exact`` loop runs
at 115 us per call in one window and 210 us in another, with no time
stolen from the process. A run cannot average out a phase that covers it,
so raw wall times of the same code spread past any useful bound.

A timed run therefore times a fixed kernel, which calls nothing of the
package, between its calls, in the same thread on the same pinned CPU, and
scales each call's wall time by ``NOMINAL_NS[kind] / kernel time``: the
time the call would take on a CPU that runs the kernel in its nominal
time. A change to the package moves the calls and not the kernel, so it
moves the scaled times as it moves the wall times. Each workload uses the
kernel whose work is like its own, because the phases slow interpreter work
on small arrays more than passes over large arrays.
"""

from __future__ import annotations

import os
import time

import numpy as np

_MATRIX = np.arange(256).reshape(16, 16) * (1 + 0.5j) / 300.0
_CUTS = np.cumsum(np.full(8, 0.125))
ARRAY_SIZE = 400_000
SMALL_ITERATIONS = 600
WARM_UP_SCALE = 10

# Nominal kernel times: about their times in the host's fast phase, so
# scaled times read close to the wall times of a quiet host.
NOMINAL_NS = {"small_ops": 23_000_000, "array_pass": 12_000_000}


def _small_ops(scale: int) -> float:
    """Interpreter work on 16x16 arrays, like a ``chsh_exact`` call."""
    acc = 0.0
    for i in range(SMALL_ITERATIONS // scale):
        product = _MATRIX @ _MATRIX.conj().T
        if np.allclose(product, product.conj().T):
            acc += float(np.real(np.trace(product)))
        table = {k: k * i for k in range(8)}
        acc += sum(table.values()) * 1e-9
    return acc


def _array_pass(scale: int) -> float:
    """Passes over large arrays, like a sampled call at 10^6 shots."""
    draws = np.random.default_rng(1).random(ARRAY_SIZE // scale)
    cells = np.searchsorted(_CUTS, draws)
    return float((np.take(_CUTS, cells) * draws).sum())


KERNELS = {"small_ops": _small_ops, "array_pass": _array_pass}


def kernel_ns(kind: str) -> int:
    """Wall time of one run of the ``kind`` kernel, in nanoseconds.

    A tenth of the kernel runs first, untimed, to bring its code and data
    back into the caches after the calls (or, on ``cli_cold``, the CLI
    processes) that ran before it.
    """
    kernel = KERNELS[kind]
    kernel(WARM_UP_SCALE)
    start = time.perf_counter_ns()
    kernel(1)
    return time.perf_counter_ns() - start


def pin_to_one_cpu() -> int:
    """Pin this process, and the processes it starts, to its lowest CPU.

    The kernel then runs on the CPU that runs the calls it scales, CLI
    processes included.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
