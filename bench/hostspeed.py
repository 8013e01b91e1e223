"""How fast is the host right now?  A fixed piece of work, timed.

The hosts this benchmark runs on are shared.  Their speed moves by 20-30 %
for seconds to minutes at a time whatever runs on them — a fixed loop reads
63 ms or 95 ms — which is more than any timing metric is allowed to move
by.  So every timing the benchmark reports end to end is in **reference
seconds**: the wall-clock interval divided by the host's slowdown while it
ran, where the slowdown is what :func:`probe` takes now over what it takes
on the reference host.  A job is probed before it starts, at every round
callback and after it ends (the callbacks' own time is not part of any
interval), a set-up before and after.

The probe is interpreter and numpy work of the kinds the workloads are made
of and none of the repo's code, so no change to the program can move it.
It tracks the host's speed for compute (four of the five workloads lose half
to two thirds of their run-to-run spread); it says nothing about how long a
socket, a disk or a descheduled peer process takes, so
``serve_mlp_compressed`` keeps most of its spread.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# What probe() takes on the host the workloads were sized on (2 vCPUs of a
# 2.1 GHz Xeon, BLAS pinned to one thread) in the state that host is in most
# of the time.  Only a scale: it makes reference seconds read like this
# host's seconds; every comparison is between two numbers divided by it.
REFERENCE_S = 0.0042

_rng = np.random.default_rng(0)
_SMALL_A, _SMALL_B = _rng.random((32, 64)), _rng.random((64, 64))
_SQUARE = _rng.random((128, 128))
_VECTOR = _rng.random(8192)
_BLOCK = _rng.random(512 * 1024)  # 4 MiB: larger than the private caches


class _Cell:
    def __init__(self) -> None:
        self.value = 1.0


def probe() -> float:
    """Seconds the fixed work took: five parts of about equal length —
    bytecode with attribute access, small and medium matrix products,
    element-wise transcendentals with fresh allocations, a streaming copy."""
    started = time.perf_counter()
    cell, kept = _Cell(), []
    for i in range(12000):
        cell.value = cell.value * 1.0000001 + i
        if i & 63 == 0:
            kept.append(cell.value)
    for _ in range(130):
        _SMALL_A @ _SMALL_B
    for _ in range(8):
        _SQUARE @ _SQUARE
    for _ in range(15):
        gate = 1.0 / (1.0 + np.exp(-_VECTOR))
        gate * np.tanh(_VECTOR) + _VECTOR
    copy = _BLOCK.copy()
    copy += 1.0
    return time.perf_counter() - started


def slowdown(probes: list[float]) -> float:
    """The host's speed over the interval the probes were taken in, as a
    divisor: wall-clock seconds / slowdown = reference seconds."""
    return statistics.fmean(probes) / REFERENCE_S
