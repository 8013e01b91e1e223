"""Process-level system gauges (resident memory, usable CPUs).

Cross-device scale-out lives or dies by memory flatness: a
million-client population must not cost more resident memory than a
ten-thousand-client one.  These helpers read the numbers the scale
gauges and ``benchmarks/bench_scale.py`` gate on, with no dependencies
beyond ``/proc`` (Linux) and the stdlib ``resource`` fallback.
:func:`usable_cpus` and :func:`fork_refusal` are the tests every second
process (worker engine, render-ahead helper) is forked behind.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import sys


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (containers and ``taskset`` narrow it below
    ``os.cpu_count()``), else ``os.cpu_count()``; one when unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_refusal() -> str | None:
    """Why this process may not fork a long-lived child, or ``None``:
    the ``fork`` start method must exist and the parent must not be
    daemonic (a daemonic process may not have children)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return "the 'fork' start method is unavailable"
    if multiprocessing.current_process().daemon:
        return "a daemonic process may not have children"
    return None


def current_rss_bytes() -> int:
    """This process's current resident set size in bytes.

    Prefers ``/proc/self/status`` (VmRSS, instantaneous); falls back to
    ``getrusage`` ru_maxrss (the lifetime *peak*) where /proc is absent.
    Returns 0 when neither source is readable.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return peak_rss_bytes()


def peak_rss_bytes() -> int:
    """This process's lifetime peak resident set size in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; it is
    monotone, so per-scenario measurements need a subprocess each
    (which is exactly how bench_scale.py uses it).
    """
    try:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ValueError, OSError):
        return 0
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


def record_scale_gauges(tracer, fed) -> None:
    """Export population / live-shard / RSS gauges for one round.

    No-op for an untraced run.  ``scale.live_clients`` only exists for
    virtual populations (materialized shard count, bounded by the LRU);
    ``scale.rss_mb`` tracks resident memory so a scale run's flatness
    shows up in the trace without external tooling.
    """
    if not tracer.enabled:
        return
    tracer.metrics.gauge("scale.population").set(float(fed.num_clients))
    live = getattr(getattr(fed, "clients", None), "live_clients", None)
    if live is not None:
        tracer.metrics.gauge("scale.live_clients").set(float(live))
    rss = current_rss_bytes()
    if rss:
        tracer.metrics.gauge("scale.rss_mb").set(rss / (1024.0 * 1024.0))


__all__ = [
    "current_rss_bytes", "fork_refusal", "peak_rss_bytes", "record_scale_gauges",
    "usable_cpus",
]
