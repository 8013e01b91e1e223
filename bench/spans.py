"""Bench-side spans and the time budget computed from them.

A span is ``(name, start, end, parent)``.  Spans are recorded by the
benchmark's own wrappers around calls into the program's layers
(:mod:`bench.instrument`), kept in memory for the length of one job, and
folded into a budget when the job ends:

* a span's **self time** is its duration minus the part its direct
  children cover;
* the budget has one row per span name (summed self time) and the rows
  sum to the wall clock of the root span — whatever the root spent
  outside every recorded call is its own ``budget.unattributed`` row.

Everything runs on the driver's single thread, so children never overlap
and never outlive their parent.
"""

from __future__ import annotations

import time

ROOT = "bench.job"
# The bench's own round callback (digest, host-speed probe) inside a traced
# job: a row of the budget, and no part of any reported interval.
CALLBACK = "bench.callback"
UNATTRIBUTED = "budget.unattributed"


class _Span:
    __slots__ = ("_recorder", "_name", "_index")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._index = -1

    def __enter__(self) -> "_Span":
        self._index = self._recorder._open(self._name)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder._close(self._index)
        return False


class SpanRecorder:
    """Collects the spans and counts of one traced job."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # index of the enclosing span, -1 for a root
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        """Context manager recording one span under the currently open one."""
        return _Span(self, name)

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        # An exception may unwind several spans at once; close down to ours.
        while self._stack and self._stack.pop() != index:
            pass

    def leaf(self, name: str, duration: float) -> None:
        """Record an already-measured span that ended just now (the shape
        ``repro.obs.LayerProfiler`` reports: a duration, after the fact)."""
        end = time.perf_counter()
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(end - duration)
        self.ends.append(end)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def __len__(self) -> int:
        return len(self.names)

    def to_rows(self) -> list[list]:
        """``[name, start, end, parent]`` per span, for the result file."""
        return [list(row) for row in zip(self.names, self.starts, self.ends, self.parents)]


def durations(recorder: SpanRecorder) -> list[float]:
    return [end - start for start, end in zip(recorder.starts, recorder.ends)]


def self_times(recorder: SpanRecorder) -> dict[str, float]:
    """Summed self time per span name."""
    spans = durations(recorder)
    own = list(spans)
    for index, parent in enumerate(recorder.parents):
        if parent >= 0:
            own[parent] -= spans[index]
    out: dict[str, float] = {}
    for name, value in zip(recorder.names, own):
        out[name] = out.get(name, 0.0) + value
    return out


def inclusive_times(recorder: SpanRecorder) -> dict[str, float]:
    """Summed duration per span name; a span nested (at any depth) in a
    span of the same name is not counted twice."""
    out: dict[str, float] = {}
    for index, (name, span) in enumerate(zip(recorder.names, durations(recorder))):
        parent = recorder.parents[index]
        while parent >= 0 and recorder.names[parent] != name:
            parent = recorder.parents[parent]
        if parent < 0:
            out[name] = out.get(name, 0.0) + span
    return out


def span_counts(recorder: SpanRecorder) -> dict[str, int]:
    out: dict[str, int] = {}
    for name in recorder.names:
        out[name] = out.get(name, 0) + 1
    return out


def budget(recorder: SpanRecorder, root: str = ROOT) -> dict:
    """Fold one job's spans into rows that sum to the root's wall clock.

    Returns ``{"wall_s", "rows", "unattributed_share"}`` where ``rows``
    maps each span name to its self time and the root's own self time is
    renamed :data:`UNATTRIBUTED`.
    """
    wall = sum(
        span
        for name, parent, span in zip(recorder.names, recorder.parents, durations(recorder))
        if name == root and parent < 0
    )
    rows = self_times(recorder)
    rows[UNATTRIBUTED] = rows.pop(root, 0.0)
    return {
        "wall_s": wall,
        "rows": dict(sorted(rows.items(), key=lambda item: -item[1])),
        "unattributed_share": rows[UNATTRIBUTED] / wall if wall > 0 else 0.0,
    }
