"""Nestable, thread-safe span timers.

A :class:`Span` measures one phase of work; entering a span inside
another (on the same thread) makes it a child, so a traced federated
round comes out as a tree::

    round (0.182s)
      sample        (0.000s)
      broadcast     (0.001s)
      local_train   (0.021s) client=0
        regularizer (0.002s)
        ...
      aggregate     (0.003s)
      eval          (0.015s)

The per-thread span stack lives in ``threading.local``, so concurrent
client simulations each build their own subtree; only the attachment of
finished root spans is locked.

The default :data:`NULL_TRACER` is what the runtime uses when tracing is
off: ``span()`` returns one shared no-op object and the metrics registry
is :data:`repro.obs.metrics.NULL_METRICS`, so the disabled path does no
allocation and no timing calls.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator

from repro.obs.metrics import NULL_METRICS, MetricsRegistry


class Span:
    """One timed, attributed phase.  Use as a context manager."""

    __slots__ = ("name", "attrs", "start", "duration", "children", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.duration = 0.0
        self.children: list[Span] = []
        self._tracer = tracer

    def set(self, **attrs) -> "Span":
        """Attach extra attributes mid-span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._pop(self)
        return False


class Tracer:
    """Collects span trees and run metrics.

    Thread-safe: each thread nests spans on its own stack; roots from
    all threads are appended (locked) to :attr:`roots` in completion
    order.
    """

    enabled = True

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: list[Span] = []
        self.metrics = MetricsRegistry()

    # -- span lifecycle ----------------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Exception safety / misuse tolerance: drop any deeper spans that
        # were never closed (their timings are attributed to this span).
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    # -- trainer integration -----------------------------------------------------
    def on_round(self, record) -> None:
        """Per-round callback for :func:`repro.fl.trainer.run_federated`.

        Mirrors the :class:`~repro.fl.metrics.RoundRecord` into gauges
        and counters so exported metrics carry the training trajectory.
        """
        m = self.metrics
        m.counter("rounds.completed").inc()
        m.gauge("round.train_loss").set(record.train_loss)
        m.gauge("round.reg_loss").set(record.reg_loss)
        m.gauge("round.wall_time_sec").set(record.wall_time_sec)
        m.histogram("round.num_selected").observe(record.num_selected)
        if record.test_accuracy is not None:
            m.gauge("round.test_accuracy").set(record.test_accuracy)

    # -- inspection --------------------------------------------------------------
    def walk(self) -> Iterator[tuple[Span, int, str]]:
        """Depth-first ``(span, depth, path)`` over all finished spans."""

        def visit(span: Span, depth: int, prefix: str):
            path = f"{prefix}/{span.name}" if prefix else span.name
            yield span, depth, path
            for child in span.children:
                yield from visit(child, depth + 1, path)

        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from visit(root, 0, "")

    def find(self, name: str) -> list[Span]:
        """All finished spans with the given name, in tree order."""
        return [span for span, _d, _p in self.walk() if span.name == name]

    def span_summary(self) -> dict[str, dict]:
        """Aggregate statistics per span name (count, total/mean/max sec)."""
        agg: dict[str, dict] = {}
        for span, _depth, _path in self.walk():
            entry = agg.setdefault(
                span.name, {"count": 0, "total_sec": 0.0, "max_sec": 0.0}
            )
            entry["count"] += 1
            entry["total_sec"] += span.duration
            if span.duration > entry["max_sec"]:
                entry["max_sec"] = span.duration
        for entry in agg.values():
            entry["mean_sec"] = entry["total_sec"] / entry["count"]
        return agg


class _NullSpan:
    """Shared no-op span for the disabled path."""

    __slots__ = ()
    name = "null"
    attrs: dict = {}
    duration = 0.0
    children: tuple = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Allocation-free tracer used when tracing is disabled.

    ``span()`` hands back one shared object whose enter/exit do nothing,
    and :attr:`metrics` swallows every update, so instrumented code needs
    no ``if tracing:`` guards on its hot path.  Code that would do extra
    *work* just to record it (e.g. computing an update norm) should still
    check :attr:`enabled`.
    """

    enabled = False
    roots: tuple = ()
    metrics = NULL_METRICS

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def on_round(self, record) -> None:
        pass

    def walk(self) -> Iterator:
        return iter(())

    def find(self, name: str) -> list:
        return []

    def span_summary(self) -> dict:
        return {}


NULL_TRACER = NullTracer()
