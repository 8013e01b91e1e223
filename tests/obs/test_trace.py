"""Span tracer tests."""

import threading

import pytest

from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


def test_sequential_spans_become_separate_roots():
    tracer = Tracer()
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    assert [root.name for root in tracer.roots] == ["a", "b"]


def test_nested_spans_build_a_tree():
    tracer = Tracer()
    with tracer.span("round", round=0):
        with tracer.span("local_train", client=1):
            with tracer.span("regularizer"):
                pass
        with tracer.span("aggregate"):
            pass
    assert len(tracer.roots) == 1
    root = tracer.roots[0]
    assert root.name == "round"
    assert root.attrs == {"round": 0}
    assert [c.name for c in root.children] == ["local_train", "aggregate"]
    assert [g.name for g in root.children[0].children] == ["regularizer"]


def test_span_durations_are_recorded_and_nested_sum_is_bounded():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(1000))
    outer = tracer.roots[0]
    inner = outer.children[0]
    assert outer.duration >= inner.duration >= 0.0


def test_span_set_attaches_attributes_mid_span():
    tracer = Tracer()
    with tracer.span("work") as span:
        span.set(items=3)
    assert tracer.roots[0].attrs["items"] == 3


def test_exception_marks_span_and_unwinds_stack():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("round"):
            with tracer.span("local_train"):
                raise ValueError("boom")
    # Both spans closed despite the exception; the failing one is marked.
    root = tracer.roots[0]
    assert root.name == "round"
    assert root.children[0].attrs["error"] == "ValueError"
    # A fresh span after the exception nests at root level again.
    with tracer.span("next"):
        pass
    assert [r.name for r in tracer.roots] == ["round", "next"]


def test_walk_yields_depth_and_path():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    entries = [(span.name, depth, path) for span, depth, path in tracer.walk()]
    assert entries == [("a", 0, "a"), ("b", 1, "a/b")]


def test_find_returns_spans_by_name():
    tracer = Tracer()
    for client in range(3):
        with tracer.span("local_train", client=client):
            pass
    found = tracer.find("local_train")
    assert [span.attrs["client"] for span in found] == [0, 1, 2]
    assert tracer.find("nope") == []


def test_span_summary_aggregates_per_name():
    tracer = Tracer()
    for _ in range(4):
        with tracer.span("phase"):
            pass
    summary = tracer.span_summary()
    assert summary["phase"]["count"] == 4
    assert summary["phase"]["total_sec"] >= summary["phase"]["max_sec"]
    assert summary["phase"]["mean_sec"] == pytest.approx(
        summary["phase"]["total_sec"] / 4
    )


def test_threads_nest_on_their_own_stacks():
    tracer = Tracer()
    barrier = threading.Barrier(4)

    def worker(idx: int) -> None:
        # All four threads are inside their outer span at the same time;
        # the inner span must still attach to the same thread's outer.
        with tracer.span("outer", thread=idx):
            barrier.wait(timeout=5)
            with tracer.span("inner", thread=idx):
                pass

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(tracer.roots) == 4
    for root in tracer.roots:
        assert root.name == "outer"
        assert len(root.children) == 1
        assert root.children[0].attrs["thread"] == root.attrs["thread"]


def test_on_round_mirrors_record_into_metrics():
    from repro.fl.metrics import RoundRecord

    tracer = Tracer()
    tracer.on_round(RoundRecord(round_idx=0, train_loss=0.5, reg_loss=0.1,
                                wall_time_sec=0.2, num_selected=4,
                                test_accuracy=0.75))
    tracer.on_round(RoundRecord(round_idx=1, train_loss=0.4, num_selected=4))
    snap = tracer.metrics.snapshot()
    assert snap["counters"]["rounds.completed"] == 2
    assert snap["gauges"]["round.train_loss"] == 0.4
    assert snap["gauges"]["round.test_accuracy"] == 0.75  # kept from round 0
    assert snap["histograms"]["round.num_selected"]["count"] == 2


def test_null_tracer_is_inert_and_shared():
    assert NULL_TRACER.enabled is False
    span_a = NULL_TRACER.span("x", attr=1)
    span_b = NULL_TRACER.span("y")
    assert span_a is span_b  # one shared no-op instance, no allocation
    with span_a as inside:
        assert inside is span_a
    assert NULL_TRACER.roots == ()
    assert list(NULL_TRACER.walk()) == []
    assert NULL_TRACER.find("x") == []
    assert NULL_TRACER.span_summary() == {}
    NULL_TRACER.on_round(object())  # accepts anything, records nothing
    assert NULL_TRACER.metrics.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {}, "quantiles": {},
    }


def test_null_tracer_survives_exceptions_silently():
    with pytest.raises(RuntimeError):
        with NullTracer().span("x"):
            raise RuntimeError("boom")
