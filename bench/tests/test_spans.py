"""Span self-time arithmetic and the budget that sums to the wall clock."""

import math

from bench import spans


def _recorder(rows):
    """Build a recorder from explicit ``(name, start, end, parent)`` rows."""
    recorder = spans.SpanRecorder()
    for name, start, end, parent in rows:
        recorder.names.append(name)
        recorder.starts.append(start)
        recorder.ends.append(end)
        recorder.parents.append(parent)
    return recorder


ROWS = [
    (spans.ROOT, 0.0, 10.0, -1),
    ("fl.trainer", 1.0, 9.0, 0),
    ("fl.client.local_train", 2.0, 6.0, 1),
    ("nn.conv2d.forward", 2.5, 3.5, 2),
    ("nn.conv2d.forward", 4.0, 5.5, 2),
    ("fl.client.eval", 6.0, 8.0, 1),
]


def test_self_time_is_duration_minus_direct_children():
    own = spans.self_times(_recorder(ROWS))
    assert own[spans.ROOT] == 2.0  # 10 - trainer's 8
    assert own["fl.trainer"] == 2.0  # 8 - local_train's 4 - eval's 2
    assert own["fl.client.local_train"] == 1.5  # 4 - (1 + 1.5)
    assert own["nn.conv2d.forward"] == 2.5
    assert own["fl.client.eval"] == 2.0


def test_grandchildren_are_not_subtracted_twice():
    own = spans.self_times(_recorder(ROWS))
    # conv2d is a grandchild of fl.trainer: only local_train pays for it.
    assert math.isclose(sum(own.values()), 10.0)


def test_budget_rows_sum_to_wall_with_unattributed_as_its_own_row():
    table = spans.budget(_recorder(ROWS))
    assert table["wall_s"] == 10.0
    assert math.isclose(sum(table["rows"].values()), table["wall_s"])
    assert table["rows"][spans.UNATTRIBUTED] == 2.0
    assert table["unattributed_share"] == 0.2
    assert spans.ROOT not in table["rows"]


def test_inclusive_time_counts_a_nested_same_name_span_once():
    rows = ROWS + [("fl.client.eval", 6.5, 7.0, 5)]
    inclusive = spans.inclusive_times(_recorder(rows))
    assert inclusive["fl.client.eval"] == 2.0
    assert inclusive["nn.conv2d.forward"] == 2.5
    assert inclusive["fl.client.local_train"] == 4.0


def test_recorded_spans_nest_and_leaves_attach_to_the_open_span():
    recorder = spans.SpanRecorder()
    with recorder.span(spans.ROOT):
        with recorder.span("fl.trainer"):
            recorder.leaf("nn.linear.forward", 0.0)
        recorder.count("ckpt.saves")
        recorder.count("ckpt.saves")
    assert recorder.names == [spans.ROOT, "fl.trainer", "nn.linear.forward"]
    assert recorder.parents == [-1, 0, 1]
    assert all(end >= start for start, end in zip(recorder.starts, recorder.ends))
    assert recorder.counts == {"ckpt.saves": 2}
    table = spans.budget(recorder)
    assert math.isclose(sum(table["rows"].values()), table["wall_s"], abs_tol=1e-9)


def test_a_span_closed_by_an_exception_unwinds_the_stack():
    recorder = spans.SpanRecorder()
    try:
        with recorder.span(spans.ROOT):
            with recorder.span("fl.trainer"):
                raise KeyError("abort")
    except KeyError:
        pass
    with recorder.span(spans.ROOT):
        pass
    assert recorder.parents == [-1, 0, -1]
