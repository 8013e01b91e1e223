"""Exporter / artifact tests."""

import json

from repro.fl.metrics import History, RoundRecord
from repro.obs.exporters import (
    format_round_table,
    format_span_summary,
    iter_events,
    summary_dict,
    write_jsonl,
    write_run_artifacts,
)
from repro.obs.trace import NULL_TRACER, Tracer


def _traced_round():
    tracer = Tracer()
    with tracer.span("round", round=0):
        with tracer.span("sample"):
            pass
        for client in range(2):
            with tracer.span("local_train", client=client):
                pass
        with tracer.span("aggregate"):
            pass
    tracer.metrics.counter("comm.bytes", direction="down").inc(100)
    tracer.metrics.gauge("round.train_loss").set(0.5)
    tracer.metrics.histogram("round.num_selected").observe(2)
    return tracer


def _small_history():
    hist = History(algorithm="fedavg")
    hist.append(RoundRecord(0, 0.9, bytes_down=100, bytes_up=50,
                            test_accuracy=0.5, test_loss=0.7,
                            wall_time_sec=0.01, num_selected=2))
    hist.append(RoundRecord(1, 0.7, bytes_down=100, bytes_up=50,
                            wall_time_sec=0.01, num_selected=2))
    hist.final_accuracy = 0.5
    return hist


def test_iter_events_flattens_spans_with_paths():
    events = iter_events(_traced_round())
    spans = [e for e in events if e["type"] == "span"]
    assert [s["path"] for s in spans] == [
        "round", "round/sample", "round/local_train", "round/local_train",
        "round/aggregate",
    ]
    assert spans[0]["depth"] == 0 and spans[1]["depth"] == 1
    assert spans[2]["attrs"] == {"client": 0}
    kinds = {e["type"] for e in events}
    assert kinds == {"span", "counter", "gauge", "histogram"}


def test_jsonl_round_trip(tmp_path):
    tracer = _traced_round()
    path = write_jsonl(tmp_path / "events.jsonl", tracer)
    assert [json.loads(line) for line in path.read_text().splitlines()] == iter_events(tracer)


def test_summary_dict_embeds_trace_section():
    summary = summary_dict(_small_history(), _traced_round())
    assert summary["algorithm"] == "fedavg"
    assert summary["trace"]["spans"]["local_train"]["count"] == 2
    assert summary["trace"]["metrics"]["counters"][
        "comm.bytes{direction=down}"
    ] == 100
    json.dumps(summary)


def test_summary_dict_without_tracer_is_plain_history():
    summary = summary_dict(_small_history())
    assert "trace" not in summary
    assert summary_dict(_small_history(), NULL_TRACER) == summary


def test_summary_json_reloads_exactly_via_history_from_json(tmp_path):
    history = _small_history()
    out = write_run_artifacts(tmp_path / "run", history, _traced_round())
    reloaded = History.from_json((out / "summary.json").read_text())
    assert reloaded.to_dict() == history.to_dict()


def test_write_run_artifacts_files(tmp_path):
    out = write_run_artifacts(tmp_path / "run", _small_history(), _traced_round())
    assert {p.name for p in out.iterdir()} == {
        "summary.json", "rounds.csv", "events.jsonl"
    }


def test_write_run_artifacts_without_tracer_skips_events(tmp_path):
    out = write_run_artifacts(tmp_path / "run", _small_history())
    assert {p.name for p in out.iterdir()} == {"summary.json", "rounds.csv"}
    out_null = write_run_artifacts(tmp_path / "run2", _small_history(), NULL_TRACER)
    assert {p.name for p in out_null.iterdir()} == {"summary.json", "rounds.csv"}


def test_format_round_table_lists_every_round():
    table = format_round_table(_small_history())
    lines = table.splitlines()
    assert len(lines) == 4  # header + rule + 2 rounds
    assert "0.5000" in lines[2]  # round 0 accuracy
    assert lines[3].split()[2] == "-"  # round 1 was not evaluated


def test_format_span_summary_orders_by_total_time():
    text = format_span_summary(_traced_round())
    assert text.splitlines()[2].split()[0] == "round"  # heaviest = the root
    assert "local_train" in text
    assert format_span_summary(Tracer()) == "(no spans recorded)"
