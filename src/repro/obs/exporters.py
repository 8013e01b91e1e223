"""Run-artifact writers and human-readable renderings.

A traced run is persisted as a directory of plain-text artifacts:

``events.jsonl``
    One JSON object per line: every finished span (depth-first, with its
    ``path`` in the tree) followed by a final snapshot of every counter /
    gauge / histogram.  Grep-able, diff-able, stream-parsable.
``summary.json``
    The full :class:`~repro.fl.metrics.History` dict (reloadable with
    :meth:`History.from_json` — extra keys are ignored) plus a ``trace``
    section with per-span-name aggregates and the metrics snapshot.
``rounds.csv``
    One row per round, spreadsheet-friendly (``History.save_csv``).

The ``format_*`` helpers render the same data as fixed-width tables for
the CLI.
"""

from __future__ import annotations

import json
from pathlib import Path


def iter_events(tracer) -> list[dict]:
    """Flatten a tracer into JSONL-ready event dicts."""
    events: list[dict] = []
    for span, depth, path in tracer.walk():
        event = {
            "type": "span",
            "name": span.name,
            "path": path,
            "depth": depth,
            "duration_sec": span.duration,
        }
        if span.attrs:
            event["attrs"] = dict(span.attrs)
        events.append(event)
    snapshot = tracer.metrics.snapshot()
    for key, value in snapshot["counters"].items():
        events.append({"type": "counter", "key": key, "value": value})
    for key, value in snapshot["gauges"].items():
        events.append({"type": "gauge", "key": key, "value": value})
    for key, summary in snapshot["histograms"].items():
        events.append({"type": "histogram", "key": key, **summary})
    for key, summary in snapshot.get("quantiles", {}).items():
        events.append({"type": "quantile", "key": key, **summary})
    return events


def write_jsonl(path: str | Path, tracer) -> Path:
    """Write the tracer's event stream as JSON Lines."""
    path = Path(path)
    with open(path, "w") as handle:
        for event in iter_events(tracer):
            handle.write(json.dumps(event) + "\n")
    return path


def summary_dict(history, tracer=None, provenance=None) -> dict:
    """History dict + a ``trace`` section (span aggregates, metrics).

    ``provenance`` (see :func:`repro.ckpt.provenance.run_provenance`)
    is stamped under its own key when given, so an artifact directory
    records which library version / config hash / dtype / execution
    engine produced it.
    """
    out = history.to_dict()
    if provenance is not None:
        out["provenance"] = dict(provenance)
    if tracer is not None and tracer.enabled:
        out["trace"] = {
            "spans": tracer.span_summary(),
            "metrics": tracer.metrics.snapshot(),
        }
    return out


def write_run_artifacts(out_dir: str | Path, history, tracer=None, provenance=None) -> Path:
    """Persist one run's artifacts under ``out_dir`` (created if needed).

    Returns the artifact directory.  Without a tracer only the history
    artifacts (``summary.json``, ``rounds.csv``) are written; a given
    ``provenance`` dict is stamped into ``summary.json``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "summary.json", "w") as handle:
        json.dump(summary_dict(history, tracer, provenance), handle, indent=2)
    history.save_csv(str(out_dir / "rounds.csv"))
    async_history = getattr(history, "async_history", None)
    if async_history is not None:
        # Async runs additionally carry the update-level trajectory
        # (arrival times, staleness, effective weights).
        with open(out_dir / "async.json", "w") as handle:
            json.dump(async_history.to_dict(), handle, indent=2)
    if tracer is not None and tracer.enabled:
        write_jsonl(out_dir / "events.jsonl", tracer)
    return out_dir


# -- human-readable renderings -----------------------------------------------------


def format_round_table(history) -> str:
    """Fixed-width per-round table: loss, accuracy, time, traffic."""
    header = (
        f"{'round':>5}  {'train_loss':>10}  {'test_acc':>8}  "
        f"{'time_ms':>8}  {'down_bytes':>10}  {'up_bytes':>10}"
    )
    lines = [header, "-" * len(header)]
    records = history.records
    if not records:
        # Streaming histories keep no records in memory; replay the
        # spool when one exists.
        replay = getattr(history, "replay_records", None)
        if replay is not None:
            records = replay()
    for r in records:
        acc = f"{r.test_accuracy:.4f}" if r.test_accuracy is not None else "-"
        lines.append(
            f"{r.round_idx:>5}  {r.train_loss:>10.4f}  {acc:>8}  "
            f"{1000 * r.wall_time_sec:>8.1f}  {r.bytes_down:>10}  {r.bytes_up:>10}"
        )
    if not records and getattr(history, "num_records", 0):
        lines.append(
            f"({history.num_records} rounds streamed, summaries only — "
            "set stream_dir for per-round rows)"
        )
    return "\n".join(lines)


def format_span_summary(tracer) -> str:
    """Fixed-width per-phase timing table, heaviest phases first."""
    summary = tracer.span_summary()
    if not summary:
        return "(no spans recorded)"
    header = f"{'phase':<16}  {'count':>6}  {'total_ms':>9}  {'mean_ms':>8}  {'max_ms':>8}"
    lines = [header, "-" * len(header)]
    for name, entry in sorted(
        summary.items(), key=lambda kv: kv[1]["total_sec"], reverse=True
    ):
        lines.append(
            f"{name:<16}  {entry['count']:>6}  {1000 * entry['total_sec']:>9.1f}  "
            f"{1000 * entry['mean_sec']:>8.2f}  {1000 * entry['max_sec']:>8.2f}"
        )
    return "\n".join(lines)
