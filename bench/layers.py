"""Per-layer metric values of one traced job.

A time metric ``<span>_s`` is the summed duration of the bench-side spans
of that name (inclusive of what they call); counts come from the spans,
from public attributes of the program's objects, from the communication
ledger and — for ``serve.*`` only — from the program's own metrics
registry.  Every declared metric gets a value on every workload: 0 where
the workload bypasses the layer.
"""

from __future__ import annotations

from bench import spans
from bench.metrics import PER_LAYER
from bench.workloads import JobResult

def _overhead_share(job: JobResult, dispatch_s: float) -> float:
    """1 - worker busy time / (workers x dispatch wall)."""
    if dispatch_s <= 0:
        return 0.0
    capacity = job.layer_counts["workers"] * dispatch_s
    return 1.0 - job.layer_counts["worker_train_s"] / capacity


def per_layer_values(
    recorder: spans.SpanRecorder, job: JobResult, data_build_s: float, untraced_wall_s: float
) -> dict[str, float]:
    """``untraced_wall_s``: the run's untraced jobs, in reference seconds."""
    inclusive = spans.inclusive_times(recorder)
    table = spans.budget(recorder)
    serve = job.layer_counts.get("serve", {"counters": {}, "quantiles": {}})
    request = serve["quantiles"].get("serve.request_latency_sec", {})
    ledger = job.ledger

    values = {
        "data.build_s": data_build_s,
        # In-process training is a span; pooled and served training only
        # reaches the driver as ClientUpdate.train_seconds.
        "fl.client.local_train_s": (
            inclusive.get("fl.client.local_train") or job.layer_counts["worker_train_s"]
        ),
        "fl.trainer.self_s": table["rows"].get("fl.trainer", 0.0),
        "core.regularizer_evals": spans.span_counts(recorder).get("core.regularizer_eval", 0),
        "fl.parallel.overhead_share": _overhead_share(
            job, inclusive.get("fl.parallel.dispatch", 0.0)
        ),
        "serve.overhead_share": _overhead_share(job, inclusive.get("serve.dispatch", 0.0)),
        "serve.request_s_p50": request.get("p50") or 0.0,
        "serve.request_s_p99": request.get("p99") or 0.0,
        "fl.comm.bytes_up_model": ledger["up:model"],
        "fl.comm.bytes_up_delta": ledger["up:delta"],
        "fl.comm.bytes_down_model": ledger["down:model"],
        "fl.comm.bytes_down_delta": ledger["down:delta"],
        "fl.hierarchy.cloud_bytes": ledger["up:cloud-model"] + ledger["down:cloud-model"],
        "budget.unattributed_share": table["unattributed_share"],
        "obs.trace_overhead_share": (job.reference_wall_s - untraced_wall_s) / untraced_wall_s,
    }
    # Everything else is a count under the metric's own name — the job's, the
    # recorder's or the serve registry's — or the spans of that name.
    counts = {**serve["counters"], **recorder.counts, **job.layer_counts}
    for metric in PER_LAYER:
        if metric.name in values:
            continue
        if metric.name in counts:
            values[metric.name] = counts[metric.name]
        elif metric.name.endswith("_s"):
            values[metric.name] = inclusive.get(metric.name[: -len("_s")], 0.0)
        else:
            values[metric.name] = 0
    return {metric.name: float(values[metric.name]) for metric in PER_LAYER}
