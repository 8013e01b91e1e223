"""One run of one workload, in this process: ``python -m bench once``.

Set-up is repeated (its median is ``setup_s``), then jobs run back to
back until ``--seconds`` is used up, then the output checks.  End-to-end
metrics are medians over the untraced jobs of the run; with ``--trace 1``
every second job records spans, from which the per-layer metrics and the
budget come, and the untraced jobs in between are the reference for the
tracing overhead.  The last line printed is the result the driver reads.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

from bench import spans
from bench.checks import budget_adds_up, run_checks
from bench.host import fingerprint
from bench.layers import per_layer_values
from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS, run_job, set_up

# Every job gets a fresh set-up, so the set-up samples spread over the whole
# run like the job samples do; then set-up repeats until there are at least
# MIN_SETUPS samples and, for set-ups of a few milliseconds whose timing is
# all noise, until TOP_UP_SECONDS are spent or MAX_SETUPS samples taken.
MIN_SETUPS = 3
MAX_SETUPS = 15
TOP_UP_SECONDS = 1.0


def _peak_rss_mb() -> float:
    """ru_maxrss is KiB on Linux; children count once they are reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end_values(setups, jobs, peak_rss_mb: float) -> dict[str, float]:
    """Medians over the run; timings in reference seconds (bench.hostspeed)."""
    median = statistics.median
    job = jobs[0]  # exact counts and the loss repeat across jobs (checked)
    # The rounds of a job differ in work (eval, checkpoint, first round), the
    # jobs of a run do not: each round's median across the jobs first.
    per_round = zip(*([t / j.slowdown for t in j.round_intervals] for j in jobs))
    return {
        "setup_s": median(seconds / slow for seconds, slow in setups),
        "run_wall_s": median(j.reference_wall_s for j in jobs),
        "round_s_p50": median(median(across_jobs) for across_jobs in per_round),
        "client_updates_per_s": median(j.committed / j.reference_wall_s for j in jobs),
        "peak_rss_mb": peak_rss_mb,
        "bytes_up_per_round": job.ledger["up"] / job.rounds,
        "bytes_down_per_round": job.ledger["down"] / job.rounds,
        "final_test_loss": job.test_losses[-1],
    }


def run_once(
    name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
    out: str | None = None,
) -> int:
    workload = WORKLOADS[name]
    setup = set_up(workload, seed)
    setups = [(setup.seconds, setup.slowdown)]
    # Warm-up, not measured: the first round of a process pays for page
    # faults, lazy imports and allocator growth that later jobs do not.
    if not quick:
        run_job(workload, setup, seed, stop_after=1)

    untraced, traced, recorders = [], [], []
    started = time.perf_counter()
    while True:
        if untraced:
            setup = set_up(workload, seed)
            setups.append((setup.seconds, setup.slowdown))
        recorder = spans.SpanRecorder() if trace and len(untraced) > len(traced) else None
        job = run_job(workload, setup, seed, quick=quick, recorder=recorder)
        if recorder is None:
            untraced.append(job)
        else:
            traced.append(job)
            recorders.append(recorder)
        if trace and not traced:
            continue
        # Whole jobs only: another one starts if at least half of it fits.
        elapsed = time.perf_counter() - started
        if quick or elapsed + elapsed / len(untraced + traced) / 2 > seconds:
            break
    # Before the top-up and the checks: neither is the workload.
    peak_rss_mb = _peak_rss_mb()
    top_up_started = time.perf_counter()
    while not quick and (
        len(setups) < MIN_SETUPS
        or (len(setups) < MAX_SETUPS
            and time.perf_counter() - top_up_started < TOP_UP_SECONDS)
    ):
        extra = set_up(workload, seed)
        setups.append((extra.seconds, extra.slowdown))

    jobs = untraced + traced
    checks = run_checks(workload, setup, seed, quick, jobs)
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "quick": quick,
        "constants": workload.constants(quick),
        "host": fingerprint(),
        "jobs": len(jobs),
        "setups": len(setups),
        # Wall-clock medians and the host's slowdown they were divided by.
        "host_slowdown": statistics.median(job.slowdown for job in jobs),
        "wall_clock": {
            "setup_s": statistics.median(seconds for seconds, _ in setups),
            "run_wall_s": statistics.median(job.wall_s for job in untraced),
        },
        "params_sha256": jobs[0].params_sha256,
        "round_samples": sum(len(j.round_intervals) for j in jobs),
    }

    if trace:
        untraced_wall_s = statistics.median(job.reference_wall_s for job in untraced)
        per_job = [
            per_layer_values(recorder, job, setup.data_build_s, untraced_wall_s)
            for recorder, job in zip(recorders, traced)
        ]
        values = {m.name: statistics.median(v[m.name] for v in per_job) for m in PER_LAYER}
        declared = PER_LAYER
        table = spans.budget(recorders[-1])
        checks += budget_adds_up(table)
        detail["budget"] = table
        detail["traced_run_wall_s"] = statistics.median(job.reference_wall_s for job in traced)
        detail["untraced_run_wall_s"] = untraced_wall_s
        detail["spans"] = recorders[-1].to_rows()
    else:
        values = end_to_end_values(setups, untraced, peak_rss_mb)
        declared = END_TO_END
    detail["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]

    correct = all(ok for _name, ok, _detail in checks)
    for check_name, ok, text in checks:
        print(f"check {check_name}: {'ok' if ok else 'FAILED'} ({text})")
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in declared}
    for metric_name, entry in metrics.items():
        print(f"{metric_name} = {entry['value']:.6g} {entry['unit']}")
    result = {
        "correct": correct,
        "attempted": sum(j.committed for j in jobs),
        "failed": sum(j.failed for j in jobs),
        "metrics": metrics,
    }
    if out is not None:
        with open(out, "w") as handle:
            json.dump({**detail, "result": result}, handle, indent=1)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if correct else 1
