"""``python -m bench compare A.json B.json``: apply the bounds.

One row per workload x end-to-end metric:

* ``regressed``  — the candidate's median is worse than the baseline's by
  more than the metric's bound;
* ``unresolved`` — the quartile spread of either side is wider than the
  bound *and* the two sets of runs interleave, so the runs cannot tell;
* ``ok``         — otherwise.

Two results compare only if they ran the same constants under the same
BLAS pins.  Exit code 1 on any ``regressed``, 2 when not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys

from bench.metrics import END_TO_END, EndToEnd


def _spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(metric: EndToEnd, baseline: list[float], candidate: list[float]) -> dict:
    """Judge one metric from the per-run values of both sides."""
    base, cand = statistics.median(baseline), statistics.median(candidate)
    scale = abs(base) if base else 1.0
    worse_by = (cand - base) / scale if metric.better == "lower" else (base - cand) / scale
    allowed = metric.bound + metric.floor / scale
    spread = max(_spread(baseline), _spread(candidate))
    interleave = max(baseline) >= min(candidate) and max(candidate) >= min(baseline)
    if spread > allowed and interleave:
        outcome = "unresolved"
    elif worse_by > allowed:
        outcome = "regressed"
    else:
        outcome = "ok"
    return {
        "metric": metric.name,
        "verdict": outcome,
        "baseline": base,
        "candidate": cand,
        "worse_by": worse_by,
        "allowed": allowed,
        "spread": spread,
    }


def comparable(a: dict, b: dict) -> str | None:
    """Why the two results cannot be compared, or None."""
    if a["host"]["blas_pins"] != b["host"]["blas_pins"]:
        return "BLAS thread pins differ"
    if a["seed"] != b["seed"]:
        return f"seeds differ ({a['seed']} vs {b['seed']})"
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        if a["workloads"][name]["constants"] != b["workloads"][name]["constants"]:
            return f"workload {name} ran different constants"
    if not set(a["workloads"]) & set(b["workloads"]):
        return "no workload in common"
    return None


def compare_results(a: dict, b: dict) -> list[dict]:
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for metric in END_TO_END:
            row = verdict(
                metric,
                a["workloads"][name]["end_to_end"][metric.name]["values"],
                b["workloads"][name]["end_to_end"][metric.name]["values"],
            )
            rows.append({"workload": name, **row})
        # Exact outputs: same seed, same constants, so the same parameters.
        same = a["workloads"][name]["params_sha256"] == b["workloads"][name]["params_sha256"]
        rows.append({
            "workload": name, "metric": "params_sha256",
            "verdict": "ok" if same else "regressed",
            "baseline": a["workloads"][name]["params_sha256"][:12],
            "candidate": b["workloads"][name]["params_sha256"][:12],
        })
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':<22} {'metric':<22} {'verdict':<10} "
          f"{'baseline':>13} {'candidate':>13} {'worse by':>9} {'allowed':>8} {'spread':>7}")
    for row in rows:
        if "worse_by" not in row:
            print(f"{row['workload']:<22} {row['metric']:<22} {row['verdict']:<10} "
                  f"{row['baseline']:>13} {row['candidate']:>13}")
            continue
        print(f"{row['workload']:<22} {row['metric']:<22} {row['verdict']:<10} "
              f"{row['baseline']:>13.6g} {row['candidate']:>13.6g} "
              f"{row['worse_by']:>+9.3f} {row['allowed']:>8.3f} {row['spread']:>7.3f}")
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    for row in unresolved:
        print(f"unresolved: {row['workload']} {row['metric']} "
              f"(spread {row['spread']:.3f} > allowed {row['allowed']:.3f})")
    regressed = sum(row["verdict"] == "regressed" for row in rows)
    print(f"{len(rows)} rows: {regressed} regressed, {len(unresolved)} unresolved")


def compare_files(baseline_path: str, candidate_path: str) -> int:
    with open(baseline_path) as handle:
        a = json.load(handle)
    with open(candidate_path) as handle:
        b = json.load(handle)
    reason = comparable(a, b)
    if reason is not None:
        print(f"not comparable: {reason}", file=sys.stderr)
        return 2
    rows = compare_results(a, b)
    print_rows(rows)
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0
