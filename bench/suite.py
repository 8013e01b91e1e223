"""``python -m bench run`` and ``agree``: every workload, one result file.

Each run is a fresh ``python -m bench once`` subprocess, so ``ru_maxrss``
is per run, no pool or socket leaks from one run into the next, and the
BLAS pins are in place before numpy loads.  End-to-end numbers come from
the untraced runs only; one more, traced, run per workload gives the
per-layer numbers and the budget.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench.compare import compare_results, print_rows
from bench.host import REPO_ROOT, fingerprint
from bench.metrics import END_TO_END, FAILED_OPS_SHARE, PER_LAYER
from bench.workloads import WORKLOADS

# How long one run measures; BENCHMARK.json's run_seconds.
RUN_SECONDS = 20
# Untraced runs per workload.
REPEATS = 3


def _once(workload: str, seed: int, trace: bool, quick: bool, scratch: Path) -> dict | None:
    """One subprocess run; its detailed result, or None if it failed."""
    out = scratch / f"{workload}-{int(trace)}.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable, "-m", "bench", "once", "--workload", workload,
        "--seed", str(seed), "--seconds", str(RUN_SECONDS),
        "--trace", str(int(trace)), "--out", str(out),
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True, check=False)
    if not out.exists():
        print(done.stdout[-4000:], done.stderr[-4000:], sep="\n", file=sys.stderr)
        return None
    with open(out) as handle:
        return json.load(handle)


def _summary(values: list[float], unit: str) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "unit": unit, "values": values, "n": len(values),
        "median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
    }


def run_workload(name: str, seed: int, quick: bool, scratch: Path) -> tuple[dict, list[str]]:
    """All runs of one workload, folded into its section of the result."""
    failures: list[str] = []
    repeats = 1 if quick else REPEATS
    untraced = [_once(name, seed, False, quick, scratch) for _ in range(repeats)]
    traced = _once(name, seed, True, quick, scratch)
    runs = [run for run in untraced + [traced] if run is not None]
    if len(runs) < repeats + 1:
        failures.append(f"{name}: {repeats + 1 - len(runs)} run(s) crashed")
    for run in runs:
        failures += [
            f"{name}: check {check['name']} failed ({check['detail']})"
            for check in run["checks"] if not check["ok"]
        ]
    untraced = [run for run in untraced if run is not None]
    if not untraced or traced is None:
        return {}, failures

    def metric(run: dict, metric_name: str) -> float:
        return run["result"]["metrics"][metric_name]["value"]

    # (a) repeats of one workload end in the same place, byte for byte.
    exact = ("bytes_up_per_round", "bytes_down_per_round")
    for run in runs[1:]:
        if run["params_sha256"] != runs[0]["params_sha256"] or any(
            metric(run, m) != metric(untraced[0], m) for m in exact if not run["trace"]
        ):
            failures.append(f"{name}: repeated runs disagree on parameters or byte counts")
    attempted = sum(run["result"]["attempted"] for run in runs)
    failed = sum(run["result"]["failed"] for run in runs)
    section = {
        "constants": untraced[0]["constants"],
        "runs": len(untraced),
        "params_sha256": untraced[0]["params_sha256"],
        "end_to_end": {
            m.name: _summary([metric(run, m.name) for run in untraced], m.unit)
            for m in END_TO_END
        },
        # End-to-end timings are reference seconds: wall clock / host_slowdown.
        "host_slowdown": [run["host_slowdown"] for run in untraced],
        "wall_clock": [run["wall_clock"] for run in untraced],
        "attempted": attempted,
        "failed": failed,
        FAILED_OPS_SHARE: failed / attempted,
        "per_layer": traced["result"]["metrics"],
        "budget": traced["budget"],
        "traced_run_wall_s": traced["traced_run_wall_s"],
        "checks": [check for run in runs for check in run["checks"]],
    }
    return section, failures


def print_workload(name: str, section: dict) -> None:
    print(f"\n== {name}  ({section['runs']} untraced runs + 1 traced)")
    print(f"  {'end-to-end metric':<24} {'unit':<6} {'median':>13} {'q1':>13} {'q3':>13} {'n':>3}")
    for m in END_TO_END:
        s = section["end_to_end"][m.name]
        print(f"  {m.name:<24} {m.unit:<6} {s['median']:>13.6g} {s['q1']:>13.6g} "
              f"{s['q3']:>13.6g} {s['n']:>3}")
    print(f"  {FAILED_OPS_SHARE:<24} {'ratio':<6} {section[FAILED_OPS_SHARE]:>13.6g}"
          f"   ({section['failed']} of {section['attempted']} client updates)")
    slowdowns = " ".join(f"{value:.3f}" for value in section["host_slowdown"])
    print(f"  timings above are reference seconds: wall clock / host slowdown ({slowdowns})")
    print(f"  {'per-layer metric':<38} {'unit':<6} {'value':>13}  should move")
    for m in PER_LAYER:
        print(f"  {m.name:<38} {m.unit:<6} {section['per_layer'][m.name]['value']:>13.6g}  {m.moves}")
    budget = section["budget"]
    print(f"  budget of the traced run: rows are self time and sum to run_wall_s = "
          f"{budget['wall_s']:.4f} s")
    for row, seconds in budget["rows"].items():
        if seconds / budget["wall_s"] >= 0.001 or row.startswith("budget."):
            print(f"    {row:<36} {seconds:>10.4f} s {seconds / budget['wall_s']:>7.1%}")
    overhead = section["per_layer"]["obs.trace_overhead_share"]["value"]
    print(f"    obs.trace_overhead_share {overhead:+.3f} (traced vs untraced run_wall_s)")


def collect(seed: int, names: list[str] | None, quick: bool) -> tuple[dict, list[str]]:
    names = names or list(WORKLOADS)
    result = {
        "schema": 1, "seed": seed, "quick": quick, "run_seconds": RUN_SECONDS,
        "repeats": 1 if quick else REPEATS, "host": fingerprint(), "workloads": {},
    }
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="bench-suite-") as scratch:
        for name in names:
            if name not in WORKLOADS:
                failures.append(f"unknown workload {name!r}")
                continue
            section, failed = run_workload(name, seed, quick, Path(scratch))
            failures += failed
            if section:
                result["workloads"][name] = section
                print_workload(name, section)
                sys.stdout.flush()
    return result, failures


def _write(result: dict, out: str | None) -> None:
    if out is not None:
        with open(out, "w") as handle:
            json.dump(result, handle, indent=1)
        print(f"\nwrote {out}")


def _report(failures: list[str]) -> int:
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def run(seed: int, out: str | None, names: list[str] | None, quick: bool) -> int:
    result, failures = collect(seed, names, quick)
    _write(result, out)
    return _report(failures)


def agree(seed: int, out: str | None, names: list[str] | None, quick: bool) -> int:
    """Run the same commit twice and hold the second run to the bounds."""
    first, failures = collect(seed, names, quick)
    second, more = collect(seed, names, quick)
    if out is not None:
        _write(first, f"{out}.a.json")
        _write(second, f"{out}.b.json")
    rows = compare_results(first, second)
    print()
    print_rows(rows)
    failures += more + [
        f"{row['workload']}: {row['metric']} regressed between two runs of one commit"
        for row in rows if row["verdict"] == "regressed"
    ]
    return _report(failures)
