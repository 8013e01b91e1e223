"""Output checks of one run; any failure fails the run.

(a) every job of the run (same seed, same constants) ends with the same
    parameters and byte counts;
(b) engine identity: the workload's engine reproduces the serial sync
    engine bit for bit on the first rounds — and the served job that was
    aborted and resumed ends where an uninterrupted serial run ends;
(c) every loss is finite;
(d) delta bytes equal the paper's closed forms (Table III): pairwise
    rFedAvg broadcasts the N x d table to each participant, leave-one-out
    rFedAvg+ one d-vector;
(e) on a traced run, the budget's rows sum to the traced job's wall clock
    and the share no recorded call accounts for stays under the limit.
"""

from __future__ import annotations

import math

from bench.metrics import UNATTRIBUTED_FAIL, UNATTRIBUTED_WARN
from bench.workloads import IDENTITY_ROUNDS, JobResult, Setup, Workload, run_job


def repeats_agree(jobs: list[JobResult]) -> list[tuple[str, bool, str]]:
    first = jobs[0]
    same = all(
        job.params_sha256 == first.params_sha256
        and job.ledger == first.ledger
        for job in jobs[1:]
    )
    return [("repeats_identical", same, f"{len(jobs)} jobs, params {first.params_sha256[:12]}")]


def losses_finite(job: JobResult) -> list[tuple[str, bool, str]]:
    losses = job.train_losses + job.test_losses
    ok = bool(job.test_losses) and all(math.isfinite(loss) for loss in losses)
    return [("losses_finite", ok, f"{len(losses)} losses")]


def delta_bytes_closed_form(job: JobResult) -> list[tuple[str, bool, str]]:
    if job.algorithm not in ("rfedavg", "rfedavg+"):
        return []
    vector = job.feature_dim * job.wire_bytes
    # Round 0 has no reported delta to broadcast yet.
    informed = sum(job.cohorts[1:])
    if job.algorithm == "rfedavg":
        expected_down = job.population * vector * informed
        expected_up = vector * sum(job.cohorts)
    else:
        expected_down = vector * informed
        expected_up = vector * job.committed
    got_down, got_up = job.ledger["down:delta"], job.ledger["up:delta"]
    return [
        ("delta_bytes_down_closed_form", got_down == expected_down,
         f"ledger {got_down} vs closed form {expected_down}"),
        ("delta_bytes_up_closed_form", got_up == expected_up,
         f"ledger {got_up} vs closed form {expected_up}"),
    ]


def engine_identity(
    workload: Workload, setup: Setup, seed: int, quick: bool, job: JobResult
) -> list[tuple[str, bool, str]]:
    if workload.serial_overrides is None:
        return []
    resumed = workload.abort_after is not None
    # The resumed job is compared at its end as well, so its serial
    # reference runs every round; the others stop after the first few.
    serial = run_job(
        workload, setup, seed, quick=quick,
        stop_after=None if resumed else IDENTITY_ROUNDS,
        **workload.serial_overrides,
    )
    out = [(
        "engine_identity_first_rounds",
        job.identity_sha256 is not None and job.identity_sha256 == serial.identity_sha256,
        f"after {IDENTITY_ROUNDS} rounds: {str(job.identity_sha256)[:12]} "
        f"vs serial {str(serial.identity_sha256)[:12]}",
    )]
    if resumed:
        out.append((
            "resumed_equals_uninterrupted_serial",
            job.params_sha256 == serial.params_sha256,
            f"{job.params_sha256[:12]} vs serial {serial.params_sha256[:12]}",
        ))
    return out


def budget_adds_up(table: dict) -> list[tuple[str, bool, str]]:
    total, share = sum(table["rows"].values()), table["unattributed_share"]
    if share > UNATTRIBUTED_WARN:
        print(f"warning: budget.unattributed_share {share:.3f} > {UNATTRIBUTED_WARN}")
    ok = math.isclose(total, table["wall_s"], rel_tol=1e-6) and share <= UNATTRIBUTED_FAIL
    return [(
        "budget_sums_to_wall", ok,
        f"rows sum {total:.6f} s, wall {table['wall_s']:.6f} s, unattributed {share:.4f}",
    )]


def run_checks(
    workload: Workload, setup: Setup, seed: int, quick: bool, jobs: list[JobResult]
) -> list[tuple[str, bool, str]]:
    job = jobs[0]
    return (
        repeats_agree(jobs)
        + engine_identity(workload, setup, seed, quick, job)
        + losses_finite(job)
        + delta_bytes_closed_form(job)
    )
