"""End-to-end timings are wall-clock seconds over the host's slowdown."""

import pytest

from bench import hostspeed
from bench.once import end_to_end_values
from bench.workloads import JobResult


def _job(wall_s: float, slowdown: float) -> JobResult:
    return JobResult(
        wall_s=wall_s, round_intervals=[wall_s / 4] * 4, slowdown=slowdown, cohorts=[5] * 4,
        committed=20, failed=0, test_losses=[0.7], train_losses=[0.7] * 4,
        params_sha256="ab" * 32, identity_sha256=None, rounds=4,
        ledger={"up": 4000, "down": 8000}, algorithm="fedavg", feature_dim=8, wire_bytes=8,
        population=10, layer_counts={},
    )


def test_a_slow_host_and_a_fast_host_report_the_same_job():
    # The same work on a host at reference speed, 1.5x slower and 1.25x faster.
    jobs = [_job(2.0, 1.0), _job(3.0, 1.5), _job(1.6, 0.8)]
    values = end_to_end_values([(0.2, 1.0), (0.3, 1.5), (0.16, 0.8)], jobs, peak_rss_mb=100.0)
    assert values["run_wall_s"] == pytest.approx(2.0)
    assert values["round_s_p50"] == pytest.approx(0.5)
    assert values["client_updates_per_s"] == pytest.approx(10.0)
    assert values["setup_s"] == pytest.approx(0.2)
    assert values["bytes_up_per_round"] == 1000 and values["bytes_down_per_round"] == 2000


def test_slowdown_is_the_mean_probe_over_the_reference():
    assert hostspeed.slowdown([hostspeed.REFERENCE_S]) == pytest.approx(1.0)
    assert hostspeed.slowdown([hostspeed.REFERENCE_S, 3 * hostspeed.REFERENCE_S]) == pytest.approx(2.0)


def test_the_probe_times_its_fixed_work():
    assert hostspeed.probe() > 0.0
