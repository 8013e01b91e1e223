"""``bench compare`` verdicts on synthetic results."""

import copy

import pytest

from bench.compare import comparable, compare_results, verdict
from bench.metrics import END_TO_END, END_TO_END_BY_NAME

WALL = END_TO_END_BY_NAME["run_wall_s"]  # lower is better
RATE = END_TO_END_BY_NAME["client_updates_per_s"]  # higher is better
SETUP = END_TO_END_BY_NAME["setup_s"]  # bound 0.25 plus a 0.25 s floor


def test_ok_within_the_bound():
    row = verdict(WALL, [10.0, 10.1, 9.9], [10.5, 10.6, 10.4])
    assert row["verdict"] == "ok"
    assert row["worse_by"] == pytest.approx(0.05)


def test_regressed_beyond_the_bound():
    worse = 10.0 * (1 + WALL.bound + 0.05)
    row = verdict(WALL, [10.0, 10.1, 9.9], [worse, worse + 0.1, worse - 0.1])
    assert row["verdict"] == "regressed"


def test_higher_is_better_metrics_regress_downwards():
    assert verdict(RATE, [100.0, 101.0, 99.0], [70.0, 71.0, 69.0])["verdict"] == "regressed"
    assert verdict(RATE, [100.0, 101.0, 99.0], [130.0, 131.0, 129.0])["verdict"] == "ok"


def test_unresolved_when_the_spread_exceeds_the_bound_and_runs_interleave():
    row = verdict(WALL, [8.0, 10.0, 14.0], [9.0, 11.0, 13.0])
    assert row["spread"] > row["allowed"]
    assert row["verdict"] == "unresolved"


def test_a_wide_spread_is_resolved_when_every_run_is_on_one_side():
    better = verdict(WALL, [8.0, 10.0, 14.0], [4.0, 5.0, 7.0])
    assert better["verdict"] == "ok"
    worse = verdict(WALL, [8.0, 10.0, 14.0], [16.0, 20.0, 28.0])
    assert worse["verdict"] == "regressed"


def test_setup_floor_forgives_a_large_share_of_a_tiny_time():
    assert verdict(SETUP, [0.03, 0.03, 0.03], [0.06, 0.06, 0.06])["verdict"] == "ok"
    assert verdict(SETUP, [2.0, 2.0, 2.0], [3.0, 3.0, 3.0])["verdict"] == "regressed"


def _result(shift: float = 1.0) -> dict:
    def section():
        return {
            "constants": {"rounds": 4},
            "params_sha256": "ab" * 32,
            "end_to_end": {
                m.name: {"values": [v * (shift if m.name == "run_wall_s" else 1.0)
                                    for v in (10.0, 10.1, 9.9)]}
                for m in END_TO_END
            },
        }

    return {
        "seed": 0,
        "host": {"blas_pins": {"OMP_NUM_THREADS": "1"}},
        "workloads": {"silo_cnn_sync": section(), "serve_mlp_compressed": section()},
    }


def test_one_row_per_pairing_and_only_the_shifted_metric_regresses():
    rows = compare_results(_result(), _result(shift=1.5))
    assert len(rows) == 2 * (len(END_TO_END) + 1)
    regressed = [(r["workload"], r["metric"]) for r in rows if r["verdict"] == "regressed"]
    assert regressed == [("silo_cnn_sync", "run_wall_s"), ("serve_mlp_compressed", "run_wall_s")]


def test_a_changed_parameter_digest_is_a_regression():
    changed = _result()
    changed["workloads"]["silo_cnn_sync"]["params_sha256"] = "cd" * 32
    rows = compare_results(_result(), changed)
    assert [r["metric"] for r in rows if r["verdict"] == "regressed"] == ["params_sha256"]


def test_results_with_other_constants_seeds_or_pins_are_not_comparable():
    base = _result()
    assert comparable(base, _result()) is None
    other = copy.deepcopy(base)
    other["workloads"]["silo_cnn_sync"]["constants"]["rounds"] = 5
    assert "constants" in comparable(base, other)
    other = copy.deepcopy(base)
    other["seed"] = 1
    assert "seeds" in comparable(base, other)
    other = copy.deepcopy(base)
    other["host"]["blas_pins"] = {"OMP_NUM_THREADS": None}
    assert "pins" in comparable(base, other)
