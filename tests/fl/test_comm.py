"""Communication ledger tests."""

import pytest

from repro.fl.comm import CommLedger, vector_bytes
from repro.nn.dtype import default_dtype


def test_vector_bytes():
    assert vector_bytes(100, 4) == 400
    assert vector_bytes(100, 8) == 800


def test_vector_bytes_follows_dtype_policy():
    with default_dtype("float32"):
        assert vector_bytes(100) == 400
    with default_dtype("float64"):
        assert vector_bytes(100) == 800


@pytest.mark.parametrize("dtype,itemsize", [("float32", 4), ("float64", 8)])
def test_ledger_default_width_follows_dtype_policy(dtype, itemsize):
    with default_dtype(dtype):
        ledger = CommLedger()
    assert ledger.dtype_bytes == itemsize
    ledger.charge(CommLedger.UP, "model", 10)
    assert ledger.end_round()["up"] == 10 * itemsize


def test_ledger_explicit_width_overrides_policy():
    with default_dtype("float64"):
        ledger = CommLedger(dtype_bytes=4)
    assert ledger.dtype_bytes == 4
    ledger.charge(CommLedger.DOWN, "model", 10)
    assert ledger.end_round()["down"] == 40


def test_float32_totals_exactly_half_of_float64():
    """The acceptance invariant: same uncompressed traffic, half the
    bytes under the float32 policy."""
    ledgers = {}
    for dtype in ("float32", "float64"):
        with default_dtype(dtype):
            ledger = CommLedger()
        for _round in range(3):
            ledger.charge(CommLedger.DOWN, "model", 1234, copies=5)
            ledger.charge(CommLedger.UP, "model", 1234, copies=5)
            ledger.charge(CommLedger.UP, "delta", 77, copies=5)
            ledger.end_round()
        ledgers[dtype] = ledger
    assert ledgers["float64"].total() == 2 * ledgers["float32"].total()
    for key in ("down:model", "up:model", "up:delta"):
        assert ledgers["float64"].total(key) == 2 * ledgers["float32"].total(key)


def test_end_to_end_float32_run_charges_half_the_bytes(toy_federation, fast_config):
    """A full float32 job moves the same scalar counts as float64, so
    its ledger totals must come out exactly halved."""
    from repro.algorithms import FedAvg
    from repro.fl.trainer import run_federated
    from tests.helpers import tiny_model_fn

    totals = {}
    for dtype in ("float32", "float64"):
        alg = FedAvg()
        run_federated(
            alg, toy_federation, tiny_model_fn(toy_federation),
            fast_config.with_updates(dtype=dtype),
        )
        totals[dtype] = alg.ledger.total()
    assert totals["float64"] == 2 * totals["float32"]


def test_charge_bytes_is_dtype_independent():
    ledger = CommLedger(dtype_bytes=8)
    ledger.charge_bytes(CommLedger.UP, "model", 123, copies=2)
    totals = ledger.end_round()
    assert totals["up"] == 246
    assert totals["up:model"] == 246
    with pytest.raises(ValueError):
        ledger.charge_bytes("sideways", "model", 1)


def test_charge_accumulates_by_direction_and_kind():
    ledger = CommLedger(dtype_bytes=4)
    ledger.charge(CommLedger.DOWN, "model", 10, copies=3)
    ledger.charge(CommLedger.UP, "delta", 5)
    totals = ledger.end_round()
    assert totals["down:model"] == 120
    assert totals["down"] == 120
    assert totals["up:delta"] == 20
    assert totals["up"] == 20


def test_invalid_direction():
    with pytest.raises(ValueError):
        CommLedger().charge("sideways", "model", 10)


def test_rounds_are_isolated():
    ledger = CommLedger(dtype_bytes=1)
    ledger.charge(CommLedger.DOWN, "model", 10)
    ledger.end_round()
    ledger.charge(CommLedger.DOWN, "model", 20)
    ledger.end_round()
    assert ledger.rounds == 2
    assert ledger.round_bytes(0)["down"] == 10
    assert ledger.round_bytes(1)["down"] == 20
    assert ledger.total() == 30
    assert ledger.total("down") == 30
    assert ledger.total("up") == 0


def test_per_round_series():
    ledger = CommLedger(dtype_bytes=1)
    for size in [5, 7, 9]:
        ledger.charge(CommLedger.UP, "model", size)
        ledger.end_round()
    rounds = [ledger.round_bytes(r) for r in range(ledger.rounds)]
    assert [r["up"] for r in rounds] == [5, 7, 9]
    assert [r["down"] for r in rounds] == [0, 0, 0]


def test_total_counts_both_directions():
    ledger = CommLedger(dtype_bytes=1)
    ledger.charge(CommLedger.UP, "model", 3)
    ledger.charge(CommLedger.DOWN, "model", 4)
    ledger.end_round()
    assert ledger.total() == 7


def test_idle_round_reports_explicit_zeros():
    ledger = CommLedger(dtype_bytes=1)
    totals = ledger.end_round()
    assert totals == {"down": 0, "up": 0}
    # Direct indexing must work without .get() fallbacks at call sites.
    assert totals["down"] == 0 and totals["up"] == 0


def test_one_sided_round_still_reports_both_directions():
    ledger = CommLedger(dtype_bytes=1)
    ledger.charge(CommLedger.DOWN, "model", 10)
    totals = ledger.end_round()
    assert totals["up"] == 0
    assert totals["down"] == 10
    assert totals["down:model"] == 10


def test_ledger_feeds_shared_metrics_registry():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    ledger = CommLedger(dtype_bytes=1, metrics=registry)
    ledger.charge(CommLedger.DOWN, "model", 10, copies=2)
    ledger.charge(CommLedger.UP, "delta", 5)
    counters = registry.snapshot()["counters"]
    assert counters["comm.bytes{direction=down}"] == 20
    assert counters["comm.bytes{direction=down,kind=model}"] == 20
    assert counters["comm.bytes{direction=up}"] == 5
    assert counters["comm.bytes{direction=up,kind=delta}"] == 5


def test_shared_registry_with_prior_traffic_stays_isolated():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("comm.bytes", direction="down").inc(999)
    ledger = CommLedger(dtype_bytes=1, metrics=registry)
    ledger.charge(CommLedger.DOWN, "model", 10)
    totals = ledger.end_round()
    assert totals["down"] == 10  # the pre-existing 999 is not this ledger's
