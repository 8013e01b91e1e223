"""Serving-engine fault tolerance and byte reconciliation.

Worker loss mid-run must redispatch and stay bit-identical; losing every
worker degrades to in-process serial execution with a RuntimeWarning
(same contract as the process pool); socket-level model bytes must
reconcile exactly against the ledger for dense dtype-true runs and land
in drift counters otherwise.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.fl.config import FLConfig
from repro.obs import Tracer
from repro.serve.server import ServeExecutor
from tests.helpers import assert_equivalent_runs, run_with_workers
from tests.serve.conftest import run_serve


def _config(**overrides) -> FLConfig:
    base = dict(rounds=4, local_steps=2, batch_size=8, lr=0.1, seed=41)
    base.update(overrides)
    return FLConfig(**base)


# -- worker loss ------------------------------------------------------------------


def _kill_a_worker_between_rounds(fed, compression: str) -> None:
    """SIGKILL a worker after round 1; the engine re-forks a replacement
    and the run stays bit-identical without degrading."""
    killed = []

    def assassin(record):
        if record.round_idx == 1:
            victim = record_algorithm[0].executor._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            killed.append(victim.pid)

    record_algorithm = []
    from repro.fl.trainer import run_federated
    from repro.algorithms import make_algorithm
    from tests.helpers import tiny_model_fn
    import warnings

    config = _config(compression=compression)
    serial = run_with_workers("scaffold", {}, fed, config, num_workers=1)
    run_config = config.with_updates(execution="serve", num_workers=2)
    algorithm = make_algorithm("scaffold")
    record_algorithm.append(algorithm)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        history = run_federated(
            algorithm, fed, tiny_model_fn(fed), run_config, callbacks=[assassin]
        )
    assert killed, "the assassin callback never fired"
    assert not algorithm.executor.degraded
    assert_equivalent_runs(serial, (algorithm, history))


def test_worker_killed_between_rounds_is_replaced(fed):
    _kill_a_worker_between_rounds(fed, "none")


def test_worker_killed_between_compressed_rounds_is_replaced(fed):
    """The replacement picks the error-feedback residuals up from the
    round's cohort broadcast."""
    _kill_a_worker_between_rounds(fed, "topk:0.05|qsgd:8")


def test_all_workers_dead_degrades_with_warning(fed, monkeypatch):
    """Workers that exit without ever connecting leave no transport; the
    engine must warn and finish the round in-process — bit-identically."""
    monkeypatch.setattr("repro.serve.worker.worker_main", lambda *a, **k: None)
    serial = run_with_workers("fedavg", {}, fed, _config(), num_workers=1)
    with pytest.warns(RuntimeWarning, match="socket client serving disabled"):
        served = run_serve(
            "fedavg", {}, fed, _config(), allow_degrade=True, timeout=5.0
        )
    assert served[0].executor.degraded
    assert_equivalent_runs(serial, served)


def test_executor_close_is_reusable(fed):
    """close() tears the sockets down; the next round re-forks."""
    config = _config(rounds=2, seed=43)
    serial = run_with_workers("fedavg", {}, fed, config, num_workers=1)

    closed = []

    def close_between_rounds(record):
        if record.round_idx == 0:
            algorithm = holders[0]
            algorithm.executor.close()
            closed.append(True)

    from repro.fl.trainer import run_federated
    from repro.algorithms import make_algorithm
    from tests.helpers import tiny_model_fn
    import warnings

    holders = []
    algorithm = make_algorithm("fedavg")
    holders.append(algorithm)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        history = run_federated(
            algorithm,
            fed,
            tiny_model_fn(fed),
            config.with_updates(execution="serve", num_workers=2),
            callbacks=[close_between_rounds],
        )
    assert closed and not algorithm.executor.degraded
    assert_equivalent_runs(serial, (algorithm, history))


# -- byte reconciliation ----------------------------------------------------------


def _counters(tracer):
    snapshot = tracer.metrics.snapshot()
    return snapshot["counters"]


def test_dense_run_reconciles_exactly(fed):
    """Dense dtype-true serve runs: socket model bytes == ledger charges
    (any drift would have raised ProtocolError; the counters agree)."""
    tracer = Tracer()
    algorithm, _history = run_serve("fedavg", {}, fed, _config(seed=44), tracer=tracer)
    counters = _counters(tracer)
    assert counters["serve.bytes_wire_down"] == counters["serve.bytes_ledger_down"]
    assert counters["serve.bytes_wire_up"] == counters["serve.bytes_ledger_up"]
    assert counters["serve.bytes_wire_down"] > 0
    assert "serve.reconcile_mismatches" not in counters
    # The ledger's model-kind formula in closed form, both directions:
    # cohort * model_size * dtype_bytes down, sum of dense uploads up.
    ledger = algorithm.ledger
    rounds = _config(seed=44).rounds
    expected = algorithm.model_size * fed.num_clients * ledger.dtype_bytes * rounds
    assert counters["serve.bytes_ledger_down"] == expected
    assert counters["serve.bytes_ledger_up"] == expected


def test_dense_float_width_reconciles_for_topk(fed):
    """topk keeps float64 values on the wire, so the measured stream
    bytes still reconcile with the WireSize charge exactly."""
    tracer = Tracer()
    run_serve(
        "fedavg", {}, fed, _config(seed=45, compression="topk:0.25"), tracer=tracer
    )
    counters = _counters(tracer)
    assert counters["serve.bytes_wire_down"] == counters["serve.bytes_ledger_down"]


def test_coder_pipeline_mismatch_is_counted_not_fatal(fed):
    """qsgd ships a decoded float64 carrier but is charged bit-packed
    words: the drift must land in a counter, never a ProtocolError."""
    tracer = Tracer()
    algorithm, _history = run_serve(
        "fedavg", {}, fed, _config(seed=46, compression="qsgd:8"), tracer=tracer
    )
    counters = _counters(tracer)
    assert counters["serve.bytes_wire_up"] != counters["serve.bytes_ledger_up"]
    assert counters["serve.reconcile_mismatches"] == _config().rounds
    assert not algorithm.executor.degraded


def test_state_bytes_counts_one_cohort_scoped_frame_per_round(fed):
    tracer = Tracer()
    config = _config(seed=48, compression="topk:0.05|qsgd:8")
    algorithm, _history = run_serve("fedavg", {}, fed, config, tracer=tracer)
    counters = _counters(tracer)
    row_bytes = algorithm.model_size * 8
    per_round = counters["serve.state_bytes"] / config.rounds
    # The model, plus at most one residual row (and two ids) per cohort client.
    assert row_bytes < per_round <= row_bytes + fed.num_clients * (row_bytes + 16) + 4096
    assert counters["serve.bytes_sent"] >= counters["serve.state_bytes"]


def test_latency_quantiles_reach_the_snapshot(fed):
    tracer = Tracer()
    run_serve("fedavg", {}, fed, _config(seed=47), tracer=tracer)
    quantiles = tracer.metrics.snapshot()["quantiles"]
    request = quantiles["serve.request_latency_sec"]
    config = _config()
    assert request["count"] == fed.num_clients * config.rounds
    assert 0 <= request["p50"] <= request["p95"] <= request["p99"]
    assert quantiles["serve.round_latency_sec"]["count"] == config.rounds


# -- direct executor units --------------------------------------------------------


def test_from_config_reads_workers_and_address():
    """The socket bounds are not config fields: a config builds the
    engine with its defaults, and a test that needs another bound builds
    the engine itself."""
    config = FLConfig(rounds=1, num_workers=3, serve_addr="tcp:127.0.0.1:0")
    executor = ServeExecutor.from_config(config)
    assert executor.num_workers == 3
    assert executor.addr_spec == "tcp:127.0.0.1:0"
    assert executor.name == "process"
    defaults = ServeExecutor(3)
    for bound in ("timeout", "retries", "backoff", "max_inflight", "queue_bytes"):
        assert getattr(executor, bound) == getattr(defaults, bound)
    built = ServeExecutor(
        3, timeout=9.0, retries=7, backoff=0.25, max_inflight=5, queue_bytes=4096
    )
    assert (built.timeout, built.retries, built.backoff) == (9.0, 7, 0.25)
    assert (built.max_inflight, built.queue_bytes) == (5, 4096)


def test_max_inflight_defaults_to_two_blocks_a_worker():
    from repro.algorithms.base import COHORT_BLOCK

    assert ServeExecutor(num_workers=4).max_inflight == 2 * 4 * COHORT_BLOCK


def test_make_executor_routes_serve(monkeypatch):
    from repro.fl.parallel import make_executor

    executor = make_executor(FLConfig(rounds=1, execution="serve", num_workers=2))
    assert isinstance(executor, ServeExecutor)
    assert executor.name == "serve"


def test_empty_cohort_is_a_noop():
    executor = ServeExecutor(num_workers=1)
    assert executor.run(object(), 0, []) == []
    assert not executor.degraded
