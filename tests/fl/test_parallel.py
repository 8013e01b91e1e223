"""Unit tests for the client-execution engine (:mod:`repro.fl.parallel`)."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.algorithms import FedAvg
from repro.exceptions import ConfigError
from repro.fl.config import FLConfig
from repro.fl.parallel import (
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.fl.trainer import run_federated
from repro.obs.trace import Tracer
from tests.conftest import make_toy_federation
from tests.helpers import tiny_model_fn


def _config(**overrides) -> FLConfig:
    base = dict(rounds=2, local_steps=2, batch_size=8, lr=0.1, seed=5)
    base.update(overrides)
    return FLConfig(**base)


# -- make_executor / config plumbing ---------------------------------------------


def test_make_executor_auto_serial_when_single_worker():
    assert isinstance(make_executor(_config()), SerialExecutor)


def test_make_executor_auto_process_when_multiple_workers(monkeypatch):
    import repro.fl.parallel as parallel_module

    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 8)
    executor = make_executor(_config(num_workers=3))
    assert isinstance(executor, ParallelExecutor)
    assert executor.num_workers == 3
    assert not executor.chunked


def test_make_executor_auto_serial_on_single_core(monkeypatch):
    """'auto' resolves to serial on a 1-CPU box — a process pool there
    only adds IPC overhead.  Explicit executor='process' still wins (and
    gets the parallel_hint span instead)."""
    import repro.fl.parallel as parallel_module

    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 1)
    assert isinstance(make_executor(_config(num_workers=4)), SerialExecutor)
    forced = make_executor(_config(num_workers=4, executor="process"))
    assert isinstance(forced, ParallelExecutor)


def test_make_executor_auto_serial_when_cpu_count_unknown(monkeypatch):
    import repro.fl.parallel as parallel_module

    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: None)
    assert isinstance(make_executor(_config(num_workers=4)), SerialExecutor)


def test_make_executor_forced_modes():
    assert isinstance(make_executor(_config(num_workers=4, executor="serial")), SerialExecutor)
    process = make_executor(_config(num_workers=4, executor="process"))
    assert isinstance(process, ParallelExecutor) and not process.chunked
    chunked = make_executor(_config(num_workers=4, executor="chunked"))
    assert isinstance(chunked, ParallelExecutor) and chunked.chunked


def test_config_rejects_bad_executor_settings():
    with pytest.raises(ConfigError):
        _config(num_workers=0)
    with pytest.raises(ConfigError):
        _config(executor="threads")


def test_parallel_executor_rejects_bad_worker_count():
    with pytest.raises(ConfigError):
        ParallelExecutor(0)


# -- scheduling ------------------------------------------------------------------


def test_singleton_tasks_one_per_client():
    executor = ParallelExecutor(2)
    tasks = executor._tasks([10, 11, 12])
    assert tasks == [[(0, 10)], [(1, 11)], [(2, 12)]]


def test_chunked_tasks_contiguous_and_complete():
    executor = ParallelExecutor(2, chunked=True)
    tasks = executor._tasks([10, 11, 12, 13, 14])
    assert tasks == [[(0, 10), (1, 11), (2, 12)], [(3, 13), (4, 14)]]


def test_chunked_tasks_never_exceed_client_count():
    executor = ParallelExecutor(8, chunked=True)
    tasks = executor._tasks([1, 2])
    assert tasks == [[(0, 1)], [(1, 2)]]


# -- executor wiring -------------------------------------------------------------


def test_setup_builds_executor_from_config():
    fed = make_toy_federation(similarity=0.0)
    algorithm = FedAvg()
    # executor='process' explicitly: 'auto' resolves to serial on a
    # single-core machine, which would make this test box-dependent.
    run_federated(
        algorithm, fed, tiny_model_fn(fed),
        _config(num_workers=2, rounds=1, executor="process"),
    )
    assert isinstance(algorithm.executor, ParallelExecutor)


def test_with_executor_overrides_config():
    fed = make_toy_federation(similarity=0.0)
    injected = SerialExecutor()
    algorithm = FedAvg().with_executor(injected)
    run_federated(algorithm, fed, tiny_model_fn(fed), _config(num_workers=4, rounds=1))
    assert algorithm.executor is injected


def test_empty_selection_returns_empty():
    assert ParallelExecutor(2).run(FedAvg(), 0, []) == []


# -- degradation -----------------------------------------------------------------


def test_fork_unavailable_degrades_to_serial(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    fed = make_toy_federation(similarity=0.0)
    serial_alg = FedAvg()
    run_federated(serial_alg, fed, tiny_model_fn(fed), _config())

    parallel_alg = FedAvg()
    with pytest.warns(RuntimeWarning, match="fork"):
        run_federated(
            parallel_alg, fed, tiny_model_fn(fed),
            _config(num_workers=4, executor="process"),
        )
    assert parallel_alg.executor.degraded
    np.testing.assert_array_equal(serial_alg.global_params, parallel_alg.global_params)


# -- observability ---------------------------------------------------------------


def test_traced_parallel_run_preserves_span_structure_and_reports_workers():
    fed = make_toy_federation(similarity=0.0)
    tracer = Tracer()
    algorithm = FedAvg()
    run_federated(
        algorithm, fed, tiny_model_fn(fed),
        _config(num_workers=2, rounds=2, executor="process"), tracer=tracer,
    )
    rounds = tracer.find("round")
    assert len(rounds) == 2
    for round_span in rounds:
        locals_ = [c for c in round_span.children if c.name == "local_train"]
        assert [c.attrs["client"] for c in locals_] == [0, 1, 2, 3]
        for child in locals_:
            # Spans re-emitted by the parent carry the worker pid and the
            # worker-measured duration.
            assert child.attrs["worker"] > 0
            assert child.duration >= 0.0

    workers_gauge = tracer.metrics.gauge("parallel.workers")
    assert workers_gauge.value == 2
    speedup_gauge = tracer.metrics.gauge("parallel.speedup")
    assert speedup_gauge.value > 0.0


def test_traced_serial_run_has_no_worker_attribute():
    fed = make_toy_federation(similarity=0.0)
    tracer = Tracer()
    run_federated(FedAvg(), fed, tiny_model_fn(fed), _config(rounds=1), tracer=tracer)
    locals_ = tracer.find("local_train")
    assert locals_ and all("worker" not in span.attrs for span in locals_)


# -- slowdown hint ----------------------------------------------------------------


def _fake_updates(train_seconds: float, n: int = 3) -> list:
    from repro.fl.compression import WireSize
    from repro.fl.parallel import ClientUpdate

    return [
        ClientUpdate(
            client_id=i, params=np.zeros(2), wire_size=WireSize(values=2),
            task_loss=0.0, reg_loss=0.0, num_steps=1,
            train_seconds=train_seconds, worker=100 + i,
        )
        for i in range(n)
    ]


def test_slowdown_round_emits_hint_and_counter():
    """When worker busy time is below round wall time (the CPU-bound
    single-core regime), the executor should say so via obs."""
    executor = ParallelExecutor(2)
    tracer = Tracer()
    # 3 clients x 0.1s busy inside a 1.0s round: speedup 0.3.
    executor._record_metrics(tracer, _fake_updates(0.1), elapsed=1.0)

    assert tracer.metrics.gauge("parallel.speedup").value == pytest.approx(0.3)
    assert tracer.metrics.counter("parallel.slowdown_rounds").value == 1
    hints = tracer.find("parallel_hint")
    assert len(hints) == 1
    assert "serial" in hints[0].attrs["hint"]
    assert hints[0].attrs["speedup"] == pytest.approx(0.3, abs=1e-3)


def test_genuine_speedup_emits_no_hint():
    executor = ParallelExecutor(2)
    tracer = Tracer()
    # 3 clients x 1s busy inside a 1.5s round: speedup 2.0.
    executor._record_metrics(tracer, _fake_updates(1.0), elapsed=1.5)

    assert tracer.metrics.gauge("parallel.speedup").value == pytest.approx(2.0)
    assert tracer.metrics.counter("parallel.slowdown_rounds").value == 0
    assert tracer.find("parallel_hint") == []


def test_untraced_run_records_nothing():
    from repro.obs.trace import NULL_TRACER

    executor = ParallelExecutor(2)
    # Must not raise, and must stay allocation-free on the null path.
    executor._record_metrics(NULL_TRACER, _fake_updates(0.1), elapsed=1.0)
