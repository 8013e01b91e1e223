"""Unit tests for the client-execution engines (:mod:`repro.fl.parallel`
and the worker engine it builds for multi-process runs)."""

from __future__ import annotations

import multiprocessing
import warnings

import numpy as np
import pytest

from repro.algorithms import FedAvg, make_algorithm
from repro.algorithms.base import COHORT_BLOCK
from repro.data import make_virtual_federation
from repro.exceptions import ConfigError
from repro.fl.config import FLConfig
from repro.fl.parallel import MeasuredExecutor, SerialExecutor, make_executor
from repro.fl.trainer import run_federated
from repro.models import build_model
from repro.obs import sysinfo
from repro.obs.trace import Tracer
from repro.serve.server import ServeExecutor, _RoundStats
from tests.conftest import make_toy_federation
from tests.helpers import assert_equivalent_runs, tiny_model_fn


def _config(**overrides) -> FLConfig:
    base = dict(rounds=2, local_steps=2, batch_size=8, lr=0.1, seed=5)
    base.update(overrides)
    return FLConfig(**base)


# -- make_executor / config plumbing ---------------------------------------------


def test_make_executor_auto_serial_when_single_worker():
    assert isinstance(make_executor(_config()), SerialExecutor)


def _usable_cpus(monkeypatch, count: int) -> None:
    """Give this process an affinity mask of ``count`` CPUs."""
    monkeypatch.setattr(
        sysinfo.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


def test_make_executor_auto_process_when_multiple_workers(monkeypatch):
    """With CPUs to spare, 'auto' is the measured engine: undecided until
    its probe, its worker engine built only at a hand-off."""
    _usable_cpus(monkeypatch, 8)
    executor = make_executor(_config(num_workers=3))
    assert isinstance(executor, MeasuredExecutor)
    assert executor.num_workers == 3
    assert executor.name == "auto"
    assert executor.placement is None and not executor.degraded


def test_make_executor_auto_serial_on_single_core(monkeypatch):
    """'auto' resolves to serial on a 1-CPU box — workers there only add
    IPC overhead.  Explicit executor='process' still wins (and gets the
    parallel_hint span instead)."""
    _usable_cpus(monkeypatch, 1)
    assert isinstance(make_executor(_config(num_workers=4)), SerialExecutor)
    forced = make_executor(_config(num_workers=4, executor="process"))
    assert isinstance(forced, ServeExecutor)


def test_make_executor_auto_serial_when_cpu_count_unknown(monkeypatch):
    """Without an affinity mask the predicate falls back to
    ``os.cpu_count()``, and an unknown count means one CPU."""
    monkeypatch.delattr(sysinfo.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(sysinfo.os, "cpu_count", lambda: None)
    assert isinstance(make_executor(_config(num_workers=4)), SerialExecutor)


def test_make_executor_forced_modes():
    assert isinstance(make_executor(_config(num_workers=4, executor="serial")), SerialExecutor)
    process = make_executor(_config(num_workers=4, executor="process"))
    assert isinstance(process, ServeExecutor) and process.name == "process"
    assert process.addr_spec is None  # forked locally, over an ephemeral socket
    served = make_executor(_config(num_workers=4, execution="serve"))
    assert isinstance(served, ServeExecutor) and served.name == "serve"


def test_config_rejects_bad_executor_settings():
    with pytest.raises(ConfigError):
        _config(num_workers=0)
    with pytest.raises(ConfigError):
        _config(executor="threads")
    with pytest.raises(ConfigError):  # block size comes from stack_refusal
        _config(executor="chunked")


def test_parallel_executor_rejects_bad_worker_count():
    with pytest.raises(ConfigError):
        ServeExecutor(0)


# -- scheduling: the serial engine's blocks -----------------------------------------


def _set_up(model: str, num_clients: int):
    fed = make_virtual_federation(
        num_clients, seed=5, similarity=0.3, samples_per_client=12, num_test=16
    ).materialize()
    algorithm = make_algorithm("fedavg")
    algorithm.setup(build_model(model, fed.spec, seed=2, scale=0.25), fed, _config())
    return algorithm


def test_singleton_tasks_one_per_client():
    """A block stack_refusal refuses (a CNN: reason=model) goes out one
    client a block, so workers balance per-client work."""
    algorithm = _set_up("cnn", 6)
    blocks = ServeExecutor._blocks(algorithm, [([4, 1, 2], None)])
    assert list(blocks) == [(0, "model", [(0, 4)]), (0, "model", [(1, 1)]), (0, "model", [(2, 2)])]


def test_chunked_tasks_contiguous_and_complete():
    """Blocks that stack go out whole, contiguous, region by region: no
    block straddles two regions and positions run on across them."""
    n = 2 * COHORT_BLOCK + 8
    algorithm = _set_up("mlp", n)
    first, second = list(range(COHORT_BLOCK + 3)), list(range(COHORT_BLOCK + 3, n))
    blocks = list(ServeExecutor._blocks(algorithm, [(first, None), (second, None)]))
    assert [(region, len(slots)) for region, _refusal, slots in blocks] == [
        (0, COHORT_BLOCK), (0, 3), (1, COHORT_BLOCK), (1, n - 2 * COHORT_BLOCK - 3),
    ]
    assert all(refusal is None for _region, refusal, _slots in blocks)
    slots = [slot for _region, _refusal, block in blocks for slot in block]
    assert slots == list(enumerate(range(n)))


def test_chunked_tasks_never_exceed_client_count():
    algorithm = _set_up("mlp", 8)
    assert list(ServeExecutor._blocks(algorithm, [([1, 2], None)])) == [
        (0, None, [(0, 1), (1, 2)])
    ]
    assert list(ServeExecutor._blocks(algorithm, [([], None), ([5], None)])) == [
        (1, None, [(0, 5)])
    ]


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
    assert isinstance(algorithm.executor, ServeExecutor)
    assert algorithm.executor.name == "process"


def test_with_executor_overrides_config():
    fed = make_toy_federation(similarity=0.0)
    injected = SerialExecutor()
    algorithm = FedAvg().with_executor(injected)
    run_federated(algorithm, fed, tiny_model_fn(fed), _config(num_workers=4, rounds=1))
    assert algorithm.executor is injected


def test_empty_selection_returns_empty():
    assert ServeExecutor(2, name="process").run(FedAvg(), 0, []) == []


# -- degradation -----------------------------------------------------------------


def test_fork_unavailable_degrades_to_serial(monkeypatch):
    """Without the fork start method the worker engine degrades before
    forking anything, says so once, and the run is the serial run —
    under ``executor='process'`` and ``execution='serve'`` alike."""
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    fed = make_toy_federation(similarity=0.0)
    serial_alg = FedAvg()
    serial = (serial_alg, run_federated(serial_alg, fed, tiny_model_fn(fed), _config()))

    for engine in (dict(executor="process"), dict(execution="serve")):
        parallel_alg = FedAvg()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            history = run_federated(
                parallel_alg, fed, tiny_model_fn(fed), _config(num_workers=4, **engine)
            )
        runtime_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime_warnings) == 1
        assert "fork" in str(runtime_warnings[0].message)
        assert parallel_alg.executor.degraded
        assert not parallel_alg.executor._procs  # no worker was ever forked
        np.testing.assert_array_equal(serial_alg.global_params, parallel_alg.global_params)
        assert_equivalent_runs(serial, (parallel_alg, history))


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

    workers_gauge = tracer.metrics.gauge("serve.workers")
    assert workers_gauge.value == 2
    speedup_gauge = tracer.metrics.gauge("serve.speedup")
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


def _stats(n: int = 3) -> _RoundStats:
    stats = _RoundStats()
    stats.blocks = [(0, None, [(i, i)]) for i in range(n)]
    return stats


def test_slowdown_round_emits_hint_and_counter():
    """When worker busy time is below round wall time (the CPU-bound
    single-core regime), the executor should say so via obs."""
    executor = ServeExecutor(2, name="process")
    tracer = Tracer()
    # 3 clients x 0.1s busy inside a 1.0s round: speedup 0.3.
    executor._record_metrics(tracer, _fake_updates(0.1), _stats(), elapsed=1.0)

    assert tracer.metrics.gauge("serve.speedup").value == pytest.approx(0.3)
    assert tracer.metrics.counter("parallel.slowdown_rounds").value == 1
    hints = tracer.find("parallel_hint")
    assert len(hints) == 1
    assert "serial" in hints[0].attrs["hint"]
    assert hints[0].attrs["speedup"] == pytest.approx(0.3, abs=1e-3)


def test_genuine_speedup_emits_no_hint():
    executor = ServeExecutor(2, name="process")
    tracer = Tracer()
    # 3 clients x 1s busy inside a 1.5s round: speedup 2.0.
    executor._record_metrics(tracer, _fake_updates(1.0), _stats(), elapsed=1.5)

    assert tracer.metrics.gauge("serve.speedup").value == pytest.approx(2.0)
    assert tracer.metrics.counter("parallel.slowdown_rounds").value == 0
    assert tracer.find("parallel_hint") == []


def test_untraced_run_records_nothing():
    from repro.obs.trace import NULL_TRACER

    executor = ServeExecutor(2, name="process")
    # Must not raise, and must stay allocation-free on the null path.
    executor._record_metrics(NULL_TRACER, _fake_updates(0.1), _stats(), elapsed=1.0)
