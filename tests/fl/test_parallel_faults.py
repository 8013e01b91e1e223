"""Faults, compression and crashes composed with the parallel engine.

Fault randomness (dropout) is consumed only in the parent process and
byzantine corruption is a pure function of ``(client, params, anchor)``,
so fault-injected runs must stay bit-identical between serial and
parallel execution — including the fault model's own counters.  A dead
worker's clients are redispatched to the others; only when no worker is
left does the run degrade to in-process execution — it never dies.
"""

from __future__ import annotations

import os
import time
import warnings

import numpy as np
import pytest

from repro.algorithms import FedAvg
from repro.fl.config import FLConfig
from repro.fl.faults import FaultModel
from repro.obs import Tracer
from tests.conftest import make_toy_federation
from tests.helpers import assert_equivalent_runs, run_with_workers, tiny_model_fn


def _config(**overrides) -> FLConfig:
    base = dict(rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=21)
    base.update(overrides)
    return FLConfig(**base)


@pytest.fixture(scope="module")
def fed():
    return make_toy_federation(similarity=0.0)


def _fault_model(**kwargs) -> FaultModel:
    return FaultModel(seed=9, **kwargs)


def test_dropout_is_bit_identical_and_counts_match(fed):
    config = _config(rounds=4)
    faults = {}

    def decorate_factory(key):
        def decorate(algorithm):
            faults[key] = _fault_model(dropout_prob=0.4)
            algorithm.with_faults(faults[key])

        return decorate

    serial = run_with_workers(
        "fedavg", {}, fed, config, num_workers=1, decorate=decorate_factory("serial")
    )
    parallel = run_with_workers(
        "fedavg", {}, fed, config, num_workers=4, decorate=decorate_factory("parallel")
    )
    assert_equivalent_runs(serial, parallel)
    assert faults["serial"].dropped_total == faults["parallel"].dropped_total
    assert faults["serial"].dropped_total > 0


def test_byzantine_corruption_is_bit_identical_and_counts_match(fed):
    config = _config(seed=22)
    faults = {}

    def decorate_factory(key):
        def decorate(algorithm):
            faults[key] = _fault_model(byzantine_clients=(1,), corruption_scale=2.0)
            algorithm.with_faults(faults[key])

        return decorate

    serial = run_with_workers(
        "fedavg", {}, fed, config, num_workers=1, decorate=decorate_factory("serial")
    )
    parallel = run_with_workers(
        "fedavg", {}, fed, config, num_workers=4, decorate=decorate_factory("parallel")
    )
    assert_equivalent_runs(serial, parallel)
    assert faults["serial"].corrupted_total == faults["parallel"].corrupted_total
    assert faults["serial"].corrupted_total == config.rounds  # client 1, every round


def test_compression_and_faults_compose_under_parallelism(fed):
    config = _config(seed=23, compression="quantize:8", error_feedback=False)

    def decorate(algorithm):
        algorithm.with_faults(_fault_model(byzantine_clients=(0,)))

    serial = run_with_workers("fedavg", {}, fed, config, num_workers=1, decorate=decorate)
    parallel = run_with_workers("fedavg", {}, fed, config, num_workers=4, decorate=decorate)
    assert_equivalent_runs(serial, parallel)


class _SlowClientsFedAvg(FedAvg):
    """Odd-numbered clients take visibly longer than even ones."""

    name = "fedavg"

    def _client_update(self, round_idx, client_id):
        if client_id % 2 == 1:
            time.sleep(0.05)
        return super()._client_update(round_idx, client_id)


def test_slow_clients_under_chunked_scheduling_stay_bit_identical(fed):
    """Heterogeneous client cost skews chunk finish times — completion
    order differs from selection order, the results must not."""
    from repro.fl.trainer import run_federated

    config = _config(seed=24)
    serial_alg = _SlowClientsFedAvg()
    serial_hist = run_federated(serial_alg, fed, tiny_model_fn(fed), config)

    chunked_config = config.with_updates(num_workers=2, executor="process")
    chunked_alg = _SlowClientsFedAvg()
    chunked_hist = run_federated(chunked_alg, fed, tiny_model_fn(fed), chunked_config)
    assert not chunked_alg.executor.degraded
    assert_equivalent_runs((serial_alg, serial_hist), (chunked_alg, chunked_hist))


class _PoisonedFedAvg(FedAvg):
    """Client 2's task kills its worker process — but only when actually
    running inside a worker, so the serial fallback completes cleanly."""

    name = "fedavg"

    def __init__(self) -> None:
        super().__init__()
        self._spawn_pid = os.getpid()

    def _client_update(self, round_idx, client_id):
        if client_id == 2 and os.getpid() != self._spawn_pid:
            os._exit(17)
        return super()._client_update(round_idx, client_id)


def test_worker_crash_degrades_to_serial_with_identical_results(fed):
    """Every worker that takes client 2 dies, so the redispatches run out
    of workers: the round degrades gracefully, once."""
    from repro.fl.trainer import run_federated

    config = _config(seed=25)
    reference = FedAvg()
    reference_hist = run_federated(reference, fed, tiny_model_fn(fed), config)

    crashing = _PoisonedFedAvg()
    with pytest.warns(RuntimeWarning, match="socket client serving disabled"):
        crashing_hist = run_federated(
            crashing, fed, tiny_model_fn(fed),
            config.with_updates(num_workers=4, executor="process"),
        )
    assert crashing.executor.degraded
    assert_equivalent_runs((reference, reference_hist), (crashing, crashing_hist))


class _DiesOnceFedAvg(FedAvg):
    """The first worker to receive client 2 exits on the spot; the
    marker file it creates makes that happen once a run."""

    name = "fedavg"

    def __init__(self, marker: str) -> None:
        super().__init__()
        self._spawn_pid = os.getpid()
        self._marker = marker

    def _client_update(self, round_idx, client_id):
        if client_id == 2 and os.getpid() != self._spawn_pid:
            try:
                os.close(os.open(self._marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os._exit(17)
        return super()._client_update(round_idx, client_id)


def test_dead_worker_is_redispatched_without_degrading(fed, tmp_path):
    """One dead worker is routed around: its unfinished clients go to the
    others and the run stays on the workers, with no warning."""
    from repro.fl.trainer import run_federated

    config = _config(seed=27)
    reference = FedAvg()
    reference_hist = run_federated(reference, fed, tiny_model_fn(fed), config)

    marker = str(tmp_path / "died")
    dying = _DiesOnceFedAvg(marker)
    tracer = Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dying_hist = run_federated(
            dying, fed, tiny_model_fn(fed),
            config.with_updates(num_workers=2, executor="process"), tracer=tracer,
        )
    assert os.path.exists(marker)
    assert not dying.executor.degraded
    assert tracer.metrics.counter("serve.redispatches").value >= 1
    assert_equivalent_runs((reference, reference_hist), (dying, dying_hist))


def test_sparse_compression_rides_the_wire_bit_identically(fed):
    """TopK updates travel as int32 index + value streams from the pool;
    the parent-side reconstruction must match serial compress()."""
    config = _config(seed=26, compression="topk:0.25", error_feedback=False)
    serial = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    parallel = run_with_workers("fedavg", {}, fed, config, num_workers=4)
    assert not parallel[0].executor.degraded
    assert_equivalent_runs(serial, parallel)


class _CommitRecordingFedAvg(_PoisonedFedAvg):
    """The poisoned client, with every commit the parent makes recorded
    as ``(round, client)``."""

    def __init__(self) -> None:
        super().__init__()
        self.commits: list[tuple[int, int]] = []

    def _commit_client(self, round_idx, update):
        self.commits.append((round_idx, update.client_id))
        super()._commit_client(round_idx, update)


def test_worker_loss_mid_wave_finishes_the_rest_in_process(fed):
    """One client in flight at a time, so clients 0 and 1 are committed
    and folded before client 2 kills every worker it is handed to: the
    wave degrades mid-way, clients 2 and 3 train in process, and no
    update is committed (or folded) twice."""
    from repro.fl.trainer import run_federated
    from repro.serve.server import ServeExecutor

    config = _config(seed=28)
    reference = FedAvg()
    reference_hist = run_federated(reference, fed, tiny_model_fn(fed), config)

    crashing = _CommitRecordingFedAvg()
    committed_at_degrade = []

    class Recording(ServeExecutor):
        def _degrade(self, reason):
            committed_at_degrade.append(len(crashing.commits))
            return super()._degrade(reason)

    crashing.with_executor(Recording(2, name="process", max_inflight=1))
    with pytest.warns(RuntimeWarning, match="socket client serving disabled"):
        crashing_hist = run_federated(crashing, fed, tiny_model_fn(fed), config)
    assert crashing.executor.degraded
    assert committed_at_degrade == [2]
    clients = list(range(fed.num_clients))
    assert crashing.commits == [(r, c) for r in range(config.rounds) for c in clients]
    assert_equivalent_runs((reference, reference_hist), (crashing, crashing_hist))
