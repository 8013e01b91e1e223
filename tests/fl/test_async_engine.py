"""The event-driven async execution engine (repro.fl.async_engine).

Buffering/staleness semantics, the History/RoundRecord-symmetric JSON
contract of AsyncHistory/AsyncUpdateRecord, checkpoint/resume
bit-identity, and the run_federated dispatch plumbing.  Zero-latency
async == sync for every algorithm is the ``async-instant`` leg of
``tests/test_engine_identity.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.exceptions import CheckpointError, ConfigError
from repro.fl.async_engine import AsyncHistory, AsyncUpdateRecord
from repro.fl.config import FLConfig
from repro.fl.runtime import TraceRuntime
from repro.fl.trainer import run_federated
from repro.obs.trace import Tracer
from tests.conftest import make_toy_federation
from tests.helpers import assert_equivalent_runs, simulate_crash, tiny_model_fn

# A worker-engine leg that degrades to serial warns, and must fail here
# rather than pass as the serial engine.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# Toy federation has 4 clients; two fast, two 10x slower — with a
# 3-deep buffer the slow clients' updates land one round late.
STRAGGLER_TIMES = [0.1, 0.1, 1.0, 1.0]


@pytest.fixture(scope="module")
def fed():
    return make_toy_federation(similarity=0.0)


def _config(**overrides) -> FLConfig:
    base = dict(
        rounds=4, local_steps=2, batch_size=8, lr=0.1, seed=11,
        execution="async",
    )
    base.update(overrides)
    return FLConfig(**base)


def _run(fed, config, algorithm="fedavg", runtime=None, **kwargs):
    alg = make_algorithm(algorithm)
    history = run_federated(
        alg, fed, tiny_model_fn(fed), config, runtime=runtime, **kwargs
    )
    return alg, history


# -- JSON contract (symmetric with History/RoundRecord) -----------------------------


def test_update_record_json_round_trip():
    """A checkpoint stores the record's dict as JSON."""
    record = AsyncUpdateRecord(
        update_idx=3, sim_time=1.25, client_id=2, staleness=1,
        effective_weight=0.7071, train_loss=0.42, test_accuracy=0.9,
        dispatch_round=1, flush_round=2,
    )
    assert AsyncUpdateRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record


def test_update_record_from_dict_ignores_unknown_keys():
    record = AsyncUpdateRecord(
        update_idx=0, sim_time=0.0, client_id=1, staleness=0,
        effective_weight=1.0, train_loss=1.0,
    )
    data = {**record.to_dict(), "future_field": "ignored"}
    assert AsyncUpdateRecord.from_dict(data) == record


def test_async_history_json_round_trip(fed):
    _alg, history = _run(
        fed, _config(buffer_size=3), runtime=TraceRuntime(STRAGGLER_TIMES)
    )
    original = history.async_history
    restored = AsyncHistory.from_dict(json.loads(json.dumps(original.to_dict())))
    assert restored.to_dict() == original.to_dict()
    assert restored.records == original.records
    assert restored.final_accuracy == original.final_accuracy
    assert restored.discarded_updates == original.discarded_updates


# -- buffering / staleness semantics ------------------------------------------------


def test_full_cohort_buffer_has_no_staleness(fed):
    _alg, history = _run(fed, _config())  # instant runtime, buffer = cohort
    async_history = history.async_history
    assert len(async_history.records) == 4 * fed.num_clients
    assert async_history.max_staleness() == 0
    assert async_history.discarded_updates == 0
    assert all(r.effective_weight == 1.0 for r in async_history.records)


def test_straggler_updates_arrive_stale_and_discounted(fed):
    _alg, history = _run(
        fed, _config(buffer_size=3, staleness_exponent=0.5),
        runtime=TraceRuntime(STRAGGLER_TIMES),
    )
    async_history = history.async_history
    stale = [r for r in async_history.records if r.staleness > 0]
    assert stale, "straggler schedule produced no stale arrivals"
    for record in stale:
        expected = (1.0 + record.staleness) ** -0.5
        assert record.effective_weight == pytest.approx(expected)
        assert record.dispatch_round < record.flush_round
    # In-flight updates at the end of the round budget are dropped.
    assert async_history.discarded_updates > 0


def test_zero_exponent_disables_discount_but_not_rebasing(fed):
    _alg, history = _run(
        fed, _config(buffer_size=3, staleness_exponent=0.0),
        runtime=TraceRuntime(STRAGGLER_TIMES),
    )
    stale = [r for r in history.async_history.records if r.staleness > 0]
    assert stale and all(r.effective_weight == 1.0 for r in stale)


def test_buffer_size_caps_flush_batches(fed):
    _alg, history = _run(
        fed, _config(buffer_size=2), runtime=TraceRuntime(STRAGGLER_TIMES)
    )
    per_flush = {}
    for record in history.async_history.records:
        per_flush[record.flush_round] = per_flush.get(record.flush_round, 0) + 1
    assert max(per_flush.values()) <= 2
    # The dispatch cap defers cohort members whose previous update is
    # still in flight, so backlogged rounds dispatch fewer clients than
    # they sample; dispatch_cap=False restores the legacy re-dispatch.
    assert all(r.num_selected <= fed.num_clients for r in history.records)
    assert any(r.num_selected < fed.num_clients for r in history.records)
    _alg, legacy = _run(
        fed, _config(buffer_size=2, dispatch_cap=False),
        runtime=TraceRuntime(STRAGGLER_TIMES),
    )
    assert all(r.num_selected == fed.num_clients for r in legacy.records)


def test_dispatch_cap_bounds_inflight_backlog(fed):
    """Regression for the async backlog bug: with a small buffer and a
    long-tail runtime, re-dispatching still-in-flight clients grows the
    event queue without bound; the dispatch cap keeps the backlog (and
    the terminal discard count) bounded by the population."""
    config = _config(rounds=12, buffer_size=1)
    _alg, capped = _run(fed, config, runtime=TraceRuntime(STRAGGLER_TIMES))
    assert capped.async_history.discarded_updates <= fed.num_clients
    _alg, uncapped = _run(
        fed, config.with_updates(dispatch_cap=False),
        runtime=TraceRuntime(STRAGGLER_TIMES),
    )
    assert uncapped.async_history.discarded_updates > fed.num_clients


def test_dispatch_cap_keeps_inflight_gauge_bounded(fed):
    tracer = Tracer()
    inflight = []

    def sample(_record):
        inflight.append(tracer.metrics.gauge("async.inflight").value)

    _run(
        fed, _config(rounds=10, buffer_size=1),
        runtime=TraceRuntime(STRAGGLER_TIMES),
        tracer=tracer, callbacks=[sample],
    )
    assert len(inflight) == 10
    assert max(inflight) <= fed.num_clients
    assert tracer.metrics.state_dict()["counters"]["async.deferred_dispatches"] > 0


def test_sim_clock_is_monotone(fed):
    _alg, history = _run(
        fed, _config(buffer_size=3, runtime="gaussian:het=1.0,std=0.2")
    )
    sim_times = [r.sim_time for r in history.async_history.records]
    assert sim_times == sorted(sim_times)


def test_runtime_spec_from_config_matches_instance(fed):
    spec = "gaussian:het=1.5,std=0.2"
    _, from_spec = _run(fed, _config(buffer_size=3, runtime=spec))
    from repro.fl.runtime import make_runtime

    instance = make_runtime(spec, fed.num_clients, seed=11)
    _, from_instance = _run(fed, _config(buffer_size=3), runtime=instance)
    assert (
        from_spec.async_history.to_dict() == from_instance.async_history.to_dict()
    )


def test_sync_execution_rejects_runtime_kwarg(fed):
    with pytest.raises(ConfigError, match="async"):
        _run(fed, _config(execution="sync"), runtime=TraceRuntime([1.0] * 4))


# -- observability ------------------------------------------------------------------


def test_traced_async_run_emits_staleness_metrics(fed):
    tracer = Tracer()
    _alg, _history = _run(
        fed, _config(buffer_size=3), runtime=TraceRuntime(STRAGGLER_TIMES),
        tracer=tracer,
    )
    snapshot = tracer.metrics.state_dict()
    assert "async.staleness" in snapshot["histograms"]
    assert "async.buffer_occupancy" in snapshot["gauges"]
    assert "async.sim_time" in snapshot["gauges"]
    assert snapshot["counters"]["async.stale_updates"] > 0


def test_async_artifacts_include_update_log(fed, tmp_path):
    from repro.obs.exporters import write_run_artifacts

    _alg, history = _run(fed, _config(buffer_size=3),
                         runtime=TraceRuntime(STRAGGLER_TIMES))
    out = write_run_artifacts(tmp_path / "run", history)
    async_json = Path(out) / "async.json"
    assert async_json.is_file()
    restored = AsyncHistory.from_dict(json.loads(async_json.read_text()))
    assert restored.to_dict() == history.async_history.to_dict()


# -- checkpoint / resume ------------------------------------------------------------


def _crash_and_resume_async(fed, tmp_path, config):
    baseline = _run(fed, config, runtime=TraceRuntime(STRAGGLER_TIMES))
    ckpt_dir = tmp_path / "ckpt"
    ckpt_config = config.with_updates(
        checkpoint_dir=str(ckpt_dir), checkpoint_keep=50
    )
    _run(fed, ckpt_config, runtime=TraceRuntime(STRAGGLER_TIMES))
    simulate_crash(ckpt_dir, 2, config.rounds)
    resumed = _run(
        fed, ckpt_config.with_updates(resume=True),
        runtime=TraceRuntime(STRAGGLER_TIMES),
    )
    return baseline, resumed


def test_async_crash_resume_is_bit_identical(fed, tmp_path):
    """Resume restores the event heap: in-flight straggler updates
    dispatched before the crash still arrive, stale, after it."""
    baseline, resumed = _crash_and_resume_async(
        fed, tmp_path, _config(rounds=6, buffer_size=3)
    )
    assert_equivalent_runs(baseline, resumed)
    assert (
        resumed[1].async_history.to_dict() == baseline[1].async_history.to_dict()
    )


def test_sync_checkpoint_refuses_async_resume(fed, tmp_path):
    ckpt_dir = tmp_path / "ckpt"
    sync_config = FLConfig(
        rounds=3, local_steps=1, batch_size=8, seed=11,
        checkpoint_dir=str(ckpt_dir),
    )
    _run(fed, sync_config)
    # Same config except execution mode: the provenance hash differs, so
    # the resume is refused before the missing async section matters.
    from repro.exceptions import CheckpointMismatchError

    with pytest.raises((CheckpointError, CheckpointMismatchError)):
        _run(fed, sync_config.with_updates(execution="async", resume=True))


def test_empty_buffer_round_keeps_model(fed):
    """A round whose entire cohort is still in flight must not aggregate."""
    from repro.fl.faults import FaultModel

    # Massive dropout can empty a cohort; the engine records a NaN-loss
    # round and the model survives unchanged.
    config = _config(rounds=3, sample_ratio=0.5, seed=5)
    alg = make_algorithm("fedavg")
    alg.with_faults(FaultModel(dropout_prob=0.95, seed=3))
    history = run_federated(alg, fed, tiny_model_fn(fed), config)
    assert len(history.records) == 3
    assert np.isfinite(alg.global_params).all()
