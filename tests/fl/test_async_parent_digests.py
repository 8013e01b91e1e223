"""Async runs end where the commit before deferred training ended.

The buffered-event step trains an update at the drain that pops its
arrival (or at a checkpoint), against the state its dispatch round
recorded, instead of at dispatch.  Nothing a run computes may move: the
digests below were RECORDED FROM THE COMMIT THAT STILL TRAINED AT
DISPATCH, on a shape where that difference shows — a buffer smaller than
the cohort, heterogeneous runtimes, no dispatch cap, so updates land
stale, rounds commit updates from several dispatch rounds, and updates
are still in flight when the round budget ends.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.ckpt.format import pack_tree, read_checkpoint, unpack_tree
from repro.fl import parallel
from repro.fl.config import FLConfig
from repro.fl.parallel import SerialExecutor
from repro.fl.trainer import run_federated
from repro.obs import sysinfo
from repro.obs.trace import Tracer
from tests.conftest import make_toy_federation
from tests.helpers import run_with_workers, tiny_model_fn

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EXECUTORS = {"serial": 1, "process": 2}

# case -> (algorithm, constructor kwargs, config overrides,
#          sha256 of the final parameters, sha256 of the async history JSON)
PARENT_DIGESTS = {
    # Reads every client's row of the delta table, leave-one-out.
    "rfedavg+": (
        "rfedavg+", {"lam": 1e-3}, {},
        "559e68ec16f21f2682f2b3af5241d1231c78c5c6f7ed61442f509c972cf7962a",
        "7f20973086e3d3960b065507098440bba09e2bfce7f5dc17e7237202204d6517",
    ),
    # Reads the whole table.
    "rfedavg": (
        "rfedavg", {"lam": 1e-3}, {},
        "f4a649d02519f1d27e8ab499f2b1200577906a0cde885163cc8ad2e8f79123ec",
        "e1e61a0c179960112b8f917705471a29c03c4a7348e7ab507410fb98fb8e481f",
    ),
    # Per-client tables read at the client's own row.
    "scaffold": (
        "scaffold", {}, {},
        "ce4a8995570a34a1fc57003a7380eb954a733c4d87aac8d268562747f1193f5a",
        "66fcf38d0bd60d7d6967210526026f94ea0641ad76135d5e273766139642c137",
    ),
    "moon": (
        "moon", {"mu": 0.5}, {},
        "c40ddf1a4920f4718d9d35567d6b4ea7711b783ff0cdfc90e6e97166266c4c7c",
        "5e4521c5d0df8d8eb8a0e60fcbaf1bf382e5e94fed2f60a8fd623a3d69582ede",
    ),
    # Error-feedback rows, read at dispatch and committed at flush.
    "fedavg-ef": (
        "fedavg", {}, {"compression": "topk:0.05|qsgd:8"},
        "79a0c6622a70d216ddf08bc7873beef294cbb233ed98b08913faa6c9c22c73be",
        "d2cd4e2c3711875651f27c34c1c94c2b89f84e22da32e0866f8b0d973355fb3c",
    ),
}

# sha256 of the async section of the checkpoint written after round 2 of
# the rfedavg+ case (three events in flight), RECORDED FROM THAT COMMIT.
# Each event's ``train_seconds`` is wall clock, which no two runs share,
# so it is zeroed on both sides before hashing; every other byte counts.
PARENT_ASYNC_SECTION = "b1514bb8a62a25f312ebcb5e0228b2005e4077776aaaae5705c7929d8b12f1c5"


@pytest.fixture(scope="module")
def fed():
    return make_toy_federation(similarity=0.0, num_clients=6)


def _config(**overrides) -> FLConfig:
    base = dict(
        rounds=5, local_steps=2, batch_size=8, lr=0.1, seed=23, sample_ratio=0.5,
        execution="async", runtime="gaussian:mean=1,std=0.1,het=1",
        buffer_size=2, dispatch_cap=False,
    )
    base.update(overrides)
    return FLConfig(**base)


def _digests(algorithm, history) -> tuple[str, str]:
    assert not getattr(algorithm.executor, "degraded", False)
    params = hashlib.sha256(algorithm.global_params.tobytes()).hexdigest()
    records = json.dumps(history.async_history.to_dict(), sort_keys=True)
    return params, hashlib.sha256(records.encode()).hexdigest()


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("case", PARENT_DIGESTS)
def test_final_params_are_the_parents(fed, case, executor):
    name, kwargs, overrides, params_digest, history_digest = PARENT_DIGESTS[case]
    algorithm, history = run_with_workers(
        name, kwargs, fed, _config(**overrides), num_workers=EXECUTORS[executor]
    )
    async_history = history.async_history
    assert async_history.max_staleness() > 0
    assert async_history.discarded_updates > 0
    assert _digests(algorithm, history) == (params_digest, history_digest)


@pytest.mark.parametrize("case", PARENT_DIGESTS)
def test_auto_runs_that_train_ahead_are_the_parents(fed, case, monkeypatch):
    """``executor='auto'`` with a hand-off threshold of 0 (and no
    speedup check) sends every drain after the probe to the workers,
    and the slot a drain leaves idle trains the earliest pending update
    before it lands.  Nothing a run computes moves.  A drain here is two
    units (``buffer_size=2``, no stacking), which two workers fill, so
    the case runs three."""
    monkeypatch.setattr(sysinfo.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(parallel, "HANDOFF_SECONDS", 0.0)
    monkeypatch.setattr(parallel, "speedup", lambda updates, elapsed: float("inf"))
    name, kwargs, overrides, params_digest, history_digest = PARENT_DIGESTS[case]
    algorithm = make_algorithm(name, **kwargs)
    tracer = Tracer()
    history = run_federated(
        algorithm, fed, tiny_model_fn(fed),
        _config(executor="auto", num_workers=3, **overrides), tracer=tracer,
    )
    assert algorithm.executor.placement == "process"
    assert tracer.metrics.counter("async.trained_ahead").value > 0
    assert _digests(algorithm, history) == (params_digest, history_digest)


def test_mid_run_async_section_is_the_parents(fed, tmp_path):
    """A checkpoint trains the updates still pending, so the section it
    writes holds trained updates, byte for byte the ones dispatch-time
    training put there."""
    config = _config(checkpoint_dir=str(tmp_path), checkpoint_every=1, checkpoint_keep=50)
    run_with_workers("rfedavg+", {"lam": 1e-3}, fed, config, num_workers=1)
    _manifest, sections = read_checkpoint(tmp_path / "ckpt-00000002.rck")
    tree = unpack_tree(sections["async"])
    assert pack_tree(tree) == bytes(sections["async"])
    events = tree["queue"]["events"]
    assert len(events) == 3
    for event in events:
        event["update"]["train_seconds"] = 0.0
    assert hashlib.sha256(pack_tree(tree)).hexdigest() == PARENT_ASYNC_SECTION


class _CountingExecutor(SerialExecutor):
    def __init__(self) -> None:
        self.trained: list[tuple[int, int]] = []

    def run(self, algorithm, round_idx, client_ids):
        self.trained += [(round_idx, int(c)) for c in client_ids]
        return super().run(algorithm, round_idx, client_ids)


def _sent140_bench_shape():
    """The federation, config and model of the test below."""
    from repro.experiments import presets

    fed = presets.build_sent140_federation(
        seed=5, num_users=25, tweets_per_user=60.0, seq_len=22, vocab_size=400
    )
    config = presets.cross_device_config(
        seed=5, rounds=4, eval_every=2, optimizer="rmsprop", lr=0.01,
        execution="async", runtime="gaussian:mean=1,std=0.1,het=1",
        buffer_size=3, dispatch_cap=False,
    )
    return fed, config, presets.default_model_fn("lstm", fed.spec, seed=5, scale=0.25)


def test_the_sent140_bench_shape_trains_only_what_lands():
    """Four rounds of five dispatched clients drain three updates each:
    twelve land and are trained, eight are still in flight at the end
    and never are."""
    from repro.algorithms import make_algorithm
    from repro.experiments import presets
    from repro.fl.trainer import run_federated

    fed = presets.build_sent140_federation(
        seed=5, num_users=25, tweets_per_user=60.0, seq_len=22, vocab_size=400
    )
    config = presets.cross_device_config(
        seed=5, rounds=4, eval_every=2, optimizer="rmsprop", lr=0.01,
        execution="async", runtime="gaussian:mean=1,std=0.1,het=1",
        buffer_size=3, dispatch_cap=False,
    )
    executor = _CountingExecutor()
    algorithm = make_algorithm("rfedavg+", lam=1e-2).with_executor(executor)
    history = run_federated(
        algorithm, fed, presets.default_model_fn("lstm", fed.spec, seed=5, scale=0.25), config
    )
    async_history = history.async_history
    assert sum(record.num_selected for record in history.records) == 20
    assert async_history.discarded_updates == 8
    assert len(executor.trained) == len(async_history.records) == 12
    assert sorted(executor.trained) == sorted(
        (record.dispatch_round, record.client_id) for record in async_history.records
    )
    assert np.isfinite(algorithm.global_params).all()


def test_the_sent140_bench_shape_on_two_workers_trains_at_most_one_ahead_a_drain():
    """On two workers a drain of an odd number of units leaves a slot
    idle, which trains the earliest pending update: at most W - 1 = 1
    more a drain than land, none in the final round, and each update at
    most once.  The run is the serial one."""
    fed, config, model_fn = _sent140_bench_shape()
    serial = make_algorithm("rfedavg+", lam=1e-2)
    serial_history = run_federated(serial, fed, model_fn, config)
    algorithm = make_algorithm("rfedavg+", lam=1e-2)
    calls: list[list[tuple[int, int]]] = []
    setup = algorithm.setup

    def setup_and_record(*args):
        setup(*args)
        run_regions = algorithm.executor.run_regions

        def recording(alg, round_idx, groups):
            calls.append([(group[2], int(c)) for group in groups for c in group[0]])
            return run_regions(alg, round_idx, groups)

        algorithm.executor.run_regions = recording

    algorithm.setup = setup_and_record
    tracer = Tracer()
    history = run_federated(
        algorithm, fed, model_fn, config.with_updates(executor="process", num_workers=2),
        tracer=tracer,
    )
    np.testing.assert_array_equal(algorithm.global_params, serial.global_params)
    assert history.async_history.to_dict() == serial_history.async_history.to_dict()
    records = history.async_history.records
    landed = {(record.dispatch_round, record.client_id) for record in records}
    trained = [pair for call in calls for pair in call]
    drains = config.rounds
    assert len(calls) == drains
    assert len(set(trained)) == len(trained)
    assert landed <= set(trained)
    assert len(landed) < len(trained) <= len(landed) + (2 - 1) * (drains - 1)
    final = {(r.dispatch_round, r.client_id) for r in records if r.flush_round == drains - 1}
    assert set(calls[-1]) <= final
    ahead = tracer.metrics.counter("async.trained_ahead").value
    assert ahead >= len(trained) - len(landed)


class _OneSpareSlotExecutor(_CountingExecutor):
    """The serial engine, claiming one idle worker slot at every call."""

    def __init__(self) -> None:
        super().__init__()
        self.drains: list[int] = []  # where each call's trained pairs start

    def spare_slots(self, units: int) -> int:
        return 1

    def run_regions(self, algorithm, round_idx, regions):
        self.drains.append(len(self.trained))
        return super().run_regions(algorithm, round_idx, regions)


def test_a_spare_slot_trains_one_ahead_a_drain_but_not_in_the_final_round():
    """Every drain but the last trains one pending update ahead of its
    landing, none is trained twice, and the last drain trains only
    updates that land in it."""
    fed, config, model_fn = _sent140_bench_shape()
    executor = _OneSpareSlotExecutor()
    algorithm = make_algorithm("rfedavg+", lam=1e-2).with_executor(executor)
    tracer = Tracer()
    history = run_federated(algorithm, fed, model_fn, config, tracer=tracer)
    records = history.async_history.records
    landed = {(record.dispatch_round, record.client_id) for record in records}
    assert len(executor.drains) == config.rounds
    assert len(set(executor.trained)) == len(executor.trained)
    assert landed <= set(executor.trained)
    ahead = tracer.metrics.counter("async.trained_ahead").value
    assert ahead == config.rounds - 1
    assert len(executor.trained) <= len(landed) + ahead
    final = {(r.dispatch_round, r.client_id) for r in records if r.flush_round == config.rounds - 1}
    assert set(executor.trained[executor.drains[-1] :]) <= final
