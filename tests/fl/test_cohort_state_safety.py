"""A worker reads exactly the rows its round's cohort broadcast carried.

Worker-side, an own-row table is a :class:`~repro.core.delta.CohortRows`
built from the broadcast: the parent's bytes for every cohort id, the
table's default row (zeros here) for a cohort id that never reported,
:class:`ProtocolError` for any
other id — an earlier round's row is gone, not stale.  And a table that
fills up round by round never forces a re-fork: the workers are forked
once a run and sent a fresh state frame every round.
"""

from __future__ import annotations

import copy
import multiprocessing.context
import warnings

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.core.delta import DeltaTable
from repro.exceptions import ProtocolError
from repro.fl import wire
from repro.fl.config import FLConfig
from repro.fl.trainer import run_federated
from repro.obs import Tracer
from repro.serve import protocol
from repro.serve.arena import RowArena
from tests.conftest import make_toy_federation
from tests.helpers import assert_equivalent_runs, tiny_model_fn

SPEC = "topk:0.05|qsgd:8"


def _worker_of(algorithm, cohort):
    """What a forked worker holds after adopting ``cohort``'s broadcast
    (through the packed format, as both executors deliver it)."""
    worker = copy.copy(algorithm)
    worker._install_worker_state(
        wire.unpack_state(wire.pack_state(algorithm._worker_state(cohort)))
    )
    return worker


# "dense": every row resident; "sharded": rows spill past a cap of 2.
@pytest.mark.parametrize("state_cap", [None, 2], ids=["dense", "sharded"])
def test_residual_rows_installed_from_a_cohort_broadcast(state_cap):
    fed = make_toy_federation(similarity=0.0, num_clients=16)
    algorithm = make_algorithm("fedavg")
    algorithm.setup(
        tiny_model_fn(fed)(), fed,
        FLConfig(rounds=1, compression=SPEC, state_cap=state_cap),
    )
    gen = np.random.default_rng(3)
    for client in (1, 2, 4, 7, 9, 11):
        algorithm._residuals.update(client, gen.normal(size=algorithm.model_size))

    worker = _worker_of(algorithm, [1, 4, 5, 9])
    for client in (1, 4, 9):
        row = worker._residuals.get(client)
        assert row.tobytes() == algorithm._residuals.get(client).tobytes()
        with pytest.raises(ValueError):
            row[0] = 0.0  # a view into the broadcast frame, never written
    never_reported = worker._residuals.get(5)
    assert never_reported.shape == (algorithm.model_size,) and not never_reported.any()
    for outsider in (2, 7, 0, 15):  # reported or not: not broadcast, not readable
        with pytest.raises(ProtocolError, match="outside the cohort"):
            worker._residuals.get(outsider)

    # The next round's install replaces the rows: round one's are gone.
    worker._install_worker_state(
        wire.unpack_state(wire.pack_state(algorithm._worker_state([2, 7])))
    )
    assert worker._residuals.get(7).tobytes() == algorithm._residuals.get(7).tobytes()
    with pytest.raises(ProtocolError):
        worker._residuals.get(1)
    # The parent's table is untouched by any of it.
    assert list(algorithm._residuals.reported_ids()) == [1, 2, 4, 7, 9, 11]


@pytest.mark.parametrize("state_cap", [None, 2], ids=["dense", "sharded"])
def test_a_served_block_reads_exactly_its_tasks_rows(state_cap):
    """The worker engine's split of a round state: the state frame
    carries neither the model (its own frame's) nor an own row, each
    task its own client's reported rows, and a block reads exactly the
    rows of its tasks."""
    fed = make_toy_federation(similarity=0.0, num_clients=16)
    algorithm = make_algorithm("scaffold")
    algorithm.setup(
        tiny_model_fn(fed)(), fed,
        FLConfig(rounds=1, compression=SPEC, state_cap=state_cap),
    )
    gen = np.random.default_rng(5)
    for client in (1, 2, 4, 7, 9, 11):
        algorithm._residuals.update(client, gen.normal(size=algorithm.model_size))
    for client in (1, 4, 5):
        algorithm.client_controls.update(client, gen.normal(size=algorithm.model_size))

    shared, rows = algorithm._served_state(algorithm._worker_state([1, 4, 5, 9, 12]))
    assert sorted(shared) == ["server_control"]
    assert {client: sorted(segments) for client, segments in rows.items()} == {
        1: ["controls.row", "ef.row"], 4: ["controls.row", "ef.row"],
        5: ["controls.row"], 9: ["ef.row"],
    }
    if state_cap is None:  # the table's own rows, not copies
        assert np.shares_memory(rows[9]["ef.row"], algorithm._residuals._rows[9])

    worker = copy.copy(algorithm)
    worker._install_worker_state(wire.unpack_state(wire.pack_state(shared)))
    with pytest.raises(ProtocolError, match="outside the cohort"):  # no block yet
        worker._residuals.get(1)
    block = [9, 1, 12]
    arena = RowArena.for_algorithm(algorithm, len(block))
    tasks = []
    for pos, cid in enumerate(block):
        filled, _copied = arena.fill(pos, rows.get(cid, {}))
        tasks.append(protocol.parse_message(
            protocol.build_task(0, pos, cid, 1, len(block), pos, filled)[wire.FRAME_PREFIX.size:]
        )[1])
    worker._install_rows(
        block, [arena.rows(task["serve.slot"], task["serve.rows"]) for task in tasks]
    )
    for table in ("_residuals", "client_controls"):
        for client in block:  # reported or not: the parent's bytes
            got = getattr(worker, table).get(client)
            assert got.tobytes() == getattr(algorithm, table).get(client).tobytes()
        for outsider in (4, 5, 2, 0):  # in the round's cohort or not
            with pytest.raises(ProtocolError, match="outside the cohort"):
                getattr(worker, table).get(outsider)


@pytest.mark.parametrize(
    "name, table", [("scaffold", "client_controls"), ("moon", "_prev_params")]
)
def test_array_tables_installed_from_a_cohort_broadcast(name, table):
    fed = make_toy_federation(similarity=0.0, num_clients=16)
    algorithm = make_algorithm(name)
    algorithm.setup(tiny_model_fn(fed)(), fed, FLConfig(rounds=1))
    gen = np.random.default_rng(4)
    for client, row in enumerate(gen.normal(size=(16, algorithm.model_size))):
        getattr(algorithm, table).update(client, row)

    worker = _worker_of(algorithm, [3, 8, 12])
    for client in (3, 8, 12):
        assert (
            getattr(worker, table).get(client).tobytes()
            == getattr(algorithm, table).get(client).tobytes()
        )
    with pytest.raises(ProtocolError, match="outside the cohort"):
        getattr(worker, table).get(4)
    # A task for a client outside the cohort fails instead of training
    # against a row that was never sent.
    with pytest.raises(ProtocolError, match="outside the cohort"):
        worker._client_update(0, 4)
    assert isinstance(getattr(algorithm, table), DeltaTable)


def _assert_pool_forks_once(monkeypatch, name, kwargs, feature_dim, overrides):
    forks = []
    state_packs = []
    pack_parts = wire.pack_parts
    start = multiprocessing.context.ForkProcess.start

    def counting_start(process):
        forks.append(1)
        start(process)

    def counting_pack_parts(kind, segments):
        if kind == "state":
            state_packs.append(1)
        return pack_parts(kind, segments)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
    monkeypatch.setattr(wire, "pack_parts", counting_pack_parts)
    fed = make_toy_federation(similarity=0.0, num_clients=16)
    model_fn = tiny_model_fn(fed, feature_dim=feature_dim)
    config = FLConfig(
        rounds=6, local_steps=2, batch_size=8, lr=0.1, seed=11,
        sample_ratio=0.25, **overrides,
    )
    serial = make_algorithm(name, **kwargs)
    serial_history = run_federated(serial, fed, model_fn, config)

    tracer = Tracer()
    state_bytes = []  # each round's state frame

    def record_state_bytes(record):
        sent = tracer.metrics.counter("serve.state_bytes").value
        state_bytes.append(sent - sum(state_bytes))

    algorithm = make_algorithm(name, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        history = run_federated(
            algorithm, fed, model_fn,
            config.with_updates(num_workers=2, executor="process"),
            tracer=tracer,
            callbacks=[record_state_bytes],
        )
    assert not algorithm.executor.degraded
    assert_equivalent_runs((serial, serial_history), (algorithm, history))
    table = getattr(algorithm, "delta_table", None)
    if table is None:  # the cohort's residuals ride in its tasks
        assert max(state_bytes) == state_bytes[0]
    else:
        # The whole table's state did outgrow the first round's by more
        # than 4 KB, and never by more than one row (+ id) a client.
        assert 4096 < max(state_bytes) - state_bytes[0] <= fed.num_clients * (table.dim * 8 + 8)
    assert len(forks) == 2  # num_workers, once a run
    assert len(state_packs) == config.rounds


def test_pool_forks_once_while_reported_rows_grow(monkeypatch):
    """Round 0 broadcasts no reported row, later rounds more of them.
    One fork per worker a run, one state pack per round, and the serial
    run's result — for a cohort's residual rows (in its tasks, so the
    state frame stays the size of round 0's), and for rFedAvg+'s delta
    table, broadcast whole with its reported rows only (up to a 2 KB row
    for each of 16 clients), flat and hierarchical."""
    _assert_pool_forks_once(monkeypatch, "fedavg", {}, 6, dict(compression=SPEC))
    for topology in ("flat", "hier:2:2"):
        _assert_pool_forks_once(
            monkeypatch, "rfedavg+", {"lam": 1e-3}, 256, dict(topology=topology)
        )
