"""Declared algorithm state: every per-client table is a DeltaTable.

An algorithm declares its server state once (``state_slots``) and the
base class derives the worker broadcast and the checkpoint from it.
These tests hold what that buys and what it must keep: SCAFFOLD's
client controls and MOON's previous models scale with who participated,
not with the population; a never-reported MOON client reads the initial
model on the server and on a worker; the checkpoint keys and worker
segment names are the ones checkpoints and frames were written with;
and the dense ``client_controls`` / ``prev_params`` sections older
checkpoints hold still resume bit for bit.
"""

from __future__ import annotations

import copy
import tracemalloc

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, make_algorithm
from repro.algorithms.base import FederatedAlgorithm
from repro.ckpt.format import pack_tree, read_checkpoint, unpack_tree, write_checkpoint
from repro.ckpt.state import SECTION_ALGORITHM
from repro.core.delta import CohortRows, DeltaTable, RowBlocks
from repro.data import make_virtual_federation
from repro.fl import wire
from repro.fl.config import FLConfig
from repro.fl.trainer import run_federated
from repro.nn.serialization import get_flat_params
from tests.conftest import make_toy_federation
from tests.helpers import assert_equivalent_runs, run_with_workers, tiny_model_fn

OWN_ROW_TABLES = {"scaffold": "client_controls", "moon": "_prev_params"}
DENSE_KEYS = {"scaffold": "client_controls", "moon": "prev_params"}
STATE_METHODS = (
    "_worker_state", "_install_worker_state", "checkpoint_state", "restore_checkpoint_state",
)


def test_state_methods_are_derived_once():
    for cls in ALGORITHMS.values():
        for method in STATE_METHODS:
            assert getattr(cls, method) is getattr(FederatedAlgorithm, method), (
                cls.__name__, method
            )


# Checkpoint keys and worker segment names, byte for byte as written
# before the slots were declared.
EXPECTED_KEYS = {
    "fedavg": (
        dict(compression="topk:0.25|qsgd:8"),
        ["ef_residuals"],
        ["global_params", "ef.cohort", "ef.ids", "ef.rows"],
    ),
    "scaffold": (
        {},
        ["server_control", "client_controls"],
        ["global_params", "server_control", "controls.cohort", "controls.ids", "controls.rows"],
    ),
    "moon": ({}, ["prev_params"], ["global_params", "prev.cohort", "prev.ids", "prev.rows"]),
    "rfedavg+": (
        dict(compression="topk:0.25", sync_compression="qsgd:8"),
        [
            "ef_residuals", "delta_ids", "delta_rows", "delta_reported",
            "sync_model_residual", "sync_delta_residuals",
        ],
        [
            "global_params", "ef.cohort", "ef.ids", "ef.rows",
            "delta_ids", "delta_rows", "delta_reported",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_KEYS))
def test_checkpoint_keys_and_worker_segments_keep_their_names(name):
    overrides, checkpoint_keys, worker_keys = EXPECTED_KEYS[name]
    fed = make_toy_federation(similarity=0.0)
    algorithm = make_algorithm(name)
    algorithm.setup(tiny_model_fn(fed)(), fed, FLConfig(rounds=1, **overrides))
    state = algorithm.checkpoint_state()
    assert list(state) == checkpoint_keys
    for key in ("ef_residuals", "client_controls", "prev_params", "sync_delta_residuals"):
        if key in state:
            assert sorted(state[key]) == ["delta_ids", "delta_reported", "delta_rows"]
    assert list(algorithm._worker_state([0, 2])) == worker_keys


def test_derived_checkpoint_hands_table_rows_to_the_writer_uncopied():
    fed = make_toy_federation(similarity=0.0, num_clients=8)
    algorithm = make_algorithm("fedavg")
    algorithm.setup(tiny_model_fn(fed)(), fed, FLConfig(rounds=1, compression="topk:0.25"))
    table = algorithm._residuals
    for client in (1, 4, 6):
        table.update(client, np.full(algorithm.model_size, float(client)))
    rows = algorithm.checkpoint_state()["ef_residuals"]["delta_rows"]
    assert isinstance(rows, RowBlocks)
    assert all(block.base is table._rows[c] for block, c in zip(rows.blocks, (1, 4, 6)))


# -- population scale ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(OWN_ROW_TABLES))
def test_population_scale_holds_participants_rows_only(name):
    """Two rounds on 200 000 virtual clients: every per-client slot holds
    the rows of clients that took part, and nothing ever allocated
    anything near one (N, d) table (3 GB at this model size)."""
    population = 200_000
    fed = make_virtual_federation(population, seed=0, num_test=32)
    config = FLConfig(
        rounds=2, local_steps=2, batch_size=8, lr=0.1, seed=3,
        sample_ratio=0.0001, sampler="reservoir",
    )
    algorithm = make_algorithm(name)
    tracemalloc.start()
    try:
        history = run_federated(algorithm, fed, tiny_model_fn(fed), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    participants = sum(record.num_selected for record in history.records)
    assert participants == 40
    tables = [
        value for slot, value in algorithm._live_slots() if isinstance(value, DeltaTable)
    ]
    assert tables and algorithm.state_slots[-1].name == OWN_ROW_TABLES[name]
    for table in tables:
        assert 0 < table.resident_rows <= participants
        assert table.resident_rows == len(table.reported_ids())
    assert peak < population * algorithm.model_size * 8 // 50


# -- MOON's default row ---------------------------------------------------------------


def test_moon_never_reported_client_reads_the_initial_model():
    fed = make_toy_federation(similarity=0.0, num_clients=8)
    model = tiny_model_fn(fed)()
    initial = get_flat_params(model)
    algorithm = make_algorithm("moon")
    algorithm.setup(model, fed, FLConfig(rounds=1))
    table = algorithm._prev_params
    table.update(2, np.ones(algorithm.model_size))

    assert table.resident_rows == 1
    assert table.get(5).tobytes() == initial.tobytes()
    assert table.full_table()[5].tobytes() == initial.tobytes()
    assert table.full_table()[2].tobytes() == np.ones(algorithm.model_size).tobytes()

    state = algorithm._worker_state([2, 5])
    assert list(state["prev.ids"]) == [2]  # the default never travels
    worker = copy.copy(algorithm)
    worker._install_worker_state(wire.unpack_state(wire.pack_state(state)))
    rows = worker._prev_params
    assert isinstance(rows, CohortRows)
    assert rows.get(5).tobytes() == initial.tobytes()
    assert rows.get(2).tobytes() == np.ones(algorithm.model_size).tobytes()
    with pytest.raises(ValueError):
        rows.get(5)[0] = 0.0  # the one stored default row is read-only
    # A second round's install still knows the default.
    worker._install_worker_state(wire.unpack_state(wire.pack_state(algorithm._worker_state([6]))))
    assert worker._prev_params.get(6).tobytes() == initial.tobytes()


# -- parent-format dense sections -------------------------------------------------------


def _config(**overrides) -> FLConfig:
    base = dict(rounds=4, local_steps=2, batch_size=8, lr=0.1, seed=23, sample_ratio=0.5)
    base.update(overrides)
    return FLConfig(**base)


@pytest.mark.parametrize("name", sorted(DENSE_KEYS))
def test_dense_parent_section_resumes_bit_for_bit(name, tmp_path):
    """A checkpoint whose per-client table is the dense (N, d) array
    (how ``client_controls`` / ``prev_params`` were written before they
    were DeltaTables) restores with every row's bytes, only the rows
    that left the default resident, and resumes into the run the sparse
    checkpoint and the uninterrupted run both produce."""
    fed = make_toy_federation(similarity=0.0, num_clients=8)
    baseline = run_with_workers(name, {}, fed, _config(), num_workers=1)
    resumed = {}
    for form in ("sparse", "dense"):
        ckpt_dir = tmp_path / form
        config = _config(checkpoint_dir=str(ckpt_dir), checkpoint_keep=50)
        run_with_workers(name, {}, fed, config, num_workers=1)
        kept = ckpt_dir / "ckpt-00000001.rck"
        for path in ckpt_dir.glob("ckpt-*.rck"):
            if path != kept:
                path.unlink()
        if form == "dense":
            manifest, sections = read_checkpoint(kept)
            state = unpack_tree(sections[SECTION_ALGORITHM])
            sparse = state[DENSE_KEYS[name]]
            table = DeltaTable(fed.num_clients, sparse["delta_rows"].shape[1])
            table.restore_checkpoint_segments(sparse)
            dense = table.full_table()
            if name == "moon":  # never-trained clients hold the initial model
                dense[~sparse["delta_reported"]] = get_flat_params(tiny_model_fn(fed)())
            state[DENSE_KEYS[name]] = dense
            sections[SECTION_ALGORITHM] = pack_tree(state)
            write_checkpoint(kept, manifest["meta"], sections)
        algorithm = make_algorithm(name)
        restored = []  # (resident ids, full table) right after the restore
        restore = algorithm.restore_checkpoint_state

        def spy(state, algorithm=algorithm, restore=restore, restored=restored):
            restore(state)
            table = getattr(algorithm, OWN_ROW_TABLES[name])
            restored.append((table.reported_ids(), table.full_table()))

        algorithm.restore_checkpoint_state = spy
        history = run_federated(
            algorithm, fed, tiny_model_fn(fed), config.with_updates(resume=True)
        )
        resumed[form] = (algorithm, history)
        [(ids, full)] = restored
        if form == "dense":
            np.testing.assert_array_equal(ids, sparse_ids)
            assert full.tobytes() == dense.tobytes()
        else:
            sparse_ids = ids
            assert 0 < len(ids) < fed.num_clients  # partial participation
    assert_equivalent_runs(baseline, resumed["sparse"])
    assert_equivalent_runs(baseline, resumed["dense"])
