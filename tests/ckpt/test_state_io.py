"""State I/O from views, not copies: what a save and a restore may hold.

A checkpoint section is written from pieces that alias live state, and
read back as read-only views a consumer copies once.  These tests pin
the memory side of that — nothing multi-megabyte outlives the call that
used it (no reference cycle, no driver-loop local), a save costs one
gather of the reported rows — and the two contracts it rests on: the
file holds the state as it was when ``save`` returned, and checkpoints
a parent commit wrote (a sync one, an async one with updates in flight)
still resume to that parent's result.

Each memory test fails at the parent commit for the reason it names.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.ckpt import format as ckpt_format
from repro.ckpt.format import pack_tree, read_checkpoint, unpack_tree, write_checkpoint
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.state import SECTION_ALGORITHM, capture_run_state
from repro.core.delta import DeltaTable
from repro.fl.comm import CommLedger
from repro.fl.config import FLConfig
from repro.fl.metrics import History
from tests.conftest import make_toy_federation
from tests.helpers import run_with_workers

DATA = Path(__file__).parent / "data"


@pytest.fixture
def no_gc():
    """Refcounting alone must free the buffers: a cycle would survive."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class _Blob(bytearray):
    """A section buffer that can be weakly referenced (``bytes`` and its
    subclasses cannot)."""


# -- nothing outlives its use -------------------------------------------------------


@pytest.mark.parametrize("packer", ["pack_tree", "pack_tree_parts"])
def test_packed_array_dies_with_the_callers_reference(tmp_path, no_gc, packer):
    """``pack_tree``'s recursive closure was a reference cycle that kept
    its ``arrays`` dict — a 16 MB gather per save — until a gen-2 GC."""
    table = np.ones(2_000_000)
    ref = weakref.ref(table)
    section = getattr(ckpt_format, packer)({"nested": {"table": table}, "n": 1})
    write_checkpoint(tmp_path / "c.rck", {"round_idx": 0}, {"s": section})
    del section, table
    assert ref() is None


@pytest.mark.parametrize("wrap", [_Blob, lambda b: np.frombuffer(b, dtype=np.uint8).copy()],
                         ids=["bytearray", "ndarray"])
def test_unpacked_buffer_dies_with_the_last_view(no_gc, wrap):
    """``unpack_tree.decode`` pinned the read blob the same way."""
    blob = wrap(pack_tree({"table": np.ones(2_000_000), "tags": [1, (2, 3)]}))
    ref = weakref.ref(blob)
    tree = unpack_tree(blob)
    kept = np.array(tree["table"], copy=True)  # the consumer's one copy
    del tree, blob
    assert ref() is None
    assert kept.flags.writeable and kept.sum() == 2_000_000


# -- one gather per save ------------------------------------------------------------


class _Residuals:
    """The slice of a FederatedAlgorithm ``capture_run_state`` reads,
    around a fully reported error-feedback table."""

    name = "fedavg"
    fault_model = None

    def __init__(self, num_clients: int, dim: int) -> None:
        gen = np.random.default_rng(5)
        self.table = DeltaTable(num_clients, dim)
        for client in range(num_clients):
            self.table.update(client, gen.normal(size=dim))
        self.global_params = gen.normal(size=dim)
        self.ledger = CommLedger()

    def checkpoint_state(self) -> dict:
        return {"ef_residuals": self.table.checkpoint_segments()}

    def hyperparameters(self) -> dict:
        return {}


def _capture(algorithm, config):
    return capture_run_state(
        round_idx=0,
        algorithm=algorithm,
        round_rng=np.random.default_rng(0),
        history=History(algorithm="fedavg"),
        config=config,
    )


def test_save_copies_no_rows_and_retains_nothing(tmp_path, no_gc):
    """The bench serve cell's table: 256 x 11 690 float64.  The parent
    materialized the rows five times per save (gather, ``.copy()``,
    ``tobytes()``, slice-assign, ``bytes(buf)``: a peak of 4.0x their
    bytes) and kept one alive; now the table's own memory is hashed and
    written, run by run."""
    algorithm = _Residuals(256, 11_690)
    rows_bytes = 256 * 11_690 * 8
    manager = CheckpointManager(tmp_path)
    config = FLConfig(rounds=1)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        meta, sections = _capture(algorithm, config)
        path = manager.save(0, meta, sections)
        del sections
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > rows_bytes
    assert peak - before < 0.1 * rows_bytes
    assert after - before < 1 << 20


def _table_with(reported: np.ndarray, dim: int) -> DeltaTable:
    gen = np.random.default_rng(11)
    table = DeltaTable(len(reported), dim)
    for client in np.flatnonzero(reported):
        table.update(int(client), gen.normal(size=dim))
    return table


@pytest.mark.parametrize("dim", [3, 700])  # below / above the copy-or-view threshold
@pytest.mark.parametrize(
    "reported",
    [
        np.zeros(40, dtype=bool),
        np.ones(40, dtype=bool),
        np.arange(40) % 2 == 0,
        np.isin(np.arange(40), [0, 1, 2, 7, 8, 20, 38, 39]),
        np.random.default_rng(4).random(40) < 0.7,
    ],
    ids=["none", "all", "alternating", "runs", "random"],
)
def test_row_blocks_encode_as_the_gathered_rows(reported, dim):
    """Every reported row goes out as the array it lies in; the section
    is the one the gathered rows would have made."""
    table = _table_with(reported, dim)
    segments = table.checkpoint_segments()
    rows = segments["delta_rows"]
    ids = np.flatnonzero(reported)
    assert rows.shape == (len(ids), dim)
    assert [np.shares_memory(block, table._rows[c]) for block, c in zip(rows.blocks, ids)] == [
        True
    ] * len(ids)
    gathered = dict(segments, delta_rows=table.rows_for(ids))
    np.testing.assert_array_equal(np.asarray(rows), gathered["delta_rows"])
    assert pack_tree({"ef": segments}) == pack_tree({"ef": gathered})
    # The snapshot restores directly, too.
    other = DeltaTable(len(reported), dim)
    other.restore_checkpoint_segments(segments)
    np.testing.assert_array_equal(other.full_table(), table.full_table())


# -- the aliasing contract ----------------------------------------------------------


def test_file_holds_the_state_as_of_save(tmp_path):
    """Sections alias live state until ``save`` returns — and not after."""
    algorithm = _Residuals(8, 2_000)
    expected = algorithm.table.full_table()
    params = algorithm.global_params.copy()
    manager = CheckpointManager(tmp_path)
    path = manager.save(0, *_capture(algorithm, FLConfig(rounds=1)))
    for row in algorithm.table._rows.values():
        row[:] = -1.0
    algorithm.global_params[:] = -1.0
    _manifest, sections = read_checkpoint(path)
    rows = unpack_tree(sections[SECTION_ALGORITHM])["ef_residuals"]["delta_rows"]
    np.testing.assert_array_equal(rows, expected)
    np.testing.assert_array_equal(unpack_tree(sections["model"])["global_params"], params)


# -- a resumed run lets go of what it read ------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [{}, {"execution": "async", "buffer_size": 2}, {"topology": "hier:2:2"}],
    ids=["sync", "async", "hier"],
)
def test_resumed_run_drops_the_restore_blobs(tmp_path, monkeypatch, no_gc, overrides):
    """The driver loops kept ``loaded`` / ``sections`` bound for the
    whole resumed run."""
    from repro.algorithms import make_algorithm
    from repro.fl.trainer import run_federated
    from tests.helpers import tiny_model_fn

    fed = make_toy_federation(similarity=0.0)
    config = FLConfig(
        rounds=4, local_steps=1, batch_size=8, lr=0.1, seed=7,
        compression="topk:0.25|qsgd:8", checkpoint_dir=str(tmp_path),
        checkpoint_every=2, checkpoint_keep=50, **overrides,
    )
    uninterrupted = make_algorithm("fedavg")
    run_federated(uninterrupted, fed, tiny_model_fn(fed), config)
    (tmp_path / "ckpt-00000003.rck").unlink()

    refs = []
    original = CheckpointManager.load_latest_valid

    def loading(self):
        manifest, sections = original(self)
        sections = {name: _Blob(blob) for name, blob in sections.items()}
        refs.extend(weakref.ref(blob) for blob in sections.values())
        return manifest, sections

    monkeypatch.setattr(CheckpointManager, "load_latest_valid", loading)
    alive_at_first_round = []

    def on_round(record):
        if not alive_at_first_round:
            alive_at_first_round.append(sum(ref() is not None for ref in refs))

    resumed = make_algorithm("fedavg")
    history = run_federated(
        resumed, fed, tiny_model_fn(fed),
        config.with_updates(resume=True), callbacks=[on_round],
    )
    assert history.records[-1].round_idx == 3
    assert len(refs) >= 5
    assert alive_at_first_round == [0]
    np.testing.assert_array_equal(resumed.global_params, uninterrupted.global_params)


# -- old checkpoints load -----------------------------------------------------------

# sha256 of the final parameters the PARENT commit reached, resuming its
# own tests/ckpt/data/parent-rfedavgplus-00000001.rck (== its uninterrupted run).
PARENT_FINAL_PARAMS = "85ed82606b71f064cec6d7eb68db63401255cbb7f5cb881b1cf4d9368abffb08"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_parent_written_checkpoint_resumes_to_the_parents_digest(tmp_path):
    """The file is loaded, not skipped: a run that rejected it would warn
    and start over from round 0, reaching the same digest."""
    from repro.algorithms import make_algorithm
    from repro.fl.trainer import run_federated
    from tests.helpers import tiny_model_fn

    source = DATA / "parent-rfedavgplus-00000001.rck"
    manifest, _sections = read_checkpoint(source)
    assert manifest["meta"]["round_idx"] == 1
    shutil.copy(source, tmp_path / "ckpt-00000001.rck")
    config = FLConfig(
        rounds=4, local_steps=2, batch_size=8, lr=0.1, seed=18,
        compression="topk:0.25|qsgd:8", sync_compression="qsgd:8",
        checkpoint_dir=str(tmp_path), checkpoint_every=2, checkpoint_keep=50, resume=True,
    )
    fed = make_toy_federation(similarity=0.0)
    algorithm = make_algorithm("rfedavg+", lam=1e-3)
    trained = []
    history = run_federated(
        algorithm, fed, tiny_model_fn(fed), config,
        callbacks=[lambda record: trained.append(record.round_idx)],
    )
    assert trained == [2, 3]
    assert [record.round_idx for record in history.records] == [0, 1, 2, 3]
    digest = hashlib.sha256(algorithm.global_params.tobytes()).hexdigest()
    assert digest == PARENT_FINAL_PARAMS


# sha256 of the final parameters the PARENT commit reached from its own
# tests/ckpt/data/parent-async-rfedavgplus-00000002.rck (== its
# uninterrupted run).  The file was written at the parent commit by
#   run_with_workers("rfedavg+", {"lam": 1e-3}, make_toy_federation(similarity=0.0),
#                    _parent_async_config(checkpoint_dir=D, checkpoint_every=1,
#                                         checkpoint_keep=50), num_workers=1)
# keeping D/ckpt-00000002.rck: an async round whose event heap holds two
# in-flight updates still carrying their scalar upload count.
PARENT_ASYNC_FINAL_PARAMS = "aca62a0d92b551736ad11b975adf5e8ed32c6060923dac8e2cbc256a84e43bcb"


def _parent_async_config(**overrides) -> FLConfig:
    return FLConfig(
        rounds=6, local_steps=2, batch_size=8, lr=0.1, seed=19,
        execution="async", runtime="gaussian:mean=1,std=0.5,het=2", buffer_size=2,
        compression="topk:0.25|qsgd:8", **overrides,
    )


def test_parent_written_async_checkpoint_resumes_to_the_parents_digest(tmp_path):
    source = DATA / "parent-async-rfedavgplus-00000002.rck"
    _manifest, sections = read_checkpoint(source)
    events = unpack_tree(sections["async"])["queue"]["events"]
    assert len(events) == 2
    for event in events:
        assert "wire" in event["update"]
        assert set(event["update"]["wire_size"]) > {"values", "index_ints", "raw_bytes"}

    shutil.copy(source, tmp_path / "ckpt-00000002.rck")
    config = _parent_async_config(
        checkpoint_dir=str(tmp_path), checkpoint_every=1, checkpoint_keep=50, resume=True,
    )
    fed = make_toy_federation(similarity=0.0)
    algorithm, history = run_with_workers("rfedavg+", {"lam": 1e-3}, fed, config, num_workers=1)
    assert [record.round_idx for record in history.records] == list(range(6))
    digest = hashlib.sha256(algorithm.global_params.tobytes()).hexdigest()
    assert digest == PARENT_ASYNC_FINAL_PARAMS
