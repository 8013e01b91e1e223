"""ShardedDeltaTable vs DeltaTable bit-identity (repro.core.delta).

The sharded store is a drop-in replacement for the dense table: every
statistic must match to the bit — with and without an LRU spill cap —
and checkpoints must cross layouts in both directions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delta import DeltaSpillStore, DeltaTable, ShardedDeltaTable
from repro.exceptions import ProtocolError


def _report(table, rng, clients, dim):
    for client in clients:
        table.update(int(client), rng.normal(size=dim))


def _paired(num_clients=40, dim=6, seed=0, max_resident=None, rounds=3, cohort=9):
    """A dense and a sharded table fed the identical report stream."""
    dense = DeltaTable(num_clients, dim)
    sharded = ShardedDeltaTable(num_clients, dim, max_resident=max_resident)
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        clients = rng.choice(num_clients, size=cohort, replace=False)
        deltas = rng.normal(size=(cohort, dim))
        for client, delta in zip(clients, deltas):
            dense.update(int(client), delta)
            sharded.update(int(client), delta)
    return dense, sharded


@pytest.mark.parametrize("max_resident", [None, 2])
def test_all_statistics_bit_identical_to_dense(max_resident):
    dense, sharded = _paired(max_resident=max_resident)
    np.testing.assert_array_equal(sharded.reported_mask, dense.reported_mask)
    np.testing.assert_array_equal(sharded.reported_ids(), dense.reported_ids())
    np.testing.assert_array_equal(sharded.full_table(), dense.full_table())
    assert sharded.any_reported == dense.any_reported
    assert sharded.all_reported == dense.all_reported
    assert sharded.delta_inconsistency() == dense.delta_inconsistency()
    for client in range(dense.num_clients):
        np.testing.assert_array_equal(sharded.get(client), dense.get(client))
        np.testing.assert_array_equal(
            sharded.mean_of_others(client), dense.mean_of_others(client)
        )
        assert sharded.pairwise_mean_sq_distance(
            client
        ) == dense.pairwise_mean_sq_distance(client)
        a = sharded.reported_rows_except(client)
        b = dense.reported_rows_except(client)
        if b is None:
            assert a is None
        else:
            np.testing.assert_array_equal(a, b)


def test_memory_is_reported_rows_not_population():
    sharded = ShardedDeltaTable(1_000_000, 8)
    rng = np.random.default_rng(1)
    _report(sharded, rng, rng.choice(1_000_000, size=100, replace=False), 8)
    assert sharded.resident_rows == 100
    assert len(sharded.reported_ids()) == 100
    # The only O(N) state is the boolean mask.
    assert sharded.reported_mask.nbytes == 1_000_000


def test_spill_cap_is_enforced_and_counted(tmp_path):
    sharded = ShardedDeltaTable(
        50, 4, max_resident=3, spill_dir=str(tmp_path / "spill")
    )
    rng = np.random.default_rng(2)
    _report(sharded, rng, range(10), 4)
    assert sharded.resident_rows == 3
    assert sharded.spilled_rows == 7
    assert len(sharded.reported_ids()) == 10  # spilling loses nothing


def test_rereport_pops_spilled_row():
    sharded = ShardedDeltaTable(10, 4, max_resident=2)
    rng = np.random.default_rng(3)
    _report(sharded, rng, [0, 1, 2], 4)  # client 0 spills
    assert sharded._spill is not None and 0 in sharded._spill
    fresh = np.full(4, 9.0)
    sharded.update(0, fresh)
    assert 0 not in sharded._spill  # stale spilled copy dropped
    np.testing.assert_array_equal(sharded.get(0), fresh)


def test_cross_layout_checkpoint_restore():
    dense, sharded = _paired(max_resident=2)

    # sharded sparse snapshot -> dense table
    dense_restored = DeltaTable(dense.num_clients, dense.dim)
    dense_restored.restore_checkpoint_segments(sharded.checkpoint_segments())
    np.testing.assert_array_equal(dense_restored.full_table(), dense.full_table())
    np.testing.assert_array_equal(dense_restored.reported_mask, dense.reported_mask)

    # dense legacy snapshot (delta_table form) -> sharded table
    legacy = {
        "delta_table": dense.full_table(),
        "delta_reported": dense.reported_mask,
    }
    sharded_restored = ShardedDeltaTable(dense.num_clients, dense.dim, max_resident=2)
    sharded_restored.restore_checkpoint_segments(legacy)
    np.testing.assert_array_equal(sharded_restored.full_table(), dense.full_table())
    assert sharded_restored.resident_rows <= 2  # cap re-enforced on restore

    # sparse -> sparse round trip
    again = ShardedDeltaTable(dense.num_clients, dense.dim)
    again.restore_checkpoint_segments(sharded.checkpoint_segments())
    assert again.delta_inconsistency() == sharded.delta_inconsistency()


def test_worker_segments_round_trip():
    _, sharded = _paired(max_resident=None)
    worker = ShardedDeltaTable(sharded.num_clients, sharded.dim, max_resident=2)
    worker.install_worker_segments(sharded.worker_segments())
    # Workers hold the broadcast rows resident regardless of their cap.
    assert worker.resident_rows == len(sharded.reported_ids())
    np.testing.assert_array_equal(worker.full_table(), sharded.full_table())
    for client in sharded.reported_ids():
        np.testing.assert_array_equal(
            worker.mean_of_others(int(client)), sharded.mean_of_others(int(client))
        )


def test_payload_accounting_matches_dense():
    dense, sharded = _paired()
    assert sharded.broadcast_bytes_rfedavg() == dense.broadcast_bytes_rfedavg()
    assert (
        sharded.broadcast_bytes_rfedavg_plus()
        == dense.broadcast_bytes_rfedavg_plus()
    )
    assert sharded.upload_bytes() == dense.upload_bytes()
    for plus in (True, False):
        assert sharded.per_client_state_bytes(plus) == dense.per_client_state_bytes(
            plus
        )


def test_constructor_validation():
    with pytest.raises(ProtocolError):
        ShardedDeltaTable(0, 4)
    with pytest.raises(ProtocolError):
        ShardedDeltaTable(4, 0)
    with pytest.raises(ProtocolError):
        ShardedDeltaTable(4, 4, max_resident=0)
    with pytest.raises(ProtocolError):
        ShardedDeltaTable(4, 4).update(0, np.zeros(3))


def test_spill_store_roundtrip(tmp_path):
    store = DeltaSpillStore(5, str(tmp_path / "spill"))
    row_a, row_b = np.arange(5.0), np.arange(5.0) * 2
    store.put(3, row_a)
    store.put(8, row_b)
    assert len(store) == 2 and 3 in store
    np.testing.assert_array_equal(store.get(3), row_a)
    store.put(3, row_b)  # re-put repoints, old bytes are dead
    np.testing.assert_array_equal(store.get(3), row_b)
    np.testing.assert_array_equal(store.pop(8), row_b)
    assert 8 not in store
    store.close()


def test_stores_sharing_a_directory_keep_their_own_rows(tmp_path):
    first = DeltaSpillStore(3, str(tmp_path))
    second = DeltaSpillStore(3, str(tmp_path))
    first.put(0, np.full(3, 1.0))
    second.put(0, np.full(3, 2.0))
    np.testing.assert_array_equal(first.get(0), np.full(3, 1.0))
    np.testing.assert_array_equal(second.get(0), np.full(3, 2.0))
    first.close()
    second.close()
    assert list(tmp_path.iterdir()) == []  # each removed the file it made
