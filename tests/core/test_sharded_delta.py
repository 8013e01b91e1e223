"""DeltaTable vs a dense (N, d) reference, bit for bit (repro.core.delta).

The table allocates rows only for clients that reported and, under a
resident cap, spills the least-recently-used ones to disk.  Neither may
change a statistic: with and without a cap every read must equal the
dense oracle's ``table[mask]`` reduction to the bit, and checkpoints
must load from the old dense form as well as from the sparse one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delta import DeltaSpillStore, DeltaTable
from repro.exceptions import ProtocolError
from tests.helpers import DenseDeltaOracle


def _report(table, rng, clients, dim):
    for client in clients:
        table.update(int(client), rng.normal(size=dim))


def _paired(num_clients=40, dim=6, seed=0, max_resident=None, rounds=3, cohort=9):
    """The dense oracle and a table fed the identical report stream."""
    dense = DenseDeltaOracle(num_clients, dim)
    table = DeltaTable(num_clients, dim, max_resident=max_resident)
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        clients = rng.choice(num_clients, size=cohort, replace=False)
        deltas = rng.normal(size=(cohort, dim))
        for client, delta in zip(clients, deltas):
            dense.update(int(client), delta)
            table.update(int(client), delta)
    return dense, table


@pytest.mark.parametrize("max_resident", [None, 2])
def test_all_statistics_bit_identical_to_dense(max_resident):
    dense, table = _paired(max_resident=max_resident)
    np.testing.assert_array_equal(table.reported_mask, dense.reported)
    np.testing.assert_array_equal(table.reported_ids(), np.flatnonzero(dense.reported))
    np.testing.assert_array_equal(table.full_table(), dense.table)
    assert table.any_reported == dense.reported.any()
    assert table.all_reported == dense.reported.all()
    assert table.delta_inconsistency() == dense.delta_inconsistency()
    for client in range(table.num_clients):
        np.testing.assert_array_equal(table.get(client), dense.get(client))
        np.testing.assert_array_equal(
            table.mean_of_others(client), dense.mean_of_others(client)
        )
        a = table.reported_rows_except(client)
        b = dense.reported_rows_except(client)
        if b is None:
            assert a is None
        else:
            np.testing.assert_array_equal(a, b)


def test_memory_is_reported_rows_not_population():
    table = DeltaTable(1_000_000, 8)
    rng = np.random.default_rng(1)
    _report(table, rng, rng.choice(1_000_000, size=100, replace=False), 8)
    assert table.resident_rows == 100
    assert len(table.reported_ids()) == 100
    # The only O(N) state is the boolean mask.
    assert table.reported_mask.nbytes == 1_000_000


def test_spill_cap_is_enforced_and_counted(tmp_path):
    table = DeltaTable(50, 4, max_resident=3, spill_dir=str(tmp_path / "spill"))
    rng = np.random.default_rng(2)
    _report(table, rng, range(10), 4)
    assert table.resident_rows == 3
    assert table.spilled_rows == 7
    assert len(table.reported_ids()) == 10  # spilling loses nothing


def test_rereport_pops_spilled_row():
    table = DeltaTable(10, 4, max_resident=2)
    rng = np.random.default_rng(3)
    _report(table, rng, [0, 1, 2], 4)  # client 0 spills
    assert table._spill is not None and 0 in table._spill
    fresh = np.full(4, 9.0)
    table.update(0, fresh)
    assert 0 not in table._spill  # stale spilled copy dropped
    np.testing.assert_array_equal(table.get(0), fresh)


def test_cross_layout_checkpoint_restore():
    dense, table = _paired(max_resident=2)

    # sparse snapshot (rows handed over as they lie, spilled ones read
    # back) -> the dense reference
    restored = DenseDeltaOracle(*dense.table.shape)
    restored.restore(table.checkpoint_segments())
    np.testing.assert_array_equal(restored.table, dense.table)
    np.testing.assert_array_equal(restored.reported, dense.reported)

    # old dense snapshot (delta_table form) -> the table
    from_dense = DeltaTable(table.num_clients, table.dim, max_resident=2)
    from_dense.restore_checkpoint_segments(dense.dense_segments())
    np.testing.assert_array_equal(from_dense.full_table(), dense.table)
    assert from_dense.resident_rows <= 2  # cap re-enforced on restore

    # sparse -> sparse round trip
    again = DeltaTable(table.num_clients, table.dim)
    again.restore_checkpoint_segments(table.checkpoint_segments())
    assert again.delta_inconsistency() == table.delta_inconsistency()


def test_worker_segments_round_trip():
    _, table = _paired(max_resident=None)
    worker = DeltaTable(table.num_clients, table.dim, max_resident=2)
    worker.install_worker_segments(table.worker_segments())
    # Workers hold the broadcast rows resident regardless of their cap.
    assert worker.resident_rows == len(table.reported_ids())
    np.testing.assert_array_equal(worker.full_table(), table.full_table())
    for client in table.reported_ids():
        np.testing.assert_array_equal(
            worker.mean_of_others(int(client)), table.mean_of_others(int(client))
        )


def test_payload_accounting_matches_dense():
    """Table III prices the (N, d) table whatever the cap holds resident."""
    dense, uncapped = _paired()
    _, capped = _paired(max_resident=2)
    n, d = dense.table.shape
    bytes_per = uncapped.dtype_bytes
    for table in (uncapped, capped):
        assert table.broadcast_bytes_rfedavg() == n * n * d * bytes_per
        assert table.broadcast_bytes_rfedavg_plus() == n * d * bytes_per
        assert table.upload_bytes() == n * d * bytes_per
        assert table.per_client_state_bytes(True) == d * bytes_per
        assert table.per_client_state_bytes(False) == n * d * bytes_per


def test_constructor_validation():
    with pytest.raises(ProtocolError):
        DeltaTable(0, 4)
    with pytest.raises(ProtocolError):
        DeltaTable(4, 0)
    with pytest.raises(ProtocolError):
        DeltaTable(4, 4, max_resident=0)
    with pytest.raises(ProtocolError):
        DeltaTable(4, 4).update(0, np.zeros(3))


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
