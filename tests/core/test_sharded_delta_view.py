"""The table's once-per-version reported view vs uncached semantics.

``DeltaTable`` answers every leave-one-out read of a table version from
one ``(reported ids, stacked rows)`` view.  The dense oracle has no such
cache, so it is the reference: under any interleaving of mutators and
reads the two must return equal bytes, a read must leave the LRU order
and the spill counter alone, and no mutator may leave a stale view
behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delta import DeltaTable
from tests.helpers import DenseDeltaOracle

N, DIM = 30, 5


def _assert_same_reads(table, dense, clients):
    """Every statistic, equal to the bit, and side-effect free."""
    order = list(table._rows)
    spilled = table.spilled_rows
    spill_end = table._spill._end if table._spill is not None else 0
    assert table.delta_inconsistency() == dense.delta_inconsistency()
    for client in clients:
        got = table.mean_of_others(client)
        want = dense.mean_of_others(client)
        assert got.tobytes() == want.tobytes()
        got = table.reported_rows_except(client)
        want = dense.reported_rows_except(client)
        if want is None:
            assert got is None
        else:
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
        assert table.get(client).tobytes() == dense.get(client).tobytes()
    assert list(table._rows) == order  # reads never touch LRU order
    assert table.spilled_rows == spilled
    assert (table._spill._end if table._spill is not None else 0) == spill_end


def _random_snapshot(rng):
    """A sparse checkpoint/worker snapshot of some unrelated table state."""
    ids = np.sort(rng.choice(N, size=int(rng.integers(0, N // 2)), replace=False))
    reported = np.zeros(N, dtype=bool)
    reported[ids] = True
    return {
        "delta_ids": ids.astype(np.int64),
        "delta_rows": rng.normal(size=(len(ids), DIM)),
        "delta_reported": reported,
    }


@pytest.mark.parametrize("max_resident", [None, 1, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_interleaving_matches_dense_after_every_step(seed, max_resident, tmp_path):
    rng = np.random.default_rng([seed, 0xDE17A])
    dense = DenseDeltaOracle(N, DIM)
    table = DeltaTable(
        N, DIM, max_resident=max_resident, spill_dir=str(tmp_path / "spill")
    )
    spilled_reports = 0
    for _ in range(250):
        op = rng.choice(["update", "update", "update", "read", "checkpoint", "install"])
        touched = int(rng.integers(0, N))
        if op == "update":
            if table._spill is not None and touched in table._spill:
                spilled_reports += 1
            delta = rng.normal(size=DIM)
            dense.update(touched, delta)
            table.update(touched, delta)
        elif op == "checkpoint":
            # Cross the forms on the way: the table restores the old
            # dense form, the oracle the table's sparse snapshot.
            from_table = table.checkpoint_segments()
            table.restore_checkpoint_segments(dense.dense_segments())
            dense.restore(from_table)
        elif op == "install":
            snapshot = _random_snapshot(rng)
            table.install_worker_segments(snapshot)
            dense.restore(snapshot)
        probes = {touched, int(rng.integers(0, N)), 0, N - 1}
        _assert_same_reads(table, dense, sorted(probes))
        # A second pass is served from the view the first pass built.
        _assert_same_reads(table, dense, sorted(probes))
    if max_resident == 1:
        assert table.spilled_rows > 0 and spilled_reports > 0


def test_view_is_built_once_per_version_and_dropped_by_every_mutator(tmp_path):
    rng = np.random.default_rng(5)
    table = DeltaTable(N, DIM, max_resident=2, spill_dir=str(tmp_path))
    dense = DenseDeltaOracle(N, DIM)
    builds = []
    rows_for = table.rows_for
    table.rows_for = lambda ids: builds.append(len(ids)) or rows_for(ids)

    def reads():
        builds.clear()
        for client in range(N):
            table.mean_of_others(client)
            table.reported_rows_except(client)
        table.delta_inconsistency()
        _assert_same_reads(table, dense, range(N))
        return len(builds)

    for client in (3, 7, 11, 19):
        delta = rng.normal(size=DIM)
        table.update(client, delta)
        dense.update(client, delta)
    assert reads() == 1  # 2N + 1 reads, one stack
    assert reads() == 0  # same version: nothing rebuilt

    # Re-reporting a *spilled* client changes a row the view holds.
    assert 3 in table._spill
    before = table.mean_of_others(7).copy()
    delta = rng.normal(size=DIM)
    table.update(3, delta)
    dense.update(3, delta)
    assert table.mean_of_others(7).tobytes() != before.tobytes()
    assert reads() == 0  # the read above already rebuilt it, once

    snapshot = table.checkpoint_segments()
    table.update(11, np.zeros(DIM))
    table.mean_of_others(0)  # view of the post-update version
    table.restore_checkpoint_segments(snapshot)
    assert reads() == 1

    worker_state = _random_snapshot(rng)
    table.install_worker_segments(worker_state)
    dense.restore(worker_state)
    assert reads() == 1


def test_returned_rows_are_the_callers_own(tmp_path):
    """A hook that scribbles on its rows must not reach the next client's."""
    rng = np.random.default_rng(6)
    table = DeltaTable(N, DIM)
    for client in (1, 2, 3):
        table.update(client, rng.normal(size=DIM))
    for asker in (2, 29):  # a reported and an unreported client
        rows = table.reported_rows_except(asker)
        expected = table.mean_of_others(asker).copy()
        rows[:] = 0.0
        assert table.mean_of_others(asker).tobytes() == expected.tobytes()
