"""The sharded table's once-per-version reported view vs uncached semantics.

``ShardedDeltaTable`` answers every leave-one-out read of a table
version from one ``(reported ids, stacked rows)`` view.  The dense
``DeltaTable`` has no such cache, so it is the reference: under any
interleaving of mutators and reads the two must return equal bytes, a
read must leave the LRU order and the spill counter alone, and no
mutator may leave a stale view behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delta import DeltaTable, ShardedDeltaTable

N, DIM = 30, 5


def _assert_same_reads(sharded, dense, clients):
    """Every statistic, equal to the bit, and side-effect free."""
    order = list(sharded._rows)
    spilled = sharded.spilled_rows
    spill_end = sharded._spill._end if sharded._spill is not None else 0
    assert sharded.delta_inconsistency() == dense.delta_inconsistency()
    for client in clients:
        got = sharded.mean_of_others(client)
        want = dense.mean_of_others(client)
        assert got.tobytes() == want.tobytes()
        got = sharded.reported_rows_except(client)
        want = dense.reported_rows_except(client)
        if want is None:
            assert got is None
        else:
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
        assert sharded.pairwise_mean_sq_distance(
            client
        ) == dense.pairwise_mean_sq_distance(client)
        assert sharded.get(client).tobytes() == dense.get(client).tobytes()
    assert list(sharded._rows) == order  # reads never touch LRU order
    assert sharded.spilled_rows == spilled
    assert (sharded._spill._end if sharded._spill is not None else 0) == spill_end


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
    dense = DeltaTable(N, DIM)
    sharded = ShardedDeltaTable(
        N, DIM, max_resident=max_resident, spill_dir=str(tmp_path / "spill")
    )
    spilled_reports = 0
    for _ in range(250):
        op = rng.choice(["update", "update", "update", "read", "checkpoint", "install"])
        touched = int(rng.integers(0, N))
        if op == "update":
            if sharded._spill is not None and touched in sharded._spill:
                spilled_reports += 1
            delta = rng.normal(size=DIM)
            dense.update(touched, delta)
            sharded.update(touched, delta)
        elif op == "checkpoint":
            # Cross the layouts on the way: each restores the other's snapshot.
            from_sharded = sharded.checkpoint_segments()
            from_dense = dense.checkpoint_segments()
            sharded.restore_checkpoint_segments(from_dense)
            dense.restore_checkpoint_segments(from_sharded)
        elif op == "install":
            snapshot = _random_snapshot(rng)
            sharded.install_worker_segments(snapshot)
            dense.restore_checkpoint_segments(snapshot)
        probes = {touched, int(rng.integers(0, N)), 0, N - 1}
        _assert_same_reads(sharded, dense, sorted(probes))
        # A second pass is served from the view the first pass built.
        _assert_same_reads(sharded, dense, sorted(probes))
    if max_resident == 1:
        assert sharded.spilled_rows > 0 and spilled_reports > 0


def test_view_is_built_once_per_version_and_dropped_by_every_mutator(tmp_path):
    rng = np.random.default_rng(5)
    sharded = ShardedDeltaTable(N, DIM, max_resident=2, spill_dir=str(tmp_path))
    dense = DeltaTable(N, DIM)
    builds = []
    rows_for = sharded.rows_for
    sharded.rows_for = lambda ids: builds.append(len(ids)) or rows_for(ids)

    def reads():
        builds.clear()
        for client in range(N):
            sharded.mean_of_others(client)
            sharded.reported_rows_except(client)
            sharded.pairwise_mean_sq_distance(client)
        sharded.delta_inconsistency()
        _assert_same_reads(sharded, dense, range(N))
        return len(builds)

    for client in (3, 7, 11, 19):
        delta = rng.normal(size=DIM)
        sharded.update(client, delta)
        dense.update(client, delta)
    assert reads() == 1  # 3N + 1 reads, one stack
    assert reads() == 0  # same version: nothing rebuilt

    # Re-reporting a *spilled* client changes a row the view holds.
    assert 3 in sharded._spill
    before = sharded.mean_of_others(7).copy()
    delta = rng.normal(size=DIM)
    sharded.update(3, delta)
    dense.update(3, delta)
    assert sharded.mean_of_others(7).tobytes() != before.tobytes()
    assert reads() == 0  # the read above already rebuilt it, once

    snapshot = sharded.checkpoint_segments()
    sharded.update(11, np.zeros(DIM))
    sharded.mean_of_others(0)  # view of the post-update version
    sharded.restore_checkpoint_segments(snapshot)
    assert reads() == 1

    worker_state = _random_snapshot(rng)
    sharded.install_worker_segments(worker_state)
    dense.restore_checkpoint_segments(worker_state)
    assert reads() == 1


def test_returned_rows_are_the_callers_own(tmp_path):
    """A hook that scribbles on its rows must not reach the next client's."""
    rng = np.random.default_rng(6)
    sharded = ShardedDeltaTable(N, DIM)
    for client in (1, 2, 3):
        sharded.update(client, rng.normal(size=DIM))
    for asker in (2, 29):  # a reported and an unreported client
        rows = sharded.reported_rows_except(asker)
        expected = sharded.mean_of_others(asker).copy()
        rows[:] = 0.0
        assert sharded.mean_of_others(asker).tobytes() == expected.tobytes()
