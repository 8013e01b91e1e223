"""Per-client mean-embedding tables (the ``delta`` payloads).

Both algorithms exchange mean embeddings ``delta^k = (1/n_k) sum_j
phi(x_{k,j})``.  :class:`DeltaTable` is the server-side store of them,
and of every other per-client table (error-feedback residuals,
rFedAvg+'s sync residuals): it tracks which clients have reported at
least once (so the regularizer can stay inactive until real statistics
exist), computes the leave-one-out averages rFedAvg+ broadcasts, and
accounts payload sizes for Table III.

Rows are allocated the first time a client reports (a 1M-client
population with 100-client cohorts holds cohort-scale rows, not N), and
past an optional resident cap least-recently-used rows spill to an
on-disk :class:`DeltaSpillStore`.  Every statistic is computed over
reported rows *in ascending client-id order* — the order an ``(N, d)``
array's boolean-mask indexing produces — so the cap changes where rows
live, never a bit of what is computed from them.

A client that never reported reads the table's *default row*: zeros,
or the one vector it was built with (MOON's initial model).  A table a
task reads only at its *own* row (a state slot read by prefix, see
:class:`repro.algorithms.base.StateSlot`: error-feedback residuals,
SCAFFOLD's client controls, MOON's previous models) never travels
whole: :meth:`DeltaTable.cohort_segments` names the cohort's reported
rows, uncopied, and :class:`CohortRows` is what a task reads them back
through, with the default row the forked worker inherited.  The worker
engine copies each of those rows once into its own client's slot of a
shared row arena mapped before the workers fork (``docs/serving.md``),
so no row crosses a socket and a round's copying scales with who
participates, not with the population.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from collections import OrderedDict

import numpy as np

from repro.exceptions import ProtocolError
from repro.nn.dtype import get_default_dtype


class CohortRows:
    """Worker-side stand-in for an own-row table: the rows of one cohort.

    It keeps exactly the (read-only, zero-copy) rows it is given, by
    client: a snapshot's (:meth:`from_state`), or a served block's, each
    row a view of its client's slot of the shared row arena.  Reading a cohort client without a
    row yields the table's (read-only) ``default`` row, as the parent's
    table would for a client that never reported; a client outside the
    cohort raises :class:`ProtocolError` — its row was not sent, and an
    earlier round's copy would be stale.
    """

    def __init__(self, cohort, rows: dict[int, np.ndarray], default: np.ndarray) -> None:
        if any(np.shape(row) != default.shape for row in rows.values()):
            raise ProtocolError(f"cohort rows do not match the {len(default)}-wide table")
        self.default = default
        self._cohort = frozenset(int(c) for c in cohort)
        self._rows = rows

    @classmethod
    def from_state(cls, state: dict, prefix: str, default: np.ndarray) -> "CohortRows":
        """A snapshot's rows (:meth:`DeltaTable.cohort_segments`); none,
        so every read raises, in a served ``state`` frame."""
        ids, rows = state.get(prefix + "ids", ()), state.get(prefix + "rows", ())
        if len(ids) != len(rows):
            raise ProtocolError(f"{len(rows)} cohort rows do not match {len(ids)} ids")
        return cls(state.get(prefix + "cohort", ()), dict(zip(map(int, ids), rows)), default)

    def get(self, client: int) -> np.ndarray:
        row = self._rows.get(client)
        if row is not None:
            return row
        if client not in self._cohort:
            raise ProtocolError(
                f"client {client} is outside the cohort this round state was "
                "broadcast for"
            )
        return self.default


class RowBlocks:
    """Rows of a table, given as the C-contiguous blocks they lie in.

    Stands in for the stacked ``(rows, dim)`` float64 array where the
    rows are only going to be encoded: :func:`repro.fl.wire.pack_parts`
    emits each block's own memory in turn — the stacked array's bytes,
    without stacking it.  Everything else sees the stacked array
    (``np.asarray``), and iterating yields the rows.  The blocks alias
    the table: see the aliasing contract in
    :func:`repro.ckpt.state.capture_run_state`.
    """

    ndim = 2
    dtype = np.dtype(np.float64)

    def __init__(self, blocks: list[np.ndarray], dim: int) -> None:
        self.blocks = blocks
        self.shape = (sum(len(block) for block in blocks), dim)
        self.nbytes = self.shape[0] * dim * self.dtype.itemsize

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        stacked = np.concatenate(self.blocks) if self.blocks else np.zeros(self.shape)
        return stacked.astype(dtype or self.dtype, copy=False)

    def __len__(self) -> int:
        return self.shape[0]

    def __iter__(self):
        for block in self.blocks:
            yield from block

    def tobytes(self) -> bytes:
        return np.asarray(self).tobytes()


class DeltaSpillStore:
    """Append-only on-disk store of per-client delta rows.

    Backs :class:`DeltaTable` past its resident cap.  Rows are raw
    float64 bytes appended to one file; re-reporting a client appends a
    fresh row and repoints its offset (the dead bytes are bounded by
    total reports, which is cohort x rounds — negligible next to an
    (N, d) table).  The file is the store's own
    (several tables of one run share a ``state_dir``), created in
    ``directory`` when given, else in a self-cleaning temporary
    directory, and removed when the store closes.
    """

    def __init__(self, dim: int, directory: str | None = None) -> None:
        self.dim = dim
        self._row_bytes = dim * 8
        if directory is None:
            self._dir = tempfile.mkdtemp(prefix="repro-delta-spill-")
            self._owns_dir = True
        else:
            os.makedirs(directory, exist_ok=True)
            self._dir = str(directory)
            self._owns_dir = False
        fd, self.path = tempfile.mkstemp(prefix="delta-rows-", suffix=".bin", dir=self._dir)
        self._handle = os.fdopen(fd, "w+b")
        self._offsets: dict[int, int] = {}
        self._end = 0
        if self._owns_dir:
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, self._dir, ignore_errors=True
            )
        else:
            self._finalizer = weakref.finalize(self, self._discard, self._handle, self.path)

    @staticmethod
    def _discard(handle, path: str) -> None:
        handle.close()
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass

    def __len__(self) -> int:
        return len(self._offsets)

    def __contains__(self, client: int) -> bool:
        return client in self._offsets

    def put(self, client: int, row: np.ndarray) -> None:
        data = np.ascontiguousarray(row, dtype=np.float64).tobytes()
        self._handle.seek(self._end)
        self._handle.write(data)
        self._offsets[client] = self._end
        self._end += self._row_bytes

    def get(self, client: int) -> np.ndarray:
        offset = self._offsets[client]
        self._handle.seek(offset)
        data = self._handle.read(self._row_bytes)
        return np.frombuffer(data, dtype=np.float64).copy()

    def pop(self, client: int) -> np.ndarray:
        row = self.get(client)
        del self._offsets[client]
        return row

    def close(self) -> None:
        self._finalizer()


class DeltaTable:
    """Server-side store of per-client rows, lazily allocated and
    spillable.

    Memory scales with the number of clients that ever *reported*, not
    the population: the only O(N) pieces are one boolean reported mask
    (1 MB at a million clients) and the transient ``(N, d)`` array
    :meth:`full_table` builds on request.  With ``max_resident`` set,
    least-recently-used rows beyond the cap move to a
    :class:`DeltaSpillStore` (created lazily in ``spill_dir``) and are
    read back on demand — spilling never changes any statistic.  Every
    aggregate reduces a stacked ``(R, d)`` float64 array of the reported
    rows in ascending client-id order.

    A row is replaced on :meth:`update`, never written in place, so a
    row array handed out by :meth:`checkpoint_segments` keeps the value
    it had when it was handed out.

    Attributes:
        dim: row dimension d.
        num_clients: number of clients N.
        dtype_bytes: bytes per scalar on the wire.  ``None`` follows the
            active dtype policy at construction; the paper reports
            float32 payloads, which an explicit ``4`` reproduces from a
            float64 training run.
        default: the (read-only) row a client that never reported reads
            — zeros unless the table was built with one.
    """

    def __init__(
        self,
        num_clients: int,
        dim: int,
        dtype_bytes: int | None = None,
        max_resident: int | None = None,
        spill_dir: str | None = None,
        default: np.ndarray | None = None,
    ) -> None:
        if num_clients <= 0 or dim <= 0:
            raise ProtocolError("num_clients and dim must be positive")
        if max_resident is not None and max_resident < 1:
            raise ProtocolError(f"max_resident must be >= 1, got {max_resident}")
        if default is not None and np.shape(default) != (dim,):
            raise ProtocolError(f"default row shape {np.shape(default)} != ({dim},)")
        self.num_clients = num_clients
        self.dim = dim
        self.default = np.zeros(dim) if default is None else np.array(default, dtype=np.float64)
        self.default.flags.writeable = False
        self.dtype_bytes = (
            int(dtype_bytes) if dtype_bytes is not None else get_default_dtype().itemsize
        )
        self.max_resident = max_resident
        self.spill_dir = spill_dir
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._spill: DeltaSpillStore | None = None
        self._reported = np.zeros(num_clients, dtype=bool)
        self.spilled_rows = 0  # lifetime spill writes (obs counter fodder)
        self._view: tuple[np.ndarray, np.ndarray] | None = None

    # -- updates ---------------------------------------------------------------
    def update(self, client: int, delta: np.ndarray) -> None:
        """Store client's freshly computed mean embedding."""
        delta = np.asarray(delta, dtype=np.float64)
        if delta.shape != (self.dim,):
            raise ProtocolError(f"delta shape {delta.shape} != ({self.dim},)")
        self._view = None
        if self._spill is not None and client in self._spill:
            self._spill.pop(client)
        self._rows[client] = delta.copy()
        self._rows.move_to_end(client)
        self._reported[client] = True
        self._enforce_cap()

    def _enforce_cap(self) -> None:
        if self.max_resident is None:
            return
        while len(self._rows) > self.max_resident:
            victim, row = self._rows.popitem(last=False)
            if self._spill is None:
                self._spill = DeltaSpillStore(self.dim, self.spill_dir)
            self._spill.put(victim, row)
            self.spilled_rows += 1

    def _row(self, client: int) -> np.ndarray:
        """One reported client's row (resident or spilled)."""
        row = self._rows.get(client)
        if row is not None:
            return row
        assert self._spill is not None
        return self._spill.get(client)

    # -- reads -----------------------------------------------------------------
    @property
    def any_reported(self) -> bool:
        return bool(self._reported.any())

    @property
    def resident_rows(self) -> int:
        return len(self._rows)

    def reported_ids(self) -> np.ndarray:
        """Ids of clients that have reported, ascending."""
        return np.flatnonzero(self._reported).astype(np.int64)

    def get(self, client: int) -> np.ndarray:
        if not self._reported[client]:
            return self.default.copy()
        return self._row(client).copy()

    def rows_for(self, ids: np.ndarray) -> np.ndarray:
        """Stacked (len(ids), d) rows in the given id order."""
        out = np.empty((len(ids), self.dim), dtype=np.float64)
        for i, client in enumerate(ids):
            out[i] = self._row(int(client))
        return out

    def full_table(self) -> np.ndarray:
        """The (N, d) table rFedAvg broadcasts, the default row for
        clients that never reported — O(N) memory, built on request; the
        regularizer reads :meth:`reported_rows_except` instead."""
        table = np.tile(self.default, (self.num_clients, 1))
        ids = self.reported_ids()
        if len(ids):
            table[ids] = self.rows_for(ids)
        return table

    def _reported_view(self) -> tuple[np.ndarray, np.ndarray]:
        """``(reported ids ascending, their stacked rows)``, built at most
        once per table version: every mutator drops it, and between two
        mutations (a round's whole execute phase) the table cannot
        change, so N leave-one-out reads cost one stack, not N.  Reads
        through :meth:`_row` leave LRU order and the spill file alone."""
        if self._view is None:
            ids = self.reported_ids()
            self._view = (ids, self.rows_for(ids))
        return self._view

    def reported_rows_except(self, client: int) -> np.ndarray | None:
        """Reported rows of every client but ``client``, in ascending
        client-id order (the caller's own copy); None when nobody else
        has reported."""
        ids, rows = self._reported_view()
        others = ids != client
        if not others.any():
            return None
        return rows[others]

    def mean_of_others(self, client: int) -> np.ndarray:
        """Leave-one-out average over *reported* clients other than
        ``client`` — ``delta^{-k}`` in Algorithm 2.  Falls back to the
        client's own row when only it has reported, and to zeros when
        nobody has (callers gate on :attr:`any_reported` anyway)."""
        others = self.reported_rows_except(client)
        if others is None:
            if self._reported[client]:
                return self._row(client).copy()
            return np.zeros(self.dim)
        return others.mean(axis=0)

    def delta_inconsistency(self) -> float:
        """Mean distance of reported deltas to their common mean.

        Diagnostic for the rFedAvg drawback the paper calls "inconsistent
        calculation of mappings": deltas computed from divergent local
        models scatter more widely than deltas computed from one global
        model.
        """
        ids, reported = self._reported_view()
        if not len(ids):
            return 0.0
        center = reported.mean(axis=0)
        return float(np.linalg.norm(reported - center, axis=1).mean())

    # -- worker-state / checkpoint segments ---------------------------------------
    def worker_segments(self) -> dict[str, np.ndarray]:
        """The whole table's reported rows, for a round-state broadcast
        to tasks that read every client's row (the regularizer)."""
        ids = self.reported_ids()
        return {
            "delta_ids": ids,
            "delta_rows": self.rows_for(ids),
            "delta_reported": self._reported.copy(),
        }

    def cohort_segments(self, prefix: str, cohort) -> dict[str, np.ndarray]:
        """One round's rows of an own-row table, as round-state segments:
        ``<prefix>cohort`` the round's client ids (ascending, unique),
        ``<prefix>ids`` those that reported and ``<prefix>rows`` their
        rows in ``ids`` order, as :meth:`_row_blocks`; like every read,
        it leaves LRU order and the spill file alone.
        :class:`CohortRows` is the reading side."""
        cohort = np.unique(np.asarray(cohort, dtype=np.int64))
        ids = cohort[self._reported[cohort]]
        return {prefix + "cohort": cohort, prefix + "ids": ids, prefix + "rows": self._row_blocks(ids)}

    def _row_blocks(self, ids) -> RowBlocks:
        """The rows of ``ids``, not gathered: each a read-only view of the
        array it lies in (a spilled row is read back once).  Rows are
        replaced on :meth:`update`, never written in place, so the blocks
        keep their values however the table moves on."""
        blocks = []
        for client in ids:
            block = self._row(int(client)).reshape(1, self.dim)
            block.flags.writeable = False
            blocks.append(block)
        return RowBlocks(blocks, self.dim)

    def install_worker_segments(self, segments: dict) -> None:
        """Adopt a broadcast sparse snapshot in a worker process.

        Workers only read the table, so the rows live resident without
        a cap (a worker sees one cohort's worth of broadcast state)."""
        ids = np.asarray(segments["delta_ids"], dtype=np.int64)
        rows = np.asarray(segments["delta_rows"], dtype=np.float64)
        self._view = None
        self._rows = OrderedDict(
            (int(client), rows[i]) for i, client in enumerate(ids)
        )
        self._spill = None
        self._reported = np.asarray(segments["delta_reported"], dtype=bool)

    def checkpoint_segments(self) -> dict:
        """Sparse snapshot (reported rows only), as :meth:`_row_blocks`."""
        ids = self.reported_ids()
        return {
            "delta_ids": ids,
            "delta_rows": self._row_blocks(ids),
            "delta_reported": self._reported.copy(),
        }

    def restore_checkpoint_segments(self, segments) -> None:
        """Restore a sparse snapshot, or a dense form older checkpoints
        hold: the ``delta_table`` array with its reported mask, or a bare
        (N, d) array (SCAFFOLD's ``client_controls``, MOON's
        ``prev_params``), whose rows that differ from the default row in
        any bit are the reported ones — every row reads back its bytes."""
        if isinstance(segments, np.ndarray):
            dense = np.ascontiguousarray(segments, dtype=np.float64)
            if dense.shape != (self.num_clients, self.dim):
                raise ProtocolError(f"dense table of shape {dense.shape} != (N, {self.dim})")
            reported = (dense.view(np.uint64) != self.default.view(np.uint64)).any(axis=1)
            ids = np.flatnonzero(reported).astype(np.int64)
            rows = dense[ids]
        elif "delta_table" in segments:
            reported = np.asarray(segments["delta_reported"], dtype=bool)
            ids = np.flatnonzero(reported).astype(np.int64)
            rows = np.asarray(segments["delta_table"], dtype=np.float64)[ids]
        else:
            reported = np.asarray(segments["delta_reported"], dtype=bool)
            ids = np.asarray(segments["delta_ids"], dtype=np.int64)
            rows = np.asarray(segments["delta_rows"], dtype=np.float64)
        self._view = None
        self._rows = OrderedDict()
        self._spill = None
        np.copyto(self._reported, reported)
        for i, client in enumerate(ids):
            self._rows[int(client)] = rows[i].copy()
        self._enforce_cap()

    # -- payload accounting (Table III) -----------------------------------------
    def broadcast_bytes_rfedavg(self) -> int:
        """Per-round broadcast: every client gets the full table (N*d each)."""
        return self.num_clients * self.num_clients * self.dim * self.dtype_bytes

    def broadcast_bytes_rfedavg_plus(self) -> int:
        """Per-round broadcast: every client gets only its own delta^{-k}."""
        return self.num_clients * self.dim * self.dtype_bytes

    def upload_bytes(self) -> int:
        """Per-round upload: every client sends its own delta (both algs)."""
        return self.num_clients * self.dim * self.dtype_bytes

    def per_client_state_bytes(self, plus: bool) -> int:
        """Size of the delta state one client must hold (Table III rows)."""
        if plus:
            return self.dim * self.dtype_bytes
        return self.num_clients * self.dim * self.dtype_bytes

