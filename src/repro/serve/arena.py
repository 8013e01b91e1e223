"""The shared row arena: a served client's own rows, beside the socket.

:class:`~repro.serve.server.ServeExecutor` makes one shared arena
before it forks its workers, so every worker (each is a child it forked)
maps the same memory.  It holds ``max_inflight`` slots; a slot is one
row per own-row state slot the algorithm reads
(:meth:`~repro.algorithms.base.FederatedAlgorithm._row_slots`: ``ef.``,
``controls.``, ``prev.``).  The server copies a task's rows in before it
queues the task, and the worker writes its client's new error-feedback
residual over the slot's ``ef.`` row, which only that client reads and
which its block has finished reading, before it sends the update; the
server copies that row out once the update's frame has arrived.

The server goes through the arena's file descriptor (``pwrite`` /
``preadv``), never through the mapping, so the slots' pages stay out of
the server's resident set; workers read and write the mapping.
``docs/serving.md`` states who may touch a slot when.
"""

from __future__ import annotations

import heapq
import mmap
import os
import tempfile

import numpy as np

from repro.exceptions import ProtocolError

RESIDUAL = "ef."  # the prefix whose row a worker overwrites with the new residual


def _shared_file(size: int):
    """An anonymous file of ``size`` bytes: a memfd where the platform
    has one, else an unlinked temporary file."""
    if hasattr(os, "memfd_create"):
        handle = os.fdopen(os.memfd_create("repro-rows"), "r+b")
    else:
        handle = tempfile.TemporaryFile()
    handle.truncate(size)
    return handle


class RowArena:
    """``slots`` slots of ``prefixes`` rows (widths ``dims``), float64,
    in one shared file mapped before the fork."""

    def __init__(self, prefixes: list[str], dims: list[int], slots: int) -> None:
        self.prefixes = list(prefixes)
        self.slots = int(slots)
        self._starts = np.cumsum([0, *dims]).tolist()
        self._width = self._starts[-1]
        size = max(1, self.slots * self._width * 8)
        self._file = _shared_file(size)
        self._map = mmap.mmap(self._file.fileno(), size)
        self._rows = np.frombuffer(self._map, dtype=np.float64, count=self.slots * self._width)
        self._rows = self._rows.reshape(self.slots, self._width)
        self._free = list(range(self.slots))  # a heap: the lowest free slot first
        # The index of the ``ef.`` row, None when error feedback is off.
        self.residual_index = self.prefixes.index(RESIDUAL) if RESIDUAL in self.prefixes else None

    @classmethod
    def for_algorithm(cls, algorithm, slots: int) -> "RowArena | None":
        """The arena for ``algorithm``'s own-row slots; None without any."""
        row_slots = algorithm._row_slots()
        if not row_slots:
            return None
        return cls(
            [slot.reads for slot, _table in row_slots],
            [table.dim for _slot, table in row_slots],
            slots,
        )

    def _offset(self, slot: int, index: int) -> int:
        return (slot * self._width + self._starts[index]) * 8

    # -- the server's side (the file, not the mapping) ---------------------------
    def acquire(self) -> int:
        return heapq.heappop(self._free)

    def release(self, slot: int) -> None:
        heapq.heappush(self._free, slot)

    def fill(self, slot: int, rows: dict) -> tuple[int, int]:
        """Copy a task's ``<prefix>row`` arrays into ``slot``; returns
        ``(mask of the prefixes filled, bytes copied)``."""
        mask = copied = 0
        for index, prefix in enumerate(self.prefixes):
            row = rows.get(prefix + "row")
            if row is None:
                continue
            data = np.ascontiguousarray(row, dtype=np.float64)
            if os.pwrite(self._file.fileno(), data, self._offset(slot, index)) != data.nbytes:
                raise ProtocolError(f"short write of a row into slot {slot}")
            copied += data.nbytes
            mask |= 1 << index
        return mask, copied

    def read_residual(self, slot: int) -> np.ndarray:
        """A copy of the residual the worker wrote over ``slot``'s
        ``ef.`` row."""
        index = self.residual_index
        out = np.empty(self._starts[index + 1] - self._starts[index], dtype=np.float64)
        if os.preadv(self._file.fileno(), [out], self._offset(slot, index)) != out.nbytes:
            raise ProtocolError(f"short read of slot {slot}'s residual")
        return out

    # -- the worker's side (the mapping) -----------------------------------------
    def check(self, slot: int, mask: int) -> None:
        """Raise :class:`ProtocolError` unless ``slot`` and ``mask`` name
        this arena's slots and prefixes."""
        if not 0 <= slot < self.slots or mask >> len(self.prefixes):
            raise ProtocolError(f"slot {slot} (rows {mask:#x}) is outside the arena")

    def row(self, slot: int, index: int) -> np.ndarray:
        """``slot``'s row of ``prefixes[index]``, in the mapping (writable)."""
        return self._rows[slot, self._starts[index] : self._starts[index + 1]]

    def rows(self, slot: int, mask: int) -> dict[str, np.ndarray]:
        """Read-only views of the ``<prefix>row`` s ``mask`` says were filled."""
        out = {}
        for index, prefix in enumerate(self.prefixes):
            if mask >> index & 1:
                view = self.row(slot, index)
                view.flags.writeable = False
                out[prefix + "row"] = view
        return out

    def put_residual(self, slot: int, residual) -> None:
        """Write a client's new residual over ``slot``'s ``ef.`` row, once
        its block has read every row (there must be one exactly when the
        arena has an ``ef.`` row)."""
        if (residual is None) != (self.residual_index is None):
            raise ProtocolError("an update's residual does not match the arena's layout")
        if residual is not None:
            self.row(slot, self.residual_index)[:] = residual
