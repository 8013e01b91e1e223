"""The worker engine's dispatch policy, as one pure schedule.

:class:`WaveSchedule` decides which block, and whether its group's
frames go before it, goes to which connection; :class:`~repro.serve.server.ServeExecutor`
only moves the bytes.  It holds no socket, clock or process: a
connection is any hashable, the events are ``hello``, ``update`` and
``dead``, and the action is ``next_send``.  The rules, each with the
scripted case in ``tests/serve/test_schedule.py`` that holds it:

1. **Units**: :func:`repro.fl.parallel.dispatch_units`, from the head of
   the queue in order.
2. **State before block**: a connection is sent a group's frames (the
   server's model frame, behind the shared state frame where the
   connection lacks it) just before its first block of that group, and
   again after a block of another group; nothing on accept
   (``test_state_goes_before_its_block``).
3. **Two blocks a connection**: a block goes to a connection that said
   hello and holds fewer than two blocks (one training, one queued),
   fewer than one while a live forked worker has not said hello; the one
   holding the fewest positions wins, the first listed on a tie
   (``test_a_late_hello_gets_the_next_block``).
4. **The cap**: at most ``max_inflight`` positions are out; the head
   block is cut to what the cap leaves (``test_the_cap_cuts_the_head_block``).
5. **Matching**: an update fills the earliest position its connection
   holds for that client; any other is a duplicate
   (``test_an_update_fills_its_connections_earliest_position``).
6. **Death**: a dead connection's unanswered positions go back to the
   head of the queue as redispatches, each block's remainder a block of
   its own (``test_a_dead_connections_positions_come_back_as_blocks``).

``test_random_interleavings_keep_every_rule`` drives them all with
seeded random hellos, answers, duplicates, stale updates and deaths.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable
from typing import NamedTuple


class Send(NamedTuple):
    """One block for one connection, after group frames ``state`` unless None."""

    conn: Hashable
    state: int | None
    group: int
    slots: list[tuple[int, int]]  # (position, client)
    redispatch: bool  # every slot was dispatched before, to a dead connection


class WaveSchedule:
    """The waves served over one set of connections (module docstring)."""

    def __init__(self, max_inflight: int) -> None:
        self.max_inflight = max_inflight
        self._held: dict = {}  # helloed conn -> {position: (client, block)}
        self._installed: dict = {}  # conn -> the number of the frames it was last sent
        self.begin_wave([], [])

    def begin_wave(self, units, seqs) -> None:
        """Queue a wave's ``(group, refusal, slots)`` units; ``seqs[g]``
        numbers group ``g``'s frames."""
        self._pending = deque((*unit, False) for unit in units)
        self._seqs = list(seqs)
        self.blocks: list[tuple[int, str | None, list[tuple[int, int]]]] = []
        self.remaining = sum(len(slots) for *_unit, slots in units)

    def hello(self, conn) -> None:
        self._held.setdefault(conn, {})

    def position(self, conn, client_id: int) -> int | None:
        """The position an update from ``conn`` would fill, None for a
        duplicate; nothing changes until :meth:`update`."""
        held = self._held.get(conn, {})
        return next((pos for pos, (cid, _b) in held.items() if cid == client_id), None)

    def update(self, conn, client_id: int) -> int | None:
        """The position an update from ``conn`` fills, None for a duplicate."""
        position = self.position(conn, client_id)
        if position is not None:
            del self._held[conn][position]
            self.remaining -= 1
        return position

    def dead(self, conn) -> None:
        by_block: dict[int, list[tuple[int, int]]] = {}
        for pos, (cid, block) in sorted(self._held.pop(conn, {}).items()):
            by_block.setdefault(block, []).append((pos, cid))
        for block in sorted(by_block, reverse=True):
            group, refusal, _slots = self.blocks[block]
            self._pending.appendleft((group, refusal, by_block[block], True))
        self._installed.pop(conn, None)

    def next_send(self, conns, unhelloed: int) -> Send | None:
        """The head block's :class:`Send`, or None while nothing may go.
        ``conns`` are the connections whose byte queue has room, in a
        fixed order; ``unhelloed`` counts live forked workers that have
        not said hello.  One send a call: queueing it may fill a queue."""
        inflight = sum(map(len, self._held.values()))
        if not self._pending or inflight >= self.max_inflight:
            return None
        limit = 1 if unhelloed else 2
        best = None
        for conn in conns:
            held = self._held.get(conn)
            if held is None or len({block for _cid, block in held.values()}) >= limit:
                continue
            if best is None or len(held) < len(self._held[best]):
                best = conn
        if best is None:
            return None
        group, refusal, slots, redispatch = self._pending.popleft()
        size = min(len(slots), self.max_inflight - inflight)
        if size < len(slots):
            self._pending.appendleft((group, refusal, slots[size:], redispatch))
            slots = slots[:size]
        self.blocks.append((group, refusal, slots))
        self._held[best].update((pos, (cid, len(self.blocks) - 1)) for pos, cid in slots)
        seq = self._seqs[group]
        state = None if self._installed.get(best) == seq else seq
        self._installed[best] = seq
        return Send(best, state, group, slots, redispatch)
