"""The buffered-event round step: asynchronous execution with staleness.

FedAsync-style staleness weighting (Xie et al. 2019) built on the
begin/commit halves of :class:`~repro.algorithms.base.FederatedAlgorithm`
so **async is a scheduler swap, not an algorithm rewrite** — all ten
registered algorithms run unmodified, parallel client execution
included.  :func:`repro.fl.trainer.run_federated`
owns the loop (sampling, records, evaluation, callbacks, checkpoints);
with ``config.execution == "async"`` each of its rounds runs
:meth:`BufferedStep.run`:

1. **Dispatch.**  The round's cohort — sampled from the *same*
   selection stream as a synchronous run — is charged the broadcast,
   the round records the state its clients train on (the
   ``_worker_state`` snapshot the worker engine broadcasts), and each
   client is pushed onto an event heap with an *arrival time* drawn
   from the per-client runtime model (:mod:`repro.fl.runtime`).
2. **Drain.**  The server pops arrivals in simulated-time order into a
   buffer until ``buffer_size`` updates are in hand (FedBuff-style), or
   the optional ``buffer_timeout`` fires with at least one update, and
   trains them in one call of the algorithm's
   :class:`~repro.fl.parallel.ClientExecutor` (a group per dispatch
   round) on the state their dispatch round recorded — so heavy lifting
   happens at most once, when an update lands.  In process an update
   that never lands never trains; on workers, the slots a drain would
   leave idle train the earliest pending updates ahead of landing (at
   most ``num_workers - 1`` a drain, none in the final round).
   Updates dispatched in earlier rounds arrive late and count with
   their staleness ``s = flush_round - dispatch_round``.
3. **Flush.**  Each buffered update that is stale (``s >= 1``) is
   re-based onto the current global model and discounted:
   ``params <- w_t + (1+s)^(-a) * (params - base)`` where ``base`` is
   the global model the client trained from.  Fresh updates (``s = 0``)
   are left byte-for-byte untouched.  Then the algorithm's
   ``commit_round`` runs exactly as in a synchronous round.

**Zero-latency limit.**  With instant runtimes and a full-cohort buffer
every dispatched update arrives fresh and in selection order, so step 3
reduces to the synchronous round verbatim — the step is bit-identical
to the barrier step for every algorithm, executor and dtype
(the ``engine-equivalence`` test matrix enforces this).

The step owns one checkpoint section (in-flight events, sim clock,
update-level history) that the trainer saves and restores with the
standard run snapshot, so a resumed async run replays bit-identically;
the events still pending train before it is written, so it holds
trained updates only.
Runtime models are stateless by construction, so there is no runtime
RNG to snapshot.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro.fl.client import evaluate_model  # noqa: F401 -- bench/instrument.py wraps this name
from repro.fl.compression import WireSize
from repro.fl.config import FLConfig
from repro.fl.metrics import History, RoundRecord
from repro.fl.parallel import ClientUpdate, dispatch_units
from repro.fl.runtime import make_runtime
from repro.nn.serialization import set_flat_params  # noqa: F401 -- bench/instrument.py wraps this name


@dataclass
class AsyncUpdateRecord:
    """One client update applied by the asynchronous server.

    :meth:`to_dict` / :meth:`from_dict` round-trip exactly (a checkpoint
    stores the dict as JSON) and unknown keys are ignored.
    """

    update_idx: int
    sim_time: float
    client_id: int
    staleness: int
    effective_weight: float
    train_loss: float
    test_accuracy: float | None = None
    dispatch_round: int = 0
    flush_round: int = 0

    # -- persistence --------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable representation (plain python scalars)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AsyncUpdateRecord":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class AsyncHistory:
    """Per-update trajectory of an asynchronous run.

    The engine's :class:`~repro.fl.metrics.History` carries the
    round-level curve (one record per buffer flush); this carries the
    update-level view — who arrived when, how stale, at what weight.
    """

    records: list[AsyncUpdateRecord] = field(default_factory=list)
    final_accuracy: float | None = None
    discarded_updates: int = 0

    def staleness_values(self) -> np.ndarray:
        return np.array([r.staleness for r in self.records])

    def max_staleness(self) -> int:
        values = self.staleness_values()
        return int(values.max()) if len(values) else 0

    def mean_staleness(self) -> float:
        values = self.staleness_values()
        return float(values.mean()) if len(values) else 0.0

    def client_update_counts(self, num_clients: int) -> np.ndarray:
        counts = np.zeros(num_clients, dtype=np.int64)
        for record in self.records:
            counts[record.client_id] += 1
        return counts

    def accuracies(self) -> np.ndarray:
        pts = [
            (r.update_idx, r.test_accuracy)
            for r in self.records
            if r.test_accuracy is not None
        ]
        return np.array(pts) if pts else np.zeros((0, 2))

    # -- persistence --------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "final_accuracy": self.final_accuracy,
            "discarded_updates": self.discarded_updates,
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AsyncHistory":
        """Inverse of :meth:`to_dict`; extra top-level keys are ignored."""
        history = cls()
        history.final_accuracy = data.get("final_accuracy")
        history.discarded_updates = int(data.get("discarded_updates", 0))
        for record in data.get("records", []):
            history.records.append(AsyncUpdateRecord.from_dict(record))
        return history


# -- in-flight event (de)serialization for checkpoints ------------------------------

_UPDATE_SCALAR_FIELDS = (
    "client_id", "task_loss", "reg_loss", "num_steps", "train_seconds", "worker",
)


def _update_to_tree(update: ClientUpdate) -> dict:
    """A :class:`ClientUpdate` as a pack_tree-able dict.

    A trained update is materialized (``params`` dense; the compressed
    ``params_streams`` it was decoded from are spent) by the executor
    call that trained it, so only dense parameters, the
    scalar fields, the algorithm payload and the wire accounting need
    to ride along.
    """
    assert update.params is not None
    tree = {name: getattr(update, name) for name in _UPDATE_SCALAR_FIELDS}
    tree["params"] = update.params
    tree["payload"] = update.payload
    tree["wire_size"] = asdict(update.wire_size)
    if update.residual is not None:
        tree["residual"] = update.residual
    return tree


def _update_from_tree(tree: dict) -> ClientUpdate:
    """Inverse of :func:`_update_to_tree`; every array is copied out of
    the (read-only) checkpoint section it was decoded from.  Trees written
    while uploads also had a scalar count carry a ``wire`` key and two
    more ``wire_size`` keys; they are ignored."""
    wire_size = tree["wire_size"]
    residual = tree.get("residual")
    payload = tree.get("payload")
    if payload is not None:
        payload = {
            key: np.array(value, copy=True) if isinstance(value, np.ndarray) else value
            for key, value in payload.items()
        }
    return ClientUpdate(
        params=np.array(tree["params"], copy=True),
        payload=payload,
        wire_size=WireSize(
            values=wire_size["values"],
            index_ints=wire_size["index_ints"],
            raw_bytes=wire_size["raw_bytes"],
        ),
        residual=None if residual is None else np.array(residual, copy=True),
        **{name: tree[name] for name in _UPDATE_SCALAR_FIELDS},
    )


# -- the round step -----------------------------------------------------------------


def _wave(groups: list[list["_Event"]]) -> list[tuple]:
    """Groups of pending events of one dispatch round each, as
    ``run_regions`` groups: ``(client_ids, params, round, state)``."""
    return [
        ([event.client_id for event in group], group[0].base, group[0].dispatch_round,
         group[0].state)
        for group in groups
    ]


@dataclass(order=True)
class _Event:
    """One dispatched client update, ordered by (arrival time, dispatch
    sequence).  The sequence number both breaks time ties (dispatch
    order == selection order, the zero-latency bit-identity invariant)
    and keeps comparisons away from the arrays.  A pending event holds
    ``state``, the round state its dispatch round recorded (shared by
    that round's events), until it is trained into ``update``."""

    when: float
    seq: int
    dispatch_round: int = field(compare=False)
    client_id: int = field(compare=False)
    base: np.ndarray = field(compare=False, repr=False)
    state: dict | None = field(default=None, compare=False, repr=False)
    update: ClientUpdate | None = field(default=None, compare=False, repr=False)


class _EventQueue:
    """Min-heap of in-flight :class:`_Event` records."""

    def __init__(self) -> None:
        self.heap: list[_Event] = []
        self.seq = 0

    def __len__(self) -> int:
        return len(self.heap)

    def push(self, when: float, dispatch_round: int, client_id: int, state: dict) -> None:
        event = _Event(when, self.seq, dispatch_round, client_id, state["global_params"], state)
        heapq.heappush(self.heap, event)
        self.seq += 1

    def peek_time(self) -> float:
        return self.heap[0].when

    def pop(self) -> _Event:
        return heapq.heappop(self.heap)

    def inflight_clients(self) -> set[int]:
        """Ids of clients with an undelivered update in the queue.

        Derived from the heap contents, so a checkpoint-restored queue
        reconstructs exactly the same set — the dispatch cap needs no
        extra persisted state.
        """
        return {event.client_id for event in self.heap}

    # -- checkpointing -----------------------------------------------------------
    def state_tree(self) -> dict:
        """Every event, trained (the step trains pending ones first)."""
        return {
            "seq": self.seq,
            "events": [
                {
                    "time": float(event.when),
                    "seq": int(event.seq),
                    "round": int(event.dispatch_round),
                    "base": event.base,
                    "update": _update_to_tree(event.update),
                }
                for event in self.heap
            ],
        }

    def restore_tree(self, tree: dict) -> None:
        self.seq = int(tree["seq"])
        self.heap = []
        for data in tree["events"]:
            update = _update_from_tree(data["update"])
            self.heap.append(
                _Event(
                    float(data["time"]), int(data["seq"]), int(data["round"]),
                    update.client_id, np.array(data["base"], copy=True), update=update,
                )
            )
        heapq.heapify(self.heap)


class BufferedStep:
    """One asynchronous round: dispatch the cohort, drain arrivals into
    a buffer, flush the buffer through the algorithm's commit half."""

    def __init__(self, algorithm, fed, config: FLConfig, runtime=None) -> None:
        # Imported here: repro.ckpt imports repro.fl.
        from repro.ckpt.state import SECTION_ASYNC

        self.section = SECTION_ASYNC
        self.algorithm = algorithm
        self.config = config
        self.runtime = make_runtime(
            runtime if runtime is not None else config.runtime,
            fed.num_clients,
            config.seed,
        )
        self.history = AsyncHistory()
        self.queue = _EventQueue()
        self.clock = 0.0
        self.update_counter = 0

    def run(self, round_idx: int, cohort: np.ndarray):
        algorithm, config, queue = self.algorithm, self.config, self.queue
        tracer = algorithm.tracer

        # 1. Dispatch.  A client whose previous update is still in
        # flight is not re-dispatched — it is deferred, not dropped (its
        # earlier update will still arrive and count).  Without this cap
        # a small buffer plus a long-tail runtime re-dispatches slow
        # clients every round and the queue grows without bound.  Under
        # zero latency the queue drains fully each round, the in-flight
        # set is empty, and the filter is a no-op — bit-identity with
        # the barrier step is untouched.
        if config.dispatch_cap and len(queue):
            inflight = queue.inflight_clients()
            keep = np.array([int(c) not in inflight for c in cohort], dtype=bool)
            deferred = int(len(cohort) - keep.sum())
            if deferred:
                cohort = cohort[keep]
                if tracer.enabled:
                    tracer.metrics.counter("async.deferred_dispatches").inc(deferred)
        cohort = algorithm.begin_round(round_idx, cohort)
        # Nothing trains yet: the round records the state its clients
        # train on, and each client's arrival time.
        with tracer.span("dispatch", cohort=len(cohort)):
            if len(cohort):
                state = algorithm._worker_state(cohort)
                for client_id in cohort:
                    queue.push(
                        self.clock + self.runtime.duration(round_idx, int(client_id)),
                        round_idx,
                        int(client_id),
                        state,
                    )

        # 2. Drain arrivals into the buffer, and train what landed.
        target = config.buffer_size or len(cohort)
        if not target and len(queue):
            # Every cohort member was deferred: the round still
            # consumes at least one arrival so the backlog drains.
            target = 1
        deadline = (
            self.clock + config.buffer_timeout
            if config.buffer_timeout is not None
            else None
        )
        arrivals: list[_Event] = []
        while len(queue) and len(arrivals) < target:
            if deadline is not None and arrivals and queue.peek_time() > deadline:
                break
            event = queue.pop()
            self.clock = max(self.clock, event.when)
            arrivals.append(event)
        self._train(arrivals, fill=round_idx < config.rounds - 1)

        # 3. Flush: staleness-discount, then commit and aggregate, one
        # update at a time.
        buffer_ids = np.array([event.client_id for event in arrivals], dtype=np.int64)
        flushed = self._flush(round_idx, arrivals)
        stats = algorithm.commit_round(round_idx, buffer_ids, flushed)
        if tracer.enabled:
            tracer.metrics.gauge("async.buffer_occupancy").set(len(arrivals))
            tracer.metrics.gauge("async.inflight").set(len(queue))
            tracer.metrics.gauge("async.sim_time").set(self.clock)
        return stats, cohort

    def _flush(self, round_idx: int, arrivals: list[_Event]):
        """The buffer's updates, in arrival order, each re-based and
        discounted if stale, recorded, and let go of by its event."""
        algorithm, config = self.algorithm, self.config
        tracer = algorithm.tracer
        for event in arrivals:
            update, dispatch_round = event.update, event.dispatch_round
            event.update = None
            staleness = round_idx - dispatch_round
            weight = 1.0
            if staleness > 0:
                # Re-base the stale delta onto the current model and
                # discount it; fresh updates stay bitwise untouched.
                weight = (1.0 + staleness) ** (-config.staleness_exponent)
                update.params = algorithm.global_params + weight * (
                    update.params - event.base
                )
            self.history.records.append(
                AsyncUpdateRecord(
                    update_idx=self.update_counter,
                    sim_time=self.clock,
                    client_id=update.client_id,
                    staleness=staleness,
                    effective_weight=weight,
                    train_loss=update.task_loss,
                    dispatch_round=dispatch_round,
                    flush_round=round_idx,
                )
            )
            self.update_counter += 1
            if tracer.enabled:
                if staleness > 0:
                    tracer.metrics.counter("async.stale_updates").inc()
                tracer.metrics.histogram("async.staleness").observe(float(staleness))
            yield update

    def _train(self, events: list[_Event], fill: bool = False) -> None:
        """Train every pending event in ``events`` in one executor call:
        each dispatch round's clients a group, on the state that round
        recorded, with that round's per-(round, client) streams.  With
        ``fill``, the worker slots the call would leave idle
        (:meth:`~repro.fl.parallel.ClientExecutor.spare_slots`) train the
        earliest pending events still in flight, each a group of its own
        (so a dispatch unit of its own), which keep their update until
        they land."""
        algorithm = self.algorithm
        by_round: dict[int, list[_Event]] = {}
        for event in events:
            if event.update is None:
                by_round.setdefault(event.dispatch_round, []).append(event)
        groups = list(by_round.values())
        if not groups:
            return
        if fill:
            units = len(dispatch_units(algorithm, _wave(groups)))
            ahead = heapq.nsmallest(
                algorithm.executor.spare_slots(units),
                (event for event in self.queue.heap if event.update is None),
            )
            groups += [[event] for event in ahead]
            if ahead and algorithm.tracer.enabled:
                algorithm.tracer.metrics.counter("async.trained_ahead").inc(len(ahead))
        out = algorithm.executor.run_regions(algorithm, max(by_round), _wave(groups))
        for group, updates in zip(groups, out):
            for event, update in zip(group, updates):
                event.update, event.state = algorithm._receive(update, event.base), None

    def observe(self, record: RoundRecord, round_comm: dict) -> None:
        """An evaluated round stamps its accuracy on the last update it
        committed."""
        flushed = self.history.records
        if (
            record.test_accuracy is not None
            and flushed
            and flushed[-1].flush_round == record.round_idx
        ):
            flushed[-1].test_accuracy = record.test_accuracy

    def finish(self, history: History) -> None:
        """Attach the update-level history; in-flight stragglers at the
        end of the round budget never land."""
        tracer = self.algorithm.tracer
        self.history.discarded_updates += len(self.queue)
        if tracer.enabled and len(self.queue):
            tracer.metrics.counter("async.discarded_updates").inc(len(self.queue))
        self.history.final_accuracy = history.final_accuracy
        history.async_history = self.history

    # -- checkpointing -----------------------------------------------------------
    def state_tree(self) -> dict:
        """The section a checkpoint writes: the events still pending are
        trained first, so it holds every in-flight update as a trained
        one, as it always has."""
        self._train(self.queue.heap)
        return {
            "clock": float(self.clock),
            "update_counter": int(self.update_counter),
            "queue": self.queue.state_tree(),
            "async_history": self.history.to_dict(),
        }

    def restore_tree(self, tree: dict) -> None:
        self.clock = float(tree["clock"])
        self.update_counter = int(tree["update_counter"])
        self.queue.restore_tree(tree["queue"])
        self.history = AsyncHistory.from_dict(tree["async_history"])
