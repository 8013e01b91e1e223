"""Event-driven asynchronous execution engine with buffered aggregation.

FedAsync-style staleness weighting (Xie et al. 2019) built on the
execute/commit/aggregate split of the parallel engine so
**async is a scheduler swap, not an algorithm rewrite** — all ten
registered algorithms run unmodified, parallel client execution and the
packed wire transport included.

How a run proceeds (``config.execution == "async"``):

1. **Dispatch.**  Each server round samples a cohort from the *same*
   selection stream as the synchronous trainer, charges the broadcast,
   and runs every cohort member's local work immediately through the
   algorithm's :class:`~repro.fl.parallel.ClientExecutor`.  Each
   finished update is pushed onto an event heap with an *arrival time*
   drawn from the per-client runtime model
   (:mod:`repro.fl.runtime`) — training is simulated-time-shifted, not
   recomputed, so heavy lifting happens exactly once.
2. **Drain.**  The server pops arrivals in simulated-time order into a
   buffer until ``buffer_size`` updates are in hand (FedBuff-style), or
   the optional ``buffer_timeout`` fires with at least one update.
   Updates dispatched in earlier rounds arrive late and count with
   their staleness ``s = flush_round - dispatch_round``.
3. **Flush.**  Each buffered update that is stale (``s >= 1``) is
   re-based onto the current global model and discounted:
   ``params <- w_t + (1+s)^(-a) * (params - base)`` where ``base`` is
   the global model the client trained from.  Fresh updates (``s = 0``)
   are left byte-for-byte untouched.  Then the algorithm's own
   ``_commit_client`` / ``_aggregate_updates`` / ``_post_aggregate``
   run exactly as in a synchronous round.

**Zero-latency limit.**  With instant runtimes and a full-cohort buffer
every dispatched update arrives fresh and in selection order, so step 3
reduces to the synchronous round verbatim — the engine is bit-identical
to :func:`repro.fl.trainer.run_federated`'s barrier loop for every
algorithm, executor, transport and dtype (the ``async-equivalence``
test matrix enforces this).

Checkpoint/resume rides the :mod:`repro.ckpt` subsystem: the engine
adds one extra section (in-flight events, sim clock, async history) to
the standard run snapshot, and a resumed async run replays
bit-identically.  Runtime models are stateless by construction, so
there is no runtime RNG to snapshot.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from repro.data.dataset import FederatedDataset
from repro.exceptions import CheckpointError
from repro.fl.compression import WireSize
from repro.fl.config import FLConfig
from repro.fl.metrics import History, RoundRecord
from repro.fl.parallel import ClientUpdate
from repro.fl.runtime import make_runtime
from repro.fl.trainer import (
    RoundCallback,
    build_history,
    eval_per_client_accuracy,
    make_client_loss,
    release_round_state,
    resolve_round_callbacks,
    select_round_clients,
)
from repro.fl.client import evaluate_model
from repro.models.split import SplitModel
from repro.nn.serialization import set_flat_params
from repro.obs.sysinfo import record_scale_gauges


@dataclass
class AsyncUpdateRecord:
    """One client update applied by the asynchronous server.

    The JSON contract is symmetric with
    :class:`~repro.fl.metrics.RoundRecord`: :meth:`to_dict` /
    :meth:`from_dict` round-trip exactly and unknown keys are ignored.
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "AsyncUpdateRecord":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def from_json(cls, text: str) -> "AsyncUpdateRecord":
        return cls.from_dict(json.loads(text))


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

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "AsyncHistory":
        """Inverse of :meth:`to_dict`; extra top-level keys are ignored."""
        history = cls()
        history.final_accuracy = data.get("final_accuracy")
        history.discarded_updates = int(data.get("discarded_updates", 0))
        for record in data.get("records", []):
            history.records.append(AsyncUpdateRecord.from_dict(record))
        return history

    @classmethod
    def from_json(cls, text: str) -> "AsyncHistory":
        return cls.from_dict(json.loads(text))


# -- in-flight event (de)serialization for checkpoints ------------------------------

_UPDATE_SCALAR_FIELDS = (
    "client_id", "wire", "task_loss", "reg_loss", "num_steps",
    "train_seconds", "worker",
)


def _update_to_tree(update: ClientUpdate) -> dict:
    """A :class:`ClientUpdate` as a pack_tree-able dict.

    In-flight updates are always materialized (``params`` dense; the
    compressed ``params_streams`` they were decoded from are spent)
    before they enter the event heap, so only dense parameters, the
    scalar fields, the algorithm payload and the wire accounting need
    to ride along.
    """
    assert update.params is not None
    tree = {name: getattr(update, name) for name in _UPDATE_SCALAR_FIELDS}
    tree["params"] = update.params
    tree["payload"] = update.payload
    tree["wire_size"] = asdict(update.wire_size) if update.wire_size else None
    if update.residual is not None:
        tree["residual"] = update.residual
    return tree


def _update_from_tree(tree: dict) -> ClientUpdate:
    """Inverse of :func:`_update_to_tree`; every array is copied out of
    the (read-only) checkpoint section it was decoded from."""
    wire_size = tree.get("wire_size")
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
        wire_size=WireSize(**wire_size) if wire_size else None,
        residual=None if residual is None else np.array(residual, copy=True),
        **{name: tree[name] for name in _UPDATE_SCALAR_FIELDS},
    )


# -- the engine ---------------------------------------------------------------------


class _EventQueue:
    """Min-heap of in-flight updates ordered by (arrival time, dispatch
    sequence).  The sequence number both breaks time ties (dispatch
    order == selection order, the zero-latency bit-identity invariant)
    and keeps heap comparisons away from the payload objects."""

    def __init__(self) -> None:
        self.heap: list[tuple[float, int, int, np.ndarray, ClientUpdate]] = []
        self.seq = 0

    def __len__(self) -> int:
        return len(self.heap)

    def push(
        self, when: float, dispatch_round: int, base: np.ndarray, update: ClientUpdate
    ) -> None:
        heapq.heappush(self.heap, (when, self.seq, dispatch_round, base, update))
        self.seq += 1

    def peek_time(self) -> float:
        return self.heap[0][0]

    def pop(self) -> tuple[float, int, np.ndarray, ClientUpdate]:
        when, _seq, dispatch_round, base, update = heapq.heappop(self.heap)
        return when, dispatch_round, base, update

    def inflight_clients(self) -> set[int]:
        """Ids of clients with an undelivered update in the queue.

        Derived from the heap contents, so a checkpoint-restored queue
        reconstructs exactly the same set — the dispatch cap needs no
        extra persisted state.
        """
        return {update.client_id for _, _, _, _, update in self.heap}

    # -- checkpointing -----------------------------------------------------------
    def state_tree(self) -> dict:
        return {
            "seq": self.seq,
            "events": [
                {
                    "time": float(when),
                    "seq": int(seq),
                    "round": int(dispatch_round),
                    "base": base,
                    "update": _update_to_tree(update),
                }
                for when, seq, dispatch_round, base, update in self.heap
            ],
        }

    def restore_tree(self, tree: dict) -> None:
        self.seq = int(tree["seq"])
        self.heap = [
            (
                float(event["time"]),
                int(event["seq"]),
                int(event["round"]),
                np.array(event["base"], copy=True),
                _update_from_tree(event["update"]),
            )
            for event in tree["events"]
        ]
        heapq.heapify(self.heap)


def run_async_federated_engine(
    algorithm,
    fed: FederatedDataset,
    model_fn: Callable[[], SplitModel],
    config: FLConfig,
    *,
    eval_per_client: bool = False,
    callbacks: Sequence[RoundCallback] | None = None,
    selector=None,
    tracer=None,
    runtime=None,
) -> History:
    """Run one asynchronous federated job; called by
    :func:`repro.fl.trainer.run_federated` when
    ``config.execution == "async"`` (the dtype policy and executor
    lifecycle are managed there).

    Returns the run's :class:`~repro.fl.metrics.History` — one record
    per buffer flush, so downstream tooling (runner, artifacts, report
    tables) works unchanged — with the update-level
    :class:`AsyncHistory` attached as ``history.async_history``.
    """
    round_callbacks, tracer = resolve_round_callbacks(callbacks, tracer)

    model = model_fn()
    algorithm.tracer = tracer
    algorithm.setup(model, fed, config)
    round_rng = np.random.default_rng([config.seed, 0xF1])
    client_loss = make_client_loss(algorithm, model, fed, config)
    runtime = make_runtime(
        runtime if runtime is not None else config.runtime,
        fed.num_clients,
        config.seed,
    )

    history = build_history(algorithm.name, config)
    async_history = AsyncHistory()
    history.async_history = async_history
    queue = _EventQueue()
    clock = 0.0
    update_counter = 0

    # Crash-safe checkpointing: the standard run snapshot plus one
    # engine-owned section for the event queue / sim clock / async
    # records.  Flush boundaries are the only snapshot points, exactly
    # like round boundaries in the synchronous loop.
    manager = None
    start_round = 0
    if config.checkpoint_dir is not None:
        from repro.ckpt.format import unpack_tree
        from repro.ckpt.manager import CheckpointManager
        from repro.ckpt.state import (
            SECTION_ASYNC,
            capture_run_state,
            restore_run_state,
        )

        manager = CheckpointManager(config.checkpoint_dir, keep=config.checkpoint_keep)
        if config.resume:
            loaded = manager.load_latest_valid()
            if loaded is not None:
                manifest, sections = loaded
                last_round = restore_run_state(
                    manifest,
                    sections,
                    algorithm=algorithm,
                    round_rng=round_rng,
                    history=history,
                    config=config,
                    tracer=tracer,
                )
                if SECTION_ASYNC not in sections:
                    raise CheckpointError(
                        "checkpoint carries no async-engine section; it was "
                        "written by a synchronous run"
                    )
                engine_state = unpack_tree(sections[SECTION_ASYNC])
                clock = float(engine_state["clock"])
                update_counter = int(engine_state["update_counter"])
                queue.restore_tree(engine_state["queue"])
                restored = AsyncHistory.from_dict(engine_state["async_history"])
                async_history.records = restored.records
                async_history.final_accuracy = restored.final_accuracy
                async_history.discarded_updates = restored.discarded_updates
                start_round = last_round + 1
                del manifest, sections, engine_state
            # Everything restored was copied out of the section blobs;
            # bound here they would outlive the whole run.
            del loaded

    for round_idx in range(start_round, config.rounds):
        with tracer.span("round", round=round_idx):
            started = time.perf_counter()

            # 1. Dispatch this round's cohort.
            with tracer.span("sample"):
                selected = select_round_clients(
                    round_idx, fed, config, round_rng, selector, client_loss
                )
            # Dispatch cap: a client whose previous update is still in
            # flight is not re-dispatched — it is deferred, not dropped
            # (its earlier update will still arrive and count).  Without
            # this, a small buffer plus a long-tail runtime re-dispatches
            # slow clients every round and the queue grows without
            # bound.  Under zero latency the queue drains fully each
            # round, the in-flight set is empty, and the filter is a
            # no-op — bit-identity with the sync loop is untouched.
            if config.dispatch_cap and len(queue):
                inflight = queue.inflight_clients()
                keep = np.array(
                    [int(c) not in inflight for c in selected], dtype=bool
                )
                deferred = int(len(selected) - keep.sum())
                if deferred:
                    selected = selected[keep]
                    if tracer.enabled:
                        tracer.metrics.counter("async.deferred_dispatches").inc(
                            deferred
                        )
            # Same ordering as the sync trainer: the selection counter
            # sees the sampled cohort, fault dropout filters after.
            if tracer.enabled:
                for client_id in selected:
                    tracer.metrics.counter(
                        "clients.selected", client=int(client_id)
                    ).inc()
            algorithm._pre_round(round_idx, selected)
            if algorithm.fault_model is not None:
                selected = algorithm.fault_model.surviving_clients(selected)
            with tracer.span("broadcast"):
                algorithm._charge_broadcast(selected)
            with tracer.span("dispatch", cohort=len(selected)):
                updates = algorithm._execute_clients(round_idx, selected)
                base = algorithm.global_params
                for update in updates:
                    queue.push(
                        clock + runtime.duration(round_idx, update.client_id),
                        round_idx,
                        base,
                        update,
                    )

            # 2. Drain arrivals into the buffer.
            target = config.buffer_size or len(selected)
            if not target and len(queue):
                # Every cohort member was deferred: the round still
                # consumes at least one arrival so the backlog drains.
                target = 1
            deadline = (
                clock + config.buffer_timeout
                if config.buffer_timeout is not None
                else None
            )
            buffer: list[tuple[int, int, np.ndarray, ClientUpdate]] = []
            while len(queue) and len(buffer) < target:
                if (
                    deadline is not None
                    and buffer
                    and queue.peek_time() > deadline
                ):
                    break
                when, dispatch_round, event_base, update = queue.pop()
                clock = max(clock, when)
                staleness = round_idx - dispatch_round
                buffer.append((dispatch_round, staleness, event_base, update))

            # 3. Flush: staleness-discount, commit, aggregate.
            buffer_ids = np.array(
                [update.client_id for _, _, _, update in buffer], dtype=np.int64
            )
            flush_records: list[AsyncUpdateRecord] = []
            for dispatch_round, staleness, event_base, update in buffer:
                weight = 1.0
                if staleness > 0:
                    # Re-base the stale delta onto the current model and
                    # discount it; fresh updates stay bitwise untouched.
                    weight = (1.0 + staleness) ** (-config.staleness_exponent)
                    update.params = algorithm.global_params + weight * (
                        update.params - event_base
                    )
                    if tracer.enabled:
                        tracer.metrics.counter("async.stale_updates").inc()
                flush_records.append(
                    AsyncUpdateRecord(
                        update_idx=update_counter,
                        sim_time=clock,
                        client_id=update.client_id,
                        staleness=staleness,
                        effective_weight=weight,
                        train_loss=update.task_loss,
                        dispatch_round=dispatch_round,
                        flush_round=round_idx,
                    )
                )
                update_counter += 1
                if tracer.enabled:
                    tracer.metrics.histogram("async.staleness").observe(
                        float(staleness)
                    )
            async_history.records.extend(flush_records)
            if tracer.enabled:
                tracer.metrics.gauge("async.buffer_occupancy").set(len(buffer))
                tracer.metrics.gauge("async.inflight").set(len(queue))
                tracer.metrics.gauge("async.sim_time").set(clock)

            buffered_updates = [update for _, _, _, update in buffer]
            algorithm._charge_uploads(buffer_ids, buffered_updates)
            for update in buffered_updates:
                if algorithm.fault_model is not None and (
                    algorithm.fault_model.is_byzantine(update.client_id)
                ):
                    algorithm.fault_model.corrupted_total += 1
                algorithm._commit_client(round_idx, update)
            if buffered_updates:
                with tracer.span("aggregate"):
                    algorithm.global_params = algorithm._aggregate_updates(
                        round_idx, buffer_ids, buffered_updates
                    )
                    algorithm._post_aggregate(round_idx, buffer_ids)
                stats = algorithm._round_stats(buffer_ids, buffered_updates)
                train_loss, reg_loss = stats.train_loss, stats.reg_loss
            else:  # every dispatched client dropped out — keep the model
                train_loss, reg_loss = float("nan"), 0.0
            elapsed = time.perf_counter() - started

            assert algorithm.ledger is not None
            round_comm = algorithm.ledger.end_round()
            record = RoundRecord(
                round_idx=round_idx,
                train_loss=train_loss,
                reg_loss=reg_loss,
                wall_time_sec=elapsed,
                bytes_down=round_comm["down"],
                bytes_up=round_comm["up"],
                num_selected=len(selected),
            )
            is_eval_round = (
                round_idx % config.eval_every == 0 or round_idx == config.rounds - 1
            )
            if is_eval_round:
                with tracer.span("eval"):
                    assert algorithm.global_params is not None
                    set_flat_params(model, algorithm.global_params)
                    test_loss, test_acc = evaluate_model(
                        model, fed.test, config.eval_batch
                    )
                    record.test_loss = test_loss
                    record.test_accuracy = test_acc
                    if flush_records:
                        flush_records[-1].test_accuracy = test_acc
            history.append(record)
            for callback in round_callbacks:
                callback(record)

            if manager is not None and (
                (round_idx + 1) % config.checkpoint_every == 0
                or round_idx == config.rounds - 1
            ):
                # Sections alias live state; never bound here.
                with tracer.span("checkpoint"):
                    manager.save(
                        round_idx,
                        *capture_run_state(
                            round_idx=round_idx,
                            algorithm=algorithm,
                            round_rng=round_rng,
                            history=history,
                            config=config,
                            tracer=tracer,
                            extra_sections={
                                SECTION_ASYNC: {
                                    "clock": float(clock),
                                    "update_counter": int(update_counter),
                                    "queue": queue.state_tree(),
                                    "async_history": async_history.to_dict(),
                                }
                            },
                        ),
                    )
            record_scale_gauges(tracer, fed)
        release_round_state(fed)

    # In-flight stragglers at the end of the round budget never land.
    async_history.discarded_updates += len(queue)
    if tracer.enabled and len(queue):
        tracer.metrics.counter("async.discarded_updates").inc(len(queue))

    history.final_accuracy = history.last_accuracy()
    async_history.final_accuracy = history.final_accuracy
    if eval_per_client:
        history.per_client_accuracy = eval_per_client_accuracy(
            algorithm, model, fed, config, tracer
        )
    return history
