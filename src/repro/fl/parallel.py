"""Pluggable client-execution engines with serial-equivalence guarantees.

One federated round trains every selected client independently: the
per-client work reads round-start state (global parameters, delta
tables, control variates) and all randomness is derived from
``(seed, round, client)`` streams, so client order and placement cannot
change the numbers.  The engines here exploit that:

* :class:`SerialExecutor` — the in-process reference loop.
* :class:`ParallelExecutor` — a ``concurrent.futures`` process pool
  (``fork`` start method) forked **once per run** and kept alive across
  rounds.  The round-constant algorithm state (global parameters, delta
  tables, control variates) is packed into the flat-buffer wire format
  (:mod:`repro.fl.wire`) and written into a fork-inherited anonymous
  shared-memory buffer **once per round** — workers map it zero-copy —
  and workers return packed update buffers.

**Determinism contract.**  ``Algorithm._client_update`` must not mutate
shared algorithm state (worker-side mutations are discarded); every
per-client side effect belongs in ``_commit_client``, which the round
runs in *selection order* regardless of completion order.  Workers
return :class:`ClientUpdate` records and the parent reduces them in
selection order, so a parallel round is bit-identical to
``num_workers=1``.

**Worker-state contract.**  Because workers live across rounds,
everything a worker-side ``_client_update`` reads from shared algorithm
state must be enumerated by ``Algorithm._worker_state(cohort)`` (and
reinstated by ``_install_worker_state``); state not listed there goes
stale in the workers after round 0.  ``cohort`` is the ids the round is
about to run: a table a task reads only at its own client's row travels
as the cohort's rows, never whole.  An algorithm that cannot enumerate
its round state sets ``wire_transport_safe = False``.

**Degradation.**  The pool has exactly one: any pool failure — the
``fork`` start method unavailable, an algorithm with
``wire_transport_safe = False``, round state the wire format cannot
express, a worker crash, unpicklable results, poisoned tasks — sends the
executor to in-process serial execution for the rest of the run, with
one :class:`RuntimeWarning` (as :class:`repro.serve.server.ServeExecutor`
does).  The determinism contract makes the rerun safe.  A single
*update* the wire format cannot express (an exotic payload value)
returns as that client's pickled record instead; the round stays on the
pool.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import struct
import time
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures import as_completed
from dataclasses import dataclass

import numpy as np

from repro.core.delta import cohort_state_headroom
from repro.exceptions import ConfigError, WireError
from repro.fl import wire
from repro.fl.compression import WireSize
from repro.fl.config import validate_choice
from repro.obs.trace import NULL_TRACER


@dataclass
class ClientUpdate:
    """Everything one client's local round produces.

    Attributes:
        client_id: the trained client.
        params: the parameters the server receives (after the fault /
            compression upload pipeline).  ``None`` while the update is
            still carrying compressed wire streams — the round
            materializes it before any reduction step runs.
        wire_size: exact on-wire footprint of the upload
            (:class:`~repro.fl.compression.WireSize`); the ledger charges
            ``wire_size.nbytes(dtype_bytes)``.
        task_loss: mean task loss over the local steps.
        reg_loss: mean (lambda-weighted) regularizer loss.
        num_steps: local steps actually run (FedNova's tau_k).
        train_seconds: worker-side wall time of the local work.
        worker: pid of the process that ran the work (0 = in-process).
        payload: algorithm-specific picklable extras (rFedAvg's delta,
            SCAFFOLD's control refresh, MOON's previous-model update).
        params_streams: compressed wire streams (``values``, plus int32
            ``indices`` after a coordinate selector) when a compressor
            encoded the upload; the server reconstructs ``params`` from
            them.
        residual: the client's next error-feedback accumulator
            ``e_{t+1}`` when upload compression runs with error
            feedback; committed to the server-side residual table in
            selection order.  Simulation bookkeeping — in a real
            deployment this state never leaves the client, so it is
            not charged to the ledger.
    """

    client_id: int
    params: np.ndarray | None
    wire_size: WireSize
    task_loss: float
    reg_loss: float
    num_steps: int
    train_seconds: float = 0.0
    worker: int = 0
    payload: dict | None = None
    params_streams: dict | None = None
    residual: np.ndarray | None = None


class ClientExecutor:
    """Interface: run the selected clients' local work for one round."""

    name = "base"
    num_workers = 1

    def run(self, algorithm, round_idx: int, client_ids: list[int]) -> list[ClientUpdate]:
        """Return one :class:`ClientUpdate` per client, in input order."""
        raise NotImplementedError

    def run_regions(
        self,
        algorithm,
        round_idx: int,
        regions: list[tuple[np.ndarray, np.ndarray]],
    ) -> list[list[ClientUpdate]]:
        """Run several regions' cohorts, each against its own model.

        ``regions`` is a list of ``(client_ids, region_params)`` pairs
        (the hierarchical engine's per-region sub-cohorts).  Returns one
        update list per region, each in input order.  The base
        implementation runs regions sequentially through :meth:`run`
        with the region's parameters installed; the process pool
        overrides this to run *all* regions' clients concurrently.
        Determinism contract as :meth:`run`: per-client work depends
        only on ``(seed, round, client)`` and the installed region
        state, so scheduling cannot change the numbers.
        """
        out: list[list[ClientUpdate]] = []
        for client_ids, params in regions:
            if not len(client_ids):
                out.append([])
                continue
            algorithm.global_params = params
            out.append(self.run(algorithm, round_idx, [int(c) for c in client_ids]))
        return out

    def close(self) -> None:
        """Release pools / shared buffers.  The executor stays usable —
        resources are re-created lazily on the next :meth:`run`."""


class SerialExecutor(ClientExecutor):
    """The reference engine: the cohort runs in-process, in order.

    The unit of work is a block of clients (``algorithm.cohort_blocks``):
    one stacked pass (``algorithm._block_update``) where the algorithm's
    ``stack_refusal`` has no objection, one client at a time
    (``algorithm._client_update``) where it has — same updates, same
    order, same bytes either way.  Traced runs count
    ``executor.stacked_blocks`` / ``executor.stacked_clients`` and, once
    per round and reason, ``executor.cohort_unstacked{reason=...}``.
    """

    name = "serial"

    def run(self, algorithm, round_idx: int, client_ids: list[int]) -> list[ClientUpdate]:
        tracer = algorithm.tracer
        updates: list[ClientUpdate] = []
        blocks = algorithm.cohort_blocks(client_ids)
        for block, refusal in blocks:
            if refusal is None and len(block) > 1:
                updates += algorithm._block_update(round_idx, block)
                if tracer.enabled:
                    self._emit_block_spans(tracer, updates[-len(block) :])
                continue
            for client_id in block:
                with tracer.span("local_train", client=client_id):
                    updates.append(algorithm._client_update(round_idx, client_id))
        if tracer.enabled:
            self.count_blocks(tracer.metrics, blocks)
        return updates

    @staticmethod
    def count_blocks(metrics, blocks: list[tuple[list[int], str | None]]) -> None:
        """Count a round's ``(block, refusal)`` pairs: what stacked, and
        each reason something did not, once."""
        stacked = [block for block, refusal in blocks if refusal is None and len(block) > 1]
        if stacked:
            metrics.counter("executor.stacked_blocks").inc(len(stacked))
            metrics.counter("executor.stacked_clients").inc(sum(map(len, stacked)))
        for refusal in sorted({refusal for _, refusal in blocks if refusal is not None}):
            metrics.counter("executor.cohort_unstacked", reason=refusal).inc()

    @staticmethod
    def _emit_block_spans(tracer, updates: list[ClientUpdate]) -> None:
        """One ``local_train`` span a client, as the per-client path
        emits, each carrying its share of the block's wall clock."""
        for update in updates:
            with tracer.span(
                "local_train", client=update.client_id, block=len(updates)
            ) as span:
                pass
            span.duration = update.train_seconds


# The worker-process side of ParallelExecutor.  The algorithm and the
# shared state buffer arrive via the pool initializer — under fork,
# initargs are inherited memory, never pickled — so closures, tracers and
# live numpy state all survive; the per-task payloads that cross the call
# queue are plain picklable tuples.
_WORKER_ALGORITHM = None
_WORKER_STATE_BUF: mmap.mmap | None = None
_WORKER_STATE_SEQ = 0
# The unpacked round-state dict of the currently installed sequence —
# hierarchical tasks look their region's parameter segment up here
# before running (see _run_task).
_WORKER_STATE: dict | None = None

# Shared-memory round-state layout: [u64 payload length][u64 sequence]
# then the packed state message.  The sequence number (monotone in the
# parent) tells a worker whether its installed state is current, so an
# executor reused across runs can never serve stale round-0 state.
_STATE_HEADER = struct.Struct("<QQ")


def _bind_worker(algorithm, state_buf: mmap.mmap) -> None:
    global _WORKER_ALGORITHM, _WORKER_STATE_BUF, _WORKER_STATE_SEQ
    _WORKER_ALGORITHM = algorithm
    # Child processes never report spans directly; timings travel back
    # inside ClientUpdate and the parent re-emits them.
    algorithm.tracer = NULL_TRACER
    _WORKER_STATE_BUF = state_buf
    _WORKER_STATE_SEQ = 0


def _install_round_state() -> None:
    """Adopt the round state currently in the shared buffer (idempotent).

    The parent writes the buffer strictly between rounds (all futures of
    the previous round have completed, none of the next round are
    submitted), so reading here never races a write, and the zero-copy
    views stay valid for the whole round they are used in.
    """
    global _WORKER_STATE_SEQ, _WORKER_STATE
    length, seq = _STATE_HEADER.unpack_from(_WORKER_STATE_BUF, 0)
    if seq == _WORKER_STATE_SEQ:
        return
    view = memoryview(_WORKER_STATE_BUF)[_STATE_HEADER.size : _STATE_HEADER.size + length]
    state = wire.unpack_state(view)
    _WORKER_ALGORITHM._install_worker_state(state)
    _WORKER_STATE = state
    _WORKER_STATE_SEQ = seq


def run_held_clients(algorithm, round_idx: int, client_ids: list[int]) -> list[ClientUpdate]:
    """What a worker of any executor does with the clients it holds: it
    *is* the serial engine for them (stacked where ``stack_refusal`` has
    no objection, one by one where it has), stamped with its pid."""
    updates = SerialExecutor().run(algorithm, round_idx, client_ids)
    pid = os.getpid()
    for update in updates:
        update.worker = pid
    return updates


def worker_refusal(algorithm) -> str | None:
    """Why forked long-lived workers cannot run ``algorithm``'s clients,
    or ``None``: the one eligibility rule of both pooled executors (this
    module's pool and :class:`repro.serve.server.ServeExecutor`), each of
    which degrades to serial on a reason."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return "the 'fork' start method is unavailable"
    if not (
        getattr(algorithm, "wire_transport_safe", False)
        and hasattr(algorithm, "_worker_state")
    ):
        return f"algorithm {algorithm.name!r} cannot enumerate worker state"
    return None


def _run_task(
    round_idx: int, slots: list[tuple[int, int]], region: int | None = None
) -> list[tuple[int, bytes | ClientUpdate]]:
    """Run a chunk of ``(position, client_id)`` slots in this worker
    against the current round state; return packed updates.

    A hierarchical round's broadcast carries every region's model as a
    ``hier.<r>`` segment; a task bound to ``region`` points
    ``global_params`` at its own before running — so one persistent pool
    serves all regions of a round concurrently.  An update the wire
    format cannot express (exotic payload values) stays the pickled
    record for that client only.
    """
    _install_round_state()
    if region is not None:
        _WORKER_ALGORITHM.global_params = _WORKER_STATE[f"hier.{region}"]
    updates = run_held_clients(_WORKER_ALGORITHM, round_idx, [c for _, c in slots])
    out: list[tuple[int, bytes | ClientUpdate]] = []
    for (position, _client_id), update in zip(slots, updates):
        try:
            update = wire.pack_client_update(update)
        except WireError:
            pass
        out.append((position, update))
    return out


class ParallelExecutor(ClientExecutor):
    """Process-pool engine.

    Args:
        num_workers: pool size (capped at the round's client count for
            scheduling purposes).
        chunked: schedule contiguous client chunks (one task per worker,
            fewer queue round-trips) instead of one task per client
            (better load balance under heterogeneous client cost).
    """

    name = "process"

    def __init__(self, num_workers: int, chunked: bool = False) -> None:
        if num_workers < 1:
            raise ConfigError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.chunked = chunked
        self._fallback: SerialExecutor | None = None
        self._pool: _ProcessPool | None = None
        self._mmap: mmap.mmap | None = None
        self._bound = None  # weakref to the algorithm forked into the pool
        self._seq = 0

    # -- degradation ---------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True once the engine has fallen back to in-process execution."""
        return self._fallback is not None

    def _degrade(self, exc: Exception) -> None:
        self.close()
        warnings.warn(
            f"parallel client execution disabled (worker pool failed: {exc!r}); "
            "continuing with in-process serial execution",
            RuntimeWarning,
            stacklevel=3,
        )
        self._fallback = SerialExecutor()

    # -- scheduling ----------------------------------------------------------------
    def _tasks(self, client_ids: list[int]) -> list[list[tuple[int, int]]]:
        slots = list(enumerate(int(c) for c in client_ids))
        if not self.chunked:
            return [[slot] for slot in slots]
        num_chunks = max(1, min(self.num_workers, len(slots)))
        bounds = np.array_split(np.arange(len(slots)), num_chunks)
        return [[slots[i] for i in chunk] for chunk in bounds if len(chunk)]

    # -- the persistent pool and its shared-memory round state ---------------------
    def close(self) -> None:
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=True, cancel_futures=True)
            except Exception:
                pass
            self._pool = None
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        self._bound = None

    def _ensure_pool(self, algorithm, needed: int, headroom: int) -> None:
        """Fork the persistent pool (or re-fork it when the bound
        algorithm changed or the state outgrew the shared buffer)."""
        if self._pool is not None:
            bound = self._bound() if self._bound is not None else None
            if bound is not algorithm or needed > len(self._mmap):
                self.close()
        if self._pool is None:
            # Sized for this cohort with every row reported, so a table
            # that fills up over the rounds never forces a re-fork; only
            # a larger cohort can.  The slack absorbs header jitter.
            self._mmap = mmap.mmap(-1, needed + headroom + 4096)
            self._pool = _ProcessPool(
                max_workers=self.num_workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_bind_worker,
                initargs=(algorithm, self._mmap),
            )
            self._bound = weakref.ref(algorithm)

    def _broadcast_state(self, algorithm, state: dict) -> None:
        """Publish the round state: one write, visible to every worker.

        The packed message is never joined: each piece is copied
        straight into the shared mapping at its running offset."""
        length, pieces = wire.pack_parts("state", state)
        offset = _STATE_HEADER.size
        self._ensure_pool(algorithm, offset + length, cohort_state_headroom(state))
        self._seq += 1
        self._mmap[:offset] = _STATE_HEADER.pack(length, self._seq)
        for piece in pieces:
            self._mmap[offset : offset + piece.nbytes] = piece
            offset += piece.nbytes
        if algorithm.tracer.enabled:
            algorithm.tracer.metrics.gauge("parallel.state_bytes").set(length)

    def _pool_round(
        self,
        algorithm,
        round_idx: int,
        cohorts: list[list[int]],
        region_params: list[np.ndarray] | None = None,
    ) -> list[list[ClientUpdate]]:
        """One round on the persistent pool, or an exception.

        Broadcasts the round state of every cohort's clients once, runs
        all cohorts' tasks concurrently and slots the updates back per
        cohort, in input order.  With ``region_params`` (one model per
        cohort, the hierarchical engine's regions) the broadcast carries
        each as a ``hier.<r>`` segment and cohort ``r``'s tasks train
        against their own — so regions aggregate-in-parallel instead of
        waiting on each other.
        """
        refusal = worker_refusal(algorithm)
        if refusal is not None:
            raise RuntimeError(refusal)
        state = algorithm._worker_state([c for ids in cohorts for c in ids])
        for r, params in enumerate(region_params or ()):
            state[f"hier.{r}"] = params
        self._broadcast_state(algorithm, state)
        results: list[list[ClientUpdate | None]] = [[None] * len(ids) for ids in cohorts]
        future_cohort = {}
        for r, ids in enumerate(cohorts):
            region = None if region_params is None else r
            for task in self._tasks(ids):
                future_cohort[self._pool.submit(_run_task, round_idx, task, region)] = r
        for future in as_completed(future_cohort):
            r = future_cohort[future]
            for position, item in future.result():
                if isinstance(item, (bytes, bytearray)):
                    item = wire.unpack_client_update(item)
                results[r][position] = item
        missing = [
            (r, ids[i])
            for r, ids in enumerate(cohorts)
            for i, update in enumerate(results[r])
            if update is None
        ]
        if missing:
            raise RuntimeError(f"workers returned no result for (cohort, client) {missing}")
        return results  # type: ignore[return-value]

    # -- execution -----------------------------------------------------------------
    def run(self, algorithm, round_idx: int, client_ids: list[int]) -> list[ClientUpdate]:
        if not len(client_ids):
            return []
        if self._fallback is None:
            started = time.perf_counter()
            try:
                [updates] = self._pool_round(
                    algorithm, round_idx, [[int(c) for c in client_ids]]
                )
            except Exception as exc:  # any pool failure: see the module docstring
                self._degrade(exc)
            else:
                self._record_metrics(algorithm.tracer, updates, time.perf_counter() - started)
                return updates
        return self._fallback.run(algorithm, round_idx, client_ids)

    def run_regions(
        self,
        algorithm,
        round_idx: int,
        regions: list[tuple[np.ndarray, np.ndarray]],
    ) -> list[list[ClientUpdate]]:
        live = sum(1 for ids, _params in regions if len(ids))
        if self._fallback is None and live > 1:
            started = time.perf_counter()
            try:
                results = self._pool_round(
                    algorithm,
                    round_idx,
                    [[int(c) for c in ids] for ids, _params in regions],
                    [params for _ids, params in regions],
                )
            except Exception as exc:  # any pool failure: see the module docstring
                self._degrade(exc)
            else:
                self._record_metrics(
                    algorithm.tracer,
                    [update for slots in results for update in slots],
                    time.perf_counter() - started,
                )
                return results
        # One live region runs through run(); a degraded pool region by
        # region, serially.
        return super().run_regions(algorithm, round_idx, regions)

    def _record_metrics(self, tracer, updates: list[ClientUpdate], elapsed: float) -> None:
        """Emit per-round parallelism telemetry through the tracer.

        Besides the worker/speedup gauges, this flags rounds where the
        pool made things *slower* (busy time below wall time — the
        cpu-bound regime on a single core, where fork, packing and queue
        overhead dominates; see ``docs/parallelism.md``).  The hint is an obs-layer
        signal, not a warning, so determinism-focused test runs stay
        quiet.
        """
        if not tracer.enabled:
            return
        # Re-emit each worker's local_train as a span with the
        # worker-measured duration, in selection order.
        for update in updates:
            with tracer.span(
                "local_train", client=update.client_id, worker=update.worker
            ) as span:
                pass
            span.duration = update.train_seconds
        metrics = tracer.metrics
        metrics.gauge("parallel.workers").set(min(self.num_workers, len(updates)))
        if elapsed > 0:
            busy = sum(u.train_seconds for u in updates)
            speedup = busy / elapsed
            metrics.gauge("parallel.speedup").set(speedup)
            if speedup < 1.0:
                metrics.counter("parallel.slowdown_rounds").inc()
                with tracer.span(
                    "parallel_hint",
                    speedup=round(speedup, 3),
                    hint="pool overhead exceeds parallel gain; "
                    "consider executor='serial' on this machine",
                ):
                    pass
        return


def make_executor(config) -> ClientExecutor:
    """Build the engine an :class:`~repro.fl.config.FLConfig` asks for.

    ``executor='auto'`` picks the process pool whenever
    ``num_workers > 1`` **and** the host has more than one CPU — on a
    single-core host pool overhead always exceeds the parallel gain
    (fork, state broadcast and result packing buy nothing without a
    second core), so auto resolves to the serial loop there.
    ``'serial'``, ``'process'`` and ``'chunked'`` force a specific
    engine (an explicit ``'process'`` run on one core still gets the
    ``parallel_hint`` span instead of a silent downgrade).
    """
    if config.execution == "serve":
        # The serving engine replaces the in-process pool wholesale:
        # workers are socket-connected processes (:mod:`repro.serve`),
        # and the executor knob does not apply.
        from repro.serve.server import ServeExecutor

        return ServeExecutor.from_config(config)
    mode = config.executor
    workers = config.num_workers
    validate_choice("executor", mode)
    if mode == "serial" or (
        mode == "auto" and (workers <= 1 or (os.cpu_count() or 1) <= 1)
    ):
        return SerialExecutor()
    return ParallelExecutor(workers, chunked=(mode == "chunked"))
