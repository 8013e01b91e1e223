"""Pluggable client-execution engines with serial-equivalence guarantees.

One federated round trains every selected client independently: the
per-client work reads round-start state (global parameters, delta
tables, control variates) and all randomness is derived from
``(seed, round, client)`` streams, so client order and placement cannot
change the numbers.  The engines here exploit that:

* :class:`SerialExecutor` — the in-process reference loop.
* :class:`repro.serve.server.ServeExecutor` — the one multi-process
  engine (``executor='process'``, and ``execution='serve'``): worker
  processes forked **once per run** train the clients they are handed
  over sockets speaking RFW1 frames, with each round state a call
  trains on packed **once** (:mod:`repro.fl.wire`).  Its workers run
  :func:`run_held_clients`, i.e. this module's serial engine.
* :class:`MeasuredExecutor` — ``executor='auto'`` with CPUs to spare:
  in process until a timed probe says the worker engine pays.

**Determinism contract.**  ``Algorithm._client_update`` must not mutate
shared algorithm state (worker-side mutations are discarded); every
per-client side effect belongs in ``_commit_client``, which the round
runs in *selection order* regardless of completion order.  An engine
streams :class:`ClientUpdate` records in selection order
(:meth:`ClientExecutor.stream`), each as soon as it and every one
before it have finished, and the parent folds them in that order, so a
parallel round is bit-identical to ``num_workers=1``.

**Worker-state contract.**  Because workers live across rounds,
everything a worker-side ``_client_update`` reads from shared algorithm
state must be a state slot the algorithm declares as read by workers
(``Algorithm.state_slots``, :class:`repro.algorithms.base.StateSlot`);
``_worker_state(cohort)`` / ``_install_worker_state`` are derived from
the declaration, and state not declared there goes stale in the workers
after round 0.  ``cohort`` is the ids the round is about to run: a table
a task reads only at its own client's row is named by the cohort's
reported rows, never whole, and the worker engine copies each of them
once into its client's slot of a shared row arena mapped before the
fork, and reads the client's new error-feedback residual back from it
(the ``state`` frame carries the rest but the model, which rides once
a connection and group in a ``model`` frame, ``_served_state``); the
row a never-reported client reads is fixed at setup, which the forked
workers inherit.

**Degradation.**  The worker engine has exactly one: a failure it
cannot route around — no ``fork`` for this process
(:func:`repro.obs.sysinfo.fork_refusal`), round state the wire format
cannot express, every worker gone, no progress for its ``timeout`` — sends it to
in-process serial execution for the rest of the run, with one
:class:`RuntimeWarning` (mid-wave, the clients not yet streamed finish
in process).  A single
dead worker is not such a failure: its unfinished clients are
redispatched to the others.  The determinism contract makes either
rerun safe.  A single *update* the wire format cannot express (an
exotic payload value) returns as that client's pickled record instead;
the round stays on the workers.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.fl.compression import WireSize
from repro.fl.config import validate_choice
from repro.obs import sysinfo


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
        num_steps: local steps actually run (a field of the RFW1
            update frame).
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
            not charged to the ledger, and a served worker leaves it in
            its slot of the shared row arena, not in its update frame.

    The round that commits an update folds it into its running aggregate
    and then :meth:`release` s its heavy fields (``params``,
    ``params_streams``, ``residual``, ``payload``): what outlives the
    fold is the scalars and ``wire_size`` (the round's losses and
    upload charge read them at its finish step).
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

    def release(self) -> None:
        """Drop the model-sized fields once the update is folded (a
        stacked block's arena goes with its last row)."""
        self.params = self.params_streams = self.residual = self.payload = None


class ClientExecutor:
    """Interface: run the selected clients' local work for one round.

    The engine's API is :meth:`stream`: every update of a wave, in
    selection order, each as soon as it and every update before it have
    finished, so the round can commit it and let it go.  The list API
    (:meth:`run_regions`, :meth:`run`) collects the stream.  An executor
    may implement :meth:`run_regions` instead (a wrapper that times whole
    calls): its stream is then derived from the lists, unstreamed.
    """

    name = "base"
    num_workers = 1

    def stream(self, algorithm, round_idx: int, regions: list[tuple]):
        """Yield ``(group, update)`` for every client of ``regions``,
        groups in order and each group's clients in input order.

        ``regions`` is a list of groups (:func:`wave_group`): a
        ``(client_ids, region_params)`` pair is a hierarchical region,
        trained at ``round_idx`` on the live state; a ``(client_ids,
        params, round, state)`` group (the async engine's dispatch
        rounds) trains at its own round on its recorded
        ``_worker_state`` snapshot.  Per-client work depends only on
        ``(seed, round, client)`` and the group's state, so scheduling
        cannot change the numbers.

        The consumer may commit an update's own-row state (its client's
        residual, control, previous model) before the next one arrives
        — no later client of the wave reads that row — but nothing a
        later client reads: the live ``global_params`` and whole-table
        state stay as they are until the stream is exhausted.  A group
        that carries a state snapshot is trained inside
        :meth:`FederatedAlgorithm.as_of`, so its updates are collected
        (:meth:`run_regions`) before anything is committed.
        """
        for group, updates in enumerate(self.run_regions(algorithm, round_idx, regions)):
            for update in updates:
                yield group, update

    def run_regions(
        self,
        algorithm,
        round_idx: int,
        regions: list[tuple],
    ) -> list[list[ClientUpdate]]:
        """:meth:`stream`, collected: one update list per group, each in
        input order."""
        out: list[list[ClientUpdate]] = [[] for _ in regions]
        for group, update in self.stream(algorithm, round_idx, regions):
            out[group].append(update)
        return out

    def run(self, algorithm, round_idx: int, client_ids: list[int]) -> list[ClientUpdate]:
        """One group's :meth:`run_regions` on the live model, in input
        order."""
        if not len(client_ids):
            return []
        [updates] = self.run_regions(
            algorithm, round_idx, [(client_ids, algorithm.global_params)]
        )
        return updates

    def spare_slots(self, units: int) -> int:
        """Dispatch units a call of ``units`` would leave idle on this
        engine's workers: what the async engine may fill with pending
        updates ahead of their landing.  None in process."""
        return 0

    def close(self) -> None:
        """Release workers and sockets.  The executor stays usable —
        resources are re-created lazily on the next :meth:`run`."""


def wave_group(round_idx: int, region) -> tuple[list[int], np.ndarray, int, dict | None]:
    """A :meth:`ClientExecutor.run_regions` group as ``(client_ids,
    params, round, state)``.  A hierarchical region ``(client_ids,
    params)`` trains at the call's ``round_idx`` on the live state
    (``state`` None); an async group carries its dispatch round and
    the ``_worker_state`` snapshot that round recorded."""
    client_ids, params, *rest = region
    group_round, state = rest if rest else (round_idx, None)
    return [int(c) for c in client_ids], params, int(group_round), state


def dispatch_units(algorithm, groups) -> list[tuple[int, str | None, list[tuple[int, int]]]]:
    """A wave's dispatch units, ``(group, refusal, [(position, client)])``:
    the serial engine's blocks, group by group (positions run on across
    groups), whole where they stack and one client each where
    ``stack_refusal`` says no.  ``groups`` start with their client ids."""
    units = []
    position = 0
    for group, (group_ids, *_rest) in enumerate(groups):
        for block, refusal in algorithm.cohort_blocks(group_ids):
            slots = list(enumerate(block, position))
            position += len(block)
            if refusal is None:
                units.append((group, None, slots))
            else:
                units.extend((group, refusal, [slot]) for slot in slots)
    return units


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

    def stream(self, algorithm, round_idx: int, regions: list[tuple]):
        for group, region in enumerate(regions):
            client_ids, params, group_round, state = wave_group(round_idx, region)
            if not client_ids:
                continue
            if state is None:
                algorithm.global_params = params
                for update in self._blocks(algorithm, group_round, client_ids):
                    yield group, update
            else:
                with algorithm.as_of(state):
                    for update in self._blocks(algorithm, group_round, client_ids):
                        yield group, update

    def _blocks(self, algorithm, round_idx: int, client_ids: list[int]):
        """The clients' updates, in order, each block's as soon as it has
        trained (no span is open across a yield)."""
        tracer = algorithm.tracer
        blocks = algorithm.cohort_blocks(client_ids)
        for block, refusal in blocks:
            if refusal is None and len(block) > 1:
                updates = algorithm._block_update(round_idx, block)
                if tracer.enabled:
                    self._emit_block_spans(tracer, updates)
                yield from updates
                continue
            for client_id in block:
                with tracer.span("local_train", client=client_id):
                    update = algorithm._client_update(round_idx, client_id)
                yield update
        if tracer.enabled:
            self.count_blocks(tracer.metrics, blocks)

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


def run_held_clients(algorithm, round_idx: int, client_ids: list[int]) -> list[ClientUpdate]:
    """What a worker does with the clients it holds: it *is* the serial
    engine for them (stacked where ``stack_refusal`` has no objection,
    one by one where it has), stamped with its pid."""
    updates = SerialExecutor().run(algorithm, round_idx, client_ids)
    pid = os.getpid()
    for update in updates:
        update.worker = pid
    return updates


def speedup(updates: list[ClientUpdate], elapsed: float) -> float:
    """A worker call's busy seconds per wall second:
    ``sum(train_seconds) / elapsed``; below 1 the workers made it slower
    than training in process would have."""
    if elapsed <= 0 or not updates:
        return 0.0
    return sum(update.train_seconds for update in updates) / elapsed


# Predicted in-process seconds the rest of a round must exceed before
# MeasuredExecutor hands it to the worker engine.  A worker round has a
# fixed cost (the state frame, task frames, the selector loop, unpacking
# the updates), 11-18 ms on a 50-client MLP cohort with two workers on a
# 2-vCPU host (docs/parallelism.md, "auto: the measured engine"), plus
# one fork a run; 0.1 s is several times that, so a round below it stays
# in process.
HANDOFF_SECONDS = 0.1


class MeasuredExecutor(ClientExecutor):
    """``executor='auto'`` with a spare CPU: in process until measurement
    says the worker engine pays.

    The work is the worker engine's dispatch units (a stacked block, or
    one client of a refused block).  The first call with two or more
    units trains its first unit in process and times it.  If the rest of
    the call is predicted to take more than :data:`HANDOFF_SECONDS` in
    process, the rest of the call and every later one go to the one
    worker engine (:class:`repro.serve.server.ServeExecutor`), else the
    run stays in process.  A worker call whose :func:`speedup` is below
    1 sends the run back in process for good (the first one, which pays
    the fork, is not judged), and a call of a single unit always trains
    in process: one worker would only add its cost.  The determinism
    contract makes every placement bit-identical.
    Traced runs count each decision as ``executor.placement{engine,
    reason}``.
    """

    name = "auto"

    def __init__(self, config) -> None:
        self.num_workers = int(config.num_workers)
        self._config = config
        self._serial = SerialExecutor()
        self._workers = None  # the ServeExecutor, built at the hand-off
        self._forked = False  # a worker call has run (and paid the fork)
        self.placement: str | None = None  # None until the probe: "serial" | "process"

    @property
    def degraded(self) -> bool:
        """True once the worker engine has fallen back to serial."""
        return self._workers is not None and self._workers.degraded

    def stream(self, algorithm, round_idx: int, regions):
        if self.placement == "serial":
            yield from self._serial.stream(algorithm, round_idx, regions)
            return
        regions = [wave_group(round_idx, region) for region in regions]
        units = dispatch_units(algorithm, regions)
        if self.placement == "process":
            yield from self._on_workers(algorithm, round_idx, regions, len(units))
            return
        if len(units) < 2:
            yield from self._serial.stream(algorithm, round_idx, regions)
            return
        # The probe: the first unit in process, timed, and yielded first
        # (its clients come first in selection order) once the rest of
        # the call is placed.
        region, _refusal, slots = units[0]
        probe = [cid for _position, cid in slots]
        ids, params, group_round, state = regions[region]
        entry_params = algorithm.global_params
        started = time.perf_counter()
        [probed] = self._serial.run_regions(
            algorithm, round_idx, [(probe, params, group_round, state)]
        )
        per_client = (time.perf_counter() - started) / len(probe)
        algorithm.global_params = entry_params
        rest = list(regions)
        rest[region] = (ids[len(probe) :], params, group_round, state)
        remaining = sum(len(group[0]) for group in rest)
        if per_client * remaining > HANDOFF_SECONDS:
            self._place(algorithm, "process", "probe")
            self._workers = make_executor(self._config.with_updates(executor="process"))
            out = self._on_workers(algorithm, round_idx, rest, len(units) - 1)
        else:
            self._place(algorithm, "serial", "probe")
            out = self._serial.stream(algorithm, round_idx, rest)
        for update in probed:
            yield region, update
        yield from out

    def _on_workers(self, algorithm, round_idx: int, regions, units: int):
        """A call of ``units`` dispatch units on the worker engine, and
        its speedup check.  The first such call forks the workers, a cost
        paid once a run, so the check starts with the second.  The time
        the consumer holds the stream is not the engine's."""
        if units < 2:
            yield from self._serial.stream(algorithm, round_idx, regions)
            return
        updates, elapsed = [], 0.0
        started = time.perf_counter()
        for group, update in self._workers.stream(algorithm, round_idx, regions):
            elapsed += time.perf_counter() - started
            updates.append(update)
            yield group, update
            started = time.perf_counter()
        elapsed += time.perf_counter() - started
        if self._forked and speedup(updates, elapsed) < 1.0:
            self._place(algorithm, "serial", "no_gain")
            self._workers.close()
        self._forked = True

    def spare_slots(self, units: int) -> int:
        """The worker engine's idle slots once the run is on it; none
        before the probe or in process."""
        return self._workers.spare_slots(units) if self.placement == "process" else 0

    def _place(self, algorithm, engine: str, reason: str) -> None:
        self.placement = engine
        if algorithm.tracer.enabled:
            count_placement(algorithm.tracer.metrics, engine, reason)

    def close(self) -> None:
        if self._workers is not None:
            self._workers.close()


def count_placement(metrics, engine: str, reason: str) -> None:
    """One ``executor.placement{engine, reason}`` event: where
    ``executor='auto'`` put a run's clients and why."""
    metrics.counter("executor.placement", engine=engine, reason=reason).inc()


def make_executor(config, metrics=None) -> ClientExecutor:
    """Build the engine an :class:`~repro.fl.config.FLConfig` asks for.

    Every multi-process run is the one worker engine,
    :class:`repro.serve.server.ServeExecutor`: ``execution='serve'``, and
    ``executor='process'`` (its workers forked locally over an ephemeral
    Unix socket unless ``serve_addr`` says otherwise).  ``executor='auto'``
    with ``num_workers > 1`` is the :class:`MeasuredExecutor`, which
    starts in process and hands rounds to the worker engine when a probe
    says it pays — unless this process may run on one CPU only
    (:func:`repro.obs.sysinfo.usable_cpus`, which reads the affinity
    mask) or may not fork (:func:`repro.obs.sysinfo.fork_refusal`): then
    ``auto`` is the serial engine, silently, with the reason counted on
    ``metrics`` when given.  An explicit ``'process'`` run keeps its
    workers on one CPU, and degrades with a warning when it may not fork.
    """
    mode = config.executor
    validate_choice("executor", mode)
    if config.execution == "serve" or mode == "process":
        from repro.serve.server import ServeExecutor

        return ServeExecutor.from_config(config)
    if mode == "serial" or config.num_workers <= 1:
        return SerialExecutor()
    if sysinfo.usable_cpus() < 2:
        reason = "one_cpu"
    elif sysinfo.fork_refusal() is not None:
        reason = "no_fork"
    else:
        return MeasuredExecutor(config)
    if metrics is not None:
        count_placement(metrics, "serial", reason)
    return SerialExecutor()
