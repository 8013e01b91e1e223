"""Algorithm strategy interface and shared round machinery.

The trainer (:mod:`repro.fl.trainer`) owns the protocol loop; an
algorithm owns *what happens inside one round*: broadcasting, local
updates, aggregation, and any extra synchronization phases.  The base
class provides the FedAvg-shaped round that every method here extends,
as two halves — :meth:`FederatedAlgorithm.begin_round` and
:meth:`FederatedAlgorithm.commit_round` — that the trainer's round step
(barrier, buffered-event or regions) runs the local work between.

The round itself is an *execution engine*: the per-client unit of work
(:meth:`FederatedAlgorithm._client_update`) is side-effect-free with
respect to shared algorithm state, so a pluggable
:class:`~repro.fl.parallel.ClientExecutor` may run the selected clients
serially or in worker processes.  Results stream back as picklable
:class:`~repro.fl.parallel.ClientUpdate` records in **selection order**
and the round reduces them as a fold (:class:`RoundCommit`): each update
is committed as soon as it and every update before it are in — its
own-row state through :meth:`_commit_client`, then :meth:`_fold` into
the round's running aggregate, then its model-sized fields released —
and the finish step runs once the wave has trained.  The fold repeats
the floating-point operations of a reduction over the whole list, in
the same order, so the numbers are bit-identical for any ``num_workers``
and the server holds a block of updates, not the cohort.

Extension points, in round order:

* :meth:`_pre_round` — extra synchronization before the broadcast.
* :meth:`_charge_broadcast` — downlink accounting.
* :meth:`_reg_hook` / :meth:`_grad_hook` — local-objective shaping.
* :meth:`_client_update` / :meth:`_client_payload` — the worker-side
  unit of work and its algorithm-specific extras.
* :meth:`_commit_client` — per-client own-row state, selection order.
* :meth:`_open_fold` / :meth:`_fold` — the round's running aggregate.
* :meth:`_charge_uploads` — uplink accounting (order-independent).
* :meth:`_aggregate` — server update from the fold; with
  :meth:`_post_aggregate` (extra synchronization phases) the finish
  step, where a write to state every client reads belongs.

In-process, the unit is a *block* of clients where it can be
(:meth:`FederatedAlgorithm._block_update`, gated by
:meth:`FederatedAlgorithm.stack_refusal`): one stacked pass through the
same training loop, returning the same per-client updates.

Server state an algorithm keeps across rounds is declared once, as
:class:`StateSlot` entries of :attr:`FederatedAlgorithm.state_slots`;
the worker broadcast (:meth:`FederatedAlgorithm._worker_state` /
:meth:`FederatedAlgorithm._install_worker_state`) and the checkpoint
(:meth:`FederatedAlgorithm.checkpoint_state` /
:meth:`FederatedAlgorithm.restore_checkpoint_state`) are derived from
that declaration here, and nowhere else.
"""

from __future__ import annotations

import inspect
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.core.delta import CohortRows, DeltaTable
from repro.data.dataset import FederatedDataset
from repro.exceptions import ConfigError, ProtocolError
from repro.fl.client import LocalResult, local_sgd_steps
from repro.fl.comm import CommLedger
from repro.fl.compression import WireSize, compressor_from_spec
from repro.fl.config import FLConfig
from repro.fl.parallel import ClientExecutor, ClientUpdate, SerialExecutor, make_executor
from repro.fl.server import WeightedMean
from repro.fl.server import weighted_average  # noqa: F401 -- bench/instrument.py wraps this name
from repro.models.split import SplitModel
from repro.nn.serialization import (
    get_flat_params,
    num_params,
    set_flat_params,
    stacked_params,
)
from repro.obs.trace import NULL_TRACER


def block_aware(method):
    """Mark a per-client hook as taking a *block* of clients too.

    A block-aware hook accepts an array of client ids where it documents
    one id, and what it returns acts on the stacked ``(K, ...)`` tensors
    of the block (``(K, B, d)`` features, ``(K, ...)`` gradients) with
    slice ``k`` the bytes of the per-client call.  Every hook of the base
    class is; an override is not until it says so again — which is how
    :meth:`FederatedAlgorithm.stack_refusal` tells an algorithm whose
    clients can train stacked from one that must run them one by one.
    """
    method.block_aware = True
    return method


# Clients per stacked block of in-process work.  Sized by measurement
# (docs/performance.md, "A cohort is one stacked pass"): the time per
# client is flat from ~12 clients a block up, while what a block holds
# beyond its updates — stacked gradients and a step's temporaries, about
# two parameter vectors a client — is peak RSS on the memory-bound
# workload (+2 % at 16, +6.5 % at 32, +28 % for a 100-client cohort).
COHORT_BLOCK = 16

# What :meth:`FederatedAlgorithm._block_update` calls with a block, or
# stands in for.
_BLOCK_HOOKS = (
    "_client_update", "_train_one_client", "_reg_hook", "_grad_hook",
    "_client_payload",
)


# What a worker task reads of a slot: all of it.
WHOLE = "whole"


@dataclass(frozen=True)
class StateSlot:
    """One named piece of an algorithm's server state.

    ``key`` is its checkpoint key (and a worker-read vector's segment
    name); ``None`` puts a table's segments at the checkpoint's top level
    (rFedAvg's ``delta_ids`` / ``delta_rows`` / ``delta_reported``).
    ``attr`` holds the value (default: ``key``): a server vector, a
    per-client :class:`DeltaTable` from
    :meth:`FederatedAlgorithm._make_state_table`, or ``None`` in a run
    without the slot.
    ``reads`` is what a worker task reads of it: ``None``, nothing;
    :data:`WHOLE`, all of it (a table's ``worker_segments``); or a
    segment prefix (``"ef."``): its own client's row.  A snapshot names
    the cohort's reported rows under the prefix, the worker engine sends
    each inside its client's task as ``<prefix>row``, and a task reads
    its row through a :class:`CohortRows`.
    """

    key: str | None
    attr: str | None = None
    reads: str | None = None

    @property
    def name(self) -> str:
        return self.attr or self.key


@dataclass
class RoundStats:
    """What one round reports back to the trainer."""

    train_loss: float
    reg_loss: float = 0.0


class FederatedAlgorithm:
    """Base strategy: plain FedAvg round structure.

    Subclasses may override :meth:`_reg_hook` / :meth:`_grad_hook` to
    modify local training, :meth:`_aggregate` to change aggregation, and
    :meth:`_post_aggregate` for extra synchronization phases.

    Lifecycle: construct -> :meth:`setup` (binds model workspace,
    dataset, config) -> :meth:`begin_round` / :meth:`commit_round` once
    per communication round, called by the trainer's round step.
    """

    name = "base"

    # Server state kept across rounds besides the global model, in
    # checkpoint and broadcast order; subclasses extend the tuple, and
    # the four state methods below read nothing else.
    state_slots: tuple[StateSlot, ...] = (
        StateSlot("ef_residuals", "_residuals", reads="ef."),
    )

    # Whether the round can run independently per region under a
    # hierarchical topology (R > 1): per-client tables partition by
    # region ownership and algorithm-global server state updates once
    # per region aggregation.  An algorithm whose round semantics
    # require exactly one current global model (rfedavg_exact's
    # full-population delta refresh) sets this False and the
    # hierarchical engine refuses R > 1.
    region_aggregation_safe = True

    def __init__(self) -> None:
        self.model: SplitModel | None = None
        self.fed: FederatedDataset | None = None
        self.config: FLConfig | None = None
        self.global_params: np.ndarray | None = None
        self.ledger: CommLedger | None = None
        self.model_size = 0
        self.compressor = None  # upload CompressionPipeline of config.compression
        self._residuals = None  # per-client error-feedback accumulators
        self.fault_model = None  # optional FaultModel
        self.tracer = NULL_TRACER  # the trainer swaps in a live Tracer
        self.executor: ClientExecutor = SerialExecutor()
        self._executor_override: ClientExecutor | None = None

    def hyperparameters(self) -> dict:
        """The constructor arguments (λ, μ, q, ...) by name, as the
        instance holds them: what a resumed run must share with its
        checkpoint besides the config.  A scalar or ``None`` is stamped
        as it is; an object that describes itself (``to_dict()``, a
        privacy mechanism) as its class name plus one dotted entry a
        field (``privacy.sigma``).  Any other argument (a callable, an
        object without ``to_dict``) raises :class:`ConfigError`: a
        resume could not tell two of its values apart."""
        stamp = {}
        _self, *names = inspect.signature(type(self).__init__).parameters
        for name in names:
            value = getattr(self, name, None)
            if value is None or isinstance(value, (bool, int, float, str)):
                stamp[name] = value
            elif callable(getattr(value, "to_dict", None)):
                stamp[name] = type(value).__name__
                stamp.update((f"{name}.{key}", item) for key, item in value.to_dict().items())
            else:
                raise ConfigError(
                    f"{type(self).__name__}: argument {name!r} ({type(value).__name__}) "
                    "cannot be stamped; pass a scalar or an object with to_dict()"
                )
        return stamp

    def with_faults(self, fault_model) -> "FederatedAlgorithm":
        """Inject client dropout / byzantine corruption into rounds."""
        self.fault_model = fault_model
        return self

    def with_executor(self, executor: ClientExecutor) -> "FederatedAlgorithm":
        """Use a specific client-execution engine instead of the one
        :func:`~repro.fl.parallel.make_executor` derives from the config."""
        self._executor_override = executor
        return self

    # -- lifecycle ---------------------------------------------------------------
    def setup(self, model: SplitModel, fed: FederatedDataset, config: FLConfig) -> None:
        """Bind the workspace model, the federated dataset and config."""
        self.model = model
        self.fed = fed
        self.config = config
        self.global_params = get_flat_params(model)
        # Traced runs share the tracer's registry so byte counters land
        # next to the spans; untraced runs get a private registry.
        metrics = self.tracer.metrics if self.tracer.enabled else None
        streaming = config.history_mode == "stream"
        self.ledger = CommLedger(
            config.wire_bytes_per_scalar(),
            metrics=metrics,
            streaming=streaming,
            stream_path=(
                None if config.stream_dir is None or not streaming
                else os.path.join(config.stream_dir, "comm.jsonl")
            ),
        )
        self.model_size = num_params(model)
        # The config's compression spec is the one way to compress uploads.
        self.compressor = compressor_from_spec(config.compression)
        self._residuals = None
        if self.compressor is not None and config.error_feedback:
            self._residuals = self._make_state_table(self.model_size)
        self.executor = (
            self._executor_override
            if self._executor_override is not None
            else make_executor(
                config, metrics=self.tracer.metrics if self.tracer.enabled else None
            )
        )

    def _require_setup(self) -> None:
        if self.model is None or self.fed is None or self.config is None:
            raise ProtocolError(f"{self.name}: setup() must be called before a round runs")

    def _make_state_table(self, dim: int, default: np.ndarray | None = None) -> DeltaTable:
        """A per-client (N, dim) state table under the run's row cap;
        clients that never reported read ``default`` (zeros if None)."""
        assert self.fed is not None and self.config is not None
        return DeltaTable(
            self.fed.num_clients, dim,
            dtype_bytes=self.config.wire_bytes_per_scalar(),
            max_resident=self.config.state_cap,
            spill_dir=self.config.state_dir,
            default=default,
        )

    def _live_slots(self):
        """``(slot, value)`` for every declared slot this run uses."""
        for slot in self.state_slots:
            value = getattr(self, slot.name)
            if value is not None:
                yield slot, value

    def _row_slots(self) -> list:
        """The live slots a task reads at its own client's row only."""
        return [(slot, value) for slot, value in self._live_slots() if slot.reads not in (None, WHOLE)]

    # -- wire-transport worker state ---------------------------------------------
    def _worker_state(self, cohort) -> dict:
        """What the worker-side :meth:`_client_update` of the clients in
        ``cohort`` reads from shared state, as wire-packable segments:
        the global parameters and every slot a task reads.

        An own-row table names the cohort's reported rows only.  The
        worker engine sends this once per round with the ids it is about
        to run, split by :meth:`_served_state`: long-lived workers adopt
        the shared part via :meth:`_install_worker_state`, the model
        rides in a frame of its own, and each row in its client's task.
        """
        assert self.global_params is not None
        state = {"global_params": self.global_params}
        for slot, value in self._live_slots():
            if slot.reads == WHOLE and isinstance(value, DeltaTable):
                state.update(value.worker_segments())
            elif slot.reads == WHOLE:
                state[slot.key] = value
            elif slot.reads is not None:
                state.update(value.cohort_segments(slot.reads, cohort))
        return state

    def _served_state(self, state: dict) -> tuple[dict, dict[int, dict]]:
        """A :meth:`_worker_state` snapshot as the worker engine sends it:
        the segments every task reads but the global parameters (the
        ``state`` frame; each group's model rides in a ``model`` frame),
        and by client the ``<prefix>row`` of each own-row slot it reported
        in (its ``task`` frame; :meth:`_install_rows` reads them back).
        The rows are the snapshot's own arrays, not copies."""
        prefixes = tuple(slot.reads for slot, _value in self._row_slots())
        rows: dict[int, dict] = {}
        for prefix in prefixes:
            for client, row in zip(state[prefix + "ids"], state[prefix + "rows"]):
                rows.setdefault(int(client), {})[prefix + "row"] = row
        shared = {
            key: value for key, value in state.items()
            if key != "global_params" and not key.startswith(prefixes)
        }
        return shared, rows

    def _install_worker_state(self, state: dict) -> None:
        """Adopt a round state's slots (the global parameters are the
        caller's: :meth:`as_of` takes the snapshot's, a served worker its
        model frame's): zero-copy read-only views, valid for the
        round they are installed for.  A whole table becomes a new
        :class:`DeltaTable` holding the snapshot, an own-row table a
        :class:`CohortRows` of the rows the snapshot carries, with the
        default row the table was built with; a served ``state`` frame
        carries none, and each block installs its tasks' rows
        (:meth:`_install_rows`) before it trains."""
        for slot, value in self._live_slots():
            if slot.reads == WHOLE and isinstance(value, DeltaTable):
                table = DeltaTable(
                    value.num_clients, value.dim,
                    dtype_bytes=value.dtype_bytes, default=value.default,
                )
                table.install_worker_segments(state)
                setattr(self, slot.name, table)
            elif slot.reads == WHOLE:
                setattr(self, slot.name, state[slot.key])
            elif slot.reads is not None:
                setattr(self, slot.name, CohortRows.from_state(state, slot.reads, value.default))

    def _install_rows(self, clients: list[int], tasks: list[dict]) -> None:
        """Point every own-row slot at the rows of ``clients`` alone, a
        served block: ``tasks[i]`` carries client ``i``'s ``<prefix>row``
        where it reported (:meth:`_served_state`), and a client without
        one reads the default row; any other client raises
        :class:`ProtocolError`."""
        for slot, value in self._row_slots():
            key = slot.reads + "row"
            rows = {client: task[key] for client, task in zip(clients, tasks) if key in task}
            setattr(self, slot.name, CohortRows(clients, rows, value.default))

    @contextmanager
    def as_of(self, state: dict):
        """Run the block on an earlier round's state: a
        :meth:`_worker_state` snapshot is installed in place of the live
        global model and worker-read slots, which come back on exit.  An
        executor given this algorithm inside the block trains clients as
        that round would have (the async engine trains a client when its
        update lands, not when it was dispatched)."""
        live = {"global_params": self.global_params}
        live.update(
            (slot.name, value) for slot, value in self._live_slots() if slot.reads is not None
        )
        self.global_params = state["global_params"]
        self._install_worker_state(state)
        try:
            yield
        finally:
            for name, value in live.items():
                setattr(self, name, value)

    # -- checkpointing -----------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """Every slot this run uses, for a between-rounds checkpoint (the
        global model is captured by :mod:`repro.ckpt.state`).  A table's
        rows go to the writer as the arrays they lie in."""
        state: dict = {}
        for slot, value in self._live_slots():
            if isinstance(value, np.ndarray):
                state[slot.key] = value
            elif slot.key is None:
                state.update(value.checkpoint_segments())
            else:
                state[slot.key] = value.checkpoint_segments()
        return state

    def restore_checkpoint_state(self, state: dict) -> None:
        """Adopt a :meth:`checkpoint_state` snapshot after :meth:`setup`,
        copying values in; a slot the snapshot lacks keeps its fresh
        value, and a key no slot claims (a section older files carry) is
        skipped."""
        for slot, value in self._live_slots():
            section = state if slot.key is None else state.get(slot.key)
            if section is None:
                continue
            if isinstance(value, np.ndarray):
                setattr(self, slot.name, np.array(section, dtype=np.float64, copy=True))
            else:
                value.restore_checkpoint_segments(section)

    # -- per-client helpers --------------------------------------------------------
    def client_rng(self, round_idx: int, client_id: int) -> np.random.Generator:
        """Deterministic per-(round, client) randomness."""
        assert self.config is not None
        return np.random.default_rng([self.config.seed, round_idx, client_id])

    def _load_global(self) -> None:
        assert self.model is not None and self.global_params is not None
        set_flat_params(self.model, self.global_params)

    @block_aware
    def _train_one_client(
        self,
        round_idx: int,
        client_id: int,
        reg_hook=None,
        grad_hook=None,
    ) -> tuple[np.ndarray, LocalResult]:
        """Load global params, run E local steps, return (params, result)."""
        assert self.model is not None and self.fed is not None and self.config is not None
        self._load_global()
        result = local_sgd_steps(
            self.model,
            self.fed.clients[client_id],
            self.config,
            self.client_rng(round_idx, client_id),
            step_offset=round_idx * self.config.local_steps,
            reg_hook=reg_hook,
            grad_hook=grad_hook,
        )
        return get_flat_params(self.model), result

    # -- extension points ------------------------------------------------------------
    @block_aware
    def _reg_hook(self, round_idx: int, client_id: int):
        """Distribution-regularizer hook for one client round (or None)."""
        return None

    @block_aware
    def _grad_hook(self, round_idx: int, client_id: int):
        """Parameter-gradient correction hook for one client round (or None)."""
        return None

    @block_aware
    def _client_payload(
        self, round_idx: int, client_id: int, params: np.ndarray
    ) -> dict | None:
        """Algorithm-specific extras computed while the workspace model
        still holds the client's final *local* parameters (rFedAvg's
        delta, MOON's previous-model snapshot).  Must be picklable."""
        return None

    @block_aware
    def _client_update(self, round_idx: int, client_id: int) -> ClientUpdate:
        """One client's complete local work for the round.

        This is the unit a :class:`~repro.fl.parallel.ClientExecutor`
        schedules, possibly inside a worker process — it must NOT mutate
        shared algorithm state (mutating the workspace model is fine;
        every worker owns a copy).  Per-client side effects belong in
        :meth:`_commit_client`.
        """
        started = time.perf_counter()
        params, result = self._train_one_client(
            round_idx,
            client_id,
            reg_hook=self._reg_hook(round_idx, client_id),
            grad_hook=self._grad_hook(round_idx, client_id),
        )
        update = self._finish_update(round_idx, client_id, params, result)
        update.train_seconds = time.perf_counter() - started
        return update

    def _finish_update(
        self, round_idx: int, client_id: int, params: np.ndarray, result: LocalResult
    ) -> ClientUpdate:
        """A trained client's upload: the fault / compression pipeline,
        the algorithm's payload, the record (the caller times the work)."""
        params, streams, wire_size, residual = self._apply_upload_pipeline(
            round_idx, client_id, params
        )
        payload = self._client_payload(round_idx, client_id, params)
        return ClientUpdate(
            client_id=client_id,
            params=params,
            wire_size=wire_size,
            task_loss=result.mean_task_loss,
            reg_loss=result.mean_reg_loss,
            num_steps=result.num_steps,
            payload=payload,
            params_streams=streams,
            residual=residual,
        )

    def stack_refusal(self, shard_sizes: np.ndarray) -> str | None:
        """Why clients with shards of these sizes cannot train as one
        stacked block — None when they can.  The one place eligibility
        is decided, from what the run itself shows:

        * ``'algorithm'`` — a per-client hook was overridden without
          :func:`block_aware`, so it may do per-client work the block
          would skip;
        * ``'model'`` — some module of the model does not take leading
          axes as batch axes (``Module.leading_axes``);
        * ``'short_shard'`` — a shard is shorter than the batch, so its
          batches have another shape;
        * ``'ragged'`` — the shards differ in length, so they do not
          stack for the full-shard passes.
        """
        assert self.model is not None and self.config is not None
        hooks = (getattr(type(self), name) for name in _BLOCK_HOOKS)
        if not all(getattr(hook, "block_aware", False) for hook in hooks):
            return "algorithm"
        if not all(module.leading_axes for module in self.model.modules()):
            return "model"
        if shard_sizes.min() < self.config.batch_size:
            return "short_shard"
        if shard_sizes.min() != shard_sizes.max():
            return "ragged"
        return None

    def cohort_blocks(self, client_ids) -> list[tuple[list[int], str | None]]:
        """``client_ids`` cut, in order, into blocks of at most
        :data:`COHORT_BLOCK`, each with :meth:`stack_refusal`'s answer
        for it (None too for a single client: nothing to stack)."""
        assert self.fed is not None
        ids = [int(c) for c in client_ids]
        sizes = self.fed.client_sizes[ids] if len(ids) > 1 else None
        blocks = []
        for start in range(0, len(ids), COHORT_BLOCK):
            block = ids[start : start + COHORT_BLOCK]
            refusal = None
            if len(block) > 1:
                refusal = self.stack_refusal(sizes[start : start + COHORT_BLOCK])
            blocks.append((block, refusal))
        return blocks

    def _block_update(self, round_idx: int, client_ids: list[int]) -> list[ClientUpdate]:
        """The :meth:`_client_update` of every client in a block that
        :meth:`stack_refusal` passes, as one stacked pass: parameters are
        rows of one arena, each client draws its batches from its own
        :meth:`client_rng`, and the finished rows are the updates'
        ``params`` (views — the arena lives as long as they do).  The
        block's wall clock is split evenly into ``train_seconds``.
        """
        assert self.model is not None and self.fed is not None and self.config is not None
        started = time.perf_counter()
        ids = np.asarray(client_ids, dtype=np.int64)
        shards = [self.fed.clients[c] for c in client_ids]
        with stacked_params(self.model, self.global_params, len(shards)) as arena:
            results = local_sgd_steps(
                self.model,
                shards,
                self.config,
                [self.client_rng(round_idx, c) for c in client_ids],
                step_offset=round_idx * self.config.local_steps,
                reg_hook=self._reg_hook(round_idx, ids),
                grad_hook=self._grad_hook(round_idx, ids),
            )
        updates = [
            self._finish_update(round_idx, client_id, row, result)
            for client_id, row, result in zip(client_ids, arena, results)
        ]
        share = (time.perf_counter() - started) / len(updates)
        for update in updates:
            update.train_seconds = share
        return updates

    def _commit_client(self, round_idx: int, update: ClientUpdate) -> None:
        """Apply one finished client's side effects to its own rows.

        Runs in the parent process, in selection order, regardless of
        which worker finished first, as the update is committed — while
        later clients of the same wave may still be training, so it may
        write only state that client alone reads (its error-feedback
        residual, SCAFFOLD control, MOON previous model).  A write to
        state every client reads (``reads=WHOLE``, rFedAvg's delta table)
        belongs to the finish step (:meth:`_aggregate`).  Subclasses
        extending this must call ``super()._commit_client(...)`` so
        error-feedback residuals commit.
        """
        if update.residual is not None and self._residuals is not None:
            residual = np.asarray(update.residual, dtype=np.float64)
            self._residuals.update(update.client_id, residual)
            if self.tracer.enabled:
                self.tracer.metrics.histogram("compression.residual_norm").observe(
                    float(np.linalg.norm(residual))
                )

    def _open_fold(self, round_idx: int, cohort: np.ndarray, base: np.ndarray):
        """The running aggregate of one group's round over ``cohort``,
        whose clients trained from ``base``: :meth:`_fold` adds each
        committed update to it in selection order and :meth:`_aggregate`
        reads it at the finish step.  Default: the data-size-weighted
        mean of the parameters."""
        assert self.fed is not None
        return WeightedMean(self.fed.client_sizes[cohort])

    def _fold(self, fold, update: ClientUpdate) -> None:
        """Add one committed update to the round's fold; its heavy fields
        are released right after (:meth:`ClientUpdate.release`), so
        anything the finish step needs of them goes into the fold."""
        fold.add(update.params)

    def _aggregate(self, round_idx: int, cohort: np.ndarray, fold) -> np.ndarray:
        """The finish step's server update: new global parameters from
        the round's fold (SCAFFOLD's control step, q-FedAvg's h-weighted
        step)."""
        return fold.result()

    def _post_aggregate(self, round_idx: int, selected: np.ndarray) -> None:
        """Extra synchronization after aggregation (rFedAvg+ overrides)."""

    # -- communication accounting ---------------------------------------------------
    def _charge_broadcast(self, selected: np.ndarray) -> None:
        assert self.ledger is not None
        self.ledger.charge(CommLedger.DOWN, "model", self.model_size, copies=len(selected))

    def _charge_uploads(self, selected: np.ndarray, updates: list[ClientUpdate]) -> None:
        """Charge the round's uplink from the finished updates.

        Sums the per-client wire bytes (dtype-width values, int32 index
        streams, bit-packed words) and records once, so ledger state is
        independent of worker completion order by construction.
        """
        assert self.ledger is not None
        total_bytes = sum(u.wire_size.nbytes(self.ledger.dtype_bytes) for u in updates)
        if total_bytes:
            self.ledger.charge_bytes(CommLedger.UP, "model", total_bytes)
        self._observe_compression(len(updates), total_bytes)

    def _observe_compression(self, num_updates: int, charged_bytes: int) -> None:
        """Export compression effectiveness into the metrics registry.

        ``compression.bytes_saved`` counts uplink bytes avoided versus
        dense uploads; ``compression.stage_bytes{stage=...}`` breaks the
        charged bytes down per pipeline stage (stage footprints are
        deterministic in the model size, so no extra metadata crosses
        the wire).  Both land in ``summary.json`` with the ledger
        totals via the tracer's registry snapshot.
        """
        if not self.tracer.enabled or self.compressor is None or not num_updates:
            return
        assert self.ledger is not None
        dense_bytes = self.model_size * self.ledger.dtype_bytes * num_updates
        if dense_bytes > charged_bytes:
            self.tracer.metrics.counter("compression.bytes_saved").inc(
                dense_bytes - charged_bytes
            )
        for stage, footprint in self.compressor.stage_footprints(self.model_size):
            self.tracer.metrics.counter(
                "compression.stage_bytes", stage=stage
            ).inc(footprint.nbytes(self.ledger.dtype_bytes) * num_updates)

    def _apply_upload_pipeline(
        self, round_idx: int, client_id: int, params: np.ndarray
    ) -> tuple[np.ndarray | None, dict | None, "WireSize", np.ndarray | None]:
        """Run a client's upload through faults + compression.

        Returns ``(params, streams, wire_size, residual)``: either the
        dense parameters the server receives (``streams=None``), or the
        compressed wire streams (``params=None``) the round
        materializes via :meth:`_materialize_params`.  Under error
        feedback the client compresses ``update + e_t`` and the new
        accumulator ``e_{t+1} = e_t + update - decompress(compress(...))``
        rides back on ``residual`` — this method stays pure with
        respect to shared state (residuals commit in
        :meth:`_commit_client`, the byzantine counter at commit time by
        the round).
        """
        assert self.global_params is not None and self.config is not None
        if self.fault_model is not None and self.fault_model.is_byzantine(client_id):
            params = self.fault_model.corrupt(client_id, params, self.global_params)
        if self.compressor is None:
            return params, None, WireSize(values=self.model_size), None
        rng = np.random.default_rng([self.config.seed, round_idx, client_id, 0xC0])
        target = params - self.global_params
        if self._residuals is not None:
            target = target + self._residuals.get(client_id)
        # encode() consumes the rng exactly as compress() would, so
        # decode(encode(v)) == compress(v) bit for bit.
        streams, wire_size = self.compressor.encode(target, rng)
        residual = None
        if self._residuals is not None:
            residual = target - self.compressor.decode(streams, self.model_size)
        return None, streams, wire_size, residual

    def _materialize_params(self, update: ClientUpdate, base: np.ndarray) -> None:
        """Reconstruct dense server-side parameters from wire streams,
        against ``base``, the model the client trained from.

        Runs in the parent for every executor (serial, pool, serve,
        degraded) so the reduction path is one code path; the scatter
        order matches what
        :meth:`~repro.fl.compression.CompressionPipeline.compress` would
        have produced, keeping results bit-identical to the dense pipeline.
        """
        if update.params is not None:
            return
        assert self.compressor is not None
        recon = self.compressor.decode(update.params_streams, self.model_size)
        update.params = base + recon

    # -- the round ---------------------------------------------------------------------
    def _receive(self, update: ClientUpdate, base: np.ndarray) -> ClientUpdate:
        """Server-side reception of a finished update, trained from
        ``base``: dense parameters from its wire streams, and its norm
        against ``base`` observed."""
        self._materialize_params(update, base)
        if self.tracer.enabled:
            self.tracer.metrics.histogram("client.update_norm").observe(
                float(np.linalg.norm(update.params - base))
            )
        return update

    def _round_stats(
        self, selected: np.ndarray, updates: list[ClientUpdate]
    ) -> RoundStats:
        """Data-size-weighted round losses, in selection order."""
        assert self.fed is not None
        weights = self.fed.client_sizes[selected].astype(np.float64)
        weights /= weights.sum()
        return RoundStats(
            train_loss=float(np.dot(weights, [u.task_loss for u in updates])),
            reg_loss=float(np.dot(weights, [u.reg_loss for u in updates])),
        )

    def _pre_round(self, round_idx: int, selected: np.ndarray) -> None:
        """Hook before the broadcast/fault phase of a round.

        Algorithms with an extra synchronization phase (e.g. the exact
        rFedAvg reference refreshing every delta from the current
        global model) override this; :meth:`begin_round` runs it for
        every round step, once per round on the whole sampled cohort.
        """

    # The two halves of a communication round.  The round steps in
    # repro.fl (barrier, buffered-event, regions) differ only in what
    # happens between them — when and where the cohort's local work runs
    # and which finished updates are reduced together — so neither half
    # is an extension point: algorithms override the hooks they call.
    def begin_round(self, round_idx: int, cohort: np.ndarray) -> np.ndarray:
        """Open a round on a sampled cohort: the pre-round hook, fault
        dropout, then the broadcast charge.  Returns the clients to
        dispatch (the survivors, which ``bytes_down`` is charged for)."""
        self._require_setup()
        self._pre_round(round_idx, cohort)
        if self.fault_model is not None:
            cohort = self.fault_model.surviving_clients(cohort)
        with self.tracer.span("broadcast"):
            self._charge_broadcast(cohort)
        return cohort

    def commit_round(
        self,
        round_idx: int,
        cohort: np.ndarray,
        updates,
        **span_attrs,
    ) -> RoundStats:
        """Reduce the received ``updates`` of ``cohort`` (an iterable, in
        selection order; a stream is consumed as it arrives) into
        ``global_params``, which they were trained from: each update's
        commit and fold, then the finish step (upload charges,
        aggregation, extra synchronization).  With nothing to reduce the
        model is kept and the round reports a NaN loss."""
        commit = RoundCommit(self, round_idx, cohort, self.global_params)
        for update in updates:
            commit.add(update)
        return commit.finish(**span_attrs)


class RoundCommit:
    """One group's round as its updates are committed.

    :meth:`add` commits one received update the moment it and every
    update before it in selection order are in: the byzantine counter,
    :meth:`FederatedAlgorithm._commit_client` (own-row state only — no
    later client of the wave reads that row), the algorithm's fold, and
    then the update's heavy fields are released.  :meth:`finish` runs
    once the whole wave has trained: the upload charge, the aggregate
    from the fold, :meth:`FederatedAlgorithm._post_aggregate` — and any
    write to state every client reads (``reads=WHOLE``), which a streamed
    commit would leak into later clients of the same round.  What the
    server holds of a round between the two is the fold and one scalar
    record per update.
    """

    def __init__(self, algorithm: FederatedAlgorithm, round_idx: int, cohort, base) -> None:
        self.algorithm = algorithm
        self.round_idx = round_idx
        self.cohort = cohort
        self.base = base
        self.fold = None  # opened by the first update: a round may have none
        self.updates: list[ClientUpdate] = []  # committed, heavy fields released

    def add(self, update: ClientUpdate) -> None:
        algorithm = self.algorithm
        fault_model = algorithm.fault_model
        if fault_model is not None and fault_model.is_byzantine(update.client_id):
            fault_model.corrupted_total += 1
        algorithm._commit_client(self.round_idx, update)
        if self.fold is None:
            self.fold = algorithm._open_fold(self.round_idx, self.cohort, self.base)
        algorithm._fold(self.fold, update)
        update.release()
        self.updates.append(update)

    def finish(self, **span_attrs) -> RoundStats:
        """The round's server step, on ``algorithm.global_params`` as the
        base the clients trained from."""
        algorithm = self.algorithm
        if not self.updates:
            return RoundStats(train_loss=float("nan"))
        algorithm._charge_uploads(self.cohort, self.updates)
        with algorithm.tracer.span("aggregate", **span_attrs):
            algorithm.global_params = algorithm._aggregate(self.round_idx, self.cohort, self.fold)
            algorithm._post_aggregate(self.round_idx, self.cohort)
        return algorithm._round_stats(self.cohort, self.updates)
