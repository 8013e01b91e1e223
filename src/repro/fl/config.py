"""Federated training configuration and the string-choice registry.

Every string-valued knob with a closed set of values (``executor``,
``optimizer``, ``dtype``, ``execution``, ``runtime``, ...) is
validated through one registry here — :data:`CHOICES` plus
:func:`validate_choice` — so the CLI, :class:`FLConfig` and
:func:`repro.run_experiment` all raise the *same* typo-suggesting
:class:`~repro.exceptions.ConfigError` instead of three divergent
checks.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, replace

from repro.exceptions import ConfigError
from repro.fl.compression import PIPELINE_STAGES, parse_compression_spec
from repro.nn.optim import LRSchedule

# -- the string-choice knob registry ------------------------------------------------

EXECUTOR_MODES = ("auto", "serial", "process")
EXECUTION_MODES = ("sync", "async", "serve")
RUNTIME_KINDS = ("instant", "gaussian", "trace")
OPTIMIZERS = ("sgd", "rmsprop")
DTYPES = ("float32", "float64")
SAMPLER_KINDS = ("uniform", "reservoir")
HISTORY_MODES = ("append", "stream")
COMPRESSION_STAGES = ("none", *PIPELINE_STAGES)
TOPOLOGY_KINDS = ("flat", "hier")

CHOICES: dict[str, tuple[str, ...]] = {
    "executor": EXECUTOR_MODES,
    "execution": EXECUTION_MODES,
    "runtime": RUNTIME_KINDS,
    "optimizer": OPTIMIZERS,
    "dtype": DTYPES,
    "sampler": SAMPLER_KINDS,
    "history_mode": HISTORY_MODES,
    "compression": COMPRESSION_STAGES,
    "topology": TOPOLOGY_KINDS,
}


def validate_choice(knob: str, value) -> str:
    """Validate a string-choice knob against the registry.

    Returns the value unchanged when valid; raises a
    :class:`~repro.exceptions.ConfigError` naming the knob, the valid
    values, and (when a close match exists) a "did you mean" suggestion.
    Every layer that accepts these knobs — CLI flags, ``FLConfig``
    construction, ``run_experiment`` overrides — funnels through here,
    so the error text is identical everywhere.
    """
    choices = CHOICES.get(knob)
    if choices is None:
        raise KeyError(f"unknown choice knob {knob!r}; registry has {sorted(CHOICES)}")
    if value in choices:
        return value
    message = f"{knob} must be one of {choices}, got {value!r}"
    close = difflib.get_close_matches(str(value), choices, n=1)
    if close:
        message += f" — did you mean {close[0]!r}?"
    raise ConfigError(message)


def validate_runtime_spec(spec) -> str:
    """Validate a ``runtime`` spec string (``kind[:params]``).

    Only the kind is registry-checked here; parameter parsing (and its
    own errors) happens in :func:`repro.fl.runtime.make_runtime`.
    """
    kind = str(spec).partition(":")[0]
    validate_choice("runtime", kind)
    return spec


def parse_topology_spec(spec) -> tuple[int, int]:
    """Parse a ``topology`` spec into ``(num_regions, edge_period)``.

    Grammar: ``'flat'`` (a single global aggregator, the historical
    engine — parsed as one region syncing every round) or
    ``'hier:R:P'`` — R >= 1 regions each aggregating their own client
    slice every round, with a cloud synchronization averaging the
    region models every P >= 1 rounds.  ``'hier:1:1'`` is the
    degenerate hierarchy, bit-identical to ``'flat'`` by contract.
    """
    text = str(spec)
    kind, _, rest = text.partition(":")
    validate_choice("topology", kind)
    if kind == "flat":
        if rest:
            raise ConfigError(f"topology 'flat' takes no parameters, got {spec!r}")
        return 1, 1
    parts = rest.split(":") if rest else []
    if len(parts) != 2:
        raise ConfigError(
            f"topology 'hier' needs exactly two parameters 'hier:R:P' "
            f"(R regions, cloud sync every P rounds), got {spec!r}"
        )
    try:
        num_regions, edge_period = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(
            f"topology parameters must be integers ('hier:R:P'), got {spec!r}"
        ) from None
    if num_regions < 1:
        raise ConfigError(f"topology needs R >= 1 regions, got {num_regions}")
    if edge_period < 1:
        raise ConfigError(f"topology needs edge period P >= 1, got {edge_period}")
    return num_regions, edge_period


def validate_topology_spec(spec) -> str:
    """Validate a ``topology`` spec string (``'flat'`` | ``'hier:R:P'``).

    The kind is registry-checked (typo suggestions included) and the
    parameters fully parsed by :func:`parse_topology_spec`, so a bad
    spec fails at config construction, not mid-run.
    """
    parse_topology_spec(spec)
    return spec


def _execution_only(default):
    """A field that cannot change the numbers a run produces.

    :func:`repro.ckpt.provenance.config_hash` leaves these fields out,
    so changing one never invalidates a checkpoint.
    """
    return field(default=default, metadata={"execution_only": True})


@dataclass(frozen=True)
class FLConfig:
    """Hyperparameters of one federated run.

    Attributes:
        rounds: number of communication rounds C.  Under
            ``execution='async'`` this is the number of buffered server
            aggregations.
        local_steps: local minibatch-SGD steps per round E.
        batch_size: minibatch size B.
        sample_ratio: fraction of clients selected per round SR
            (1.0 = full participation, the cross-silo setting).
        optimizer: 'sgd' | 'rmsprop' — the local optimizer (the paper's
            CNNs train with SGD, its Sent140 LSTM with RMSProp).
        lr: base learning rate (ignored when lr_schedule is given).
        lr_schedule: optional schedule over *global* SGD steps t = c*E+i,
            as in the convergence theory.
        eval_every: evaluate the global model every this many rounds.
        eval_batch: evaluation minibatch size, >= 1 (memory knob only).
        seed: master seed; all round/client randomness derives from it.
        wire_dtype_bytes: bytes per scalar on the wire for the
            communication ledger.  ``None`` (default) follows ``dtype``
            — 4 under float32, 8 under float64 — so ledger totals are
            dtype-true; an explicit value overrides (4 simulates the
            paper's float32 wire from a float64 training run).
        num_workers: client-execution parallelism; workers > 1 trains
            the round's clients in worker processes with results reduced
            in selection order, bit-identical to ``num_workers=1``.
        executor: client-execution engine — 'auto' (with num_workers > 1
            on a host where this process may use two CPUs and fork: start
            in process, time the first dispatch unit, and hand the rest
            of the run to the worker engine when that probe says it pays,
            taking it back if a worker call's speedup falls below 1 —
            :class:`repro.fl.parallel.MeasuredExecutor`; else serial),
            'serial', or 'process': the worker engine of
            :mod:`repro.serve` with its workers forked locally, handed
            the serial engine's blocks (whole where they stack, one
            client each where ``stack_refusal`` refuses).
        dtype: compute precision for the whole run: 'float64' (default,
            bit-reproducible against the historical behaviour) or
            'float32' (~2x faster kernels, half-size payloads; results
            agree to float32 precision but are not bit-identical to
            float64 runs).
        execution: protocol pacing — 'sync' (every round is a barrier:
            the server waits for all selected clients), 'async' (the
            event-driven engine of :mod:`repro.fl.async_engine`:
            per-client runtime models, a buffered server, and
            staleness-weighted aggregation), or 'serve' (the sync
            protocol with clients trained in separate worker processes
            speaking framed RFW1 messages over real TCP / Unix-domain
            sockets — :mod:`repro.serve`, bit-identical to 'sync' by
            contract).  With instant runtimes and a full-cohort buffer,
            'async' reproduces 'sync' bit for bit.
        runtime: per-client latency model spec for async execution —
            'instant', 'gaussian[:mean=1,std=0.1,het=2]' or
            'trace:<path.json>' (see :mod:`repro.fl.runtime`).
        buffer_size: async server buffer K — aggregate as soon as this
            many client updates have arrived.  ``None`` (default) means
            the round's full cohort, the sync-shaped setting.
        buffer_timeout: optional async buffer timeout in *simulated*
            seconds: a flush with at least one update fires when the
            next arrival would land later than this far past the
            round's dispatch, even if the buffer is not full.
        staleness_exponent: a in the staleness weight (1+s)^-a applied
            to buffered updates that are s >= 1 server rounds stale
            (Xie et al. 2019).  0 disables the discount (stale deltas
            are still re-based onto the current model); fresh updates
            (s=0) are never touched, which is what keeps the
            zero-latency limit bit-identical.
        checkpoint_dir: directory for crash-safe run checkpoints
            (:mod:`repro.ckpt`).  ``None`` (default) disables
            checkpointing entirely.
        checkpoint_every: write a checkpoint every this many completed
            rounds (the final round is always checkpointed).  Cadence
            is an execution knob: changing it never invalidates
            existing checkpoints.
        checkpoint_keep: retain the newest this-many checkpoint files;
            older ones are pruned after each successful write.
        resume: resume from the newest valid checkpoint in
            ``checkpoint_dir`` if one exists (fresh start otherwise).
            A resumed run is bit-identical to an uninterrupted one;
            resuming under a mismatched config raises
            :class:`~repro.exceptions.CheckpointMismatchError`.
        sampler: cohort sampler — 'uniform' (the historical
            ``Generator.choice`` path) or 'reservoir' (Floyd's O(cohort)
            selection that never enumerates the population).  The
            sampler changes which cohorts a seed draws, so it is
            numerically relevant and participates in the checkpoint
            config hash.
        dispatch_cap: async execution only — cap each client at one
            in-flight update: a sampled client whose previous dispatch
            has not arrived yet is skipped this round instead of being
            re-dispatched (the small-buffer backlog fix).  Changes which
            updates exist under latency, hence hashed; with instant
            runtimes no client is ever in flight at dispatch time, so
            the sync bit-identity limit is unaffected.
        history_mode: 'append' keeps every RoundRecord in memory (the
            historical behaviour); 'stream' folds each record into O(1)
            running summaries (and optionally spools records to JSONL
            under ``stream_dir``) so a 100k-round run's history stays
            flat.  Execution-only: both modes observe identical
            records.
        stream_dir: directory for streaming-mode JSONL spools
            (``history.jsonl``, ``comm.jsonl``).  ``None`` keeps
            summaries only.
        state_cap: per-client server tables (delta tables,
            error-feedback residuals) keep at most this many rows
            resident, spilling least-recently-used rows to an on-disk
            store under ``state_dir`` (``None`` = no cap; rows are
            allocated only for clients that reported either way).
            Execution-only: a spilled row reads back bit for bit.
        state_dir: directory for spilled rows (``None`` uses a
            run-private temporary directory).
        compression: lossy upload-compression pipeline spec (see
            :mod:`repro.fl.compression`): 'none' (default, bit-identical
            to runs predating the knob) or stages joined with '|', e.g.
            'topk:0.01|qsgd:8', 'sign', 'quantize:8'.  Numerically
            relevant, hence part of the checkpoint config hash.
        error_feedback: keep a per-client residual accumulator
            ``e_{t+1} = e_t + update - decompress(compress(update + e_t))``
            so aggressive compression still converges.  Only meaningful
            with ``compression != 'none'``.
        sync_compression: pipeline spec for the rFedAvg+ second
            synchronization (the model re-broadcast and the per-client
            delta re-upload — the ``O(d N)`` term).  'none' keeps the
            exchange dense.  Ignored by algorithms without a second
            synchronization.
        topology: aggregation topology — 'flat' (one global server, the
            historical engine) or 'hier:R:P' (R regions each aggregate
            their own contiguous client slice every round; a cloud step
            averages the region models every P rounds and only that hop
            is charged as expensive 'cloud-model' traffic — see
            :mod:`repro.fl.hierarchy` and ``docs/hierarchy.md``).
            'hier:1:1' is bit-identical to 'flat'.  Numerically
            relevant for R > 1 or P > 1, hence part of the checkpoint
            config hash; hierarchical runs require
            ``execution='sync'``.
        cloud_compression: compression pipeline spec for the region ->
            cloud uplink of a hierarchical run (each region uploads its
            model as a lossy delta against the last cloud model; the
            cloud averages the reconstructions).  'none' (default)
            keeps the hop dense.  Ignored under ``topology='flat'``.
        serve_addr: listen address for ``execution='serve'`` —
            ``'tcp:HOST:PORT'`` (port 0 lets the OS pick) or
            ``'uds:/path/to.sock'``.  ``None`` (default) uses an
            ephemeral Unix-domain socket in a run-private temporary
            directory.  Execution-only.
    """

    rounds: int = 30
    local_steps: int = 5
    batch_size: int = 32
    sample_ratio: float = 1.0
    optimizer: str = "sgd"
    lr: float = 0.1
    lr_schedule: LRSchedule | None = None
    eval_every: int = 1
    eval_batch: int = 256
    seed: int = 0
    wire_dtype_bytes: int | None = None
    num_workers: int = _execution_only(1)
    executor: str = _execution_only("auto")
    dtype: str = "float64"
    execution: str = "sync"
    runtime: str = "instant"
    buffer_size: int | None = None
    buffer_timeout: float | None = None
    staleness_exponent: float = 0.5
    checkpoint_dir: str | None = _execution_only(None)
    checkpoint_every: int = _execution_only(1)
    checkpoint_keep: int = _execution_only(3)
    resume: bool = _execution_only(False)
    sampler: str = "uniform"
    dispatch_cap: bool = True
    history_mode: str = _execution_only("append")
    stream_dir: str | None = _execution_only(None)
    state_cap: int | None = _execution_only(None)
    state_dir: str | None = _execution_only(None)
    compression: str = "none"
    error_feedback: bool = True
    sync_compression: str = "none"
    topology: str = "flat"
    cloud_compression: str = "none"
    serve_addr: str | None = _execution_only(None)

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ConfigError("rounds must be positive")
        if self.local_steps <= 0:
            raise ConfigError("local_steps must be positive")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if not 0.0 < self.sample_ratio <= 1.0:
            raise ConfigError("sample_ratio must be in (0, 1]")
        if self.eval_every <= 0:
            raise ConfigError("eval_every must be positive")
        if self.eval_batch <= 0:
            raise ConfigError("eval_batch must be positive")
        if self.num_workers < 1:
            raise ConfigError("num_workers must be >= 1")
        validate_choice("executor", self.executor)
        validate_choice("optimizer", self.optimizer)
        validate_choice("dtype", self.dtype)
        validate_choice("execution", self.execution)
        validate_runtime_spec(self.runtime)
        if self.buffer_size is not None and self.buffer_size < 1:
            raise ConfigError("buffer_size must be >= 1 (or None for the full cohort)")
        if self.buffer_timeout is not None and self.buffer_timeout <= 0:
            raise ConfigError("buffer_timeout must be positive (or None)")
        if self.staleness_exponent < 0:
            raise ConfigError("staleness_exponent must be non-negative")
        if self.wire_dtype_bytes is not None and self.wire_dtype_bytes <= 0:
            raise ConfigError("wire_dtype_bytes must be positive (or None)")
        if self.checkpoint_every <= 0:
            raise ConfigError("checkpoint_every must be positive")
        if self.checkpoint_keep <= 0:
            raise ConfigError("checkpoint_keep must be positive")
        if self.resume and self.checkpoint_dir is None:
            raise ConfigError("resume=True requires checkpoint_dir")
        validate_choice("sampler", self.sampler)
        validate_choice("history_mode", self.history_mode)
        if self.state_cap is not None and self.state_cap < 1:
            raise ConfigError("state_cap must be >= 1 (or None for no cap)")
        parse_compression_spec(self.compression)
        parse_compression_spec(self.sync_compression)
        validate_topology_spec(self.topology)
        parse_compression_spec(self.cloud_compression)
        if self.topology != "flat" and self.execution == "async":
            raise ConfigError(
                "hierarchical topology requires execution='sync'; the async "
                "engine has no region tier (run topology='flat' async, or "
                "sync hierarchical)"
            )
        if self.serve_addr is not None:
            from repro.serve.protocol import parse_serve_addr

            parse_serve_addr(self.serve_addr)

    def wire_bytes_per_scalar(self) -> int:
        """Resolved per-scalar wire width: the explicit override, or the
        itemsize of the run's compute dtype."""
        if self.wire_dtype_bytes is not None:
            return int(self.wire_dtype_bytes)
        import numpy as np

        return int(np.dtype(self.dtype).itemsize)

    def with_updates(self, **kwargs) -> "FLConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
