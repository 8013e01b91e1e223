"""The five workloads: constants, set-up, and one closed-loop job.

Every parameter is a constant here; the only inputs are ``--seed`` (data
generation, partition, model initialisation and every run-time random
stream derive from it) and ``--quick`` (fewer rounds, for the smoke
test).  A **job** is the fixed amount of work the end-to-end metrics are
defined over: every ``run_federated`` call the workload makes, start to
finish.  The loop is closed — one driver process, at most two worker
processes, and the next round is dispatched only after the previous one
committed.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

from bench import spans
from bench.hostspeed import probe, slowdown
from bench.instrument import TimedExecutor, instrumented, profiled_model_fn

# Rounds of the engine-identity check: the measured job's parameters after
# this many rounds must equal the serial engine's, bit for bit.
IDENTITY_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    """Declarative description of one workload (JSON-able: it is recorded
    in every result so that two result files compare only if they match)."""

    name: str
    why: str
    data: tuple  # (builder name, kwargs)
    model: tuple  # (model name, scale)
    algorithm: tuple  # (algorithm name, kwargs)
    preset: str  # "cross_silo" | "cross_device" | "plain"
    config: dict = field(default_factory=dict)
    quick_rounds: int = 2
    # Scratch directories the config needs, as FLConfig field names.
    scratch: tuple = ()
    # serve workload: a callback raises after this round and a second
    # run_federated(resume=True) finishes the job.
    abort_after: int | None = None
    # Overrides that turn the workload's engine into the serial sync
    # reference for the identity checks (None: it already is serial).
    serial_overrides: dict | None = None

    def constants(self, quick: bool = False) -> dict:
        out = asdict(self)
        out["rounds"] = self.rounds(quick)
        out["abort_after"] = self.abort_round(quick)
        return out

    def rounds(self, quick: bool) -> int:
        return self.quick_rounds if quick else self.config["rounds"]

    def abort_round(self, quick: bool) -> int | None:
        if self.abort_after is None:
            return None
        return self.quick_rounds // 2 - 1 if quick else self.abort_after


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="silo_cnn_sync",
            why=(
                "compute-bound cross-silo cell: Conv2d kernels dominate, then the "
                "full-shard mean embedding and eval; rFedAvg's pairwise O(dN^2) "
                "delta broadcast over a dense DeltaTable"
            ),
            data=("image", dict(dataset="synth_cifar", num_clients=20, similarity=0.0,
                                num_train=1600, num_test=200, image_size=16)),
            model=("cnn", 0.25),
            algorithm=("rfedavg", dict(lam=1e-3)),
            preset="cross_silo",
            config=dict(rounds=2, eval_every=1, batch_size=32),
        ),
        Workload(
            name="device_cnn_hier_pool",
            why=(
                "the same Conv2d kernels at a small batch behind fl.parallel's "
                "persistent wire pool, shared-memory state broadcast and the "
                "fl.hierarchy loop, with rFedAvg+'s second synchronization"
            ),
            data=("image", dict(dataset="synth_mnist", num_clients=50, similarity=0.0,
                                num_train=2000, num_test=250, image_size=16)),
            model=("cnn", 0.25),
            algorithm=("rfedavg+", dict(lam=1e-3)),
            preset="cross_device",
            config=dict(rounds=5, eval_every=3, num_workers=2, executor="process",
                        topology="hier:2:2"),
            serial_overrides=dict(executor="serial", num_workers=1),
        ),
        Workload(
            name="sent140_lstm_async",
            why=(
                "LSTMCell, Embedding and RMSProp instead of Conv2d, driven by the "
                "event-heap async engine with stale buffered commits; a Conv2d gain "
                "must not move it"
            ),
            # 60 tweets a user keep every shard above the batch size, so the work
            # of a local step does not depend on which users the seed draws.
            data=("sent140", dict(num_users=25, tweets_per_user=60.0, seq_len=22,
                                  vocab_size=400)),
            model=("lstm", 0.25),
            algorithm=("rfedavg+", dict(lam=1e-2)),
            preset="cross_device",
            config=dict(rounds=4, eval_every=2, optimizer="rmsprop", lr=0.01,
                        execution="async", runtime="gaussian:mean=1,std=0.1,het=1",
                        # Without the cap every round dispatches its full cohort:
                        # the same work under every seed.
                        buffer_size=3, dispatch_cap=False),
        ),
        Workload(
            name="serve_mlp_compressed",
            why=(
                "training is tiny, so sockets, RFW1 framing, compression decode, "
                "error-feedback commits and checkpoint write and read are the wall "
                "clock; the bypass workload for kernel work"
            ),
            data=("image", dict(dataset="synth_mnist", num_clients=256, similarity=0.0,
                                num_train=5120, num_test=250, image_size=12)),
            model=("mlp", 1.0),
            algorithm=("fedavg", {}),
            preset="plain",
            config=dict(rounds=12, local_steps=2, batch_size=16, sample_ratio=0.25,
                        eval_every=6, lr=0.1, execution="serve", num_workers=2,
                        compression="topk:0.05|qsgd:8", checkpoint_every=4),
            quick_rounds=4,
            scratch=("checkpoint_dir",),
            abort_after=5,
            serial_overrides=dict(execution="sync", num_workers=1, checkpoint_dir=None),
        ),
        Workload(
            name="scale_virtual_stream",
            why=(
                "working set far larger than the caches: lazy shard materialization, "
                "the reservoir sampler, a ShardedDeltaTable that spills, streaming "
                "history and ledger spools; the memory workload"
            ),
            data=("virtual", dict(population=100_000, samples_per_client=20)),
            model=("mlp", 1.0),
            algorithm=("rfedavg+", dict(lam=1e-3)),
            preset="plain",
            config=dict(rounds=9, local_steps=2, batch_size=16, sample_ratio=0.001,
                        eval_every=5, lr=0.1, sampler="reservoir", history_mode="stream",
                        state_cap=256),
            scratch=("stream_dir", "state_dir"),
        ),
    )
}


class _Abort(Exception):
    """Raised by the bench's callback to cut a run short."""


@dataclass
class Setup:
    """What one set-up produces: the inputs a job receives."""

    fed: object
    model_fn: object
    seconds: float
    data_build_s: float
    slowdown: float  # of the host while it ran; see bench.hostspeed


def set_up(workload: Workload, seed: int) -> Setup:
    """Workload entry to the first ``run_federated`` call."""
    from repro.experiments import presets

    probes = [probe()]
    started = time.perf_counter()
    kind, kwargs = workload.data
    builder = {
        "image": presets.build_image_federation,
        "sent140": presets.build_sent140_federation,
        "virtual": presets.build_virtual_federation,
    }[kind]
    fed = builder(seed=seed, **kwargs)
    data_build_s = time.perf_counter() - started
    model_name, scale = workload.model
    model_fn = presets.default_model_fn(model_name, fed.spec, seed=seed, scale=scale)
    model_fn()  # the factory's cost is part of set-up; jobs build their own
    seconds = time.perf_counter() - started
    probes.append(probe())
    return Setup(fed, model_fn, seconds, data_build_s, slowdown(probes))


def make_config(workload: Workload, seed: int, quick: bool, scratch_dir: str | None, **overrides):
    from repro.experiments import presets
    from repro.fl.config import FLConfig

    kwargs = dict(workload.config, seed=seed, rounds=workload.rounds(quick))
    if quick:
        kwargs["eval_every"] = 1
        if "checkpoint_every" in kwargs:
            kwargs["checkpoint_every"] = 1
    for field_name in workload.scratch:
        kwargs[field_name] = os.path.join(scratch_dir, field_name)
    kwargs.update(overrides)
    if kwargs.get("execution") == "serve":
        # The default ephemeral Unix-domain socket, but inside the checkout;
        # a relative path keeps it under the sun_path length limit.
        socket_path = os.path.join(scratch_dir, "serve.sock")
        kwargs["serve_addr"] = "uds:" + min(socket_path, os.path.relpath(socket_path), key=len)
    factory = {
        "cross_silo": presets.cross_silo_config,
        "cross_device": presets.cross_device_config,
        "plain": FLConfig,
    }[workload.preset]
    return factory(**kwargs)


@dataclass
class JobResult:
    """Everything one job reports; times in wall-clock seconds with the
    bench's own callbacks taken out, byte counts exact."""

    wall_s: float
    round_intervals: list
    slowdown: float  # of the host while it ran; see bench.hostspeed
    cohorts: list  # num_selected per round callback, in order
    committed: int
    failed: int
    test_losses: list
    train_losses: list
    params_sha256: str
    identity_sha256: str | None  # parameters after IDENTITY_ROUNDS rounds
    rounds: int
    ledger: dict  # total bytes per ledger key
    algorithm: str
    feature_dim: int
    wire_bytes: int
    population: int
    layer_counts: dict  # per-layer numbers read from public attributes

    @property
    def reference_wall_s(self) -> float:
        return self.wall_s / self.slowdown


_LEDGER_KEYS = (
    "up", "down", "up:model", "up:delta", "down:model", "down:delta",
    "up:cloud-model", "down:cloud-model",
)


def _digest(params) -> str:
    return hashlib.sha256(params.tobytes()).hexdigest()


def run_job(
    workload: Workload,
    setup: Setup,
    seed: int,
    *,
    quick: bool = False,
    recorder: spans.SpanRecorder | None = None,
    stop_after: int | None = None,
    **overrides,
) -> JobResult:
    """One job of ``workload``.  ``recorder`` makes it a traced job;
    ``stop_after`` and ``overrides`` serve the identity checks."""
    from repro.algorithms import make_algorithm
    from repro.fl.trainer import run_federated

    scratch_dir = tempfile.mkdtemp(prefix="job-")
    try:
        config = make_config(workload, seed, quick, scratch_dir, **overrides)
        configs = [config]
        abort_round = None
        if stop_after is None and config.checkpoint_dir is not None:
            abort_round = workload.abort_round(quick)
            configs.append(config.with_updates(resume=True))

        intervals: list[float] = []
        records: list = []
        identity: list[str] = []
        algorithms: list = []
        probes = [probe()]
        # The job's clock stops while a callback runs: `resumed` is when the
        # last one returned, `paused` what they took in total.
        resumed = paused = 0.0

        def span(name: str):
            return recorder.span(name) if recorder is not None else nullcontext()

        def on_round(record) -> None:
            nonlocal resumed, paused
            entered = time.perf_counter()
            intervals.append(entered - resumed)
            try:
                with span(spans.CALLBACK):
                    records.append(record)
                    if record.round_idx == IDENTITY_ROUNDS - 1 and not identity:
                        identity.append(_digest(algorithms[-1].global_params))
                    probes.append(probe())
                if record.round_idx + 1 == stop_after:
                    raise _Abort
                if record.round_idx == abort_round and len(algorithms) == 1:
                    raise _Abort
            finally:
                resumed = time.perf_counter()
                paused += resumed - entered

        tracer = None
        model_fn = setup.model_fn
        if recorder is not None:
            model_fn = profiled_model_fn(model_fn, recorder)
            if config.execution == "serve":
                # serve.* counts and request latencies cannot be seen from
                # outside; they are read from the program's own registry.
                from repro.obs import Tracer

                tracer = Tracer()

        def call(cfg):
            name, kwargs = workload.algorithm
            algorithm = make_algorithm(name, **kwargs)
            if recorder is not None:
                algorithm.with_executor(TimedExecutor(cfg, recorder))
            algorithms.append(algorithm)
            try:
                return run_federated(
                    algorithm, setup.fed, model_fn, cfg, callbacks=[on_round], tracer=tracer
                )
            except _Abort:
                return None

        materialized_before = getattr(setup.fed.clients, "materializations", 0)
        started = resumed = time.perf_counter()
        with instrumented(recorder) if recorder is not None else nullcontext(), span(spans.ROOT):
            for cfg in configs:
                with span("fl.trainer"):
                    history = call(cfg)
        wall = time.perf_counter() - started - paused
        probes.append(probe())

        algorithm = algorithms[-1]
        committed = sum(record.num_selected for record in records)
        layer_counts = {
            "data.materializations": (
                getattr(setup.fed.clients, "materializations", 0) - materialized_before
            ),
            "core.delta_rows_spilled": getattr(
                getattr(algorithm, "delta_table", None), "spilled_rows", 0
            ),
        }
        async_history = getattr(history, "async_history", None)
        if async_history is not None:
            # The async engine commits what its buffer drained, not what it
            # dispatched; its update log has one record per commit.  Round 0
            # dispatches the full cohort (nothing is in flight to defer).
            layer_counts["fl.async_engine.staleness_mean"] = async_history.mean_staleness()
            layer_counts["fl.async_engine.deferred_dispatches"] = sum(
                records[0].num_selected - record.num_selected for record in records
            )
            committed = len(async_history.records)
        if recorder is not None:
            executors = [a.executor for a in algorithms]
            layer_counts["worker_train_s"] = sum(e.train_seconds for e in executors)
            layer_counts["workers"] = executors[0].num_workers
        if tracer is not None:
            layer_counts["serve"] = tracer.metrics.snapshot()
        degraded = any(getattr(a.executor, "degraded", False) for a in algorithms)
        return JobResult(
            wall_s=wall,
            round_intervals=intervals,
            slowdown=slowdown(probes),
            cohorts=[record.num_selected for record in records],
            committed=committed,
            failed=committed if degraded else 0,
            test_losses=[r.test_loss for r in records if r.test_loss is not None],
            train_losses=[r.train_loss for r in records],
            params_sha256=_digest(algorithm.global_params),
            identity_sha256=identity[0] if identity else None,
            rounds=len({record.round_idx for record in records}),
            ledger={key: int(algorithm.ledger.total(key)) for key in _LEDGER_KEYS},
            algorithm=algorithm.name,
            feature_dim=int(algorithm.model.feature_dim),
            wire_bytes=int(config.wire_bytes_per_scalar()),
            population=int(setup.fed.num_clients),
            layer_counts=layer_counts,
        )
    finally:
        shutil.rmtree(scratch_dir, ignore_errors=True)
