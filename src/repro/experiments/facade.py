"""Single public entry point for named, runnable experiments.

:func:`run_experiment` resolves a :class:`RunPreset` from the
:data:`RUN_PRESETS` registry, builds the federation / model / config /
algorithm it describes, runs one federated job, and (optionally) writes
run artifacts — so examples and the CLI don't each re-implement the
builder plumbing.

    import repro
    history, artifacts = repro.run_experiment(
        "quickstart", seed=0, overrides={"algorithm": "fedavg"}, trace=True
    )

``overrides`` keys are routed by name: :class:`RunPreset` fields
(``dataset``, ``algorithm``, ``clients``, ``similarity``, ...) override
the preset, :class:`~repro.fl.config.FLConfig` fields (``rounds``,
``lr``, ...) override the training config, and anything else is passed
to the algorithm constructor (``lam``, ``mu``, ``q``, ``eta_g``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

from repro.algorithms import make_algorithm
from repro.data.dataset import FederatedDataset
from repro.exceptions import ConfigError
from repro.experiments.presets import (
    build_femnist_federation,
    build_image_federation,
    build_sent140_federation,
    build_virtual_federation,
    cross_device_config,
    cross_silo_config,
    default_model_fn,
)
from repro.fl.config import FLConfig
from repro.fl.metrics import History
from repro.fl.trainer import run_federated
from repro.obs.exporters import write_run_artifacts
from repro.obs.trace import Tracer


@dataclass(frozen=True)
class RunPreset:
    """One named, directly runnable experiment configuration."""

    name: str
    description: str
    dataset: str = "synth_mnist"
    algorithm: str = "rfedavg+"
    algorithm_kwargs: dict = field(default_factory=dict)
    model: str | None = None  # None: mlp for images, lstm for sequences
    scale: float = 1.0
    clients: int = 10
    similarity: float = 0.0  # image datasets only
    iid: bool = False  # sent140 / femnist only
    num_train: int = 2000
    num_test: int = 400
    scenario: str = "cross_silo"  # 'cross_silo' | 'cross_device'
    population: int | None = None  # virtual (lazy) population size; overrides clients
    max_live: int = 256  # resident-shard LRU bound for virtual populations
    config: dict = field(default_factory=dict)


RUN_PRESETS: dict[str, RunPreset] = {
    preset.name: preset
    for preset in [
        RunPreset(
            "quickstart",
            "rFedAvg+ on fully non-IID synth-MNIST, example scale",
            dataset="synth_mnist",
            algorithm="rfedavg+",
            algorithm_kwargs={"lam": 1e-3},
            config=dict(rounds=60, batch_size=32, lr=0.5, eval_every=5),
        ),
        RunPreset(
            "cifar-noniid",
            "rFedAvg+ on fully non-IID synth-CIFAR (Table I column, example scale)",
            dataset="synth_cifar",
            algorithm="rfedavg+",
            algorithm_kwargs={"lam": 1e-3},
            config=dict(rounds=60, batch_size=32, lr=0.5, eval_every=4),
        ),
        RunPreset(
            "sent140-lstm",
            "LSTM + RMSProp on naturally non-IID synth-Sent140",
            dataset="synth_sent140",
            algorithm="rfedavg+",
            algorithm_kwargs={"lam": 0.1},
            clients=20,
            scale=0.25,
            config=dict(rounds=20, batch_size=16, optimizer="rmsprop", lr=0.01,
                        eval_every=5),
        ),
        RunPreset(
            "device-scale",
            "Cross-device scale-out: 100k virtual clients, 100-client cohorts, "
            "streaming ledgers (see docs/scale.md)",
            dataset="synth_mnist",
            algorithm="fedavg",
            population=100_000,
            scenario="cross_device",
            config=dict(rounds=10, local_steps=2, sample_ratio=0.001,
                        eval_every=5, sampler="reservoir",
                        history_mode="stream"),
        ),
        RunPreset(
            "femnist-device",
            "Cross-device FEMNIST (writer-skewed, 20% participation)",
            dataset="synth_femnist",
            algorithm="rfedavg+",
            algorithm_kwargs={"lam": 1e-3},
            clients=50,
            scale=0.25,
            scenario="cross_device",
            config=dict(rounds=30, eval_every=5),
        ),
    ]
}

_PRESET_FIELDS = {f.name for f in fields(RunPreset)} - {"name", "description", "config",
                                                        "algorithm_kwargs"}
_CONFIG_FIELDS = {f.name for f in fields(FLConfig)}


def list_presets() -> Sequence[RunPreset]:
    """The registered presets, in registration order."""
    return list(RUN_PRESETS.values())


def _resolve(name: str, overrides: dict | None) -> tuple[RunPreset, dict, dict]:
    """Split overrides into (preset, config overrides, algorithm kwargs)."""
    if name not in RUN_PRESETS:
        raise ConfigError(
            f"unknown experiment {name!r}; choose from {sorted(RUN_PRESETS)}"
        )
    preset = RUN_PRESETS[name]
    config_overrides: dict = {}
    algorithm_kwargs = dict(preset.algorithm_kwargs)
    preset_updates: dict = {}
    for key, value in (overrides or {}).items():
        if key in _PRESET_FIELDS:
            preset_updates[key] = value
        elif key in _CONFIG_FIELDS:
            config_overrides[key] = value
        else:
            algorithm_kwargs[key] = value
    if preset_updates.get("algorithm", preset.algorithm) != preset.algorithm:
        # Switching algorithms drops the preset's method-specific kwargs
        # (e.g. rfedavg+'s lam makes no sense for fedavg).
        algorithm_kwargs = {
            k: v for k, v in algorithm_kwargs.items()
            if k not in preset.algorithm_kwargs or k in (overrides or {})
        }
    if preset_updates:
        preset = replace(preset, **preset_updates)
    return preset, config_overrides, algorithm_kwargs


def _build_federation(preset: RunPreset, seed: int) -> FederatedDataset:
    if preset.population is not None:
        if preset.dataset != "synth_mnist":
            raise ConfigError(
                "virtual populations are procedural and currently back "
                f"'synth_mnist' only, not {preset.dataset!r}"
            )
        return build_virtual_federation(
            preset.population,
            similarity=preset.similarity,
            num_test=preset.num_test,
            max_live=preset.max_live,
            seed=seed,
        )
    if preset.dataset in ("synth_mnist", "synth_cifar"):
        return build_image_federation(
            preset.dataset,
            num_clients=preset.clients,
            similarity=preset.similarity,
            num_train=preset.num_train,
            num_test=preset.num_test,
            seed=seed,
        )
    if preset.dataset == "synth_sent140":
        return build_sent140_federation(
            num_users=preset.clients, iid=preset.iid, seed=seed
        )
    if preset.dataset == "synth_femnist":
        return build_femnist_federation(
            num_writers=preset.clients, iid=preset.iid, seed=seed
        )
    raise ConfigError(f"unknown dataset {preset.dataset!r}")


def run_experiment(
    name: str,
    *,
    seed: int = 0,
    overrides: dict | None = None,
    callbacks=None,
    trace: bool = False,
    artifacts_dir: str | Path | None = None,
    workers: int | None = None,
    execution: str | None = None,
    runtime: str | None = None,
    buffer_size: int | None = None,
    staleness_exponent: float | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int | None = None,
    resume: bool = False,
    compression: str | None = None,
    sync_compression: str | None = None,
    error_feedback: bool | None = None,
    topology: str | None = None,
    cloud_compression: str | None = None,
    serve_addr: str | None = None,
    serve_timeout: float | None = None,
) -> tuple[History, Path | None]:
    """Run the named experiment preset; return ``(history, artifacts_path)``.

    Args:
        name: a :data:`RUN_PRESETS` key (see :func:`list_presets`).
        seed: master seed (fed partition, model init, round sampling).
        overrides: preset / config / algorithm overrides, routed by key.
        callbacks: per-round callables forwarded to
            :func:`~repro.fl.trainer.run_federated`.
        trace: collect spans + metrics and persist run artifacts
            (default directory ``runs/<name>-seed<seed>``).
        artifacts_dir: where to write artifacts (implies persistence
            even without ``trace``; with ``trace`` overrides the default
            directory).
        workers: client-execution worker processes (shorthand for the
            ``num_workers`` config override; results are bit-identical
            for any value).
        execution: 'sync' (default), 'async' — the event-driven
            buffered engine (:mod:`repro.fl.async_engine`) — or 'serve'
            — the multi-process socket engine (:mod:`repro.serve`);
            shorthand for the ``execution`` config override.
        runtime: per-client latency model spec for async execution
            ('instant', 'gaussian:het=2', 'trace:<path.json>');
            shorthand for the ``runtime`` config override.
        buffer_size: aggregate after this many updates arrive (async;
            default: the full cohort); shorthand for the config
            override.
        staleness_exponent: staleness discount exponent ``a`` in
            ``(1+s)^-a`` (async); shorthand for the config override.
        checkpoint_dir: write crash-safe checkpoints here
            (:mod:`repro.ckpt`); shorthand for the config override.
        checkpoint_every: checkpoint cadence in rounds (shorthand).
        resume: resume from the newest valid checkpoint in
            ``checkpoint_dir``; the continued run is bit-identical to
            an uninterrupted one.
        compression: lossy upload-compression pipeline spec
            (``'topk:0.01|qsgd:8'``, see :mod:`repro.fl.compression`);
            shorthand for the ``compression`` config override.
        sync_compression: pipeline spec for the rFedAvg+ second
            synchronization (shorthand for the config override).
        error_feedback: keep per-client error-feedback residuals under
            lossy compression (default True; shorthand for the config
            override).
        topology: aggregation topology — 'flat' (default) or
            'hier:R:P' (R regions aggregating in parallel, cloud sync
            every P rounds; see :mod:`repro.fl.hierarchy`); shorthand
            for the ``topology`` config override.
        cloud_compression: compression pipeline spec for the region ->
            cloud uplink of hierarchical runs (shorthand for the config
            override).
        serve_addr: listen address for ``execution='serve'``
            (``'tcp:HOST:PORT'`` / ``'uds:/path.sock'``; shorthand for
            the config override).
        serve_timeout: serve-mode stall deadline in seconds (shorthand
            for the config override).

    Returns:
        The run's :class:`History` and the artifact directory (``None``
        when nothing was persisted).
    """
    preset, config_overrides, algorithm_kwargs = _resolve(name, overrides)

    fed = _build_federation(preset, seed)
    base_config = (
        cross_device_config if preset.scenario == "cross_device" else cross_silo_config
    )
    if workers is not None:
        config_overrides = {**config_overrides, "num_workers": workers}
    if execution is not None:
        config_overrides = {**config_overrides, "execution": execution}
    if runtime is not None:
        config_overrides = {**config_overrides, "runtime": runtime}
    if buffer_size is not None:
        config_overrides = {**config_overrides, "buffer_size": buffer_size}
    if staleness_exponent is not None:
        config_overrides = {
            **config_overrides, "staleness_exponent": staleness_exponent
        }
    if checkpoint_dir is not None:
        config_overrides = {**config_overrides, "checkpoint_dir": str(checkpoint_dir)}
    if checkpoint_every is not None:
        config_overrides = {**config_overrides, "checkpoint_every": checkpoint_every}
    if resume:
        config_overrides = {**config_overrides, "resume": True}
    if compression is not None:
        config_overrides = {**config_overrides, "compression": compression}
    if sync_compression is not None:
        config_overrides = {**config_overrides, "sync_compression": sync_compression}
    if error_feedback is not None:
        config_overrides = {**config_overrides, "error_feedback": error_feedback}
    if topology is not None:
        config_overrides = {**config_overrides, "topology": topology}
    if cloud_compression is not None:
        config_overrides = {**config_overrides, "cloud_compression": cloud_compression}
    if serve_addr is not None:
        config_overrides = {**config_overrides, "serve_addr": serve_addr}
    if serve_timeout is not None:
        config_overrides = {**config_overrides, "serve_timeout": serve_timeout}
    config = base_config(**{**preset.config, **config_overrides, "seed": seed})
    model_name = preset.model or ("lstm" if fed.spec.kind == "sequence" else "mlp")
    model_fn = default_model_fn(model_name, fed.spec, seed=seed, scale=preset.scale)
    try:
        algorithm = make_algorithm(preset.algorithm, **algorithm_kwargs)
    except TypeError as exc:
        # An override that matched neither a preset nor a config field
        # was routed here; surface it as a config problem, not a crash.
        raise ConfigError(
            f"bad overrides for algorithm {preset.algorithm!r}: {exc}"
        ) from exc

    tracer = Tracer() if trace else None
    history = run_federated(
        algorithm, fed, model_fn, config, callbacks=callbacks, tracer=tracer
    )

    artifacts_path: Path | None = None
    if trace or artifacts_dir is not None:
        from repro.ckpt.provenance import run_provenance

        out_dir = Path(artifacts_dir) if artifacts_dir is not None else (
            Path("runs") / f"{name}-seed{seed}"
        )
        artifacts_path = write_run_artifacts(
            out_dir, history, tracer,
            provenance=run_provenance(config, algorithm.name),
        )
    return history, artifacts_path
