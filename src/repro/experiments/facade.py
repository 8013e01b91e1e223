"""Single public entry point for named, runnable experiments.

A :class:`RunPreset` is the one description of a job: the paper's
setting (``scenario``), a dataset split, a model, an algorithm and its
:class:`~repro.fl.config.FLConfig` fields.  :func:`run_preset` runs one
from its pieces — :func:`preset_federation`, :func:`preset_model_fn`,
:func:`preset_config` and :func:`preset_algorithm` — and (optionally)
writes run artifacts with provenance.  The CLI's ``run`` / ``preset`` /
``sweep`` commands, :func:`run_experiment` (a named preset from the
:data:`RUN_PRESETS` registry) and :func:`~repro.experiments.runner.run_grid`
(cells of overrides over one preset, repeated on paired seeds) all go
through it.

    import repro
    history, artifacts = repro.run_experiment(
        "quickstart", seed=0, overrides={"algorithm": "fedavg"}, trace=True
    )

:func:`with_overrides` routes ``overrides`` keys by name:
:class:`RunPreset` fields (``dataset``, ``algorithm``, ``clients``,
``similarity``, ...) override the preset,
:class:`~repro.fl.config.FLConfig` fields (``rounds``, ``lr``,
``num_workers``, ``checkpoint_dir``, ...) override the training config,
and anything else is passed to the algorithm constructor (``lam``,
``mu``, ``q``, ``eta_g``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.algorithms import make_algorithm
from repro.data.dataset import DatasetSpec, FederatedDataset
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
from repro.models.split import SplitModel
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
    similarity: float = 0.0  # image and virtual datasets
    iid: bool = False  # IID split; similarity 1.0 for image and virtual datasets
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


def with_overrides(preset: RunPreset, overrides: dict | None = None) -> RunPreset:
    """``preset`` with ``overrides`` routed into it by key.

    :class:`RunPreset` fields replace the preset's, :class:`FLConfig`
    fields go into ``preset.config`` and anything else into
    ``preset.algorithm_kwargs``.
    """
    overrides = overrides or {}
    config = dict(preset.config)
    algorithm_kwargs = dict(preset.algorithm_kwargs)
    preset_updates: dict = {}
    for key, value in overrides.items():
        if key in _PRESET_FIELDS:
            preset_updates[key] = value
        elif key in _CONFIG_FIELDS:
            config[key] = value
        else:
            algorithm_kwargs[key] = value
    if preset_updates.get("algorithm", preset.algorithm) != preset.algorithm:
        # Switching algorithms drops the preset's method-specific kwargs
        # (e.g. rfedavg+'s lam makes no sense for fedavg).
        algorithm_kwargs = {
            k: v for k, v in algorithm_kwargs.items()
            if k not in preset.algorithm_kwargs or k in overrides
        }
    return replace(
        preset, config=config, algorithm_kwargs=algorithm_kwargs, **preset_updates
    )


def preset_federation(preset: RunPreset, seed: int) -> FederatedDataset:
    """The preset's federation; ``iid`` on an image or virtual split
    means similarity 1.0."""
    similarity = 1.0 if preset.iid else preset.similarity
    if preset.population is not None:
        if preset.dataset != "synth_mnist":
            raise ConfigError(
                "virtual populations are procedural and currently back "
                f"'synth_mnist' only, not {preset.dataset!r}"
            )
        return build_virtual_federation(
            preset.population,
            similarity=similarity,
            num_test=preset.num_test,
            max_live=preset.max_live,
            seed=seed,
        )
    if preset.dataset in ("synth_mnist", "synth_cifar"):
        return build_image_federation(
            preset.dataset,
            num_clients=preset.clients,
            similarity=similarity,
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


def preset_model_fn(
    preset: RunPreset, spec: DatasetSpec, seed: int
) -> Callable[[], SplitModel]:
    """The preset's model factory (mlp for images and lstm for sequences
    unless ``preset.model`` names one)."""
    model_name = preset.model or ("lstm" if spec.kind == "sequence" else "mlp")
    return default_model_fn(model_name, spec, seed=seed, scale=preset.scale)


def preset_config(preset: RunPreset, seed: int = 0) -> FLConfig:
    """The run's config: the preset's scenario base with ``preset.config``
    on top and ``seed`` forced.  Raises :class:`ConfigError` on a bad knob."""
    base_config = (
        cross_device_config if preset.scenario == "cross_device" else cross_silo_config
    )
    return base_config(**{**preset.config, "seed": seed})


def preset_algorithm(preset: RunPreset):
    """A fresh algorithm of the preset.  Raises :class:`ConfigError` on
    a kwarg the algorithm does not take."""
    try:
        return make_algorithm(preset.algorithm, **preset.algorithm_kwargs)
    except TypeError as exc:
        # An override that matched neither a preset nor a config field
        # was routed here; surface it as a config problem, not a crash.
        raise ConfigError(
            f"bad overrides for algorithm {preset.algorithm!r}: {exc}"
        ) from exc


def run_preset(
    preset: RunPreset,
    *,
    seed: int = 0,
    eval_per_client: bool = False,
    callbacks=None,
    tracer: Tracer | None = None,
    artifacts_dir: str | Path | None = None,
) -> tuple[History, Path | None]:
    """Run the job ``preset`` describes; return ``(history, artifacts_path)``.

    Builds the preset's config, federation, model factory and algorithm
    at ``seed``, runs one federated job, and writes the run artifacts
    with provenance under ``artifacts_dir`` when one is given.
    ``eval_per_client`` and ``callbacks`` go to
    :func:`~repro.fl.trainer.run_federated`.
    """
    config = preset_config(preset, seed)
    fed = preset_federation(preset, seed)
    algorithm = preset_algorithm(preset)
    history = run_federated(
        algorithm, fed, preset_model_fn(preset, fed.spec, seed), config,
        eval_per_client=eval_per_client, callbacks=callbacks, tracer=tracer,
    )
    if artifacts_dir is None:
        return history, None
    from repro.ckpt.provenance import run_provenance

    return history, write_run_artifacts(
        artifacts_dir, history, tracer,
        provenance=run_provenance(config, algorithm.name),
    )


def run_experiment(
    name: str,
    *,
    seed: int = 0,
    overrides: dict | None = None,
    callbacks=None,
    trace: bool = False,
    artifacts_dir: str | Path | None = None,
) -> tuple[History, Path | None]:
    """Run the named experiment preset; return ``(history, artifacts_path)``.

    Args:
        name: a :data:`RUN_PRESETS` key (see :func:`list_presets`).
        seed: master seed (fed partition, model init, round sampling).
        overrides: preset / config / algorithm overrides, routed by key
            (``{"num_workers": 4, "execution": "async", ...}``).
        callbacks: per-round callables forwarded to
            :func:`~repro.fl.trainer.run_federated`.
        trace: collect spans + metrics and persist run artifacts
            (default directory ``runs/<name>-seed<seed>``).
        artifacts_dir: where to write artifacts (implies persistence
            even without ``trace``; with ``trace`` overrides the default
            directory).

    Returns:
        The run's :class:`History` and the artifact directory (``None``
        when nothing was persisted).
    """
    if trace and artifacts_dir is None:
        artifacts_dir = Path("runs") / f"{name}-seed{seed}"
    if name not in RUN_PRESETS:
        raise ConfigError(
            f"unknown experiment {name!r}; choose from {sorted(RUN_PRESETS)}"
        )
    return run_preset(
        with_overrides(RUN_PRESETS[name], overrides),
        seed=seed,
        callbacks=callbacks,
        tracer=Tracer() if trace else None,
        artifacts_dir=artifacts_dir,
    )
