"""Dataset/model/config presets for the paper's two evaluation settings.

Paper settings:
* cross-silo:   N = 20,  E = 5,  SR = 1.0, batch 100
* cross-device: N = 500, E = 10, SR = 0.2, batch 32

The builders below default to CPU-budget scales (fewer clients, smaller
synthetic corpora, narrow models) but accept the paper-scale values —
every bench documents the scale it ran at in EXPERIMENTS.md.  The two
setting configs default ``num_workers`` to the CPUs this process may
use, so ``executor='auto'`` may hand a round's clients to the worker
engine when a probe says it pays (``docs/parallelism.md``); a plain
:class:`~repro.fl.config.FLConfig` stays the serial reference.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data import (
    ArrayDataset,
    DatasetSpec,
    FederatedDataset,
    by_user_partition,
    iid_partition,
    make_synth_cifar,
    make_synth_femnist,
    make_synth_mnist,
    make_synth_sent140,
    similarity_partition,
)
from repro.data.synth_femnist import FemnistConfig
from repro.data.synth_sent140 import Sent140Config
from repro.exceptions import ConfigError
from repro.fl.config import FLConfig
from repro.models import SplitModel, build_model
from repro.obs.sysinfo import usable_cpus


def cross_silo_config(**overrides) -> FLConfig:
    """The paper's cross-silo setting (full participation)."""
    base = dict(rounds=30, local_steps=5, batch_size=100, sample_ratio=1.0, lr=0.1,
                num_workers=usable_cpus())
    base.update(overrides)
    return FLConfig(**base)


def cross_device_config(**overrides) -> FLConfig:
    """The paper's cross-device setting (20% participation)."""
    base = dict(rounds=30, local_steps=10, batch_size=32, sample_ratio=0.2, lr=0.1,
                num_workers=usable_cpus())
    base.update(overrides)
    return FLConfig(**base)


_IMAGE_MAKERS = {
    "synth_mnist": make_synth_mnist,
    "synth_cifar": make_synth_cifar,
}


def build_image_federation(
    dataset: str,
    num_clients: int = 10,
    similarity: float = 0.0,
    num_train: int = 2000,
    num_test: int = 500,
    image_size: int = 12,
    seed: int = 0,
) -> FederatedDataset:
    """Synth-MNIST/CIFAR partitioned with the paper's similarity split.

    ``similarity`` is the fraction s of IID data (0.0 = Sim 0%,
    0.1 = Sim 10%, 1.0 = Sim 100% in the paper's tables).
    """
    if dataset not in _IMAGE_MAKERS:
        raise ConfigError(f"unknown image dataset {dataset!r}; choose from {sorted(_IMAGE_MAKERS)}")
    spec, train, test = _IMAGE_MAKERS[dataset](
        num_train=num_train, num_test=num_test, image_size=image_size, seed=seed
    )
    rng = np.random.default_rng([seed, 0xDA7A])
    parts = similarity_partition(train.y, num_clients, similarity, rng)
    clients = [train.subset(p) for p in parts]
    return FederatedDataset(spec=spec, clients=clients, test=test)


def build_sent140_federation(
    num_users: int = 50,
    iid: bool = False,
    tweets_per_user: float = 20.0,
    seq_len: int = 10,
    vocab_size: int = 200,
    seed: int = 0,
) -> FederatedDataset:
    """Synth-Sent140, naturally non-IID by user (or shuffled for IID).

    Mirrors the paper: "we sample 500 users directly from the dataset as
    the non-IID setting, and randomly shuffle the subset and evenly
    allocate it to the 500 clients to simulate the IID setting."
    """
    cfg = Sent140Config(
        num_users=num_users,
        tweets_per_user_mean=tweets_per_user,
        seq_len=seq_len,
        vocab_size=vocab_size,
        seed=seed,
    )
    spec, train, test, user_ids = make_synth_sent140(cfg)
    if iid:
        rng = np.random.default_rng([seed, 0x11D])
        parts = iid_partition(len(train), num_users, rng)
    else:
        parts = by_user_partition(user_ids)
    clients = [train.subset(p) for p in parts]
    return FederatedDataset(spec=spec, clients=clients, test=test)


def build_femnist_federation(
    num_writers: int = 50,
    samples_per_writer: int = 20,
    image_size: int = 12,
    num_classes: int = 10,
    iid: bool = False,
    seed: int = 0,
) -> FederatedDataset:
    """Synth-FEMNIST, naturally non-IID by writer (or shuffled for IID)."""
    cfg = FemnistConfig(
        num_writers=num_writers,
        samples_per_writer_mean=samples_per_writer,
        image_size=image_size,
        num_classes=num_classes,
        seed=seed,
    )
    spec, train, test, writer_ids = make_synth_femnist(cfg)
    if iid:
        rng = np.random.default_rng([seed, 0x11D])
        parts = iid_partition(len(train), num_writers, rng)
    else:
        parts = by_user_partition(writer_ids)
    clients = [train.subset(p) for p in parts]
    return FederatedDataset(spec=spec, clients=clients, test=test)


def build_virtual_federation(
    population: int,
    similarity: float = 0.0,
    samples_per_client: int = 20,
    image_size: int = 12,
    size_sigma: float = 0.0,
    num_test: int = 256,
    max_live: int = 256,
    seed: int = 0,
):
    """A lazy synth-MNIST population for cross-device scale-out.

    Clients are ``(seed, partition-spec)`` recipes materialized on
    demand (:mod:`repro.data.virtual`), so ``population`` can be in the
    millions: resident memory is bounded by ``max_live`` shards, not N.
    Pair with ``sampler='reservoir'`` and ``history_mode='stream'`` to
    keep the whole run O(cohort) — see docs/scale.md.
    """
    from repro.data.virtual import make_virtual_federation

    return make_virtual_federation(
        population,
        seed=seed,
        similarity=similarity,
        samples_per_client=samples_per_client,
        image_size=image_size,
        size_sigma=size_sigma,
        num_test=num_test,
        max_live=max_live,
    )


def build_feature_skew_federation(
    dataset: str = "synth_mnist",
    num_clients: int = 10,
    skew_strength: float = 1.0,
    num_train: int = 2000,
    num_test: int = 500,
    image_size: int = 12,
    seed: int = 0,
) -> FederatedDataset:
    """Feature-distribution-skewed federation (Li et al. 2022's third
    non-IID type, and the regularizer's home turf).

    Labels are partitioned IID, then every client's inputs pass through
    a fixed client-specific style (brightness / shift / noise) from
    :func:`repro.data.transforms.client_style_pipeline`.  The test set
    is an equal mixture of all client styles, so the global model is
    scored on the union distribution.
    """
    from repro.data.transforms import client_style_pipeline

    if dataset not in _IMAGE_MAKERS:
        raise ConfigError(f"unknown image dataset {dataset!r}")
    spec, train, test = _IMAGE_MAKERS[dataset](
        num_train=num_train, num_test=num_test, image_size=image_size, seed=seed
    )
    rng = np.random.default_rng([seed, 0xFEA7])
    parts = iid_partition(len(train), num_clients, rng)
    clients = []
    for client_id, part in enumerate(parts):
        shard = train.subset(part)
        style = client_style_pipeline(client_id, skew_strength, base_seed=seed)
        clients.append(ArrayDataset(style.apply(shard.x, rng), shard.y))
    # Styled test mixture: chunk i gets client i's style.
    test_x = test.x.copy()
    for client_id, chunk in enumerate(np.array_split(np.arange(len(test)), num_clients)):
        style = client_style_pipeline(client_id, skew_strength, base_seed=seed)
        test_x[chunk] = style.apply(test.x[chunk], rng)
    styled_test = ArrayDataset(test_x, test.y)
    return FederatedDataset(spec=spec, clients=clients, test=styled_test)


def default_model_fn(
    model_name: str, spec: DatasetSpec, seed: int = 0, scale: float = 0.25
) -> Callable[[], SplitModel]:
    """A deterministic model factory for :func:`repro.fl.run_federated`.

    ``scale=1.0`` builds the paper-size architectures; the default 0.25
    is the CPU-budget width used by the benches.
    """

    def factory() -> SplitModel:
        return build_model(model_name, spec, seed=seed, scale=scale)

    return factory
