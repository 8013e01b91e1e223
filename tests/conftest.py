"""Shared fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ArrayDataset, DatasetSpec, FederatedDataset, similarity_partition
from repro.fl.config import FLConfig


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def make_toy_image_dataset(
    num_samples: int = 120,
    num_classes: int = 4,
    side: int = 8,
    channels: int = 1,
    seed: int = 0,
) -> tuple[DatasetSpec, ArrayDataset]:
    """Tiny learnable image dataset: class-dependent mean + noise."""
    gen = np.random.default_rng(seed)
    labels = gen.integers(0, num_classes, num_samples)
    means = gen.normal(0.0, 1.0, size=(num_classes, channels, side, side))
    x = means[labels] + gen.normal(0.0, 0.3, size=(num_samples, channels, side, side))
    spec = DatasetSpec(
        name="toy",
        kind="image",
        input_shape=(channels, side, side),
        num_classes=num_classes,
    )
    return spec, ArrayDataset(x, labels)


def make_toy_federation(similarity: float, num_clients: int = 4) -> FederatedDataset:
    """Small learnable federation; train/test share class prototypes."""
    spec, full = make_toy_image_dataset(num_samples=220, seed=7)
    gen = np.random.default_rng(1)
    train, test = full.split(160 / 220, gen)
    parts = similarity_partition(train.y, num_clients, similarity, gen)
    return FederatedDataset(
        spec=spec, clients=[train.subset(p) for p in parts], test=test
    )


@pytest.fixture
def toy_federation() -> FederatedDataset:
    """4 clients, fully non-IID split of a small learnable image task."""
    return make_toy_federation(similarity=0.0)


@pytest.fixture
def iid_federation() -> FederatedDataset:
    """4 clients, IID split of the same task."""
    return make_toy_federation(similarity=1.0)


@pytest.fixture
def fast_config() -> FLConfig:
    return FLConfig(rounds=3, local_steps=2, batch_size=16, lr=0.1, seed=3)
