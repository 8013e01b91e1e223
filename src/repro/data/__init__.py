"""Datasets and non-IID partitioners.

Real MNIST / CIFAR10 / Sent140 / FEMNIST downloads are unavailable
offline, so this package provides procedural stand-ins that preserve the
properties the paper's evaluation depends on (see DESIGN.md section 2):

* :mod:`repro.data.synth_mnist` — rendered digit glyphs, an *easy*
  10-class image task (the paper notes non-IID MNIST barely hurts).
* :mod:`repro.data.synth_cifar` — noisy class-conditional textures, a
  *hard* 10-class image task where non-IID splits cost real accuracy.
* :mod:`repro.data.synth_sent140` — token sequences with per-user
  vocabulary skew (natural feature-distribution non-IIDness) for LSTMs.
* :mod:`repro.data.synth_femnist` — per-writer styled glyphs with
  quantity skew.

Partitioners in :mod:`repro.data.partition` implement the paper's
similarity-s% split (s% IID + label-sorted shards), Dirichlet label
skew, quantity skew, and natural by-user partitioning.

For cross-device scale, :mod:`repro.data.virtual` turns a population
into a recipe: :class:`VirtualFederatedDataset` materializes client
shards on demand from per-client seeded streams, so a million-client
population costs the memory of a cohort (see docs/scale.md).
"""

from repro.data.dataset import ArrayDataset, DatasetSpec, FederatedDataset
from repro.data.partition import (
    similarity_partition,
    dirichlet_partition,
    quantity_skew_sizes,
    by_user_partition,
    shard_partition,
    iid_partition,
)
from repro.data.synth_mnist import make_synth_mnist
from repro.data.virtual import (
    VirtualPartition,
    VirtualClientSet,
    VirtualFederatedDataset,
    make_virtual_federation,
    materialize_client,
)
from repro.data.synth_cifar import make_synth_cifar
from repro.data.synth_sent140 import make_synth_sent140
from repro.data.synth_femnist import make_synth_femnist
from repro.data.stats import quantity_imbalance

__all__ = [
    "ArrayDataset",
    "DatasetSpec",
    "FederatedDataset",
    "similarity_partition",
    "dirichlet_partition",
    "quantity_skew_sizes",
    "by_user_partition",
    "shard_partition",
    "iid_partition",
    "make_synth_mnist",
    "VirtualPartition",
    "VirtualClientSet",
    "VirtualFederatedDataset",
    "make_virtual_federation",
    "materialize_client",
    "make_synth_cifar",
    "make_synth_sent140",
    "make_synth_femnist",
    "quantity_imbalance",
]
