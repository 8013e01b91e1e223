"""Virtual (lazy) federated populations (repro.data.virtual).

The recipe contract: any client shard is a pure function of
``(partition, client_id)``, so lazy access, eager materialization, LRU
eviction, and re-materialization all yield identical bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_virtual_federation
from repro.data.virtual import (
    VirtualClientSet,
    VirtualPartition,
    materialize_client,
    materialize_test,
)
from repro.exceptions import DataError


def test_partition_validates_inputs():
    with pytest.raises(DataError):
        VirtualPartition(population=0)
    with pytest.raises(DataError):
        VirtualPartition(population=10, dataset="synth_cifar")
    with pytest.raises(DataError):
        VirtualPartition(population=10, similarity=1.5)
    with pytest.raises(DataError):
        VirtualPartition(population=10, image_size=4)


def test_home_labels_cover_all_classes_in_contiguous_blocks():
    part = VirtualPartition(population=100, seed=1)
    labels = [part.home_label(k) for k in range(100)]
    assert sorted(set(labels)) == list(range(10))
    assert labels == sorted(labels)  # contiguous id blocks share a label


def test_materialize_client_is_deterministic_and_independent():
    part = VirtualPartition(population=1000, seed=7, similarity=0.2)
    a = materialize_client(part, 423, 20)
    b = materialize_client(part, 423, 20)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    # Rendering another client first must not disturb the stream.
    materialize_client(part, 5, 20)
    c = materialize_client(part, 423, 20)
    np.testing.assert_array_equal(a.x, c.x)


def test_materialize_client_range_check():
    part = VirtualPartition(population=10, seed=0)
    with pytest.raises(DataError):
        materialize_client(part, 10, 20)
    with pytest.raises(DataError):
        materialize_client(part, -1, 20)
    # The lazy sequence raises the same error for both ends, before it
    # looks up a size: clients[population] used to leak numpy's
    # IndexError and clients[-1] read the last client's size first.
    fed = make_virtual_federation(10, seed=0)
    for bad in (10, -1, np.int64(10), np.int64(-1)):
        with pytest.raises(DataError, match="out of range for population 10"):
            fed.clients[bad]
    assert fed.clients.materializations == 0 and fed.clients.live_clients == 0
    assert fed.clients[9].x.shape[0] == 20


def test_similarity_zero_is_pure_home_label():
    part = VirtualPartition(population=50, seed=3, similarity=0.0)
    shard = materialize_client(part, 7, 20)
    assert set(shard.y.tolist()) == {part.home_label(7)}


def test_similarity_one_is_iid():
    part = VirtualPartition(population=50, seed=3, similarity=1.0)
    labels = np.concatenate(
        [materialize_client(part, k, 40).y for k in range(5)]
    )
    assert len(set(labels.tolist())) > 3  # spread well beyond home labels


def test_lru_eviction_rerenders_identically():
    fed = make_virtual_federation(20, seed=9, similarity=0.1, max_live=2)
    first = fed.clients[3].x.copy()
    fed.clients[4]
    fed.clients[5]  # evicts client 3 (max_live=2)
    assert fed.clients.live_clients == 2
    np.testing.assert_array_equal(fed.clients[3].x, first)


def test_live_clients_bounded_and_release_clears():
    fed = make_virtual_federation(100, seed=1, max_live=4)
    for k in range(10):
        fed.clients[k]
    assert fed.clients.live_clients == 4
    fed.release()
    assert fed.clients.live_clients == 0


def test_materialization_counter_tracks_renders():
    fed = make_virtual_federation(10, seed=1, max_live=8)
    fed.clients[0]
    fed.clients[0]  # cached, no re-render
    assert fed.clients.materializations == 1
    fed.clients[1]
    assert fed.clients.materializations == 2


def test_client_set_rejects_bad_max_live():
    part = VirtualPartition(population=5, seed=0)
    with pytest.raises(DataError):
        VirtualClientSet(part, part.client_sizes(), max_live=0)


def test_eager_materialization_is_bit_identical():
    virt = make_virtual_federation(8, seed=5, similarity=0.3, size_sigma=0.5)
    eager = virt.materialize()
    assert eager.num_clients == virt.num_clients
    for k in range(8):
        np.testing.assert_array_equal(eager.clients[k].x, virt.clients[k].x)
        np.testing.assert_array_equal(eager.clients[k].y, virt.clients[k].y)
    np.testing.assert_array_equal(eager.test.x, virt.test.x)


def test_federated_dataset_duck_type_surface():
    fed = make_virtual_federation(30, seed=2, size_sigma=0.4)
    assert fed.virtual is True
    assert fed.num_clients == 30
    assert fed.client_sizes.shape == (30,)
    assert fed.weights.shape == (30,)
    assert np.isclose(fed.weights.sum(), 1.0)
    assert fed.total_train_samples() == int(fed.client_sizes.sum())
    assert len(fed.clients[3]) == fed.client_sizes[3]
    assert fed.client_test == []


def test_size_sigma_zero_gives_uniform_sizes():
    part = VirtualPartition(population=100, seed=0, samples_per_client=12)
    assert (part.client_sizes() == 12).all()


def test_size_sigma_skews_but_respects_floor():
    part = VirtualPartition(
        population=500, seed=0, samples_per_client=10, size_sigma=1.0, min_samples=4
    )
    sizes = part.client_sizes()
    assert sizes.min() >= 4
    assert len(np.unique(sizes)) > 5


def test_global_test_set_is_deterministic():
    part = VirtualPartition(population=10, seed=4, num_test=64)
    a, b = materialize_test(part), materialize_test(part)
    np.testing.assert_array_equal(a.x, b.x)
    assert len(a) == 64


def test_population_memory_is_not_enumerated():
    # Constructing a million-client federation must be instant and tiny:
    # the only O(N) piece is the int64 size vector.
    fed = make_virtual_federation(1_000_000, seed=1)
    assert fed.num_clients == 1_000_000
    assert fed.clients.live_clients == 0
    assert fed.client_sizes.nbytes == 8_000_000
