"""Partitioner tests, including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import (
    by_user_partition,
    dirichlet_partition,
    iid_partition,
    quantity_skew_sizes,
    similarity_partition,
)
from repro.data.dataset import ArrayDataset
from repro.exceptions import DataError
from tests.helpers import label_histograms, mean_pairwise_tv_distance


def _labels(n=200, classes=10, seed=0):
    return np.random.default_rng(seed).integers(0, classes, n)


def _assert_exact_cover(parts, n):
    joined = np.sort(np.concatenate(parts))
    np.testing.assert_array_equal(joined, np.arange(n))


@given(
    st.integers(50, 300),
    st.integers(2, 12),
    st.floats(0.0, 1.0),
    st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_similarity_partition_is_exact_cover(n, clients, sim, seed):
    """Property: every index appears in exactly one client, none lost."""
    labels = _labels(n, seed=seed)
    rng = np.random.default_rng(seed)
    parts = similarity_partition(labels, clients, sim, rng)
    assert len(parts) == clients
    _assert_exact_cover(parts, n)
    assert all(len(p) > 0 for p in parts)


def test_similarity_zero_concentrates_labels(rng):
    labels = np.sort(_labels(1000, classes=10))
    parts = similarity_partition(labels, 10, 0.0, rng)
    hists = label_histograms(
        [ArrayDataset(np.zeros((len(p), 1)), labels[p]) for p in parts], 10
    )
    tv_noniid = mean_pairwise_tv_distance(hists)
    parts_iid = similarity_partition(labels, 10, 1.0, rng)
    hists_iid = label_histograms(
        [ArrayDataset(np.zeros((len(p), 1)), labels[p]) for p in parts_iid], 10
    )
    tv_iid = mean_pairwise_tv_distance(hists_iid)
    assert tv_noniid > 0.6
    assert tv_iid < 0.25
    assert tv_noniid > 2 * tv_iid


def test_similarity_interpolates_skew(rng):
    labels = _labels(1000)
    tvs = []
    for sim in [0.0, 0.5, 1.0]:
        parts = similarity_partition(labels, 10, sim, rng)
        hists = label_histograms(
            [ArrayDataset(np.zeros((len(p), 1)), labels[p]) for p in parts], 10
        )
        tvs.append(mean_pairwise_tv_distance(hists))
    assert tvs[0] > tvs[1] > tvs[2]


def test_similarity_invalid_inputs(rng):
    with pytest.raises(DataError):
        similarity_partition(_labels(10), 3, 1.5, rng)
    with pytest.raises(DataError):
        similarity_partition(_labels(2), 3, 0.0, rng)


def test_iid_partition_even_sizes(rng):
    parts = iid_partition(100, 8, rng)
    sizes = [len(p) for p in parts]
    assert sum(sizes) == 100
    assert max(sizes) - min(sizes) <= 1


def test_iid_partition_errors(rng):
    with pytest.raises(DataError):
        iid_partition(2, 3, rng)
    with pytest.raises(DataError):
        iid_partition(10, 0, rng)


@given(st.floats(0.05, 5.0), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_dirichlet_partition_cover(alpha, seed):
    labels = _labels(300, seed=seed)
    rng = np.random.default_rng(seed)
    parts = dirichlet_partition(labels, 6, alpha, rng)
    _assert_exact_cover(parts, 300)


def test_dirichlet_small_alpha_is_skewed(rng):
    labels = _labels(2000)
    skewed = dirichlet_partition(labels, 10, 0.05, rng)
    uniform = dirichlet_partition(labels, 10, 100.0, rng)

    def tv(parts):
        hists = label_histograms(
            [ArrayDataset(np.zeros((len(p), 1)), labels[p]) for p in parts], 10
        )
        return mean_pairwise_tv_distance(hists)

    assert tv(skewed) > tv(uniform) + 0.2


def test_dirichlet_invalid_alpha(rng):
    with pytest.raises(DataError):
        dirichlet_partition(_labels(), 4, 0.0, rng)


@given(st.integers(2, 40), st.floats(0.1, 2.0), st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_quantity_skew_sizes_sum_and_min(clients, sigma, seed):
    rng = np.random.default_rng(seed)
    total = clients * 25
    sizes = quantity_skew_sizes(total, clients, rng, sigma=sigma, min_size=2)
    assert sizes.sum() == total
    assert sizes.min() >= 2


def test_quantity_skew_produces_imbalance(rng):
    sizes = quantity_skew_sizes(5000, 50, rng, sigma=1.2)
    assert sizes.max() > 3 * sizes.min()


def test_quantity_skew_infeasible(rng):
    with pytest.raises(DataError):
        quantity_skew_sizes(5, 10, rng, min_size=2)


def test_by_user_partition_groups():
    users = np.array([3, 1, 3, 2, 1])
    parts = by_user_partition(users)
    assert len(parts) == 3
    _assert_exact_cover(parts, 5)
    for p in parts:
        assert len(np.unique(users[p])) == 1


@given(st.integers(2, 10), st.integers(1, 4), st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_shard_partition_cover(clients, shards, seed):
    from repro.data.partition import shard_partition

    labels = _labels(clients * shards * 10, seed=seed)
    rng = np.random.default_rng(seed)
    parts = shard_partition(labels, clients, shards, rng)
    _assert_exact_cover(parts, len(labels))


def test_shard_partition_limits_labels_per_client(rng):
    from repro.data.partition import shard_partition

    labels = _labels(2000, classes=10)
    parts = shard_partition(labels, 10, 2, rng)
    # 2 shards per client on sorted labels -> at most ~3 distinct labels
    # (shard boundaries can straddle a label change).
    for p in parts:
        assert len(np.unique(labels[p])) <= 4


def test_shard_partition_validation(rng):
    from repro.data.partition import shard_partition

    with pytest.raises(DataError):
        shard_partition(_labels(5), 10, 2, rng)
    with pytest.raises(DataError):
        shard_partition(_labels(100), 5, 0, rng)
