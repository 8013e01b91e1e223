"""Synthetic dataset generator tests."""

import numpy as np
import pytest

from repro.data import (
    make_synth_cifar,
    make_synth_femnist,
    make_synth_mnist,
    make_synth_sent140,
)
from repro.data.stats import quantity_imbalance
from repro.data.partition import by_user_partition
from repro.data.synth_femnist import FemnistConfig
from repro.data.synth_sent140 import Sent140Config
from repro.exceptions import DataError
from tests.helpers import label_histograms, mean_pairwise_tv_distance


def test_synth_mnist_shapes_and_spec():
    spec, train, test = make_synth_mnist(num_train=100, num_test=40)
    assert spec.input_shape == (1, 12, 12)
    assert spec.num_classes == 10
    assert train.x.shape == (100, 1, 12, 12)
    assert len(test) == 40
    assert train.x.min() >= 0.0 and train.x.max() <= 1.0


def test_synth_mnist_deterministic():
    _s1, a, _t1 = make_synth_mnist(num_train=50, num_test=10, seed=3)
    _s2, b, _t2 = make_synth_mnist(num_train=50, num_test=10, seed=3)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)


def test_synth_mnist_seed_changes_data():
    _s1, a, _ = make_synth_mnist(num_train=50, num_test=10, seed=3)
    _s2, b, _ = make_synth_mnist(num_train=50, num_test=10, seed=4)
    assert not np.array_equal(a.x, b.x)


def test_synth_mnist_min_size():
    with pytest.raises(DataError):
        make_synth_mnist(image_size=8)


def test_synth_mnist_classes_are_linearly_separable_enough():
    """A ridge classifier on raw pixels should beat chance by a wide
    margin — the dataset must be learnable like real MNIST."""
    _spec, train, test = make_synth_mnist(num_train=800, num_test=200, seed=1)
    x = train.x.reshape(len(train), -1)
    xt = test.x.reshape(len(test), -1)
    onehot = np.eye(10)[train.y]
    w = np.linalg.solve(x.T @ x + 1e-1 * np.eye(x.shape[1]), x.T @ onehot)
    acc = (xt @ w).argmax(axis=1)
    # A raw-pixel linear probe is far below the MLP's ~0.9 because of
    # positional jitter, but must still beat chance several times over.
    assert (acc == test.y).mean() > 0.4


def test_synth_cifar_shapes():
    spec, train, test = make_synth_cifar(num_train=80, num_test=20)
    assert spec.input_shape == (3, 12, 12)
    assert train.x.shape == (80, 3, 12, 12)
    assert train.x.min() >= 0.0 and train.x.max() <= 1.0


def test_synth_cifar_harder_than_mnist():
    """Same linear probe should do clearly worse on synth-CIFAR than on
    synth-MNIST (CIFAR's role: a task where non-IID hurts a lot)."""

    def probe_acc(train, test):
        x = train.x.reshape(len(train), -1)
        xt = test.x.reshape(len(test), -1)
        onehot = np.eye(10)[train.y]
        w = np.linalg.solve(x.T @ x + 1e-1 * np.eye(x.shape[1]), x.T @ onehot)
        return ((xt @ w).argmax(axis=1) == test.y).mean()

    _s, mtrain, mtest = make_synth_mnist(num_train=600, num_test=200, seed=2)
    _s, ctrain, ctest = make_synth_cifar(num_train=600, num_test=200, seed=2)
    acc_mnist = probe_acc(mtrain, mtest)
    acc_cifar = probe_acc(ctrain, ctest)
    assert acc_cifar > 0.15  # learnable (chance is 0.1)
    assert acc_cifar < acc_mnist  # but harder


def test_synth_cifar_deterministic():
    _s, a, _ = make_synth_cifar(num_train=30, num_test=5, seed=9)
    _s, b, _ = make_synth_cifar(num_train=30, num_test=5, seed=9)
    np.testing.assert_array_equal(a.x, b.x)


def test_sent140_structure():
    cfg = Sent140Config(num_users=10, tweets_per_user_mean=10, seed=0)
    spec, train, test, users = make_synth_sent140(cfg)
    assert spec.kind == "sequence"
    assert spec.vocab_size == cfg.vocab_size
    assert train.x.shape[1] == cfg.seq_len
    assert train.x.max() < cfg.vocab_size
    assert len(users) == len(train)
    assert set(np.unique(train.y)) <= {0, 1}


def test_sent140_user_partition_is_feature_skewed():
    """Different users use different neutral vocabularies."""
    cfg = Sent140Config(num_users=8, tweets_per_user_mean=30, seed=1)
    _spec, train, _test, users = make_synth_sent140(cfg)
    parts = by_user_partition(users)
    vocab_sets = []
    for p in parts:
        tokens = train.x[p].reshape(-1)
        neutral = tokens[tokens >= 2 * cfg.num_sentiment_words]
        vocab_sets.append(set(neutral.tolist()))
    overlaps = [
        len(a & b) / max(1, len(a | b))
        for i, a in enumerate(vocab_sets)
        for b in vocab_sets[i + 1 :]
    ]
    assert np.mean(overlaps) < 0.5  # mostly disjoint styles


def test_sent140_vocab_too_small():
    with pytest.raises(DataError):
        make_synth_sent140(Sent140Config(vocab_size=10))


def test_femnist_quantity_skew_and_writers():
    cfg = FemnistConfig(num_writers=20, samples_per_writer_mean=15, seed=0)
    spec, train, test, writers = make_synth_femnist(cfg)
    assert spec.num_classes == 10
    assert len(writers) == len(train)
    parts = by_user_partition(writers)
    sizes = np.array([len(p) for p in parts])
    assert quantity_imbalance(sizes) > 0.2


def test_femnist_label_skew_across_writers():
    cfg = FemnistConfig(num_writers=12, samples_per_writer_mean=40, seed=2)
    _spec, train, _test, writers = make_synth_femnist(cfg)
    parts = by_user_partition(writers)
    hists = label_histograms([train.subset(p) for p in parts], 10)
    assert mean_pairwise_tv_distance(hists) > 0.2


def test_femnist_letters_variant():
    cfg = FemnistConfig(num_writers=5, samples_per_writer_mean=10, num_classes=36, seed=1)
    spec, train, _test, _w = make_synth_femnist(cfg)
    assert spec.num_classes == 36
    assert train.y.max() < 36


def test_femnist_invalid_classes():
    with pytest.raises(DataError):
        make_synth_femnist(FemnistConfig(num_classes=99))
