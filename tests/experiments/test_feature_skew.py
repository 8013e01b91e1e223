"""Feature-skew federation tests."""

import numpy as np
import pytest

from repro.analysis.tsne import client_marginal_discrepancy
from repro.data.transforms import client_style_pipeline
from repro.exceptions import DataError
from repro.experiments import build_feature_skew_federation
from tests.helpers import label_histograms, mean_pairwise_tv_distance


def test_structure():
    fed = build_feature_skew_federation(num_clients=5, num_train=250, num_test=50)
    assert fed.num_clients == 5
    assert fed.total_train_samples() == 250


def test_labels_are_iid_but_features_skewed():
    fed = build_feature_skew_federation(
        num_clients=6, skew_strength=1.5, num_train=1200, num_test=60
    )
    # Label distributions nearly identical (IID partition underneath)...
    hists = label_histograms(fed.clients, fed.spec.num_classes)
    assert mean_pairwise_tv_distance(hists) < 0.25
    # ...but raw-input marginals differ strongly across clients.
    flats = [c.x.reshape(len(c), -1) for c in fed.clients]
    skew = client_marginal_discrepancy(flats)
    fed0 = build_feature_skew_federation(
        num_clients=6, skew_strength=0.0, num_train=1200, num_test=60
    )
    flats0 = [c.x.reshape(len(c), -1) for c in fed0.clients]
    base = client_marginal_discrepancy(flats0)
    assert skew > 2 * base


def test_zero_strength_is_near_identity():
    fed = build_feature_skew_federation(
        num_clients=3, skew_strength=0.0, num_train=120, num_test=30, seed=4
    )
    from repro.experiments import build_image_federation

    plain = build_image_federation(
        "synth_mnist", num_clients=3, similarity=1.0,
        num_train=120, num_test=30, seed=4,
    )
    # Strength 0 applies brightness factor 1, shift 0, noise 0 — pixel
    # sets match up to partition shuffling.
    assert fed.total_train_samples() == plain.total_train_samples()
    np.testing.assert_allclose(
        sorted(fed.clients[0].x.sum(axis=(1, 2, 3)))[:5],
        sorted(fed.clients[0].x.sum(axis=(1, 2, 3)))[:5],
    )


def test_styles_are_deterministic_per_client():
    a = client_style_pipeline(3, strength=1.0, base_seed=7)
    b = client_style_pipeline(3, strength=1.0, base_seed=7)
    rng = np.random.default_rng(0)
    images = np.clip(np.random.default_rng(1).random((4, 1, 8, 8)), 0, 1)
    np.testing.assert_array_equal(
        a.apply(images, np.random.default_rng(2)),
        b.apply(images, np.random.default_rng(2)),
    )


def test_styles_differ_between_clients():
    images = np.clip(np.random.default_rng(1).random((4, 1, 8, 8)), 0, 1)
    out = [
        client_style_pipeline(cid, strength=1.5).apply(images, np.random.default_rng(2))
        for cid in range(3)
    ]
    assert not np.array_equal(out[0], out[1])
    assert not np.array_equal(out[1], out[2])


def test_negative_strength_rejected():
    with pytest.raises(DataError):
        client_style_pipeline(0, strength=-1.0)


def test_test_set_is_style_mixture():
    fed = build_feature_skew_federation(
        num_clients=4, skew_strength=2.0, num_train=200, num_test=80, seed=2
    )
    # The styled test set should differ from the raw generator output.
    from repro.data import make_synth_mnist

    _spec, _train, raw_test = make_synth_mnist(num_train=200, num_test=80, seed=2)
    assert not np.array_equal(fed.test.x, raw_test.x)
    np.testing.assert_array_equal(fed.test.y, raw_test.y)  # labels preserved
