"""Experiment preset tests."""

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.experiments import (
    build_femnist_federation,
    build_image_federation,
    build_sent140_federation,
    cross_device_config,
    cross_silo_config,
    default_model_fn,
)
from tests.helpers import label_histograms, mean_pairwise_tv_distance


def test_cross_silo_defaults_match_paper():
    config = cross_silo_config()
    assert config.local_steps == 5
    assert config.sample_ratio == 1.0
    assert config.batch_size == 100


def test_cross_device_defaults_match_paper():
    config = cross_device_config()
    assert config.local_steps == 10
    assert config.sample_ratio == 0.2
    assert config.batch_size == 32


def test_config_overrides():
    config = cross_silo_config(rounds=7, lr=0.5)
    assert config.rounds == 7
    assert config.lr == 0.5


def test_image_federation_structure():
    fed = build_image_federation("synth_mnist", num_clients=5, similarity=0.0,
                                 num_train=200, num_test=50)
    assert fed.num_clients == 5
    assert fed.total_train_samples() == 200
    assert len(fed.test) == 50
    assert fed.spec.name == "synth_mnist"


def test_image_federation_similarity_controls_skew():
    non_iid = build_image_federation("synth_cifar", num_clients=8, similarity=0.0,
                                     num_train=800, num_test=50)
    iid = build_image_federation("synth_cifar", num_clients=8, similarity=1.0,
                                 num_train=800, num_test=50)
    tv_non = mean_pairwise_tv_distance(label_histograms(non_iid.clients, 10))
    tv_iid = mean_pairwise_tv_distance(label_histograms(iid.clients, 10))
    assert tv_non > tv_iid + 0.3


def test_image_federation_unknown_dataset():
    with pytest.raises(ConfigError):
        build_image_federation("imagenet")


def test_image_federation_deterministic():
    a = build_image_federation("synth_mnist", num_clients=3, num_train=100, num_test=20, seed=5)
    b = build_image_federation("synth_mnist", num_clients=3, num_train=100, num_test=20, seed=5)
    np.testing.assert_array_equal(a.clients[0].x, b.clients[0].x)


def test_sent140_federation_natural_vs_iid():
    natural = build_sent140_federation(num_users=10, iid=False, seed=1)
    iid = build_sent140_federation(num_users=10, iid=True, seed=1)
    assert natural.num_clients == 10
    assert iid.num_clients == 10
    # Natural partition has quantity skew; IID split is even.
    assert natural.client_sizes.std() > iid.client_sizes.std()
    assert natural.spec.kind == "sequence"


def test_femnist_federation():
    fed = build_femnist_federation(num_writers=10, samples_per_writer=12, seed=2)
    assert fed.num_clients == 10
    assert fed.spec.num_classes == 10


def test_default_model_fn_is_deterministic():
    fed = build_image_federation("synth_mnist", num_clients=3, num_train=100, num_test=20)
    factory = default_model_fn("mlp", fed.spec, seed=1)
    from repro.nn.serialization import get_flat_params

    np.testing.assert_array_equal(get_flat_params(factory()), get_flat_params(factory()))


@pytest.mark.parametrize("model_name", ["mlp", "cnn", "logistic"])
def test_default_model_fn_builds_each_image_model(model_name):
    fed = build_image_federation("synth_mnist", num_clients=3, num_train=60, num_test=20)
    model = default_model_fn(model_name, fed.spec)()
    out = model.forward(fed.test.x[:4])
    assert out.shape == (4, 10)


def test_default_model_fn_builds_lstm():
    fed = build_sent140_federation(num_users=4, seed=0)
    model = default_model_fn("lstm", fed.spec)()
    out = model.forward(fed.test.x[:3])
    assert out.shape == (3, 2)
