"""Golden bytes of every glyph-rendered dataset, and of synthetic Sent140.

The digests below were recorded from the commit *before* the renderer
became table-driven (the string-font / ``np.roll`` / ``np.clip``
implementation), so they pin the pixels every committed BENCH_*.json
and EXPERIMENTS.md number was measured on.  A change that moves one
pixel, reorders one RNG draw or changes a dtype fails here.  To re-record
after an *intended* data change, print ``_digest(...)`` of each case.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data import synth_femnist
from repro.data.synth_femnist import FemnistConfig, make_synth_femnist
from repro.data.synth_mnist import make_synth_mnist
from repro.data.synth_sent140 import Sent140Config, make_synth_sent140
from repro.data.virtual import VirtualPartition, materialize_client, materialize_test


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for array in arrays:
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def test_synth_mnist_seed0_bytes():
    _, train, test = make_synth_mnist(seed=0)
    assert _digest(train.x, train.y) == "028fcc19153d3a5b3516c8668a846965"
    assert _digest(test.x, test.y) == "fbbb777746dbe9fc1c00613ebd216d6f"


def test_synth_mnist_other_canvas_and_noise_bytes():
    _, train, test = make_synth_mnist(
        num_train=300, num_test=100, image_size=9, seed=11, noise=0.3
    )
    assert _digest(train.x, train.y, test.x, test.y) == "e41e4ee842b4a23caaed74ab3af9f06c"


def test_synth_femnist_bytes_cover_scaled_and_slanted_writers(monkeypatch):
    styles = []
    real_random_style = synth_femnist.random_style

    def recording(*args, **kwargs):
        styles.append(real_random_style(*args, **kwargs))
        return styles[-1]

    monkeypatch.setattr(synth_femnist, "random_style", recording)
    config = FemnistConfig(
        num_writers=24, samples_per_writer_mean=12, image_size=16, num_classes=36, seed=3
    )
    _, train, test, writers = make_synth_femnist(config)
    # The digest is only worth pinning if the corpus exercises the whole
    # deterministic half of the renderer: kron scaling, both dilation
    # settings and slants in both directions near the 0.4 limit.
    assert {style.scale for style in styles} == {1, 2}
    assert {style.thickness for style in styles} == {0, 1}
    assert min(style.shear for style in styles) < -0.3
    assert max(style.shear for style in styles) > 0.3
    assert _digest(train.x, train.y, test.x, test.y, writers) == (
        "2ba633cca9935409500f9ad7fbd7b0f2"
    )


def test_synth_femnist_default_config_bytes():
    _, train, test, writers = make_synth_femnist()
    assert _digest(train.x, train.y, test.x, test.y, writers) == (
        "e6fc6920c415d04137f41b737a438f79"
    )


CLIENT_GOLDEN = {
    (0.0, 0): "741a13ace73d04e76a9338ad8db594cd",
    (0.0, 50_000): "aafa14d11c07b554a7479bcb83f415e0",
    (0.0, 99_999): "bf7409c6d311291abd8613a00315a701",
    (0.5, 0): "4a8b2ef9f9b8467cf427d89bb31a8bfd",
    (0.5, 50_000): "1972a4cbf462f17306a7c304d61670b7",
    (0.5, 99_999): "800ca59bec3d9192269558acb4dd7366",
}


@pytest.mark.parametrize("similarity, client_id", sorted(CLIENT_GOLDEN))
def test_materialize_client_bytes(similarity, client_id):
    partition = VirtualPartition(population=100_000, seed=0, similarity=similarity)
    shard = materialize_client(partition, client_id, 20)
    assert _digest(shard.x, shard.y) == CLIENT_GOLDEN[(similarity, client_id)]


def test_materialize_test_bytes():
    partition = VirtualPartition(population=100_000, seed=0)
    test = materialize_test(partition)
    assert _digest(test.x, test.y) == "6a45ca205f710c5b1f8c693af54e985d"


# Synthetic Sent140 draws every token from the generator's stream, so
# these pin the order and kind of every draw.  They were recorded while
# each token was a ``Generator.choice`` call; the bench's Sent140 shape
# is the third case.
SENT140_GOLDEN = [
    (dict(seed=0),
     "130b2cc09930020c9ae0fbc29237ecb7", "d841c6bdd289777a5e084968ac0d2ca8"),
    (dict(num_users=20, seed=1),
     "0edebb837ef0b7e043b639f819b1563c", "c934c4a74ea0d7a2e119b434c5b12ece"),
    (dict(num_users=25, tweets_per_user_mean=60.0, seq_len=22, vocab_size=400, seed=3),
     "33bf47d442f4ee5d22687c710e5373dc", "eacdfae4d58c658d8f74c385f82e19bd"),
    (dict(num_users=50, tweets_per_user_mean=30.0, seq_len=12, vocab_size=300,
          style_dim=20, sentiment_word_rate=0.5, seed=17),
     "eac37e224a86e6b72150c1793ba0daf4", "28479a7ed9a9c961055fd44a78e08edf"),
]


@pytest.mark.parametrize(
    "config, train_digest, test_digest", SENT140_GOLDEN,
    ids=[f"seed{case[0]['seed']}" for case in SENT140_GOLDEN],
)
def test_synth_sent140_bytes(config, train_digest, test_digest):
    _, train, test, users = make_synth_sent140(Sent140Config(**config))
    assert _digest(train.x, train.y, users) == train_digest
    assert _digest(test.x, test.y) == test_digest
