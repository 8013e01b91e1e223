"""t-SNE tests."""

import numpy as np
import pytest

from repro.analysis.tsne import tsne
from repro.exceptions import ConfigError


def _two_blobs(rng, n=30, gap=8.0, dim=10):
    a = rng.normal(0.0, 1.0, size=(n, dim))
    b = rng.normal(gap, 1.0, size=(n, dim))
    return np.vstack([a, b]), np.array([0] * n + [1] * n)


def test_tsne_output_shape(rng):
    x, _y = _two_blobs(rng, n=15)
    emb = tsne(x, dim=2, iterations=100)
    assert emb.shape == (30, 2)
    assert np.all(np.isfinite(emb))


def test_tsne_separates_blobs(rng):
    x, y = _two_blobs(rng, n=25)
    emb = tsne(x, iterations=250, seed=1)
    centroid_gap = np.linalg.norm(emb[y == 0].mean(0) - emb[y == 1].mean(0))
    within = np.linalg.norm(emb[y == 0] - emb[y == 0].mean(0), axis=1).mean()
    assert centroid_gap > 2 * within


def test_tsne_centered(rng):
    x, _y = _two_blobs(rng, n=10)
    emb = tsne(x, iterations=60)
    np.testing.assert_allclose(emb.mean(axis=0), 0.0, atol=1e-8)


def test_tsne_deterministic_given_seed(rng):
    x, _y = _two_blobs(rng, n=10)
    a = tsne(x, iterations=50, seed=4)
    b = tsne(x, iterations=50, seed=4)
    np.testing.assert_array_equal(a, b)


def test_tsne_too_few_points():
    with pytest.raises(ConfigError):
        tsne(np.zeros((3, 4)))
