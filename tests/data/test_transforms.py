"""Per-client style transform tests."""

import numpy as np
import pytest

from repro.data.transforms import FixedShift, GaussianNoise, Pipeline
from repro.exceptions import DataError


def _images(rng, n=6, c=1, side=8):
    return np.clip(rng.random((n, c, side, side)), 0, 1)


def test_gaussian_noise_clips(rng):
    images = _images(rng)
    out = GaussianNoise(0.5).apply(images, rng)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert not np.array_equal(out, images)


def test_gaussian_noise_zero_sigma(rng):
    images = _images(rng)
    np.testing.assert_array_equal(GaussianNoise(0.0).apply(images, rng), images)


def test_pipeline_composes(rng):
    images = _images(rng)
    pipe = Pipeline(FixedShift(1, 0), GaussianNoise(0.05))
    out = pipe.apply(images, rng)
    assert out.shape == images.shape
    assert not np.array_equal(out, images)


@pytest.mark.parametrize("cls,kwargs", [
    (GaussianNoise, {"sigma": -0.1}),
])
def test_invalid_params(cls, kwargs):
    with pytest.raises(DataError):
        cls(**kwargs)


def test_transforms_deterministic_given_rng(rng):
    images = _images(rng)
    a = Pipeline(FixedShift(1, -1), GaussianNoise(0.1)).apply(
        images, np.random.default_rng(9)
    )
    b = Pipeline(FixedShift(1, -1), GaussianNoise(0.1)).apply(
        images, np.random.default_rng(9)
    )
    np.testing.assert_array_equal(a, b)
