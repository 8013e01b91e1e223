"""Transform / augmentation tests."""

import numpy as np
import pytest

from repro.data.transforms import (
    Cutout,
    GaussianNoise,
    HorizontalFlip,
    Pipeline,
    RandomShift,
)
from repro.exceptions import DataError


def _images(rng, n=6, c=1, side=8):
    return np.clip(rng.random((n, c, side, side)), 0, 1)


def test_random_shift_preserves_shape_and_range(rng):
    images = _images(rng)
    out = RandomShift(2).apply(images, rng)
    assert out.shape == images.shape
    assert out.min() >= 0.0


def test_random_shift_zero_is_identity(rng):
    images = _images(rng)
    np.testing.assert_array_equal(RandomShift(0).apply(images, rng), images)


def test_random_shift_pads_with_zeros():
    images = np.ones((1, 1, 4, 4))
    rng = np.random.default_rng(3)
    out = RandomShift(2).apply(images, rng)
    # Wherever content rolled out, zeros rolled in; total mass never grows.
    assert out.sum() <= images.sum()


def test_flip_probability_extremes(rng):
    images = _images(rng)
    never = HorizontalFlip(0.0).apply(images, rng)
    np.testing.assert_array_equal(never, images)
    always = HorizontalFlip(1.0).apply(images, rng)
    np.testing.assert_array_equal(always, images[:, :, :, ::-1])


def test_flip_is_involution(rng):
    images = _images(rng)
    twice = HorizontalFlip(1.0).apply(HorizontalFlip(1.0).apply(images, rng), rng)
    np.testing.assert_array_equal(twice, images)


def test_gaussian_noise_clips(rng):
    images = _images(rng)
    out = GaussianNoise(0.5).apply(images, rng)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert not np.array_equal(out, images)


def test_gaussian_noise_zero_sigma(rng):
    images = _images(rng)
    np.testing.assert_array_equal(GaussianNoise(0.0).apply(images, rng), images)


def test_cutout_zeroes_patch(rng):
    images = np.ones((4, 1, 8, 8))
    out = Cutout(3).apply(images, rng)
    for img in out:
        assert (img == 0).sum() == 9


def test_cutout_too_big(rng):
    with pytest.raises(DataError):
        Cutout(10).apply(np.ones((1, 1, 8, 8)), rng)


def test_pipeline_composes(rng):
    images = _images(rng)
    pipe = Pipeline(RandomShift(1), GaussianNoise(0.05))
    out = pipe.apply(images, rng)
    assert out.shape == images.shape
    assert not np.array_equal(out, images)


@pytest.mark.parametrize("cls,kwargs", [
    (RandomShift, {"max_pixels": -1}),
    (HorizontalFlip, {"prob": 1.5}),
    (GaussianNoise, {"sigma": -0.1}),
    (Cutout, {"size": 0}),
])
def test_invalid_params(cls, kwargs):
    with pytest.raises(DataError):
        cls(**kwargs)


def test_transforms_deterministic_given_rng(rng):
    images = _images(rng)
    a = Pipeline(RandomShift(1), HorizontalFlip(0.5)).apply(
        images, np.random.default_rng(9)
    )
    b = Pipeline(RandomShift(1), HorizontalFlip(0.5)).apply(
        images, np.random.default_rng(9)
    )
    np.testing.assert_array_equal(a, b)
