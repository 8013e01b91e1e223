"""Synthetic MNIST: rendered digit glyphs with per-sample jitter.

An *easy* 10-class grayscale image task.  Like real MNIST in the paper's
evaluation, even extreme label-skew partitions only cost a few points of
accuracy here, because the classes are nearly linearly separable.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayDataset, DatasetSpec
from repro.data.glyphs import GlyphStyle, render_glyph
from repro.exceptions import DataError

DIGITS = "0123456789"


def make_synth_mnist(
    num_train: int = 2000,
    num_test: int = 500,
    image_size: int = 12,
    seed: int = 0,
    noise: float = 0.1,
) -> tuple[DatasetSpec, ArrayDataset, ArrayDataset]:
    """Generate the synthetic MNIST train/test sets.

    Returns (spec, train, test).  Images are (1, image_size, image_size)
    float64 in [0, 1]; labels are the digit value.
    """
    if image_size < 9:
        raise DataError("image_size must be at least 9 to fit a glyph")
    rng = np.random.default_rng(seed)
    spec = DatasetSpec(
        name="synth_mnist",
        kind="image",
        input_shape=(1, image_size, image_size),
        num_classes=10,
    )
    train = _render_split(num_train, image_size, noise, rng)
    test = _render_split(num_test, image_size, noise, rng)
    return spec, train, test


def _render_split(
    count: int, image_size: int, noise: float, rng: np.random.Generator
) -> ArrayDataset:
    labels = rng.integers(0, 10, size=count)
    return ArrayDataset(render_digits(labels, image_size, noise, rng), labels)


def render_digits(
    labels: np.ndarray, image_size: int, noise: float, rng: np.random.Generator
) -> np.ndarray:
    """One per-sample-styled digit image per label, (len(labels), 1, s, s).

    Every synthetic-MNIST sample anywhere (the eager splits here, the
    virtual population's shards and test set) is drawn by this loop, in
    this order: shear, thickness, intensity, then the render's own draws.
    """
    images = np.empty((len(labels), 1, image_size, image_size))
    for image, label in zip(images[:, 0], labels.tolist()):
        style = GlyphStyle(
            shear=float(rng.uniform(-0.15, 0.15)),
            thickness=int(rng.integers(0, 2)),
            scale=1,
            intensity=float(rng.uniform(0.75, 1.0)),
            noise=noise,
        )
        render_glyph(DIGITS[label], image_size, style, rng, jitter=1, out=image)
    return images
