"""Synthetic MNIST: rendered digit glyphs with per-sample jitter.

An *easy* 10-class grayscale image task.  Like real MNIST in the paper's
evaluation, even extreme label-skew partitions only cost a few points of
accuracy here, because the classes are nearly linearly separable.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayDataset, DatasetSpec
from repro.data.glyphs import stamp_glyphs
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
    virtual population's shards and test set) is drawn by this loop, six
    generator calls a sample in this order: shear (``uniform``),
    thickness (``integers``), intensity (``uniform``), the placement's
    row and column jitter (``integers`` twice), then the canvas of pixel
    noise.  The bytes are those of ``render_glyph(digit, image_size,
    GlyphStyle(shear, thickness, 1, intensity, noise), rng, jitter=1)``
    a sample, which draws the last three itself.

    Only the draws are per sample.  A sample's noise is drawn as
    ``standard_normal(out=canvas)`` straight into its image, and the
    whole batch is then scaled (``*= noise``), normalized (``+= 0.0``),
    stamped (:func:`~repro.data.glyphs.stamp_glyphs`) and clipped once.
    That is ``normal(0.0, noise, size)`` bit for bit: the generator
    computes a normal variate as ``loc + scale * z`` from the same ``z``
    stream ``standard_normal`` fills ``out`` with, one multiplication
    rounds the same in either operand order, and adding ``0.0`` is exact
    — except that it turns a ``-0.0`` product (``z == -0.0``, or an
    underflow) into ``+0.0``, which is also what ``0.0 + ...`` does.  So
    the canvas never holds ``-0.0``, and stamping a glyph on it equals
    adding the noise to a zero canvas that holds the glyph, as
    ``render_glyph`` relies on.
    """
    if noise < 0:
        raise DataError(f"noise must be non-negative, got {noise}")
    images = np.empty((len(labels), 1, image_size, image_size))
    canvases = images[:, 0]
    draws = []
    for canvas in canvases:
        draws.append((
            rng.uniform(-0.15, 0.15),
            rng.integers(0, 2),
            rng.uniform(0.75, 1.0),
            rng.integers(-1, 2),
            rng.integers(-1, 2),
        ))
        rng.standard_normal(out=canvas)
    images *= noise
    images += 0.0
    if draws:
        chars = [DIGITS[label] for label in labels.tolist()]
        stamp_glyphs(canvases, chars, *map(np.array, zip(*draws)))
    return images.clip(0.0, 1.0, out=images)
