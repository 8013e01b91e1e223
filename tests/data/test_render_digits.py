"""The per-shard digit renderer against the per-glyph loop it replaced.

``render_digits`` draws what ``render_glyph`` draws, a sample at a time
and in the same order, and does everything else once per batch.  The
reference here is the old loop, kept verbatim: one ``GlyphStyle`` and
one ``render_glyph`` call a sample.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.glyphs import GlyphStyle, render_glyph
from repro.data.synth_mnist import DIGITS, render_digits
from repro.exceptions import DataError


def _per_glyph_reference(labels, image_size, noise, rng):
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


class _Recording:
    """A generator that writes down every call made on it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def recorded(*args, **kwargs):
            self.calls.append((name, args, tuple(sorted(kwargs))))
            return method(*args, **kwargs)

        return recorded


def test_six_generator_calls_a_glyph_in_the_documented_order():
    labels = np.array([3, 1, 4, 1, 5, 9, 2, 6])
    rng = _Recording(0)
    render_digits(labels, 12, 0.1, rng)
    per_glyph = [
        ("uniform", (-0.15, 0.15), ()),  # shear
        ("integers", (0, 2), ()),  # thickness
        ("uniform", (0.75, 1.0), ()),  # intensity
        ("integers", (-1, 2), ()),  # row jitter
        ("integers", (-1, 2), ()),  # column jitter
        ("standard_normal", (), ("out",)),  # the canvas of pixel noise
    ]
    assert rng.calls == per_glyph * len(labels)


@pytest.mark.parametrize("image_size", [9, 16])
def test_small_and_large_canvas_at_heavy_noise_are_the_per_glyph_bytes(image_size):
    labels = np.random.default_rng(2).integers(0, 10, size=64)
    new_rng, old_rng = np.random.default_rng(31), np.random.default_rng(31)
    images = render_digits(labels, image_size, 0.3, new_rng)
    reference = _per_glyph_reference(labels, image_size, 0.3, old_rng)
    assert images.dtype == reference.dtype and images.shape == reference.shape
    assert images.tobytes() == reference.tobytes()
    assert images.min() == 0.0 and images.max() == 1.0  # the one clip bit
    # The stream is left where the per-glyph loop leaves it.
    assert new_rng.random() == old_rng.random()


@pytest.mark.parametrize("noise", [0.0, 1e-320, 0.1])
def test_the_canvas_never_holds_negative_zero(noise):
    labels = np.arange(10).repeat(8)
    images = render_digits(labels, 12, noise, np.random.default_rng(4))
    reference = _per_glyph_reference(labels, 12, noise, np.random.default_rng(4))
    assert images.tobytes() == reference.tobytes()
    assert not np.signbit(images).any()


def test_edges():
    empty = render_digits(np.array([], dtype=np.int64), 12, 0.1, np.random.default_rng(0))
    assert empty.shape == (0, 1, 12, 12)
    with pytest.raises(DataError, match="non-negative"):
        render_digits(np.array([1]), 12, -0.1, np.random.default_rng(0))
    with pytest.raises(DataError, match="does not fit"):
        render_digits(np.array([1]), 6, 0.1, np.random.default_rng(0))
