"""Per-client input styles for image datasets (feature-skew non-IIDness).

:func:`client_style_pipeline` gives each client a fixed brightness,
shift and noise level; the numpy transforms compose into a
:class:`Pipeline` that is applied to a client's images once, eagerly, so
the training loop stays allocation-free.

All transforms accept and return (N, C, H, W) arrays and take an
explicit rng for reproducibility.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError


class Transform:
    """Interface: map an (N, C, H, W) batch to a same-shape batch."""

    def apply(self, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class GaussianNoise(Transform):
    """Additive pixel noise, clipped back to [0, 1]."""

    def __init__(self, sigma: float = 0.05) -> None:
        if sigma < 0:
            raise DataError("sigma must be non-negative")
        self.sigma = sigma

    def apply(self, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.sigma == 0:
            return images.copy()
        noisy = images + rng.normal(0.0, self.sigma, size=images.shape)
        return np.clip(noisy, 0.0, 1.0)


class Pipeline(Transform):
    """Apply transforms in order."""

    def __init__(self, *transforms: Transform) -> None:
        self.transforms = list(transforms)

    def apply(self, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for transform in self.transforms:
            images = transform.apply(images, rng)
        return images


class BrightnessScale(Transform):
    """Multiply pixel intensities by a fixed factor (clipped to [0, 1])."""

    def __init__(self, factor: float) -> None:
        if factor <= 0:
            raise DataError("factor must be positive")
        self.factor = factor

    def apply(self, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.clip(images * self.factor, 0.0, 1.0)


class FixedShift(Transform):
    """Shift every image by the same (dy, dx) offset — a client 'camera
    misalignment' style."""

    def __init__(self, dy: int, dx: int) -> None:
        self.dy = dy
        self.dx = dx

    def apply(self, images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = np.roll(images, (self.dy, self.dx), axis=(2, 3))
        if self.dy > 0:
            out[:, :, : self.dy, :] = 0.0
        elif self.dy < 0:
            out[:, :, self.dy :, :] = 0.0
        if self.dx > 0:
            out[:, :, :, : self.dx] = 0.0
        elif self.dx < 0:
            out[:, :, :, self.dx :] = 0.0
        return out


def client_style_pipeline(
    client_id: int, strength: float = 1.0, base_seed: int = 0
) -> Pipeline:
    """A deterministic per-client input style (feature-skew non-IIDness).

    Each client gets its own fixed brightness, shift and noise level —
    the "same physical- and device-dependent context" per client that
    the paper's Sec. III-B assumes.  ``strength`` in [0, ~2] scales how
    far styles diverge; 0 returns an identity-ish pipeline.
    """
    if strength < 0:
        raise DataError("strength must be non-negative")
    rng = np.random.default_rng([base_seed, 0x57F1E, client_id])
    factor = float(np.exp(rng.uniform(-0.5, 0.5) * strength))
    max_shift = int(round(2 * strength))
    dy = int(rng.integers(-max_shift, max_shift + 1)) if max_shift else 0
    dx = int(rng.integers(-max_shift, max_shift + 1)) if max_shift else 0
    sigma = float(rng.uniform(0.0, 0.08) * strength)
    return Pipeline(BrightnessScale(factor), FixedShift(dy, dx), GaussianNoise(sigma))
