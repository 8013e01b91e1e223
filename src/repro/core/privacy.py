"""Differential privacy for the delta payloads (Fig. 12).

Following Abadi et al. (the paper's reference [43]), the intermediate
regularization variable delta is clipped to norm C0 and perturbed with
Gaussian noise before leaving the client:

    delta~  <-  clip(delta, C0) + (1/L) * N(0, sigma2^2 * C0^2 * I)

where L is the batch (here: local dataset) size.  The paper finds that
sigma2 <= 5 leaves accuracy nearly untouched and larger noise degrades
it — the privacy bench reproduces that curve.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigError
from repro.nn.functional import clip_by_norm


class GaussianDeltaMechanism:
    """Clip-and-noise mechanism applied to delta vectors.

    Args:
        sigma: noise multiplier sigma2 (0 disables noise but keeps clipping).
        clip_norm: clipping constant C0.
        seed: rng seed for the noise stream.
    """

    def __init__(self, sigma: float, clip_norm: float = 1.0, seed: int = 0) -> None:
        if sigma < 0:
            raise ConfigError(f"sigma must be non-negative, got {sigma}")
        if clip_norm <= 0:
            raise ConfigError(f"clip_norm must be positive, got {clip_norm}")
        self.sigma = sigma
        self.clip_norm = clip_norm
        self._rng = np.random.default_rng(seed)

    def to_dict(self) -> dict:
        """What changes the privatized deltas, for a run's provenance
        stamp (the fallback ``seed`` does not: the runtime passes its own
        per-``(round, client)`` streams)."""
        return {"sigma": self.sigma, "clip_norm": self.clip_norm}

    def privatize(
        self,
        delta: np.ndarray,
        batch_size: int,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Return the privatized copy of ``delta``.

        Args:
            delta: the client's mean embedding (d,).
            batch_size: L, the number of samples averaged into delta.
            rng: optional noise stream.  The federated runtime passes a
                per-``(round, client)`` stream so noise is independent
                of client execution order (serial/parallel equivalence);
                when omitted the mechanism's own sequential stream is
                used.
        """
        if batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {batch_size}")
        clipped = clip_by_norm(np.asarray(delta, dtype=np.float64), self.clip_norm)
        if self.sigma == 0:
            return clipped.copy()
        noise_std = self.sigma * self.clip_norm / batch_size
        source = rng if rng is not None else self._rng
        return clipped + source.normal(0.0, noise_std, size=clipped.shape)

    def noise_std(self, batch_size: int) -> float:
        """Per-coordinate noise standard deviation for a given L."""
        return self.sigma * self.clip_norm / batch_size
