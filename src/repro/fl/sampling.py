"""Client sampling.

Two cohort samplers share one contract — return a sorted int64 array
of distinct client ids:

- :func:`sample_clients` (``sampler='uniform'``): the historical
  ``Generator.choice`` path.  Exact and simple, but ``choice`` without
  replacement builds O(N) scratch state, so it is the wrong tool once
  the population outgrows the cohort by orders of magnitude.
- :func:`reservoir_sample` (``sampler='reservoir'``): Robert Floyd's
  reservoir-style selection — O(cohort) memory and O(cohort) RNG draws
  regardless of population size, never enumerating the id range.

Both are deterministic functions of ``(num_clients, count, rng)``
state, which is what lets checkpoint resume replay cohorts bit-exactly.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigError


def _cohort_count(num_clients: int, sample_ratio: float) -> int:
    if not 0.0 < sample_ratio <= 1.0:
        raise ConfigError(f"sample_ratio must be in (0, 1], got {sample_ratio}")
    if num_clients <= 0:
        raise ConfigError("num_clients must be positive")
    return max(1, int(round(sample_ratio * num_clients)))


def sample_clients(
    num_clients: int, sample_ratio: float, rng: np.random.Generator
) -> np.ndarray:
    """Select round participants uniformly without replacement.

    ``SR = 1.0`` returns every client (full participation, cross-silo);
    smaller ratios return ``max(1, round(SR * N))`` clients
    (partial participation, cross-device).
    """
    count = _cohort_count(num_clients, sample_ratio)
    if sample_ratio >= 1.0:
        return np.arange(num_clients)
    selected = rng.choice(num_clients, size=count, replace=False)
    return np.sort(selected)


def reservoir_sample(
    num_clients: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` distinct ids from ``range(num_clients)``, O(count) memory.

    Floyd's algorithm: for j in [N-count, N), draw t uniform on [0, j];
    take t unless already taken, else take j.  Every ``count``-subset is
    equally likely, and neither memory nor RNG draws depend on N — the
    property that lets a million-client population be sampled without
    ever enumerating it.  ``count >= num_clients`` returns all ids
    (exact-uniformity degenerate case).
    """
    if num_clients <= 0:
        raise ConfigError("num_clients must be positive")
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    if count >= num_clients:
        return np.arange(num_clients)
    selected: set[int] = set()
    for j in range(num_clients - count, num_clients):
        t = int(rng.integers(0, j + 1))
        selected.add(j if t in selected else t)
    return np.sort(np.fromiter(selected, dtype=np.int64, count=count))


def sample_cohort(
    num_clients: int,
    sample_ratio: float,
    rng: np.random.Generator,
    sampler: str = "uniform",
) -> np.ndarray:
    """One round's cohort under the configured sampler.

    ``'uniform'`` is bit-identical to the historical
    :func:`sample_clients` path; ``'reservoir'`` draws different
    (equally uniform) cohorts, so the sampler knob is part of a run's
    numeric identity and participates in the checkpoint config hash.
    """
    count = _cohort_count(num_clients, sample_ratio)
    if sampler == "uniform":
        return sample_clients(num_clients, sample_ratio, rng)
    if sampler != "reservoir":
        raise ConfigError(f"unknown sampler {sampler!r}")
    if sample_ratio >= 1.0:
        return np.arange(num_clients)
    return reservoir_sample(num_clients, count, rng)
