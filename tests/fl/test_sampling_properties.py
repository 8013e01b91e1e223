"""Property-based tests for the scale-out cohort samplers.

Reservoir (Floyd) sampling must behave like uniform sampling in every
observable way that matters — determinism under a fixed seed, sorted
unique cohorts, exact proportions — while never enumerating the
population.  Cases sweep a grid of populations, ratios
and seeds rather than single examples.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.fl.sampling import reservoir_sample, sample_clients, sample_cohort

POPULATIONS = (1, 2, 7, 64, 1000, 12345)
RATIOS = (0.01, 0.1, 0.5, 1.0)
SEEDS = (0, 1, 17)


def _grid():
    for num in POPULATIONS:
        for ratio in RATIOS:
            for seed in SEEDS:
                yield num, ratio, seed


@pytest.mark.parametrize("sampler", ["uniform", "reservoir"])
def test_determinism_under_fixed_seed(sampler):
    for num, ratio, seed in _grid():
        a = sample_cohort(num, ratio, np.random.default_rng(seed), sampler=sampler)
        b = sample_cohort(num, ratio, np.random.default_rng(seed), sampler=sampler)
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("sampler", ["uniform", "reservoir"])
def test_cohorts_are_sorted_unique_in_range(sampler):
    for num, ratio, seed in _grid():
        cohort = sample_cohort(
            num, ratio, np.random.default_rng(seed), sampler=sampler
        )
        assert cohort.dtype == np.int64
        assert len(np.unique(cohort)) == len(cohort)
        assert (np.sort(cohort) == cohort).all()
        assert len(cohort) == max(1, int(round(num * ratio)))
        if len(cohort):
            assert cohort.min() >= 0 and cohort.max() < num


@pytest.mark.parametrize("sampler", ["uniform", "reservoir"])
def test_exact_uniformity_at_full_participation(sampler):
    """ratio=1.0: the cohort is exactly the whole population."""
    for num in POPULATIONS:
        cohort = sample_cohort(
            num, 1.0, np.random.default_rng(3), sampler=sampler
        )
        np.testing.assert_array_equal(cohort, np.arange(num, dtype=np.int64))


def test_uniform_kind_is_bit_identical_to_legacy_stream():
    """sampler='uniform' must consume the round RNG exactly as the
    historical sample_clients call — resuming old runs depends on it."""
    for num, ratio, seed in _grid():
        legacy = sample_clients(num, ratio, np.random.default_rng([seed, 0xF1]))
        routed = sample_cohort(
            num, ratio, np.random.default_rng([seed, 0xF1]), sampler="uniform"
        )
        np.testing.assert_array_equal(legacy, routed)


def test_reservoir_draws_O_count_not_O_population():
    """Floyd's algorithm draws one integer per cohort member, so a
    100-client cohort from a 10-million population consumes exactly 100
    draws — verified by stream position, not wall clock."""
    count = 100
    rng = np.random.default_rng(5)
    probe = np.random.default_rng(5)
    reservoir_sample(10_000_000, count, rng)
    probe.integers(0, 1 << 30, size=count)  # same number of draws
    assert rng.bit_generator.state == probe.bit_generator.state


def test_successive_rounds_give_disjoint_looking_cohorts():
    """Cohorts from one generator across rounds are almost surely not
    identical (they share a stream, not a value)."""
    rng = np.random.default_rng(11)
    first = reservoir_sample(100_000, 50, rng)
    second = reservoir_sample(100_000, 50, rng)
    assert not np.array_equal(first, second)
    # At 0.05% participation, overlap should be tiny.
    assert len(np.intersect1d(first, second)) <= 5


def test_reservoir_matches_uniform_distribution_statistically():
    """Every client id should be picked with probability ~count/num."""
    num, count, trials = 200, 20, 400
    hits = np.zeros(num)
    rng = np.random.default_rng(123)
    for _ in range(trials):
        hits[reservoir_sample(num, count, rng)] += 1
    expected = trials * count / num
    # Binomial std is sqrt(trials * p * (1-p)) ~ 6; allow 5 sigma.
    assert np.abs(hits - expected).max() < 5 * np.sqrt(expected)


def test_sample_cohort_rejects_unknown_sampler():
    with pytest.raises(ConfigError):
        sample_cohort(10, 0.5, np.random.default_rng(0), sampler="nope")
