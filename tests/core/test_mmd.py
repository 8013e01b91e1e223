"""MMD estimator tests with hypothesis property checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.mmd import (
    linear_mmd,
    mean_embedding,
    median_heuristic,
    rbf_mmd,
)
from repro.exceptions import DataError

sample_sets = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 10), st.integers(1, 5)),
    elements=st.floats(-10, 10),
)


def test_mean_embedding_is_columnwise_mean(rng):
    feats = rng.normal(size=(6, 3))
    np.testing.assert_allclose(mean_embedding(feats), feats.mean(axis=0))


def test_mean_embedding_rejects_bad_input():
    with pytest.raises(DataError):
        mean_embedding(np.zeros(3))
    with pytest.raises(DataError):
        mean_embedding(np.zeros((0, 3)))


@given(sample_sets)
@settings(max_examples=40, deadline=None)
def test_linear_mmd_zero_on_self(x):
    assert linear_mmd(x, x) == pytest.approx(0.0, abs=1e-9)


@given(sample_sets, sample_sets)
@settings(max_examples=40, deadline=None)
def test_linear_mmd_symmetric_nonnegative(x, y):
    if x.shape[1] != y.shape[1]:
        y = np.resize(y, (y.shape[0], x.shape[1]))
    assert linear_mmd(x, y) >= 0.0
    assert linear_mmd(x, y) == pytest.approx(linear_mmd(y, x))


def test_linear_mmd_detects_mean_shift(rng):
    x = rng.normal(0.0, 1.0, size=(200, 3))
    y = rng.normal(2.0, 1.0, size=(200, 3))
    assert linear_mmd(x, y) > 10 * linear_mmd(x, x + 0.0)
    assert linear_mmd(x, y) == pytest.approx(np.linalg.norm(x.mean(0) - y.mean(0)))


def test_rbf_mmd_zero_on_identical(rng):
    x = rng.normal(size=(10, 3))
    assert rbf_mmd(x, x) == pytest.approx(0.0, abs=1e-9)


def test_rbf_mmd_detects_variance_shift_linear_cannot(rng):
    """Same mean, different covariance: the kernel estimator sees the
    difference while the linear mean-embedding version does not."""
    x = rng.normal(0.0, 0.3, size=(2000, 2))
    y = rng.normal(0.0, 3.0, size=(2000, 2))
    assert linear_mmd(x, y) < 0.3  # mean gap only: ~N(0, 9/n) noise
    assert rbf_mmd(x, y, bandwidth=1.0) > 0.5  # sees the shape difference


def test_rbf_mmd_symmetric(rng):
    x = rng.normal(size=(20, 3))
    y = rng.normal(1.0, 1.0, size=(25, 3))
    assert rbf_mmd(x, y, bandwidth=1.0) == pytest.approx(rbf_mmd(y, x, bandwidth=1.0))


def test_rbf_mmd_unbiased_near_zero_under_null(rng):
    x = rng.normal(size=(100, 2))
    y = rng.normal(size=(100, 2))
    assert abs(rbf_mmd(x, y, bandwidth=1.0, biased=False)) < 0.05


def test_rbf_mmd_unbiased_needs_two_samples(rng):
    with pytest.raises(DataError):
        rbf_mmd(rng.normal(size=(1, 2)), rng.normal(size=(5, 2)), biased=False)


def test_rbf_mmd_shape_validation(rng):
    with pytest.raises(DataError):
        rbf_mmd(rng.normal(size=(3, 2)), rng.normal(size=(3, 4)))


def test_median_heuristic_positive(rng):
    x = rng.normal(size=(10, 3))
    y = rng.normal(size=(10, 3))
    assert median_heuristic(x, y) > 0.0


def test_median_heuristic_on_identical_points():
    x = np.zeros((5, 2))
    assert median_heuristic(x, x) == 1.0  # degenerate fallback
