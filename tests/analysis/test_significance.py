"""Statistical comparison tests."""

import numpy as np
import pytest

from repro.analysis.significance import paired_comparison
from repro.exceptions import DataError


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_clear_difference_is_significant():
    a = np.array([0.80, 0.82, 0.81, 0.83, 0.80])
    b = np.array([0.60, 0.62, 0.61, 0.63, 0.60])
    result = paired_comparison(a, b)
    assert result.significant
    assert result.difference == pytest.approx(0.2)
    assert result.ci_low > 0.15


def test_noise_is_not_significant():
    rng = np.random.default_rng(0)
    base = rng.uniform(0.5, 0.9, 6)
    a = base + rng.normal(0, 0.05, 6)
    b = base + rng.normal(0, 0.05, 6)
    result = paired_comparison(a, b)
    assert not result.significant


def test_identical_runs():
    a = np.array([0.5, 0.6, 0.7])
    result = paired_comparison(a, a.copy())
    assert result.difference == 0.0
    assert result.ci_low == result.ci_high == 0.0


def test_validation():
    with pytest.raises(DataError):
        paired_comparison(np.array([0.5]), np.array([0.5]))
    with pytest.raises(DataError):
        paired_comparison(np.zeros(3), np.zeros(4))
