"""Statistical comparison of repeated federated runs.

Accuracy differences between FL methods are often within seed noise;
these helpers decide when a reported win is real.  Used by the analysis
notebook-style examples and available to the benches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.exceptions import DataError


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of comparing method A against method B."""

    mean_a: float
    mean_b: float
    difference: float  # mean_a - mean_b
    p_value: float
    significant: bool
    ci_low: float
    ci_high: float


def paired_comparison(
    accs_a: np.ndarray,
    accs_b: np.ndarray,
    alpha: float = 0.05,
) -> ComparisonResult:
    """Paired t-test on matched-seed accuracy pairs.

    Runs must be *paired* — same seeds, same data partitions — which is
    what two cells of one :func:`repro.experiments.run_grid` are: pass
    their ``tail_accuracies()``.
    """
    a = np.asarray(accs_a, dtype=np.float64)
    b = np.asarray(accs_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise DataError("need two equal-length 1-D arrays with >= 2 repeats")
    diff = a - b
    t_stat, p_value = stats.ttest_rel(a, b)
    sem = stats.sem(diff)
    if sem == 0:
        ci_low = ci_high = float(diff.mean())
    else:
        ci = stats.t.interval(1.0 - alpha, len(diff) - 1, loc=diff.mean(), scale=sem)
        ci_low, ci_high = float(ci[0]), float(ci[1])
    return ComparisonResult(
        mean_a=float(a.mean()),
        mean_b=float(b.mean()),
        difference=float(diff.mean()),
        p_value=float(p_value),
        significant=bool(p_value < alpha),
        ci_low=ci_low,
        ci_high=ci_high,
    )


def bootstrap_ci(
    values: np.ndarray,
    num_resamples: int = 2000,
    alpha: float = 0.05,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap CI of the mean."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or len(values) < 2:
        raise DataError("need a 1-D array with >= 2 values")
    rng = np.random.default_rng(seed)
    means = np.array([
        values[rng.integers(0, len(values), len(values))].mean()
        for _ in range(num_resamples)
    ])
    lo, hi = np.percentile(means, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return float(lo), float(hi)
