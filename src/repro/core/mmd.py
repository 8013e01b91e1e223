"""Maximum mean discrepancy (MMD) estimators.

The paper's regularizer (Eq. 2) is the *empirical mean-embedding* MMD:
``|| mean_i phi(x_i) - mean_j phi(y_j) ||`` where ``phi`` is a learned
deep feature map.  That corresponds to MMD with a linear kernel on the
learned features, so we call it :func:`linear_mmd`.  The classical
RBF-kernel estimator is included for the kernel ablation and as a test
oracle (linear MMD equals RBF MMD's first-order behaviour for large
bandwidths).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError


def mean_embedding(features: np.ndarray) -> np.ndarray:
    """The empirical mean embedding delta = mean of feature rows (B, d) -> (d,).

    Leading axes are batch axes: (K, B, d) -> (K, d), one embedding a slice.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim < 2:
        raise DataError(f"features must be (..., batch, dim), got {features.shape}")
    if features.shape[-2] == 0:
        raise DataError("cannot embed an empty batch")
    return features.mean(axis=-2)


def linear_mmd(x_features: np.ndarray, y_features: np.ndarray) -> float:
    """Eq. 2: || mean phi(x) - mean phi(y) || (L2 norm of embedding gap)."""
    return float(np.linalg.norm(mean_embedding(x_features) - mean_embedding(y_features)))


# Above this many output elements (n * m), _pairwise_sq_dists switches to
# row blocks so the distance matrix is built without a second full-size
# temporary.  4M float64 elements = 32 MiB per temporary.
_BLOCK_ELEMENTS = 1 << 22


def _pairwise_sq_dists(
    a: np.ndarray, b: np.ndarray, block_rows: int | None = None
) -> np.ndarray:
    """All squared distances ||a_i - b_j||^2 via the GEMM identity
    ``||a||^2 + ||b||^2 - 2 a.b``.

    Small problems (n * m <= ``_BLOCK_ELEMENTS``) use a single dense GEMM —
    bitwise identical to the historical implementation.  Larger problems
    fall back to row blocks of ``block_rows`` rows, which bounds peak
    temporary memory; blocked BLAS calls may differ from the dense result
    in the last ulp (GEMM blocking is shape-sensitive), which is harmless
    for a distance matrix that feeds an exp() kernel.
    """
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    n, m = a.shape[0], b.shape[0]
    if block_rows is None:
        if n * m <= _BLOCK_ELEMENTS:
            block_rows = n
        else:
            block_rows = max(1, _BLOCK_ELEMENTS // max(m, 1))
    if block_rows >= n:
        return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)
    out = np.empty((n, m), dtype=np.result_type(a, b))
    bt = b.T
    for i in range(0, n, block_rows):
        j = min(i + block_rows, n)
        blk = out[i:j]
        np.add(aa[i:j], bb, out=blk)
        prod = a[i:j] @ bt
        prod *= 2.0
        blk -= prod
        np.maximum(blk, 0.0, out=blk)
    return out


def median_heuristic(x: np.ndarray, y: np.ndarray) -> float:
    """Median pairwise distance bandwidth for the RBF kernel."""
    pooled = np.vstack([np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)])
    dists = np.sqrt(_pairwise_sq_dists(pooled, pooled))
    upper = dists[np.triu_indices(len(pooled), k=1)]
    med = float(np.median(upper)) if len(upper) else 1.0
    return med if med > 0 else 1.0


def rbf_mmd(
    x: np.ndarray, y: np.ndarray, bandwidth: float | None = None, biased: bool = True
) -> float:
    """Kernel two-sample MMD with a Gaussian kernel.

    Args:
        x, y: sample matrices (n, d) and (m, d).
        bandwidth: kernel width; ``None`` uses the median heuristic.
        biased: biased (V-statistic) or unbiased (U-statistic) estimate.

    Returns:
        The MMD estimate (>= 0 for the biased version).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise DataError("rbf_mmd needs two 2-D arrays with matching feature dims")
    if bandwidth is None:
        bandwidth = median_heuristic(x, y)
    gamma = 1.0 / (2.0 * bandwidth**2)
    kxx = np.exp(-gamma * _pairwise_sq_dists(x, x))
    kyy = np.exp(-gamma * _pairwise_sq_dists(y, y))
    kxy = np.exp(-gamma * _pairwise_sq_dists(x, y))
    n, m = len(x), len(y)
    if biased:
        stat = kxx.mean() + kyy.mean() - 2.0 * kxy.mean()
        return float(np.sqrt(max(stat, 0.0)))
    if n < 2 or m < 2:
        raise DataError("unbiased MMD needs at least 2 samples per side")
    sum_xx = (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
    sum_yy = (kyy.sum() - np.trace(kyy)) / (m * (m - 1))
    stat = sum_xx + sum_yy - 2.0 * kxy.mean()
    return float(stat)  # can be slightly negative by construction
