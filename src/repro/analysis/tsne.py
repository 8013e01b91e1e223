"""Exact t-SNE in numpy, plus feature-geometry scores for Fig. 1.

The paper's Fig. 1 embeds last-FC-layer features of FedAvg-trained
models with t-SNE and observes that, under non-IID partitions, different
clients' feature clouds disagree.  Our reproduction provides (a) the
embedding itself (:func:`tsne`, the exact O(n^2) algorithm — fine for
the few hundred points the figure uses) and (b) a quantitative score
so the bench can assert the observation instead of eyeballing a plot:
:func:`client_marginal_discrepancy`, the mean pairwise linear MMD
between clients' feature clouds (higher = clients occupy different
regions of feature space, the non-IID signature of Fig. 1d-f).
"""

from __future__ import annotations

import numpy as np

from repro.core.mmd import linear_mmd
from repro.exceptions import ConfigError


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    sq = (x * x).sum(axis=1)
    return np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)


def _binary_search_perplexity(
    dists_row: np.ndarray, perplexity: float, tol: float = 1e-5, max_iter: int = 50
) -> np.ndarray:
    """Find the Gaussian precision giving the target perplexity for one row."""
    target_entropy = np.log(perplexity)
    beta, beta_min, beta_max = 1.0, 0.0, np.inf
    probs = np.zeros_like(dists_row)
    for _ in range(max_iter):
        probs = np.exp(-dists_row * beta)
        total = probs.sum()
        if total <= 0:
            probs = np.full_like(dists_row, 1.0 / len(dists_row))
            break
        probs /= total
        entropy = -(probs * np.log(np.maximum(probs, 1e-12))).sum()
        diff = entropy - target_entropy
        if abs(diff) < tol:
            break
        if diff > 0:  # too flat -> sharpen
            beta_min = beta
            beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
        else:
            beta_max = beta
            beta = beta / 2.0 if beta_min == 0.0 else (beta + beta_min) / 2.0
    return probs


def _joint_probabilities(features: np.ndarray, perplexity: float) -> np.ndarray:
    n = len(features)
    dists = _pairwise_sq_dists(features)
    p_cond = np.zeros((n, n))
    for i in range(n):
        row = np.delete(dists[i], i)
        probs = _binary_search_perplexity(row, perplexity)
        p_cond[i, np.arange(n) != i] = probs
    p_joint = (p_cond + p_cond.T) / (2.0 * n)
    return np.maximum(p_joint, 1e-12)


def tsne(
    features: np.ndarray,
    dim: int = 2,
    perplexity: float = 20.0,
    iterations: int = 300,
    learning_rate: float = 100.0,
    seed: int = 0,
    early_exaggeration: float = 4.0,
    exaggeration_iters: int = 50,
) -> np.ndarray:
    """Embed ``features`` (n, d) into ``dim`` dimensions with exact t-SNE.

    Standard van der Maaten & Hinton formulation: Gaussian input
    affinities calibrated per-point to ``perplexity``, Student-t output
    affinities, KL-divergence gradient descent with momentum and early
    exaggeration.
    """
    features = np.asarray(features, dtype=np.float64)
    n = len(features)
    if n < 5:
        raise ConfigError("t-SNE needs at least 5 points")
    perplexity = min(perplexity, (n - 1) / 3.0)
    p = _joint_probabilities(features, perplexity) * early_exaggeration

    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1e-4, size=(n, dim))
    velocity = np.zeros_like(y)
    for it in range(iterations):
        if it == exaggeration_iters:
            p = p / early_exaggeration
        num = 1.0 / (1.0 + _pairwise_sq_dists(y))
        np.fill_diagonal(num, 0.0)
        q = np.maximum(num / num.sum(), 1e-12)
        pq = (p - q) * num
        grad = 4.0 * ((np.diag(pq.sum(axis=1)) - pq) @ y)
        momentum = 0.5 if it < 250 else 0.8
        velocity = momentum * velocity - learning_rate * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    return y


def client_marginal_discrepancy(features_per_client: list[np.ndarray]) -> float:
    """Mean pairwise linear MMD between clients' *marginal* feature clouds.

    This is the quantity the paper's regularizer drives down (Eq. 2 on
    the marginal distributions P(phi(x_k))): under an IID partition every
    client's feature marginal matches (score ~ sampling noise), under a
    label-skewed partition each client occupies its own region of
    feature space (score large) — Fig. 1's panels (a-c) vs (d-f).
    """
    clouds = [np.asarray(f, dtype=np.float64) for f in features_per_client]
    if len(clouds) < 2:
        raise ConfigError("need at least two clients")
    total, count = 0.0, 0
    for i in range(len(clouds)):
        for j in range(i + 1, len(clouds)):
            total += linear_mmd(clouds[i], clouds[j])
            count += 1
    return total / count
