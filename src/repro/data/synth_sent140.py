"""Synthetic Sent140: token sequences with per-user vocabulary skew.

Sent140's role in the paper is a *naturally* non-IID sequence dataset:
each Twitter user writes with their own vocabulary (feature skew) and
posts a different number of tweets (quantity skew).  This generator
reproduces both:

* a global vocabulary is split into positive-sentiment, negative-
  sentiment, and neutral words;
* each user owns a sparse preference distribution over the neutral
  vocabulary (their personal "style"), plus a personal sentiment prior;
* each tweet is a length-T mixture of sentiment-bearing and style words,
  labeled by its sentiment.

Partitioning ``by_user`` yields the natural non-IID split; shuffling all
tweets and splitting evenly yields the paper's simulated IID setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import ArrayDataset, DatasetSpec
from repro.exceptions import DataError


@dataclass(frozen=True)
class Sent140Config:
    """Generator knobs for the synthetic Sent140 corpus."""

    num_users: int = 50
    tweets_per_user_mean: float = 20.0
    seq_len: int = 10
    vocab_size: int = 200
    num_sentiment_words: int = 30  # per polarity
    sentiment_word_rate: float = 0.35  # fraction of tokens that carry sentiment
    style_dim: int = 12  # neutral words each user actually uses
    seed: int = 0


def make_synth_sent140(
    config: Sent140Config | None = None,
) -> tuple[DatasetSpec, ArrayDataset, ArrayDataset, np.ndarray]:
    """Generate the corpus.

    Returns (spec, train, test, train_user_ids).  ``train_user_ids``
    aligns with the train set and feeds
    :func:`repro.data.partition.by_user_partition` for the natural
    non-IID split.
    """
    cfg = config if config is not None else Sent140Config()
    if cfg.vocab_size < 2 * cfg.num_sentiment_words + cfg.style_dim:
        raise DataError("vocab too small for the requested word groups")
    rng = np.random.default_rng(cfg.seed)

    pos_words = np.arange(0, cfg.num_sentiment_words)
    neg_words = np.arange(cfg.num_sentiment_words, 2 * cfg.num_sentiment_words)
    neutral_words = np.arange(2 * cfg.num_sentiment_words, cfg.vocab_size)

    xs: list[np.ndarray] = []
    ys: list[int] = []
    users: list[int] = []
    num_sentiment = cfg.num_sentiment_words
    for user in range(cfg.num_users):
        count = max(2, int(rng.poisson(cfg.tweets_per_user_mean)))
        style = rng.choice(neutral_words, size=cfg.style_dim, replace=False)
        style_probs = rng.dirichlet(np.ones(cfg.style_dim))
        sentiment_prior = float(rng.beta(2.0, 2.0))
        # The draws ``Generator.choice`` makes, without its per-call set-up:
        # one uniform against the normalized CDF for a weighted pick, one
        # bounded integer for a uniform one.
        cdf = style_probs.cumsum()
        cdf /= cdf[-1]
        for _ in range(count):
            label = int(rng.random() < sentiment_prior)
            sentiment_pool = pos_words if label == 1 else neg_words
            tokens = np.empty(cfg.seq_len, dtype=np.int64)
            for t in range(cfg.seq_len):
                if rng.random() < cfg.sentiment_word_rate:
                    tokens[t] = sentiment_pool[rng.integers(0, num_sentiment)]
                else:
                    tokens[t] = style[cdf.searchsorted(rng.random(), side="right")]
            xs.append(tokens)
            ys.append(label)
            users.append(user)

    x = np.stack(xs)
    y = np.array(ys, dtype=np.int64)
    user_ids = np.array(users, dtype=np.int64)

    # Hold out a stratified-by-user test slice.
    order = rng.permutation(len(y))
    cut = int(round(0.8 * len(y)))
    train_idx, test_idx = order[:cut], order[cut:]

    spec = DatasetSpec(
        name="synth_sent140",
        kind="sequence",
        input_shape=(cfg.seq_len,),
        num_classes=2,
        vocab_size=cfg.vocab_size,
    )
    train = ArrayDataset(x[train_idx], y[train_idx])
    test = ArrayDataset(x[test_idx], y[test_idx])
    return spec, train, test, user_ids[train_idx]
