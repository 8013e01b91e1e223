"""Figure 1 — feature visualization of FedAvg, IID vs non-IID.

Paper: t-SNE of last-FC features from 3 clients after FedAvg training;
IID clients produce consistent per-class clusters, non-IID clients'
feature distributions disagree.  Here we train FedAvg on IID and
non-IID partitions, embed client features with our t-SNE, and verify
the quantitative version of the visual claim: the discrepancy between
clients' marginal feature distributions — the exact quantity the
regularizer targets (Eq. 2) — is far higher under the non-IID partition.
"""

import numpy as np

from benchmarks.common import SILO, banner, report
from repro.algorithms import FedAvg
from repro.analysis.tsne import client_marginal_discrepancy, tsne
from repro.experiments import (
    preset_config,
    preset_federation,
    preset_model_fn,
    with_overrides,
)
from repro.fl.trainer import run_federated
from repro.nn.serialization import set_flat_params


def _client_features(similarity: float):
    preset = with_overrides(
        SILO,
        {"dataset": "synth_cifar", "clients": 8, "similarity": similarity,
         "rounds": 25, "eval_every": 25},
    )
    fed = preset_federation(preset, 0)
    alg = FedAvg()
    model_fn = preset_model_fn(preset, fed.spec, 0)
    run_federated(alg, fed, model_fn, preset_config(preset, 0))
    model = model_fn()
    set_flat_params(model, alg.global_params)
    model.eval()
    feats, labels = [], []
    for shard in fed.clients[:3]:
        feats.append(model.features.forward(shard.x))
        labels.append(shard.y)
    return feats, labels


def test_fig1_feature_discrepancy(once):
    def run():
        iid_feats, _iid_labels = _client_features(1.0)
        non_feats, non_labels = _client_features(0.0)
        return (
            client_marginal_discrepancy(iid_feats),
            client_marginal_discrepancy(non_feats),
            non_feats,
            non_labels,
        )

    disc_iid, disc_non, non_feats, non_labels = once(run)
    banner("Fig. 1 — cross-client marginal feature discrepancy (linear MMD)")
    report(f"IID partition     : {disc_iid:.4f}")
    report(f"non-IID partition : {disc_non:.4f}")
    # The quantitative form of Fig. 1: non-IID clients' marginal
    # feature distributions disagree far more than IID clients'.
    assert disc_non > 2 * disc_iid

    # And the t-SNE embedding itself runs on the pooled features (the
    # coordinates the paper plots).
    pooled = np.vstack([f[:30] for f in non_feats])
    embedding = tsne(pooled, iterations=120, seed=0)
    assert embedding.shape == (pooled.shape[0], 2)
    assert np.all(np.isfinite(embedding))
    report(f"t-SNE embedded {embedding.shape[0]} non-IID client features")
