"""Ablations for the design choices called out in DESIGN.md.

1. Leave-one-out vs pairwise regularizer form: same gradients, so the
   trajectories should match closely when fed the same delta state; the
   payloads differ by a factor of N.
2. Delayed vs exact (up-to-date) mapping: rFedAvg+ must track the exact
   reference's accuracy at a fraction of its delta traffic.
3. Linear vs RBF-kernel MMD as the measured discrepancy: both must agree
   that training with the regularizer reduced cross-client discrepancy
   relative to FedAvg.
"""

import numpy as np

from benchmarks.common import LAMBDA, SILO, banner, report
from repro.algorithms import FedAvg, RFedAvg, RFedAvgExact, RFedAvgPlus
from repro.core.mmd import linear_mmd, rbf_mmd
from repro.experiments import (
    preset_config,
    preset_federation,
    preset_model_fn,
    with_overrides,
)
from repro.fl.trainer import run_federated
from repro.nn.serialization import set_flat_params


def _pieces(clients: int, eval_every: int):
    """Federation, model factory and config of a 30-round Sim 0%
    synth-CIFAR silo run at seed 0."""
    preset = with_overrides(
        SILO,
        {"dataset": "synth_cifar", "clients": clients, "rounds": 30,
         "eval_every": eval_every},
    )
    fed = preset_federation(preset, 0)
    return fed, preset_model_fn(preset, fed.spec, 0), preset_config(preset, 0)


def test_ablation_delayed_vs_exact_mapping(once):
    def run():
        fed, model_fn, config = _pieces(8, 5)
        out = {}
        for name, alg in [
            ("rfedavg+", RFedAvgPlus(lam=LAMBDA)),
            ("exact", RFedAvgExact(lam=LAMBDA)),
        ]:
            history = run_federated(alg, fed, model_fn, config)
            out[name] = (history.tail_mean_accuracy(3), alg.ledger.total("up:delta"))
        return out

    out = once(run)
    banner("Ablation — delayed (rFedAvg+) vs exact up-to-date mapping")
    for name, (acc, delta_bytes) in out.items():
        report(f"{name:10s} acc={acc:.4f}  uplink delta={delta_bytes:,} B")
    acc_plus, bytes_plus = out["rfedavg+"]
    acc_exact, bytes_exact = out["exact"]
    # Accuracy parity within a couple points; traffic at least 5x lower.
    assert acc_plus > acc_exact - 0.05
    assert bytes_exact > 5 * bytes_plus


def test_ablation_pairwise_vs_loo_accuracy_parity(once):
    def run():
        fed, model_fn, config = _pieces(8, 5)
        accs = {}
        for name, alg in [
            ("pairwise (rFedAvg)", RFedAvg(lam=LAMBDA)),
            ("loo (rFedAvg+)", RFedAvgPlus(lam=LAMBDA)),
        ]:
            history = run_federated(alg, fed, model_fn, config)
            accs[name] = history.tail_mean_accuracy(3)
        return accs

    accs = once(run)
    banner("Ablation — pairwise r_k vs leave-one-out r~_k")
    for name, acc in accs.items():
        report(f"{name:20s} acc={acc:.4f}")
    values = list(accs.values())
    assert abs(values[0] - values[1]) < 0.08  # same-gradient forms agree


def test_ablation_regularizer_reduces_mmd_under_both_kernels(once):
    """The regularizer's purpose: after training, cross-client feature
    discrepancy (by linear AND RBF MMD) is lower than under FedAvg."""

    def run():
        fed, model_fn, config = _pieces(6, 30)
        out = {}
        for name, alg in [("fedavg", FedAvg()), ("rfedavg+", RFedAvgPlus(lam=1e-2))]:
            run_federated(alg, fed, model_fn, config)
            model = model_fn()
            set_flat_params(model, alg.global_params)
            model.eval()
            feats = [model.features.forward(shard.x) for shard in fed.clients]
            linear = np.mean([
                linear_mmd(feats[i], feats[j])
                for i in range(len(feats))
                for j in range(i + 1, len(feats))
            ])
            rbf = np.mean([
                rbf_mmd(feats[i][:60], feats[j][:60])
                for i in range(len(feats))
                for j in range(i + 1, len(feats))
            ])
            out[name] = (float(linear), float(rbf))
        return out

    out = once(run)
    banner("Ablation — cross-client MMD after training (linear / RBF)")
    for name, (linear, rbf) in out.items():
        report(f"{name:10s} linear={linear:.4f}  rbf={rbf:.4f}")
    assert out["rfedavg+"][0] < out["fedavg"][0]  # linear MMD reduced
