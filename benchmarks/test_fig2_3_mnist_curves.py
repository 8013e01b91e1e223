"""Figures 2 and 3 — accuracy and loss curves on MNIST (scaled).

Paper: 60 rounds, cross-device and cross-silo, Sim 0% and 10%.
Expected shape: rFedAvg/rFedAvg+ converge faster and more stably; all
methods end near each other because MNIST barely suffers from non-IID
(paper Sec. VI-B1).  FedProx trails noticeably.
"""

import numpy as np

from benchmarks.common import DEVICE, IMAGE_ALGORITHMS, SILO, banner, report
from repro.experiments import run_grid, with_overrides
from repro.experiments.report import display_name


def _print_curves(results, metric="accuracy"):
    names = list(results)
    curves = {
        name: (
            results[name].mean_accuracy_curve()
            if metric == "accuracy"
            else results[name].mean_loss_curve()
        )
        for name in names
    }
    rounds = curves[names[0]][:, 0]
    header = "round".rjust(6) + "".join(display_name(n).rjust(12) for n in names)
    report(header)
    for i, r in enumerate(rounds):
        row = f"{int(r):6d}" + "".join(f"{curves[n][i, 1]:12.4f}" for n in names)
        report(row)


def test_fig2a_fig3a_cross_device_sim0(once):
    results = once(run_grid, DEVICE, IMAGE_ALGORITHMS, repeats=2)
    banner("Fig. 2(a) — MNIST cross-device Sim 0% accuracy curves")
    _print_curves(results, "accuracy")
    banner("Fig. 3(a) — MNIST cross-device Sim 0% loss curves")
    _print_curves(results, "loss")
    # Loss of the winners decreases over training.
    for name in ["fedavg", "rfedavg+"]:
        losses = results[name].mean_loss_curve()[:, 1]
        assert losses[-1] < losses[0]


def test_fig2b_fig3b_cross_silo_sim0(once):
    results = once(run_grid, SILO, IMAGE_ALGORITHMS, repeats=2)
    banner("Fig. 2(b) — MNIST cross-silo Sim 0% accuracy curves")
    _print_curves(results, "accuracy")
    banner("Fig. 3(b) — MNIST cross-silo Sim 0% loss curves")
    _print_curves(results, "loss")
    acc = {n: r.accuracy_mean_std()[0] for n, r in results.items()}
    report("\nfinal:", {display_name(n): round(a, 4) for n, a in acc.items()})
    # Paper shape: the regularized methods are at or above FedAvg.
    assert max(acc["rfedavg"], acc["rfedavg+"]) >= acc["fedavg"] - 0.02


def test_fig2cd_sim10(once):
    def run_both():
        return tuple(
            run_grid(
                with_overrides(preset, {"similarity": 0.1}),
                IMAGE_ALGORITHMS,
                repeats=2,
            )
            for preset in (DEVICE, SILO)
        )

    device, silo = once(run_both)
    banner("Fig. 2(c) — MNIST cross-device Sim 10% accuracy curves")
    _print_curves(device, "accuracy")
    banner("Fig. 2(d) — MNIST cross-silo Sim 10% accuracy curves")
    _print_curves(silo, "accuracy")
    # Paper shape: with 10% shared IID data the algorithm gaps shrink.
    acc_silo = np.array([r.accuracy_mean_std()[0] for r in silo.values()])
    spread_10 = acc_silo.max() - np.median(acc_silo)
    assert spread_10 < 0.25
