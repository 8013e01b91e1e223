"""Table II — cross-device test accuracy (scaled reproduction).

Paper: N=500, E=10, SR=0.2.  Here: N=50, SR=0.2, MLP, 40 rounds.
Partial participation makes non-IID harder (each round sees a biased
10-client subset), which is where the delayed global delta table helps.
"""

from benchmarks.common import DEVICE, IMAGE_ALGORITHMS, banner, report
from repro.experiments import run_grid, with_overrides
from repro.experiments.report import format_accuracy_table


def _run_table(dataset: str) -> dict:
    return {
        label: run_grid(
            with_overrides(DEVICE, {"dataset": dataset, "similarity": similarity}),
            IMAGE_ALGORITHMS,
            repeats=2,
        )
        for similarity, label in [(0.0, "Sim 0%"), (0.1, "Sim 10%"), (1.0, "Sim 100%")]
    }


def test_table2_mnist(once):
    columns = once(_run_table, "synth_mnist")
    banner("Table II (scaled) — cross-device accuracy, synth-MNIST")
    report(format_accuracy_table(columns))
    for result in columns["Sim 100%"].values():
        assert result.accuracy_mean_std()[0] > 0.4


def test_table2_cifar(once):
    columns = once(_run_table, "synth_cifar")
    banner("Table II (scaled) — cross-device accuracy, synth-CIFAR")
    report(format_accuracy_table(columns))
    acc = {name: r.accuracy_mean_std()[0] for name, r in columns["Sim 0%"].items()}
    best_r = max(acc["rfedavg"], acc["rfedavg+"])
    assert best_r >= acc["fedavg"] - 0.02
