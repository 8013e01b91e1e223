"""Figure 8 — FEMNIST curves with 100/500 clients, low/high cost (scaled).

Paper: low cost = SR 0.1, E 10; high cost = SR 0.2, E 20; 80 rounds;
100 and 500 writers.  Here: 30/60 writers, 25 rounds, MLP.  Expected
shape: rFedAvg leads or ties; the high-cost setting converges in fewer
rounds than the low-cost one.
"""

from benchmarks.common import DEVICE, IMAGE_ALGORITHMS, banner, report
from repro.experiments import run_grid, with_overrides
from repro.experiments.report import format_accuracy_table

ALGORITHMS = {k: IMAGE_ALGORITHMS[k] for k in ["fedavg", "scaffold", "rfedavg", "rfedavg+"]}
FEMNIST = with_overrides(
    DEVICE,
    {"dataset": "synth_femnist", "rounds": 25, "batch_size": 16, "lr": 0.3,
     "eval_every": 5},
)
COST = {
    "low": {"local_steps": 10, "sample_ratio": 0.1},
    "high": {"local_steps": 20, "sample_ratio": 0.2},
}


def test_fig8_writer_and_cost_grid(once):
    def run_all():
        return {
            f"{wl}/{cl}": run_grid(
                with_overrides(FEMNIST, {"clients": writers, **COST[cl]}), ALGORITHMS
            )
            for writers, wl in [(30, "100c"), (60, "500c")]
            for cl in ("low", "high")
        }

    columns = once(run_all)
    banner("Fig. 8 (scaled) — FEMNIST accuracy, writers x cost grid")
    report(format_accuracy_table(columns))

    for label, results in columns.items():
        acc = {n: r.accuracy_mean_std()[0] for n, r in results.items()}
        # Everyone learns beyond chance (10 classes).
        assert acc["fedavg"] > 0.2, label
    # High-cost (more local work + participation) >= low-cost for FedAvg.
    acc_low = columns["100c/low"]["fedavg"].accuracy_mean_std()[0]
    acc_high = columns["100c/high"]["fedavg"].accuracy_mean_std()[0]
    assert acc_high >= acc_low - 0.05
