"""Extension: feature-distribution skew (the regularizer's home turf).

The paper simulates *label* skew on MNIST/CIFAR and relies on Sent140 /
FEMNIST for natural feature skew.  Its reference [32] (Li et al., ICDE
2022) identifies feature-distribution skew as a distinct non-IID type:
same labels everywhere, different input conditions per client.  Since
the distribution regularizer is a domain-adaptation device — it aligns
clients' *feature marginals* — feature skew is where its mechanism is
most direct.  This bench builds exactly that setting (IID labels +
per-client input styles) and shows the regularizer's largest wins.
"""

from benchmarks.common import IMAGE_ALGORITHMS, SILO, banner, report
from repro.experiments import (
    RunResult,
    build_feature_skew_federation,
    preset_algorithm,
    preset_config,
    preset_model_fn,
    run_grid,
    with_overrides,
)
from repro.experiments.report import format_accuracy_table
from repro.fl.trainer import run_federated

ALGORITHMS = {
    "fedavg": {"algorithm": "fedavg"},
    "scaffold": IMAGE_ALGORITHMS["scaffold"],
    "rfedavg": {"algorithm": "rfedavg", "lam": 1e-2},
    "rfedavg+": {"algorithm": "rfedavg+", "lam": 1e-2},
}
REPEATS = 2


def _feature_skew_cell(overrides: dict, strength: float) -> RunResult:
    """One cell of SILO over the feature-skewed synth-CIFAR federation.
    No preset dataset builds that federation, so the cell runs its own
    seeded repeats, at the seeds run_grid would use."""
    preset = with_overrides(SILO, {"dataset": "synth_cifar", **overrides})
    result = RunResult(algorithm=preset.algorithm)
    for rep in range(REPEATS):
        seed = 1000 * rep
        fed = build_feature_skew_federation(
            preset.dataset, num_clients=preset.clients, skew_strength=strength,
            num_train=preset.num_train, num_test=preset.num_test, seed=seed,
        )
        result.histories.append(run_federated(
            preset_algorithm(preset), fed, preset_model_fn(preset, fed.spec, seed),
            preset_config(preset, seed),
        ))
    return result


def test_extension_feature_skew(once):
    def run():
        return {
            label: {
                name: _feature_skew_cell(overrides, strength)
                for name, overrides in ALGORITHMS.items()
            }
            for strength, label in [(0.5, "mild skew"), (1.5, "strong skew")]
        }

    columns = once(run)
    banner("Extension — feature-distribution skew (synth-CIFAR, IID labels)")
    report(format_accuracy_table(columns))
    strong = {n: r.accuracy_mean_std()[0] for n, r in columns["strong skew"].items()}
    # The domain-adaptation mechanism pays off most here.
    assert strong["rfedavg+"] > strong["fedavg"]
    assert max(strong["rfedavg"], strong["rfedavg+"]) == max(strong.values())


def test_extension_contrastive_vs_distributional(once):
    """MOON aligns each client's features to the global model per
    sample; rFedAvg+ aligns client feature *distributions* to each
    other.  Compare both against FedAvg on label-skewed CIFAR."""
    def run():
        grid = run_grid(
            with_overrides(
                SILO, {"dataset": "synth_cifar", "rounds": 40, "eval_every": 4}
            ),
            {
                "fedavg": IMAGE_ALGORITHMS["fedavg"],
                "moon": {"algorithm": "moon", "mu": 1.0},
                "rfedavg+": IMAGE_ALGORITHMS["rfedavg+"],
            },
        )
        return {name: result.accuracy_mean_std()[0] for name, result in grid.items()}

    accs = once(run)
    banner("Extension — contrastive (MOON) vs distributional (rFedAvg+) alignment")
    for name, acc in accs.items():
        report(f"{name:10s} acc={acc:.4f}")
    # Both feature-space methods must be competitive with FedAvg.
    assert accs["rfedavg+"] >= accs["fedavg"] - 0.05
    assert accs["moon"] >= 0.5 * accs["fedavg"]
