"""Extension: feature-distribution skew (the regularizer's home turf).

The paper simulates *label* skew on MNIST/CIFAR and relies on Sent140 /
FEMNIST for natural feature skew.  Its reference [32] (Li et al., ICDE
2022) identifies feature-distribution skew as a distinct non-IID type:
same labels everywhere, different input conditions per client.  Since
the distribution regularizer is a domain-adaptation device — it aligns
clients' *feature marginals* — feature skew is where its mechanism is
most direct.  This bench builds exactly that setting (IID labels +
per-client input styles) and shows the regularizer's largest wins over
the methods that did not diverge (:func:`benchmarks.common.diverged`).
"""

from benchmarks.common import IMAGE_ALGORITHMS, SILO, banner, diverged, report
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


def _feature_skew_cell(overrides: dict, strength: float) -> tuple[RunResult, bool]:
    """One cell of SILO over the feature-skewed synth-CIFAR federation,
    and whether any of its repeats diverged.  No preset dataset builds
    that federation, so the cell runs its own seeded repeats, at the
    seeds run_grid would use."""
    preset = with_overrides(SILO, {"dataset": "synth_cifar", **overrides})
    result = RunResult(algorithm=preset.algorithm)
    any_diverged = False
    for rep in range(REPEATS):
        seed = 1000 * rep
        fed = build_feature_skew_federation(
            preset.dataset, num_clients=preset.clients, skew_strength=strength,
            num_train=preset.num_train, num_test=preset.num_test, seed=seed,
        )
        algorithm = preset_algorithm(preset)
        history = run_federated(
            algorithm, fed, preset_model_fn(preset, fed.spec, seed), preset_config(preset, seed)
        )
        result.histories.append(history)
        any_diverged |= diverged(algorithm, history)
    return result, any_diverged


def test_extension_feature_skew(once):
    def run():
        return {
            label: {
                name: _feature_skew_cell(overrides, strength)
                for name, overrides in ALGORITHMS.items()
            }
            for strength, label in [(0.5, "mild skew"), (1.5, "strong skew")]
        }

    cells = once(run)
    columns = {label: {n: r for n, (r, _d) in cell.items()} for label, cell in cells.items()}
    banner("Extension — feature-distribution skew (synth-CIFAR, IID labels)")
    report(format_accuracy_table(columns))
    for label, cell in cells.items():
        report(f"{label}: diverged:", ", ".join(n for n, (_r, d) in cell.items() if d) or "none")
    # The domain-adaptation mechanism pays off most here, ranked among
    # the methods that kept finite weights; the regularizers and FedAvg
    # must be among them.
    strong = {n: r.accuracy_mean_std()[0] for n, (r, d) in cells["strong skew"].items() if not d}
    assert {"fedavg", "rfedavg", "rfedavg+"} <= set(strong)
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
