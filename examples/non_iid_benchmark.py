"""Compare all six algorithms across non-IID severities on synth-CIFAR.

Reproduces the spirit of the paper's Table I at example scale: the
similarity knob sweeps from totally non-IID (0%) to IID (100%) and the
script prints a paper-style accuracy table.  The whole table is one
:func:`repro.experiments.run_grid` over the "cifar-noniid" preset: one
cell per (similarity, algorithm), two paired-seed repeats each.

    python examples/non_iid_benchmark.py
"""

from repro.experiments import RUN_PRESETS, run_grid
from repro.experiments.report import format_accuracy_table

SETTINGS = {"Sim 0%": 0.0, "Sim 10%": 0.1, "Sim 100%": 1.0}
ALGORITHMS = {
    "fedavg": {},
    "fedprox": {"mu": 1.0},
    # SCAFFOLD's control variates are unstable at lr=0.5 (the paper
    # also tunes some methods separately).
    "scaffold": {"eta_g": 1.0, "lr": 0.15},
    "qfedavg": {"q": 1.0},
    "rfedavg": {"lam": 1e-3},
    "rfedavg+": {"lam": 1e-3},
}
REPEATS = 2


def main() -> None:
    print(f"running {len(ALGORITHMS)} algorithms at {', '.join(SETTINGS)} ...")
    grid = run_grid(
        RUN_PRESETS["cifar-noniid"],
        {
            (label, name): {"similarity": similarity, "algorithm": name, **kwargs}
            for label, similarity in SETTINGS.items()
            for name, kwargs in ALGORITHMS.items()
        },
        repeats=REPEATS,
    )
    columns = {
        label: {name: grid[label, name] for name in ALGORITHMS} for label in SETTINGS
    }
    print()
    print(format_accuracy_table(columns, title="synth-CIFAR, cross-silo (example scale)"))


if __name__ == "__main__":
    main()
