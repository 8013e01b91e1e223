"""Shared benchmark data: the two base presets, the algorithm tables and
the report helpers.

Every bench reproduces one paper table/figure at a **reduced scale**
documented here and in EXPERIMENTS.md:

* models: MLP (32-d features) for most runs, the paper CNN at scale
  0.15 for the CIFAR curve bench, the paper LSTM at scale 0.15 for
  Sent140.
* clients: cross-silo N=10 (paper: 20), cross-device N=50, SR=0.2
  (paper: 500, SR=0.2).
* rounds: 40-60 (paper: 60-200) — enough for the orderings to settle.

Each bench describes its job as a :class:`~repro.experiments.RunPreset`
— :data:`SILO` or :data:`DEVICE` with overrides — and runs a table as
:func:`~repro.experiments.run_grid` cells, or calls the preset's pieces
and :func:`~repro.fl.trainer.run_federated` when it needs the algorithm
object after the run.

Regularization weights: lambda is a normalization-sensitive knob (the
paper uses 1e-4 MNIST / 1e-5 CIFAR at 512-d features); our features are
32-d so the benches use lambda = 1e-3, chosen by the Fig. 9a sweep.
"""

from __future__ import annotations

import os

from repro.experiments import RunPreset

LAMBDA = 1e-3  # MLP feature dim 32; see Fig. 9a bench
LAMBDA_LSTM = 1e-2

# Scaled-down counterparts of the paper's two settings: synth-MNIST,
# Sim 0%, 2000 train / 400 test samples, MLP, rFedAvg+ at LAMBDA.
SILO = RunPreset(
    "bench-silo",
    "cross-silo bench setting (N=10, E=5, SR=1.0)",
    algorithm_kwargs={"lam": LAMBDA},
    clients=10,
    config=dict(rounds=60, batch_size=32, lr=0.5, eval_every=3),
)
DEVICE = RunPreset(
    "bench-device",
    "cross-device bench setting (N=50, E=10, SR=0.2)",
    algorithm_kwargs={"lam": LAMBDA},
    clients=50,
    scenario="cross_device",
    config=dict(rounds=60, batch_size=32, lr=0.5, eval_every=3),
)

# The six compared methods as grid cells, with their paper
# hyperparameters (adapted where the paper itself adapts them per
# dataset).  SCAFFOLD's control variates are unstable at the bench lr,
# so its cell lowers it — mirroring the paper's own per-method tuning
# (it lowers FedProx's lr on cross-device Sent140 "otherwise it will not
# converge").
IMAGE_ALGORITHMS: dict[str, dict] = {
    "fedavg": {"algorithm": "fedavg"},
    "fedprox": {"algorithm": "fedprox", "mu": 1.0},
    "scaffold": {"algorithm": "scaffold", "eta_g": 1.0, "lr": 0.15},
    "qfedavg": {"algorithm": "qfedavg", "q": 1.0},
    "rfedavg": {"algorithm": "rfedavg", "lam": LAMBDA},
    "rfedavg+": {"algorithm": "rfedavg+", "lam": LAMBDA},
}

# Sent140's RMSProp lr already suits every method.
SENT140_ALGORITHMS: dict[str, dict] = {
    "fedavg": {"algorithm": "fedavg"},
    "fedprox": {"algorithm": "fedprox", "mu": 0.01},
    "scaffold": {"algorithm": "scaffold", "eta_g": 1.0},
    "qfedavg": {"algorithm": "qfedavg", "q": 1e-4},
    "rfedavg": {"algorithm": "rfedavg", "lam": LAMBDA_LSTM},
    "rfedavg+": {"algorithm": "rfedavg+", "lam": LAMBDA_LSTM},
}


RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")


def reset_results() -> None:
    """Truncate the results file (called once per bench session)."""
    with open(RESULTS_PATH, "w") as handle:
        handle.write("paper-style tables from the latest benchmark run\n")


def report(*parts) -> None:
    """Print a result line and append it to benchmarks/results.txt.

    pytest captures test stdout by default, so the printed tables would
    be invisible in a plain ``pytest benchmarks/`` run; the results file
    preserves them regardless of capture settings.
    """
    line = " ".join(str(p) for p in parts)
    print(line)
    with open(RESULTS_PATH, "a") as handle:
        handle.write(line + "\n")


def banner(title: str) -> None:
    report()
    report("=" * 72)
    report(title)
    report("=" * 72)
