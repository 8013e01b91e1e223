"""Seeded multi-repeat experiment execution."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.algorithms import make_algorithm
from repro.data.dataset import FederatedDataset
from repro.fl.config import FLConfig
from repro.fl.metrics import History
from repro.fl.trainer import run_federated
from repro.models.split import SplitModel
from repro.obs.exporters import write_run_artifacts
from repro.obs.trace import Tracer


@dataclass
class RunResult:
    """Aggregated outcome of repeated runs of one algorithm."""

    algorithm: str
    histories: list[History] = field(default_factory=list)
    artifact_dirs: list[Path] = field(default_factory=list)

    def accuracy_mean_std(self, tail: int = 3) -> tuple[float, float]:
        """Mean +/- std of tail-averaged accuracy across repeats
        (the format of the paper's Tables I and II)."""
        accs = np.array([h.tail_mean_accuracy(tail) for h in self.histories])
        return float(accs.mean()), float(accs.std())

    def mean_accuracy_curve(self) -> np.ndarray:
        """(round, mean accuracy) averaged across repeats."""
        curves = [h.accuracies() for h in self.histories]
        rounds = curves[0][:, 0]
        stacked = np.stack([c[:, 1] for c in curves])
        return np.column_stack([rounds, stacked.mean(axis=0)])

    def mean_loss_curve(self) -> np.ndarray:
        losses = np.stack([h.train_losses() for h in self.histories])
        rounds = self.histories[0].rounds()
        return np.column_stack([rounds, losses.mean(axis=0)])

    def mean_round_time(self) -> float:
        return float(np.mean([h.mean_round_time() for h in self.histories]))

    def rounds_to_reach(self, accuracy: float) -> int | None:
        """Median rounds-to-accuracy across repeats (None if never)."""
        reached = [h.rounds_to_reach(accuracy) for h in self.histories]
        reached = [r for r in reached if r is not None]
        if not reached:
            return None
        return int(np.median(reached))


def run_job(
    algorithm, fed, model_fn, config, *, tracer=None, artifacts_dir=None, **run_kwargs
) -> tuple[History, Path | None]:
    """Run one federated job; write its artifacts, stamped with
    provenance, under ``artifacts_dir`` when one is given.

    Returns ``(history, artifacts_path)``; ``run_kwargs`` go to
    :func:`~repro.fl.trainer.run_federated`.
    """
    history = run_federated(algorithm, fed, model_fn, config, tracer=tracer, **run_kwargs)
    if artifacts_dir is None:
        return history, None
    from repro.ckpt.provenance import run_provenance

    return history, write_run_artifacts(
        artifacts_dir, history, tracer,
        provenance=run_provenance(config, algorithm.name),
    )


def run_grid(
    algorithm_name: str,
    fed_builder: Callable[[int], FederatedDataset],
    model_fn_builder: Callable[[FederatedDataset, int], Callable[[], SplitModel]],
    config: FLConfig,
    repeats: int = 1,
    eval_per_client: bool = False,
    config_override: dict | None = None,
    trace_out: str | Path | None = None,
    **algorithm_kwargs,
) -> RunResult:
    """Run one algorithm ``repeats`` times with varied seeds.

    Args:
        algorithm_name: registry name ('fedavg', 'rfedavg+', ...).
        fed_builder: seed -> federated dataset (so repeats resample the
            partition, matching the paper's +/- std columns).
        model_fn_builder: (fed, seed) -> model factory.
        config: base config; the seed field is varied per repeat.
        repeats: number of independent runs.
        eval_per_client: forward to the trainer (fairness data).
        config_override: per-algorithm config field overrides — the
            paper itself tunes some methods separately (e.g. FedProx's
            learning rate on cross-device Sent140), and SCAFFOLD needs a
            smaller local lr to stay stable.
        trace_out: when given, each repeat runs traced and persists its
            artifacts (events.jsonl, summary.json, rounds.csv) under
            ``trace_out/<algorithm>-rep<k>/``.
        **algorithm_kwargs: algorithm hyperparameters (lam, mu, q, ...).

    Checkpointing: when ``config.checkpoint_dir`` is set, every repeat
    gets its own cell directory ``<checkpoint_dir>/<algorithm>-rep<k>``
    so repeats never clobber each other's checkpoints.  A finished cell
    is marked with a ``result.json`` (the repeat's full History); with
    ``config.resume`` an interrupted grid reloads finished cells from
    their markers and resumes only the unfinished ones mid-run.
    """
    if config_override:
        config = config.with_updates(**config_override)
    result = RunResult(algorithm=algorithm_name)
    for rep in range(repeats):
        seed = config.seed + 1000 * rep
        run_config = config.with_updates(seed=seed)
        done_marker: Path | None = None
        if config.checkpoint_dir is not None:
            cell_dir = Path(config.checkpoint_dir) / f"{algorithm_name}-rep{rep}"
            run_config = run_config.with_updates(checkpoint_dir=str(cell_dir))
            done_marker = cell_dir / "result.json"
            if config.resume and done_marker.is_file():
                result.histories.append(History.from_json(done_marker.read_text()))
                continue
        fed = fed_builder(seed)
        algorithm = make_algorithm(algorithm_name, **algorithm_kwargs)
        history, artifacts = run_job(
            algorithm,
            fed,
            model_fn_builder(fed, seed),
            run_config,
            eval_per_client=eval_per_client,
            tracer=Tracer() if trace_out is not None else None,
            artifacts_dir=(
                Path(trace_out) / f"{algorithm_name}-rep{rep}"
                if trace_out is not None else None
            ),
        )
        result.histories.append(history)
        if done_marker is not None:
            done_marker.parent.mkdir(parents=True, exist_ok=True)
            done_marker.write_text(history.to_json())
        if artifacts is not None:
            result.artifact_dirs.append(artifacts)
    return result


def compare_algorithms(
    algorithms: dict[str, dict],
    fed_builder: Callable[[int], FederatedDataset],
    model_fn_builder: Callable[[FederatedDataset, int], Callable[[], SplitModel]],
    config: FLConfig,
    repeats: int = 1,
    eval_per_client: bool = False,
    config_overrides: dict[str, dict] | None = None,
) -> dict[str, RunResult]:
    """Run several algorithms under identical data/model/seeds.

    ``algorithms`` maps registry names to their kwargs, e.g.
    ``{"fedavg": {}, "rfedavg+": {"lam": 1e-3}}``; ``config_overrides``
    optionally adjusts config fields per algorithm (paper-style
    per-method tuning).
    """
    overrides = config_overrides or {}
    return {
        name: run_grid(
            name,
            fed_builder,
            model_fn_builder,
            config,
            repeats=repeats,
            eval_per_client=eval_per_client,
            config_override=overrides.get(name),
            **kwargs,
        )
        for name, kwargs in algorithms.items()
    }
