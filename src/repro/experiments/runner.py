"""Grids of seeded repeats over one :class:`~repro.experiments.facade.RunPreset`.

A grid is one preset and its cells ``{label: overrides}``.  Every cell
runs the preset with its overrides routed in by
:func:`~repro.experiments.facade.with_overrides`, ``repeats`` times;
repeat ``k`` runs at seed ``seed + 1000 k`` in every cell, so the cells
of one repeat share their partition and model initialization and their
tail accuracies pair up for
:func:`~repro.analysis.significance.paired_comparison`.  A sweep is a
grid with one cell per value of one knob.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.ckpt.provenance import check_resume_compatible, run_provenance
from repro.exceptions import ConfigError
from repro.experiments.facade import (
    RunPreset,
    preset_algorithm,
    preset_config,
    run_preset,
    with_overrides,
)
from repro.fl.metrics import History


@dataclass
class RunResult:
    """Aggregated outcome of the repeats of one grid cell."""

    algorithm: str
    histories: list[History] = field(default_factory=list)

    def tail_accuracies(self, tail: int = 3) -> np.ndarray:
        """Tail-averaged accuracy of each repeat, in repeat order."""
        return np.array([h.tail_mean_accuracy(tail) for h in self.histories])

    def accuracy_mean_std(self, tail: int = 3) -> tuple[float, float]:
        """Mean +/- std of tail-averaged accuracy across repeats
        (the format of the paper's Tables I and II)."""
        accs = self.tail_accuracies(tail)
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
        """Median rounds-to-accuracy across repeats.  A repeat that never
        reaches ``accuracy`` counts as infinitely many rounds, so the
        median is None (never) unless at least half the repeats reach it."""
        reached = [h.rounds_to_reach(accuracy) for h in self.histories]
        median = np.median([np.inf if r is None else r for r in reached])
        return int(median) if np.isfinite(median) else None


def run_grid(
    preset: RunPreset,
    cells: dict | None = None,
    repeats: int = 1,
    seed: int = 0,
    *,
    eval_per_client: bool = False,
) -> dict:
    """Run every cell of ``preset`` ``repeats`` times; results by label.

    Args:
        preset: the job every cell shares.
        cells: label -> overrides, routed as by
            :func:`~repro.experiments.facade.with_overrides`; a label
            is any hashable, and ``str(label)`` names its checkpoint
            directory.  E.g.
            ``{"fedavg": {"algorithm": "fedavg"}, "scaffold":
            {"algorithm": "scaffold", "lr": 0.15}}``.  Default: one cell,
            the preset itself, labelled by its algorithm.
        repeats: runs per cell; repeat ``k`` runs at ``seed + 1000 k``,
            so repeats resample the partition and the model
            initialization (the paper's +/- std columns).
        seed: the seed of repeat 0.
        eval_per_client: forwarded to the trainer (Fig. 11 fairness data).

    Every cell's config and algorithm are built before the first cell
    runs, so a bad knob raises :class:`ConfigError` up front.

    Checkpointing: when a cell's config sets ``checkpoint_dir``, repeat
    ``k`` of cell ``label`` checkpoints into
    ``<checkpoint_dir>/<label>/<algorithm>-rep<k>`` and is marked
    finished by a ``result.json`` there (its History, stamped with the
    repeat's run provenance).  With ``resume`` an interrupted grid
    reloads finished repeats from their markers and resumes only the
    unfinished ones mid-run.  A marker written by a different job raises
    :class:`~repro.exceptions.CheckpointMismatchError`, as the cell's
    checkpoints would; one with no stamp is not trusted, and its repeat
    resumes from its checkpoints instead.
    """
    jobs = {
        label: with_overrides(preset, overrides)
        for label, overrides in (cells or {preset.algorithm: {}}).items()
    }
    for job in jobs.values():
        preset_config(job, seed)
        preset_algorithm(job)
    return {
        label: _run_cell(label, job, repeats, seed, eval_per_client)
        for label, job in jobs.items()
    }


def _run_cell(label, job: RunPreset, repeats, seed, eval_per_client) -> RunResult:
    result = RunResult(algorithm=job.algorithm)
    checkpoint_dir = job.config.get("checkpoint_dir")
    for rep in range(repeats):
        run, marker = job, None
        if checkpoint_dir is not None:
            cell_dir = Path(checkpoint_dir) / str(label) / f"{job.algorithm}-rep{rep}"
            marker = cell_dir / "result.json"
            run = with_overrides(job, {"checkpoint_dir": str(cell_dir)})
            algorithm = preset_algorithm(run)
            stamp = run_provenance(
                preset_config(run, seed + 1000 * rep), algorithm.name,
                algorithm.hyperparameters(),
            )
            if job.config.get("resume") and marker.is_file():
                finished = json.loads(marker.read_text())
                if "provenance" in finished:
                    check_resume_compatible(finished["provenance"], stamp)
                    result.histories.append(History.from_dict(finished))
                    continue
        history, _ = run_preset(
            run, seed=seed + 1000 * rep, eval_per_client=eval_per_client
        )
        result.histories.append(history)
        if marker is not None:
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.write_text(json.dumps({**history.to_dict(), "provenance": stamp}))
    return result


@dataclass
class SweepResult:
    """Accuracy (mean over repeats) per swept value."""

    knob: str
    values: list = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)

    def best(self):
        """(value, accuracy) of the best-performing setting."""
        if not self.values:
            raise ConfigError("empty sweep")
        idx = int(np.argmax(self.accuracies))
        return self.values[idx], self.accuracies[idx]

    def as_table(self) -> str:
        lines = [f"{self.knob:>12s} {'accuracy':>10s}"]
        for value, acc in zip(self.values, self.accuracies):
            lines.append(f"{str(value):>12s} {acc:10.4f}")
        return "\n".join(lines)


def sweep(
    preset: RunPreset, knob: str, values: list, repeats: int = 1, seed: int = 0
) -> SweepResult:
    """Vary one knob of ``preset`` (Fig. 9): a grid with one cell per
    value, labelled ``<knob>-<value>``.  The knob is routed like any
    override, so it may be a preset field (``clients``), a config field
    (``local_steps``, ``sample_ratio``) or an algorithm kwarg (``lam``)."""
    grid = run_grid(
        preset, {f"{knob}-{value}": {knob: value} for value in values}, repeats, seed
    )
    return SweepResult(
        knob, list(values),
        [grid[f"{knob}-{value}"].accuracy_mean_std()[0] for value in values],
    )
