"""Parameter sweeps (the machinery behind Fig. 9).

A sweep varies one knob — an algorithm hyperparameter (lambda) or a
config field (E, SR) — and records the resulting accuracy series.  The
CLI ``sweep`` command drives this module; the Fig. 9 bench
(``benchmarks/test_fig9_parameter_study.py``) calls
:func:`~repro.experiments.runner.run_grid` per cell directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.dataset import FederatedDataset
from repro.exceptions import ConfigError
from repro.experiments.runner import run_grid
from repro.fl.config import FLConfig
from repro.models.split import SplitModel


def _cell_config(config: FLConfig, knob: str, value) -> FLConfig:
    """Give each swept value its own checkpoint subdirectory.

    Without this every cell of a checkpointed sweep would write into the
    same directory and ``resume`` could cross-resume between values;
    with it an interrupted sweep re-runs only its unfinished cells (the
    per-repeat ``result.json`` markers live inside each cell directory).
    """
    if config.checkpoint_dir is None:
        return config
    from pathlib import Path

    return config.with_updates(
        checkpoint_dir=str(Path(config.checkpoint_dir) / f"{knob}-{value}")
    )


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


def sweep_algorithm_param(
    algorithm: str,
    knob: str,
    values: list,
    fed_builder: Callable[[int], FederatedDataset],
    model_fn_builder: Callable[[FederatedDataset, int], Callable[[], SplitModel]],
    config: FLConfig,
    repeats: int = 1,
    **fixed_kwargs,
) -> SweepResult:
    """Sweep an algorithm hyperparameter (e.g. lambda for rFedAvg+)."""
    result = SweepResult(knob=knob)
    for value in values:
        kwargs = dict(fixed_kwargs)
        kwargs[knob] = value
        run = run_grid(
            algorithm, fed_builder, model_fn_builder,
            _cell_config(config, knob, value), repeats=repeats, **kwargs
        )
        result.values.append(value)
        result.accuracies.append(run.accuracy_mean_std()[0])
    return result


def sweep_config_field(
    algorithm: str,
    knob: str,
    values: list,
    fed_builder: Callable[[int], FederatedDataset],
    model_fn_builder: Callable[[FederatedDataset, int], Callable[[], SplitModel]],
    config: FLConfig,
    repeats: int = 1,
    **algorithm_kwargs,
) -> SweepResult:
    """Sweep an FLConfig field (e.g. local_steps, sample_ratio)."""
    result = SweepResult(knob=knob)
    for value in values:
        run = run_grid(
            algorithm,
            fed_builder,
            model_fn_builder,
            _cell_config(config.with_updates(**{knob: value}), knob, value),
            repeats=repeats,
            **algorithm_kwargs,
        )
        result.values.append(value)
        result.accuracies.append(run.accuracy_mean_std()[0])
    return result

