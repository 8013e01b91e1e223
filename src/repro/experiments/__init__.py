"""Experiment presets, the table/figure registry, and the grid runner."""

from repro.experiments.presets import (
    build_image_federation,
    build_sent140_federation,
    build_femnist_federation,
    build_feature_skew_federation,
    build_virtual_federation,
    default_model_fn,
    cross_silo_config,
    cross_device_config,
)
from repro.experiments.facade import (
    RunPreset,
    RUN_PRESETS,
    list_presets,
    with_overrides,
    preset_federation,
    preset_model_fn,
    preset_config,
    preset_algorithm,
    run_preset,
)
from repro.experiments.runner import RunResult, SweepResult, run_grid, sweep
from repro.experiments.registry import EXPERIMENTS, ExperimentSpec, get_experiment
from repro.experiments.report import format_accuracy_table, format_rounds_table

__all__ = [
    "build_image_federation",
    "build_sent140_federation",
    "build_femnist_federation",
    "build_feature_skew_federation",
    "build_virtual_federation",
    "default_model_fn",
    "cross_silo_config",
    "cross_device_config",
    "RunPreset",
    "RUN_PRESETS",
    "list_presets",
    "with_overrides",
    "preset_federation",
    "preset_model_fn",
    "preset_config",
    "preset_algorithm",
    "run_preset",
    "run_grid",
    "sweep",
    "RunResult",
    "SweepResult",
    "EXPERIMENTS",
    "ExperimentSpec",
    "get_experiment",
    "format_accuracy_table",
    "format_rounds_table",
]
