"""Experiment presets, the table/figure registry, and the runner."""

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
from repro.experiments.facade import RunPreset, RUN_PRESETS, list_presets
from repro.experiments.runner import run_grid, compare_algorithms, RunResult
from repro.experiments.registry import EXPERIMENTS, ExperimentSpec, get_experiment
from repro.experiments.report import format_accuracy_table, format_rounds_table
from repro.experiments.robustness import RobustComparison, compare_with_significance
from repro.experiments.sweeps import (
    SweepResult,
    sweep_algorithm_param,
    sweep_config_field,
)

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
    "run_grid",
    "compare_algorithms",
    "RunResult",
    "EXPERIMENTS",
    "ExperimentSpec",
    "get_experiment",
    "format_accuracy_table",
    "format_rounds_table",
    "SweepResult",
    "sweep_algorithm_param",
    "sweep_config_field",
    "RobustComparison",
    "compare_with_significance",
]
