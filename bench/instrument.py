"""Spans around the calls into each layer, recorded from the bench's side.

A traced job replaces the names the program's modules call their layers
by (``repro.fl.trainer.evaluate_model``, ``ArrayDataset.sample_batch``,
...) with wrappers that open a :class:`bench.spans.SpanRecorder` span
around the original, and puts the originals back when the job ends.  The
program is not edited and untraced jobs never see a wrapper.  Spans
inside worker processes are not collected: forked workers inherit the
wrappers, but what they record dies with them — worker time reaches the
driver as ``ClientUpdate.train_seconds``.
"""

from __future__ import annotations

import importlib
import os
from contextlib import contextmanager

from repro.fl.parallel import ClientExecutor, make_executor
from repro.obs import LayerProfiler

from bench.spans import SpanRecorder

# (owner, attribute, span name).  The owner is the module or class whose
# attribute the program looks up at call time: a function imported with
# ``from x import f`` has to be wrapped in every module that imported it.
CALLS: tuple[tuple[str, str, str], ...] = (
    ("repro.data.virtual", "materialize_client", "data.materialize"),
    ("repro.data.dataset.ArrayDataset", "sample_batch", "data.sample_batch"),
    ("repro.nn.losses.SoftmaxCrossEntropy", "forward", "nn.loss"),
    ("repro.nn.losses.SoftmaxCrossEntropy", "backward", "nn.loss"),
    ("repro.nn.optim.Optimizer", "step", "nn.optim_step"),
    ("repro.algorithms.base", "get_flat_params", "nn.param_io"),
    ("repro.algorithms.base", "set_flat_params", "nn.param_io"),
    ("repro.algorithms.rfedavg_plus", "set_flat_params", "nn.param_io"),
    ("repro.fl.trainer", "set_flat_params", "nn.param_io"),
    ("repro.fl.hierarchy", "set_flat_params", "nn.param_io"),
    ("repro.fl.async_engine", "set_flat_params", "nn.param_io"),
    ("repro.core.regularizer.DistributionRegularizer", "evaluate", "core.regularizer_eval"),
    ("repro.algorithms.regularized", "compute_mean_embedding", "core.delta_compute"),
    ("repro.fl.trainer", "sample_cohort", "fl.sampling.sample"),
    ("repro.algorithms.base", "local_sgd_steps", "fl.client.local_train"),
    ("repro.fl.trainer", "evaluate_model", "fl.client.eval"),
    ("repro.fl.hierarchy", "evaluate_model", "fl.client.eval"),
    ("repro.fl.async_engine", "evaluate_model", "fl.client.eval"),
    ("repro.algorithms.base", "weighted_average", "fl.server.aggregate"),
    ("repro.fl.hierarchy", "weighted_average", "fl.server.aggregate"),
    ("repro.fl.wire", "unpack", "fl.wire.unpack"),
    ("repro.fl.compression.CompressionPipeline", "decode", "fl.compression.decode"),
    # The base commit does exactly one thing: store the client's next
    # error-feedback residual.
    ("repro.algorithms.base.FederatedAlgorithm", "_commit_client",
     "fl.compression.residual_commit"),
    ("repro.ckpt.state", "capture_run_state", "ckpt.save"),
    ("repro.ckpt.state", "restore_run_state", "ckpt.restore"),
    ("repro.ckpt.manager.CheckpointManager", "load_latest_valid", "ckpt.restore"),
)

# The delta table's public methods, wrapped per instance so the
# error-feedback residual table (same class) stays out of the row.
DELTA_TABLE_CALLS = (
    "update", "get", "mean_of_others", "reported_rows_except",
    "worker_segments", "checkpoint_segments",
)

# repro.obs.LayerProfiler labels a layer by its class name.
ACTIVATIONS = {"ReLU", "LeakyReLU", "Tanh", "Sigmoid"}


def _resolve(path: str):
    """Import ``pkg.module`` or ``pkg.module.Class``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module_path, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module_path), attr)


def _spanned(recorder: SpanRecorder, name: str, original, after=None):
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            result = original(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    return wrapper


@contextmanager
def instrumented(recorder: SpanRecorder):
    """Wrap every call in :data:`CALLS` for the length of the block."""
    undo: list[tuple[object, str, object]] = []

    def wrap(owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, _spanned(recorder, name, original, after))

    try:
        for owner_path, attr, name in CALLS:
            wrap(_resolve(owner_path), attr, name)

        wire = _resolve("repro.fl.wire")
        wrap(wire, "pack", "fl.wire.pack",
             after=lambda message: recorder.count("fl.wire.bytes_packed", len(message)))

        def saved(path) -> None:
            recorder.count("ckpt.saves")
            recorder.count("ckpt.bytes_written", os.path.getsize(path))

        wrap(_resolve("repro.ckpt.manager.CheckpointManager"), "save", "ckpt.save", after=saved)

        # The regularized algorithms allocate their delta table in setup().
        regularized = _resolve("repro.algorithms.regularized.RegularizedAlgorithm")
        original_setup = regularized.setup
        undo.append((regularized, "setup", original_setup))

        def setup(self, model, fed, config):
            original_setup(self, model, fed, config)
            for method in DELTA_TABLE_CALLS:
                original = getattr(self.delta_table, method)
                setattr(self.delta_table, method, _spanned(recorder, "core.delta_table", original))

        regularized.setup = setup
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


class _LeafSpans:
    """The slice of ``MetricsRegistry`` that ``LayerProfiler`` uses: each
    ``histogram(...).observe(seconds)`` becomes a leaf span."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder

    def histogram(self, name: str, layer: str):
        kind = "activation" if layer in ACTIVATIONS else layer.lower()
        direction = "forward" if name == LayerProfiler.FORWARD else "backward"
        return _Leaf(self._recorder, f"nn.{kind}.{direction}")


class _Leaf:
    __slots__ = ("_recorder", "_name")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def observe(self, seconds: float) -> None:
        self._recorder.leaf(self._name, seconds)


def profiled_model_fn(model_fn, recorder: SpanRecorder):
    """``model_fn`` whose models report per-layer forward/backward time."""

    def factory():
        model = model_fn()
        LayerProfiler(metrics=_LeafSpans(recorder)).attach(model)
        return model

    return factory


class TimedExecutor(ClientExecutor):
    """The executor ``make_executor(config)`` builds, with a span around
    each dispatch and the worker-side seconds it brought back."""

    SPAN = {"serial": "fl.executor.serial", "serve": "serve.dispatch"}

    def __init__(self, config, recorder: SpanRecorder) -> None:
        self.inner = make_executor(config)
        self.name = self.inner.name
        self.num_workers = self.inner.num_workers
        self.span_name = self.SPAN.get(self.inner.name, "fl.parallel.dispatch")
        self._recorder = recorder
        self.train_seconds = 0.0

    @property
    def degraded(self) -> bool:
        return bool(getattr(self.inner, "degraded", False))

    def run(self, algorithm, round_idx, client_ids):
        with self._recorder.span(self.span_name):
            updates = self.inner.run(algorithm, round_idx, client_ids)
        self.train_seconds += sum(update.train_seconds for update in updates)
        return updates

    def run_regions(self, algorithm, round_idx, regions):
        with self._recorder.span(self.span_name):
            per_region = self.inner.run_regions(algorithm, round_idx, regions)
        self.train_seconds += sum(
            update.train_seconds for updates in per_region for update in updates
        )
        return per_region

    def close(self) -> None:
        self.inner.close()
