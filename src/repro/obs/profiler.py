"""Opt-in per-layer time attribution for :class:`repro.nn.Module` trees.

The numpy substrate has no hook infrastructure, so the profiler patches
the ``forward`` / ``backward`` *instance* attributes of every leaf
module (a module with no child modules) with a timing wrapper, and
attributes the measured time to the layer's class name.  A leaf whose
class overrides ``backward_params`` (the parameter-only backward a
training loop runs at the first parametrised layer) gets that method
timed into the backward histogram too; a leaf that inherits the default
is already covered, because the default calls the patched ``backward``.
Detaching restores the original class-level methods, so a profiled model
is bit-identical to an unprofiled one afterwards.

Usage::

    profiler = LayerProfiler()
    with profiler.profile(model):
        logits = model.forward(x)
        model.backward(grad)
    print(profiler.totals())
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.nn.module import Module
from repro.obs.metrics import MetricsRegistry


def _leaf_modules(module: Module) -> list[Module]:
    """All modules in the tree with no child modules, depth-first."""
    return [m for m in module.modules() if len(m.modules()) == 1]


class LayerProfiler:
    """Accumulates forward/backward wall time per layer type."""

    FORWARD = "layer.forward_sec"
    BACKWARD = "layer.backward_sec"

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._patched: list[tuple[Module, str]] = []

    # -- attach / detach ---------------------------------------------------------
    def attach(self, model: Module) -> "LayerProfiler":
        """Patch every leaf layer of ``model`` with timing wrappers."""
        if self._patched:
            raise RuntimeError("profiler is already attached; detach() first")
        for module in _leaf_modules(model):
            label = type(module).__name__
            backward = self.metrics.histogram(self.BACKWARD, layer=label)
            self._patch(module, "forward", self.metrics.histogram(self.FORWARD, layer=label))
            self._patch(module, "backward", backward)
            # Only an override does its own work; timing the inherited
            # default as well would count its inner backward() twice.
            if type(module).backward_params is not Module.backward_params:
                self._patch(module, "backward_params", backward)
        return self

    def _patch(self, module: Module, method: str, histogram) -> None:
        original = getattr(module, method)

        def timed(*args, **kwargs):
            started = time.perf_counter()
            out = original(*args, **kwargs)
            histogram.observe(time.perf_counter() - started)
            return out

        setattr(module, method, timed)
        self._patched.append((module, method))

    def detach(self) -> None:
        """Remove every wrapper, restoring the class-level methods."""
        for module, method in self._patched:
            module.__dict__.pop(method, None)
        self._patched.clear()

    @contextmanager
    def profile(self, model: Module):
        """Attach for the duration of a ``with`` block."""
        self.attach(model)
        try:
            yield self
        finally:
            self.detach()

    # -- results -----------------------------------------------------------------
    def totals(self) -> dict[str, dict]:
        """Per-layer-type ``{calls, forward_sec, backward_sec}``."""
        out: dict[str, dict] = {}
        for name, attr in ((self.FORWARD, "forward_sec"), (self.BACKWARD, "backward_sec")):
            prefix = f"{name}{{layer="
            for key, hist in self.metrics.histograms.items():
                if not key.startswith(prefix):
                    continue
                layer = key[len(prefix):-1]
                entry = out.setdefault(
                    layer, {"calls": 0, "forward_sec": 0.0, "backward_sec": 0.0}
                )
                entry[attr] += hist.total
                if attr == "forward_sec":
                    entry["calls"] += hist.count
        return out
