"""Layer profiler tests."""

import numpy as np
import pytest

from repro.models import build_cnn, build_lstm_classifier, build_mlp
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import LayerProfiler, _leaf_modules


def _model(seed=0):
    return build_mlp(16, 4, np.random.default_rng(seed), (8,), feature_dim=8)


def _batch(n=5):
    return np.random.default_rng(1).normal(size=(n, 16))


def test_leaf_modules_finds_every_layer():
    names = [type(m).__name__ for m in _leaf_modules(_model())]
    assert names == ["Flatten", "Linear", "ReLU", "Linear", "ReLU", "Linear"]


def test_profile_attributes_time_per_layer_type():
    model = _model()
    profiler = LayerProfiler()
    x = _batch()
    with profiler.profile(model):
        logits = model.forward(x)
        model.backward(np.ones_like(logits) / len(x))
    totals = profiler.totals()
    assert set(totals) == {"Flatten", "Linear", "ReLU"}
    assert totals["Linear"]["calls"] == 3  # three Linear leaves, one pass
    assert totals["ReLU"]["calls"] == 2
    assert totals["Linear"]["forward_sec"] > 0
    assert totals["Linear"]["backward_sec"] > 0


def test_detach_restores_unpatched_methods():
    model = _model()
    profiler = LayerProfiler()
    profiler.attach(model)
    leaves = _leaf_modules(model)
    assert all("forward" in leaf.__dict__ for leaf in leaves)
    profiler.detach()
    assert all("forward" not in leaf.__dict__ for leaf in leaves)
    assert all("backward" not in leaf.__dict__ for leaf in leaves)


def test_profiled_model_is_numerically_identical():
    x = _batch()
    plain = _model().forward(x)
    model = _model()
    with LayerProfiler().profile(model):
        profiled = model.forward(x)
    np.testing.assert_array_equal(plain, profiled)
    np.testing.assert_array_equal(model.forward(x), plain)  # after detach


def test_double_attach_rejected():
    model = _model()
    profiler = LayerProfiler()
    profiler.attach(model)
    with pytest.raises(RuntimeError):
        profiler.attach(model)
    profiler.detach()
    profiler.attach(model)  # fine again after detach
    profiler.detach()


def test_detach_happens_even_on_exception():
    model = _model()
    profiler = LayerProfiler()
    with pytest.raises(ValueError):
        with profiler.profile(model):
            raise ValueError("boom")
    assert profiler._patched == []
    assert "forward" not in _leaf_modules(model)[0].__dict__


def test_profiler_shares_external_registry():
    registry = MetricsRegistry()
    model = _model()
    with LayerProfiler(metrics=registry).profile(model):
        model.forward(_batch())
    keys = [k for k in registry.histograms if k.startswith("layer.forward_sec")]
    assert "layer.forward_sec{layer=Linear}" in keys


def test_param_only_backward_is_timed_once_per_leaf_layer():
    """An input_grad=False step attributes one backward to every leaf layer:
    the first conv's backward_params lands in the backward histogram, and a
    first layer on the default backward_params is not counted twice."""
    registry = MetricsRegistry()
    profiler = LayerProfiler(metrics=registry)
    x = np.random.default_rng(1).normal(size=(4, 1, 8, 8))

    def step(model):
        logits = model.forward(x)
        model.backward(np.ones_like(logits) / len(x), input_grad=False)

    cnn = build_cnn(1, 8, 3, np.random.default_rng(0), scale=0.25)
    with profiler.profile(cnn):
        step(cnn)
        conv1 = _leaf_modules(cnn)[0]
        assert "backward_params" in conv1.__dict__
    assert "backward_params" not in conv1.__dict__  # detach() restored it
    for layer, leaves in {"Conv2d": 2, "MaxPool2d": 2, "ReLU": 3, "Linear": 2}.items():
        backward = registry.histograms[f"layer.backward_sec{{layer={layer}}}"]
        assert backward.count == leaves == profiler.totals()[layer]["calls"]
        assert backward.total > 0
        assert profiler.totals()[layer]["backward_sec"] == pytest.approx(backward.total)

    # Linear overrides backward_params as well: the MLP's first parametrised
    # layer is timed through it — once, beside the two full backwards.  The
    # Flatten in front of it is skipped altogether.
    registry = MetricsRegistry()
    mlp = build_mlp(64, 4, np.random.default_rng(0), (8,), feature_dim=8)
    with LayerProfiler(metrics=registry).profile(mlp):
        step(mlp)
        assert all(
            ("backward_params" in leaf.__dict__) == (type(leaf).__name__ == "Linear")
            for leaf in _leaf_modules(mlp)
        )
    assert registry.histograms["layer.backward_sec{layer=Linear}"].count == 3
    assert registry.histograms["layer.backward_sec{layer=Flatten}"].count == 0

    # A first layer on the default backward_params (the LSTM's Embedding) is
    # covered by the patched backward the default calls: once, not twice.
    registry = MetricsRegistry()
    lstm = build_lstm_classifier(30, 2, np.random.default_rng(0), scale=0.1)
    x = np.random.default_rng(1).integers(0, 30, size=(4, 7))
    with LayerProfiler(metrics=registry).profile(lstm):
        step(lstm)
        embedding = _leaf_modules(lstm)[0]
        assert type(embedding).__name__ == "Embedding"
        assert "backward_params" not in embedding.__dict__
    assert registry.histograms["layer.backward_sec{layer=Embedding}"].count == 1
