"""The global dtype policy: float32 training without silent upcasts.

Covers the policy primitives (:mod:`repro.nn.dtype`), dtype threading
through parameters / initializers / layers / serialization, the
federated ``FLConfig(dtype=...)`` plumbing, and ``Module.free_buffers``.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.dtype import astype_default
from repro.nn.initializers import glorot_uniform
from repro.nn.module import Parameter
from repro.nn.serialization import get_flat_grads, get_flat_params, set_flat_params


# -- policy primitives ----------------------------------------------------------


def test_default_policy_is_float64():
    assert nn.get_default_dtype() == np.float64


def test_set_and_restore_default_dtype():
    nn.set_default_dtype("float32")
    try:
        assert nn.get_default_dtype() == np.float32
    finally:
        nn.set_default_dtype("float64")
    assert nn.get_default_dtype() == np.float64


def test_default_dtype_context_restores_on_exit_and_error():
    with nn.default_dtype("float32"):
        assert nn.get_default_dtype() == np.float32
        with nn.default_dtype(np.float64):
            assert nn.get_default_dtype() == np.float64
        assert nn.get_default_dtype() == np.float32
    assert nn.get_default_dtype() == np.float64

    with pytest.raises(RuntimeError):
        with nn.default_dtype("float32"):
            raise RuntimeError("boom")
    assert nn.get_default_dtype() == np.float64


def test_invalid_dtype_rejected():
    with pytest.raises(Exception):
        nn.set_default_dtype("int32")


def test_astype_default_casts_floats_and_passes_ints():
    with nn.default_dtype("float32"):
        assert astype_default(np.zeros(3)).dtype == np.float32
        tokens = np.arange(4, dtype=np.int64)
        assert astype_default(tokens).dtype == np.int64


# -- parameters and initializers -------------------------------------------------


def test_parameter_casts_to_policy_dtype():
    with nn.default_dtype("float32"):
        p = Parameter(np.zeros((2, 3)))
    assert p.data.dtype == np.float32
    assert p.grad.dtype == np.float32


def test_initializer_stream_identical_across_policies():
    """Initializers sample in float64 and cast once, so a float32 model
    starts at exactly the float32 cast of the float64 model."""
    w64 = glorot_uniform(np.random.default_rng(9), (6, 5), 6, 5)
    with nn.default_dtype("float32"):
        w32 = glorot_uniform(np.random.default_rng(9), (6, 5), 6, 5)
    assert w64.dtype == np.float64
    assert w32.dtype == np.float32
    np.testing.assert_array_equal(w32, w64.astype(np.float32))


# -- layers stay in float32 end to end -------------------------------------------


def _f32_cnn():
    r = np.random.default_rng(4)
    return nn.Sequential(
        nn.Conv2d(1, 3, 3, padding=1, rng=r), nn.ReLU(), nn.MaxPool2d(2),
        nn.Flatten(), nn.Linear(3 * 4 * 4, 4, rng=r),
    )


@pytest.mark.parametrize(
    "build,make_input",
    [
        (
            _f32_cnn,
            lambda rng: rng.normal(size=(2, 1, 8, 8)).astype(np.float32),
        ),
        (
            lambda: nn.Sequential(
                nn.Linear(6, 5, rng=np.random.default_rng(1)),
                nn.Sigmoid(),
                nn.Dropout(0.5, seed=2),
                nn.Linear(5, 3, rng=np.random.default_rng(3)),
            ),
            lambda rng: rng.normal(size=(4, 6)).astype(np.float32),
        ),
        (
            lambda: nn.Sequential(
                nn.Embedding(11, 4, rng=np.random.default_rng(1)),
                nn.LSTM(4, 5, num_layers=2, rng=np.random.default_rng(2)),
                nn.LastTimestep(),
                nn.Linear(5, 3, rng=np.random.default_rng(3)),
            ),
            lambda rng: rng.integers(0, 11, size=(3, 6)),
        ),
    ],
    ids=["cnn", "mlp-dropout", "lstm"],
)
def test_float32_model_never_upcasts(rng, build, make_input):
    with nn.default_dtype("float32"):
        model = build()
    x = make_input(rng)
    out = model(x)
    assert out.dtype == np.float32
    grad_in = model.backward(np.ones_like(out))
    if np.issubdtype(x.dtype, np.floating):
        assert grad_in.dtype == np.float32
    for p in model.parameters():
        assert p.data.dtype == np.float32, p.name
        assert p.grad.dtype == np.float32, p.name


def test_lstm_cell_state_follows_input_dtype():
    with nn.default_dtype("float32"):
        cell = nn.LSTMCell(3, 4, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(2, 5, 3)).astype(np.float32)
    hs = cell.forward(x)
    assert hs.dtype == np.float32
    assert all(
        arr.dtype == np.float32
        for arr in cell._cache.values()
    )


# -- serialization ---------------------------------------------------------------


def test_flat_params_round_trip_preserves_float32():
    with nn.default_dtype("float32"):
        model = nn.Sequential(nn.Linear(4, 3, rng=np.random.default_rng(0)))
    flat = get_flat_params(model)
    assert flat.dtype == np.float32
    set_flat_params(model, flat * 2.0)
    assert model.parameters()[0].data.dtype == np.float32
    assert get_flat_grads(model).dtype == np.float32


# -- SplitModel casts incoming data ---------------------------------------------


def test_split_model_casts_input_to_policy():
    from repro.models import build_mlp

    with nn.default_dtype("float32"):
        model = build_mlp(6, 3, np.random.default_rng(0), (5,), feature_dim=4)
        out = model(np.random.default_rng(1).normal(size=(2, 6)))  # float64 in
        assert out.dtype == np.float32


# -- federated plumbing ----------------------------------------------------------


def test_flconfig_rejects_bad_dtype():
    from repro.exceptions import ConfigError
    from repro.fl.config import FLConfig

    with pytest.raises(ConfigError):
        FLConfig(rounds=1, dtype="float16")


def test_run_federated_float32_smoke(toy_federation, fast_config):
    from repro.algorithms import make_algorithm
    from repro.fl.trainer import run_federated
    from tests.helpers import tiny_model_fn

    config = fast_config.with_updates(rounds=2, dtype="float32")
    algorithm = make_algorithm("fedavg")
    history = run_federated(
        algorithm, toy_federation, tiny_model_fn(toy_federation), config
    )
    assert algorithm.global_params.dtype == np.float32
    assert len(history.records) == 2
    # The policy is scoped to the run, not leaked into the process.
    assert nn.get_default_dtype() == np.float64


# -- free_buffers ----------------------------------------------------------------


def test_free_buffers_drops_caches_and_next_step_works(rng):
    model = nn.Sequential(
        nn.Conv2d(1, 2, 3, padding=1, rng=np.random.default_rng(0)),
        nn.ReLU(), nn.Flatten(),
        nn.Linear(2 * 64, 3, rng=np.random.default_rng(1)),
    )
    x = rng.normal(size=(2, 1, 8, 8))
    out = model(x)
    model.backward(np.ones_like(out))
    model.free_buffers()
    conv, relu, _, linear = model.layers
    assert conv._cols is None
    assert relu._mask is None
    assert linear._x is None
    # backward without a fresh forward raises, exactly like a new module
    with pytest.raises(RuntimeError):
        model.backward(np.ones_like(out))
    # and the next forward/backward round-trips fine
    out2 = model(x)
    model.backward(np.ones_like(out2))
    np.testing.assert_array_equal(out, out2)


def test_free_buffers_on_recurrent_stack(rng):
    with nn.default_dtype("float32"):
        model = nn.Sequential(
            nn.Embedding(7, 3, rng=np.random.default_rng(0)),
            nn.LSTM(3, 4, num_layers=2, rng=np.random.default_rng(1)),
            nn.LastTimestep(),
        )
    tokens = rng.integers(0, 7, size=(2, 5))
    model(tokens)
    model.free_buffers()
    for cell in model.layers[1].cells:
        assert cell._cache is None
