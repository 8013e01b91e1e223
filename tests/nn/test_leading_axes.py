"""Leading axes are batch axes: slice ``k`` of a stacked call is the 2-D call.

Every layer an MLP or a logistic model is made of, the loss, the
leave-one-out regularizer and the elementwise optimizers are run on
``(K, B, ...)`` operands — contiguous stacks, and views into one
``(K, P)`` arena whose client stride is not the tensor's size — and
compared, byte for byte and in both dtypes, with ``K`` separate 2-D
calls.  Signed zeros, NaN and infinities ride along in every input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core.regularizer import DistributionRegularizer
from repro.data.dataset import ArrayDataset
from repro.exceptions import ConfigError
from repro.fl.client import compute_mean_embedding, local_sgd_steps
from repro.fl.config import FLConfig
from repro.models import build_logistic, build_mlp
from repro.nn.dtype import default_dtype
from repro.nn.optim import SGD, RMSProp
from repro.nn.serialization import get_flat_params, set_flat_params, stacked_params

K, B = 5, 6
DTYPES = ["float64", "float32"]
SPECIALS = (0.0, -0.0, np.nan, np.inf, -np.inf)


def _values(rng, shape, dtype, specials=True):
    out = rng.normal(size=shape).astype(dtype)
    if specials:
        flat = out.reshape(-1)
        spots = rng.choice(flat.size, size=min(len(SPECIALS) * 2, flat.size), replace=False)
        flat[spots] = np.resize(SPECIALS, len(spots))
    return out


def _same(stacked, slices):
    stacked = np.asarray(stacked)
    assert stacked.shape == (len(slices), *np.shape(slices[0]))
    for k, piece in enumerate(slices):
        piece = np.asarray(piece)
        assert stacked[k].dtype == piece.dtype
        assert stacked[k].tobytes() == piece.tobytes(), f"slice {k} differs"


def _arena_views(rng, dtype, shapes):
    """``(K, *shape)`` views into one ``(K, P)`` arena, padding between
    and around them: the client stride is the arena's row, not the
    tensor's size."""
    sizes = [int(np.prod(shape)) for shape in shapes]
    arena = _values(rng, (K, sum(sizes) + 3 * (len(sizes) + 1)), dtype, specials=False)
    views, offset = [], 3
    for shape, size in zip(shapes, sizes):
        view = arena[:, offset : offset + size].reshape(K, *shape)
        assert view.base is not None and not view.flags["C_CONTIGUOUS"]
        views.append(view)
        offset += size + 3
    return views


def _stacked_operands(rng, dtype, shapes, layout):
    if layout == "arena":
        return _arena_views(rng, dtype, shapes)
    return [_values(rng, (K, *shape), dtype, specials=False) for shape in shapes]


# -- Linear -----------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
@pytest.mark.parametrize("layout", ["contiguous", "arena"])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("dtype", DTYPES)
def test_linear_stacked_parameters(rng, dtype, bias, layout):
    fan_in, fan_out = 7, 4
    with default_dtype(dtype):
        layer = nn.Linear(fan_in, fan_out, rng=rng, bias=bias)
        single = nn.Linear(fan_in, fan_out, rng=rng, bias=bias)
    weights, biases = _stacked_operands(rng, dtype, [(fan_in, fan_out), (fan_out,)], layout)
    x = _values(rng, (K, B, fan_in), dtype)
    grad_out = _values(rng, (K, B, fan_out), dtype)

    layer.weight.data, layer.weight.grad = weights, np.zeros((K, fan_in, fan_out), dtype)
    if bias:
        layer.bias.data, layer.bias.grad = biases, np.zeros((K, fan_out), dtype)
    out = layer.forward(x)
    grad_in = layer.backward(grad_out)

    outs, grad_ins, weight_grads, bias_grads = [], [], [], []
    for k in range(K):
        single.weight.data[...] = weights[k]
        if bias:
            single.bias.data[...] = biases[k]
        single.zero_grad()
        outs.append(single.forward(x[k]))
        grad_ins.append(single.backward(grad_out[k]))
        weight_grads.append(single.weight.grad.copy())
        if bias:
            bias_grads.append(single.bias.grad.copy())
    _same(out, outs)
    _same(grad_in, grad_ins)
    _same(layer.weight.grad, weight_grads)
    if bias:
        _same(layer.bias.grad, bias_grads)

    # The parameter-only backward accumulates the same gradients and
    # computes no input gradient.
    layer.weight.grad[...] = 0
    if bias:
        layer.bias.grad[...] = 0
    assert layer.backward_params(grad_out) is None
    _same(layer.weight.grad, weight_grads)
    if bias:
        _same(layer.bias.grad, bias_grads)


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
@pytest.mark.parametrize("dtype", DTYPES)
def test_linear_stacked_inputs_through_one_map(rng, dtype):
    """(K, n, in) @ the 2-D weight: the second synchronization's shape."""
    with default_dtype(dtype):
        layer = nn.Linear(7, 4, rng=rng)
    layer.bias.data[...] = _values(rng, (4,), dtype, specials=False)
    x = _values(rng, (K, 9, 7), dtype)
    _same(layer.forward(x), [layer.forward(x[k]) for k in range(K)])


def test_linear_backward_before_forward_raises():
    layer = nn.Linear(3, 2)
    for method in (layer.backward, layer.backward_params):
        with pytest.raises(RuntimeError, match="before forward"):
            method(np.ones((4, 2)))


# -- Flatten, activations ------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
def test_flatten_keeps_every_axis_in_front_of_the_sample(rng, dtype):
    layer = nn.Flatten(sample_ndim=3)
    assert layer.leading_axes
    x = _values(rng, (K, B, 2, 3, 4), dtype)
    out = layer.forward(x)
    assert out.shape == (K, B, 24)
    grad = layer.backward(out)
    assert grad.shape == x.shape
    plain = nn.Flatten()
    _same(out, [plain.forward(x[k]) for k in range(K)])
    assert grad.tobytes() == x.tobytes()
    # One batch axis: the bare layer's bytes.
    assert layer.forward(x[0]).tobytes() == plain.forward(x[0]).tobytes()
    with pytest.raises(ValueError, match="no batch axis"):
        layer.forward(x[0, 0])


def test_bare_flatten_cannot_take_leading_axes(rng):
    layer = nn.Flatten()
    assert not layer.leading_axes
    assert layer.forward(rng.normal(size=(K, B, 2, 3))).shape == (K, B * 6)
    with pytest.raises(ValueError, match="sample_ndim"):
        nn.Flatten(sample_ndim=0)


@pytest.mark.parametrize("layer_type", [nn.ReLU, nn.LeakyReLU, nn.Tanh, nn.Sigmoid])
@pytest.mark.parametrize("dtype", DTYPES)
def test_activations_are_elementwise_on_any_stack(rng, dtype, layer_type):
    assert layer_type.leading_axes
    stacked, single = layer_type(), layer_type()
    x = _values(rng, (K, B, 7), dtype)
    grad_out = _values(rng, (K, B, 7), dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        out = stacked.forward(x)
        grad_in = stacked.backward(grad_out)
        outs, grad_ins = [], []
        for k in range(K):
            outs.append(single.forward(x[k]))
            grad_ins.append(single.backward(grad_out[k]))
    _same(out, outs)
    _same(grad_in, grad_ins)


def test_layers_that_draw_or_normalize_do_not_claim_leading_axes():
    assert not nn.Module.leading_axes
    assert not nn.Conv2d(1, 2, 3).leading_axes
    assert not nn.MaxPool2d(2).leading_axes
    assert not nn.Dropout(0.5).leading_axes


# -- loss and regularizer ---------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
def test_softmax_cross_entropy_gives_one_loss_a_slice(rng, dtype):
    classes = 5
    logits = _values(rng, (K, B, classes), dtype, specials=False)
    logits[1, 2, 3] = -0.0
    logits[2, 0, 1] = np.inf  # a slice whose loss is not finite stays its own
    logits[3, 4, 0] = np.nan
    labels = rng.integers(0, classes, size=(K, B))
    stacked, single = nn.SoftmaxCrossEntropy(), nn.SoftmaxCrossEntropy()
    with np.errstate(invalid="ignore"):
        losses = stacked.forward(logits, labels)
        grad = stacked.backward()
        singles, grads = [], []
        for k in range(K):
            loss = single.forward(logits[k], labels[k])
            assert isinstance(loss, float)  # the 2-D call still returns a float
            singles.append(np.asarray(loss, dtype=losses.dtype))
            grads.append(single.backward())
    assert losses.shape == (K,)
    assert np.isfinite(losses[[0, 1, 4]]).all()
    for k in range(K):
        assert float(losses[k]).hex() == float(singles[k]).hex() or (
            np.isnan(losses[k]) and np.isnan(singles[k])
        )
    _same(grad, grads)


@pytest.mark.parametrize("dtype", DTYPES)
def test_loo_regularizer_stacks_targets(rng, dtype):
    dim = 8
    regularizer = DistributionRegularizer(1e-2, mode="loo")
    features = _values(rng, (K, B, dim), dtype, specials=False)
    features[0, 1, 2] = -0.0
    features[3, 0, 0] = np.nan
    targets = rng.normal(size=(K, dim))
    with np.errstate(invalid="ignore"):
        result = regularizer.evaluate(features, targets)
        singles = [regularizer.evaluate(features[k], targets[k]) for k in range(K)]
    assert result.loss.shape == (K,)
    for k, one in enumerate(singles):
        assert isinstance(one.loss, float)
        assert float(result.loss[k]).hex() == one.loss.hex() or (
            np.isnan(result.loss[k]) and np.isnan(one.loss)
        )
    _same(result.feature_grad, [one.feature_grad for one in singles])
    with pytest.raises(ConfigError, match="reference shape"):
        regularizer.evaluate(features, targets[0])
    with pytest.raises(ConfigError, match="pairwise mode"):
        DistributionRegularizer(1e-2, mode="pairwise").evaluate(features, targets)


# -- optimizers -----------------------------------------------------------------------------


@pytest.mark.parametrize("layout", ["contiguous", "arena"])
@pytest.mark.parametrize(
    "make",
    [
        lambda params: SGD(params, 0.1),
        lambda params: SGD(params, 0.1, momentum=0.9, weight_decay=1e-3),
        lambda params: RMSProp(params, 0.01),
    ],
    ids=["sgd", "sgd-momentum-decay", "rmsprop"],
)
@pytest.mark.parametrize("dtype", DTYPES)
def test_elementwise_optimizers_update_each_row_alone(rng, dtype, make, layout):
    shapes = [(7, 4), (4,)]
    stacked = [nn.Parameter(np.zeros(shape)) for shape in shapes]
    for parameter, data in zip(stacked, _stacked_operands(rng, dtype, shapes, layout)):
        parameter.data = data
    rows = [[nn.Parameter(np.zeros(shape)) for shape in shapes] for _ in range(K)]
    for k, row in enumerate(rows):
        for parameter, block in zip(row, stacked):
            parameter.data = block.data[k].copy()
    optimizer = make(stacked)
    singles = [make(row) for row in rows]
    for _step in range(3):
        for i, shape in enumerate(shapes):
            grad = _values(rng, (K, *shape), dtype, specials=False)
            stacked[i].grad = grad
            for k, row in enumerate(rows):
                row[i].grad = grad[k].copy()
        optimizer.step()
        for single in singles:
            single.step()
    for i in range(len(shapes)):
        _same(stacked[i].data, [row[i].data for row in rows])


# -- the whole path -----------------------------------------------------------------------------


def _shards(rng, count, samples, classes, side=4):
    return [
        ArrayDataset(rng.normal(size=(samples, 1, side, side)), rng.integers(0, classes, samples))
        for _ in range(count)
    ]


@pytest.mark.parametrize("build", ["mlp", "logistic"])
@pytest.mark.parametrize("optimizer", ["sgd", "rmsprop"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_a_block_of_clients_trains_as_each_client_alone(rng, dtype, optimizer, build):
    classes = 3
    config = FLConfig(
        rounds=1, local_steps=9, batch_size=5, lr=0.05, optimizer=optimizer, dtype=dtype
    )
    regularizer = DistributionRegularizer(1e-2, mode="loo")
    targets = rng.normal(size=(K, 6 if build == "mlp" else 16))
    shards = _shards(rng, K, 11, classes)

    def hook(target):
        def evaluate(features):
            result = regularizer.evaluate(features, target)
            return result.loss, result.feature_grad

        return evaluate

    with default_dtype(dtype):
        if build == "mlp":
            model = build_mlp(16, classes, np.random.default_rng(3), (8,), 6, sample_ndim=3)
        else:
            model = build_logistic(16, classes, np.random.default_rng(3), sample_ndim=3)
        start = get_flat_params(model)
        own = [(p.data, p.grad) for p in model.parameters()]

        with stacked_params(model, start, K) as arena:
            assert all(p.data.shape[0] == K for p in model.parameters())
            results = local_sgd_steps(
                model, shards, config,
                [np.random.default_rng([7, k]) for k in range(K)],
                step_offset=4, reg_hook=hook(targets),
            )
        # The model has its own tensors back, as it left them.
        assert all(
            p.data is data and p.grad is grad
            for p, (data, grad) in zip(model.parameters(), own)
        )
        assert get_flat_params(model).tobytes() == start.tobytes()

        for k in range(K):
            set_flat_params(model, start)
            single = local_sgd_steps(
                model, shards[k], config, np.random.default_rng([7, k]),
                step_offset=4, reg_hook=hook(targets[k]),
            )
            params = get_flat_params(model)
            assert arena[k].dtype == params.dtype == np.dtype(dtype)
            assert arena[k].tobytes() == params.tobytes()
            assert results[k] == single  # more than 8 steps: a pairwise mean


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch_size", [256, 4])
def test_mean_embeddings_of_a_block_of_shards(rng, dtype, batch_size):
    with default_dtype(dtype):
        model = build_mlp(16, 3, np.random.default_rng(3), (8,), 6, sample_ndim=3)
    shards = _shards(rng, K, 11, 3)
    rows = compute_mean_embedding(model, shards, batch_size)
    assert rows.shape == (K, 6)
    _same(rows, [compute_mean_embedding(model, shard, batch_size) for shard in shards])
    assert model.training
    assert all(layer._x is None for layer in model.modules() if isinstance(layer, nn.Linear))
