"""The memoized module topology: never stale, never reordered.

``Module.modules()`` / ``parameters()`` are discovered once and kept; the
flat parameter vector's layout is their order, so the order is pinned
against an un-memoized walk kept here and against digests recorded from
the parent commit (the recursive ``vars()`` walk), and every structural
change has to drop the memo of every ancestor.
"""

from __future__ import annotations

import copy
import hashlib
import pickle

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import ArrayDataset
from repro.fl.client import compute_mean_embedding, local_sgd_steps
from repro.fl.config import FLConfig
from repro.models import (
    build_cnn,
    build_logistic,
    build_lstm_classifier,
    build_mlp,
)
from repro.nn.module import Module, Parameter
from repro.nn.reference import _REFERENCE_CLASSES, as_reference
from repro.nn.serialization import get_flat_params, set_flat_params
from repro.obs.profiler import LayerProfiler, _leaf_modules


def reference_parameters(module: Module) -> list[Parameter]:
    """The parent commit's ``Module.parameters``: a fresh recursive walk."""
    params: list[Parameter] = []
    for value in vars(module).values():
        if isinstance(value, Parameter):
            params.append(value)
        elif isinstance(value, Module):
            params.extend(reference_parameters(value))
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Module):
                    params.extend(reference_parameters(item))
                elif isinstance(item, Parameter):
                    params.append(item)
    return params


def reference_modules(module: Module) -> list[Module]:
    found = [module]
    for value in vars(module).values():
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, Module):
                found.extend(reference_modules(item))
    return found


# name -> (builder, number of scalars, blake2b-128 of get_flat_params for
# a default_rng(19) build) — sizes and digests RECORDED FROM THE PARENT.
ZOO = {
    "cnn-k5": (lambda rng: build_cnn(1, 16, 10, rng, scale=0.25),
               37610, "413304906a9754d15791acdbe66c474b"),
    "cnn-k3": (lambda rng: build_cnn(3, 8, 10, rng, scale=0.25),
               11002, "9bdeee52ffa3e6471b7b9a1de060aad6"),
    "mlp": (lambda rng: build_mlp(64, 10, rng, (16,), feature_dim=8),
            1266, "ce78ae4951877819b30b579cc325cb82"),
    "logistic": (lambda rng: build_logistic(64, 10, rng),
                 4810, "2f6849c9351800c2a7b34fd7d086796f"),
    "lstm": (lambda rng: build_lstm_classifier(30, 2, rng, scale=0.1),
             10148, "1752803c37fd1f37461b8196984a8910"),
}


def _build(name: str):
    return ZOO[name][0](np.random.default_rng(19))


def _same_objects(left, right) -> bool:
    left, right = list(left), list(right)
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


# -- order ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ZOO)
def test_order_is_the_reference_walks_and_the_parents_bytes(name):
    model = _build(name)
    _builder, size, digest = ZOO[name]
    for _ in range(2):  # the first call builds the memo, the second reads it
        assert _same_objects(model.parameters(), reference_parameters(model))
        assert _same_objects(model.modules(), reference_modules(model))
    assert _same_objects(model.features.parameters(), reference_parameters(model.features))
    flat = get_flat_params(model)
    assert flat.size == size
    assert hashlib.blake2b(flat.tobytes(), digest_size=16).hexdigest() == digest


def test_a_parameter_after_a_child_keeps_its_place(rng):
    """Discovery is attribute order, not 'own parameters first'."""

    class Tail(Module):
        def __init__(self):
            super().__init__()
            self.child = nn.Linear(2, 2, rng=rng)
            self.scale = Parameter(np.ones(2))
            self.pair = (nn.Linear(2, 1, rng=rng), Parameter(np.zeros(1)))

    tail = Tail()
    assert _same_objects(tail.parameters(), reference_parameters(tail))
    assert tail.parameters()[2] is tail.scale
    assert tail.modules() == (tail, tail.child, tail.pair[0])


def test_parameters_returns_a_new_list_each_call():
    model = _build("mlp")
    first = model.parameters()
    first.clear()  # a caller may do what it likes with its list
    assert len(model.parameters()) == 6
    assert model.parameters() is not model.parameters()


# -- invalidation ---------------------------------------------------------------


def test_sequential_append_rebuilds(rng):
    model = nn.Sequential(nn.Linear(4, 3, rng=rng))
    assert len(model.parameters()) == 2
    extra = nn.Linear(3, 2, rng=rng)
    model.append(nn.ReLU())
    model.append(extra)
    assert _same_objects(model.parameters(), reference_parameters(model))
    assert model.modules()[-1] is extra


def test_replacing_a_child_attribute_rebuilds(rng):
    model = _build("mlp")
    old_head = model.head
    assert old_head.weight in model.parameters()
    model.head = nn.Linear(8, 3, rng=rng)
    assert _same_objects(model.parameters(), reference_parameters(model))
    assert old_head.weight not in model.parameters()
    assert old_head not in model.modules()


def test_replacing_a_layer_of_a_nested_sequential_drops_the_ancestors_memo(rng):
    inner = nn.Sequential(nn.Linear(4, 4, rng=rng), nn.ReLU())
    outer = nn.Sequential(inner, nn.Linear(4, 2, rng=rng))
    model = nn.Sequential(outer)
    before = model.parameters()
    replacement = nn.Linear(4, 4, rng=rng)
    inner.layers = [replacement, *inner.layers[1:]]
    after = model.parameters()
    assert after[0] is replacement.weight and after[0] is not before[0]
    assert _same_objects(after, reference_parameters(model))
    assert _same_objects(model.modules(), reference_modules(model))
    # backward_params asks each layer whether it has parameters.
    model.forward(rng.normal(size=(3, 4)))
    model.backward_params(np.ones((3, 2)))
    assert np.any(replacement.weight.grad != 0.0)


def test_assigning_a_new_parameter_rebuilds(rng):
    layer = nn.Linear(3, 2, rng=rng)
    model = nn.Sequential(layer)
    assert len(model.parameters()) == 2
    layer.gain = Parameter(np.ones(2))
    assert model.parameters()[-1] is layer.gain
    layer.bias = Parameter(np.zeros(2))
    assert _same_objects(model.parameters(), reference_parameters(model))


def test_assigning_none_over_a_child_drops_it(rng):
    model = _build("mlp")
    model.parameters()
    head = model.head
    model.head = None
    assert head not in model.modules()
    assert _same_objects(model.parameters(), reference_parameters(model))
    layers = nn.Sequential(nn.Linear(2, 2, rng=rng))
    layers.parameters()
    layers.layers = []
    assert layers.parameters() == []


def test_non_structural_assignments_keep_the_memo(rng):
    model = _build("cnn-k5")
    memos = [module._walk() for module in model.modules()]
    pool = next(m for m in model.modules() if isinstance(m, nn.MaxPool2d))
    linear = model.head
    linear._x = rng.normal(size=(2, 3))
    pool._weights = [np.zeros(3), np.ones(3)]  # a list, but of arrays
    pool._x_shape = (2, 4, 8, 8)
    model.eval()
    model.train()
    model.forward(rng.normal(size=(2, 1, 16, 16)))
    model.backward(np.ones((2, 10)), input_grad=False)
    model.zero_grad()
    model.free_buffers()
    profiler = LayerProfiler().attach(model)  # instance-level method overrides
    model.forward(rng.normal(size=(2, 1, 16, 16)))
    profiler.detach()
    assert all(m._walk() is memo for m, memo in zip(model.modules(), memos))


# -- copies ---------------------------------------------------------------------


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("name", ["mlp", "lstm"])
def test_a_copys_topology_is_its_own(name, clone):
    """MOON's ``_frozen = copy.deepcopy(model)``: its weights are
    overwritten before every use and the live model must not notice."""
    model = _build(name)
    model.parameters()  # the original holds a memo when it is copied
    twin = clone(model)
    assert _same_objects(twin.parameters(), reference_parameters(twin))
    assert _same_objects(twin.modules(), reference_modules(twin))
    assert not set(map(id, twin.parameters())) & set(map(id, model.parameters()))
    assert not set(map(id, twin.modules())) & set(map(id, model.modules()))
    before = get_flat_params(model)
    set_flat_params(twin, np.zeros(before.size))
    twin.eval()
    np.testing.assert_array_equal(get_flat_params(model), before)
    assert np.all(get_flat_params(twin) == 0.0)
    assert model.training and all(m.training for m in model.modules())


def test_the_memo_does_not_travel_in_a_pickle():
    model = _build("mlp")
    bare = pickle.dumps(model)
    model.parameters()
    assert len(pickle.dumps(model)) == len(bare)


# -- the other readers ----------------------------------------------------------


@pytest.mark.parametrize("name", ["cnn-k5", "lstm", "mlp"])
def test_as_reference_swaps_every_kernel_layer_and_keeps_the_parameters(name):
    model = _build(name)
    params = model.parameters()
    kernels = [m for m in model.modules() if type(m) in _REFERENCE_CLASSES]
    twins = [_REFERENCE_CLASSES[type(m)] for m in kernels]
    assert kernels or name == "mlp"
    assert as_reference(model) is model
    assert [type(m) for m in kernels] == twins
    assert not any(type(m) in _REFERENCE_CLASSES for m in model.modules())
    assert _same_objects(model.parameters(), params)


@pytest.mark.parametrize("name", ZOO)
def test_leaf_modules_are_the_modules_without_children(name):
    model = _build(name)
    expected = [m for m in reference_modules(model) if len(reference_modules(m)) == 1]
    assert _same_objects(_leaf_modules(model), expected)
    assert len(set(map(id, expected))) == len(expected)  # each patched exactly once


# -- cost -----------------------------------------------------------------------


def test_three_clients_of_local_training_walk_each_tree_once(monkeypatch):
    """The parent re-walked the tree ~11 times per client."""
    rebuilt = []
    original = Module._walk

    def counting(self):
        before = vars(self).get("_topology")
        memo = original(self)
        if memo is not before:
            rebuilt.append(self)
        return memo

    monkeypatch.setattr(Module, "_walk", counting)
    model = _build("mlp")
    gen = np.random.default_rng(0)
    data = ArrayDataset(gen.normal(size=(24, 64)), gen.integers(0, 10, 24))
    config = FLConfig(rounds=1, local_steps=2, batch_size=8, lr=0.1)
    start = get_flat_params(model)
    for client in range(3):
        set_flat_params(model, start)
        local_sgd_steps(model, data, config, np.random.default_rng(client))
        get_flat_params(model)
        compute_mean_embedding(model, data, batch_size=16)
    # One memo per module of the tree, built once each, whatever the
    # number of clients and steps.
    assert _same_objects(sorted(rebuilt, key=id), sorted(model.modules(), key=id))


def test_a_memoized_model_is_not_a_reference_cycle():
    """A memo that named its own module would pin every model (and its
    parameter and gradient arrays) until the cycle collector ran."""
    import gc
    import weakref

    gc.collect()
    gc.disable()
    try:
        model = _build("mlp")
        model.parameters(), model.features.modules()
        model.forward(np.zeros((2, 64)))
        alive = [weakref.ref(model), weakref.ref(model.features), weakref.ref(model.head.weight)]
        del model
        assert [ref() for ref in alive] == [None, None, None]
    finally:
        gc.enable()
