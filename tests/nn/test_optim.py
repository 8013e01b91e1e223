"""Optimizer and schedule tests."""

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Parameter
from repro.nn.optim import make_optimizer


def _param(value):
    return Parameter(np.array([value], dtype=np.float64))


def test_sgd_single_step():
    p = _param(1.0)
    p.grad[...] = 0.5
    nn.SGD([p], lr=0.1).step()
    np.testing.assert_allclose(p.data, [0.95])


def test_sgd_momentum_accumulates():
    p = _param(0.0)
    opt = nn.SGD([p], lr=1.0, momentum=0.9)
    p.grad[...] = 1.0
    opt.step()  # v=1 -> p=-1
    p.grad[...] = 1.0
    opt.step()  # v=1.9 -> p=-2.9
    np.testing.assert_allclose(p.data, [-2.9])


def test_sgd_weight_decay():
    p = _param(1.0)
    p.grad[...] = 0.0
    nn.SGD([p], lr=0.1, weight_decay=0.5).step()
    np.testing.assert_allclose(p.data, [1.0 - 0.1 * 0.5])


def test_rmsprop_normalizes_gradient_scale():
    big, small = _param(0.0), _param(0.0)
    opt_big = nn.RMSProp([big], lr=0.1)
    opt_small = nn.RMSProp([small], lr=0.1)
    for _ in range(20):
        big.grad[...] = 100.0
        small.grad[...] = 0.01
        opt_big.step()
        opt_small.step()
    # RMSProp steps depend on gradient *direction*, not magnitude.
    assert abs(big.data[0] - small.data[0]) < 0.05 * abs(big.data[0])


def test_constant_schedule():
    sched = nn.ConstantLR(0.05)
    assert sched.rate(0) == sched.rate(1000) == 0.05


def test_inverse_decay_schedule_matches_theory_form():
    sched = nn.InverseDecayLR(scale=2.0, gamma=8.0)
    assert sched.rate(0) == pytest.approx(0.25)
    assert sched.rate(8) == pytest.approx(0.125)
    # Monotone decreasing.
    rates = [sched.rate(t) for t in range(50)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_inverse_decay_invalid_gamma():
    with pytest.raises(ValueError):
        nn.InverseDecayLR(scale=1.0, gamma=0.0)


def test_zero_grad_clears_params(rng):
    model = nn.Sequential(nn.Linear(3, 3, rng=rng))
    opt = nn.SGD(model.parameters(), lr=0.1)
    for p in model.parameters():
        p.grad += 1.0
    opt.zero_grad()
    assert all(np.all(p.grad == 0) for p in model.parameters())


def test_make_optimizer_factory():
    p = _param(0.0)
    assert isinstance(make_optimizer("sgd", [p], 0.1), nn.SGD)
    assert isinstance(make_optimizer("RMSProp", [p], 0.1), nn.RMSProp)
    for name in ("nope", "adam"):
        with pytest.raises(ValueError):
            make_optimizer(name, [p], 0.1)


def test_optimizer_uses_schedule_per_step():
    p = _param(0.0)
    opt = nn.SGD([p], lr=nn.InverseDecayLR(scale=1.0, gamma=1.0))
    p.grad[...] = 1.0
    opt.step()  # lr = 1/(1+0) = 1
    np.testing.assert_allclose(p.data, [-1.0])
    p.grad[...] = 1.0
    opt.step()  # lr = 1/(1+1) = 0.5
    np.testing.assert_allclose(p.data, [-1.5])


def test_step_offset_shifts_schedule():
    p = _param(0.0)
    opt = nn.SGD([p], lr=nn.InverseDecayLR(scale=1.0, gamma=1.0))
    opt.step_count = 9
    assert opt.current_lr == pytest.approx(0.1)


def test_grad_clipping_scales_global_norm():
    a, b = _param(0.0), _param(0.0)
    a.grad[...] = 3.0
    b.grad[...] = 4.0  # global norm 5
    opt = nn.SGD([a, b], lr=1.0, max_grad_norm=1.0)
    opt.step()
    # Clipped to norm 1 -> grads (0.6, 0.8).
    np.testing.assert_allclose(a.data, [-0.6])
    np.testing.assert_allclose(b.data, [-0.8])


def test_grad_clipping_noop_below_threshold():
    p = _param(0.0)
    p.grad[...] = 0.5
    nn.SGD([p], lr=1.0, max_grad_norm=10.0).step()
    np.testing.assert_allclose(p.data, [-0.5])


def test_grad_clipping_invalid():
    with pytest.raises(ValueError):
        nn.SGD([_param(0.0)], lr=0.1, max_grad_norm=0.0)


def test_grad_clipping_available_on_all_optimizers():
    for cls in (nn.SGD, nn.RMSProp):
        p = _param(0.0)
        p.grad[...] = 100.0
        opt = cls([p], lr=0.1, max_grad_norm=1.0)
        opt.step()
        assert np.isfinite(p.data).all()
