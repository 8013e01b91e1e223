"""Functional helper tests (with hypothesis property tests): ``clip_by_norm``
and the softmax of ``tests.helpers``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.functional import clip_by_norm
from tests.helpers import log_softmax, softmax

finite_rows = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(2, 6)),
    elements=st.floats(-50, 50),
)


@given(finite_rows)
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(logits):
    probs = softmax(logits)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
    assert (probs >= 0).all()


@given(finite_rows)
@settings(max_examples=50, deadline=None)
def test_softmax_shift_invariance(logits):
    np.testing.assert_allclose(softmax(logits), softmax(logits + 123.0), atol=1e-12)


@given(finite_rows)
@settings(max_examples=50, deadline=None)
def test_log_softmax_consistent_with_softmax(logits):
    np.testing.assert_allclose(np.exp(log_softmax(logits)), softmax(logits), atol=1e-10)


def test_softmax_no_overflow_with_huge_values():
    probs = softmax(np.array([[1e308, 0.0]]))
    assert np.isfinite(probs).all()


@given(
    hnp.arrays(np.float64, st.integers(1, 20), elements=st.floats(-100, 100)),
    st.floats(0.1, 10.0),
)
@settings(max_examples=50, deadline=None)
def test_clip_by_norm_bounds_norm(vec, max_norm):
    clipped = clip_by_norm(vec, max_norm)
    assert np.linalg.norm(clipped) <= max_norm + 1e-9


def test_clip_by_norm_identity_when_small():
    vec = np.array([0.1, 0.1])
    np.testing.assert_array_equal(clip_by_norm(vec, 10.0), vec)


def test_clip_by_norm_preserves_direction():
    vec = np.array([3.0, 4.0])
    clipped = clip_by_norm(vec, 1.0)
    np.testing.assert_allclose(clipped, [0.6, 0.8])


def test_clip_zero_vector():
    np.testing.assert_array_equal(clip_by_norm(np.zeros(3), 1.0), np.zeros(3))
