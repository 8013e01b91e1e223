"""Byte gates for the CNN train step's second pass.

``col2im`` is one product with a memoized 0/1 CSR fold matrix and
``ReLU.forward`` is ``fmax`` + ``+0.0`` into a C-ordered output; both
must carry **the bits** of the frozen ``col2im_reference`` /
``relu_reference`` in float32 and float64 — ``tobytes()`` throughout, so
a ``-0.0`` for a ``+0.0`` fails — and a ``cnn`` must train to the flat
parameters the parent commit trained to.
"""

import copy
import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import ArrayDataset
from repro.fl.client import local_sgd_steps
from repro.fl.config import FLConfig
from repro.models import build_cnn
from repro.nn.conv import _FOLD_SAMPLES, _fold_matrix, _gather_index, col2im
from repro.nn.dtype import default_dtype
from repro.nn.reference import col2im_reference, relu_reference
from repro.nn.serialization import get_flat_params
from tests.fl.test_client import _held_caches

DTYPES = [np.float32, np.float64]


def _cols(rng, x_shape, kernel, stride, padding, dtype):
    """Random columns for ``x_shape`` with both zeros injected."""
    batch, channels, height, width = x_shape
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    cols = rng.normal(size=(batch * out_h * out_w, channels * kernel * kernel)).astype(dtype)
    cols[rng.random(cols.shape) < 0.15] = 0.0
    cols[rng.random(cols.shape) < 0.15] = -0.0
    return cols, out_h, out_w


def _assert_fold_is_the_reference(cols, x_shape, kernel, stride, padding, out_h, out_w):
    args = (x_shape, kernel, stride, padding, out_h, out_w)
    image, expected = col2im(cols, *args), col2im_reference(cols, *args)
    assert image.shape == expected.shape and image.dtype == expected.dtype
    assert image.tobytes() == np.ascontiguousarray(expected).tobytes()
    # Fresh, caller-owned memory: not a crop of a padded buffer, not scratch.
    assert image.flags.c_contiguous and image.flags.owndata and image.flags.writeable


# -- col2im ---------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("kernel", [3, 4, 5])
def test_col2im_is_the_reference_bytes(rng, kernel, stride, padding, dtype):
    # Batches below, at and across the sample block, on a non-square image.
    for batch in (1, _FOLD_SAMPLES - 1, _FOLD_SAMPLES, _FOLD_SAMPLES + 1, 32):
        x_shape = (batch, 2, 7, 10)
        cols, out_h, out_w = _cols(rng, x_shape, kernel, stride, padding, dtype)
        _assert_fold_is_the_reference(cols, x_shape, kernel, stride, padding, out_h, out_w)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("padding", [0, 1])
def test_pixels_no_window_covers_are_positive_zero(rng, padding, dtype):
    """stride > kernel: whole rows and columns of the input receive nothing."""
    x_shape = (_FOLD_SAMPLES + 2, 3, 9, 8)
    cols, out_h, out_w = _cols(rng, x_shape, 2, 3, padding, dtype)
    _assert_fold_is_the_reference(cols, x_shape, 2, 3, padding, out_h, out_w)
    image = col2im(cols, x_shape, 2, 3, padding, out_h, out_w)
    uncovered = image[:, :, 2 - padding :: 3, :]
    assert uncovered.size and not uncovered.any() and not np.signbit(uncovered).any()


def test_col2im_takes_columns_that_are_not_contiguous(rng):
    x_shape = (3, 2, 6, 6)
    cols, out_h, out_w = _cols(rng, x_shape, 3, 1, 1, np.float64)
    strided = np.repeat(cols, 2, axis=1)[:, ::2]
    assert not strided.flags.c_contiguous
    _assert_fold_is_the_reference(strided, x_shape, 3, 1, 1, out_h, out_w)


def test_fold_rows_hold_the_reference_order_unsorted():
    """Within a pixel's row the slots run in (ki, kj) order, which is
    *descending* slot order: sorting the indices would reorder the sum."""
    fold = _fold_matrix(1, 1, 4, 4, 3, 1, 1, 4, 4, np.dtype(np.float64))
    assert fold.shape == (16, 16 * 9) and fold.nnz == 100  # (2 + 3 + 3 + 2) ** 2
    row = fold.indices[fold.indptr[5] : fold.indptr[6]]  # pixel (1, 1): all 9 offsets
    out_pos, offset = np.divmod(row, 9)
    assert offset.tolist() == list(range(9))
    assert (np.diff(out_pos) < 0).all() and (np.diff(row) < 0).all()
    assert (fold.data == 1.0).all()


def test_memoized_tables_are_shared_read_only_and_bounded():
    key = (2, 5, 6, 3, 1, 1, 5, 6)
    dtype = np.dtype(np.float32)
    fold = _fold_matrix(_FOLD_SAMPLES, *key, dtype)
    assert _fold_matrix(_FOLD_SAMPLES, *key, dtype) is fold
    assert fold.dtype == dtype and fold.indices.dtype == np.int32
    index = _gather_index(2, 7, 8, 3, 1, 5, 6)
    assert nn.conv.Im2colWorkspace((4, 2, 5, 6), dtype, 3, 1, 1).index is index
    for table in (fold.data, fold.indices, fold.indptr, index):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
    for memo in (_fold_matrix, _gather_index):
        assert memo.cache_info().maxsize is not None
    # The block's size is fixed: no batch builds a larger table.
    before = _fold_matrix.cache_info().currsize
    x_shape = (3 * _FOLD_SAMPLES, *key[:3])
    cols, out_h, out_w = _cols(np.random.default_rng(0), x_shape, 3, 1, 1, dtype)
    col2im(cols, x_shape, 3, 1, 1, out_h, out_w)
    assert _fold_matrix.cache_info().currsize == before


def test_tables_stay_out_of_the_model(rng):
    """The tables are the process's, not a layer's: a trained model holds
    none, and neither does a pickle or a deep copy of one."""
    model = build_cnn(1, 8, 3, rng, scale=0.25)
    data = ArrayDataset(rng.normal(size=(20, 1, 8, 8)), rng.integers(0, 3, 20))
    loss = nn.SoftmaxCrossEntropy()
    loss.forward(model.forward(data.x[:9]), data.y[:9])
    model.backward(loss.backward())  # conv2's input gradient: folds are built
    assert _fold_matrix.cache_info().currsize
    for clone in (model, copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert b"scipy" not in pickle.dumps(clone)
    config = FLConfig(rounds=1, local_steps=2, batch_size=9, lr=0.1)
    local_sgd_steps(model, data, config, np.random.default_rng(1))
    assert _held_caches(model) == []
    frozen = pickle.dumps(model)
    assert len(frozen) < 4 * get_flat_params(model).nbytes  # data + grad + framing


_LAZY_SCIPY = """
import sys
import numpy as np
from repro import nn
from repro.models import build_cnn, build_mlp

rng = np.random.default_rng(0)
loss = nn.SoftmaxCrossEntropy()
mlp = build_mlp(48, 4, rng, (16,), feature_dim=8)
loss.forward(mlp.forward(rng.normal(size=(6, 3, 4, 4))), rng.integers(0, 4, 6))
mlp.backward(loss.backward())
cnn = build_cnn(1, 8, 3, rng, scale=0.25)
cnn.eval()
cnn.forward(rng.normal(size=(6, 1, 8, 8)))
assert "scipy" not in sys.modules, "loaded before any Conv2d input gradient"
cnn.train()
loss.forward(cnn.forward(rng.normal(size=(6, 1, 8, 8))), rng.integers(0, 3, 6))
cnn.backward(loss.backward())
assert "scipy.sparse" in sys.modules
"""


def test_scipy_is_loaded_by_the_first_fold_and_not_before():
    """The MLP and LSTM cells, and every forward-only CNN pass, never
    import scipy: only the fold-table builder does."""
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCIPY],
        cwd=Path(__file__).resolve().parents[2],
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# -- ReLU -----------------------------------------------------------------------


def _special_values(dtype):
    info = np.finfo(dtype)
    magnitudes = [0.0, info.smallest_subnormal, info.tiny, 1.0, info.max, np.inf]
    values = [sign * m for m in magnitudes for sign in (1.0, -1.0)] + [np.nan, -np.nan]
    return np.array(values, dtype=dtype)


def _layouts(values):
    """The special values as a C-ordered batch, a conv output (a
    transposed view of (B, OH, OW, O) memory) and a strided slice."""
    tiled = np.tile(values, 2 * 3 * 4).reshape(2, 3, 4, values.size)
    yield "c-ordered", np.ascontiguousarray(tiled.transpose(0, 3, 1, 2))
    yield "conv-transposed", tiled.transpose(0, 3, 1, 2)
    yield "sliced", np.tile(values, (5, 3))[::2, 1::2]
    yield "flat", values


@pytest.mark.parametrize("dtype", DTYPES)
def test_relu_is_the_reference_bytes_on_special_values(rng, dtype):
    values = _special_values(dtype)
    for name, x in _layouts(values):
        layer = nn.ReLU()
        out, expected = layer.forward(x), relu_reference(x)
        assert out.dtype == expected.dtype == dtype, name
        assert out.tobytes() == np.ascontiguousarray(expected).tobytes(), name
        assert out.flags.c_contiguous and layer._mask.flags.c_contiguous, name
        assert layer._mask.dtype == bool and np.array_equal(layer._mask, x > 0), name
        # Gradients holding negatives and both zeros.
        grad_out = rng.normal(size=x.shape).astype(dtype)
        grad_out.reshape(-1)[::3] = 0.0
        grad_out.reshape(-1)[1::5] = -0.0
        grad = layer.backward(grad_out)
        assert grad.dtype == dtype, name
        assert grad.tobytes() == np.ascontiguousarray(grad_out * (x > 0)).tobytes(), name


@pytest.mark.parametrize("dtype", DTYPES)
def test_relu_is_the_reference_bytes_on_random_activations(rng, dtype):
    base = rng.normal(size=(6, 5, 5, 4)).astype(dtype)
    x = base.transpose(0, 3, 1, 2)
    assert nn.ReLU().forward(x).tobytes() == np.ascontiguousarray(relu_reference(x)).tobytes()


def test_relu_leaves_its_input_alone(rng):
    x = rng.normal(size=(4, 6))
    kept = x.copy()
    out = nn.ReLU().forward(x)
    assert out is not x and not np.shares_memory(out, x)
    np.testing.assert_array_equal(x, kept)


# -- the whole step -------------------------------------------------------------

# (image side, in-channels, dtype) -> (scalars, blake2b-128 of the flat
# parameters) after three local steps of batch 9 — one fold block plus a
# one-sample remainder — RECORDED FROM THE PARENT, whose col2im was the
# copy-and-loop and whose ReLU was np.where.  K = 5 at 16x16, K = 3 at 12x12.
PARENT_TRAINED = {
    (16, 1, "float64"): (36965, "939f92695af43c80998437e0329591c5"),
    (16, 1, "float32"): (36965, "07b10d39dbe801eea6b00a139a2c90e2"),
    (16, 3, "float64"): (37365, "9dcf957c68a4c685e0e51ec4987f61bb"),
    (16, 3, "float32"): (37365, "126e3f847c38723cc3cfafa8316b6c30"),
    (12, 1, "float64"): (20453, "58e5e43851513692e57c1057dda62ac0"),
    (12, 1, "float32"): (20453, "1e309b0f4b3da14b904cd9e97bfa0192"),
    (12, 3, "float64"): (20597, "55fd74944f748c968651ed6262e3df26"),
    (12, 3, "float32"): (20597, "d525d320df60b0da9732dcd59de5034f"),
}


@pytest.mark.parametrize("side,channels,dtype", PARENT_TRAINED)
def test_three_train_steps_reach_the_parents_parameters(side, channels, dtype):
    size, digest = PARENT_TRAINED[side, channels, dtype]
    with default_dtype(dtype):
        model = build_cnn(channels, side, 5, np.random.default_rng(20), scale=0.25)
        gen = np.random.default_rng(21)
        data = ArrayDataset(
            gen.normal(size=(40, channels, side, side)), gen.integers(0, 5, 40)
        )
        config = FLConfig(rounds=1, local_steps=3, batch_size=9, lr=0.1, dtype=dtype)
        local_sgd_steps(model, data, config, np.random.default_rng(22))
        flat = get_flat_params(model)
    assert flat.dtype == dtype and flat.size == size
    assert hashlib.blake2b(flat.tobytes(), digest_size=16).hexdigest() == digest
