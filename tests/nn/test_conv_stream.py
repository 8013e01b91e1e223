"""Byte gate for the streamed forward-only Conv2d pass.

An eval-mode ``Conv2d.forward`` unfolds and multiplies a few samples at
a time through one chunk-sized workspace.  Its output must carry the
bits of the one-shot product (``im2col`` of the whole batch, one GEMM,
the bias added) and of :func:`repro.nn.reference.im2col_reference`'s
columns multiplied the same way, at every cut of the batch into chunks
— ``tobytes()`` throughout, no tolerances.
"""

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.data.synth_cifar import make_synth_cifar
from repro.fl.client import evaluate_model
from repro.models import build_cnn
from repro.nn import conv
from repro.nn.conv import Im2colWorkspace, im2col
from repro.nn.reference import as_reference, im2col_reference

DTYPES = [np.float32, np.float64]
CHUNK = 4  # samples a chunk, set through the byte budget


def _layer(channels, out_channels, kernel, stride, padding, dtype):
    layer = nn.Conv2d(
        channels, out_channels, kernel, stride=stride, padding=padding,
        rng=np.random.default_rng(3),
    )
    layer.weight.data = layer.weight.data.astype(dtype)
    layer.bias.data = np.random.default_rng(4).normal(size=out_channels).astype(dtype)
    return layer


def _one_shot(layer, cols, batch, out_h, out_w):
    out = cols @ layer.weight.data.reshape(layer.out_channels, -1).T
    out += layer.bias.data
    return out.reshape(batch, out_h, out_w, -1).transpose(0, 3, 1, 2)


def _set_chunk(monkeypatch, samples, channels, kernel, out_h, out_w, dtype):
    """Make the byte budget cover ``samples`` samples (and a few bytes
    more, which must not buy a partial sample)."""
    sample_bytes = out_h * out_w * channels * kernel * kernel * np.dtype(dtype).itemsize
    monkeypatch.setattr(conv, "_EVAL_CHUNK_BYTES", samples * sample_bytes + 7)


def _record_chunks(monkeypatch):
    """GEMM row counts of every chunk the eval pass unfolds."""
    rows = []
    unfold = Im2colWorkspace.unfold

    def recording(self, x):
        cols = unfold(self, x)
        rows.append(cols.shape[0])
        return cols

    monkeypatch.setattr(Im2colWorkspace, "unfold", recording)
    return rows


def _assert_streamed_is_one_shot(layer, x, kernel, stride, padding, rows=None):
    """Check the eval pass against both products; return the GEMM rows
    of the chunks it unfolded (when ``rows`` is :func:`_record_chunks`'s)."""
    cols, out_h, out_w = im2col(x, kernel, stride, padding)
    ref_cols, _, _ = im2col_reference(x, kernel, stride, padding)
    expected = _one_shot(layer, cols, len(x), out_h, out_w).tobytes()
    # The reference's columns can be a transposed view, which BLAS
    # multiplies in another order: compare its values in GEMM layout.
    reference = _one_shot(layer, np.ascontiguousarray(ref_cols), len(x), out_h, out_w)
    assert reference.tobytes() == expected
    layer.eval()
    unfolded = len(rows) if rows is not None else 0
    out = layer.forward(x)
    chunks = rows[unfolded:] if rows is not None else None
    assert out.shape == (len(x), layer.out_channels, out_h, out_w)
    assert out.dtype == x.dtype
    assert out.tobytes() == expected
    layer.train()
    assert layer.forward(x).tobytes() == expected
    return chunks


def _assert_chunks(chunks, batch, samples, sample_rows, sample_macs):
    """``chunks`` cover the batch in ``samples``-sample steps, and none is
    under the GEMM floor or one row unless it is the whole pass."""
    assert len(chunks) == -(-batch // samples)
    assert all(rows <= samples * sample_rows for rows in chunks)
    assert sum(chunks) >= batch * sample_rows
    if len(chunks) > 1:
        assert all(rows // sample_rows * sample_macs >= conv._GEMM_FLOOR for rows in chunks)
        assert all(rows > 1 for rows in chunks)


# 16 channels, 3x3 kernels, 32 filters on 18x18 inputs: every sample is
# at least a quarter of the GEMM floor at each stride and padding, so a
# chunk of CHUNK samples is one the floor lets through.
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 2])
@pytest.mark.parametrize("batch", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_streamed_eval_forward_is_the_one_shot_product(
    monkeypatch, rng, dtype, stride, padding, batch
):
    channels, kernel, side, filters = 16, 3, 18, 32
    out_side = (side + 2 * padding - kernel) // stride + 1
    sample_rows = out_side * out_side
    sample_macs = sample_rows * channels * kernel * kernel * filters
    assert CHUNK * sample_macs >= conv._GEMM_FLOOR
    _set_chunk(monkeypatch, CHUNK, channels, kernel, out_side, out_side, dtype)
    rows = _record_chunks(monkeypatch)
    layer = _layer(channels, filters, kernel, stride, padding, dtype)
    x = rng.normal(size=(batch, channels, side, side)).astype(dtype)
    chunks = _assert_streamed_is_one_shot(layer, x, kernel, stride, padding, rows)
    _assert_chunks(chunks, batch, CHUNK, sample_rows, sample_macs)
    assert layer._eval_workspace.cols.shape[0] == min(CHUNK, batch) * sample_rows


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("extra", [-1, 0, 1, None])
def test_one_by_one_output_chunks_stay_above_the_floor(monkeypatch, rng, dtype, extra):
    """A 1x1 output is one GEMM row a sample: the chunks are the floor's
    sample count, and a remainder reaches back instead of running short."""
    channels, kernel, filters = 64, 3, 32
    sample_macs = channels * kernel * kernel * filters
    least = -(-conv._GEMM_FLOOR // sample_macs)
    batch = 1 if extra is None else least + extra
    monkeypatch.setattr(conv, "_EVAL_CHUNK_BYTES", 1)
    rows = _record_chunks(monkeypatch)
    layer = _layer(channels, filters, kernel, 1, 0, dtype)
    x = rng.normal(size=(batch, channels, 3, 3)).astype(dtype)
    chunks = _assert_streamed_is_one_shot(layer, x, kernel, 1, 0, rows)
    _assert_chunks(chunks, batch, min(least, batch), 1, sample_macs)
    assert chunks == ([batch] if batch <= least else [least, least])


@pytest.mark.parametrize("batch", [1, 2, 3, 7])
def test_one_row_chunks_are_never_cut(monkeypatch, rng, batch):
    """Without a floor, a 1x1 output still never cuts a one-row chunk
    (a gemv) out of a longer pass."""
    monkeypatch.setattr(conv, "_EVAL_CHUNK_BYTES", 1)
    monkeypatch.setattr(conv, "_GEMM_FLOOR", 1)
    rows = _record_chunks(monkeypatch)
    layer = _layer(4, 6, 3, 1, 0, np.float64)
    layer.eval()
    out = layer.forward(rng.normal(size=(batch, 4, 3, 3)))
    assert out.shape == (batch, 6, 1, 1)
    assert rows == ([1] if batch == 1 else [2] * -(-batch // 2))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", [1, 5, 6, 7, 13, 200])
def test_silo_cnn_first_layer_at_the_module_budget(rng, dtype, batch):
    """The shipped constants on the benchmark CNN's first conv (3x16x16
    inputs, 5x5 kernel, padding 2, 8 filters): a few samples a chunk."""
    layer = _layer(3, 8, 5, 1, 2, dtype)
    x = rng.random(size=(batch, 3, 16, 16)).astype(dtype)
    _assert_streamed_is_one_shot(layer, x, 5, 1, 2)
    samples = layer._eval_workspace.key[0][0]
    # float64: the floor's 7 samples beat the budget's 6; float32: 13.
    assert samples == min(batch, 7 if dtype is np.float64 else 13)
    assert layer._eval_workspace.cols.nbytes < 2 * conv._EVAL_CHUNK_BYTES


def test_a_sample_larger_than_the_budget_streams_one_at_a_time(monkeypatch, rng):
    monkeypatch.setattr(conv, "_EVAL_CHUNK_BYTES", 1)
    rows = _record_chunks(monkeypatch)
    layer = _layer(64, 32, 3, 1, 1, np.float64)  # 64*576*32 > the floor a sample
    x = rng.normal(size=(3, 64, 8, 8))
    chunks = _assert_streamed_is_one_shot(layer, x, 3, 1, 1, rows)
    assert chunks == [64, 64, 64]


def test_training_forward_keeps_its_cols_and_backward_is_the_reference(monkeypatch, rng):
    monkeypatch.setattr(conv, "_EVAL_CHUNK_BYTES", 1)
    layer = nn.Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
    ref = as_reference(nn.Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0)))
    x = rng.normal(size=(5, 2, 6, 6))
    layer.eval()
    layer.forward(x)  # streamed, one sample a chunk
    layer.train()
    out, ref_out = layer.forward(x), ref.forward(x)
    assert out.tobytes() == ref_out.tobytes()
    assert layer._cols is layer._workspace.cols
    assert layer._cols.shape == (5 * 6 * 6, 2 * 3 * 3)
    assert not np.shares_memory(layer._cols, layer._eval_workspace.cols)
    grad_out = rng.normal(size=out.shape)
    assert layer.backward(grad_out).tobytes() == ref.backward(grad_out).tobytes()
    for p, q in zip(layer.parameters(), ref.parameters()):
        assert p.grad.tobytes() == q.grad.tobytes()


# tracemalloc peak of ``evaluate_model`` on that 256-sample block while
# forward-only passes unfolded the whole batch at once (76,193,632 B on
# x86-64 Linux, numpy 2, float64); streamed it reads 11,176,856 B.
ONE_SHOT_EVAL_PEAK = 76_193_632


def test_silo_cnn_eval_peak_is_a_third_of_the_one_shot_pass():
    """The benchmark's silo CNN (synth_cifar 16x16, cnn x0.25) evaluated
    on one 256-sample block: the columns no longer grow with the block."""
    _spec, _train, test = make_synth_cifar(num_train=10, num_test=256, image_size=16, seed=0)
    model = build_cnn(3, 16, 10, np.random.default_rng(0), scale=0.25)
    evaluate_model(model, test)  # warm the shared gather tables
    tracemalloc.start()
    try:
        evaluate_model(model, test, batch_size=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ONE_SHOT_EVAL_PEAK / 3, f"traced peak {peak} B"
