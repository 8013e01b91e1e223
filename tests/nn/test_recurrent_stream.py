"""Byte gate for the LSTM's windowed input projection.

``LSTMCell`` projects its input a window of timesteps at a time: at
each window boundary one GEMM fills the scratch's ``xw`` for the next
``w`` steps.  Its output, input gradient and parameter gradients must
carry the bits of the one-shot projection (one window the whole
sequence deep) and, in float64, of
:class:`repro.nn.reference.ReferenceLSTMCell`, at every cut of the
sequence into windows — ``tobytes()`` throughout, no tolerances.  The
windows themselves are held to the GEMM floor the streamed ``Conv2d``
pass shares (:func:`repro.nn.conv.gemm_chunks`), and to the shipped
constants at the ``bench/`` Sent140 shapes.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.experiments.presets import build_sent140_federation, default_model_fn
from repro.fl.client import evaluate_model
from repro.models import build_cnn
from repro.nn import conv
from repro.nn.recurrent import LSTMCell
from repro.nn.reference import as_reference

DTYPES = [np.float32, np.float64]
WINDOW = 4  # steps a window takes, set through the byte budget

# (input_dim, hidden_dim) per batch size: one timestep of the projection
# is 393,216 multiply-adds at B >= 2, so the GEMM floor holds a window
# to 3 steps (under WINDOW) and a short last window reaches back.
DIMS = {1: (12, 16), 2: (128, 384), 32: (32, 96), 256: (8, 48)}
LEAST = 3


def _record_windows(monkeypatch):
    """The projection windows of every forward, one list a call."""
    calls = []
    begin = LSTMCell._begin

    def recording(self, x):
        ws, xt, spans = begin(self, x)
        calls.append(list(spans))
        return ws, xt, spans

    monkeypatch.setattr(LSTMCell, "_begin", recording)
    return calls


def _set_window(monkeypatch, steps, batch, hid, dtype):
    """Make the byte budget cover ``steps`` timesteps of ``xw`` (and a few
    bytes more, which must not buy a partial step)."""
    step_bytes = batch * 4 * hid * np.dtype(dtype).itemsize
    monkeypatch.setattr(conv, "_EVAL_CHUNK_BYTES", steps * step_bytes + 7)


def _run(cell, x, grad_out):
    """Train forward and backward from zeroed gradients, then the eval
    forward: the bytes of each."""
    cell.zero_grad()
    out = cell.train().forward(x).tobytes()
    grad_x = cell.backward(grad_out).tobytes()
    grads = [p.grad.tobytes() for p in cell.parameters()]
    eval_out = cell.eval().forward(x).tobytes()
    return out, grad_x, grads, eval_out


def _assert_windows(spans, steps, window, step_macs, step_rows):
    """``spans`` tile the sequence in ``window``-step steps, and none is
    under the GEMM floor or one row unless it is the whole pass."""
    assert len(spans) == -(-steps // window)
    assert [stop for _, stop in spans] == [min(steps, (i + 1) * window) for i in range(len(spans))]
    assert spans[0][0] == 0
    assert all(start <= prev_stop for (start, _), (_, prev_stop) in zip(spans[1:], spans))
    assert all(0 < stop - start <= window for start, stop in spans)
    if len(spans) > 1:
        assert all((stop - start) * step_macs >= conv._GEMM_FLOOR for start, stop in spans)
        assert all((stop - start) * step_rows > 1 for start, stop in spans)


def _cell(in_dim, hid, dtype):
    with nn.default_dtype("float32" if dtype is np.float32 else "float64"):
        return LSTMCell(in_dim, hid, rng=np.random.default_rng(7))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", sorted(DIMS))
@pytest.mark.parametrize("steps", [1, WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW + 1])
def test_windowed_projection_is_the_one_shot_projection(monkeypatch, rng, dtype, batch, steps):
    in_dim, hid = DIMS[batch]
    cell = _cell(in_dim, hid, dtype)
    one_shot = copy.deepcopy(cell)
    x = rng.normal(size=(batch, steps, in_dim)).astype(dtype)
    grad_out = rng.normal(size=(batch, steps, hid)).astype(dtype)
    windows = _record_windows(monkeypatch)

    monkeypatch.setattr(conv, "_EVAL_CHUNK_BYTES", 1 << 62)
    want = _run(one_shot, x, grad_out)
    per_step = [(t, t + 1) for t in range(steps)]
    assert windows == [per_step if batch == 1 else [(0, steps)]] * 2

    _set_window(monkeypatch, WINDOW, batch, hid, dtype)
    del windows[:]
    got = _run(cell, x, grad_out)
    assert got == want
    assert windows[0] == windows[1]
    if batch == 1:
        assert windows[0] == per_step  # a one-row product stays per step
    else:
        step_macs = batch * in_dim * 4 * hid
        assert -(-conv._GEMM_FLOOR // step_macs) == LEAST
        _assert_windows(windows[0], steps, WINDOW, step_macs, batch)
        if steps > WINDOW:
            assert windows[0][-1] == (steps - LEAST, steps)  # reached back
    if dtype is np.float64:
        ref = as_reference(copy.deepcopy(one_shot))
        ref.zero_grad()
        assert ref.forward(x).tobytes() == want[0]
        assert ref.backward(grad_out).tobytes() == want[1]
        assert [p.grad.tobytes() for p in ref.parameters()] == want[2]


@pytest.mark.parametrize("dtype", DTYPES)
def test_a_budget_under_the_floor_keeps_the_floor(monkeypatch, rng, dtype):
    """A one-byte budget still projects the floor's steps a window."""
    in_dim, hid = DIMS[256]
    cell = _cell(in_dim, hid, dtype)
    x = rng.normal(size=(256, 7, in_dim)).astype(dtype)
    windows = _record_windows(monkeypatch)
    monkeypatch.setattr(conv, "_EVAL_CHUNK_BYTES", 1 << 62)
    want = cell.eval().forward(x).tobytes()
    monkeypatch.setattr(conv, "_EVAL_CHUNK_BYTES", 1)
    assert cell.forward(x).tobytes() == want
    assert windows[1] == [(0, 3), (3, 6), (4, 7)]


@pytest.mark.parametrize("dtype", DTYPES)
def test_bench_shapes_at_the_shipped_constants(rng, dtype):
    """The ``bench/`` Sent140 LSTM (12 -> 64 -> 64, T=22): the B=32 train
    step and the B=256 eval block, two layers each, window by window."""
    assert conv._EVAL_CHUNK_BYTES == conv._GEMM_FLOOR == 1 << 20
    lstm = nn.LSTM(12, 64, num_layers=2, rng=np.random.default_rng(3))
    for cell in lstm.cells:
        for p in cell.parameters():
            p.data = p.data.astype(dtype)
    ref = as_reference(copy.deepcopy(lstm))
    spans = {}
    for layer, cell in enumerate(lstm.cells):
        begin = cell._begin

        def recording(x, layer=layer, begin=begin):
            ws, xt, windows = begin(x)
            spans[layer, len(x)] = windows
            return ws, xt, windows

        cell._begin = recording
    x32 = rng.normal(size=(32, 22, 12)).astype(dtype)
    x256 = rng.normal(size=(256, 22, 12)).astype(dtype)
    out = lstm.forward(x32)
    grad_x = lstm.backward(np.ones_like(out))
    eval_out = lstm.eval().forward(x256)
    if dtype is np.float64:
        assert out.tobytes() == ref.forward(x32).tobytes()
        assert grad_x.tobytes() == ref.backward(np.ones_like(out)).tobytes()
        for p, q in zip(lstm.parameters(), ref.parameters()):
            assert p.grad.tobytes() == q.grad.tobytes()
        assert eval_out.tobytes() == ref.forward(x256).tobytes()
    # The budget holds 16 steps of a B=32 train step in float64 (the
    # bottom layer's last window reaches back to its 11-step floor) and
    # the whole sequence in float32; 2 steps of a B=256 eval block in
    # float64 (the bottom layer's floor too), 4 in float32.
    if dtype is np.float64:
        assert spans[0, 32] == [(0, 16), (11, 22)]
        assert spans[1, 32] == [(0, 16), (16, 22)]
        assert spans[0, 256] == [(t, t + 2) for t in range(0, 22, 2)]
        assert spans[1, 256] == [(t, t + 2) for t in range(0, 22, 2)]
    else:
        assert spans[0, 32] == spans[1, 32] == [(0, 22)]
        assert spans[0, 256] == spans[1, 256] == [
            (t, min(t + 4, 22)) for t in range(0, 22, 4)
        ]


def test_an_eval_forward_copies_only_an_input_that_is_not_time_major(rng):
    """The bottom layer copies its batch-major input into time-major order;
    the layers above read the one below's output where it lies."""
    lstm = nn.LSTM(5, 6, num_layers=2, rng=np.random.default_rng(0)).eval()
    scratches = []
    for cell in lstm.cells:
        begin = cell._begin

        def recording(x, begin=begin):
            ws, xt, windows = begin(x)
            scratches.append(ws)
            return ws, xt, windows

        cell._begin = recording
    lstm.forward(rng.normal(size=(3, 4, 5)))
    bottom, top = scratches
    assert bottom.xt.shape == (4, 3, 5)
    assert not hasattr(top, "xt")


def test_silo_cnn_chunks_keep_their_sizes():
    """The chunk rule the LSTM shares keeps the benchmark silo CNN's
    forward-only chunks: 7 samples through conv1, 10 through conv2."""
    model = build_cnn(3, 16, 10, np.random.default_rng(0), scale=0.25)
    model.eval()
    model.forward(np.zeros((256, 3, 16, 16)))
    convs = [m for m in model.modules() if isinstance(m, nn.Conv2d)]
    assert [m._eval_workspace.key[0][0] for m in convs] == [7, 10]


# tracemalloc peak of ``evaluate_model`` on that 256-tweet block while the
# input projection was one GEMM the whole sequence deep (23,410,752 B on
# x86-64 Linux, numpy 2, float64); windowed it reads 10,041,408 B.
ONE_SHOT_EVAL_PEAK = 23_410_752


def test_sent140_lstm_eval_peak_is_under_half_the_one_shot_pass():
    """The benchmark's Sent140 LSTM (lstm x0.25, 301 test tweets of 22
    tokens) evaluated in blocks of 256: the projection no longer grows
    with the sequence."""
    fed = build_sent140_federation(
        num_users=25, tweets_per_user=60.0, seq_len=22, vocab_size=400, seed=3
    )
    assert len(fed.test) == 301
    model = default_model_fn("lstm", fed.spec, seed=3, scale=0.25)()
    evaluate_model(model, fed.test)
    tracemalloc.start()
    try:
        evaluate_model(model, fed.test, batch_size=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ONE_SHOT_EVAL_PEAK / 2, f"traced peak {peak} B"
