"""Op-level kernel benchmark and float64 regression harness.

Times the hot forward/backward kernels (Conv2d, MaxPool2d, Dense,
LSTMCell, rbf_mmd) and the end-to-end training steps (the
paper's CNN and LSTM models) in three configurations.  The recurrent
rows run twice: at this harness's own size and at the shape the
``bench/`` Sent140 workload trains at (``*_bench``: B=32, T=22, E=12,
H=64, the same in quick mode), plus a forward-only eval-mode row at that
workload's B=256 evaluation batch (``lstm_cell_eval``):

* **reference float64** — the frozen pre-optimization kernels from
  :mod:`repro.nn.reference` (loop-based im2col, reshape-and-reduce
  pooling, per-timestep recurrent GEMMs).  This is the "before" column;
  an op without a frozen twin (Dense) has no such column.
* **optimized float64** — the shipped kernels under the default dtype
  policy.  Must be *bit-identical* to the reference: the harness checks
  ``np.array_equal`` on outputs and gradients and exits non-zero on any
  drift, which is what the CI smoke job enforces.
* **optimized float32** — the shipped kernels under
  ``set_default_dtype("float32")``, the speed configuration.

Writes ``BENCH_kernels.json`` at the repo root with per-op timings,
speedup fields, a per-layer profile of the CNN step (via
:class:`repro.obs.LayerProfiler`), and the acceptance flags::

    PYTHONPATH=src python benchmarks/bench_kernels.py          # full sizes
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick  # CI smoke

Exit status: 0 when every float64 equivalence check passes, 1 otherwise
(timing targets are recorded in the JSON but only enforced on full runs).
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path

import numpy as np

from repro import nn
from repro.core.mmd import _pairwise_sq_dists, rbf_mmd
from repro.models.cnn import build_cnn
from repro.models.lstm import build_lstm_classifier
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.reference import as_reference
from repro.obs import LayerProfiler, time_op

REPO_ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------------
# timing helpers
# --------------------------------------------------------------------------

def _timings(build, x, grad, *, repeats: int) -> tuple[dict, np.ndarray, np.ndarray]:
    """Forward/backward best-of timings plus (output, grad_x) for checks."""
    module = build()
    out = module.forward(x)
    module.zero_grad()
    gx = module.backward(grad)
    fwd = time_op(lambda: module.forward(x), repeats=repeats)
    bwd = time_op(lambda: module.backward(grad), repeats=repeats)
    return {"forward_sec": fwd, "backward_sec": bwd}, out, gx


def _op_record(name: str, build, make_x, grad_of, *, repeats: int) -> dict:
    """Benchmark one module op in up to three configurations.

    The reference column, its speedup and the drift flag exist only for
    ops that have a frozen twin in :mod:`repro.nn.reference`; for the
    others ``as_reference`` is a no-op and a "before" column would time
    the layer against itself.
    """
    x64 = make_x(np.float64)
    g64 = grad_of(x64, np.float64)

    opt64, out_opt, gx_opt = _timings(build, x64, g64, repeats=repeats)
    with nn.default_dtype("float32"):
        x32 = make_x(np.float32)
        g32 = grad_of(x32, np.float32)
        opt32, out32, _ = _timings(build, x32, g32, repeats=repeats)
    f32_ok = bool(out32.dtype == np.float32) if hasattr(out32, "dtype") else True

    record = {
        "optimized_float64": opt64,
        "optimized_float32": opt32,
        "float32_output_dtype_ok": f32_ok,
        "speedup_float32_vs_float64": _ratio(opt64, opt32),
    }
    line = (
        f"{name:14s} f32/f64 {record['speedup_float32_vs_float64']['forward']:5.2f}x fwd "
        f"{record['speedup_float32_vs_float64']['backward']:5.2f}x bwd"
    )
    if type(as_reference(build())) is type(build()):
        print(f"{line}   [no reference twin]")
        return record

    ref64, out_ref, gx_ref = _timings(
        lambda: as_reference(build()), x64, g64, repeats=repeats
    )
    identical = bool(
        np.array_equal(out_opt, out_ref) and np.array_equal(gx_opt, gx_ref)
    )
    record.update(
        {
            "reference_float64": ref64,
            "float64_bit_identical": identical,
            "speedup_float64": _ratio(ref64, opt64),
            "speedup_float32_vs_reference": _ratio(ref64, opt32),
        }
    )
    print(
        f"{line}   f64/ref {record['speedup_float64']['forward']:5.2f}x fwd "
        f"{record['speedup_float64']['backward']:5.2f}x bwd   "
        f"[{'ok' if identical else 'FLOAT64 DRIFT'}]"
    )
    return record


def _ratio(before: dict, after: dict) -> dict:
    return {
        "forward": round(before["forward_sec"] / after["forward_sec"], 3),
        "backward": round(before["backward_sec"] / after["backward_sec"], 3),
    }


def _eval_record(name: str, build, x: np.ndarray, *, repeats: int) -> dict:
    """Forward-only pass in eval mode, shipped kernel vs its frozen twin."""
    module, ref = build().eval(), as_reference(build()).eval()
    identical = bool(np.array_equal(module.forward(x), ref.forward(x)))
    opt = time_op(lambda: module.forward(x), repeats=repeats)
    ref_sec = time_op(lambda: ref.forward(x), repeats=repeats)
    print(
        f"{name:14s} eval fwd ref {ref_sec * 1e3:7.2f} ms  opt64 {opt * 1e3:7.2f} ms "
        f"({ref_sec / opt:.2f}x)   [{'ok' if identical else 'FLOAT64 DRIFT'}]"
    )
    return {
        "batch": int(x.shape[0]),
        "reference_float64": {"forward_sec": ref_sec},
        "optimized_float64": {"forward_sec": opt},
        "speedup_float64": {"forward": round(ref_sec / opt, 3)},
        "float64_bit_identical": identical,
    }


# The recurrent shape of bench/workloads.py's sent140_lstm_async cell:
# lstm x0.25 (E=12, H=64) on 22-token tweets, B=32 steps, B=256 eval batches.
SENT140 = {"batch": 32, "eval_batch": 256, "seq": 22, "emb": 12, "hid": 64, "vocab": 400}


# --------------------------------------------------------------------------
# individual ops
# --------------------------------------------------------------------------

def bench_ops(quick: bool, repeats: int) -> dict:
    rng = np.random.default_rng(0)
    b = 8 if quick else 32
    hw = 16 if quick else 28
    seq = 10 if quick else 25
    hid = 32 if quick else 128
    emb = 16 if quick else 64
    nmmd = 64 if quick else 256

    ops: dict[str, dict] = {}

    ops["conv2d"] = _op_record(
        "conv2d",
        lambda: nn.Conv2d(3, 16, 5, padding=2, rng=np.random.default_rng(1)),
        lambda dt: rng.normal(size=(b, 3, hw, hw)).astype(dt),
        lambda x, dt: rng.normal(size=(x.shape[0], 16, hw, hw)).astype(dt),
        repeats=repeats,
    )
    ops["maxpool2d"] = _op_record(
        "maxpool2d",
        lambda: nn.MaxPool2d(2),
        lambda dt: rng.normal(size=(b, 16, hw, hw)).astype(dt),
        lambda x, dt: rng.normal(size=(b, 16, hw // 2, hw // 2)).astype(dt),
        repeats=repeats,
    )
    ops["dense"] = _op_record(
        "dense",
        lambda: nn.Linear(512, 256, rng=np.random.default_rng(2)),
        lambda dt: rng.normal(size=(b * 4, 512)).astype(dt),
        lambda x, dt: rng.normal(size=(x.shape[0], 256)).astype(dt),
        repeats=repeats,
    )
    k = SENT140
    for suffix, (rb, rseq, remb, rhid) in {
        "": (b, seq, emb, hid),
        "_bench": (k["batch"], k["seq"], k["emb"], k["hid"]),
    }.items():
        ops["lstm_cell" + suffix] = _op_record(
            "lstm_cell" + suffix,
            lambda: nn.LSTMCell(remb, rhid, rng=np.random.default_rng(3)),
            lambda dt: rng.normal(size=(rb, rseq, remb)).astype(dt),
            lambda x, dt: rng.normal(size=(x.shape[0], rseq, rhid)).astype(dt),
            repeats=repeats,
        )
    ops["lstm_cell_eval"] = _eval_record(
        "lstm_cell_eval",
        lambda: nn.LSTMCell(k["emb"], k["hid"], rng=np.random.default_rng(3)),
        rng.normal(size=(k["eval_batch"], k["seq"], k["emb"])),
        repeats=repeats,
    )

    # rbf_mmd is a function, not a module; time it directly and check the
    # blockwise distance kernel against the dense path.
    x = rng.normal(size=(nmmd, 64))
    y = rng.normal(size=(nmmd, 64))
    mmd_sec = time_op(lambda: rbf_mmd(x, y, bandwidth=1.0), repeats=repeats)
    dense = _pairwise_sq_dists(x, y, block_rows=nmmd)
    blocked = _pairwise_sq_dists(x, y, block_rows=max(1, nmmd // 4))
    ops["rbf_mmd"] = {
        "optimized_float64": {"forward_sec": mmd_sec},
        "blockwise_max_abs_diff": float(np.abs(dense - blocked).max()),
        "blockwise_allclose": bool(np.allclose(dense, blocked, rtol=1e-12, atol=1e-12)),
    }
    print(f"{'rbf_mmd':14s} {mmd_sec * 1e3:8.3f} ms   blockwise ok={ops['rbf_mmd']['blockwise_allclose']}")
    return ops


# --------------------------------------------------------------------------
# end-to-end training steps
# --------------------------------------------------------------------------

def _train_step(model, x, y, loss_fn, lr: float = 0.1) -> float:
    logits = model.forward(x)
    loss = loss_fn.forward(logits, y)
    model.zero_grad()
    # As local_sgd_steps does: nobody reads the gradient of the input batch.
    model.backward(loss_fn.backward(), input_grad=False)
    for p in model.parameters():
        p.data -= lr * p.grad
    return loss


def _step_time(make_model, x, y, *, reference: bool, repeats: int) -> tuple[float, np.ndarray]:
    model = make_model()
    if reference:
        as_reference(model)
    loss_fn = SoftmaxCrossEntropy()
    _train_step(model, x, y, loss_fn)  # warm caches / allocator
    sec = time_op(lambda: _train_step(model, x, y, loss_fn), repeats=repeats)
    logits = model.forward(x)
    return sec, logits


def _lstm_step_record(
    name: str, rng, b: int, seq: int, lscale: float, vocab: int, repeats: int
) -> dict:
    x_tok = rng.integers(0, vocab, size=(b, seq))
    y_tok = rng.integers(0, 2, size=b)

    def make_lstm():
        return build_lstm_classifier(vocab, 2, np.random.default_rng(7), scale=lscale)

    ref_sec, ref_logits = _step_time(make_lstm, x_tok, y_tok, reference=True, repeats=repeats)
    opt_sec, opt_logits = _step_time(make_lstm, x_tok, y_tok, reference=False, repeats=repeats)
    with nn.default_dtype("float32"):
        f32_sec, _ = _step_time(make_lstm, x_tok, y_tok, reference=False, repeats=repeats)
    record = {
        "batch": b, "seq": seq, "scale": lscale,
        "reference_float64_sec": ref_sec,
        "optimized_float64_sec": opt_sec,
        "optimized_float32_sec": f32_sec,
        "speedup_float64": round(ref_sec / opt_sec, 3),
        "speedup_float32_vs_reference": round(ref_sec / f32_sec, 3),
        "float64_bit_identical": bool(np.array_equal(ref_logits, opt_logits)),
    }
    print(
        f"{name:14s} ref {ref_sec * 1e3:7.2f} ms  opt64 {opt_sec * 1e3:7.2f} ms "
        f"({record['speedup_float64']:.2f}x)  "
        f"opt32 {f32_sec * 1e3:7.2f} ms ({record['speedup_float32_vs_reference']:.2f}x)"
    )
    return record


def bench_train_steps(quick: bool, repeats: int) -> tuple[dict, dict]:
    rng = np.random.default_rng(5)
    steps: dict[str, dict] = {}

    # CNN step: the paper's conv-pool-conv-pool-FC model.
    b = 8 if quick else 32
    hw = 16 if quick else 28
    scale = 0.25 if quick else 0.5
    x_img = rng.normal(size=(b, 3, hw, hw))
    y_img = rng.integers(0, 10, size=b)

    def make_cnn():
        return build_cnn(3, hw, 10, np.random.default_rng(6), scale=scale)

    ref_sec, ref_logits = _step_time(make_cnn, x_img, y_img, reference=True, repeats=repeats)
    opt_sec, opt_logits = _step_time(make_cnn, x_img, y_img, reference=False, repeats=repeats)
    cnn_identical = bool(np.array_equal(ref_logits, opt_logits))
    with nn.default_dtype("float32"):
        f32_sec, _ = _step_time(make_cnn, x_img, y_img, reference=False, repeats=repeats)
    steps["cnn_train_step"] = {
        "batch": b, "image": hw, "scale": scale,
        "reference_float64_sec": ref_sec,
        "optimized_float64_sec": opt_sec,
        "optimized_float32_sec": f32_sec,
        "speedup_float64": round(ref_sec / opt_sec, 3),
        "speedup_float32_vs_reference": round(ref_sec / f32_sec, 3),
        "float64_bit_identical": cnn_identical,
    }
    print(
        f"{'cnn_step':14s} ref {ref_sec * 1e3:7.2f} ms  opt64 {opt_sec * 1e3:7.2f} ms "
        f"({steps['cnn_train_step']['speedup_float64']:.2f}x)  "
        f"opt32 {f32_sec * 1e3:7.2f} ms ({steps['cnn_train_step']['speedup_float32_vs_reference']:.2f}x)"
    )

    # LSTM step: embedding -> 2-layer LSTM -> FC classifier on token ids.
    # Batch 32 matches the op-level recurrent benchmarks and the CNN step.
    steps["lstm_train_step"] = _lstm_step_record(
        "lstm_step", rng, 8 if quick else 32, 10 if quick else 25, 0.25 if quick else 0.5,
        200, repeats,
    )
    k = SENT140
    steps["lstm_train_step_bench"] = _lstm_step_record(
        "lstm_step_bench", rng, k["batch"], k["seq"], 0.25, k["vocab"], repeats
    )

    # Per-layer attribution of the optimized CNN step (where does the
    # remaining time go?).
    profiler = LayerProfiler()
    model = make_cnn()
    loss_fn = SoftmaxCrossEntropy()
    with profiler.profile(model):
        _train_step(model, x_img, y_img, loss_fn)
    return steps, profiler.totals()


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes / few repeats (CI smoke; skips timing targets)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per op (default 3 quick / 7 full)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_kernels.json"))
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (3 if args.quick else 7)

    print(f"kernel benchmark ({'quick' if args.quick else 'full'}, repeats={repeats})")
    ops = bench_ops(args.quick, repeats)
    steps, layer_breakdown = bench_train_steps(args.quick, repeats)

    drift = [
        name
        for name, rec in {**ops, **steps}.items()
        if rec.get("float64_bit_identical") is False
    ]
    cnn_speedup = steps["cnn_train_step"]["speedup_float32_vs_reference"]
    lstm_speedup = steps["lstm_train_step"]["speedup_float64"]
    results = {
        "mode": "quick" if args.quick else "full",
        "repeats": repeats,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "ops": ops,
        "train_steps": steps,
        "layer_breakdown_cnn": layer_breakdown,
        "float64_drift": drift,
        "targets": {
            "cnn_float32_speedup": {"target": 1.5, "measured": cnn_speedup},
            "lstm_float64_speedup": {"target": 1.2, "measured": lstm_speedup},
        },
    }
    results["targets_met"] = bool(cnn_speedup >= 1.5 and lstm_speedup >= 1.2)

    out_path = Path(args.out)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out_path}")
    if drift:
        print(f"FLOAT64 DRIFT in: {drift}")
        return 1
    if not args.quick and not results["targets_met"]:
        print(
            f"timing targets missed: cnn f32 {cnn_speedup:.2f}x (>=1.5), "
            f"lstm f64 {lstm_speedup:.2f}x (>=1.2)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
