"""Composable compression pipeline + error-feedback tests.

Covers the spec grammar, per-stage encode/decode bit-identity, the
error-feedback recursion, byte accounting, engine equivalences under
compression, and the obs counters exported to ``summary.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.fl.compression import (
    INDEX_BYTES,
    CompressionPipeline,
    WireSize,
    compressor_from_spec,
    parse_compression_spec,
)
from repro.fl.config import FLConfig
from tests.helpers import assert_equivalent_runs, run_with_workers

SPECS = [
    "topk:0.05",
    "qsgd:4",
    "sign",
    "quantize:6",
    "topk:0.05|qsgd:8",
    "topk:0.1|sign",
    "topk:0.1|quantize:8",
]


# -- spec grammar ------------------------------------------------------------------


def test_parse_none_is_empty_and_factory_returns_none():
    assert parse_compression_spec("none") == []
    assert compressor_from_spec("none") is None
    assert compressor_from_spec(None) is None
    assert compressor_from_spec("") is None


def test_parse_canonical_spec_round_trips():
    pipeline = CompressionPipeline(" topk:0.05 | qsgd:8 ")
    assert pipeline.spec == "topk:0.05|qsgd:8"
    assert pipeline.selector is not None and pipeline.coder is not None


@pytest.mark.parametrize("bad", [
    "",
    "   ",
    "none|sign",
    "topk",            # missing ratio
    "topk:0",          # ratio out of range
    "topk:1.5",
    "randk:0",         # deleted stages are unknown
    "topk:abc",
    "qsgd:1",          # qsgd needs >= 2 bits (sign covers 1-bit)
    "qsgd:20",
    "quantize:0",
    "quantize:32",
    "sign:2",          # sign takes no parameter
    "sign|topk:0.1",   # selector must come first
    "topk:0.1|randk:0.1",
    "topk:0.1|topk:0.2",   # two selectors
    "qsgd:4|sign",     # two coders
    "gzip",            # unknown stage
])
def test_invalid_specs_raise(bad):
    with pytest.raises(ConfigError):
        parse_compression_spec(bad)


def test_config_validates_specs_through_choice_registry():
    config = FLConfig(rounds=1, compression="topk:0.01|qsgd:8", sync_compression="sign")
    assert config.compression == "topk:0.01|qsgd:8"
    with pytest.raises(ConfigError):
        FLConfig(rounds=1, compression="zip:9")
    with pytest.raises(ConfigError):
        FLConfig(rounds=1, sync_compression="topk:0.1|topk:0.2")
    with pytest.raises(ConfigError):
        FLConfig(rounds=1, cloud_compression="")


# -- pipeline mechanics ------------------------------------------------------------


@pytest.mark.parametrize("spec", SPECS)
def test_encode_decode_bit_identical_to_compress(spec):
    """decode(encode(v)) == compress(v) under the same rng, per spec."""
    vec = np.random.default_rng(5).normal(size=257)
    pipeline = compressor_from_spec(spec)
    recon, wire = pipeline.compress(vec, np.random.default_rng(42))
    streams, wire2 = pipeline.encode(vec, np.random.default_rng(42))
    assert wire == wire2
    np.testing.assert_array_equal(pipeline.decode(streams, vec.size), recon)
    if "indices" in streams:
        assert streams["indices"].dtype == np.int32


@pytest.mark.parametrize("spec", SPECS)
def test_stage_footprints_sum_to_wire_size(spec):
    """Per-stage bytes are deterministic in size and sum to the total."""
    pipeline = compressor_from_spec(spec)
    for size in (64, 257, 1000):
        footprints = pipeline.stage_footprints(size)
        total = sum(ws.nbytes(8) for _, ws in footprints)
        assert total == pipeline.wire_size(size).nbytes(8)
        # Data-independent: what compress() reports matches the static account.
        _recon, wire = pipeline.compress(np.ones(size), np.random.default_rng(0))
        assert wire.nbytes(8) == total


def test_selector_only_pipeline_reports_carrier_values():
    pipeline = compressor_from_spec("topk:0.1")
    footprints = dict(pipeline.stage_footprints(100))
    assert footprints["topk:0.1"].index_ints == 10
    assert footprints["values"].values == 10
    assert pipeline.wire_size(100).nbytes(8) == 10 * 8 + 10 * INDEX_BYTES


@pytest.mark.parametrize("spec", ["qsgd:8", "quantize:8"])
def test_coder_rng_consumption_is_data_independent(spec):
    """Stochastic coders draw the same rng stream for any input, so the
    encode/compress split can never desynchronize the draws."""
    pipeline = compressor_from_spec(spec)
    zeros, _ = pipeline.compress(np.zeros(32), np.random.default_rng(3))
    np.testing.assert_array_equal(zeros, 0.0)
    # After compressing a degenerate vector the generator state matches
    # the state after compressing a generic one.
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    pipeline.compress(np.zeros(32), rng_a)
    pipeline.compress(np.random.default_rng(0).normal(size=32), rng_b)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_qsgd_reconstruction_bounded_by_scale():
    vec = np.random.default_rng(7).normal(size=500)
    recon, _ = compressor_from_spec("qsgd:8").compress(vec, np.random.default_rng(0))
    scale = np.abs(vec).max()
    levels = (1 << 7) - 1
    assert np.abs(recon - vec).max() <= scale / levels + 1e-12
    assert np.abs(recon).max() <= scale + 1e-12


def test_sign_keeps_signs_and_mean_scale():
    vec = np.array([3.0, -1.0, 0.5, -0.5])
    recon, wire = compressor_from_spec("sign").compress(vec, np.random.default_rng(0))
    scale = np.abs(vec).mean()
    np.testing.assert_array_equal(recon, [scale, -scale, scale, -scale])
    assert wire.values == 1 and wire.raw_bytes == 1  # 4 signs -> 1 packed byte


def test_error_feedback_recursion_recovers_signal():
    """e_{t+1} = e_t + v - C(v + e_t): the running mean of the
    reconstructions converges to the true vector even at heavy sparsity."""
    vec = np.random.default_rng(11).normal(size=400)
    pipeline = compressor_from_spec("topk:0.05")
    naive = np.zeros_like(vec)
    with_ef = np.zeros_like(vec)
    error = np.zeros_like(vec)
    steps = 60
    for step in range(steps):
        naive += pipeline.compress(vec, np.random.default_rng(step))[0]
        target = vec + error
        recon, _ = pipeline.compress(target, np.random.default_rng(step))
        error = target - recon
        with_ef += recon
    err_naive = np.linalg.norm(naive / steps - vec)
    err_ef = np.linalg.norm(with_ef / steps - vec)
    assert err_ef < 0.35 * err_naive


# -- byte accounting ----------------------------------------------------------------


def test_quantizer_bytes_use_bit_width_in_both_modes(rng):
    """The packed words are billed at their bit width under a float64
    and a float32 wire alike — never as dtype-width scalars: 2 range
    scalars + 320 coords x 8 bits."""
    vec = rng.normal(size=320)
    _recon, wire = compressor_from_spec("quantize:8").compress(vec, np.random.default_rng(3))
    assert wire == WireSize(values=2, raw_bytes=320)
    assert wire.nbytes(8) == 2 * 8 + 320
    assert wire.nbytes(4) == 2 * 4 + 320


def test_quantizer_constant_vector_bytes(rng):
    """The footprint is data-independent: a constant vector still ships
    its (equal) range scalars and a level per coordinate."""
    _recon, wire = compressor_from_spec("quantize:8").compress(np.full(10, 3.0), rng)
    assert wire.nbytes(8) == 2 * 8 + 10


# -- end-to-end: equivalences, accounting, obs --------------------------------------


def _base_config(**overrides):
    base = dict(rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=31)
    base.update(overrides)
    return FLConfig(**base)


def test_none_spec_is_bit_identical_to_no_knob(toy_federation):
    plain = run_with_workers("fedavg", {}, toy_federation, _base_config(), 1)
    spec_none = run_with_workers(
        "fedavg", {}, toy_federation, _base_config(compression="none"), 1
    )
    assert_equivalent_runs(plain, spec_none)
    assert spec_none[0].compressor is None


@pytest.mark.parametrize("spec", ["topk:0.25|qsgd:8", "qsgd:4", "sign", "topk:0.2|quantize:8"])
def test_compressed_serial_parallel_wire_equivalence(toy_federation, spec):
    config = _base_config(compression=spec)
    serial = run_with_workers("fedavg", {}, toy_federation, config, 1)
    parallel = run_with_workers(
        "fedavg", {}, toy_federation, config, 2, executor="process"
    )
    assert_equivalent_runs(serial, parallel)


def test_compressed_async_instant_matches_sync(toy_federation):
    config = _base_config(compression="topk:0.25|qsgd:8")
    sync = run_with_workers("fedavg", {}, toy_federation, config, 1)
    instant = run_with_workers(
        "fedavg", {}, toy_federation,
        config.with_updates(execution="async", runtime="instant"), 1,
    )
    assert_equivalent_runs(sync, instant)


def test_pipeline_reduces_uplink_and_tracks_residuals(toy_federation):
    config = _base_config(compression="topk:0.05|qsgd:8")
    dense = run_with_workers("fedavg", {}, toy_federation, _base_config(), 1)
    compressed = run_with_workers("fedavg", {}, toy_federation, config, 1)
    assert (
        compressed[0].ledger.total("up:model") < 0.1 * dense[0].ledger.total("up:model")
    )
    # Downlink unchanged — only uploads ride the pipeline.
    assert compressed[0].ledger.total("down:model") == dense[0].ledger.total("down:model")
    residuals = compressed[0]._residuals
    assert residuals is not None
    assert max(
        float(np.linalg.norm(residuals.get(cid)))
        for cid in range(toy_federation.num_clients)
    ) > 0.0


def test_error_feedback_off_keeps_residuals_unallocated(toy_federation):
    config = _base_config(compression="topk:0.25", error_feedback=False)
    algorithm, _history = run_with_workers("fedavg", {}, toy_federation, config, 1)
    assert algorithm._residuals is None


def test_rfedavg_plus_sync_compression_charges_less(toy_federation):
    dense = run_with_workers(
        "rfedavg+", {"lam": 1e-3}, toy_federation, _base_config(), 1
    )
    compressed = run_with_workers(
        "rfedavg+", {"lam": 1e-3}, toy_federation,
        _base_config(sync_compression="topk:0.1|qsgd:8"), 1,
    )
    # Phase-1 broadcast identical; the second model sync is what shrinks.
    assert (
        compressed[0].ledger.total("down:model") < dense[0].ledger.total("down:model")
    )
    assert compressed[0].ledger.total("up:delta") < dense[0].ledger.total("up:delta")


def test_obs_exports_compression_metrics(toy_federation):
    from repro.fl.trainer import run_federated
    from repro.obs.exporters import summary_dict
    from repro.obs.trace import Tracer
    from repro.algorithms import make_algorithm
    from tests.helpers import tiny_model_fn

    config = _base_config(compression="topk:0.25|qsgd:8")
    tracer = Tracer()
    algorithm = make_algorithm("fedavg")
    history = run_federated(
        algorithm, toy_federation, tiny_model_fn(toy_federation), config,
        tracer=tracer,
    )
    summary = summary_dict(history, tracer)
    counters = summary["trace"]["metrics"]["counters"]
    histograms = summary["trace"]["metrics"]["histograms"]
    assert counters["compression.bytes_saved"] > 0
    stage_keys = [k for k in counters if k.startswith("compression.stage_bytes")]
    assert any("stage=topk:0.25" in k for k in stage_keys)
    assert any("stage=qsgd:8" in k for k in stage_keys)
    # Stage bytes sum to what the ledger charged for uploads.
    assert sum(counters[k] for k in stage_keys) == algorithm.ledger.total("up:model")
    assert histograms["compression.residual_norm"]["count"] > 0
    # Saved + charged == the dense baseline.
    selected_per_round = toy_federation.num_clients  # sample_ratio=1 here
    dense = (
        algorithm.model_size * algorithm.ledger.dtype_bytes
        * selected_per_round * config.rounds
    )
    assert counters["compression.bytes_saved"] + algorithm.ledger.total("up:model") == dense
