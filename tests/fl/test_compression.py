"""Compression stage tests: each pipeline stage on its own."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ConfigError
from repro.fl.compression import (
    INDEX_BYTES,
    WireSize,
    _TopKStage,
    _UniformStage,
    compressor_from_spec,
)

vectors = hnp.arrays(np.float64, st.integers(4, 100), elements=st.floats(-100, 100))


def test_no_compression_identity(toy_federation, fast_config):
    """'none' is no compressor: the upload is the trained vector itself,
    charged as d dtype-width values."""
    from repro.algorithms import FedAvg
    from tests.helpers import tiny_model_fn

    assert compressor_from_spec("none") is None
    algorithm = FedAvg()
    algorithm.setup(tiny_model_fn(toy_federation)(), toy_federation, fast_config)
    params = algorithm.global_params + 1.0
    out, streams, wire, residual = algorithm._apply_upload_pipeline(0, 0, params)
    assert out is params and streams is None and residual is None
    assert wire == WireSize(values=algorithm.model_size)
    assert wire.nbytes(8) == 8 * algorithm.model_size


def test_topk_keeps_largest(rng):
    vec = np.array([0.1, -5.0, 0.2, 3.0, -0.05])
    recon, wire = compressor_from_spec("topk:0.4").compress(vec, rng)
    np.testing.assert_array_equal(recon, [0.0, -5.0, 0.0, 3.0, 0.0])
    assert wire.values == 2 and wire.index_ints == 2
    assert wire.nbytes(8) == 2 * 8 + 2 * INDEX_BYTES


@given(vectors, st.floats(0.05, 1.0))
@settings(max_examples=40, deadline=None)
def test_topk_properties(vec, ratio):
    rng = np.random.default_rng(0)
    recon, wire = compressor_from_spec(f"topk:{ratio!r}").compress(vec, rng)
    k = max(1, int(round(ratio * vec.size)))
    assert (recon != 0).sum() <= k
    assert wire.values == k and wire.index_ints == k
    # Kept values are unchanged.
    mask = recon != 0
    np.testing.assert_array_equal(recon[mask], vec[mask])


def test_quantizer_reconstruction_within_step(rng):
    vec = rng.normal(size=200)
    recon, _wire = compressor_from_spec("quantize:8").compress(vec, rng)
    step = (vec.max() - vec.min()) / 255
    assert np.abs(recon - vec).max() <= step + 1e-12


def test_quantizer_unbiased(rng):
    vec = np.array([0.0, 0.3, 0.7, 1.0])
    pipeline = compressor_from_spec("quantize:1")
    recons = [pipeline.compress(vec, rng)[0] for _ in range(3000)]
    np.testing.assert_allclose(np.mean(recons, axis=0), vec, atol=0.05)


def test_quantizer_constant_vector(rng):
    """A constant vector reconstructs exactly; its wire size is the same
    data-independent footprint as any other vector of that length."""
    recon, wire = compressor_from_spec("quantize:8").compress(np.full(10, 3.0), rng)
    np.testing.assert_array_equal(recon, 3.0)
    assert wire == WireSize(values=2, raw_bytes=10)


def test_quantizer_wire_size(rng):
    _recon, wire = compressor_from_spec("quantize:8").compress(
        np.ones(320) + np.arange(320), rng
    )
    # Byte accounting charges the raw bitstream, not 32-bit scalars.
    assert wire.values == 2 and wire.raw_bytes == 320
    assert wire.nbytes(8) == 2 * 8 + 320


@pytest.mark.parametrize(
    "compressor", [compressor_from_spec("topk:0.2"), compressor_from_spec("topk:0.05")]
)
def test_encode_decode_matches_compress(rng, compressor):
    """decode(encode(v)) is bit-identical to compress(v) for the sparsifier."""
    vec = rng.normal(size=64)
    streams, wire = compressor.encode(vec, np.random.default_rng(7))
    recon, wire2 = compressor.compress(vec, np.random.default_rng(7))
    assert streams["indices"].dtype == np.int32
    assert wire == wire2
    np.testing.assert_array_equal(compressor.decode(streams, vec.size), recon)


def test_index_bytes_accounting(rng):
    """Indices ride as int32 on the wire regardless of the value dtype."""
    vec = rng.normal(size=100)
    _streams, wire = compressor_from_spec("topk:0.1").encode(vec, rng)
    assert wire.values == 10 and wire.index_ints == 10
    assert wire.nbytes(8) == 10 * 8 + 10 * INDEX_BYTES
    assert wire.nbytes(4) == 10 * 4 + 10 * INDEX_BYTES


def test_wire_size_add():
    total = WireSize(values=10, index_ints=10) + WireSize(values=5, raw_bytes=7)
    assert total.values == 15 and total.index_ints == 10 and total.raw_bytes == 7


@pytest.mark.parametrize("stage,arg", [
    pytest.param(_TopKStage, "0.0", id="TopKSparsifier-kwargs0"),
    pytest.param(_TopKStage, "1.5", id="TopKSparsifier-kwargs1"),
    pytest.param(_UniformStage, "0", id="UniformQuantizer-kwargs3"),
    pytest.param(_UniformStage, "32", id="UniformQuantizer-kwargs4"),
])
def test_invalid_configs(stage, arg):
    """Each stage refuses an out-of-range ratio or bit width on its own."""
    with pytest.raises(ConfigError):
        stage(arg)


def test_compressed_fedavg_reduces_uplink(toy_federation, fast_config):
    from repro.algorithms import FedAvg
    from repro.fl.trainer import run_federated
    from repro.models import build_mlp

    def model_fn():
        return build_mlp(
            toy_federation.spec.flat_dim, toy_federation.spec.num_classes,
            np.random.default_rng(0), (16,), feature_dim=8,
        )

    plain = FedAvg()
    run_federated(plain, toy_federation, model_fn, fast_config)
    compressed = FedAvg()
    run_federated(
        compressed, toy_federation, model_fn,
        fast_config.with_updates(compression="topk:0.05", error_feedback=False),
    )
    assert compressed.ledger.total("up:model") < 0.2 * plain.ledger.total("up:model")
    # Downlink unchanged (server still broadcasts the dense model).
    assert compressed.ledger.total("down:model") == plain.ledger.total("down:model")


def test_compressed_fedavg_still_learns(iid_federation):
    from repro.algorithms import FedAvg
    from repro.fl.config import FLConfig
    from repro.fl.trainer import run_federated
    from repro.models import build_mlp

    def model_fn():
        return build_mlp(
            iid_federation.spec.flat_dim, iid_federation.spec.num_classes,
            np.random.default_rng(0), (16,), feature_dim=8,
        )

    config = FLConfig(
        rounds=20, local_steps=4, batch_size=16, lr=0.3, eval_every=5, seed=0,
        compression="topk:0.25", error_feedback=False,
    )
    alg = FedAvg()
    history = run_federated(alg, iid_federation, model_fn, config)
    assert history.final_accuracy > 0.45
