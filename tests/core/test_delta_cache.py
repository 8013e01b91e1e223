"""Delta-embedding cache tests (:class:`repro.core.delta.DeltaCache`).

The cache memoizes raw mean embeddings keyed on content fingerprints of
(phi parameters, client data).  The load-bearing properties: a cached
run is bit-identical to an uncached one, any phi or data change
invalidates, and the obs layer sees hit/miss counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delta import DeltaCache
from tests.conftest import make_toy_federation
from tests.helpers import assert_equivalent_runs, run_with_workers


# -- unit behaviour ---------------------------------------------------------------


def test_miss_then_hit_then_rekey():
    cache = DeltaCache()
    delta = np.arange(4.0)
    assert cache.lookup(0, b"phi1", b"data1") is None
    cache.store(0, b"phi1", b"data1", delta)
    np.testing.assert_array_equal(cache.lookup(0, b"phi1", b"data1"), delta)
    # Either fingerprint moving on misses.
    assert cache.lookup(0, b"phi2", b"data1") is None
    assert cache.lookup(0, b"phi1", b"data2") is None
    assert (cache.hits, cache.misses) == (1, 3)


def test_entries_are_isolated_per_client():
    cache = DeltaCache()
    cache.store(0, b"p", b"d", np.zeros(2))
    assert cache.lookup(1, b"p", b"d") is None


def test_lookup_returns_a_copy():
    cache = DeltaCache()
    cache.store(0, b"p", b"d", np.zeros(3))
    out = cache.lookup(0, b"p", b"d")
    out[:] = 99.0
    np.testing.assert_array_equal(cache.lookup(0, b"p", b"d"), np.zeros(3))


def test_store_copies_the_delta():
    cache = DeltaCache()
    delta = np.zeros(3)
    cache.store(0, b"p", b"d", delta)
    delta[:] = 99.0
    np.testing.assert_array_equal(cache.lookup(0, b"p", b"d"), np.zeros(3))


def test_clear_drops_entries():
    cache = DeltaCache()
    cache.store(0, b"p", b"d", np.zeros(2))
    cache.clear()
    assert cache.lookup(0, b"p", b"d") is None


# -- LRU bound --------------------------------------------------------------------


def test_max_entries_must_be_positive():
    from repro.exceptions import ProtocolError

    with pytest.raises(ProtocolError):
        DeltaCache(max_entries=0)


def test_bounded_cache_evicts_least_recently_used():
    cache = DeltaCache(max_entries=2)
    cache.store(0, b"p", b"d", np.zeros(1))
    cache.store(1, b"p", b"d", np.zeros(1))
    cache.store(2, b"p", b"d", np.zeros(1))  # evicts client 0
    assert len(cache) == 2
    assert cache.evictions == 1
    assert cache.lookup(0, b"p", b"d") is None
    assert cache.lookup(1, b"p", b"d") is not None
    assert cache.lookup(2, b"p", b"d") is not None


def test_lookup_refreshes_recency():
    cache = DeltaCache(max_entries=2)
    cache.store(0, b"p", b"d", np.zeros(1))
    cache.store(1, b"p", b"d", np.zeros(1))
    assert cache.lookup(0, b"p", b"d") is not None  # 0 is now most recent
    cache.store(2, b"p", b"d", np.zeros(1))  # so 1 is the victim
    assert cache.lookup(1, b"p", b"d") is None
    assert cache.lookup(0, b"p", b"d") is not None


def test_rekeying_an_existing_client_does_not_evict():
    cache = DeltaCache(max_entries=2)
    cache.store(0, b"p", b"d", np.zeros(1))
    cache.store(1, b"p", b"d", np.zeros(1))
    cache.store(0, b"p2", b"d", np.ones(1))  # re-key, not a new entry
    assert cache.evictions == 0
    assert len(cache) == 2


def test_state_dict_round_trips_entries_and_recency_order():
    cache = DeltaCache(max_entries=2)
    cache.store(0, b"p", b"d", np.arange(2.0))
    cache.store(1, b"p", b"d", np.arange(2.0) + 1)
    cache.lookup(0, b"p", b"d")  # 0 most recent, 1 is the LRU victim

    other = DeltaCache(max_entries=2)
    other.load_state_dict(cache.state_dict())
    assert (other.hits, other.misses, other.evictions) == (
        cache.hits, cache.misses, cache.evictions,
    )
    # Recency order survived: the next store must evict client 1 (the
    # LRU after the refresh above), exactly as the original would.
    other.store(2, b"p", b"d", np.zeros(2))
    assert other.lookup(1, b"p", b"d") is None
    np.testing.assert_array_equal(other.lookup(0, b"p", b"d"), np.arange(2.0))
    np.testing.assert_array_equal(other.lookup(2, b"p", b"d"), np.zeros(2))


# -- fingerprints -----------------------------------------------------------------


def test_params_fingerprint_tracks_in_place_mutation():
    from repro.models import build_mlp
    from repro.nn.serialization import params_fingerprint

    model = build_mlp(16, 4, np.random.default_rng(0), (8,), feature_dim=6)
    before = params_fingerprint(model.features)
    assert before == params_fingerprint(model.features)  # deterministic
    model.features.parameters()[0].data += 1e-9
    assert params_fingerprint(model.features) != before


def test_content_fingerprint_tracks_data_mutation():
    from repro.data.dataset import ArrayDataset

    shard = ArrayDataset(np.zeros((5, 3)), np.zeros(5, dtype=np.int64))
    before = shard.content_fingerprint()
    assert before == shard.content_fingerprint()
    shard.x[0, 0] = 1.0
    assert shard.content_fingerprint() != before


# -- end-to-end bit-identity ------------------------------------------------------


@pytest.fixture(scope="module")
def fed():
    return make_toy_federation(similarity=0.0)


def _config(**overrides):
    from repro.fl.config import FLConfig

    base = dict(rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=31)
    base.update(overrides)
    return FLConfig(**base)


@pytest.mark.parametrize("name", ["rfedavg", "rfedavg+", "rfedavg_exact"])
def test_cached_run_is_bit_identical_to_uncached(fed, name):
    kwargs = {"lam": 1e-3}
    cached = run_with_workers(name, {**kwargs, "delta_cache": True}, fed, _config(),
                              num_workers=1)
    uncached = run_with_workers(name, {**kwargs, "delta_cache": False}, fed, _config(),
                                num_workers=1)
    assert cached[0].delta_cache is not None
    assert uncached[0].delta_cache is None
    assert_equivalent_runs(uncached, cached)


def test_cache_hits_during_a_run_and_reports_to_obs(fed):
    """The exact variant recomputes every client's delta at round start
    from the same phi the previous round's sync used — those must hit."""
    from repro.algorithms import make_algorithm
    from repro.fl.trainer import run_federated
    from repro.obs.trace import Tracer
    from tests.helpers import tiny_model_fn

    tracer = Tracer()
    alg = make_algorithm("rfedavg_exact", lam=1e-3)
    run_federated(alg, fed, tiny_model_fn(fed), _config(), tracer=tracer)
    assert alg.delta_cache.hits > 0
    assert alg.delta_cache.misses > 0
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["delta_cache.hits"] == alg.delta_cache.hits
    assert counters["delta_cache.misses"] == alg.delta_cache.misses


def test_cached_run_with_privacy_is_bit_identical(fed):
    """Privacy noise is applied per call from a keyed stream, never
    cached — so the cache must not perturb privatized runs either."""
    from repro.core.privacy import GaussianDeltaMechanism

    kwargs = {"lam": 1e-3}

    def run(delta_cache):
        from repro.algorithms import make_algorithm
        from repro.fl.trainer import run_federated
        from tests.helpers import tiny_model_fn

        alg = make_algorithm(
            "rfedavg+", **kwargs, delta_cache=delta_cache,
            privacy=GaussianDeltaMechanism(sigma=1.0),
        )
        history = run_federated(alg, fed, tiny_model_fn(fed), _config(seed=32))
        return alg, history

    assert_equivalent_runs(run(False), run(True))


def test_cached_parallel_wire_run_is_bit_identical(fed):
    """Workers keep their own cache instances; results must not drift."""
    serial = run_with_workers("rfedavg+", {"lam": 1e-3}, fed, _config(), num_workers=1)
    parallel = run_with_workers("rfedavg+", {"lam": 1e-3}, fed, _config(), num_workers=4)
    assert not parallel[0].executor.degraded
    assert_equivalent_runs(serial, parallel)


def test_bounded_cache_run_is_bit_identical_and_evicts(fed):
    """A tiny LRU bound forces evictions mid-run without changing one bit."""
    kwargs = {"lam": 1e-3}
    unbounded = run_with_workers(
        "rfedavg+", {**kwargs, "delta_cache": True}, fed, _config(), num_workers=1
    )
    bounded = run_with_workers(
        "rfedavg+", {**kwargs, "delta_cache": 2}, fed, _config(), num_workers=1
    )
    assert bounded[0].delta_cache.max_entries == 2
    assert bounded[0].delta_cache.evictions > 0
    assert unbounded[0].delta_cache.evictions == 0
    assert_equivalent_runs(unbounded, bounded)


def test_evictions_are_reported_to_obs(fed):
    from repro.algorithms import make_algorithm
    from repro.fl.trainer import run_federated
    from repro.obs.trace import Tracer
    from tests.helpers import tiny_model_fn

    tracer = Tracer()
    alg = make_algorithm("rfedavg+", lam=1e-3, delta_cache=2)
    run_federated(alg, fed, tiny_model_fn(fed), _config(), tracer=tracer)
    assert alg.delta_cache.evictions > 0
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["delta_cache.evictions"] == alg.delta_cache.evictions


# -- phi is fingerprinted once per synchronization loop ---------------------------


def _cache_digest(cache: DeltaCache) -> str:
    """Counters, entry order, both keys and the delta bytes of every entry."""
    import hashlib

    state = cache.state_dict()
    digest = hashlib.blake2b(digest_size=16)
    digest.update(
        repr((state["max_entries"], state["hits"], state["misses"], state["evictions"])).encode()
    )
    for entry in state["entries"]:
        digest.update(repr(int(entry["client"])).encode())
        digest.update(bytes(entry["phi_fp"]))
        digest.update(bytes(entry["data_fp"]))
        digest.update(np.ascontiguousarray(entry["delta"]).tobytes())
    return digest.hexdigest()


# (algorithm, config overrides) -> fingerprints over the 3-round run (the
# parent hashed phi once per client per loop: 12, 12, 24 and 12), then
# (hits, misses, evictions) and the cache digest RECORDED FROM THE PARENT.
PARENT_CACHES = [
    ("rfedavg+", {}, 3, (0, 12, 0), "c3837821c667055f2255c7f612177a02"),
    ("rfedavg+", {"sync_compression": "qsgd:8"}, 3, (0, 12, 0),
     "3655f01c7c8c16e325c044f1d7a5fdf4"),
    # One refresh of every client before the round and one second sync after it.
    ("rfedavg_exact", {}, 6, (8, 16, 0), "ca734c3818cb910e957e44730676a811"),
    # rFedAvg computes each delta under that client's own local model.
    ("rfedavg", {}, 12, (0, 12, 0), "02ebe68af83f127cb910c9e9c67dc763"),
]


@pytest.mark.parametrize(
    "name, overrides, hashes, counters, digest", PARENT_CACHES,
    ids=["rfedavg+", "rfedavg+compressed-sync", "rfedavg_exact", "rfedavg"],
)
def test_one_fingerprint_per_sync_and_the_parents_cache(
    fed, phi_fingerprints, name, overrides, hashes, counters, digest
):
    alg, _history = run_with_workers(
        name, {"lam": 1e-3}, fed, _config(**overrides), num_workers=1
    )
    assert len(phi_fingerprints) == hashes
    assert all(model is alg.model.features for model, _digest in phi_fingerprints)
    cache = alg.delta_cache
    assert (cache.hits, cache.misses, cache.evictions) == counters
    assert [int(e["client"]) for e in cache.state_dict()["entries"]] == [0, 1, 2, 3]
    assert _cache_digest(cache) == digest


@pytest.mark.parametrize("name", ["rfedavg", "rfedavg+", "rfedavg_exact"])
def test_no_cache_no_fingerprint(fed, phi_fingerprints, name):
    run_with_workers(name, {"lam": 1e-3, "delta_cache": False}, fed, _config(), num_workers=1)
    assert phi_fingerprints == []


def test_a_call_without_phi_fp_hashes_per_call_and_cannot_hit_stale(fed, phi_fingerprints):
    """rFedAvg's ``_client_payload`` and callers outside a round call
    ``_raw_deltas([client])`` bare, between arbitrary model mutations."""
    from repro.algorithms import make_algorithm
    from tests.helpers import tiny_model_fn

    alg = make_algorithm("rfedavg+", lam=1e-3)
    alg.setup(tiny_model_fn(fed)(), fed, _config())
    [first] = alg._raw_deltas([0])
    np.testing.assert_array_equal(alg._raw_deltas([0])[0], first)
    assert (alg.delta_cache.hits, alg.delta_cache.misses) == (1, 1)
    alg.model.features.parameters()[0].data += 0.5  # in place, no reload
    [moved] = alg._raw_deltas([0])
    assert (alg.delta_cache.hits, alg.delta_cache.misses) == (1, 2)
    assert np.any(moved != first)
    assert len(phi_fingerprints) == 3
    # A supplied fingerprint is taken at its word: that is the contract
    # _synced_deltas keeps by loading the model once and not touching it.
    np.testing.assert_array_equal(
        alg._raw_deltas([0], phi_fp=phi_fingerprints[-1][1])[0], moved
    )
    assert len(phi_fingerprints) == 3
