"""The rFedAvg family ends on the parameters the commit before it did.

Every delta ``δᵏ`` is a mean-embedding forward pass computed when it is
needed; the commit before this file existed memoized them in a cache
keyed on content hashes of φ and of the client's shard.  A memoized delta
is the bytes of a recomputed one, so the final global parameters of each
run below are digests RECORDED FROM THAT COMMIT (cache on, its default),
serial and under the worker engine.  The cache's keyword is gone, and
passing it is an unknown argument like any other.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.core.privacy import GaussianDeltaMechanism
from repro.fl.config import FLConfig
from tests.conftest import make_toy_federation
from tests.helpers import run_with_workers

EXECUTORS = {"serial": 1, "process": 4}

# (algorithm, config overrides) -> sha256 of the final global parameters.
PARENT_DIGESTS = {
    "rfedavg+": (
        "rfedavg+", {}, "315af7727875a72b61e6a83a6870ee2351e35f1d2d7e53515d47663477ed6693"
    ),
    "rfedavg+compressed-sync": (
        "rfedavg+", {"sync_compression": "qsgd:8"},
        "bf8826160951b85523d42863395e1f592a4644e9c542362d16ae6e42469ee387",
    ),
    # Refreshes every client before the round and syncs the cohort after
    # it: the refresh recomputes what the last sync computed.
    "rfedavg_exact": (
        "rfedavg_exact", {}, "bb04bc28738b5eb4532c3b0ff0c17f7f49d42233281de3e438c368e1828e6d0b"
    ),
    # Each delta under that client's own local model.
    "rfedavg": (
        "rfedavg", {}, "054400f8323adf90d0130e59b3cf6f58edfb80e48de25babfc99109de8eaad69"
    ),
}

# rFedAvg+ with Gaussian noise on every delta, from the per-(round,
# client, phase) stream.
PARENT_PRIVACY_DIGEST = "77301090efc0e5059120059b11aebb2d89bdc126f25e697f71207bb3b96b7faf"


@pytest.fixture(scope="module")
def fed():
    return make_toy_federation(similarity=0.0)


def _config(**overrides):
    base = dict(rounds=3, local_steps=2, batch_size=8, lr=0.1, seed=31)
    base.update(overrides)
    return FLConfig(**base)


def _final_digest(algorithm) -> str:
    assert not getattr(algorithm.executor, "degraded", False)
    return hashlib.sha256(algorithm.global_params.tobytes()).hexdigest()


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("case", PARENT_DIGESTS)
def test_final_params_are_the_parents(fed, case, executor):
    name, overrides, digest = PARENT_DIGESTS[case]
    algorithm, _history = run_with_workers(
        name, {"lam": 1e-3}, fed, _config(**overrides), num_workers=EXECUTORS[executor]
    )
    assert _final_digest(algorithm) == digest


# Per algorithm, sha256 over clients 0..3 of the float64 delta the
# parent's cache last held for each client (its raw mean embedding under
# the φ of that client's last sync), RECORDED FROM THAT COMMIT.
PARENT_CACHED_DELTAS = {
    "rfedavg+": "cc9aaae143526007938bff4c841616a667d5ac6828a7d0f0768989c8949ca746",
    "rfedavg_exact": "7bec00f65b16a21cf3c5a693b64ae943d18f409b6d295966daaa0bc0199f8f93",
    "rfedavg": "a5a8ec1843fc442c3f4ab1d9298136ba919aed2c58800f286015c645e2d78486",
}


@pytest.mark.parametrize("name", PARENT_CACHED_DELTAS)
def test_rows_are_the_parents_cache(fed, name):
    """Without compression or noise a synced row is the raw delta, so the
    delta table ends holding the bytes the parent's cache ended holding."""
    algorithm, _history = run_with_workers(name, {"lam": 1e-3}, fed, _config(), num_workers=1)
    digest = hashlib.sha256()
    for client in range(4):
        row = np.asarray(algorithm.delta_table.get(client), dtype=np.float64)
        digest.update(np.ascontiguousarray(row).tobytes())
    assert digest.hexdigest() == PARENT_CACHED_DELTAS[name]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_privacy_run_is_the_parents(fed, executor):
    kwargs = {"lam": 1e-3, "privacy": GaussianDeltaMechanism(sigma=1.0)}
    algorithm, _history = run_with_workers(
        "rfedavg+", kwargs, fed, _config(seed=32), num_workers=EXECUTORS[executor]
    )
    assert _final_digest(algorithm) == PARENT_PRIVACY_DIGEST


@pytest.mark.parametrize("name", ["rfedavg", "rfedavg+", "rfedavg_exact"])
def test_the_delta_cache_keyword_is_gone(name):
    with pytest.raises(TypeError, match="delta_cache"):
        make_algorithm(name, lam=1e-3, delta_cache=True)
