"""Hierarchical FL tests: topology parsing, region partitions and the
regions round step behind ``FLConfig(topology=...)``."""

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.exceptions import CheckpointError, ConfigError
from repro.fl.config import FLConfig, parse_topology_spec
from repro.fl.hierarchy import RegionSet
from repro.fl.trainer import run_federated
from repro.models import build_mlp


def _model_fn(fed, seed=0):
    return lambda: build_mlp(
        fed.spec.flat_dim, fed.spec.num_classes, np.random.default_rng(seed), (16,), feature_dim=8
    )


def _config(**kwargs):
    base = dict(rounds=6, local_steps=2, batch_size=8, lr=0.2, seed=0, eval_every=3)
    base.update(kwargs)
    return FLConfig(**base)


def _divergence(region_params):
    stacked = np.stack(region_params)
    return float(np.linalg.norm(stacked - stacked.mean(axis=0), axis=1).mean())


# -- topology spec -------------------------------------------------------------


def test_parse_topology_spec():
    assert parse_topology_spec("flat") == (1, 1)
    assert parse_topology_spec("hier:4:2") == (4, 2)
    assert parse_topology_spec("hier:1:1") == (1, 1)


@pytest.mark.parametrize(
    "spec",
    ["flat:2", "hier", "hier:4", "hier:4:2:1", "hier:x:2", "hier:0:2", "hier:4:0"],
)
def test_bad_topology_specs_rejected(spec):
    with pytest.raises(ConfigError):
        parse_topology_spec(spec)


def test_topology_typo_suggestion():
    with pytest.raises(ConfigError, match="hier"):
        parse_topology_spec("heir:4:2")


def test_config_validates_topology():
    with pytest.raises(ConfigError):
        FLConfig(topology="hier:0:1")
    with pytest.raises(ConfigError, match="execution"):
        FLConfig(topology="hier:2:2", execution="async")
    with pytest.raises(ConfigError):
        FLConfig(cloud_compression="bogus")


# -- RegionSet -----------------------------------------------------------------


def test_region_set_partitions_population():
    regions = RegionSet(10, 3)
    assert regions.bounds.tolist() == [0, 4, 7, 10]
    parts = regions.split_cohort(np.arange(10))
    assert [p.tolist() for p in parts] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]


def test_region_set_split_cohort():
    regions = RegionSet(10, 3)
    cohort = np.array([0, 3, 4, 9], dtype=np.int64)
    parts = regions.split_cohort(cohort)
    assert [p.tolist() for p in parts] == [[0, 3], [4], [9]]
    # A cohort that skips a region yields an empty slice for it.
    parts = regions.split_cohort(np.array([1, 8], dtype=np.int64))
    assert [p.tolist() for p in parts] == [[1], [], [8]]


def test_region_set_validation():
    with pytest.raises(ConfigError):
        RegionSet(4, 0)
    with pytest.raises(ConfigError):
        RegionSet(4, 5)
    # One region per client is the finest legal partition.
    assert RegionSet(4, 4).bounds.tolist() == [0, 1, 2, 3, 4]


# -- engine behaviour ----------------------------------------------------------


def test_hier_one_one_matches_flat(toy_federation):
    config = _config()
    flat = make_algorithm("fedavg")
    flat_history = run_federated(flat, toy_federation, _model_fn(toy_federation), config)
    hier = make_algorithm("fedavg")
    hier_history = run_federated(
        hier, toy_federation, _model_fn(toy_federation),
        config.with_updates(topology="hier:1:1"),
    )
    np.testing.assert_array_equal(flat.global_params, hier.global_params)
    for a, b in zip(flat_history.records, hier_history.records):
        assert a.train_loss == b.train_loss
        assert a.bytes_up == b.bytes_up and a.bytes_down == b.bytes_down
        assert a.test_accuracy == b.test_accuracy


def test_cloud_sync_resets_region_divergence(toy_federation):
    observed = []
    run_federated(
        make_algorithm("fedavg"), toy_federation, _model_fn(toy_federation),
        _config(local_steps=4, topology="hier:2:3"),
        region_observer=lambda info: observed.append(
            (info["round"], info["cloud_sync"], _divergence(info["region_params"]))
        ),
    )
    assert len(observed) == 6
    sync_rounds = [r for r, sync, _d in observed if sync]
    assert sync_rounds == [2, 5]
    for _r, sync, div in observed:
        if sync:
            assert div == pytest.approx(0.0)
    # Between syncs the regions drift apart.
    assert observed[1][2] > 0.0


def test_cloud_traffic_cheaper_than_client_traffic(toy_federation):
    """The point of hierarchy: WAN (cloud) bytes << LAN (client) bytes."""
    rounds_bytes = []
    run_federated(
        make_algorithm("fedavg"), toy_federation, _model_fn(toy_federation),
        _config(topology="hier:2:3"),
        region_observer=lambda info: rounds_bytes.append(info["bytes"]),
    )
    cloud = sum(
        v for rc in rounds_bytes for k, v in rc.items()
        if k.partition(":")[2] == "cloud-model"
    )
    total = sum(rc["up"] + rc["down"] for rc in rounds_bytes)
    assert 0 < cloud < total - cloud


def test_cloud_link_carries_two_models_per_region_per_sync():
    """Only ``2 R / P`` model transfers a round cross the charged cloud
    link, against the flat engine's ``2 N``: at N=8 and hier:4:4 the
    cloud carries 8x fewer bytes over equal rounds."""
    from tests.conftest import make_toy_federation

    fed = make_toy_federation(similarity=0.0, num_clients=8)
    config = _config(rounds=8, eval_every=8, seed=3)
    flat = run_federated(make_algorithm("fedavg"), fed, _model_fn(fed), config)
    flat_cloud = sum(r.bytes_up + r.bytes_down for r in flat.records)
    rounds_bytes = []
    run_federated(
        make_algorithm("fedavg"), fed, _model_fn(fed), config.with_updates(topology="hier:4:4"),
        region_observer=lambda info: rounds_bytes.append(info["bytes"]),
    )
    hier_cloud = sum(
        v for rc in rounds_bytes for k, v in rc.items()
        if k.partition(":")[2] == "cloud-model"
    )
    assert flat_cloud == 8 * hier_cloud  # (2 N) / (2 R / P) = N P / R


def test_cloud_compression_shrinks_cloud_bytes(toy_federation):
    def cloud_up(spec):
        rounds_bytes = []
        run_federated(
            make_algorithm("fedavg"), toy_federation, _model_fn(toy_federation),
            _config(topology="hier:2:2", cloud_compression=spec),
            region_observer=lambda info: rounds_bytes.append(info["bytes"]),
        )
        return sum(
            v for rc in rounds_bytes for k, v in rc.items()
            if k.startswith("up") and k.partition(":")[2] == "cloud-model"
        )

    dense, compressed = cloud_up("none"), cloud_up("topk:0.1")
    assert 0 < compressed < dense


def test_empty_region_round(toy_federation):
    """A cohort can miss a region entirely; the round must still work and
    the starved region's model must stay put until the next cloud sync."""
    seen = []

    class Region0Only:
        def select(self, context):
            # Only clients from region 0 (clients 0-1 of 4 under R=2).
            return np.array([0, 1], dtype=np.int64)

    run_federated(
        make_algorithm("fedavg"), toy_federation, _model_fn(toy_federation),
        _config(rounds=2, topology="hier:2:4"),
        selector=Region0Only(),
        region_observer=lambda info: seen.append(info["region_params"]),
    )
    # Region 1 never trained and never synced: its params are unchanged
    # across both rounds.
    np.testing.assert_array_equal(seen[0][1], seen[1][1])
    # Region 0 moved.
    assert not np.array_equal(seen[0][0], seen[1][0])


def test_single_client_regions(toy_federation):
    """R == N: every region holds exactly one client."""
    history = run_federated(
        make_algorithm("fedavg"), toy_federation, _model_fn(toy_federation),
        _config(topology="hier:4:3"),
    )
    assert len(history.records) == 6
    assert history.final_accuracy is not None


def test_reservoir_sampler_hier_identity(toy_federation):
    """Reservoir cohorts compose with region slices: hier:1:1 still
    reproduces the flat engine exactly."""
    config = _config(sample_ratio=0.5, sampler="reservoir")
    flat = make_algorithm("fedavg")
    run_federated(flat, toy_federation, _model_fn(toy_federation), config)
    hier = make_algorithm("fedavg")
    run_federated(
        hier, toy_federation, _model_fn(toy_federation),
        config.with_updates(topology="hier:1:1"),
    )
    np.testing.assert_array_equal(flat.global_params, hier.global_params)


def test_rfedavg_exact_refuses_multiple_regions(toy_federation):
    with pytest.raises(ConfigError, match="rfedavg_exact"):
        run_federated(
            make_algorithm("rfedavg_exact", lam=1e-3), toy_federation,
            _model_fn(toy_federation), _config(topology="hier:2:2"),
        )


def test_rfedavg_exact_single_region_period_works(toy_federation):
    history = run_federated(
        make_algorithm("rfedavg_exact", lam=1e-3), toy_federation,
        _model_fn(toy_federation), _config(rounds=2, topology="hier:1:4"),
    )
    assert len(history.records) == 2


def test_more_regions_than_clients_rejected(toy_federation):
    with pytest.raises(ConfigError):
        run_federated(
            make_algorithm("fedavg"), toy_federation, _model_fn(toy_federation),
            _config(topology="hier:5:2"),
        )


def test_region_observer_requires_hier(toy_federation):
    with pytest.raises(ConfigError, match="region_observer"):
        run_federated(
            make_algorithm("fedavg"), toy_federation, _model_fn(toy_federation),
            _config(), region_observer=lambda info: None,
        )


def test_flat_checkpoint_refused_by_hier_resume(toy_federation, tmp_path):
    config = _config(rounds=2, checkpoint_dir=str(tmp_path), checkpoint_every=1)
    run_federated(make_algorithm("fedavg"), toy_federation, _model_fn(toy_federation), config)
    with pytest.raises(CheckpointError):
        run_federated(
            make_algorithm("fedavg"), toy_federation, _model_fn(toy_federation),
            config.with_updates(resume=True, topology="hier:2:2"),
        )


def test_learns_on_iid(iid_federation):
    history = run_federated(
        make_algorithm("fedavg"), iid_federation, _model_fn(iid_federation),
        _config(rounds=15, local_steps=4, lr=0.3, topology="hier:2:3", eval_every=5),
    )
    assert history.final_accuracy > 0.45
