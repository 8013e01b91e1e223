"""DeltaTable tests."""

import numpy as np
import pytest

from repro.core.delta import DeltaTable
from repro.exceptions import ProtocolError


def test_construction_validation():
    with pytest.raises(ProtocolError):
        DeltaTable(0, 4)
    with pytest.raises(ProtocolError):
        DeltaTable(4, 0)
    with pytest.raises(ProtocolError):
        DeltaTable(4, 4, max_resident=0)


def test_update_and_get():
    table = DeltaTable(3, 2)
    table.update(1, np.array([1.0, 2.0]))
    np.testing.assert_array_equal(table.get(1), [1.0, 2.0])
    assert table.any_reported
    assert table.reported_ids().tolist() == [1]


def test_update_shape_validation():
    table = DeltaTable(3, 2)
    with pytest.raises(ProtocolError):
        table.update(0, np.zeros(3))


def test_get_returns_copy():
    table = DeltaTable(2, 2)
    table.update(0, np.ones(2))
    got = table.get(0)
    got[...] = 99.0
    np.testing.assert_array_equal(table.get(0), [1.0, 1.0])


def test_mean_of_others_excludes_self():
    table = DeltaTable(3, 1)
    table.update(0, np.array([1.0]))
    table.update(1, np.array([3.0]))
    table.update(2, np.array([5.0]))
    np.testing.assert_allclose(table.mean_of_others(0), [4.0])
    np.testing.assert_allclose(table.mean_of_others(1), [3.0])


def test_mean_of_others_skips_unreported():
    table = DeltaTable(4, 1)
    table.update(1, np.array([2.0]))
    table.update(3, np.array([6.0]))
    np.testing.assert_allclose(table.mean_of_others(0), [4.0])
    np.testing.assert_allclose(table.mean_of_others(1), [6.0])


def test_mean_of_others_fallbacks():
    table = DeltaTable(3, 1)
    np.testing.assert_array_equal(table.mean_of_others(0), [0.0])
    table.update(0, np.array([7.0]))
    # Only self reported: fall back to own delta.
    np.testing.assert_array_equal(table.mean_of_others(0), [7.0])


def _pairwise(table, client):
    """r_k = (1/(N-1)) sum_{j != k} ||delta^k - delta^j||^2 over reported
    js, from the rows rFedAvg's regularizer reads."""
    others = table.reported_rows_except(client)
    if others is None:
        return 0.0
    gaps = others - table.get(client)
    return float((gaps * gaps).sum(axis=1).mean())


def test_pairwise_term_from_reported_rows():
    table = DeltaTable(3, 1)
    table.update(0, np.array([0.0]))
    table.update(1, np.array([2.0]))
    table.update(2, np.array([4.0]))
    # r_0 = mean(|0-2|^2, |0-4|^2) = (4 + 16) / 2
    assert _pairwise(table, 0) == pytest.approx(10.0)
    assert _pairwise(table, 1) == pytest.approx(4.0)


def test_pairwise_distance_no_peers_is_zero():
    table = DeltaTable(2, 1)
    table.update(0, np.array([1.0]))
    assert table.reported_rows_except(0) is None
    assert _pairwise(table, 0) == 0.0


def test_delta_inconsistency():
    table = DeltaTable(3, 1)
    assert table.delta_inconsistency() == 0.0
    table.update(0, np.array([0.0]))
    table.update(1, np.array([2.0]))
    assert table.delta_inconsistency() == pytest.approx(1.0)
    # Consistent deltas -> zero scatter.
    table.update(1, np.array([0.0]))
    assert table.delta_inconsistency() == pytest.approx(0.0)


def test_payload_accounting_matches_paper_scaling():
    """Table III's point: rFedAvg client state grows with N, rFedAvg+
    does not."""
    silo = DeltaTable(20, 702, dtype_bytes=4)
    device = DeltaTable(500, 702, dtype_bytes=4)
    assert silo.per_client_state_bytes(plus=True) == 702 * 4
    assert device.per_client_state_bytes(plus=True) == 702 * 4  # N-independent
    assert silo.per_client_state_bytes(plus=False) == 20 * 702 * 4
    assert device.per_client_state_bytes(plus=False) == 500 * 702 * 4
    assert device.broadcast_bytes_rfedavg() == 500 * 500 * 702 * 4
    assert device.broadcast_bytes_rfedavg_plus() == 500 * 702 * 4
    assert device.upload_bytes() == 500 * 702 * 4


def test_full_table_is_copy():
    table = DeltaTable(2, 2)
    table.update(0, np.ones(2))
    full = table.full_table()
    full[...] = -1
    np.testing.assert_array_equal(table.get(0), [1.0, 1.0])
