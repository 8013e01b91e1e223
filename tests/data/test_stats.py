"""Partition statistics tests: ``quantity_imbalance`` and the label-skew
measures of ``tests.helpers``."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.data.stats import quantity_imbalance
from tests.helpers import label_histograms, mean_pairwise_tv_distance


def _client(labels):
    labels = np.asarray(labels)
    return ArrayDataset(np.zeros((len(labels), 1)), labels)


def test_label_histograms_normalized():
    hists = label_histograms([_client([0, 0, 1]), _client([2, 2])], 3)
    np.testing.assert_allclose(hists[0], [2 / 3, 1 / 3, 0.0])
    np.testing.assert_allclose(hists[1], [0.0, 0.0, 1.0])


def test_label_histograms_counts():
    hists = label_histograms([_client([0, 0, 1])], 3, normalize=False)
    np.testing.assert_array_equal(hists[0], [2, 1, 0])


def test_tv_distance_extremes():
    identical = label_histograms([_client([0, 1]), _client([0, 1])], 2)
    assert mean_pairwise_tv_distance(identical) == pytest.approx(0.0)
    disjoint = label_histograms([_client([0, 0]), _client([1, 1])], 2)
    assert mean_pairwise_tv_distance(disjoint) == pytest.approx(1.0)


def test_tv_distance_single_client_is_zero():
    hists = label_histograms([_client([0, 1])], 2)
    assert mean_pairwise_tv_distance(hists) == 0.0


def test_quantity_imbalance():
    assert quantity_imbalance(np.array([10, 10, 10])) == pytest.approx(0.0)
    assert quantity_imbalance(np.array([1, 100])) > 0.9
    assert quantity_imbalance(np.array([0, 0])) == 0.0
