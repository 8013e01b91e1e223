"""History / RoundRecord tests."""

import numpy as np
import pytest

from repro.fl.metrics import History, RoundRecord


def _history_with_accs(accs, every=1):
    hist = History(algorithm="x")
    for i, acc in enumerate(accs):
        rec = RoundRecord(round_idx=i, train_loss=1.0 / (i + 1))
        if i % every == 0:
            rec.test_accuracy = acc
            rec.test_loss = 1.0 - acc
        hist.append(rec)
    return hist


def test_series_accessors():
    hist = _history_with_accs([0.1, 0.5, 0.9])
    np.testing.assert_array_equal(hist.rounds(), [0, 1, 2])
    np.testing.assert_allclose(hist.train_losses(), [1.0, 0.5, 1 / 3])
    acc = hist.accuracies()
    np.testing.assert_allclose(acc[:, 1], [0.1, 0.5, 0.9])
    tl = hist.test_losses()
    np.testing.assert_allclose(tl[:, 1], [0.9, 0.5, 0.1])


def test_sparse_eval_rounds_skipped():
    hist = _history_with_accs([0.1, 0.2, 0.3, 0.4], every=2)
    acc = hist.accuracies()
    np.testing.assert_array_equal(acc[:, 0], [0, 2])


def test_best_last_tail_accuracy():
    hist = _history_with_accs([0.2, 0.9, 0.5, 0.6])
    assert hist.best_accuracy() == pytest.approx(0.9)
    assert hist.last_accuracy() == pytest.approx(0.6)
    assert hist.tail_mean_accuracy(2) == pytest.approx(0.55)


def test_empty_history_statistics_are_nan():
    hist = History(algorithm="x")
    assert np.isnan(hist.best_accuracy())
    assert np.isnan(hist.last_accuracy())
    assert hist.accuracies().shape == (0, 2)
    assert hist.mean_round_time() == 0.0


def test_rounds_to_reach():
    hist = _history_with_accs([0.1, 0.4, 0.7, 0.8])
    assert hist.rounds_to_reach(0.5) == 2
    assert hist.rounds_to_reach(0.05) == 0
    assert hist.rounds_to_reach(0.95) is None


def test_total_bytes():
    hist = History(algorithm="x")
    hist.append(RoundRecord(0, 1.0, bytes_down=10, bytes_up=5))
    hist.append(RoundRecord(1, 1.0, bytes_down=10, bytes_up=5))
    assert hist.total_bytes() == 30


def test_wall_times():
    hist = History(algorithm="x")
    hist.append(RoundRecord(0, 1.0, wall_time_sec=0.5))
    hist.append(RoundRecord(1, 1.0, wall_time_sec=1.5))
    assert hist.mean_round_time() == pytest.approx(1.0)


def _file_roundtrip(hist: History, tmp_path) -> History:
    """Through a file the way the experiment runner's ``result.json``
    goes: ``to_json`` (the ``to_dict`` tree) out, ``History.from_json`` in."""
    path = tmp_path / "history.json"
    path.write_text(hist.to_json())
    return History.from_json(path.read_text())


def test_json_roundtrip(tmp_path):
    hist = _history_with_accs([0.2, 0.5, 0.8])
    hist.final_accuracy = 0.8
    loaded = _file_roundtrip(hist, tmp_path)
    assert loaded.algorithm == hist.algorithm
    assert loaded.final_accuracy == 0.8
    np.testing.assert_allclose(loaded.train_losses(), hist.train_losses())
    np.testing.assert_allclose(loaded.accuracies(), hist.accuracies())


def test_json_roundtrip_with_per_client(tmp_path):
    hist = _history_with_accs([0.5])
    hist.per_client_accuracy = np.array([0.4, 0.6])
    loaded = _file_roundtrip(hist, tmp_path)
    np.testing.assert_array_equal(loaded.per_client_accuracy, [0.4, 0.6])


def test_round_record_dict_roundtrip():
    rec = RoundRecord(round_idx=2, train_loss=0.5, reg_loss=0.1,
                      wall_time_sec=0.25, bytes_down=40, bytes_up=20,
                      num_selected=4, test_accuracy=0.7, test_loss=0.6)
    assert RoundRecord.from_dict(rec.to_dict()) == rec


def test_round_record_json_roundtrip_is_exact():
    rec = RoundRecord(round_idx=0, train_loss=1 / 3, test_accuracy=0.125)
    assert RoundRecord.from_json(rec.to_json()) == rec


def test_round_record_from_dict_ignores_unknown_keys():
    rec = RoundRecord(round_idx=1, train_loss=0.5)
    data = rec.to_dict()
    data["someday_field"] = "whatever"
    assert RoundRecord.from_dict(data) == rec


def test_history_json_string_roundtrip_is_exact():
    hist = _history_with_accs([0.2, 0.5, 0.8])
    hist.final_accuracy = 0.8
    hist.per_client_accuracy = np.array([0.25, 0.75])
    reloaded = History.from_json(hist.to_json())
    assert reloaded.to_dict() == hist.to_dict()
    assert isinstance(reloaded.per_client_accuracy, np.ndarray)


def test_history_from_json_ignores_extra_sections():
    hist = _history_with_accs([0.4])
    data = hist.to_dict()
    data["trace"] = {"spans": {}, "metrics": {}}
    reloaded = History.from_dict(data)
    assert reloaded.to_dict() == hist.to_dict()


def test_history_to_dict_is_json_safe():
    import json

    hist = _history_with_accs([0.5])
    hist.per_client_accuracy = np.array([0.5, 0.5])
    json.dumps(hist.to_dict())  # numpy arrays must be converted to lists


def test_csv_export(tmp_path):
    hist = _history_with_accs([0.3, 0.6])
    path = str(tmp_path / "history.csv")
    hist.save_csv(path)
    with open(path) as handle:
        lines = handle.read().strip().splitlines()
    assert lines[0].startswith("round_idx,train_loss,test_accuracy")
    assert len(lines) == 3  # header + 2 rounds
    assert lines[1].startswith("0,")
