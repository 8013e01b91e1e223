"""Streaming History/CommLedger equivalence (repro.fl.metrics / comm).

Satellite contract of the scale-out PR: streaming summaries must match
the appending implementations record-for-record on small runs — same
aggregates, same spool replay, same JSON round-trips, same checkpoint
restore in every mode combination.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.fl.comm import CommLedger
from repro.fl.metrics import History, RoundRecord, StreamingHistory


def _record(i: int, with_eval: bool) -> RoundRecord:
    return RoundRecord(
        round_idx=i,
        train_loss=1.0 / (i + 1),
        reg_loss=0.01 * i,
        wall_time_sec=0.1,
        bytes_down=1000 + i,
        bytes_up=500 + i,
        num_selected=4,
        test_loss=0.5 / (i + 1) if with_eval else None,
        test_accuracy=0.5 + 0.04 * i if with_eval else None,
    )


def _fill(history, rounds=12, eval_every=3):
    for i in range(rounds):
        history.append(_record(i, with_eval=(i % eval_every == 0)))


# -- StreamingHistory vs History ----------------------------------------------------


def test_summary_statistics_match_appending():
    appending = History(algorithm="fedavg")
    streaming = StreamingHistory(algorithm="fedavg")
    _fill(appending)
    _fill(streaming)
    assert streaming.records == []  # never accumulates
    assert streaming.num_records == len(appending.records)
    assert streaming.best_accuracy() == appending.best_accuracy()
    assert streaming.last_accuracy() == appending.last_accuracy()
    assert streaming.total_bytes() == appending.total_bytes()
    assert streaming.mean_round_time() == pytest.approx(appending.mean_round_time())
    assert streaming.tail_mean_accuracy(3) == pytest.approx(
        appending.tail_mean_accuracy(3)
    )


def test_spooled_series_match_record_for_record(tmp_path):
    spool = str(tmp_path / "history.jsonl")
    appending = History(algorithm="fedavg")
    streaming = StreamingHistory(algorithm="fedavg", stream_path=spool)
    _fill(appending)
    _fill(streaming)
    np.testing.assert_array_equal(streaming.rounds(), appending.rounds())
    np.testing.assert_array_equal(streaming.train_losses(), appending.train_losses())
    np.testing.assert_array_equal(streaming.accuracies(), appending.accuracies())
    np.testing.assert_array_equal(streaming.test_losses(), appending.test_losses())
    assert streaming.rounds_to_reach(0.6) == appending.rounds_to_reach(0.6)
    # Every spooled line JSON-round-trips to the appended record.
    with open(spool) as handle:
        spooled = [RoundRecord.from_json(line) for line in handle]
    assert spooled == appending.records


def test_spooled_to_dict_matches_appending_to_dict(tmp_path):
    spool = str(tmp_path / "history.jsonl")
    appending = History(algorithm="rfedavg+")
    streaming = StreamingHistory(algorithm="rfedavg+", stream_path=spool)
    _fill(appending)
    _fill(streaming)
    appending.final_accuracy = appending.last_accuracy()
    streaming.final_accuracy = streaming.last_accuracy()
    assert streaming.to_dict() == appending.to_dict()
    # ... and that dict survives a JSON round-trip.
    assert json.loads(json.dumps(streaming.to_dict())) == appending.to_dict()


def test_series_without_spool_raise_clearly():
    streaming = StreamingHistory(algorithm="fedavg")
    _fill(streaming)
    with pytest.raises(RuntimeError, match="spool"):
        streaming.accuracies()
    with pytest.raises(RuntimeError, match="spool"):
        streaming.save_csv("/dev/null")


def test_tail_bound_guard():
    streaming = StreamingHistory(algorithm="fedavg", tail=4)
    _fill(streaming, rounds=20, eval_every=1)
    assert np.isfinite(streaming.tail_mean_accuracy(4))
    with pytest.raises(ValueError, match="tail"):
        streaming.tail_mean_accuracy(10)


def test_summary_checkpoint_round_trip():
    a = StreamingHistory(algorithm="fedavg")
    _fill(a)
    b = StreamingHistory(algorithm="fedavg")
    b.restore_summary(json.loads(json.dumps(a.summary_dict())))
    assert b.summary_dict() == a.summary_dict()
    assert b.best_accuracy() == a.best_accuracy()
    assert b.last_record == a.last_record


def test_fold_records_equals_incremental_append():
    incremental = StreamingHistory(algorithm="fedavg")
    _fill(incremental)
    folded = StreamingHistory(algorithm="fedavg")
    reference = History(algorithm="fedavg")
    _fill(reference)
    folded.fold_records(reference.records)
    assert folded.summary_dict() == incremental.summary_dict()


def test_truncate_spool_drops_post_checkpoint_rounds(tmp_path):
    spool = str(tmp_path / "history.jsonl")
    streaming = StreamingHistory(algorithm="fedavg", stream_path=spool)
    _fill(streaming, rounds=10)
    streaming.truncate_spool(6)
    rounds = streaming.rounds()
    assert rounds.max() == 6 and len(rounds) == 7


def test_checkpoint_dict_is_summary_only():
    streaming = StreamingHistory(algorithm="fedavg")
    _fill(streaming, rounds=50)
    ckpt = streaming.checkpoint_dict()
    assert ckpt["mode"] == "stream"
    assert "records" not in ckpt
    restored = StreamingHistory(algorithm="fedavg")
    restored.restore_summary(ckpt["summary"])
    assert restored.num_records == 50


# -- streaming CommLedger -----------------------------------------------------------


def _charge_rounds(ledger: CommLedger, rounds=6) -> list[dict]:
    totals = []
    for i in range(rounds):
        ledger.charge("down", "model", 100 + i)
        ledger.charge("up", "delta", 40 + i)
        if i % 2 == 0:
            ledger.charge("up", "control", 7)
        totals.append(ledger.end_round())
    return totals


def test_ledger_totals_match_appending():
    appending = CommLedger(4)
    streaming = CommLedger(4, streaming=True)
    totals_a = _charge_rounds(appending)
    totals_s = _charge_rounds(streaming)
    assert totals_a == totals_s  # end_round returns identical dicts
    assert streaming.rounds == appending.rounds
    for key in (None, "down", "up", "up:control"):
        assert streaming.total(key) == appending.total(key)


def test_ledger_spool_replays_per_round_series(tmp_path):
    spool = str(tmp_path / "comm.jsonl")
    appending = CommLedger(4)
    streaming = CommLedger(4, streaming=True, stream_path=spool)
    _charge_rounds(appending)
    _charge_rounds(streaming)
    assert streaming.rounds == appending.rounds
    for i in range(appending.rounds):
        assert streaming.round_bytes(i) == appending.round_bytes(i)


def test_ledger_series_without_spool_raises():
    streaming = CommLedger(4, streaming=True)
    _charge_rounds(streaming)
    with pytest.raises(RuntimeError, match="spool"):
        streaming.round_bytes(0)


def test_ledger_stream_path_requires_streaming(tmp_path):
    with pytest.raises(ValueError, match="streaming"):
        CommLedger(4, stream_path=str(tmp_path / "comm.jsonl"))


def test_ledger_state_dict_cross_mode_matrix(tmp_path):
    appending = CommLedger(4)
    streaming = CommLedger(4, streaming=True)
    _charge_rounds(appending)
    _charge_rounds(streaming)

    # stream checkpoint -> stream ledger: totals adopted.
    restored = CommLedger(4, streaming=True)
    restored.load_state_dict(streaming.state_dict())
    assert restored.rounds == streaming.rounds
    assert restored.total() == streaming.total()

    # append checkpoint -> stream ledger: rounds folded.
    folded = CommLedger(4, streaming=True)
    folded.load_state_dict(appending.state_dict())
    assert folded.rounds == appending.rounds
    assert folded.total("down") == appending.total("down")

    # stream checkpoint -> append ledger: refused (data is gone).
    with pytest.raises(ValueError, match="stream"):
        CommLedger(4).load_state_dict(streaming.state_dict())

    # append -> append: the historical path still works.
    historical = CommLedger(4)
    historical.load_state_dict(appending.state_dict())
    assert historical.round_bytes(2) == appending.round_bytes(2)


def test_ledger_restore_truncates_stale_spool(tmp_path):
    spool = str(tmp_path / "comm.jsonl")
    streaming = CommLedger(4, streaming=True, stream_path=spool)
    _charge_rounds(streaming, rounds=4)
    state = streaming.state_dict()  # checkpoint cut at round 4
    _charge_rounds(streaming, rounds=3)  # crash: spool runs ahead
    resumed = CommLedger(4, streaming=True, stream_path=spool)
    resumed.load_state_dict(state)
    assert resumed.rounds == 4
    resumed.round_bytes(3)
    with pytest.raises(IndexError):  # the spool's three later rounds are gone
        resumed.round_bytes(4)
