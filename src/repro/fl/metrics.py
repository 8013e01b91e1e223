"""Round-by-round metric recording and persistence.

:class:`History` appends every :class:`RoundRecord` — the right default
for paper-scale runs whose analysis wants the whole curve.
:class:`StreamingHistory` is its O(1)-memory twin for cross-device
scale-out: each record is folded into running summaries (best/last
accuracy, loss and byte totals, a bounded tail of evaluations) and
optionally spooled to a JSONL file, so a 100k-round run's history costs
a handful of scalars.  Both observe byte-identical records; with a
spool, the streaming history reproduces the appending one
record-for-record (``tests/fl/test_streaming_metrics.py``).
"""

from __future__ import annotations

import csv
import json
import os
from collections import deque
from dataclasses import asdict, dataclass, field, fields

import numpy as np


@dataclass
class RoundRecord:
    """Metrics of one communication round."""

    round_idx: int
    train_loss: float
    test_accuracy: float | None = None
    test_loss: float | None = None
    reg_loss: float = 0.0
    wall_time_sec: float = 0.0
    bytes_down: int = 0
    bytes_up: int = 0
    num_selected: int = 0

    # -- persistence --------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable representation (plain python scalars)."""
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "RoundRecord":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def from_json(cls, text: str) -> "RoundRecord":
        return cls.from_dict(json.loads(text))


@dataclass
class History:
    """The full trajectory of a federated run."""

    algorithm: str
    records: list[RoundRecord] = field(default_factory=list)
    final_accuracy: float | None = None
    per_client_accuracy: np.ndarray | None = None

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    # -- series accessors --------------------------------------------------------
    def rounds(self) -> np.ndarray:
        return np.array([r.round_idx for r in self.records])

    def train_losses(self) -> np.ndarray:
        return np.array([r.train_loss for r in self.records])

    def accuracies(self) -> np.ndarray:
        """(round, accuracy) pairs for rounds that were evaluated."""
        pts = [(r.round_idx, r.test_accuracy) for r in self.records if r.test_accuracy is not None]
        if not pts:
            return np.zeros((0, 2))
        return np.array(pts, dtype=np.float64)

    def test_losses(self) -> np.ndarray:
        pts = [(r.round_idx, r.test_loss) for r in self.records if r.test_loss is not None]
        if not pts:
            return np.zeros((0, 2))
        return np.array(pts, dtype=np.float64)

    def wall_times(self) -> np.ndarray:
        return np.array([r.wall_time_sec for r in self.records])

    # -- summary statistics --------------------------------------------------------
    def best_accuracy(self) -> float:
        acc = self.accuracies()
        return float(acc[:, 1].max()) if len(acc) else float("nan")

    def last_accuracy(self) -> float:
        acc = self.accuracies()
        return float(acc[-1, 1]) if len(acc) else float("nan")

    def tail_mean_accuracy(self, tail: int = 5) -> float:
        """Mean accuracy over the last ``tail`` evaluations (the paper's
        reported number averages the settled end of the curve)."""
        acc = self.accuracies()
        if not len(acc):
            return float("nan")
        return float(acc[-tail:, 1].mean())

    def rounds_to_reach(self, accuracy: float) -> int | None:
        """First round index whose test accuracy meets ``accuracy`` (Fig. 10a/b)."""
        for r in self.records:
            if r.test_accuracy is not None and r.test_accuracy >= accuracy:
                return r.round_idx
        return None

    def mean_round_time(self) -> float:
        times = self.wall_times()
        return float(times.mean()) if len(times) else 0.0

    def total_bytes(self) -> int:
        return sum(r.bytes_down + r.bytes_up for r in self.records)

    # -- persistence --------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable representation of the full history.

        Numpy arrays become lists, so the output is diffable and the
        :meth:`from_dict` round-trip is exact (python floats round-trip
        through JSON bit-for-bit).
        """
        return {
            "algorithm": self.algorithm,
            "final_accuracy": self.final_accuracy,
            "per_client_accuracy": (
                self.per_client_accuracy.tolist()
                if self.per_client_accuracy is not None
                else None
            ),
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "History":
        """Inverse of :meth:`to_dict`; extra top-level keys (e.g. the
        ``trace`` section of a run-artifact summary) are ignored."""
        history = cls(algorithm=data["algorithm"])
        history.final_accuracy = data.get("final_accuracy")
        if data.get("per_client_accuracy") is not None:
            history.per_client_accuracy = np.array(data["per_client_accuracy"])
        for record in data.get("records", []):
            history.append(RoundRecord.from_dict(record))
        return history

    @classmethod
    def from_json(cls, text: str) -> "History":
        return cls.from_dict(json.loads(text))

    def save_csv(self, path: str) -> None:
        """One row per round, spreadsheet-friendly."""
        fields = [
            "round_idx", "train_loss", "test_accuracy", "test_loss",
            "reg_loss", "wall_time_sec", "bytes_down", "bytes_up", "num_selected",
        ]
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fields)
            writer.writeheader()
            for record in self.records:
                writer.writerow({k: getattr(record, k) for k in fields})


class StreamingHistory(History):
    """A :class:`History` that summarizes instead of accumulating.

    ``append`` folds each record into O(1) running aggregates — count,
    loss/time/byte totals, best accuracy, and a bounded tail of recent
    evaluations — and (when ``stream_path`` is set) spools the record as
    one JSONL line.  ``self.records`` stays empty by construction.

    Summary accessors (:meth:`last_accuracy`, :meth:`best_accuracy`,
    :meth:`tail_mean_accuracy` up to the tail bound,
    :meth:`mean_round_time`, :meth:`total_bytes`) work without a spool;
    full-series accessors (:meth:`accuracies`, :meth:`train_losses`,
    :meth:`save_csv`, ...) replay the spool and raise a clear error when
    there is none.  Checkpoints carry only the summary
    (:meth:`checkpoint_dict`), so streaming-mode checkpoints stay O(1)
    regardless of run length; on resume the spool is truncated back to
    the checkpointed round, keeping crash-resumed spools
    record-for-record identical to uninterrupted ones.
    """

    def __init__(
        self, algorithm: str, stream_path: str | None = None, tail: int = 8
    ) -> None:
        super().__init__(algorithm=algorithm)
        if tail < 1:
            raise ValueError(f"tail must be >= 1, got {tail}")
        self.stream_path = stream_path
        self.tail = int(tail)
        self.num_records = 0
        self.eval_points = 0
        self._sum_train_loss = 0.0
        self._sum_wall_time = 0.0
        self._total_bytes = 0
        self._best_accuracy: float | None = None
        self._tail_acc: deque[tuple[int, float]] = deque(maxlen=self.tail)
        self._last_record: RoundRecord | None = None
        if stream_path is not None:
            os.makedirs(os.path.dirname(stream_path) or ".", exist_ok=True)

    # -- recording ----------------------------------------------------------------
    def append(self, record: RoundRecord) -> None:
        self.num_records += 1
        self._sum_train_loss += record.train_loss
        self._sum_wall_time += record.wall_time_sec
        self._total_bytes += record.bytes_down + record.bytes_up
        if record.test_accuracy is not None:
            self.eval_points += 1
            acc = float(record.test_accuracy)
            if self._best_accuracy is None or acc > self._best_accuracy:
                self._best_accuracy = acc
            self._tail_acc.append((record.round_idx, acc))
        self._last_record = record
        if self.stream_path is not None:
            with open(self.stream_path, "a") as handle:
                handle.write(record.to_json() + "\n")

    @property
    def last_record(self) -> RoundRecord | None:
        return self._last_record

    # -- summary statistics (O(1), spool-free) --------------------------------------
    def best_accuracy(self) -> float:
        return float("nan") if self._best_accuracy is None else self._best_accuracy

    def last_accuracy(self) -> float:
        if not self._tail_acc:
            return float("nan")
        return self._tail_acc[-1][1]

    def tail_mean_accuracy(self, tail: int = 5) -> float:
        if not self._tail_acc:
            return float("nan")
        if tail > self.tail and self.eval_points > self.tail:
            raise ValueError(
                f"streaming history keeps a tail of {self.tail} evaluations; "
                f"tail_mean_accuracy({tail}) needs more — raise the tail "
                "bound or replay the spool"
            )
        window = list(self._tail_acc)[-tail:]
        return float(np.mean([acc for _round, acc in window]))

    def mean_round_time(self) -> float:
        return self._sum_wall_time / self.num_records if self.num_records else 0.0

    def total_bytes(self) -> int:
        return self._total_bytes

    # -- full-series accessors (spool replay) ---------------------------------------
    def _spooled_records(self) -> list[RoundRecord]:
        if self.stream_path is None:
            raise RuntimeError(
                "this StreamingHistory keeps summaries only; full record "
                "series need a spool — set FLConfig.stream_dir (or "
                "StreamingHistory(stream_path=...)) or use "
                "history_mode='append'"
            )
        if not os.path.exists(self.stream_path):
            return []
        with open(self.stream_path) as handle:
            return [RoundRecord.from_json(line) for line in handle if line.strip()]

    def _replayed(self) -> History:
        replay = History(algorithm=self.algorithm)
        replay.records = self._spooled_records()
        replay.final_accuracy = self.final_accuracy
        replay.per_client_accuracy = self.per_client_accuracy
        return replay

    def replay_records(self) -> list[RoundRecord]:
        """Full per-round records replayed from the spool; empty when the
        history keeps summaries only (no ``stream_path``)."""
        if self.stream_path is None:
            return []
        return self._spooled_records()

    def rounds(self) -> np.ndarray:
        return self._replayed().rounds()

    def train_losses(self) -> np.ndarray:
        return self._replayed().train_losses()

    def accuracies(self) -> np.ndarray:
        return self._replayed().accuracies()

    def test_losses(self) -> np.ndarray:
        return self._replayed().test_losses()

    def wall_times(self) -> np.ndarray:
        return self._replayed().wall_times()

    def rounds_to_reach(self, accuracy: float) -> int | None:
        return self._replayed().rounds_to_reach(accuracy)

    def save_csv(self, path: str) -> None:
        self._replayed().save_csv(path)

    # -- persistence ----------------------------------------------------------------
    def summary_dict(self) -> dict:
        """The O(1) aggregate state (JSON-able)."""
        return {
            "tail_bound": self.tail,
            "num_records": self.num_records,
            "eval_points": self.eval_points,
            "sum_train_loss": self._sum_train_loss,
            "sum_wall_time": self._sum_wall_time,
            "total_bytes": self._total_bytes,
            "best_accuracy": self._best_accuracy,
            "tail": [[int(r), float(a)] for r, a in self._tail_acc],
            "last_record": (
                self._last_record.to_dict() if self._last_record is not None else None
            ),
        }

    def restore_summary(self, summary: dict) -> None:
        self.num_records = int(summary["num_records"])
        self.eval_points = int(summary["eval_points"])
        self._sum_train_loss = float(summary["sum_train_loss"])
        self._sum_wall_time = float(summary["sum_wall_time"])
        self._total_bytes = int(summary["total_bytes"])
        self._best_accuracy = summary["best_accuracy"]
        self._tail_acc = deque(
            [(int(r), float(a)) for r, a in summary["tail"]], maxlen=self.tail
        )
        self._last_record = (
            RoundRecord.from_dict(summary["last_record"])
            if summary["last_record"] is not None
            else None
        )

    def fold_records(self, records: list[RoundRecord]) -> None:
        """Re-aggregate a full record list (append-mode checkpoint
        resumed under streaming mode)."""
        for record in records:
            self.append(record)

    def truncate_spool(self, last_round: int) -> None:
        """Drop spooled records past ``last_round`` (crash recovery: the
        spool may be ahead of the newest checkpoint)."""
        if self.stream_path is None or not os.path.exists(self.stream_path):
            return
        kept = [r for r in self._spooled_records() if r.round_idx <= last_round]
        with open(self.stream_path, "w") as handle:
            for record in kept:
                handle.write(record.to_json() + "\n")

    def checkpoint_dict(self) -> dict:
        """What rides in a checkpoint: summary only, O(1) forever."""
        return {
            "algorithm": self.algorithm,
            "final_accuracy": self.final_accuracy,
            "per_client_accuracy": (
                self.per_client_accuracy.tolist()
                if self.per_client_accuracy is not None
                else None
            ),
            "mode": "stream",
            "summary": self.summary_dict(),
        }

    def to_dict(self) -> dict:
        """Like :meth:`History.to_dict` when a spool exists (full
        records, round-trippable through ``History.from_dict``);
        summary-form otherwise."""
        if self.stream_path is not None:
            base = {
                "algorithm": self.algorithm,
                "final_accuracy": self.final_accuracy,
                "per_client_accuracy": (
                    self.per_client_accuracy.tolist()
                    if self.per_client_accuracy is not None
                    else None
                ),
                "records": [r.to_dict() for r in self._spooled_records()],
            }
            return base
        return self.checkpoint_dict()
