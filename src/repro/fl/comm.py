"""Communication accounting.

Every vector that crosses the client-server boundary is charged to a
:class:`CommLedger`, split by direction (downlink = server to clients,
uplink = clients to server) and payload kind ('model', 'delta',
'control', 'scalar').  The efficiency evaluation (Table III, Fig. 10)
reads these ledgers.

The byte totals live in :class:`repro.obs.metrics.MetricsRegistry`
counters rather than a private dict, so a traced run (which shares its
tracer's registry with the ledger) exports ``comm.bytes{...}`` counters
alongside its spans for free.
"""

from __future__ import annotations

import json
import os

from repro.nn.dtype import get_default_dtype
from repro.obs.metrics import Counter, MetricsRegistry


def vector_bytes(size: int, dtype_bytes: int | None = None) -> int:
    """Wire size of a ``size``-element vector.

    ``dtype_bytes=None`` follows the active dtype policy
    (:func:`repro.nn.dtype.get_default_dtype`).
    """
    if dtype_bytes is None:
        dtype_bytes = get_default_dtype().itemsize
    return int(size) * int(dtype_bytes)


class CommLedger:
    """Accumulates per-round and total communication volumes.

    ``dtype_bytes`` is the per-scalar wire width used by
    :meth:`charge`.  The default (``None``) resolves to the active
    dtype policy's itemsize **at construction time** — a float32 run
    charges 4 bytes per scalar, a float64 run 8 — while an explicit
    value stays an override (e.g. simulating float32 wire traffic from
    a float64 training run, as the paper's Table III does).

    ``streaming=True`` switches per-round bookkeeping from an unbounded
    ``_round_totals`` list to O(1) running accumulators (+ an optional
    JSONL spool at ``stream_path``): totals and the rounds count stay
    exact, while per-round series replay the spool (and raise a clear
    error without one).  Streaming and appending ledgers observe
    identical charges — the mode is execution-only.
    """

    DOWN = "down"
    UP = "up"

    def __init__(
        self,
        dtype_bytes: int | None = None,
        metrics: MetricsRegistry | None = None,
        streaming: bool = False,
        stream_path: str | None = None,
    ) -> None:
        self.dtype_bytes = (
            int(dtype_bytes) if dtype_bytes is not None else get_default_dtype().itemsize
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.streaming = bool(streaming)
        self.stream_path = stream_path
        self._round_totals: list[dict[str, int]] = []
        self._rounds_closed = 0
        self._totals_accum: dict[str, int] = {}
        self._counters: dict[str, Counter] = {}
        self._round_start: dict[str, int] = {}
        if stream_path is not None and not streaming:
            raise ValueError("stream_path requires streaming=True")
        if stream_path is not None:
            os.makedirs(os.path.dirname(stream_path) or ".", exist_ok=True)
        # Pre-create the direction totals so even an idle round reports
        # explicit up/down zeros.
        for direction in (self.DOWN, self.UP):
            self._counter(direction)

    def _counter(self, key: str) -> Counter:
        """Registry counter for a ledger key ('down' or 'down:model')."""
        counter = self._counters.get(key)
        if counter is None:
            if ":" in key:
                direction, kind = key.split(":", 1)
                counter = self.metrics.counter("comm.bytes", direction=direction, kind=kind)
            else:
                counter = self.metrics.counter("comm.bytes", direction=key)
            self._counters[key] = counter
            # A shared registry may carry traffic from an earlier run;
            # only this ledger's increments count toward its rounds.
            self._round_start.setdefault(key, counter.value)
        return counter

    def charge(self, direction: str, kind: str, num_scalars: int, copies: int = 1) -> None:
        """Charge ``copies`` transmissions of a ``num_scalars`` vector."""
        if direction not in (self.DOWN, self.UP):
            raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
        payload = vector_bytes(num_scalars, self.dtype_bytes) * copies
        self._counter(f"{direction}:{kind}").inc(payload)
        self._counter(direction).inc(payload)

    def charge_bytes(self, direction: str, kind: str, nbytes: int, copies: int = 1) -> None:
        """Charge an exact byte count (the packed wire path, where index
        streams and bit-packed words are not scalar multiples)."""
        if direction not in (self.DOWN, self.UP):
            raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
        payload = int(nbytes) * copies
        self._counter(f"{direction}:{kind}").inc(payload)
        self._counter(direction).inc(payload)

    def end_round(self) -> dict[str, int]:
        """Close the current round; returns its totals.

        The result always contains explicit ``'up'`` and ``'down'``
        entries (zero on an idle round); per-kind keys appear only when
        charged this round.
        """
        totals: dict[str, int] = {}
        for key, counter in self._counters.items():
            charged = counter.value - self._round_start[key]
            if charged or key in (self.DOWN, self.UP):
                totals[key] = charged
            self._round_start[key] = counter.value
        if self.streaming:
            self._rounds_closed += 1
            for key, charged in totals.items():
                self._totals_accum[key] = self._totals_accum.get(key, 0) + charged
            if self.stream_path is not None:
                with open(self.stream_path, "a") as handle:
                    handle.write(json.dumps(totals, sort_keys=True) + "\n")
        else:
            self._round_totals.append(totals)
        return totals

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything needed to resume this ledger bit-identically.

        Appending ledgers carry the full per-round list (the historical
        form); streaming ledgers carry only their O(1) accumulators."""
        state = {
            "dtype_bytes": self.dtype_bytes,
            "counters": {key: c.value for key, c in self._counters.items()},
        }
        if self.streaming:
            state["mode"] = "stream"
            state["rounds"] = self._rounds_closed
            state["totals"] = dict(self._totals_accum)
        else:
            state["round_totals"] = [dict(r) for r in self._round_totals]
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (either form).

        Counter values are *set*, not incremented, so restoring into a
        registry shared with a tracer (whose own counters were restored
        separately) cannot double-count.  A streaming ledger accepts an
        appending checkpoint by folding its rounds; the reverse needs
        per-round data a stream checkpoint no longer has and raises.
        """
        if int(state["dtype_bytes"]) != self.dtype_bytes:
            raise ValueError(
                f"ledger dtype_bytes mismatch: checkpoint has "
                f"{state['dtype_bytes']}, this run uses {self.dtype_bytes}"
            )
        stored_stream = state.get("mode") == "stream"
        if self.streaming:
            if stored_stream:
                self._rounds_closed = int(state["rounds"])
                self._totals_accum = {k: int(v) for k, v in state["totals"].items()}
            else:
                rounds = [dict(r) for r in state["round_totals"]]
                self._rounds_closed = len(rounds)
                self._totals_accum = {}
                for totals in rounds:
                    for key, charged in totals.items():
                        self._totals_accum[key] = (
                            self._totals_accum.get(key, 0) + charged
                        )
            self._truncate_spool(self._rounds_closed)
        else:
            if stored_stream:
                raise ValueError(
                    "checkpoint was written by a streaming ledger (summaries "
                    "only); resume with history_mode='stream' or start over"
                )
            self._round_totals = [dict(r) for r in state["round_totals"]]
        for key, value in state["counters"].items():
            counter = self._counter(key)
            counter.value = value
            self._round_start[key] = counter.value

    def _truncate_spool(self, rounds: int) -> None:
        """Drop spooled lines past ``rounds`` (the spool can be ahead of
        the newest checkpoint after a crash)."""
        if self.stream_path is None or not os.path.exists(self.stream_path):
            return
        with open(self.stream_path) as handle:
            lines = [line for line in handle if line.strip()]
        with open(self.stream_path, "w") as handle:
            handle.writelines(lines[:rounds])

    @property
    def rounds(self) -> int:
        return self._rounds_closed if self.streaming else len(self._round_totals)

    def _spooled_rounds(self) -> list[dict[str, int]]:
        if self.stream_path is None:
            raise RuntimeError(
                "this streaming CommLedger keeps totals only; per-round "
                "series need a spool — set FLConfig.stream_dir or use the "
                "appending ledger"
            )
        if not os.path.exists(self.stream_path):
            return []
        with open(self.stream_path) as handle:
            return [json.loads(line) for line in handle if line.strip()]

    def round_bytes(self, round_idx: int) -> dict[str, int]:
        if self.streaming:
            return dict(self._spooled_rounds()[round_idx])
        return dict(self._round_totals[round_idx])

    def total(self, key: str | None = None) -> int:
        """Total bytes over all closed rounds (optionally one key)."""
        if self.streaming:
            if key is None:
                return self._totals_accum.get(self.DOWN, 0) + self._totals_accum.get(
                    self.UP, 0
                )
            return self._totals_accum.get(key, 0)
        if key is None:
            return sum(r[self.DOWN] + r[self.UP] for r in self._round_totals)
        return sum(r.get(key, 0) for r in self._round_totals)
