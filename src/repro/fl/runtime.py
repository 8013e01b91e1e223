"""Per-client runtime models for the asynchronous execution engine.

A :class:`ClientRuntime` answers one question: *how long does client k
take to run one dispatched local round?*  The answer is simulated
seconds — the async engine (:mod:`repro.fl.async_engine`) advances an
event clock with them, so wall-clock cost of the simulation itself is
unaffected.

Every model is **stateless**: a duration is a pure function of
``(seed, round_idx, client_id)``, exactly like the per-client training
RNG streams.  That is what keeps checkpoint/resume bit-identical with
no runtime state to snapshot, and what makes durations independent of
executor placement or worker count.

Three families cover the straggler regimes of interest:

* :class:`InstantRuntime` — every client finishes immediately.  The
  zero-latency limit, in which the async engine reproduces the
  synchronous trainer bit for bit.
* :class:`GaussianRuntime` — each client draws a persistent base speed
  from a log-normal heterogeneity distribution, then jitters each
  dispatch with Gaussian noise (the afl-bench ``GaussianRuntime``
  idiom).  ``heterogeneity`` is the knob the straggler study sweeps.
* :class:`TraceRuntime` — trace-driven durations: an explicit
  ``(num_clients,)`` or ``(num_clients, T)`` table, cycling over
  dispatch rounds, e.g. replayed from device profiling logs.

:func:`make_runtime` builds a model from the ``FLConfig.runtime``
string spec (``"instant"``, ``"gaussian:mean=1,std=0.1,het=2"``,
``"trace:<path.json>"``) so the CLI and config files can select one
without constructing objects.
"""

from __future__ import annotations

import json

import numpy as np

from repro.exceptions import ConfigError
from repro.fl.config import validate_choice

# Sub-stream tags keeping runtime draws disjoint from training/privacy
# RNG streams derived from the same master seed.
_BASE_TAG = 0xA51
_JITTER_TAG = 0xA52


class ClientRuntime:
    """Interface: simulated seconds for one dispatched client round."""

    def duration(self, round_idx: int, client_id: int) -> float:
        """Simulated seconds client ``client_id`` needs for the local
        round it was dispatched in round ``round_idx``.  Deterministic
        in its arguments."""
        raise NotImplementedError


class InstantRuntime(ClientRuntime):
    """Every client completes immediately — the zero-latency limit."""

    def duration(self, round_idx: int, client_id: int) -> float:
        return 0.0


class GaussianRuntime(ClientRuntime):
    """Log-normal per-client base speed with Gaussian per-dispatch jitter.

    Client k's base time is ``mean * exp(heterogeneity * z_k)`` with
    ``z_k ~ N(0, 1)`` drawn once per client from the seed, so
    ``heterogeneity=0`` gives a homogeneous fleet and larger values an
    increasingly heavy-tailed straggler population.  Each dispatch then
    multiplies the base by ``max(eps, 1 + std * z)`` — relative jitter,
    so fast and slow clients wobble proportionally.
    """

    def __init__(
        self,
        num_clients: int,
        mean: float = 1.0,
        std: float = 0.1,
        heterogeneity: float = 0.0,
        seed: int = 0,
    ) -> None:
        if num_clients < 1:
            raise ConfigError("GaussianRuntime needs num_clients >= 1")
        if mean <= 0:
            raise ConfigError("GaussianRuntime mean must be positive")
        if std < 0 or heterogeneity < 0:
            raise ConfigError("GaussianRuntime std/heterogeneity must be >= 0")
        self.mean = float(mean)
        self.std = float(std)
        self.heterogeneity = float(heterogeneity)
        self.seed = int(seed)
        base_rng = np.random.default_rng([self.seed, _BASE_TAG])
        z = base_rng.standard_normal(num_clients)
        self.base_times = self.mean * np.exp(self.heterogeneity * z)

    def duration(self, round_idx: int, client_id: int) -> float:
        rng = np.random.default_rng(
            [self.seed, int(round_idx), int(client_id), _JITTER_TAG]
        )
        jitter = max(1e-6, 1.0 + self.std * rng.standard_normal())
        return float(self.base_times[client_id] * jitter)


class TraceRuntime(ClientRuntime):
    """Trace-driven durations from an explicit per-client table.

    ``times`` is ``(num_clients,)`` (a constant per-client duration) or
    ``(num_clients, T)`` (per-dispatch traces, cycled by round index).
    """

    def __init__(self, times) -> None:
        table = np.asarray(times, dtype=np.float64)
        if table.ndim == 1:
            table = table[:, None]
        if table.ndim != 2 or table.size == 0:
            raise ConfigError(
                "TraceRuntime times must be (num_clients,) or (num_clients, T)"
            )
        if (table <= 0).any():
            raise ConfigError("TraceRuntime durations must be positive")
        self.times = table

    def duration(self, round_idx: int, client_id: int) -> float:
        row = self.times[client_id]
        return float(row[round_idx % len(row)])

    @classmethod
    def from_json(cls, path: str) -> "TraceRuntime":
        """Load a trace file: a JSON list (flat or nested) or an object
        with a ``"times"`` key holding one."""
        with open(path) as handle:
            data = json.load(handle)
        if isinstance(data, dict):
            data = data.get("times")
        if data is None:
            raise ConfigError(f"trace file {path!r} has no 'times' entry")
        return cls(data)


_GAUSSIAN_KEYS = {"mean": "mean", "std": "std", "het": "heterogeneity",
                  "heterogeneity": "heterogeneity"}


def _parse_gaussian_params(params: str) -> dict:
    kwargs: dict = {}
    for item in filter(None, params.split(",")):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in _GAUSSIAN_KEYS:
            raise ConfigError(
                f"bad gaussian runtime parameter {item!r}; expected "
                f"key=value with key in {sorted(set(_GAUSSIAN_KEYS))}"
            )
        try:
            kwargs[_GAUSSIAN_KEYS[key]] = float(value)
        except ValueError as exc:
            raise ConfigError(
                f"gaussian runtime parameter {key!r} must be a number, "
                f"got {value!r}"
            ) from exc
    return kwargs


def make_runtime(
    spec: "str | ClientRuntime", num_clients: int, seed: int = 0
) -> ClientRuntime:
    """Build a runtime model from a config spec (or pass one through).

    Specs: ``"instant"``, ``"gaussian"``,
    ``"gaussian:mean=1.0,std=0.1,het=2.0"``, ``"trace:<path.json>"``.
    """
    if isinstance(spec, ClientRuntime):
        return spec
    kind, _sep, params = str(spec).partition(":")
    validate_choice("runtime", kind)
    if kind == "instant":
        if params:
            raise ConfigError("the instant runtime takes no parameters")
        return InstantRuntime()
    if kind == "gaussian":
        return GaussianRuntime(
            num_clients, seed=seed, **_parse_gaussian_params(params)
        )
    if not params:
        raise ConfigError(
            "the trace runtime needs a file: runtime='trace:<path.json>'"
        )
    return TraceRuntime.from_json(params)
