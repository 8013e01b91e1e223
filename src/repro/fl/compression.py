"""Lossy payload compression for federated uploads.

The paper's related-work section surveys communication-compression
approaches (sparsification, Konecny et al.'s quantization, sign
methods).  This module implements that menu as a **composable
pipeline**: a spec string such as ``"topk:0.01|qsgd:8"`` chains an
optional *selector* stage (which coordinates travel) with an optional
*value coder* stage (how many bits each travels as):

========== ========= ====================================================
stage      role      meaning
========== ========= ====================================================
``topk:R``   selector keep the ``R`` fraction of largest-|x| coordinates
``qsgd:B``   coder    QSGD-style stochastic quantization to ``B``-bit
                      signed levels around a max-norm scale
``sign``     coder    1-bit sign compression with a mean-|x| scale
``quantize:B`` coder  ``B``-bit stochastic uniform quantization over
                      [min, max] (two range scalars)
``none``     —        identity; must appear alone
========== ========= ====================================================

Composition rules: at most one selector (first) and at most one value
coder (last).  :func:`compressor_from_spec` is the canonical factory;
:func:`parse_compression_spec` checks each stage kind against the
``compression`` choice registry of :mod:`repro.fl.config`, which lists
``"none"`` plus :data:`PIPELINE_STAGES` (typo suggestions included).

A :class:`CompressionPipeline` maps a flat float vector to a
(reconstructed_vector, :class:`WireSize`) pair: the reconstruction is
what the server aggregates (lossy), and the wire size describes what
actually crosses the wire so the ledger can charge real bytes under the
active dtype policy.  :meth:`CompressionPipeline.encode` /
:meth:`CompressionPipeline.decode` split the payload into wire streams
(an optional ``int32`` index stream plus a value stream) — an upload
always travels as those streams, and ``decode(encode(v))`` is
bit-identical to ``compress(v)`` under the same rng.

**Error feedback** lives one layer up (``repro.algorithms.base``): the
client compresses ``update + residual`` and keeps
``e_{t+1} = e_t + update - decompress(compress(update + e_t))``; the
pipeline itself is stateless, which is what makes it safe to fork into
worker processes.

**Byte accounting.**  Pipeline stage footprints are deterministic
functions of the input size, so per-stage encoded bytes
(:meth:`CompressionPipeline.stage_footprints`) can be reported without
shipping extra metadata — see ``docs/compression.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigError

INDEX_BYTES = 4  # compressed coordinate indices travel as int32


@dataclass(frozen=True)
class WireSize:
    """What one upload actually puts on the wire.

    Attributes:
        values: count of dtype-width scalars (model coefficients, delta
            entries, quantization range endpoints).
        index_ints: count of ``int32`` coordinate indices.
        raw_bytes: dtype-independent raw bytes (bit-packed quantization
            words).
    """

    values: int
    index_ints: int = 0
    raw_bytes: int = 0

    def nbytes(self, dtype_bytes: int) -> int:
        """Actual wire bytes under a ``dtype_bytes``-per-scalar policy."""
        return (
            self.values * int(dtype_bytes)
            + self.index_ints * INDEX_BYTES
            + self.raw_bytes
        )

    def __add__(self, other: "WireSize") -> "WireSize":
        return WireSize(
            values=self.values + other.values,
            index_ints=self.index_ints + other.index_ints,
            raw_bytes=self.raw_bytes + other.raw_bytes,
        )


# -- composable pipeline stages ----------------------------------------------------


class _Stage:
    """One stage of a :class:`CompressionPipeline` (internal).

    Stages are stateless and deterministic in shape: their wire
    footprint depends only on the input size, never on the data, so the
    parent can account per-stage bytes without shipping metadata.
    """

    kind = "stage"
    role = ""  # "selector" | "coder"
    param = ""  # the parameter's placeholder in usage text ('R' in 'topk:R')

    @property
    def spec(self) -> str:
        raise NotImplementedError


def _parse_ratio(kind: str, arg: str) -> float:
    try:
        ratio = float(arg)
    except ValueError:
        raise ConfigError(f"compression stage '{kind}' needs a float ratio, got {arg!r}")
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"compression stage '{kind}' ratio must be in (0, 1], got {ratio}")
    return ratio


def _parse_bits(kind: str, arg: str, lo: int, hi: int) -> int:
    try:
        bits = int(arg)
    except ValueError:
        raise ConfigError(f"compression stage '{kind}' needs an int bit-width, got {arg!r}")
    if not lo <= bits <= hi:
        raise ConfigError(
            f"compression stage '{kind}' bits must be in [{lo}, {hi}], got {bits}"
        )
    return bits


class _TopKStage(_Stage):
    kind = "topk"
    role = "selector"
    param = "R"

    def __init__(self, arg: str) -> None:
        self.ratio = _parse_ratio(self.kind, arg)

    @property
    def spec(self) -> str:
        return f"{self.kind}:{self.ratio:g}"

    def carrier_size(self, size: int) -> int:
        return max(1, int(round(self.ratio * size)))

    def footprint(self, size: int) -> WireSize:
        return WireSize(values=0, index_ints=self.carrier_size(size))

    def select(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = self.carrier_size(vec.size)
        keep = np.argpartition(np.abs(vec), -k)[-k:]
        return keep, vec[keep]


class _QSGDStage(_Stage):
    """QSGD-style quantization: a max-norm scale plus ``bits``-bit
    signed stochastic levels, ``L = 2^(bits-1) - 1`` per sign."""

    kind = "qsgd"
    role = "coder"
    param = "B"

    def __init__(self, arg: str) -> None:
        self.bits = _parse_bits(self.kind, arg, 2, 16)

    @property
    def spec(self) -> str:
        return f"{self.kind}:{self.bits}"

    def footprint(self, size: int) -> WireSize:
        return WireSize(values=1, raw_bytes=int(np.ceil(size * self.bits / 8.0)))

    def code(self, values: np.ndarray, rng) -> np.ndarray:
        draws = rng.random(values.shape)  # data-independent rng consumption
        scale = float(np.max(np.abs(values))) if values.size else 0.0
        if scale == 0.0:
            return np.zeros_like(values)
        levels = (1 << (self.bits - 1)) - 1
        scaled = values / scale * levels
        floor = np.floor(scaled)
        quantized = np.clip(floor + (draws < scaled - floor), -levels, levels)
        return quantized * (scale / levels)


class _SignStage(_Stage):
    """1-bit sign compression with a mean-|x| scale (signSGD with
    majority-vote scaling collapses to this in the single-round view)."""

    kind = "sign"
    role = "coder"

    def __init__(self, arg: str) -> None:
        if arg:
            raise ConfigError(f"compression stage 'sign' takes no parameter, got {arg!r}")

    @property
    def spec(self) -> str:
        return self.kind

    def footprint(self, size: int) -> WireSize:
        return WireSize(values=1, raw_bytes=int(np.ceil(size / 8.0)))

    def code(self, values: np.ndarray, rng) -> np.ndarray:
        scale = float(np.mean(np.abs(values))) if values.size else 0.0
        return np.where(values < 0.0, -scale, scale)


class _UniformStage(_Stage):
    """Stochastic uniform quantization: two range scalars plus
    ``bits``-bit levels over [min, max], each value rounding up with
    probability equal to its fractional position (unbiased)."""

    kind = "quantize"
    role = "coder"
    param = "B"

    def __init__(self, arg: str) -> None:
        self.bits = _parse_bits(self.kind, arg, 1, 16)

    @property
    def spec(self) -> str:
        return f"{self.kind}:{self.bits}"

    def footprint(self, size: int) -> WireSize:
        return WireSize(values=2, raw_bytes=int(np.ceil(size * self.bits / 8.0)))

    def code(self, values: np.ndarray, rng) -> np.ndarray:
        draws = rng.random(values.shape)  # data-independent rng consumption
        lo = float(values.min()) if values.size else 0.0
        hi = float(values.max()) if values.size else 0.0
        if hi == lo:
            return np.full_like(values, lo)
        levels = (1 << self.bits) - 1
        scaled = (values - lo) / (hi - lo) * levels
        floor = np.floor(scaled)
        rounded = np.clip(floor + (draws < scaled - floor), 0, levels)
        return lo + rounded / levels * (hi - lo)


#: stage kind -> class: the one stage table.  The config choice registry
#: and the CLI help derive from it.
PIPELINE_STAGES: dict[str, type[_Stage]] = {
    _TopKStage.kind: _TopKStage,
    _QSGDStage.kind: _QSGDStage,
    _SignStage.kind: _SignStage,
    _UniformStage.kind: _UniformStage,
}


def stage_usage() -> str:
    """The stages as usage text: ``'topk:R, qsgd:B, sign, quantize:B'``."""
    return ", ".join(
        f"{kind}:{cls.param}" if cls.param else kind for kind, cls in PIPELINE_STAGES.items()
    )


def parse_compression_spec(spec: str) -> list[_Stage]:
    """Parse and validate a pipeline spec like ``"topk:0.01|qsgd:8"``.

    Returns the (possibly empty, for ``"none"``) stage list.  Raises
    :class:`~repro.exceptions.ConfigError` on unknown stages (through
    the ``compression`` choice registry, with its did-you-mean
    suggestion), bad parameters, or illegal compositions (more than one
    selector, more than one value coder, selector not first, coder not
    last).
    """
    from repro.fl.config import validate_choice

    if not isinstance(spec, str) or not spec.strip():
        raise ConfigError(f"compression spec must be a non-empty string, got {spec!r}")
    parts = [part.strip() for part in spec.split("|")]
    if "none" in parts:
        if parts != ["none"]:
            raise ConfigError(
                f"compression spec 'none' cannot be combined with other stages: {spec!r}"
            )
        return []
    stages: list[_Stage] = []
    for part in parts:
        kind, _, arg = part.partition(":")
        stages.append(PIPELINE_STAGES[validate_choice("compression", kind.strip())](arg.strip()))
    selectors = [s for s in stages if s.role == "selector"]
    coders = [s for s in stages if s.role == "coder"]
    if len(selectors) > 1:
        raise ConfigError(f"compression spec {spec!r} has more than one selector stage")
    if len(coders) > 1:
        raise ConfigError(f"compression spec {spec!r} has more than one value-coder stage")
    if selectors and stages[0] is not selectors[0]:
        raise ConfigError(f"selector stage must come first in compression spec {spec!r}")
    if coders and stages[-1] is not coders[0]:
        raise ConfigError(f"value-coder stage must come last in compression spec {spec!r}")
    return stages


class CompressionPipeline:
    """Composable lossy compressor built from a spec string.

    ``decode(encode(v))`` is bit-identical to ``compress(v)`` by
    construction (both run the same selection / coding and the same
    scatter, and consume the rng identically).  Stage wire footprints
    depend only on the input size — see :meth:`stage_footprints`.
    """

    def __init__(self, spec: str) -> None:
        stages = parse_compression_spec(spec)
        if not stages:
            raise ConfigError(
                "CompressionPipeline needs at least one stage; use "
                "compressor_from_spec() to map 'none' to no compressor"
            )
        self.stages = stages
        self.selector = next((s for s in stages if s.role == "selector"), None)
        self.coder = next((s for s in stages if s.role == "coder"), None)
        self.spec = "|".join(stage.spec for stage in stages)

    def __repr__(self) -> str:
        return f"CompressionPipeline({self.spec!r})"

    # -- shape accounting -------------------------------------------------------
    def wire_size(self, size: int) -> WireSize:
        """Total wire footprint for one d=size upload (data-independent)."""
        total = WireSize(values=0)
        for _, footprint in self.stage_footprints(size):
            total = total + footprint
        return total

    def stage_footprints(self, size: int) -> list[tuple[str, WireSize]]:
        """Per-stage true encoded bytes: ``[(stage_spec, WireSize), ...]``.

        Footprints sum to :meth:`wire_size`.  When no value coder is
        present the carrier values travel as dtype-width scalars,
        reported as a synthetic ``'values'`` entry.
        """
        out: list[tuple[str, WireSize]] = []
        carrier = int(size)
        if self.selector is not None:
            out.append((self.selector.spec, self.selector.footprint(size)))
            carrier = self.selector.carrier_size(size)
        if self.coder is not None:
            out.append((self.coder.spec, self.coder.footprint(carrier)))
        else:
            out.append(("values", WireSize(values=carrier)))
        return out

    # -- compression ------------------------------------------------------------
    def _encode_parts(
        self, vec: np.ndarray, rng
    ) -> tuple[np.ndarray | None, np.ndarray]:
        vec = np.asarray(vec, dtype=np.float64).ravel()
        indices: np.ndarray | None = None
        values = vec
        if self.selector is not None:
            indices, values = self.selector.select(vec)
        if self.coder is not None:
            values = self.coder.code(values, rng)
        return indices, np.asarray(values, dtype=np.float64)

    def _expand(
        self, indices: np.ndarray | None, values: np.ndarray, size: int
    ) -> np.ndarray:
        if self.selector is not None:
            out = np.zeros(int(size), dtype=np.float64)
            out[indices] = values
            return out
        return np.array(values, dtype=np.float64, copy=True)

    def compress(
        self, vec: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, WireSize]:
        """Return (lossy dense reconstruction, wire size)."""
        size = int(np.asarray(vec).size)
        indices, values = self._encode_parts(vec, rng)
        return self._expand(indices, values, size), self.wire_size(size)

    def encode(
        self, vec: np.ndarray, rng: np.random.Generator
    ) -> tuple[dict[str, np.ndarray], WireSize]:
        """Split ``vec`` into wire streams: ``values`` plus, after a
        coordinate selector, ``int32`` ``indices``."""
        size = int(np.asarray(vec).size)
        indices, values = self._encode_parts(vec, rng)
        streams = {"values": values}
        if indices is not None:
            streams["indices"] = indices.astype(np.int32)
        return streams, self.wire_size(size)

    def decode(self, streams: dict[str, np.ndarray], size: int) -> np.ndarray:
        """The dense reconstruction :meth:`compress` returns, from the
        streams :meth:`encode` returned."""
        return self._expand(streams.get("indices"), streams["values"], int(size))


def compressor_from_spec(spec: str | None) -> CompressionPipeline | None:
    """Canonical factory: spec string -> compressor (``None`` for 'none').

    ``compressor_from_spec("none")`` (or ``None`` / ``""``) returns
    ``None`` so callers can keep the uncompressed fast path — and its
    byte accounting — bit-identical to a run with no compression knob.
    """
    if spec is None or spec == "" or spec == "none":
        return None
    if not parse_compression_spec(spec):  # "none" with whitespace etc.
        return None
    return CompressionPipeline(spec)

