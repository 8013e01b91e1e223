"""Virtual (lazy) federated populations for cross-device scale-out.

The paper's cross-device setting samples a ~100-client cohort from a
population that can be millions strong.  Because every dataset in
``repro.data`` is procedural, a client does not need to *exist* as an
array to be trainable — it only needs a recipe.  This module makes the
recipe first-class:

- :class:`VirtualPartition` is the ``(seed, partition-spec)`` handle: a
  frozen description of the whole population (dataset family, label
  skew, per-client sizes) from which any single client's shard can be
  rendered independently via :func:`materialize_client`.
- :class:`VirtualClientSet` is a lazy sequence of
  :class:`~repro.data.dataset.ArrayDataset` shards: ``clients[k]``
  materializes client ``k`` on demand and keeps at most ``max_live``
  shards resident (LRU), so a million-client population costs the
  memory of a cohort, not a census.
- :class:`VirtualFederatedDataset` duck-types
  :class:`~repro.data.dataset.FederatedDataset` (``clients`` /
  ``test`` / ``num_clients`` / ``client_sizes`` / ``weights``) so the
  trainer, the executors and every algorithm run unchanged on top of a
  virtual population.

Bit-identity contract: ``virtual.materialize()`` returns an eager
``FederatedDataset`` whose client shards are byte-for-byte the arrays
the lazy path would render, because both call the same
:func:`materialize_client` with the same per-client RNG stream
``[seed, _TAG_CLIENT, client_id]``.  A run over the virtual population
therefore produces bit-identical results to the same run over its
eager materialization (the ``virtual`` legs of ``tests/test_engine_identity.py``).

Render-ahead: the same purity lets a forked helper process render
shards on a spare CPU while the trainer works.
:meth:`VirtualClientSet.render_ahead` hands it a round's cohort and the
next one; ``clients[k]`` then takes a pending shard's bytes from the
helper instead of rendering them (``docs/scale.md``, "Rendering
ahead").
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import struct
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import ArrayDataset, DatasetSpec, FederatedDataset
from repro.data.synth_mnist import render_digits
from repro.exceptions import DataError
from repro.obs import sysinfo

# RNG stream tags: every virtual draw derives from [seed, tag, ...] so
# streams never collide with each other or with the trainer's
# [seed, round, client, ...] keys.
_TAG_CLIENT = 0xD7C1
_TAG_TEST = 0xD7E5
_TAG_SIZES = 0xD751


@dataclass(frozen=True)
class VirtualPartition:
    """Recipe for a procedurally generated federated population.

    Attributes:
        population: number of virtual clients N (any size; nothing here
            is O(N) except one int64 size vector).
        seed: master seed; every client's shard derives from
            ``[seed, tag, client_id]`` and nothing else, so shards can
            be rendered in any order, in any process, with identical
            bytes.
        dataset: procedural dataset family ('synth_mnist').
        samples_per_client: base shard size n_k (exact when
            ``size_sigma == 0``).
        similarity: the paper's s% knob — each sample is drawn IID
            uniform over labels with probability ``similarity``, and
            from the client's home label otherwise (0.0 = fully
            non-IID label skew, 1.0 = IID).
        image_size: glyph canvas side.
        noise: per-pixel render noise.
        size_sigma: lognormal quantity skew over shard sizes
            (0.0 = uniform ``samples_per_client`` everywhere).
        min_samples: shard-size floor under quantity skew.
        num_test: size of the eagerly rendered global test set.
    """

    population: int
    seed: int = 0
    dataset: str = "synth_mnist"
    samples_per_client: int = 20
    similarity: float = 0.0
    image_size: int = 12
    noise: float = 0.1
    size_sigma: float = 0.0
    min_samples: int = 4
    num_test: int = 256

    def __post_init__(self) -> None:
        if self.population <= 0:
            raise DataError("population must be positive")
        if self.dataset != "synth_mnist":
            raise DataError(
                f"unknown virtual dataset {self.dataset!r}; only procedural "
                "families can back a virtual population ('synth_mnist')"
            )
        if not 0.0 <= self.similarity <= 1.0:
            raise DataError("similarity must be in [0, 1]")
        if self.samples_per_client < 1:
            raise DataError("samples_per_client must be >= 1")
        if self.min_samples < 1:
            raise DataError("min_samples must be >= 1")
        if self.size_sigma < 0:
            raise DataError("size_sigma must be non-negative")
        if self.image_size < 9:
            raise DataError("image_size must be at least 9 to fit a glyph")

    @property
    def num_classes(self) -> int:
        return 10

    def dataset_spec(self) -> DatasetSpec:
        return DatasetSpec(
            name=self.dataset,
            kind="image",
            input_shape=(1, self.image_size, self.image_size),
            num_classes=self.num_classes,
        )

    def check_client_id(self, client_id: int) -> None:
        """Raise :class:`DataError` unless ``0 <= client_id < population``."""
        if not 0 <= client_id < self.population:
            raise DataError(
                f"client_id {client_id} out of range for population {self.population}"
            )

    def home_label(self, client_id: int) -> int:
        """The client's skewed label: contiguous id blocks share a label,
        so id-range strata align with label strata."""
        return (client_id * self.num_classes) // self.population

    def client_sizes(self) -> np.ndarray:
        """All N shard sizes as one vectorized draw (int64, O(N) but
        flat — 8 MB at a million clients)."""
        if self.size_sigma == 0.0:
            return np.full(self.population, self.samples_per_client, dtype=np.int64)
        rng = np.random.default_rng([self.seed, _TAG_SIZES])
        raw = rng.lognormal(mean=0.0, sigma=self.size_sigma, size=self.population)
        sizes = np.round(self.samples_per_client * raw).astype(np.int64)
        return np.maximum(sizes, self.min_samples)


def materialize_client(
    partition: VirtualPartition, client_id: int, size: int
) -> ArrayDataset:
    """Render client ``client_id``'s shard from its own RNG stream.

    Pure function of ``(partition, client_id, size)`` — the lazy path,
    the eager :meth:`VirtualPartition <VirtualFederatedDataset.materialize>`
    path, and forked worker processes all produce identical bytes.
    """
    partition.check_client_id(client_id)
    rng = np.random.default_rng([partition.seed, _TAG_CLIENT, client_id])
    coins = rng.random(size)
    iid_labels = rng.integers(0, partition.num_classes, size=size)
    labels = np.where(
        coins < partition.similarity, iid_labels, partition.home_label(client_id)
    ).astype(np.int64)
    images = render_digits(labels, partition.image_size, partition.noise, rng)
    return ArrayDataset(images, labels)


def materialize_test(partition: VirtualPartition) -> ArrayDataset:
    """The (small, eager) global test set: IID over all labels."""
    rng = np.random.default_rng([partition.seed, _TAG_TEST])
    labels = rng.integers(0, partition.num_classes, size=partition.num_test)
    images = render_digits(labels, partition.image_size, partition.noise, rng)
    return ArrayDataset(images, labels)


# The render-ahead helper's messages: a request is a u32 count and that
# many int64 client ids; a rendered shard is its int64 id, then the bytes
# of its ``y`` (int64) and ``x`` (float64), whose shapes the receiver
# knows from the partition.
_COUNT = struct.Struct("<I")
_ID = struct.Struct("<q")


def _recv_exactly(sock: socket.socket, buffer) -> bool:
    """Fill ``buffer`` from ``sock``; False on EOF."""
    view = memoryview(buffer).cast("B")
    while view:
        got = sock.recv_into(view)
        if not got:
            return False
        view = view[got:]
    return True


def _render_loop(partition, sizes, sock, parent_end) -> None:
    """The helper's body: render every id it is sent, in order, until the
    socket closes.  It leaves through ``os._exit`` on every path, so it
    never flushes the copies of the parent's buffered files it inherited."""
    try:
        parent_end.close()
        count = bytearray(_COUNT.size)
        while _recv_exactly(sock, count):
            ids = np.empty(_COUNT.unpack(count)[0], dtype="<i8")
            if not _recv_exactly(sock, ids):
                break
            for client_id in ids.tolist():
                shard = materialize_client(partition, client_id, int(sizes[client_id]))
                sock.sendall(_ID.pack(client_id))
                sock.sendall(shard.y)
                sock.sendall(shard.x)
    finally:
        os._exit(0)


class _RenderAhead:
    """One forked child rendering the shards it is handed, in order,
    streaming their bytes back over a ``socketpair``.

    ``pending`` holds the ids requested and not yet received, in the
    order they arrive.  The child's send buffer is sized to
    ``buffer_bytes`` so it can finish a whole cohort while the parent is
    not reading; ``granted_bytes`` is what the kernel gave
    (``net.core.wmem_max`` caps it).
    """

    def __init__(self, partition, sizes: np.ndarray, buffer_bytes: int) -> None:
        self.partition = partition
        self.sizes = sizes
        parent_end, child_end = socket.socketpair()
        level, option = socket.SOL_SOCKET, socket.SO_SNDBUF
        if child_end.getsockopt(level, option) < buffer_bytes:
            child_end.setsockopt(level, option, buffer_bytes)
        self.granted_bytes = child_end.getsockopt(level, option)
        self.proc = multiprocessing.get_context("fork").Process(
            target=_render_loop,
            args=(partition, sizes, child_end, parent_end),
            daemon=True,
            name="repro-render-ahead",
        )
        self.proc.start()
        child_end.close()
        self.sock = parent_end
        self.owner = os.getpid()
        self.pending: OrderedDict[int, None] = OrderedDict()

    def request(self, ids: list[int]) -> None:
        self.sock.sendall(_COUNT.pack(len(ids)) + np.asarray(ids, dtype="<i8").tobytes())
        self.pending.update(dict.fromkeys(ids))

    def receive(self) -> tuple[int, ArrayDataset]:
        """The next shard in request order; EOFError if the helper is gone."""
        client_id, _ = self.pending.popitem(last=False)
        side = self.partition.image_size
        size = int(self.sizes[client_id])
        header = bytearray(_ID.size)
        y = np.empty(size, dtype=np.int64)
        x = np.empty((size, 1, side, side))
        for buffer in (header, y, x):
            if not _recv_exactly(self.sock, buffer):
                raise EOFError("the render-ahead helper closed its socket")
        if _ID.unpack(header)[0] != client_id:
            raise EOFError("the render-ahead helper's stream is out of order")
        return client_id, ArrayDataset(x, y)

    def close(self) -> None:
        self.sock.close()
        self.proc.kill()
        self.proc.join()


class VirtualClientSet:
    """Lazy sequence of client shards with a bounded LRU of live ones.

    ``clients[k]`` renders client ``k`` on first touch and caches the
    shard; at most ``max_live`` shards stay resident, evicted least
    recently used.  Eviction only ever forces a re-render — the shard's
    bytes are a pure function of ``(partition, k)``, so lazy and eager
    access are bit-identical for any ``max_live``.

    :meth:`render_ahead` moves the rendering to a forked helper on a
    spare CPU; ``materializations`` counts the shards this process took,
    rendered here or there, not the ones the helper rendered for nothing.
    """

    def __init__(
        self, partition: VirtualPartition, sizes: np.ndarray, max_live: int = 256
    ) -> None:
        if max_live < 1:
            raise DataError(f"max_live must be >= 1, got {max_live}")
        self.partition = partition
        self._sizes = sizes
        self.max_live = max_live
        self._live: OrderedDict[int, ArrayDataset] = OrderedDict()
        self.materializations = 0
        self._ahead: _RenderAhead | None = None
        self._ready: dict[int, ArrayDataset] = {}  # received, not yet taken
        self._upcoming: set[int] = set()  # the next round's ids: release() keeps them
        self.render_ahead_lost = False

    def __len__(self) -> int:
        return self.partition.population

    def __getitem__(self, client_id: int) -> ArrayDataset:
        client_id = int(client_id)
        # Before _sizes is indexed: numpy would wrap a negative id and
        # raise its own IndexError past the end.
        self.partition.check_client_id(client_id)
        shard = self._live.get(client_id)
        if shard is not None:
            self._live.move_to_end(client_id)
            return shard
        shard = self._rendered_ahead(client_id)
        if shard is None:
            shard = materialize_client(
                self.partition, client_id, int(self._sizes[client_id])
            )
        self.materializations += 1
        self._live[client_id] = shard
        while len(self._live) > self.max_live:
            self._live.popitem(last=False)
        return shard

    def __iter__(self):
        # Iteration materializes every client (through the LRU) — fine
        # for small populations and opt-in full-population evaluation;
        # cohort-based code paths never iterate.
        for client_id in range(len(self)):
            yield self[client_id]

    @property
    def live_clients(self) -> int:
        """Number of currently materialized shards (bounded by max_live)."""
        return len(self._live)

    def release(self) -> None:
        """Drop every live shard (e.g. at a round boundary), and every
        shard rendered ahead that the next round will not ask for."""
        self._live.clear()
        helper = self._helper()
        if helper is None:
            return
        for client_id in [k for k in self._ready if k not in self._upcoming]:
            del self._ready[client_id]
        # The dropped ids were requested before the next round's, so
        # draining them off the front keeps ``pending`` within two cohorts.
        try:
            while helper.pending and next(iter(helper.pending)) not in self._upcoming:
                helper.receive()
        except (EOFError, OSError):
            self._lose_helper()

    # -- render-ahead ------------------------------------------------------------------
    def render_ahead(self, current, upcoming=()) -> None:
        """Have a helper process render this round's shards (``current``)
        and the next round's (``upcoming``) while this process trains.

        The helper is forked on the first call, when this process may run
        on more than one CPU (:func:`repro.obs.sysinfo.usable_cpus`) and may
        fork (:func:`repro.obs.sysinfo.fork_refusal`), and lives until
        :meth:`close`.  Ids already live, received
        or pending are not requested again.  :meth:`release` keeps what
        was rendered for ``upcoming`` and drops the rest.  Without a
        helper this is a no-op and every shard renders inline, with the
        same bytes.
        """
        current = [int(k) for k in current]
        upcoming = [int(k) for k in upcoming]
        if (
            self._ahead is None
            and not self.render_ahead_lost
            and sysinfo.usable_cpus() > 1
            and sysinfo.fork_refusal() is None
        ):
            self._ahead = _RenderAhead(
                self.partition, self._sizes,
                max(self._shard_bytes(current), self._shard_bytes(upcoming)),
            )
        helper = self._helper()
        if helper is None:
            return
        queued = set(self._live) | set(self._ready) | set(helper.pending)
        ids = [k for k in dict.fromkeys(current + upcoming) if k not in queued]
        self._upcoming = set(upcoming)
        try:
            helper.request(ids)
        except OSError:
            self._lose_helper()

    def close(self) -> None:
        """Stop this process's helper and forget what it rendered; a
        later :meth:`render_ahead` forks a new one.  A no-op in a process
        that did not fork it."""
        if self._ahead is not None:
            if self._helper() is None:
                return
            self._ahead.close()
        self._ahead = None
        self._ready.clear()
        self._upcoming = set()
        self.render_ahead_lost = False

    def _helper(self) -> _RenderAhead | None:
        """The helper, if this process forked it: a worker forked from the
        trainer inherits the object but must never touch the socket."""
        helper = self._ahead
        if helper is None or helper.owner != os.getpid():
            return None
        return helper

    def _shard_bytes(self, ids: list[int]) -> int:
        pixels = self.partition.image_size ** 2
        return sum(_ID.size + 8 * (1 + pixels) * int(self._sizes[k]) for k in ids)

    def _rendered_ahead(self, client_id: int) -> ArrayDataset | None:
        """The shard the helper rendered for ``client_id``, waiting for it
        if it is pending; ``None`` when it was never requested."""
        helper = self._helper()
        if helper is None:
            return None
        shard = self._ready.pop(client_id, None)
        if shard is not None or client_id not in helper.pending:
            return shard
        try:
            while True:
                got_id, got = helper.receive()
                if got_id == client_id:
                    return got
                self._ready[got_id] = got
        except (EOFError, OSError):
            self._lose_helper()
            return None

    def _lose_helper(self) -> None:
        """The helper died: warn once, reap it, render inline from now on."""
        warnings.warn(
            "the render-ahead helper was lost; the rest of the run renders "
            "its shards inline, with the same bytes",
            RuntimeWarning,
            stacklevel=3,
        )
        self._ahead.close()
        self._ahead = None
        self._ready.clear()
        self.render_ahead_lost = True


class VirtualFederatedDataset:
    """A federated dataset whose clients are recipes, not arrays.

    Duck-types :class:`~repro.data.dataset.FederatedDataset`: the
    trainer, samplers, executors and algorithms only use ``clients[k]``,
    ``test``, ``num_clients``, ``client_sizes``, ``weights`` and
    ``total_train_samples()``, all of which work here without ever
    materializing the population.  ``virtual`` is True so scale-aware
    code (round-boundary shard release, RSS gauges) can detect it with
    ``getattr(fed, "virtual", False)``.
    """

    virtual = True

    def __init__(self, partition: VirtualPartition, max_live: int = 256) -> None:
        self.partition = partition
        self.spec = partition.dataset_spec()
        self._sizes = partition.client_sizes()
        self.clients = VirtualClientSet(partition, self._sizes, max_live=max_live)
        self.test = materialize_test(partition)
        self.client_test: list[ArrayDataset] = []

    @property
    def num_clients(self) -> int:
        return self.partition.population

    @property
    def client_sizes(self) -> np.ndarray:
        return self._sizes

    @property
    def weights(self) -> np.ndarray:
        sizes = self._sizes.astype(np.float64)
        return sizes / sizes.sum()

    def total_train_samples(self) -> int:
        return int(self._sizes.sum())

    def release(self) -> None:
        self.clients.release()

    def materialize(self) -> FederatedDataset:
        """The eager equivalent: every shard rendered up front.

        This is the bit-identity reference — only sensible for small
        populations (tests, benchmark gates).
        """
        shards = [
            materialize_client(self.partition, k, int(self._sizes[k]))
            for k in range(self.partition.population)
        ]
        return FederatedDataset(
            spec=self.spec, clients=shards, test=self.test, client_test=[]
        )


def make_virtual_federation(
    population: int,
    *,
    seed: int = 0,
    similarity: float = 0.0,
    samples_per_client: int = 20,
    image_size: int = 12,
    noise: float = 0.1,
    size_sigma: float = 0.0,
    num_test: int = 256,
    max_live: int = 256,
) -> VirtualFederatedDataset:
    """Convenience builder for a virtual synthetic-MNIST population."""
    partition = VirtualPartition(
        population=population,
        seed=seed,
        similarity=similarity,
        samples_per_client=samples_per_client,
        image_size=image_size,
        noise=noise,
        size_sigma=size_sigma,
        num_test=num_test,
    )
    return VirtualFederatedDataset(partition, max_live=max_live)
