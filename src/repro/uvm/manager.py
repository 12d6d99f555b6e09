"""The node-level UVM space: one coherent view over a node's GPUs.

``UvmSpace`` is what a simulated node's executor talks to: it owns one page
table + migration engine + kernel pricer per GPU, tracks which managed
buffers exist, and defines the *pressure* (device-level oversubscription
factor) that drives the calibrated degradation curves.

Pressure of a device = bytes of all buffers ever touched on it (and still
alive there) ÷ device capacity — the closest observable analogue of the
paper's "allocated vs. available memory" factor at per-GPU granularity.

Kernel pricing has one fast path, the *pricing memo*.  A launch that
cannot evict (its page total fits the target's free pages), with default
advises, full-coverage accesses and all-or-none residency and dirtiness
on every device, is a function of an id-free count-level key; the memo
maps that key to the transition live pricing applied the first time
(clock deltas, per-(buffer, device) page states, the ``KernelCost``) and
re-applies it with slice-wide writes.  Steady loops reach only a handful
of keys, so almost every launch skips page sets, fault batching and
degradation arithmetic, while the simulation stays identical to live
pricing launch for launch.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.gpu.device import Gpu
from repro.gpu.kernel import AccessPattern, KernelLaunch, SizedBuffer
from repro.uvm.access import pages_for_bytes, touched_page_count
from repro.uvm.advise import Advise, AdviseRegistry
from repro.uvm.backends import PagingBackend, make_paging_backend
from repro.uvm.calibration import PAPER_CALIBRATION, UvmModelParams
from repro.uvm.migration import MigrationEngine
from repro.uvm.pagetable import DevicePageTable, UvmError
from repro.uvm.perfmodel import KernelCost, KernelPricer
from repro.uvm.prefetch import PrefetchConfig

#: Bound on the pricing memo's recorded transitions (least recently used
#: out first).  Keys are id-free, so a steady workload revisits a handful.
MEMO_CAPACITY = 512


@dataclass(frozen=True, slots=True)
class HostAccessCost:
    """Pricing of a host-side read or write of a managed buffer."""

    seconds: float
    writeback_bytes: int
    invalidated_bytes: int


@dataclass(slots=True)
class UvmStats:
    """Cumulative UVM traffic of one node (every GPU combined)."""

    kernel_launches: int = 0
    cold_bytes: int = 0
    refault_bytes: int = 0
    writeback_bytes: int = 0
    peer_bytes: int = 0
    prefetch_bytes: int = 0
    host_writeback_bytes: int = 0
    invalidated_bytes: int = 0
    thrashing_launches: int = 0

    @property
    def link_bytes(self) -> int:
        """Everything that crossed the host link (H2D + D2H)."""
        return (self.cold_bytes + self.refault_bytes
                + self.writeback_bytes + self.prefetch_bytes
                + self.host_writeback_bytes)


class _DeviceUvm:
    """Per-GPU bundle of page table, migration engine and pricer."""

    def __init__(self, gpu: Gpu, params: UvmModelParams,
                 prefetch: PrefetchConfig, eviction_order: str,
                 rng: np.random.Generator,
                 backend: PagingBackend | None = None):
        spec = gpu.spec
        self.gpu = gpu
        # Memory geometry is the hardware's; the page table never changes
        # with the paging design.  Fault pricing does: the engine and the
        # pricer see the backend-adapted spec (fault-batch constants).
        self.table = DevicePageTable(spec.total_pages, spec.page_size)
        engine_spec = spec if backend is None else backend.engine_spec(spec)
        self.engine = MigrationEngine(
            self.table, engine_spec, params, prefetch=prefetch,
            eviction_order=eviction_order, rng=rng)
        self.pricer = KernelPricer(self.engine, engine_spec, params)
        self.touched_buffers: dict[int, int] = {}   # buffer_id -> nbytes
        self.touched_total = 0                      # running sum of values
        self._memory_bytes = spec.memory_bytes

    @property
    def pressure(self) -> float:
        return self.touched_total / self._memory_bytes

    def touch(self, buffer_id: int, nbytes: int) -> None:
        """Record a buffer's footprint on this device (idempotent — a
        buffer's size is fixed while registered)."""
        if buffer_id not in self.touched_buffers:
            self.touched_buffers[buffer_id] = nbytes
            self.touched_total += nbytes

    def forget(self, buffer_id: int) -> None:
        nbytes = self.touched_buffers.pop(buffer_id, None)
        if nbytes is not None:
            self.touched_total -= nbytes
        if self.table.is_registered(buffer_id):
            self.table.unregister(buffer_id)


class UvmSpace:
    """Unified memory space of one node (all its GPUs + host backing)."""

    def __init__(self, gpus: list[Gpu], *,
                 params: UvmModelParams = PAPER_CALIBRATION,
                 prefetch: PrefetchConfig | None = None,
                 eviction_order: str = "lru",
                 seed: int = 0,
                 backend: PagingBackend | str | None = None):
        if not gpus:
            raise ValueError("UvmSpace needs at least one GPU")
        # The backend transforms every tunable before any engine exists.
        # The default (cpu-pme) returns each argument object unchanged,
        # so default construction is bit-for-bit the pre-backend path.
        self.backend = make_paging_backend(backend)
        self.params = self.backend.model_params(params)
        self.prefetch_config = self.backend.prefetch_config(
            prefetch or PrefetchConfig())
        self.eviction_order = self.backend.eviction_order(eviction_order)
        self.advises = AdviseRegistry()
        self.stats = UvmStats()
        rng = np.random.default_rng(seed)
        self._devices = {gpu.gpu_id: _DeviceUvm(
            gpu, self.params, self.prefetch_config, self.eviction_order,
            rng, backend=self.backend)
            for gpu in gpus}
        self._tables = tuple(dev.table for dev in self._devices.values())
        self._buffers: dict[int, int] = {}   # buffer_id -> nbytes
        # Incremental totals: register/unregister/advise adjust these so
        # the OSF — consulted on every kernel launch — is O(1) instead of
        # a sweep over every live buffer.  Advise mutations all flow
        # through :meth:`advise`, which keeps the pinned total honest.
        self._capacity = sum(g.spec.memory_bytes for g in gpus)
        self._managed_total = 0
        self._pinned_total = 0
        #: The pricing memo: memo key -> recorded transition, LRU-bounded
        #: by ``MEMO_CAPACITY``; ``memo_hits`` counts launches it served.
        self._memo: OrderedDict[tuple, KernelCostRecord] = OrderedDict()
        self.memo_hits = 0

    # -- buffer registry -----------------------------------------------------

    def register(self, buffer: SizedBuffer) -> None:
        """Add a buffer to the managed space (idempotent)."""
        existing = self._buffers.get(buffer.buffer_id)
        if existing is not None:
            if existing != buffer.nbytes:
                raise UvmError(
                    f"buffer {buffer.buffer_id} re-registered with a "
                    "different size")
            return
        self._buffers[buffer.buffer_id] = buffer.nbytes
        self._managed_total += buffer.nbytes
        if self.advises.for_buffer(buffer.buffer_id).preferred_host:
            self._pinned_total += buffer.nbytes

    def unregister(self, buffer_id: int) -> None:
        """Remove a buffer from the space and every device."""
        nbytes = self._buffers.pop(buffer_id, None)
        if nbytes is not None:
            self._managed_total -= nbytes
            if self.advises.for_buffer(buffer_id).preferred_host:
                self._pinned_total -= nbytes
        for dev in self._devices.values():
            dev.forget(buffer_id)
        self.advises.forget(buffer_id)

    def forget_buffer(self, buffer_id: int) -> None:
        """Drop what the pricers keep of a freed buffer."""
        for dev in self._devices.values():
            dev.pricer.forget(buffer_id)

    def is_registered(self, buffer_id: int) -> bool:
        """Whether a buffer belongs to this space."""
        return buffer_id in self._buffers

    @property
    def managed_bytes(self) -> int:
        """Total modeled bytes of every registered buffer."""
        return self._managed_total

    @property
    def capacity_bytes(self) -> int:
        """Sum of the node's GPU memory capacities."""
        return self._capacity

    @property
    def oversubscription(self) -> float:
        """The paper's node-level OSF: managed bytes / total GPU memory.

        Host-pinned buffers never compete for device memory, so they do
        not contribute pressure.
        """
        return (self._managed_total - self._pinned_total) / self._capacity

    def advise(self, buffer_id: int, advise: Advise,
               device: int | None = None) -> None:
        """Apply a ``cudaMemAdvise`` equivalent.

        Advising before first use is the normal CUDA pattern, so this does
        not require the buffer to be registered yet.
        """
        nbytes = self._buffers.get(buffer_id)
        if nbytes is None:
            self.advises.advise(buffer_id, advise, device)
            return
        advise_set = self.advises.for_buffer(buffer_id)
        was_pinned = advise_set.preferred_host
        advise_set.apply(advise, device)
        if advise_set.preferred_host != was_pinned:
            self._pinned_total += (nbytes if advise_set.preferred_host
                                   else -nbytes)

    def _require(self, buffer_id: int) -> int:
        try:
            return self._buffers[buffer_id]
        except KeyError:
            raise UvmError(
                f"buffer {buffer_id} is not registered in this UVM space"
            ) from None

    def _device(self, gpu: Gpu) -> _DeviceUvm:
        try:
            return self._devices[gpu.gpu_id]
        except KeyError:
            raise UvmError(f"{gpu!r} does not belong to this UVM space") \
                from None

    def device_pressure(self, gpu: Gpu) -> float:
        """Per-GPU footprint-based oversubscription estimate."""
        return self._device(gpu).pressure

    def resident_bytes(self, buffer_id: int, gpu: Gpu | None = None) -> int:
        """Resident bytes of a buffer on one GPU or node-wide."""
        devices = ([self._device(gpu)] if gpu is not None
                   else list(self._devices.values()))
        total = 0
        for dev in devices:
            if dev.table.is_registered(buffer_id):
                total += dev.table.resident_bytes(buffer_id)
        return total

    # -- kernel pricing --------------------------------------------------------

    def price_kernel(self, gpu: Gpu, launch: KernelLaunch) -> KernelCost:
        """Price one launch on ``gpu``, mutating residency state.

        The degradation operating point is the *node-level* OSF (managed
        bytes ÷ total GPU memory) — the paper's "allocated vs. available"
        factor: the whole allocation competes for the node's device memory
        regardless of which GPU a particular kernel lands on.

        Memo-eligible launches (see :meth:`_memo_key`) go through the
        pricing memo: a hit applies the recorded transition
        (:meth:`replay_kernel`), a miss prices live and records.  The
        memo only ever serves transitions the live pricer produced from
        an identical key, so both paths leave identical state.
        """
        probe = self._memo_key(self._device(gpu), launch)
        if probe is None:
            return self._price_live(gpu, launch)
        key, buffer_ids = probe
        cost = self.replay_kernel(gpu, key, buffer_ids)
        if cost is None:
            pre = _pre_fingerprint(self, buffer_ids)
            cost = self._price_live(gpu, launch)
            record = None if pre is None else _close_record(self, pre, cost)
            if record is not None:
                self._memo[key] = record
                if len(self._memo) > MEMO_CAPACITY:
                    self._memo.popitem(last=False)
        return cost

    def _memo_key(self, dev: _DeviceUvm, launch: KernelLaunch
                  ) -> tuple[tuple, list[int]] | None:
        """The launch's id-free memo key plus its buffer ids in first-use
        order (the key's launch-local indices), or ``None`` when the
        launch is not memo-eligible.

        The key holds everything the live pricer reads: the GPU, the page
        size, the flops, the node OSF, each access's shape over
        launch-local buffer indices, and each (buffer, device) state as
        unregistered (-1) or ``2 * resident + dirty`` with both
        all-or-none.  Eligible launches have default advises,
        full-coverage accesses and a page total no larger than the target
        GPU's free pages.  The page total is checked from buffer sizes
        alone, before any state is read: such a launch cannot evict, so
        its effect stays inside its own buffers — and oversubscribed
        launches skip the memo for the price of one sum.
        """
        table = dev.table
        page_size = table.page_size
        sizes: dict[int, int] = {}     # buffer id -> pages, first-use order
        for access in launch.accesses:
            buffer = access.buffer
            if buffer.buffer_id not in sizes:
                sizes[buffer.buffer_id] = pages_for_bytes(buffer.nbytes,
                                                          page_size)
        if sum(sizes.values()) > table.free_pages:
            return None
        index = {bid: i for i, bid in enumerate(sizes)}
        accesses = []
        for access in launch.accesses:
            buffer = access.buffer
            if (access.fraction < 1.0
                    and touched_page_count(access, page_size)
                    < sizes[buffer.buffer_id]):
                return None
            accesses.append((index[buffer.buffer_id], access.pattern,
                             access.fraction, access.direction,
                             access.passes, buffer.nbytes))
        states = []
        for bid, n_pages in sizes.items():
            self._require(bid)
            advise_set = self.advises.for_buffer(bid)
            if advise_set.preferred_host or advise_set.read_mostly:
                return None
            for t in self._tables:
                if not t.is_registered(bid):
                    states.append(-1)
                    continue
                state = t.buffer(bid)
                res = state.resident_count
                if res == 0:
                    states.append(0)
                    continue
                if res != n_pages:
                    return None
                dirty = state.dirty_count
                if dirty not in (0, n_pages):
                    return None
                states.append(3 if dirty else 2)
        key = (dev.gpu.gpu_id, page_size, launch.flops, self.oversubscription,
               tuple(accesses), tuple(states))
        return key, list(sizes)

    def _price_live(self, gpu: Gpu, launch: KernelLaunch) -> KernelCost:
        """The live pricer: page sets, peer pulls, faults and degradation
        from the current state (the memo's reference)."""
        dev = self._device(gpu)
        page_size = dev.table.page_size
        peer_seconds = 0.0
        peer_bytes = 0
        pinned: set[int] = set()
        for access in launch.accesses:
            buffer = access.buffer
            nbytes = self._require(buffer.buffer_id)
            advise_set = self.advises.for_buffer(buffer.buffer_id)
            if advise_set.preferred_host:
                # Zero-copy access: never migrated, no device footprint.
                pinned.add(buffer.buffer_id)
                continue
            if not dev.table.is_registered(buffer.buffer_id):
                dev.table.register(
                    buffer.buffer_id, pages_for_bytes(nbytes, page_size),
                    read_mostly=advise_set.read_mostly)
            dev.touch(buffer.buffer_id, nbytes)
            seconds, moved = self._peer_migrate(dev, buffer.buffer_id)
            peer_seconds += seconds
            peer_bytes += moved
        cost = dev.pricer.price(launch, self.oversubscription,
                                pinned_host=frozenset(pinned))
        if peer_seconds > 0:
            cost = dataclasses.replace(
                cost, duration=cost.duration + peer_seconds,
                peer_seconds=peer_seconds, peer_bytes=peer_bytes)
        stats = self.stats
        stats.kernel_launches += 1
        stats.cold_bytes += cost.cold_bytes
        stats.refault_bytes += cost.refault_bytes
        stats.writeback_bytes += cost.writeback_bytes
        stats.peer_bytes += cost.peer_bytes
        if cost.thrashing:
            stats.thrashing_launches += 1
        return cost

    def replay_kernel(self, gpu: Gpu, key: tuple,
                      buffer_ids: list[int]) -> KernelCost | None:
        """The pricing memo's hit path: apply the transition recorded
        under ``key`` instead of pricing live.

        ``buffer_ids`` resolves the record's launch-local indices.  The
        clocks advance by the recorded deltas and each changed (buffer,
        device) slice gets its recorded all-or-none state with slice-wide
        writes; the pricer's seed and ordinals and the stats move as live
        pricing would have moved them.  Returns ``None`` — with nothing
        mutated — when ``key`` was never recorded.
        """
        record = self._memo.get(key)
        if record is None:
            return None
        self._memo.move_to_end(key)
        dev = self._devices[gpu.gpu_id]
        tables = self._tables
        base = [t.clock for t in tables]
        for table, delta in zip(tables, record.clock_delta):
            if delta:
                table.advance_clock(delta)
        number = dev.pricer.number
        for b, bid in zip(record.buffers, buffer_ids):
            dev.touch(bid, b.nbytes)
            for table, clock, fill in zip(tables, base, b.fills):
                if fill is None:
                    continue
                register, resident, dirty, stamp, touches = fill
                if register:
                    table.register(bid, b.n_pages)
                table.fill_uniform(
                    bid, resident=resident, dirty=dirty,
                    clock=None if stamp is None else clock + stamp,
                    touches=touches)
            number(bid)
        dev.pricer._seed += 1
        cost = record.cost
        stats = self.stats
        stats.kernel_launches += 1
        stats.cold_bytes += cost.cold_bytes
        stats.peer_bytes += cost.peer_bytes
        self.memo_hits += 1
        return cost

    def _peer_migrate(self, target: _DeviceUvm,
                      buffer_id: int) -> tuple[float, int]:
        """Pull a buffer's pages from a peer GPU over NVLink.

        UVM migrates pages between devices of one node over NVLink when
        available — far cheaper than re-faulting them from the host.
        Read-mostly buffers are *duplicated* (the peer keeps its copy);
        everything else moves.  Returns (seconds, bytes moved); (0, 0)
        when there is no NVLink or no better-stocked peer.
        """
        nvlink = target.gpu.spec.nvlink_bandwidth
        if nvlink <= 0 or len(self._devices) < 2:
            return 0.0, 0
        table = target.table
        state = (table.buffer(buffer_id) if table.is_registered(buffer_id)
                 else None)
        best_pages = 0 if state is None else state.resident_count
        if state is not None and best_pages == state.n_pages:
            return 0.0, 0     # no peer can hold more than every page
        best: _DeviceUvm | None = None
        for dev in self._devices.values():
            if dev is target or not dev.table.is_registered(buffer_id):
                continue
            pages = dev.table.buffer(buffer_id).resident_count
            if pages > best_pages:
                best, best_pages = dev, pages
        if best is None:
            return 0.0, 0

        src_state = best.table.buffer(buffer_id)
        pages = np.flatnonzero(src_state.resident)
        if state is not None:
            pages = pages[~state.resident[pages]]
        if len(pages) == 0:
            return 0.0, 0
        if len(pages) > table.capacity_pages:
            pages = pages[-table.capacity_pages:]

        read_mostly = self.advises.for_buffer(buffer_id).read_mostly
        dirty = bool(src_state.dirty[pages].any())
        evicted = table.ensure_free(
            len(pages), order=self.eviction_order, rng=target.engine.rng)
        table.admit(buffer_id, pages, write=dirty and not read_mostly)
        if not read_mostly:
            best.table.drop(buffer_id)
        moved = len(pages) * table.page_size
        seconds = moved / nvlink
        if evicted.dirty_pages:
            # Displaced dirty pages still go home over PCIe.
            seconds += target.engine.transfer_seconds(
                0, evicted.dirty_pages, AccessPattern.SEQUENTIAL,
                self.oversubscription)
        return seconds, moved

    # -- explicit prefetch (the hand-tuning alternative, §I) ---------------------

    def prefetch(self, gpu: Gpu, buffer: SizedBuffer) -> float:
        """``cudaMemPrefetchAsync`` equivalent: bulk-migrate a buffer to a
        device ahead of use.

        Prefetch is the efficient path — no fault batching round-trips, the
        link runs at its raw rate — which is exactly why the hand-tuning
        school of §I reaches for it.  Returns the seconds the bulk copy
        takes (to be charged on the owning stream).
        """
        dev = self._device(gpu)
        table = dev.table
        nbytes = self._require(buffer.buffer_id)
        if not table.is_registered(buffer.buffer_id):
            read_mostly = self.advises.for_buffer(
                buffer.buffer_id).read_mostly
            table.register(
                buffer.buffer_id,
                pages_for_bytes(nbytes, table.page_size),
                read_mostly=read_mostly)
        dev.touch(buffer.buffer_id, nbytes)

        state = table.buffer(buffer.buffer_id)
        pages = np.flatnonzero(~state.resident)
        if len(pages) == 0:
            return 0.0
        if len(pages) > table.capacity_pages:
            pages = pages[-table.capacity_pages:]
        evicted = table.ensure_free(len(pages), order=self.eviction_order,
                                    rng=dev.engine.rng,
                                    protect=buffer.buffer_id)
        table.admit(buffer.buffer_id, pages, write=False)
        moved = len(pages) * table.page_size
        self.stats.prefetch_bytes += moved
        wb = evicted.dirty_pages * table.page_size \
            * self.params.writeback_factor
        return (moved + wb) / dev.gpu.spec.pcie_bandwidth

    # -- host access & coherence ------------------------------------------------

    def host_access(self, buffer_id: int, *, write: bool) -> HostAccessCost:
        """Price the host touching a buffer (read needs device write-back,
        write additionally invalidates device replicas)."""
        self._require(buffer_id)
        seconds = 0.0
        wb_bytes = invalidated = 0
        for dev in self._devices.values():
            if not dev.table.is_registered(buffer_id):
                continue
            stats = dev.engine.writeback(buffer_id, osf=dev.pressure)
            seconds += stats.seconds
            wb_bytes += stats.writeback_pages * dev.table.page_size
            if write:
                invalidated += dev.engine.invalidate(buffer_id) \
                    * dev.table.page_size
        self.stats.host_writeback_bytes += wb_bytes
        self.stats.invalidated_bytes += invalidated
        return HostAccessCost(seconds, wb_bytes, invalidated)

    def writeback(self, buffer_id: int) -> HostAccessCost:
        """Flush dirty pages of a buffer so the host copy is current."""
        return self.host_access(buffer_id, write=False)

    def invalidate(self, buffer_id: int) -> int:
        """Drop every device replica (remote node took ownership)."""
        self._require(buffer_id)
        dropped = 0
        for dev in self._devices.values():
            dropped += dev.engine.invalidate(buffer_id) * dev.table.page_size
        return dropped


# -- pricing-memo records -----------------------------------------------------

@dataclass(frozen=True, slots=True)
class BufferTransition:
    """One buffer's recorded page-state transition across a launch.

    ``fills`` holds one entry per device (in the space's device order):
    ``None`` when the launch left the buffer's slice there unchanged,
    else ``(register, resident, dirty, stamp, touches)`` — register the
    buffer first, then :meth:`DevicePageTable.fill_uniform` it with the
    new all-or-none residency and dirtiness (``None``: unchanged), the
    final ``last_access`` as an offset from the device's pre-launch
    clock (``None``: not stamped) and the uniform access-count delta.
    """

    nbytes: int
    n_pages: int
    fills: tuple[tuple[bool, bool | None, bool | None, int | None, int]
                 | None, ...]


@dataclass(frozen=True, slots=True)
class KernelCostRecord:
    """A launch's full recorded effect: transitions + clock + cost."""

    clock_delta: tuple[int, ...]
    buffers: tuple[BufferTransition, ...]
    cost: KernelCost


def _uniform(values: np.ndarray) -> int | None:
    """The single value of a uniform array, else ``None``."""
    lo = int(values.min())
    return lo if lo == int(values.max()) else None


def _device_state(table: DevicePageTable, buffer_id: int,
                  n_pages: int) -> tuple[int, int, int, int] | None:
    """All-or-nothing snapshot of one buffer on one device.

    ``None`` when the state is not representable by counts: partial
    residency/dirtiness or a non-uniform access count.
    """
    if not table.is_registered(buffer_id):
        return (0, 0, 0, 0)
    state = table.buffer(buffer_id)
    if state.n_pages != n_pages:
        return None
    res = state.resident_count
    dirty = state.dirty_count
    if res not in (0, n_pages) or dirty not in (0, n_pages):
        return None
    ac = _uniform(state.access_count)
    if ac is None:
        return None
    return (1, res, dirty, ac)


def _pre_fingerprint(space: UvmSpace, buffer_ids: list[int]) -> dict | None:
    """Count-level snapshot of a memo miss's buffers before live pricing
    (``None`` when some buffer's state is not representable by counts)."""
    tables = space._tables
    buffers = []
    for bid in buffer_ids:
        nbytes = space._buffers[bid]
        n_pages = pages_for_bytes(nbytes, tables[0].page_size)
        pre = tuple(_device_state(t, bid, n_pages) for t in tables)
        if None in pre:
            return None
        buffers.append((bid, nbytes, n_pages, pre))
    return {
        "buffers": buffers,
        "clock": [t.clock for t in tables],
        "resident": [t.resident_pages for t in tables],
    }


def _close_record(space: UvmSpace, pre: dict,
                  cost: KernelCost) -> KernelCostRecord | None:
    """The transition a live-priced launch applied, or ``None`` when it
    is not replayable from counts alone."""
    if cost.thrashing or cost.refault_bytes or cost.writeback_bytes:
        return None
    tables = space._tables
    resident_delta = [t.resident_pages - r
                      for t, r in zip(tables, pre["resident"])]
    transitions = []
    for bid, nbytes, n_pages, before in pre["buffers"]:
        fills = []
        for d, table in enumerate(tables):
            was = before[d]
            now = _device_state(table, bid, n_pages)
            if now is None:
                return None
            resident_delta[d] -= now[1] - was[1]
            if now == was:
                fills.append(None)
                continue
            stamp = None
            if now[3] != was[3]:     # touched: stamp clock
                last = _uniform(table.buffer(bid).last_access)
                if last is None:
                    return None
                stamp = last - pre["clock"][d]
            fills.append((
                not was[0],
                None if now[1] == was[1] else now[1] == n_pages,
                None if now[2] == was[2] else now[2] == n_pages,
                stamp, now[3] - was[3]))
        transitions.append(BufferTransition(
            nbytes=nbytes, n_pages=n_pages, fills=tuple(fills)))
    if any(resident_delta):
        # Some *other* buffer's residency moved (an eviction): the
        # launch's effect is not contained in its own access set.
        return None
    return KernelCostRecord(
        clock_delta=tuple(t.clock - c
                          for t, c in zip(tables, pre["clock"])),
        buffers=tuple(transitions),
        cost=cost,
    )
