"""The node-level UVM space: one coherent view over a node's GPUs.

``UvmSpace`` is what a simulated node's executor talks to: it owns one page
table + migration engine + kernel pricer per GPU, tracks which managed
buffers exist, and defines the *pressure* (device-level oversubscription
factor) that drives the calibrated degradation curves.

Pressure of a device = bytes of all buffers ever touched on it (and still
alive there) ÷ device capacity — the closest observable analogue of the
paper's "allocated vs. available memory" factor at per-GPU granularity.
"""

from __future__ import annotations

import dataclasses
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
        self._buffers: dict[int, int] = {}   # buffer_id -> nbytes
        # Incremental totals: register/unregister/advise adjust these so
        # the OSF — consulted on every kernel launch — is O(1) instead of
        # a sweep over every live buffer.  Advise mutations all flow
        # through :meth:`advise`, which keeps the pinned total honest.
        self._capacity = sum(g.spec.memory_bytes for g in gpus)
        self._managed_total = 0
        self._pinned_total = 0

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
        """
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
        target_pages = (table.resident_bytes(buffer_id) // table.page_size
                        if table.is_registered(buffer_id) else 0)
        best: _DeviceUvm | None = None
        best_pages = target_pages
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
        if table.is_registered(buffer_id):
            pages = pages[~table.buffer(buffer_id).resident[pages]]
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

    # -- kernel-cost replay (plan cache) -----------------------------------------

    def replay_kernel(self, gpu: Gpu, launch: KernelLaunch,
                      record: "KernelCostRecord",
                      buffer_ids: list[int]) -> KernelCost | None:
        """Apply a recorded launch transition instead of pricing it.

        The plan cache's cost-replay fast path: when a hot tenant
        resubmits a program, every launch re-derives the same page-set
        math, fault batching and degradation arithmetic over fresh
        buffers.  :func:`capture_kernel_cost` recorded the launch's full
        effect — per-device residency transitions, clock movement and
        the final :class:`KernelCost` — as all-or-nothing page states;
        this method re-validates that the live space is in the recorded
        pre-state (O(1) counts per buffer × device, no page-set
        construction) and, when it is, applies the recorded post-state
        with slice-wide page-table writes and returns the recorded cost.

        Returns ``None`` — with *nothing mutated* — on any mismatch;
        the caller then falls back to :meth:`price_kernel`, which
        reproduces the correct behaviour from live state.
        ``buffer_ids`` maps the record's session-local buffer indices to
        this session's live buffer ids.
        """
        devices = sorted(self._devices)
        if (tuple(devices) != record.device_ids
                or gpu.gpu_id != record.gpu_id
                or self.oversubscription != record.pre_osf):
            return None
        tables = [self._devices[d].table for d in devices]
        if any(t.page_size != record.page_size for t in tables):
            return None
        admit_need = [0] * len(devices)
        resolved: list[int] = []
        for b in record.buffers:
            if b.index >= len(buffer_ids):
                return None
            bid = buffer_ids[b.index]
            resolved.append(bid)
            if self._buffers.get(bid) != b.nbytes:
                return None
            advise_set = self.advises.for_buffer(bid)
            if advise_set.preferred_host or advise_set.read_mostly:
                return None
            for d, table in enumerate(tables):
                reg, res, dirty, _ac = b.pre[d]
                if table.is_registered(bid) != bool(reg):
                    return None
                if reg:
                    state = table.buffer(bid)
                    if (state.n_pages != b.n_pages
                            or state.resident_count != res
                            or state.dirty_count != dirty):
                        return None
                admit_need[d] += max(0, b.post[d][1] - res)
        for d, table in enumerate(tables):
            if admit_need[d] > table.free_pages:
                return None

        # -- every guard passed; apply the recorded transition ---------------
        target = devices.index(gpu.gpu_id)
        dev = self._devices[gpu.gpu_id]
        base = [t.clock for t in tables]
        for d, table in enumerate(tables):
            if record.clock_delta[d]:
                table.advance_clock(record.clock_delta[d])
        for b, bid in zip(record.buffers, resolved):
            dev.touch(bid, b.nbytes)
            for d, table in enumerate(tables):
                reg, res, dirty, ac = b.pre[d]
                reg_post, res_post, dirty_post, ac_post = b.post[d]
                if not reg_post:
                    continue
                if not table.is_registered(bid):
                    table.register(bid, b.n_pages)
                touches = ac_post - ac
                if (res_post == res and dirty_post == dirty
                        and touches == 0):
                    continue
                stamp = b.stamp[d]
                table.fill_uniform(
                    bid,
                    resident=res_post == b.n_pages,
                    dirty=(None if dirty_post == dirty
                           else dirty_post == b.n_pages),
                    clock=base[d] + stamp if stamp >= 0 else None,
                    touches=touches)
            dev.pricer._ordinals.setdefault(bid,
                                            len(dev.pricer._ordinals))
        dev.pricer._seed += 1
        cost = record.cost
        stats = self.stats
        stats.kernel_launches += 1
        stats.cold_bytes += cost.cold_bytes
        stats.peer_bytes += cost.peer_bytes
        return cost

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


# -- kernel-cost recording (plan cache) ---------------------------------------

@dataclass(frozen=True, slots=True)
class BufferTransition:
    """One buffer's recorded page-state transition across a launch.

    Per device (ordered like the record's ``device_ids``): ``pre`` and
    ``post`` are ``(registered, resident_pages, dirty_pages,
    access_count)`` with page counts restricted to all-or-nothing (0 or
    ``n_pages``) and a *uniform* per-page access count — the invariant
    that makes count equality equivalent to exact state equality.
    ``stamp`` is the final ``last_access`` value as an offset from the
    device's pre-launch clock (−1: the launch never stamped it).
    """

    index: int              # session-local buffer index (plan-cache namespace)
    nbytes: int
    n_pages: int
    pre: tuple[tuple[int, int, int, int], ...]
    post: tuple[tuple[int, int, int, int], ...]
    stamp: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class KernelCostRecord:
    """A launch's full recorded effect: transitions + clock + cost."""

    gpu_id: int
    device_ids: tuple[int, ...]
    page_size: int
    pre_osf: float
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


def capture_kernel_cost(space: UvmSpace, gpu: Gpu, launch: KernelLaunch,
                        index_of: dict[int, int]
                        ) -> tuple[KernelCostRecord | None, KernelCost]:
    """Price a launch live and, when possible, record its transition.

    Wraps :meth:`UvmSpace.price_kernel` — the returned cost and every
    side effect are exactly the live path's.  A
    :class:`KernelCostRecord` is additionally returned when the
    launch's effect is replayable from counts alone: full-coverage
    accesses, default advises, all-or-nothing pre/post residency on
    every device, no evictions, write-backs, refaults or thrashing.
    ``index_of`` maps live buffer ids to session-local indices (the
    plan cache's cross-session buffer namespace).
    """
    record = _pre_fingerprint(space, gpu, launch, index_of)
    cost = space.price_kernel(gpu, launch)
    if record is None:
        return None, cost
    return _close_record(space, gpu, record, cost), cost


def _pre_fingerprint(space: UvmSpace, gpu: Gpu, launch: KernelLaunch,
                     index_of: dict[int, int]) -> dict | None:
    devices = sorted(space._devices)
    tables = [space._devices[d].table for d in devices]
    page_size = tables[0].page_size
    if any(t.page_size != page_size for t in tables):
        return None
    order: list[int] = []
    buffers: dict[int, dict] = {}
    for access in launch.accesses:
        bid = access.buffer.buffer_id
        index = index_of.get(bid)
        if index is None:
            return None
        advise_set = space.advises.for_buffer(bid)
        if advise_set.preferred_host or advise_set.read_mostly:
            return None
        nbytes = access.buffer.nbytes
        n_pages = pages_for_bytes(nbytes, page_size)
        if touched_page_count(access, page_size) < n_pages:
            return None           # partial coverage: page sets matter
        if bid in buffers:
            continue
        pre = []
        for table in tables:
            state = _device_state(table, bid, n_pages)
            if state is None:
                return None
            pre.append(state)
        order.append(bid)
        buffers[bid] = {"index": index, "nbytes": nbytes,
                        "n_pages": n_pages, "pre": tuple(pre)}
    if not order:
        return None
    return {
        "devices": devices,
        "tables": tables,
        "page_size": page_size,
        "order": order,
        "buffers": buffers,
        "osf": space.oversubscription,
        "clock": [t.clock for t in tables],
        "resident": [t.resident_pages for t in tables],
    }


def _close_record(space: UvmSpace, gpu: Gpu, pre: dict,
                  cost: KernelCost) -> KernelCostRecord | None:
    if cost.thrashing or cost.refault_bytes or cost.writeback_bytes:
        return None
    tables: list[DevicePageTable] = pre["tables"]
    resident_delta = [t.resident_pages - r
                      for t, r in zip(tables, pre["resident"])]
    transitions = []
    for bid in pre["order"]:
        info = pre["buffers"][bid]
        n_pages = info["n_pages"]
        post = []
        stamps = []
        for d, table in enumerate(tables):
            state = _device_state(table, bid, n_pages)
            if state is None:
                return None
            stamp = -1
            if state[3] != info["pre"][d][3]:     # touched: stamp clock
                last = _uniform(table.buffer(bid).last_access)
                if last is None:
                    return None
                stamp = last - pre["clock"][d]
            post.append(state)
            stamps.append(stamp)
            resident_delta[d] -= state[1] - info["pre"][d][1]
        transitions.append(BufferTransition(
            index=info["index"], nbytes=info["nbytes"], n_pages=n_pages,
            pre=info["pre"], post=tuple(post), stamp=tuple(stamps)))
    if any(resident_delta):
        # Some *other* buffer's residency moved (an eviction): the
        # launch's effect is not contained in its own access set.
        return None
    return KernelCostRecord(
        gpu_id=gpu.gpu_id,
        device_ids=tuple(pre["devices"]),
        page_size=pre["page_size"],
        pre_osf=pre["osf"],
        clock_delta=tuple(t.clock - c
                          for t, c in zip(tables, pre["clock"])),
        buffers=tuple(transitions),
        cost=cost,
    )
