"""The page-migration engine: prices and applies residency changes.

Every byte that crosses the host↔device link goes through here, in units of
base pages, batched the way the driver's fault handler batches them.  The
engine mutates the :class:`~repro.uvm.pagetable.DevicePageTable` and returns
the seconds the operation costs on the link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.gpu.kernel import AccessPattern
from repro.gpu.specs import GpuSpec
from repro.uvm.calibration import UvmModelParams
from repro.uvm.pagetable import DevicePageTable, EvictionResult
from repro.uvm.prefetch import PrefetchConfig, expand_faults


@dataclass(frozen=True, slots=True)
class MigrationStats:
    """Accounting of one migration operation."""

    migrated_pages: int = 0       # H2D pages brought in
    prefetched_pages: int = 0     # subset of migrated added by the prefetcher
    evicted_pages: int = 0        # pages pushed out to make room
    writeback_pages: int = 0      # dirty evictions needing D2H copies
    batches: int = 0
    seconds: float = 0.0

    def __add__(self, other: "MigrationStats") -> "MigrationStats":
        return MigrationStats(
            self.migrated_pages + other.migrated_pages,
            self.prefetched_pages + other.prefetched_pages,
            self.evicted_pages + other.evicted_pages,
            self.writeback_pages + other.writeback_pages,
            self.batches + other.batches,
            self.seconds + other.seconds,
        )


#: What a migration that moved nothing returns (the stats are frozen, so
#: every such call shares it).
_NOTHING = MigrationStats()


class MigrationEngine:
    """Prices residency changes for one device's page table."""

    def __init__(self, table: DevicePageTable, spec: GpuSpec,
                 params: UvmModelParams,
                 prefetch: PrefetchConfig | None = None,
                 eviction_order: str = "lru",
                 rng: np.random.Generator | None = None):
        self.table = table
        self.spec = spec
        self.params = params
        self.prefetch = prefetch or PrefetchConfig()
        self.eviction_order = eviction_order
        self.rng = rng or np.random.default_rng(0)

    # -- helpers -------------------------------------------------------------

    def link_bandwidth(self, pattern: AccessPattern, osf: float) -> float:
        """Effective fault-path bandwidth under pressure ``osf``, bytes/s."""
        p = self.params.pattern(pattern)
        return (self.spec.pcie_bandwidth * self.params.fault_bw_efficiency
                / p.degradation(osf))

    def batch_count(self, pages: int, pattern: AccessPattern) -> int:
        """Fault batches needed for ``pages`` under this pattern."""
        if pages <= 0:
            return 0
        p = self.params.pattern(pattern)
        return max(1, math.ceil(
            pages * p.batch_penalty / self.spec.fault_batch_pages))

    def transfer_seconds(self, in_pages: int, wb_pages: int,
                         pattern: AccessPattern, osf: float) -> float:
        """Seconds to move ``in_pages`` H2D plus ``wb_pages`` write-backs."""
        bw = self.link_bandwidth(pattern, osf)
        nbytes = (in_pages + wb_pages * self.params.writeback_factor) \
            * self.table.page_size
        batches = self.batch_count(in_pages, pattern)
        return batches * self.spec.fault_batch_latency + nbytes / bw

    # -- operations ----------------------------------------------------------

    def migrate_in(self, buffer_id: int, pages: np.ndarray, *,
                   write: bool, pattern: AccessPattern,
                   osf: float) -> MigrationStats:
        """Make ``pages`` of a buffer resident; returns cost + accounting.

        Pages already resident only get their LRU clock refreshed (free).
        If the faults alone exceed device capacity the caller should be in
        the thrashing path instead; here we admit as much of their tail as
        fits, which approximates the end state of a streaming sweep.
        Prefetch never displaces demand: an expansion that would not fit
        is dropped and the faults migrate alone.

        ``pages`` is sorted and duplicate-free, as every plan is, so a set
        as long as the buffer is a whole-buffer sweep.  Each of its
        non-resident pages faults, so every block the faults touch is
        dense and the prefetcher could only add pages that already fault:
        a sweep is never expanded.  A sweep of a buffer with every page
        resident, or with none, is priced from one resident count and
        touches and admits it with slice-wide writes.
        """
        table = self.table
        clock = table.tick()
        state = table.buffer(buffer_id)
        n_pages = state.n_pages
        capacity = table.capacity_pages
        sweep = len(pages) == n_pages
        if sweep:
            resident = state.resident_count
            dirty = True if write and not state.read_mostly else None
            if resident == n_pages:
                table.fill_uniform(buffer_id, resident=None, dirty=dirty,
                                   clock=clock, touches=1)
                return _NOTHING
            if resident == 0 and n_pages <= capacity:
                evicted = table.ensure_free(
                    n_pages, order=self.eviction_order, rng=self.rng,
                    protect=buffer_id)
                table.fill_uniform(buffer_id, resident=True, dirty=dirty,
                                   clock=clock, touches=1)
                return self._priced(n_pages, 0, evicted, pattern, osf)
        table.touch(buffer_id, pages, write=write, clock=clock)
        faults = expanded = pages[~state.resident[pages]]
        if len(faults) == 0:
            return _NOTHING
        if len(faults) > capacity:
            # Streaming a buffer bigger than the device: keep the sweep tail.
            expanded = faults = faults[-capacity:]
        elif not sweep and self.params.pattern(pattern).prefetchable:
            expanded = expand_faults(faults, state, pattern, self.prefetch)
            if len(expanded) > capacity:
                expanded = faults

        evicted = table.ensure_free(
            len(expanded), order=self.eviction_order, rng=self.rng,
            protect=buffer_id)
        table.admit(buffer_id, expanded, write=write, clock=clock)
        return self._priced(len(expanded), len(expanded) - len(faults),
                            evicted, pattern, osf)

    def _priced(self, migrated: int, prefetched: int,
                evicted: EvictionResult, pattern: AccessPattern,
                osf: float) -> MigrationStats:
        """Accounting of ``migrated`` admitted pages, ``prefetched`` of
        them by the prefetcher, after ``evicted`` made room."""
        # Demand faults pay the fault-path (batched handler round-trips,
        # reduced link efficiency); prefetched pages ride bulk DMA at the
        # raw link rate — that asymmetry is the prefetcher's whole value.
        fault_pages = migrated - prefetched
        seconds = self.transfer_seconds(
            fault_pages, evicted.dirty_pages, pattern, osf)
        if prefetched:
            degradation = self.params.pattern(pattern).degradation(osf)
            bulk_bw = self.spec.pcie_bandwidth / degradation
            seconds += prefetched * self.table.page_size / bulk_bw
        return MigrationStats(
            migrated_pages=migrated,
            prefetched_pages=prefetched,
            evicted_pages=evicted.evicted_pages,
            writeback_pages=evicted.dirty_pages,
            batches=self.batch_count(fault_pages, pattern),
            seconds=seconds,
        )

    def writeback(self, buffer_id: int, osf: float = 1.0) -> MigrationStats:
        """Flush a buffer's dirty pages D2H (host copy becomes current)."""
        if not self.table.is_registered(buffer_id):
            return MigrationStats()
        dirty = self.table.clean(buffer_id)
        if dirty == 0:
            return MigrationStats()
        seconds = self.transfer_seconds(
            0, dirty, AccessPattern.SEQUENTIAL, osf)
        return MigrationStats(writeback_pages=dirty, seconds=seconds)

    def invalidate(self, buffer_id: int) -> int:
        """Drop all resident pages of a buffer without write-back."""
        if not self.table.is_registered(buffer_id):
            return 0
        return self.table.drop(buffer_id)
