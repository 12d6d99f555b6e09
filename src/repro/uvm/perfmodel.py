"""Kernel-launch pricing on a UVM device.

This module turns a bound :class:`~repro.gpu.kernel.KernelLaunch` plus the
current page-table state into a simulated duration, mutating residency as a
side effect.  The cost structure:

*  **fits** (per-launch working set ≤ device capacity): cold pages migrate
   at the (possibly degraded) fault bandwidth, partially overlapped with
   execution; execution itself runs at ``max(compute, HBM traffic)``.
*  **thrashing** (working set > capacity): every pass over the data
   re-faults evicted pages; the LRU + cyclic-sweep combination refaults the
   *entire* working set per pass, random eviction only the capacity excess.
   Compute barely overlaps — the SMs stall on fault service.

Device *pressure* (managed bytes ÷ capacity, supplied by the caller)
selects the operating point on the calibrated degradation curve: this is
what produces the paper's oversubscription cliffs even when each individual
launch fits.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.gpu.kernel import AccessPattern, ArrayAccess, KernelLaunch
from repro.gpu.specs import GpuSpec
from repro.uvm.access import (merge_page_sets, page_set, pages_for_bytes,
                              touched_page_count)
from repro.uvm.calibration import UvmModelParams
from repro.uvm.migration import MigrationEngine, MigrationStats

#: Severity order used when one buffer is touched with several patterns.
_SEVERITY = {
    AccessPattern.SEQUENTIAL: 0,
    AccessPattern.STRIDED: 1,
    AccessPattern.RANDOM: 2,
}


@dataclass(frozen=True, slots=True)
class KernelCost:
    """Full pricing breakdown of one kernel launch."""

    duration: float
    compute_seconds: float
    hbm_seconds: float
    migration_seconds: float
    thrash_seconds: float
    working_set_bytes: int
    cold_bytes: int
    refault_bytes: int
    writeback_bytes: int
    pressure: float
    thrashing: bool
    #: Intra-node GPU↔GPU page movement over NVLink (set by the UVM
    #: space's peer pre-pass, not the per-device pricer).
    peer_seconds: float = 0.0
    peer_bytes: int = 0

    @property
    def link_bytes(self) -> int:
        """Total host-link traffic of the launch."""
        return self.cold_bytes + self.refault_bytes + self.writeback_bytes


@dataclass(frozen=True, slots=True)
class _BufferPlan:
    """Per-buffer aggregation of a launch's accesses (id-free: the
    launch pairs it with its buffer id)."""

    pages: np.ndarray
    writes: bool
    pattern: AccessPattern
    passes: float


#: Bound on each pricer's memoized plans, least recently used out
#: first.  A request's launches revisit a handful of keys (a Fig. 7 run
#: uses 3-5 per pricer); a long-lived service's cold requests bring
#: buffer sizes that never return, and the cap lets their plans age out.
PLAN_CACHE_CAP = 64


def _seed_free(access: ArrayAccess, page_size: int) -> bool:
    """Whether this access's page set is independent of the launch seed.

    Full-coverage accesses short-circuit to ``arange`` regardless of
    pattern, and STRIDED never consults the seed; only partial SEQUENTIAL
    (rotating window) and partial RANDOM (seeded sample) vary per launch.
    """
    if access.fraction >= 1.0 or access.pattern is AccessPattern.STRIDED:
        return True
    total = pages_for_bytes(access.buffer.nbytes, page_size)
    return touched_page_count(access, page_size) >= total


def _build_plan(group: list[ArrayAccess], page_size: int,
                seed: int, entropy: int | None) -> _BufferPlan:
    if len(group) == 1:
        # page_set output is already sorted and duplicate-free, so the
        # single-access common case skips the concatenate/argsort merge.
        access = group[0]
        return _BufferPlan(
            pages=page_set(access, page_size, seed, entropy=entropy),
            writes=access.direction.writes,
            pattern=access.pattern,
            passes=access.passes,
        )
    sets = [(page_set(a, page_size, seed, entropy=entropy),
             a.direction.writes)
            for a in group]
    pages, write_mask = merge_page_sets(sets)
    pattern = max((a.pattern for a in group),
                  key=lambda p: _SEVERITY[p])
    return _BufferPlan(
        pages=pages,
        writes=bool(write_mask.any()),
        pattern=pattern,
        passes=max(a.passes for a in group),
    )


def _plan_buffers(accesses: tuple[ArrayAccess, ...], page_size: int,
                  seed: int,
                  ordinals: dict[int, int] | None = None,
                  cache: OrderedDict | None = None
                  ) -> list[tuple[int, _BufferPlan]]:
    """Group a launch's accesses by buffer, merging page sets; returns
    ``(buffer_id, plan)`` pairs in first-use order.

    ``ordinals`` maps buffer ids to stable first-use ordinals so RANDOM
    page sampling is reproducible across runs (global buffer ids are not).
    ``cache`` memoizes plans whose page sets are seed-independent (see
    :func:`_seed_free`): iterative workloads re-price the same
    full-buffer accesses thousands of times, and the resulting plan —
    pages array included — is identical every launch.  Such a plan
    depends only on the buffer's page count and the access shapes, so
    that is the key: buffers of one size share an entry.  The cache
    keeps the :data:`PLAN_CACHE_CAP` most recently used plans, so the
    sizes of a long-lived service's departed buffers age out instead of
    piling up.  Consumers only read the pages array (fancy indexing), so
    sharing it is safe.
    """
    grouped: dict[int, list[ArrayAccess]] = {}
    for access in accesses:
        grouped.setdefault(access.buffer.buffer_id, []).append(access)
    plans = []
    for buffer_id, group in grouped.items():
        entropy = ordinals.get(buffer_id) if ordinals is not None else None
        if cache is not None and all(_seed_free(a, page_size)
                                     for a in group):
            key = (pages_for_bytes(group[0].buffer.nbytes, page_size),
                   tuple((a.pattern, a.fraction, a.direction, a.passes)
                         for a in group))
            plan = cache.get(key)
            if plan is None:
                plan = _build_plan(group, page_size, seed, entropy)
                cache[key] = plan
                if len(cache) > PLAN_CACHE_CAP:
                    cache.popitem(last=False)
            else:
                cache.move_to_end(key)
            plans.append((buffer_id, plan))
            continue
        plans.append((buffer_id,
                      _build_plan(group, page_size, seed, entropy)))
    return plans


#: PCIe transaction amplification for random zero-copy access: scattered
#: element loads cannot be coalesced into full-width transfers.
ZERO_COPY_RANDOM_AMPLIFICATION = 8.0


class KernelPricer:
    """Prices kernel launches on one device's migration engine."""

    def __init__(self, engine: MigrationEngine, spec: GpuSpec,
                 params: UvmModelParams):
        self.engine = engine
        self.spec = spec
        self.params = params
        self._seed = 0
        #: buffer id -> first-use ordinal; keeps RANDOM page sampling
        #: deterministic across runs (ids are process-global counters).
        #: A freed buffer's entry goes with it (:meth:`forget`); the
        #: count of buffers ever seen numbers the next one, so every
        #: live buffer keeps its ordinal.
        self._ordinals: dict[int, int] = {}
        self._ordinals_seen = 0
        #: Memoized seed-independent buffer plans, LRU-bounded by
        #: ``PLAN_CACHE_CAP`` (see _plan_buffers).
        self._plan_cache: OrderedDict[tuple, _BufferPlan] = OrderedDict()

    def number(self, buffer_id: int) -> None:
        """Give a buffer its first-use ordinal, once."""
        if buffer_id not in self._ordinals:
            self._ordinals[buffer_id] = self._ordinals_seen
            self._ordinals_seen += 1

    def forget(self, buffer_id: int) -> None:
        """Drop a freed buffer's ordinal."""
        self._ordinals.pop(buffer_id, None)

    def price(self, launch: KernelLaunch, pressure: float,
              pinned_host: frozenset[int] = frozenset()) -> KernelCost:
        """Price and apply one launch; ``pressure`` is device OSF.

        Buffers in ``pinned_host`` (``cudaMemAdviseSetPreferredLocation``
        host) are accessed zero-copy over PCIe: no migration, no device
        residency, no thrash degradation — but every pass pays the link,
        and random access pays transaction amplification on top.
        """
        self._seed += 1
        table = self.engine.table
        regular = tuple(a for a in launch.accesses
                        if a.buffer.buffer_id not in pinned_host)
        zero_copy_s = 0.0
        for access in launch.accesses:
            if access.buffer.buffer_id in pinned_host:
                traffic = access.touched_bytes * access.passes
                if access.pattern is AccessPattern.RANDOM:
                    traffic *= ZERO_COPY_RANDOM_AMPLIFICATION
                zero_copy_s += traffic / self.spec.pcie_bandwidth
        launch = KernelLaunch(launch.kernel, launch.config, launch.args,
                              regular) if zero_copy_s else launch
        for access in launch.accesses:
            self.number(access.buffer.buffer_id)
        plans = _plan_buffers(launch.accesses, table.page_size,
                              self._seed, self._ordinals,
                              cache=self._plan_cache)

        ws_pages = sum(len(p.pages) for _, p in plans)
        ws_bytes = ws_pages * table.page_size
        capacity = table.capacity_pages
        pressure = max(pressure, ws_pages / capacity)

        compute_s = launch.flops / self.spec.fp32_flops
        traffic = sum(a.touched_bytes * a.passes for a in launch.accesses)
        hbm_s = traffic / self.spec.hbm_bandwidth

        if ws_pages <= capacity:
            cost = self._price_fitting(plans, pressure, compute_s, hbm_s,
                                       ws_bytes)
        else:
            cost = self._price_thrashing(plans, pressure, compute_s, hbm_s,
                                         ws_bytes, capacity)
        if zero_copy_s:
            cost = dataclasses.replace(
                cost,
                duration=cost.duration + zero_copy_s,
                migration_seconds=cost.migration_seconds + zero_copy_s)
        return cost

    # -- the two regimes ------------------------------------------------------

    def _price_fitting(self, plans: list[tuple[int, _BufferPlan]],
                       pressure: float, compute_s: float, hbm_s: float,
                       ws_bytes: int) -> KernelCost:
        stats = MigrationStats()
        for buffer_id, plan in plans:
            stats = stats + self.engine.migrate_in(
                buffer_id, plan.pages, write=plan.writes,
                pattern=plan.pattern, osf=pressure)
        exec_s = max(compute_s, hbm_s)
        mig_s = stats.seconds
        # Prefetch pipelining hides part of the shorter phase.
        overlap = self.params.migration_overlap * min(mig_s, exec_s)
        duration = (self.spec.kernel_launch_overhead + mig_s + exec_s
                    - overlap)
        page = self.engine.table.page_size
        return KernelCost(
            duration=duration,
            compute_seconds=compute_s,
            hbm_seconds=hbm_s,
            migration_seconds=mig_s,
            thrash_seconds=0.0,
            working_set_bytes=ws_bytes,
            cold_bytes=stats.migrated_pages * page,
            refault_bytes=0,
            writeback_bytes=stats.writeback_pages * page,
            pressure=pressure,
            thrashing=False,
        )

    def _price_thrashing(self, plans: list[tuple[int, _BufferPlan]],
                         pressure: float, compute_s: float, hbm_s: float,
                         ws_bytes: int, capacity: int) -> KernelCost:
        table = self.engine.table
        page = table.page_size
        cap_bytes = capacity * page
        lru = self.engine.eviction_order == "lru"

        link_s = 0.0
        cold_bytes = refault_bytes = wb_bytes = 0
        for buffer_id, plan in plans:
            touched = len(plan.pages) * page
            # First pass: everything not resident comes in cold.
            resident = int(
                table.buffer(buffer_id).resident[plan.pages].sum())
            cold = touched - resident * page
            # Later passes: cyclic sweep under LRU refaults everything the
            # sweep itself evicted; random replacement only the excess.
            share = touched / ws_bytes
            cap_share = cap_bytes * share
            if lru:
                refault_frac = 1.0 if touched > cap_share else 0.0
            else:
                refault_frac = max(0.0, 1.0 - cap_share / touched)
            refault = touched * refault_frac * max(0.0, plan.passes - 1)
            wb = (cold + refault) if plan.writes else 0.0
            in_pages = int((cold + refault) / page)
            link_s += self.engine.transfer_seconds(
                in_pages, int(wb / page), plan.pattern, pressure)
            cold_bytes += int(cold)
            refault_bytes += int(refault)
            wb_bytes += int(wb)
            # End state: the tail of the sweep stays resident.
            self._settle_residency(buffer_id, plan, capacity, ws_bytes)

        hidden = self.params.thrash_overlap * min(compute_s, link_s)
        duration = (self.spec.kernel_launch_overhead + link_s + compute_s
                    - hidden)
        return KernelCost(
            duration=duration,
            compute_seconds=compute_s,
            hbm_seconds=hbm_s,
            migration_seconds=0.0,
            thrash_seconds=link_s,
            working_set_bytes=ws_bytes,
            cold_bytes=cold_bytes,
            refault_bytes=refault_bytes,
            writeback_bytes=wb_bytes,
            pressure=pressure,
            thrashing=True,
        )

    def _settle_residency(self, buffer_id: int, plan: _BufferPlan,
                          capacity: int, ws_bytes: int) -> None:
        """Leave the page table in the sweep's end state."""
        table = self.engine.table
        share = len(plan.pages) * table.page_size / ws_bytes
        keep = min(len(plan.pages), max(1, int(capacity * share)))
        clock = table.tick()
        # Free everything this buffer held, then admit the sweep tail.
        table.drop(buffer_id)
        if self.engine.eviction_order == "lfu":
            # Frequency-aware (FALL [7]) replacement: once-touched sweep
            # pages never displace warmer pages — the tail only fills the
            # space left over.
            keep = min(keep, table.free_pages)
            if keep == 0:
                return
        tail = plan.pages[-keep:]
        evicted = table.ensure_free(
            len(tail), order=self.engine.eviction_order,
            rng=self.engine.rng, protect=buffer_id)
        del evicted  # write-back already priced in the thrash formula
        table.admit(buffer_id, tail, write=plan.writes, clock=clock)
