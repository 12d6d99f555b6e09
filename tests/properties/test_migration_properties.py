"""Differential tests of sweep pricing against the page-list pricer.

``MigrationEngine.migrate_in`` prices a whole-buffer sweep from one
resident count with slice-wide writes, ``DevicePageTable.evict`` skips
the protect split when the protected buffer holds no resident page, and
``UvmSpace._peer_migrate`` returns early when the target already holds
every page.  The page-list versions of those methods (and of
``expand_faults`` and ``batch_count``) are kept below verbatim as the
oracle: twin spaces run the same steps, and after every step the
returned accounting, every arena array, the resident total, the clocks
and the shared rng state must match exactly.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import AccessPattern, ArrayAccess, Direction, Gpu, TEST_GPU_1GB
from repro.gpu.specs import MIB
from repro.sim import Engine
from repro.uvm import (
    Advise,
    BufferPages,
    DevicePageTable,
    EvictionResult,
    MigrationEngine,
    MigrationStats,
    NO_THRASH,
    PAPER_CALIBRATION,
    PrefetchConfig,
    UvmError,
    UvmSpace,
    expand_faults,
    page_set,
)

# -- the page-list pricer, kept verbatim ---------------------------------------


def ref_expand_faults(faults, state, pattern, config):
    if (not config.enabled or len(faults) == 0
            or pattern is AccessPattern.RANDOM
            or config.block_pages == 1):
        return faults

    n_pages = state.n_pages
    blocks = np.unique(faults // config.block_pages)
    hot = state.resident.copy()
    hot[faults] = True

    extra: list[np.ndarray] = []
    for block in blocks:
        lo = int(block) * config.block_pages
        hi = min(lo + config.block_pages, n_pages)
        width = hi - lo
        density = hot[lo:hi].sum() / width
        if density >= config.density_threshold:
            block_pages = np.arange(lo, hi, dtype=np.int64)
            extra.append(block_pages[~state.resident[lo:hi]])
    if not extra:
        return faults
    merged = np.union1d(faults, np.concatenate(extra))
    return merged


class RefTable(DevicePageTable):
    """The page table with its page-list eviction: the protected buffer
    is always split out of the candidates."""

    def evict(self, n_pages, *, order="lru", rng=None, protect=None):
        if n_pages <= 0:
            return EvictionResult(0, 0)
        if n_pages > self._resident_total:
            raise UvmError(
                f"cannot evict {n_pages} pages, only {self._resident_total} "
                "resident")

        candidates = np.flatnonzero(self._resident[:self._used])
        lo = self._offsets.get(protect)
        if lo is None:
            pools = (candidates,)
        else:
            a, b = np.searchsorted(
                candidates, (lo, lo + self._buffers[protect].n_pages))
            pools = (np.concatenate((candidates[:a], candidates[b:])),
                     candidates[a:b])

        remaining = n_pages
        evicted = dirty = 0
        for pool in pools:
            if remaining <= 0:
                break
            if len(pool) == 0:
                continue
            take = min(remaining, len(pool))
            if order == "lru":
                victims = pool if take == len(pool) else pool[
                    np.argpartition(self._last_access[pool], take - 1)[:take]]
            elif order == "lfu":
                victims = pool[np.lexsort((self._last_access[pool],
                                           self._access_count[pool]))[:take]]
            elif order == "random":
                if rng is None:
                    raise ValueError("random eviction requires an rng")
                victims = pool[rng.choice(len(pool), size=take,
                                          replace=False)]
            else:
                raise ValueError(f"unknown eviction order {order!r}")
            dirty += int(np.count_nonzero(self._dirty[victims]))
            self._resident[victims] = False
            self._dirty[victims] = False
            evicted += take
            remaining -= take

        self._resident_total -= evicted
        return EvictionResult(evicted, dirty)


class RefEngine(MigrationEngine):
    """The migration engine with its page-list ``migrate_in``: touch,
    gather the faults, expand them, clamp, evict, admit."""

    def batch_count(self, pages, pattern):
        if pages <= 0:
            return 0
        p = self.params.pattern(pattern)
        return max(1, int(np.ceil(
            pages * p.batch_penalty / self.spec.fault_batch_pages)))

    def migrate_in(self, buffer_id, pages, *, write, pattern, osf):
        clock = self.table.tick()
        state = self.table.buffer(buffer_id)
        self.table.touch(buffer_id, pages, write=write, clock=clock)
        faults = pages[~state.resident[pages]]
        if len(faults) == 0:
            return MigrationStats()

        capacity = self.table.capacity_pages
        expanded = faults
        if len(faults) > capacity:
            expanded = faults = faults[-capacity:]
        elif self.params.pattern(pattern).prefetchable:
            expanded = ref_expand_faults(faults, state, pattern,
                                         self.prefetch)
            if len(expanded) > capacity:
                expanded = faults
        prefetched = len(expanded) - len(faults)

        evicted = self.table.ensure_free(
            len(expanded), order=self.eviction_order, rng=self.rng,
            protect=buffer_id)
        self.table.admit(buffer_id, expanded, write=write, clock=clock)
        fault_pages = len(expanded) - prefetched
        seconds = self.transfer_seconds(
            fault_pages, evicted.dirty_pages, pattern, osf)
        if prefetched:
            degradation = self.params.pattern(pattern).degradation(osf)
            bulk_bw = self.spec.pcie_bandwidth / degradation
            seconds += prefetched * self.table.page_size / bulk_bw
        return MigrationStats(
            migrated_pages=len(expanded),
            prefetched_pages=prefetched,
            evicted_pages=evicted.evicted_pages,
            writeback_pages=evicted.dirty_pages,
            batches=self.batch_count(fault_pages, pattern),
            seconds=seconds,
        )


class RefSpace(UvmSpace):
    """A UVM space whose devices run the reference table and engine, and
    whose peer pull is the page-list one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Same layouts, only methods differ: swap the classes in place.
        for dev in self._devices.values():
            dev.table.__class__ = RefTable
            dev.engine.__class__ = RefEngine

    def _peer_migrate(self, target, buffer_id):
        nvlink = target.gpu.spec.nvlink_bandwidth
        if nvlink <= 0 or len(self._devices) < 2:
            return 0.0, 0
        table = target.table
        target_pages = (table.resident_bytes(buffer_id) // table.page_size
                        if table.is_registered(buffer_id) else 0)
        best = None
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
            seconds += target.engine.transfer_seconds(
                0, evicted.dirty_pages, AccessPattern.SEQUENTIAL,
                self.oversubscription)
        return seconds, moved


# -- the twin-space driver ------------------------------------------------------

CAPACITY = 96
IDS = 5
# Buffers up to 1.5x the device: whole sweeps larger than it take the
# streaming-tail clamp, and two or three buffers force eviction.
MAX_PAGES = 144
SPEC = dataclasses.replace(TEST_GPU_1GB, memory_bytes=CAPACITY * MIB,
                           page_size=MIB)
PATTERNS = list(AccessPattern)


class Buf:
    def __init__(self, buffer_id, n_pages):
        self.buffer_id = buffer_id
        self.nbytes = n_pages * MIB


KIND_WEIGHTS = {"register": 3, "unregister": 1, "migrate": 8, "peer": 2,
                "evict": 2}
slot = st.integers(0, IDS - 1)
step = st.fixed_dictionaries({
    "kind": st.sampled_from([k for k, w in KIND_WEIGHTS.items()
                             for _ in range(w)]),
    "slot": slot,
    "device": st.integers(0, 1),
    "n_pages": st.integers(1, MAX_PAGES),
    "read_mostly": st.booleans(),
    # Half the page sets are whole sweeps; the rest are partial
    # SEQUENTIAL windows, STRIDED spreads or RANDOM samples.
    "fraction": st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    "set_pattern": st.sampled_from(PATTERNS),
    "pattern": st.sampled_from(PATTERNS),
    "seed": st.integers(0, 2**16),
    "write": st.booleans(),
    "osf": st.floats(0.5, 4.0),
    "protect": st.one_of(st.none(), slot),
})


def make_space(cls, order, seed, params, prefetch):
    engine = Engine()
    gpus = [Gpu(engine, SPEC, node_name="n", index=i) for i in range(2)]
    return cls(gpus, params=params, prefetch=prefetch,
               eviction_order=order, seed=seed)


def apply_step(space, live, op):
    """Apply one step to ``space``; returns what the step returned.

    ``live`` maps each registered buffer id to its page count and is
    shared by both twins (the caller updates it once per step).
    """
    kind = op["kind"]
    dev = list(space._devices.values())[op["device"]]
    if kind == "register":
        free = [b for b in range(IDS) if b not in live]
        if not free:
            return None
        bid = free[0]
        if op["read_mostly"]:
            space.advise(bid, Advise.READ_MOSTLY)
        space.register(Buf(bid, op["n_pages"]))
        return bid
    if not live:
        return None
    ids = list(live)
    bid = ids[op["slot"] % len(ids)]
    if kind == "unregister":
        space.unregister(bid)
        return bid
    if kind == "evict":
        n = min(op["n_pages"], dev.table.resident_pages)
        protect = (None if op["protect"] is None
                   else ids[op["protect"] % len(ids)])
        if protect is not None and not dev.table.is_registered(protect):
            protect = None
        return dev.table.evict(n, order=space.eviction_order,
                               rng=dev.engine.rng, protect=protect)
    if not dev.table.is_registered(bid):
        dev.table.register(bid, live[bid], read_mostly=space.advises
                           .for_buffer(bid).read_mostly)
    if kind == "peer":
        return space._peer_migrate(dev, bid)
    access = ArrayAccess(Buf(bid, live[bid]), Direction.IN,
                         pattern=op["set_pattern"], fraction=op["fraction"])
    pages = page_set(access, MIB, op["seed"])
    return dev.engine.migrate_in(bid, pages, write=op["write"],
                                 pattern=op["pattern"], osf=op["osf"])


def assert_same_state(space, ref):
    for dev, rdev in zip(space._devices.values(), ref._devices.values()):
        table, rtable = dev.table, rdev.table
        for name in ("_resident", "_dirty", "_last_access",
                     "_access_count"):
            np.testing.assert_array_equal(getattr(table, name),
                                          getattr(rtable, name),
                                          err_msg=name)
        assert table._resident_total == rtable._resident_total
        assert table._resident_total == int(
            np.count_nonzero(table._resident))
        assert table.clock == rtable.clock
    # One generator is shared by every device of a space.
    assert (dev.engine.rng.bit_generator.state
            == rdev.engine.rng.bit_generator.state)


@given(order=st.sampled_from(["lru", "lfu", "random"]),
       seed=st.integers(0, 2**32 - 1),
       params=st.sampled_from([PAPER_CALIBRATION, NO_THRASH]),
       block_pages=st.sampled_from([1, 4, 8, 32]),
       threshold=st.sampled_from([0.25, 0.5, 1.0]),
       steps=st.lists(step, min_size=20, max_size=80))
@settings(max_examples=200, deadline=None)
def test_sweep_pricing_matches_page_list_reference(order, seed, params,
                                                   block_pages, threshold,
                                                   steps):
    prefetch = PrefetchConfig(block_pages=block_pages,
                              density_threshold=threshold)
    space = make_space(UvmSpace, order, seed, params, prefetch)
    ref = make_space(RefSpace, order, seed, params, prefetch)
    live: dict[int, int] = {}
    for op in steps:
        got = apply_step(space, live, op)
        want = apply_step(ref, live, op)
        assert got == want, op
        if op["kind"] == "register" and got is not None:
            live[got] = op["n_pages"]
        elif op["kind"] == "unregister" and got is not None:
            del live[got]
        assert_same_state(space, ref)


@given(resident=st.lists(st.booleans(), min_size=1, max_size=200),
       block_pages=st.integers(1, 64),
       threshold=st.floats(0.0, 1.0, exclude_min=True),
       pattern=st.sampled_from(PATTERNS),
       enabled=st.booleans())
@settings(max_examples=300, deadline=None)
def test_whole_buffer_sweep_expansion_is_identity(resident, block_pages,
                                                  threshold, pattern,
                                                  enabled):
    """On a whole-buffer sweep every non-resident page is a fault, so a
    dense block can only add pages that already fault."""
    state = BufferPages.empty(1, len(resident))
    state.resident[:] = resident
    faults = np.flatnonzero(~state.resident)
    config = PrefetchConfig(enabled=enabled, block_pages=block_pages,
                            density_threshold=threshold)
    np.testing.assert_array_equal(
        expand_faults(faults, state, pattern, config), faults)
