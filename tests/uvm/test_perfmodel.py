"""Unit tests of kernel-launch pricing (the oversubscription model)."""

import pytest

from repro.gpu import (
    AccessPattern,
    ArrayAccess,
    Direction,
    KernelLaunch,
    KernelSpec,
    LaunchConfig,
    TEST_GPU_1GB,
)
from repro.gpu.specs import MIB
from repro.uvm import (
    DevicePageTable,
    KernelPricer,
    MigrationEngine,
    NO_THRASH,
    PAPER_CALIBRATION,
    PrefetchConfig,
)
from repro.uvm.perfmodel import PLAN_CACHE_CAP

SPEC = TEST_GPU_1GB.with_page_size(1 * MIB)


class Buf:
    _next = iter(range(1, 100000))

    def __init__(self, nbytes):
        self.nbytes = nbytes
        self.buffer_id = next(self._next)


def make_pricer(params=NO_THRASH):
    table = DevicePageTable(SPEC.total_pages, SPEC.page_size)
    engine = MigrationEngine(table, SPEC, params,
                             prefetch=PrefetchConfig(enabled=False))
    return KernelPricer(engine, SPEC, params), table


def launch_for(*accesses, flops_per_byte=1.0):
    args = tuple(a.buffer for a in accesses)
    return KernelLaunch(
        KernelSpec("k", flops_per_byte=flops_per_byte),
        LaunchConfig((64,), (256,)), args, tuple(accesses))


def register(table, *accesses):
    for a in accesses:
        table.register(a.buffer.buffer_id,
                       -(-a.buffer.nbytes // SPEC.page_size))


class TestFittingRegime:
    def test_cold_then_warm(self):
        pricer, table = make_pricer()
        buf = Buf(100 * MIB)
        access = ArrayAccess(buf, Direction.IN)
        register(table, access)
        cold = pricer.price(launch_for(access), pressure=0.5)
        warm = pricer.price(launch_for(access), pressure=0.5)
        assert not cold.thrashing
        assert cold.cold_bytes == 100 * MIB
        assert warm.cold_bytes == 0
        assert warm.duration < cold.duration

    def test_duration_has_launch_overhead_floor(self):
        pricer, table = make_pricer()
        buf = Buf(1 * MIB)
        access = ArrayAccess(buf, Direction.IN)
        register(table, access)
        pricer.price(launch_for(access), pressure=0.1)
        warm = pricer.price(launch_for(access), pressure=0.1)
        assert warm.duration >= SPEC.kernel_launch_overhead

    def test_compute_bound_kernel_dominated_by_flops(self):
        pricer, table = make_pricer()
        buf = Buf(10 * MIB)
        access = ArrayAccess(buf, Direction.IN)
        register(table, access)
        pricer.price(launch_for(access), pressure=0.1)   # warm it
        cheap = pricer.price(launch_for(access, flops_per_byte=0.1),
                             pressure=0.1)
        costly = pricer.price(launch_for(access, flops_per_byte=1000.0),
                              pressure=0.1)
        assert costly.duration > 10 * cheap.duration
        assert costly.compute_seconds > costly.hbm_seconds

    def test_writes_recorded_for_writeback(self):
        pricer, table = make_pricer()
        buf = Buf(10 * MIB)
        access = ArrayAccess(buf, Direction.OUT)
        register(table, access)
        pricer.price(launch_for(access), pressure=0.1)
        assert table.buffer(buf.buffer_id).dirty_count == 10

    def test_multiple_buffers_union(self):
        pricer, table = make_pricer()
        a = ArrayAccess(Buf(10 * MIB), Direction.IN)
        b = ArrayAccess(Buf(20 * MIB), Direction.OUT)
        register(table, a, b)
        cost = pricer.price(launch_for(a, b), pressure=0.1)
        assert cost.working_set_bytes == 30 * MIB

    def test_same_buffer_multiple_accesses_merged(self):
        pricer, table = make_pricer()
        buf = Buf(10 * MIB)
        read = ArrayAccess(buf, Direction.IN)
        write = ArrayAccess(buf, Direction.OUT)
        register(table, read)
        cost = pricer.price(launch_for(read, write), pressure=0.1)
        assert cost.working_set_bytes == 10 * MIB
        assert table.buffer(buf.buffer_id).dirty_count == 10


class TestThrashingRegime:
    def test_working_set_beyond_capacity_thrashes(self):
        pricer, table = make_pricer()
        buf = Buf(2048 * MIB)          # 2x device memory
        access = ArrayAccess(buf, Direction.IN)
        register(table, access)
        cost = pricer.price(launch_for(access), pressure=2.0)
        assert cost.thrashing
        assert cost.thrash_seconds > 0

    def test_multipass_refaults_under_lru(self):
        pricer, table = make_pricer()
        buf = Buf(2048 * MIB)
        one_pass = ArrayAccess(buf, Direction.IN, passes=1.0)
        register(table, one_pass)
        c1 = pricer.price(launch_for(one_pass), pressure=2.0)
        pricer2, table2 = make_pricer()
        three_pass = ArrayAccess(buf, Direction.IN, passes=3.0)
        register(table2, three_pass)
        c3 = pricer2.price(launch_for(three_pass), pressure=2.0)
        assert c3.refault_bytes > 0 and c1.refault_bytes == 0
        assert c3.duration > 2 * c1.duration

    def test_residency_settles_to_tail(self):
        pricer, table = make_pricer()
        buf = Buf(2048 * MIB)
        access = ArrayAccess(buf, Direction.IN)
        register(table, access)
        pricer.price(launch_for(access), pressure=2.0)
        state = table.buffer(buf.buffer_id)
        assert state.resident_count <= SPEC.total_pages
        assert state.resident[-1]          # sweep tail stays

    def test_writes_priced_as_writeback(self):
        pricer, table = make_pricer()
        buf = Buf(2048 * MIB)
        access = ArrayAccess(buf, Direction.INOUT)
        register(table, access)
        cost = pricer.price(launch_for(access), pressure=2.0)
        assert cost.writeback_bytes > 0


class TestDegradationCurve:
    def test_pressure_beyond_knee_collapses_bandwidth(self):
        results = {}
        for pressure in (1.0, 3.0):
            pricer, table = make_pricer(PAPER_CALIBRATION)
            buf = Buf(100 * MIB)
            access = ArrayAccess(buf, Direction.IN)
            register(table, access)
            results[pressure] = pricer.price(launch_for(access),
                                             pressure=pressure)
        assert results[3.0].duration > 50 * results[1.0].duration

    def test_pressure_floor_is_working_set(self):
        pricer, table = make_pricer()
        buf = Buf(2048 * MIB)
        access = ArrayAccess(buf, Direction.IN)
        register(table, access)
        cost = pricer.price(launch_for(access), pressure=0.1)
        assert cost.pressure == pytest.approx(2.0, rel=0.05)

    def test_random_collapses_before_sequential(self):
        def price(pattern):
            pricer, table = make_pricer(PAPER_CALIBRATION)
            buf = Buf(100 * MIB)
            access = ArrayAccess(buf, Direction.IN, pattern)
            register(table, access)
            return pricer.price(launch_for(access), pressure=1.5)

        rand = price(AccessPattern.RANDOM)
        seq = price(AccessPattern.SEQUENTIAL)
        assert rand.duration > 5 * seq.duration


class TestPlanCache:
    def test_fresh_buffers_of_one_size_share_one_entry(self):
        """Seed-free page sets are keyed by page count and access shape,
        so a service pricing ever-new buffers of one size keeps one
        entry instead of one per (dead) buffer id."""
        pricer, table = make_pricer()
        sizes = []
        for _ in range(40):
            access = ArrayAccess(Buf(4 * MIB), Direction.INOUT)
            register(table, access)
            cost = pricer.price(launch_for(access), pressure=0.1)
            assert cost.cold_bytes == 4 * MIB
            assert table.buffer(access.buffer.buffer_id).dirty_count == 4
            table.unregister(access.buffer.buffer_id)
            sizes.append(len(pricer._plan_cache))
        assert sizes == [1] * 40

    @staticmethod
    def _price_size(pricer, table, pages):
        """Price one fresh full-sweep buffer of ``pages`` pages, then
        drop it, as a settled request drops its buffers."""
        access = ArrayAccess(Buf(pages * MIB), Direction.IN)
        register(table, access)
        pricer.price(launch_for(access), pressure=0.1)
        table.unregister(access.buffer.buffer_id)

    @staticmethod
    def _cached_sizes(pricer):
        return [key[0] for key in pricer._plan_cache]

    def test_cache_never_passes_its_cap(self):
        """A service's cold requests bring sizes that never return; the
        oldest plans age out instead of piling up."""
        pricer, table = make_pricer()
        sizes = []
        for pages in range(1, PLAN_CACHE_CAP + 21):
            self._price_size(pricer, table, pages)
            sizes.append(len(pricer._plan_cache))
        assert max(sizes) == PLAN_CACHE_CAP
        assert sizes[-1] == PLAN_CACHE_CAP
        assert self._cached_sizes(pricer) == list(
            range(21, PLAN_CACHE_CAP + 21))

    def test_a_hit_refreshes_its_entry(self):
        pricer, table = make_pricer()
        for pages in range(1, PLAN_CACHE_CAP + 1):
            self._price_size(pricer, table, pages)
        plan = pricer._plan_cache[next(iter(pricer._plan_cache))]
        self._price_size(pricer, table, 1)       # a hit on the oldest
        assert self._cached_sizes(pricer)[-1] == 1
        self._price_size(pricer, table, PLAN_CACHE_CAP + 1)
        cached = self._cached_sizes(pricer)
        assert 1 in cached and 2 not in cached
        assert len(cached) == PLAN_CACHE_CAP
        assert any(p is plan for p in pricer._plan_cache.values())
