"""Unit tests of the page-migration engine."""

import numpy as np
import pytest

from repro.gpu import AccessPattern, TEST_GPU_1GB
from repro.gpu.specs import MIB
from repro.uvm import (
    DevicePageTable,
    MigrationEngine,
    MigrationStats,
    NO_THRASH,
    PAPER_CALIBRATION,
    PrefetchConfig,
)

SPEC = TEST_GPU_1GB.with_page_size(1 * MIB)   # 1024 pages


@pytest.fixture
def table():
    return DevicePageTable(SPEC.total_pages, SPEC.page_size)


@pytest.fixture
def migration(table):
    return MigrationEngine(table, SPEC, NO_THRASH,
                           prefetch=PrefetchConfig(enabled=False))


def pages(n, start=0):
    return np.arange(start, start + n, dtype=np.int64)


class TestMigrateIn:
    def test_cold_pages_priced_at_link_rate(self, table, migration):
        table.register(1, 512)
        stats = migration.migrate_in(1, pages(100), write=False,
                                     pattern=AccessPattern.SEQUENTIAL,
                                     osf=0.5)
        assert stats.migrated_pages == 100
        expected = (stats.batches * SPEC.fault_batch_latency
                    + 100 * MIB / SPEC.pcie_bandwidth)
        assert stats.seconds == pytest.approx(expected)

    def test_warm_pages_free(self, table, migration):
        table.register(1, 512)
        migration.migrate_in(1, pages(100), write=False,
                             pattern=AccessPattern.SEQUENTIAL, osf=0.5)
        stats = migration.migrate_in(1, pages(100), write=False,
                                     pattern=AccessPattern.SEQUENTIAL,
                                     osf=0.5)
        assert stats.migrated_pages == 0 and stats.seconds == 0.0

    def test_eviction_when_full(self, table, migration):
        table.register(1, 1024)
        table.register(2, 1024)
        migration.migrate_in(1, pages(1024), write=False,
                             pattern=AccessPattern.SEQUENTIAL, osf=1.0)
        stats = migration.migrate_in(2, pages(100), write=False,
                                     pattern=AccessPattern.SEQUENTIAL,
                                     osf=2.0)
        assert stats.evicted_pages == 100

    def test_dirty_eviction_priced_as_writeback(self, table, migration):
        table.register(1, 1024)
        table.register(2, 1024)
        migration.migrate_in(1, pages(1024), write=True,
                             pattern=AccessPattern.SEQUENTIAL, osf=1.0)
        stats = migration.migrate_in(2, pages(10), write=False,
                                     pattern=AccessPattern.SEQUENTIAL,
                                     osf=2.0)
        assert stats.writeback_pages == 10

    def test_oversized_request_keeps_tail(self, table, migration):
        table.register(1, 3000)
        stats = migration.migrate_in(1, pages(3000), write=False,
                                     pattern=AccessPattern.SEQUENTIAL,
                                     osf=3.0)
        assert stats.migrated_pages == 1024
        state = table.buffer(1)
        assert state.resident[3000 - 1024:].all()
        assert not state.resident[:3000 - 1024].any()

    def test_prefetch_counted(self, table):
        engine = MigrationEngine(
            table, SPEC, NO_THRASH,
            prefetch=PrefetchConfig(block_pages=8, density_threshold=0.4))
        table.register(1, 512)
        engine.migrate_in(1, pages(3), write=False,
                          pattern=AccessPattern.SEQUENTIAL, osf=0.5)
        stats = engine.migrate_in(1, pages(2, start=3), write=False,
                                  pattern=AccessPattern.SEQUENTIAL,
                                  osf=0.5)
        assert stats.prefetched_pages > 0

    def test_prefetch_never_displaces_demand(self):
        """A window that fits exactly is admitted whole, even when the
        prefetcher would grow it past the device: the expansion's tail
        must not push demanded pages out of the clamp."""
        small = DevicePageTable(128, SPEC.page_size)
        engine = MigrationEngine(small, SPEC, NO_THRASH)
        small.register(1, 256)
        window = pages(128, start=20)
        stats = engine.migrate_in(1, window, write=False,
                                  pattern=AccessPattern.SEQUENTIAL,
                                  osf=1.0)
        state = small.buffer(1)
        assert state.resident[window].all()
        assert state.resident_count == 128
        assert stats.migrated_pages == 128
        assert stats.prefetched_pages == 0
        assert stats.batches == engine.batch_count(
            128, AccessPattern.SEQUENTIAL)

    def test_prefetch_applies_when_it_fits(self):
        small = DevicePageTable(160, SPEC.page_size)
        engine = MigrationEngine(small, SPEC, NO_THRASH)
        small.register(1, 256)
        stats = engine.migrate_in(1, pages(128, start=20), write=False,
                                  pattern=AccessPattern.SEQUENTIAL,
                                  osf=1.0)
        # Block 4 (pages 128..159) is 20/32 hot: its 12 cold pages ride
        # along; block 0 (12/32) does not.
        assert stats.prefetched_pages == 12
        assert stats.migrated_pages == 140
        assert small.buffer(1).resident[20:160].all()

    def test_degradation_slows_transfer(self, table):
        engine = MigrationEngine(table, SPEC, PAPER_CALIBRATION,
                                 prefetch=PrefetchConfig(enabled=False))
        table.register(1, 512)
        fast = engine.transfer_seconds(100, 0,
                                       AccessPattern.SEQUENTIAL, 1.0)
        slow = engine.transfer_seconds(100, 0,
                                       AccessPattern.SEQUENTIAL, 4.0)
        assert slow > fast * 10

    def test_random_pattern_pays_batch_penalty(self, table):
        engine = MigrationEngine(table, SPEC, PAPER_CALIBRATION)
        seq = engine.batch_count(1000, AccessPattern.SEQUENTIAL)
        rand = engine.batch_count(1000, AccessPattern.RANDOM)
        assert rand > seq


class TestWriteback:
    def test_writeback_prices_dirty_pages(self, table, migration):
        table.register(1, 512)
        migration.migrate_in(1, pages(50), write=True,
                             pattern=AccessPattern.SEQUENTIAL, osf=0.5)
        stats = migration.writeback(1)
        assert stats.writeback_pages == 50
        assert stats.seconds > 0

    def test_writeback_clean_buffer_free(self, table, migration):
        table.register(1, 512)
        migration.migrate_in(1, pages(50), write=False,
                             pattern=AccessPattern.SEQUENTIAL, osf=0.5)
        assert migration.writeback(1).seconds == 0.0

    def test_writeback_unregistered_is_noop(self, migration):
        assert migration.writeback(999).seconds == 0.0


class TestInvalidate:
    def test_drops_all_pages(self, table, migration):
        table.register(1, 512)
        migration.migrate_in(1, pages(50), write=True,
                             pattern=AccessPattern.SEQUENTIAL, osf=0.5)
        assert migration.invalidate(1) == 50
        assert table.resident_pages == 0

    def test_unregistered_is_noop(self, migration):
        assert migration.invalidate(999) == 0


def test_stats_addition():
    a = MigrationStats(1, 2, 3, 4, 5, 6.0)
    b = MigrationStats(10, 20, 30, 40, 50, 60.0)
    c = a + b
    assert (c.migrated_pages, c.prefetched_pages, c.evicted_pages,
            c.writeback_pages, c.batches, c.seconds) == \
        (11, 22, 33, 44, 55, 66.0)
