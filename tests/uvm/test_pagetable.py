"""Unit tests of the device page table."""

import numpy as np
import pytest

from repro.uvm import DevicePageTable, UvmError
from repro.uvm.pagetable import MIN_ARENA_PAGES


@pytest.fixture
def table():
    return DevicePageTable(capacity_pages=100, page_size=4096)


def pages(*idx):
    return np.asarray(idx, dtype=np.int64)


class TestRegistration:
    def test_register_and_query(self, table):
        table.register(1, 50)
        assert table.is_registered(1)
        assert table.buffer(1).n_pages == 50

    def test_register_idempotent(self, table):
        table.register(1, 50)
        table.register(1, 50)
        assert len(table.buffers()) == 1

    def test_reregister_different_size_raises(self, table):
        table.register(1, 50)
        with pytest.raises(UvmError):
            table.register(1, 60)

    def test_unregister_frees_pages(self, table):
        table.register(1, 50)
        table.admit(1, pages(0, 1, 2), write=False)
        table.unregister(1)
        assert table.resident_pages == 0
        assert not table.is_registered(1)

    def test_unknown_buffer_raises(self, table):
        with pytest.raises(UvmError):
            table.buffer(99)

    def test_zero_pages_rejected(self, table):
        with pytest.raises(ValueError):
            table.register(1, 0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DevicePageTable(0, 4096)


class TestAdmission:
    def test_admit_marks_resident(self, table):
        table.register(1, 50)
        new = table.admit(1, pages(3, 7), write=False)
        assert new == 2
        assert table.resident_pages == 2
        assert table.resident_bytes(1) == 2 * 4096

    def test_admit_already_resident_counts_zero(self, table):
        table.register(1, 50)
        table.admit(1, pages(3), write=False)
        assert table.admit(1, pages(3), write=False) == 0

    def test_write_sets_dirty(self, table):
        table.register(1, 50)
        table.admit(1, pages(0, 1), write=True)
        assert table.buffer(1).dirty_count == 2

    def test_read_mostly_never_dirty(self, table):
        table.register(1, 50, read_mostly=True)
        table.admit(1, pages(0, 1), write=True)
        assert table.buffer(1).dirty_count == 0

    def test_overcommit_raises(self, table):
        table.register(1, 200)
        with pytest.raises(UvmError):
            table.admit(1, np.arange(150, dtype=np.int64), write=False)

    def test_empty_admit_is_noop(self, table):
        table.register(1, 50)
        assert table.admit(1, pages(), write=True) == 0

    def test_fault_pages_are_nonresident_subset(self, table):
        table.register(1, 50)
        table.admit(1, pages(1, 2), write=False)
        faults = table.fault_pages(1, pages(0, 1, 2, 3))
        assert sorted(faults.tolist()) == [0, 3]

    def test_clock_stamped_on_admit(self, table):
        table.register(1, 50)
        clock = table.tick()
        table.admit(1, pages(5), write=False, clock=clock)
        assert table.buffer(1).last_access[5] == clock


class TestTouch:
    def test_touch_refreshes_clock_of_resident_only(self, table):
        table.register(1, 50)
        table.admit(1, pages(0), write=False, clock=1)
        table.touch(1, pages(0, 1), write=False, clock=9)
        state = table.buffer(1)
        assert state.last_access[0] == 9
        assert state.last_access[1] == 0
        assert not state.resident[1]

    def test_touch_write_dirties(self, table):
        table.register(1, 50)
        table.admit(1, pages(0), write=False)
        table.touch(1, pages(0), write=True)
        assert table.buffer(1).dirty[0]


class TestEviction:
    def test_lru_evicts_oldest(self, table):
        table.register(1, 50)
        table.admit(1, pages(0), write=False, clock=1)
        table.admit(1, pages(1), write=False, clock=2)
        table.admit(1, pages(2), write=False, clock=3)
        result = table.evict(1, order="lru")
        assert result.evicted_pages == 1
        assert not table.buffer(1).resident[0]
        assert table.buffer(1).resident[1]

    def test_eviction_counts_dirty_writebacks(self, table):
        table.register(1, 50)
        table.admit(1, pages(0, 1), write=True, clock=1)
        result = table.evict(2, order="lru")
        assert result.dirty_pages == 2
        assert table.buffer(1).dirty_count == 0

    def test_evict_more_than_resident_raises(self, table):
        table.register(1, 50)
        table.admit(1, pages(0), write=False)
        with pytest.raises(UvmError):
            table.evict(5)

    def test_evict_zero_is_noop(self, table):
        assert table.evict(0).evicted_pages == 0

    def test_protected_buffer_evicted_last(self, table):
        table.register(1, 50)
        table.register(2, 50)
        table.admit(1, pages(0, 1), write=False, clock=1)
        table.admit(2, pages(0, 1), write=False, clock=2)
        # Protect buffer 2 (newer); LRU alone would evict buffer 1 anyway,
        # so protect buffer 1 and check buffer 2 goes first despite LRU.
        table.evict(2, order="lru", protect=1)
        assert table.buffer(1).resident_count == 2
        assert table.buffer(2).resident_count == 0

    def test_protection_yields_when_unavoidable(self, table):
        table.register(1, 50)
        table.admit(1, pages(0, 1, 2), write=False)
        result = table.evict(2, order="lru", protect=1)
        assert result.evicted_pages == 2

    def test_random_eviction_requires_rng(self, table):
        table.register(1, 50)
        table.admit(1, pages(0, 1), write=False)
        with pytest.raises(ValueError):
            table.evict(1, order="random")

    def test_random_eviction_deterministic_with_seed(self, table):
        def run(seed):
            t = DevicePageTable(100, 4096)
            t.register(1, 100)
            t.admit(1, np.arange(50, dtype=np.int64), write=False)
            t.evict(10, order="random",
                    rng=np.random.default_rng(seed))
            return t.buffer(1).resident.copy()

        assert (run(7) == run(7)).all()

    def test_unknown_order_raises(self, table):
        table.register(1, 50)
        table.admit(1, pages(0), write=False)
        with pytest.raises(ValueError):
            table.evict(1, order="mru")

    def test_ensure_free_evicts_just_enough(self, table):
        table.register(1, 100)
        table.admit(1, np.arange(95, dtype=np.int64), write=False)
        result = table.ensure_free(10)
        assert result.evicted_pages == 5
        assert table.free_pages == 10

    def test_ensure_free_noop_when_room(self, table):
        table.register(1, 50)
        assert table.ensure_free(10).evicted_pages == 0

    def test_ensure_free_beyond_capacity_raises(self, table):
        with pytest.raises(UvmError):
            table.ensure_free(101)


class TestWritebackAndDrop:
    def test_clean_returns_dirty_count(self, table):
        table.register(1, 50)
        table.admit(1, pages(0, 1, 2), write=True)
        assert table.clean(1) == 3
        assert table.clean(1) == 0

    def test_drop_frees_without_writeback(self, table):
        table.register(1, 50)
        table.admit(1, pages(0, 1), write=True)
        dropped = table.drop(1)
        assert dropped == 2
        assert table.resident_pages == 0
        assert table.buffer(1).dirty_count == 0

    def test_global_accounting_across_buffers(self, table):
        table.register(1, 50)
        table.register(2, 50)
        table.admit(1, pages(0, 1), write=False)
        table.admit(2, pages(0), write=False)
        assert table.resident_pages == 3
        assert table.free_pages == 97
        assert table.resident_bytes() == 3 * 4096


class TestArena:
    """Every buffer's state is a slice of one device-wide arena."""

    def test_handle_survives_relayout(self, table):
        table.register(1, 600)
        handle = table.buffer(1)
        table.admit(1, pages(0, 1), write=True, clock=1)
        before = handle.resident
        table.register(2, 600)        # overflows the arena: relayout
        assert not np.shares_memory(handle.resident, before)
        assert handle.resident[:2].all() and handle.dirty_count == 2
        # the table's writes reach the old handle ...
        table.admit(1, pages(5), write=False, clock=2)
        assert handle.resident[5] and handle.last_access[5] == 2
        # ... and the handle's writes reach the table
        handle.last_access[0] = 99
        table.admit(2, pages(0), write=False, clock=3)
        table.evict(2, order="lru")
        assert handle.resident[0] and table.buffer(2).resident[0]
        assert not handle.resident[1] and not handle.resident[5]
        assert table.clean(1) == 1

    def test_unregistered_state_is_detached(self, table):
        table.register(1, 40)
        table.register(2, 40)
        table.admit(2, pages(0, 1, 2), write=True, clock=7)
        gone = table.buffer(2)
        table.unregister(2)
        assert gone.resident_count == 3 and gone.last_access[0] == 7
        table.register(3, 40)         # reuses the blanked slice
        fresh = table.buffer(3)
        assert fresh.resident_count == 0 and fresh.dirty_count == 0
        assert not fresh.last_access.any() and not fresh.access_count.any()
        for field in ("resident", "dirty", "last_access", "access_count"):
            assert not np.shares_memory(getattr(gone, field),
                                        getattr(fresh, field))
        gone.resident[:] = True       # no longer the table's memory
        assert table.resident_pages == 0
        assert table.buffer(3).resident_count == 0

    def test_churn_keeps_arena_bounded(self):
        def live_pages(t):
            return sum(p.n_pages for p in t.buffers())

        table = DevicePageTable(capacity_pages=500, page_size=4096)
        table.register(0, 300)
        table.register(1, 200)
        table.admit(0, np.arange(100, dtype=np.int64), write=True)
        live_ids = []
        for i in range(2, 1002):
            # a sliding window of three tenants: the oldest leaves from
            # the middle of the arena and leaves a hole behind
            table.register(i, 64 + i % 97)
            assert table.arena_pages <= 2 * live_pages(table) \
                + MIN_ARENA_PAGES
            table.admit(i, pages(0, 1), write=False)
            live_ids.append(i)
            if len(live_ids) > 3:
                table.unregister(live_ids.pop(0))
                assert table.arena_pages <= 2 * live_pages(table) \
                    + MIN_ARENA_PAGES
        assert [p.buffer_id for p in table.buffers()] == [0, 1, *live_ids]
        assert table.buffer(0).dirty_count == 100
        assert table.resident_pages == 100 + 2 * len(live_ids)
