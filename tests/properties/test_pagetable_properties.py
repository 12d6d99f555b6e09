"""Property-based tests of page-table accounting invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uvm import DevicePageTable, UvmError
from repro.uvm.pagetable import BufferPages, EvictionResult

CAPACITY = 64
N_BUFFERS = 3
BUF_PAGES = 48

op_strategy = st.one_of(
    st.tuples(st.just("admit"),
              st.integers(0, N_BUFFERS - 1),
              st.lists(st.integers(0, BUF_PAGES - 1), min_size=1,
                       max_size=16, unique=True),
              st.booleans()),
    st.tuples(st.just("evict"), st.integers(1, 16)),
    st.tuples(st.just("clean"), st.integers(0, N_BUFFERS - 1)),
    st.tuples(st.just("drop"), st.integers(0, N_BUFFERS - 1)),
)


def apply_ops(ops):
    table = DevicePageTable(CAPACITY, 4096)
    for b in range(N_BUFFERS):
        table.register(b, BUF_PAGES)
    for op in ops:
        if op[0] == "admit":
            _, b, pages, write = op
            pages = np.asarray(pages, dtype=np.int64)
            need = int((~table.buffer(b).resident[pages]).sum())
            table.ensure_free(need, order="lru")
            table.admit(b, pages, write=write)
        elif op[0] == "evict":
            n = min(op[1], table.resident_pages)
            if n:
                table.evict(n, order="lru")
        elif op[0] == "clean":
            table.clean(op[1])
        elif op[0] == "drop":
            table.drop(op[1])
    return table


@given(st.lists(op_strategy, max_size=40))
@settings(max_examples=80)
def test_resident_counter_matches_bitmaps(ops):
    table = apply_ops(ops)
    actual = sum(s.resident_count for s in table.buffers())
    assert table.resident_pages == actual


@given(st.lists(op_strategy, max_size=40))
@settings(max_examples=80)
def test_capacity_never_exceeded(ops):
    table = apply_ops(ops)
    assert 0 <= table.resident_pages <= CAPACITY


@given(st.lists(op_strategy, max_size=40))
@settings(max_examples=80)
def test_dirty_implies_resident(ops):
    table = apply_ops(ops)
    for state in table.buffers():
        assert not (state.dirty & ~state.resident).any()


@given(st.lists(op_strategy, max_size=30))
@settings(max_examples=60)
def test_free_plus_resident_is_capacity(ops):
    table = apply_ops(ops)
    assert table.free_pages + table.resident_pages == CAPACITY


# -- differential: arena eviction vs the per-buffer reference ----------------

class PerBufferTable(DevicePageTable):
    """The page table before the arena: private arrays per buffer and an
    eviction that loops over every buffer.  Kept verbatim as the oracle
    that the arena's single vectorised pick must match element for
    element (ties between equal clocks break by candidate position)."""

    def register(self, buffer_id, n_pages, read_mostly=False):
        existing = self._buffers.get(buffer_id)
        if existing is not None:
            assert existing.n_pages == n_pages
            return
        pages = BufferPages.empty(buffer_id, n_pages)
        pages.read_mostly = read_mostly
        self._buffers[buffer_id] = pages

    def unregister(self, buffer_id):
        pages = self._buffers.pop(buffer_id, None)
        if pages is not None:
            self._resident_total -= pages.resident_count

    def evict(self, n_pages, *, order="lru", rng=None, protect=None):
        if n_pages <= 0:
            return EvictionResult(0, 0)
        if n_pages > self._resident_total:
            raise UvmError(
                f"cannot evict {n_pages} pages, only {self._resident_total} "
                "resident")

        # Candidate pool per buffer: clocks, counts, local indices.
        entries = []
        for state in self._buffers.values():
            idx = np.flatnonzero(state.resident)
            if len(idx) == 0:
                continue
            entries.append((state.last_access[idx],
                            state.access_count[idx], idx, state,
                            state.buffer_id == protect))

        remaining = n_pages
        evicted = dirty = 0
        # Two rounds: everything except the protected buffer, then it too.
        for round_protected in (False, True):
            if remaining <= 0:
                break
            pool = [e for e in entries if e[4] == round_protected]
            if not pool:
                continue
            clocks = np.concatenate([e[0] for e in pool])
            counts = np.concatenate([e[1] for e in pool])
            owner = np.concatenate(
                [np.full(len(e[0]), i) for i, e in enumerate(pool)])
            local = np.concatenate([e[2] for e in pool])
            take = min(remaining, len(clocks))
            if order == "lru":
                sel = np.argpartition(clocks, take - 1)[:take] \
                    if take < len(clocks) else np.arange(len(clocks))
            elif order == "lfu":
                # Fewest touches first, oldest clock breaking ties.
                sel = np.lexsort((clocks, counts))[:take]
            elif order == "random":
                if rng is None:
                    raise ValueError("random eviction requires an rng")
                sel = rng.choice(len(clocks), size=take, replace=False)
            else:
                raise ValueError(f"unknown eviction order {order!r}")
            for i, entry in enumerate(pool):
                mask = owner[sel] == i
                pages = local[sel[mask]]
                if len(pages) == 0:
                    continue
                state = entry[3]
                dirty += int(state.dirty[pages].sum())
                state.resident[pages] = False
                state.dirty[pages] = False
            evicted += take
            remaining -= take

        self._resident_total -= evicted
        return EvictionResult(evicted, dirty)


DIFF_CAPACITY = 300
DIFF_IDS = 6
# Sizes up to 600 pages overflow the arena's tail every few
# registrations, so re-registrations force relayout and compaction.
DIFF_MAX_PAGES = 600

# Each op draws every parameter; the driver reads the ones its kind
# needs.  Kinds are weighted towards the ops that build pressure, and a
# buffer is named by its position among the registered ones (modulo
# their number), so almost every op hits a live buffer.
KIND_WEIGHTS = {"register": 3, "unregister": 1, "admit": 5, "touch": 1,
                "fill": 2, "drop": 1, "clean": 1, "evict": 3}
slot = st.integers(0, DIFF_IDS - 1)
diff_op = st.fixed_dictionaries({
    "kind": st.sampled_from([k for k, w in KIND_WEIGHTS.items()
                             for _ in range(w)]),
    "slot": slot,
    "protect": st.one_of(st.none(), slot),
    "n_pages": st.integers(1, DIFF_MAX_PAGES),
    "start": st.floats(0, 1),                 # window start, fraction
    "length": st.integers(1, 128),
    "write": st.booleans(),
    "tick": st.booleans(),                    # new clock, or the last one
    "read_mostly": st.booleans(),
    "resident": st.booleans(),
    "dirty": st.sampled_from([None, False, True]),
    "touches": st.integers(0, 3),
})


def assert_same_state(arena, ref):
    assert ([p.buffer_id for p in arena.buffers()]
            == [p.buffer_id for p in ref.buffers()])
    for a, r in zip(arena.buffers(), ref.buffers()):
        assert a.n_pages == r.n_pages and a.read_mostly == r.read_mostly
        for field in ("resident", "dirty", "last_access", "access_count"):
            np.testing.assert_array_equal(getattr(a, field),
                                          getattr(r, field), err_msg=field)
    assert arena.resident_pages == ref.resident_pages
    assert arena.clock == ref.clock


def apply_diff_op(table, op, order, rng):
    """Apply one op; returns every EvictionResult it produced."""
    live = [p.buffer_id for p in table.buffers()]
    protect = (None if op["protect"] is None or not live
               else live[op["protect"] % len(live)])
    evict = {"order": order, "rng": rng, "protect": protect}
    kind = op["kind"]
    if kind == "register":
        # The lowest free id: ids come back after unregister.
        free = [b for b in range(DIFF_IDS) if b not in live]
        if free:
            table.register(free[0], op["n_pages"],
                           read_mostly=op["read_mostly"])
        return []
    if kind == "evict":
        n = min(op["n_pages"], table.resident_pages)
        return [table.evict(n, **evict)] if n else []
    if not live:
        return []
    bid = live[op["slot"] % len(live)]
    state = table.buffer(bid)
    if kind == "unregister":
        table.unregister(bid)
    elif kind in ("admit", "touch"):
        lo = int(op["start"] * (state.n_pages - 1))
        pages = np.arange(lo, min(lo + op["length"], state.n_pages),
                          dtype=np.int64)
        clock = None if op["tick"] else table.clock
        if kind == "touch":
            table.touch(bid, pages, write=op["write"], clock=clock)
            return []
        # Room for the whole window, as the migration engine asks: the
        # eviction may take pages of the window itself.
        freed = table.ensure_free(len(pages), **evict)
        table.admit(bid, pages, write=op["write"], clock=clock)
        return [freed]
    elif kind == "fill":
        if op["resident"] and state.n_pages > DIFF_CAPACITY:
            return []
        freed = table.ensure_free(state.n_pages if op["resident"] else 0,
                                  **evict)
        table.fill_uniform(bid, resident=op["resident"], dirty=op["dirty"],
                           clock=None if op["tick"] else table.clock,
                           touches=op["touches"])
        return [freed]
    elif kind == "drop":
        table.drop(bid)
    elif kind == "clean":
        table.clean(bid)
    return []


@given(st.sampled_from(["lru", "lfu", "random"]), st.integers(0, 2**32 - 1),
       st.lists(diff_op, min_size=20, max_size=80))
@settings(max_examples=200, deadline=None)
def test_arena_eviction_matches_per_buffer_reference(order, seed, ops):
    arena = DevicePageTable(DIFF_CAPACITY, 4096)
    ref = PerBufferTable(DIFF_CAPACITY, 4096)
    arena_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    for op in ops:
        got = apply_diff_op(arena, op, order, arena_rng)
        want = apply_diff_op(ref, op, order, ref_rng)
        assert got == want, op
        assert_same_state(arena, ref)
