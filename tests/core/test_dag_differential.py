"""Differential test: the optimized DAG vs a naive reference model.

``repro.core.dag.DependencyDag`` keeps several incrementally-maintained
structures for speed — reader-id sets, a refcounted frontier, *bounded*
frontier-relevant ancestor sets for redundancy filtering, and a prune
that never rescans ancestor sets.  This test pins its observable
behaviour against :class:`NaiveDag`, a direct transcription of the
documented semantics with none of the shortcuts:

* candidates come from the per-buffer frontier (readers + last writer);
* ``filterRedundant`` drops a candidate reachable from another candidate
  through the *insertion-time* transitive closure (a dependency does not
  dissolve because intermediate nodes were garbage-collected, so the
  reference records each node's full ancestor closure when it is added
  and never trims it);
* public ``ancestors()`` is the closure over the *live* parents graph;
* the frontier is the buffer-ordered union; and
* prune removes completed non-frontier nodes and fixes up children.

Random workload streams (mixed read/write/update CEs over a small buffer
pool) are interleaved with prunes under several completion patterns, and
every public observable — returned parents, frontier, ancestors,
children, pending accessors, sizes — must match exactly, across multiple
independent sessions.  After every operation :class:`SlotAudit` also
checks the frontier slots behind the DAG's ancestor masks, and
:class:`TestSlotReuse` reruns every stream with the slot sweep at its
floor, so slots are parked, swept and handed out again many times.
"""

from __future__ import annotations

import random

import pytest

from repro.core import DependencyDag, ManagedArray
from repro.core.ce import CeKind, ComputationalElement
from repro.gpu import ArrayAccess, Direction, KernelSpec, LaunchConfig

DIRECTIONS = (Direction.IN, Direction.OUT, Direction.INOUT)


class NaiveDag:
    """Reference dependency DAG: obviously-correct, unoptimized."""

    def __init__(self):
        self.nodes_by_id: dict[int, ComputationalElement] = {}
        self.parents_of: dict[int, list[ComputationalElement]] = {}
        self.children_of: dict[int, list[ComputationalElement]] = {}
        # ce_id -> full transitive ancestor closure at insertion time;
        # kept forever (this is a test model, not production code).
        self.full_anc: dict[int, set[int]] = {}
        # buffer_id -> (last_writer | None, [readers])
        self.fronts: dict[int, list] = {}

    # -- observables ---------------------------------------------------------

    @property
    def frontier(self):
        seen = {}
        for writer, readers in self.fronts.values():
            if writer is not None:
                seen.setdefault(writer.ce_id, writer)
            for r in readers:
                seen.setdefault(r.ce_id, r)
        return list(seen.values())

    @property
    def size(self):
        return len(self.nodes_by_id)

    def ancestors(self, ce):
        out, stack = set(), list(self.parents_of[ce.ce_id])
        while stack:
            p = stack.pop()
            if p.ce_id not in out:
                out.add(p.ce_id)
                stack.extend(self.parents_of[p.ce_id])
        return out

    def edge_count(self):
        return sum(len(c) for c in self.children_of.values())

    def pending_accessors(self, buffer_id):
        front = self.fronts.get(buffer_id)
        if front is None:
            return []
        writer, readers = front
        return list(readers) + ([writer] if writer is not None else [])

    # -- mutation ------------------------------------------------------------

    def add(self, ce):
        candidates = {}
        self.last_candidates = candidates
        for access in ce.accesses:
            front = self.fronts.get(access.buffer.buffer_id)
            if front is None:
                continue
            writer, readers = front
            if access.direction.writes:
                for r in readers:
                    candidates.setdefault(r.ce_id, r)
                if writer is not None:
                    candidates.setdefault(writer.ce_id, writer)
            elif writer is not None:
                candidates.setdefault(writer.ce_id, writer)
        candidates.pop(ce.ce_id, None)

        ordered = list(candidates.values())
        ids = set(candidates)
        redundant = set()
        for c in ordered:
            redundant |= self.full_anc[c.ce_id] & ids
        filtered = [c for c in ordered if c.ce_id not in redundant]

        self.parents_of[ce.ce_id] = list(filtered)
        self.children_of[ce.ce_id] = []
        closure = set()
        for parent in filtered:
            self.children_of[parent.ce_id].append(ce)
            closure.add(parent.ce_id)
            closure |= self.full_anc[parent.ce_id]
        self.full_anc[ce.ce_id] = closure
        self.nodes_by_id[ce.ce_id] = ce

        for access in ce.accesses:
            front = self.fronts.setdefault(access.buffer.buffer_id,
                                           [None, []])
            if access.direction.writes:
                front[0] = ce
                front[1] = []
            elif all(r.ce_id != ce.ce_id for r in front[1]):
                front[1].append(ce)
        return filtered

    def prune_completed(self, is_done):
        # Completed readers leave their buffer frontiers (their WAR edges
        # are vacuous); last writers never do.
        for front in self.fronts.values():
            front[1] = [r for r in front[1] if not is_done(r)]
        keep = {ce.ce_id for ce in self.frontier}
        doomed = [cid for cid, ce in self.nodes_by_id.items()
                  if cid not in keep and is_done(ce)]
        for cid in doomed:
            for child in self.children_of.pop(cid):
                if child.ce_id in self.parents_of:
                    self.parents_of[child.ce_id] = [
                        p for p in self.parents_of[child.ce_id]
                        if p.ce_id != cid]
            del self.parents_of[cid]
            del self.nodes_by_id[cid]
        return len(doomed)


def make_ce(rng, arrays):
    n = rng.randint(1, min(3, len(arrays)))
    chosen = rng.sample(range(len(arrays)), n)
    accesses = tuple(ArrayAccess(arrays[i], rng.choice(DIRECTIONS))
                     for i in chosen)
    return _ce(accesses)


def make_rw_ce(rng, arrays):
    """A CE that reads *and* writes the same buffer through separate
    accesses — the transient leave/re-enter bookkeeping in ``add``."""
    a = arrays[rng.randrange(len(arrays))]
    style = rng.random()
    if style < 0.35:
        accesses = (ArrayAccess(a, Direction.IN),
                    ArrayAccess(a, Direction.OUT))
    elif style < 0.55:
        # Write first, then read its own write: both models keep the CE
        # as reader *and* last writer of the buffer.
        accesses = (ArrayAccess(a, Direction.OUT),
                    ArrayAccess(a, Direction.IN))
    elif style < 0.8:
        b = arrays[rng.randrange(len(arrays))]
        accesses = (ArrayAccess(a, Direction.IN),
                    ArrayAccess(b, rng.choice(DIRECTIONS)),
                    ArrayAccess(a, Direction.OUT))
    else:
        accesses = (ArrayAccess(a, Direction.INOUT),)
    return _ce(accesses)


def _ce(accesses):
    return ComputationalElement(
        kind=CeKind.KERNEL, accesses=accesses,
        kernel=KernelSpec("k"), config=LaunchConfig((1,), (32,)))


#: The lowest ``DependencyDag.SLOT_SWEEP_MIN`` that still needs a parked
#: slot to sweep: with it, a sweep runs once |F| slots are parked.
SWEEP_FLOOR = 1


class SlotAudit:
    """The invariants that keep ``DependencyDag``'s ancestor masks exact
    while frontier slots are reused, checked after every operation:

    * every frontier member holds a slot of its own, and every slot below
      ``_slot_end`` is exactly one of held, parked or free;
    * a node out of the frontier holds no slot and an empty mask;
    * no live mask holds the bit of a free slot (a parked bit may linger:
      no frontier member holds that slot);
    * fewer than ``max(|F|, SLOT_SWEEP_MIN)`` slots are parked; and
    * every slot is under ``2·peak|F| + SLOT_SWEEP_MIN + TAKES``.

    The bound: an operation starts with ``|F| + parked`` slots in use,
    fewer than ``2·|F| + SLOT_SWEEP_MIN``; it takes one slot for its CE
    and one per sealed buffer before it settles departures, and a
    never-used slot goes out only when none is free.
    """

    #: An insert takes at most one slot more than its CE has accesses;
    #: these streams use at most three accesses per CE.
    TAKES = 3

    def __init__(self, dag: DependencyDag):
        self.dag = dag
        self.peak = 0
        #: slot -> the last node seen holding it, to count reuses.
        self.owner: dict[int, int] = {}
        self.reuses = 0

    def check(self) -> None:
        dag = self.dag
        live = dag._frontier_count
        held = {}
        for cid, info in dag._info.items():
            if cid in live:
                assert info.slot >= 0, f"frontier node {cid} has no slot"
                assert info.slot not in held, f"slot {info.slot} shared"
                held[info.slot] = cid
            else:
                assert info.slot == -1 and info.mask == 0, (
                    f"node {cid} left the frontier but kept its slot/mask")
        assert len(held) == len(live)
        parked, free = set(dag._parked_slots), set(dag._free_slots)
        assert len(parked) == len(dag._parked_slots)
        assert len(free) == len(dag._free_slots)
        assert not (parked & free) and not (held.keys() & (parked | free))
        assert held.keys() | parked | free == set(range(dag._slot_end))
        free_bits = 0
        for slot in free:
            free_bits |= 1 << slot
        for cid in live:
            stale = dag._info[cid].mask & free_bits
            assert not stale, (
                f"node {cid}'s mask holds free slots "
                f"{[s for s in free if stale >> s & 1]}")
        floor = dag.SLOT_SWEEP_MIN
        assert len(parked) < max(len(live), floor)
        self.peak = max(self.peak, len(live))
        assert dag._slot_end <= 2 * self.peak + floor + self.TAKES
        for slot, cid in held.items():
            if self.owner.get(slot, cid) != cid:
                self.reuses += 1
            self.owner[slot] = cid


def assert_equivalent(dag: DependencyDag, ref: NaiveDag, live):
    assert dag.size == ref.size
    assert dag.edge_count() == ref.edge_count()
    assert [c.ce_id for c in dag.frontier] == \
        [c.ce_id for c in ref.frontier]
    for ce in live:
        assert (ce in dag) == (ce.ce_id in ref.nodes_by_id)
        if ce.ce_id not in ref.nodes_by_id:
            continue
        assert [p.ce_id for p in dag.parents(ce)] == \
            [p.ce_id for p in ref.parents_of[ce.ce_id]]
        assert [c.ce_id for c in dag.children(ce)] == \
            [c.ce_id for c in ref.children_of[ce.ce_id]]
        assert dag.ancestors(ce) == ref.ancestors(ce)
    for array in {a for ce in live for a in ce.arrays}:
        assert [c.ce_id for c in dag.pending_accessors(array.buffer_id)] \
            == [c.ce_id for c in ref.pending_accessors(array.buffer_id)]


class TestDifferential:
    def _run_session(self, seed, n_ces=120, n_buffers=5,
                     prune_every=17, done_fraction=0.7):
        rng = random.Random(seed)
        arrays = [ManagedArray(4) for _ in range(n_buffers)]
        dag, ref = DependencyDag(), NaiveDag()
        audit = SlotAudit(dag)
        live = []
        done_ids = set()
        for step in range(n_ces):
            ce = make_ce(rng, arrays)
            got = dag.add(ce)
            expected = ref.add(ce)
            assert [c.ce_id for c in got] == [c.ce_id for c in expected]
            live.append(ce)
            # Random subset of existing CEs "completes".
            for other in live:
                if rng.random() < done_fraction * 0.1:
                    done_ids.add(other.ce_id)
            if step % prune_every == prune_every - 1:
                removed = dag.prune_completed(
                    lambda c: c.ce_id in done_ids)
                removed_ref = ref.prune_completed(
                    lambda c: c.ce_id in done_ids)
                assert removed == removed_ref
                live = [ce for ce in live if ce.ce_id in ref.nodes_by_id]
            assert_equivalent(dag, ref, live)
            audit.check()
        return audit

    def test_random_streams_match_reference(self):
        for seed in range(12):
            self._run_session(seed)

    def test_separate_sessions_stay_independent(self):
        """Fresh DAG instances (one per program session) never share
        frontier or ancestor state."""
        for seed in (100, 101):
            self._run_session(seed, n_ces=60, n_buffers=3, prune_every=7)

    def test_read_write_same_buffer_interleaved_with_prune(self):
        """CEs reading *and* writing one buffer (transient leave/re-enter
        inside ``add``) mixed with plain CEs, across prunes — the
        invariant the partitioned frontier must not break."""
        for seed in range(8):
            rng = random.Random(1000 + seed)
            arrays = [ManagedArray(4) for _ in range(4)]
            dag, ref = DependencyDag(), NaiveDag()
            audit = SlotAudit(dag)
            live, done_ids = [], set()
            for step in range(150):
                maker = make_rw_ce if rng.random() < 0.5 else make_ce
                ce = maker(rng, arrays)
                got = dag.add(ce)
                expected = ref.add(ce)
                assert [c.ce_id for c in got] == \
                    [c.ce_id for c in expected]
                live.append(ce)
                for other in live:
                    if rng.random() < 0.08:
                        done_ids.add(other.ce_id)
                if step % 11 == 10:
                    assert dag.prune_completed(
                        lambda c: c.ce_id in done_ids) == \
                        ref.prune_completed(lambda c: c.ce_id in done_ids)
                    live = [c for c in live if c.ce_id in ref.nodes_by_id]
                assert_equivalent(dag, ref, live)
                audit.check()

    def test_write_heavy_chains(self):
        """INOUT-only chains: the regime where bounded ancestor sets pay
        off (and where an off-by-one would rewire the chain)."""
        rng = random.Random(7)
        a = ManagedArray(4)
        dag, ref = DependencyDag(), NaiveDag()
        audit = SlotAudit(dag)
        live, done_ids = [], set()
        for i in range(200):
            ce = ComputationalElement(
                kind=CeKind.KERNEL,
                accesses=(ArrayAccess(a, Direction.INOUT),),
                kernel=KernelSpec("k"), config=LaunchConfig((1,), (32,)))
            assert [c.ce_id for c in dag.add(ce)] == \
                [c.ce_id for c in ref.add(ce)]
            live.append(ce)
            if len(live) > 1:
                done_ids.add(live[-2].ce_id)
            if i % 10 == 9:
                assert dag.prune_completed(lambda c: c.ce_id in done_ids) \
                    == ref.prune_completed(lambda c: c.ce_id in done_ids)
                live = [ce for ce in live if ce.ce_id in ref.nodes_by_id]
            assert_equivalent(dag, ref, live)
            audit.check()
        assert dag.size <= 12


class TestSlotReuse(TestDifferential):
    """Every differential stream again with the slot sweep at its floor:
    a sweep runs as soon as |F| slots are parked, so each stream parks,
    frees and hands out slots again many times, under the same exact
    equality with :class:`NaiveDag` and the same :class:`SlotAudit`."""

    @pytest.fixture(autouse=True)
    def _sweep_floor(self, monkeypatch):
        monkeypatch.setattr(DependencyDag, "SLOT_SWEEP_MIN", SWEEP_FLOOR)

    def test_streams_reuse_slots(self):
        for seed in range(4):
            audit = self._run_session(seed)
            assert audit.reuses >= 5 * audit.dag._slot_end, (
                f"seed {seed}: {audit.reuses} reuses of "
                f"{audit.dag._slot_end} slots")
