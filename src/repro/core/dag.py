"""The dependency DAG of Algorithm 1 (Global on the Controller, Local on
each Worker — same structure, different population).

Insertion follows the paper's procedure: collect the frontier CEs that
conflict with the new one, filter redundant ancestors (drop A when another
candidate B already transitively depends on A), add edges, update the
frontier.

One refinement over the paper's simplified pseudo-code: the frontier is
maintained *per buffer* (last writer + readers since that write) rather
than as a single set of childless CEs.  A purely child-based frontier loses
WAW edges — if A wrote X and Y, and B read only X, a later writer of Y
would scan a frontier containing just B and miss its dependency on A.  The
per-buffer frontier is what GrCUDA's scheduler [27] actually keeps, and the
union over buffers is exactly "the frontier" Algorithm 1 iterates.

Transitive reachability for ``filterRedundant`` is kept incrementally as
one *frontier-ancestor mask* per node, so the filter is a few integer
ANDs rather than a graph search.  Every node in the frontier holds a
*slot*, a small integer taken when its frontier count goes from 0 to 1,
and a node's mask is a Python ``int`` whose bit ``s`` stands for the
node holding slot ``s``.  ``add`` ORs each parent's bit and mask into the
new node's mask; a seal ORs in each member's.  A candidate is redundant
when its bit is set in another candidate's mask.

Why that is exact.  Frontier membership is an interval — a CE enters
the frontier at its own ``add`` and once it leaves (superseded by a
later writer, sealed into a reader cohort, or evicted by
``prune_completed`` as a finished reader) never re-enters (readers are
appended only during their own insertion; a last writer is installed
only at its own insertion; eviction only removes).  Take candidates A
and B, both in the frontier now.  If A is newer than B, A is no
ancestor of B, and A's slot was free when A took it (below), so B's
mask cannot hold its bit.  If A is older, A was in the frontier and
held its slot for all of B's life, so A's bit reached B's mask exactly
when A is a parent of B or its bit was in a parent's mask — by
induction, exactly when A is an ancestor of B.  Masks only ever gain
bits when they are built, so no dependency is missed and none is
invented.  A node's mask is cleared the moment its last frontier
membership ends (it can never be read again), which keeps at most |F|
masks live.

Slot reuse.  A departed node's bit may linger in live masks, so its
slot is *parked*, never handed out, until its bit is gone from every
live mask.  Once at least ``max(|F|, SLOT_SWEEP_MIN)`` slots are parked,
one sweep ANDs every frontier member's mask (cohort joins included)
with the complement of their bits and moves them to the free list; the
lowest free slot goes out first.  A lingering parked bit is inert — no
frontier member holds that slot — and a free slot's bit is in no live
mask, which is the "A newer than B" case above.  So masks stay under
about ``2·|F| + SLOT_SWEEP_MIN`` bits with no renumbering, at O(|F|)
work per |F| departures — mask sizes track frontier width, not DAG
size, the property that keeps million-CE ingestion linear.

Reader cohorts (the partitioned frontier)
-----------------------------------------
A buffer that is read by N CEs and only then written used to keep all N
readers in its frontier: the eventual writer scanned N candidates, every
prune rescanned N readers, and the writer's wait fan-in was an N-child
condition — the O(N) walls behind wide fan-outs.  Instead, once a
buffer's reader list reaches :attr:`DependencyDag.cohort_size` (K), the
readers are *sealed* into a cohort represented by one synthetic
:class:`_CohortJoin` node:

* the K members leave the frontier; the join enters it in their place,
  so a writer after N readers scans O(N/K) cohort representatives plus
  at most K-1 unsealed tail readers;
* the join's mask is the members' bits plus the union of their masks,
  so redundancy filtering through a join is exactly as strong as
  against its members;
* the join's ``done`` event is built lazily as an ``AllOf`` over the
  members' completion events and cached, so every dependent of the
  cohort shares one K-child condition — together with the grouped
  ``AllOf`` in :mod:`repro.sim.events` this turns the million-child
  fan-in into a two-level tree of ≤K-wide conditions;
* sealed members that also hold no other frontier role are *retired*
  (below) and become prunable while their cohort is still live — the
  join keeps the member references it needs for its ``done`` event.

Joins carry negative ``ce_id``\\ s from a per-DAG counter (they are not
CEs, never enter :meth:`nodes`, and must not perturb global CE
numbering).  They quack just enough like a CE for the scheduler: a
``ce_id``, a ``done`` event and membership in parent lists.  Public
:meth:`ancestors` expands joins to their members transparently.

Sealing only triggers at K readers per buffer per write epoch, so
programs that never accumulate that many readers — every golden-trace
scenario — build byte-identical DAGs and schedules.

Retired set (incremental prune)
-------------------------------
``prune_completed`` used to scan *every* node for prunable ones, which
made each prune O(DAG) — quadratic over a run.  The DAG now tracks the
*retired* set — nodes still present but holding no frontier role (the
only nodes prune may drop) — maintained at the exact points frontier
membership ends.  A prune scans retired nodes only.  Callers on hot
paths can do better still: :meth:`mark_done` records a CE's completion
as it happens, moving already-retired nodes onto an exact ready queue,
and ``prune_completed()`` *without* a predicate drains that queue in
O(newly prunable) instead of rescanning retired-but-running nodes.

The *public* :meth:`DependencyDag.ancestors` still reports the full
transitive closure (callers and tests rely on it); it walks the parents
graph on demand instead of reading the internal masks.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from repro.core.ce import ComputationalElement
from repro.sim.events import AllOf


@dataclass(slots=True)
class _NodeInfo:
    #: Frontier ancestors as a bitmask over frontier slots (see module
    #: docstring) — internal to filterRedundant; NOT the full closure.
    mask: int
    #: Direct (filtered) ancestors: the list ``add`` returned.
    parents: list
    #: Direct dependents, created with the first one.
    children: list[ComputationalElement] | None = None
    #: Frontier slot while the node is in the frontier, else -1.
    slot: int = -1


class _CohortJoin:
    """Synthetic frontier node standing for a sealed cohort of readers.

    Negative ``ce_id`` (per-DAG counter), so joins can never collide with
    — or renumber — real CEs.  ``done_upto`` is the done-prefix pointer
    prune uses: members are scanned for completion at most once each
    across the cohort's whole lifetime.
    """

    __slots__ = ("ce_id", "buffer_id", "members", "done_upto", "_done")

    def __init__(self, ce_id: int, buffer_id: int,
                 members: list[ComputationalElement]):
        self.ce_id = ce_id
        self.buffer_id = buffer_id
        self.members = members
        self.done_upto = 0
        self._done = None

    @property
    def done(self):
        """Completion event of the whole cohort (lazy, cached).

        Built only when a dependent actually waits on the cohort; every
        dependent then shares the same ``AllOf``.  ``None`` once every
        member's completion has already been delivered — same contract
        as a processed CE, and callers already skip those.
        """
        ev = self._done
        if ev is not None:
            return ev
        pending = [m.done for m in self.members
                   if m.done is not None and not m.done.processed]
        if not pending:
            return None
        ev = AllOf(pending[0].engine, pending,
                   name=f"cohort{-self.ce_id}")
        self._done = ev
        return ev

    def __repr__(self) -> str:
        return (f"<CohortJoin {self.ce_id} buf={self.buffer_id} "
                f"members={len(self.members)}>")


@dataclass(slots=True)
class _BufferFrontier:
    last_writer: ComputationalElement | None = None
    readers: list[ComputationalElement] = field(default_factory=list)
    #: Mirror of ``readers`` for O(1) dedup of multi-access CEs.
    reader_ids: set[int] = field(default_factory=set)
    #: Sealed reader cohorts (oldest first), standing in for their
    #: members in every frontier role.
    cohorts: deque = field(default_factory=deque)


class DependencyDag:
    """Append-only CE dependency graph with a per-buffer frontier."""

    #: Readers per buffer before they are sealed into a cohort.  Matches
    #: ``AllOf.FANOUT`` so a cohort's completion condition stays flat.
    COHORT_SIZE = 64

    #: Parked slots that start a sweep however narrow the frontier is;
    #: masks stay under about ``2·|F| + SLOT_SWEEP_MIN`` bits.
    SLOT_SWEEP_MIN = 64

    def __init__(self, cohort_size: int | None = None) -> None:
        self.cohort_size = (self.COHORT_SIZE if cohort_size is None
                            else cohort_size)
        if self.cohort_size < 2:
            raise ValueError("cohort_size must be >= 2")
        self._info: dict[int, _NodeInfo] = {}
        self._nodes: dict[int, ComputationalElement] = {}
        self._buffers: dict[int, _BufferFrontier] = {}
        #: ce_id -> number of (buffer, role) frontier memberships.  The
        #: key set *is* the frontier; prune consults it without ever
        #: materialising the CE list.
        self._frontier_count: dict[int, int] = {}
        self._frontier_cache: list = []
        self._frontier_dirty = False
        self._join_ids = itertools.count(-1, -1)
        self._joins: dict[int, _CohortJoin] = {}
        #: Nodes present but holding no frontier role — the only prune
        #: candidates.  ``_retired_ready`` is the exact subset already
        #: known complete via :meth:`mark_done`.
        self._retired: set[int] = set()
        self._retired_ready: list[int] = []
        self._retired_joins: list[_CohortJoin] = []
        self._done_marks: set[int] = set()
        #: Frontier slots: never handed out (``_slot_end`` on), free
        #: (descending, so ``pop`` takes the lowest) and parked (departed
        #: nodes' slots whose bits may linger in live masks).
        self._slot_end = 0
        self._free_slots: list[int] = []
        self._parked_slots: list[int] = []

    # -- inspection ----------------------------------------------------------

    @property
    def frontier(self) -> list:
        """Nodes a future insertion could directly depend on.

        Buffer-ordered union (last writer first, then cohort joins, then
        unsealed readers in arrival order per buffer), deduplicated —
        rebuilt lazily after mutations.  Contains :class:`_CohortJoin`
        entries once cohorts have sealed.
        """
        if self._frontier_dirty:
            seen: dict[int, object] = {}
            for bf in self._buffers.values():
                lw = bf.last_writer
                if lw is not None:
                    seen.setdefault(lw.ce_id, lw)
                for join in bf.cohorts:
                    seen.setdefault(join.ce_id, join)
                for r in bf.readers:
                    seen.setdefault(r.ce_id, r)
            self._frontier_cache = list(seen.values())
            self._frontier_dirty = False
        return list(self._frontier_cache)

    @property
    def size(self) -> int:
        """Number of CEs currently in the DAG (joins excluded)."""
        return len(self._nodes)

    def __contains__(self, ce: ComputationalElement) -> bool:
        return ce.ce_id in self._nodes

    def parents(self, ce: ComputationalElement) -> list:
        """Direct (filtered) ancestors of a CE; may contain cohort joins."""
        return list(self._info[ce.ce_id].parents)

    def children(self, ce: ComputationalElement) -> list[ComputationalElement]:
        """Direct dependents of a CE."""
        return list(self._info[ce.ce_id].children or ())

    def ancestors(self, ce: ComputationalElement) -> set[int]:
        """Transitive ancestor ce_ids (full closure over live nodes).

        Cohort joins are traversed transparently: their members appear in
        the closure, the synthetic join ids never do.
        """
        out: set[int] = set()
        seen_joins: set[int] = set()
        stack = list(self._info[ce.ce_id].parents)
        info = self._info
        while stack:
            parent = stack.pop()
            pid = parent.ce_id
            if pid < 0:
                if pid not in seen_joins:
                    seen_joins.add(pid)
                    stack.extend(m for m in parent.members
                                 if m.ce_id in info)
                continue
            if pid not in out:
                out.add(pid)
                stack.extend(info[pid].parents)
        return out

    def edge_count(self) -> int:
        """Total number of dependency edges."""
        return sum(len(i.children) for i in self._info.values()
                   if i.children)

    def pending_accessors(self, buffer_id: int) -> list:
        """The nodes a host-side *write* of this buffer must wait for:
        the last writer (RAW) and every reader since (WAR) — sealed
        cohorts as their join nodes."""
        bf = self._buffers.get(buffer_id)
        if bf is None:
            return []
        out = list(bf.cohorts)
        out.extend(bf.readers)
        if bf.last_writer is not None:
            out.append(bf.last_writer)
        return out

    def nodes(self) -> list[ComputationalElement]:
        """Every CE currently in the DAG, insertion order."""
        return list(self._nodes.values())

    def buffer_untouched(self, buffer_id: int) -> bool:
        """Whether no tracked CE ever accessed this buffer.

        True when the buffer holds no frontier at all (never seen, or
        every role emptied by writes-after-prune is impossible — a
        frontier always keeps its last writer).  The plan cache's
        virgin-buffer guard pairs this with
        :meth:`Directory.is_virgin`.
        """
        bf = self._buffers.get(buffer_id)
        return bf is None or (bf.last_writer is None
                              and not bf.readers and not bf.cohorts)

    # -- Algorithm 1, DAG phase -------------------------------------------------

    def add(self, ce: ComputationalElement) -> list:
        """Insert a CE; returns its (redundancy-filtered) direct ancestors.

        The returned list may contain :class:`_CohortJoin` entries; they
        expose ``done`` (an ``AllOf`` over their members) exactly like a
        CE, so wait collection is uniform.
        """
        cid = ce.ce_id
        if cid in self._nodes:
            raise ValueError(f"{ce!r} already in the DAG")

        # Scan the (per-buffer) frontier for conflicting CEs.  Locals are
        # hoisted throughout add() — it runs once per CE and its attribute
        # loads were measurable at million-CE scale.
        buffers = self._buffers
        accesses = ce.accesses
        candidates: dict[int, object] = {}
        setdef = candidates.setdefault
        for access in accesses:
            bf = buffers.get(access.buffer.buffer_id)
            if bf is None:
                continue
            writer = bf.last_writer
            if access.direction.writes:
                # WAR against every reader — sealed cohorts count once
                # through their join — WAW against the writer.
                for join in bf.cohorts:
                    setdef(join.ce_id, join)
                for r in bf.readers:
                    setdef(r.ce_id, r)
                if writer is not None:
                    setdef(writer.ce_id, writer)
            elif writer is not None:
                # RAW against the last writer.
                setdef(writer.ce_id, writer)
        candidates.pop(cid, None)

        filtered = self._filter_redundant(list(candidates.values()))
        # The returned list doubles as the node's parent list; callers
        # only read it.
        info = self._info[cid] = _NodeInfo(self._link(ce, filtered),
                                           filtered)
        self._nodes[cid] = ce

        self._update_frontier(ce, info)
        return filtered

    def add_with_parents(self, ce: ComputationalElement,
                         parents: list) -> list:
        """Insert a CE whose direct ancestors are already known.

        The plan-cache replay path: skips the frontier scan and the
        redundancy filter — the two costs :meth:`add` pays to *discover*
        ``parents`` — and performs the identical node registration and
        frontier update.  ``parents`` must be exactly what :meth:`add`
        would have returned for this CE (the recorded, filtered list);
        entries that have since left the DAG (pruned after completing)
        are skipped — their edges are vacuous, matching the pruned
        graph :meth:`add` itself would build against.
        """
        cid = ce.ce_id
        if cid in self._nodes:
            raise ValueError(f"{ce!r} already in the DAG")
        # Parents pruned since recording completed: their edges are vacuous.
        all_info = self._info
        kept = [p for p in parents if p.ce_id in all_info]
        info = all_info[cid] = _NodeInfo(self._link(ce, kept), kept)
        self._nodes[cid] = ce
        self._update_frontier(ce, info)
        return kept

    def _link(self, ce: ComputationalElement, parents: list) -> int:
        """Add the edges from ``parents`` to ``ce``; returns ``ce``'s
        frontier-ancestor mask."""
        all_info = self._info
        mask = 0
        for parent in parents:
            pinfo = all_info[parent.ce_id]
            if pinfo.children is None:
                pinfo.children = [ce]
            else:
                pinfo.children.append(ce)
            slot = pinfo.slot
            if slot >= 0:
                # A parent out of the frontier (only a replayed parent
                # list holds one) has no slot and an empty mask.
                mask |= pinfo.mask | 1 << slot
        return mask

    def _update_frontier(self, ce: ComputationalElement,
                         info: _NodeInfo) -> None:
        """updateFrontier — shared tail of :meth:`add` and
        :meth:`add_with_parents`.

        Depends only on ``ce.accesses``.  The CE takes its slot once
        every access is registered, before any seal reads its bit;
        departures are settled last, so a CE reading *and* writing the
        same buffer (transient leave + re-enter within its own
        insertion) never loses its slot or mask.
        """
        cid = ce.ce_id
        buffers = self._buffers
        fcount = self._frontier_count
        departed: list[int] = []
        sealable: list[int] = []
        cohort_size = self.cohort_size
        fget = fcount.get
        for access in ce.accesses:
            bid = access.buffer.buffer_id
            bf = buffers.get(bid)
            if bf is None:
                bf = buffers[bid] = _BufferFrontier()
            if access.direction.writes:
                old = bf.last_writer
                if old is not None and old.ce_id != cid:
                    self._leave(old.ce_id, departed)
                if old is None or old.ce_id != cid:
                    fcount[cid] = fget(cid, 0) + 1
                bf.last_writer = ce
                if bf.cohorts:
                    for join in bf.cohorts:
                        self._leave(join.ce_id, departed)
                    bf.cohorts = deque()
                if bf.readers:
                    for r in bf.readers:
                        self._leave(r.ce_id, departed)
                    bf.readers = []
                    bf.reader_ids = set()
            elif cid not in bf.reader_ids:
                bf.readers.append(ce)
                bf.reader_ids.add(cid)
                fcount[cid] = fget(cid, 0) + 1
                if len(bf.readers) >= cohort_size:
                    sealable.append(bid)
        if cid in fcount:
            info.slot = self._take_slot()
        # Seal full reader lists only after every access is frontier-
        # registered, so intra-CE dedup (reader_ids) stays intact.
        for bid in sealable:
            bf = self._buffers[bid]
            if len(bf.readers) >= self.cohort_size:
                self._seal(bid, bf, departed)
        self._settle_departed(departed)
        if cid not in fcount:
            # Zero-access CE (a pure barrier): never held a frontier
            # role, prunable as soon as it completes.
            self._retire(ce.ce_id)
        self._frontier_dirty = True

    def _seal(self, bid: int, bf: _BufferFrontier,
              departed: list[int]) -> None:
        """Collapse the buffer's unsealed readers into one cohort join."""
        members = bf.readers
        join = _CohortJoin(next(self._join_ids), bid, members)
        all_info = self._info
        mask = 0
        for m in members:
            minfo = all_info[m.ce_id]
            mask |= minfo.mask | 1 << minfo.slot
        all_info[join.ce_id] = _NodeInfo(mask, [], slot=self._take_slot())
        self._joins[join.ce_id] = join
        for m in members:
            self._leave(m.ce_id, departed)
        self._frontier_count[join.ce_id] = 1
        bf.cohorts.append(join)
        bf.readers = []
        bf.reader_ids = set()

    def _leave(self, cid: int, departed: list[int]) -> None:
        count = self._frontier_count[cid] - 1
        if count:
            self._frontier_count[cid] = count
        else:
            del self._frontier_count[cid]
            departed.append(cid)

    def _settle_departed(self, departed: list[int]) -> None:
        """Handle nodes whose last frontier membership just ended."""
        fcount = self._frontier_count
        parked = self._parked_slots
        for cid in departed:
            if cid in fcount:   # re-entered within the same operation
                continue
            # Out of the frontier for good: the mask can never be
            # consulted again, and the slot waits for a sweep.
            info = self._info[cid]
            parked.append(info.slot)
            info.slot = -1
            info.mask = 0
            if cid < 0:
                self._retired_joins.append(self._joins[cid])
            elif cid in self._nodes:
                self._retire(cid)
        if (len(parked) >= self.SLOT_SWEEP_MIN
                and len(parked) >= len(fcount)):
            self._sweep_slots()

    def _take_slot(self) -> int:
        """The lowest free slot, else a never-used one."""
        if self._free_slots:
            return self._free_slots.pop()
        slot = self._slot_end
        self._slot_end = slot + 1
        return slot

    def _sweep_slots(self) -> None:
        """Clear every parked slot's bit from every live mask, then free
        the parked slots."""
        parked = self._parked_slots
        dead = 0
        for slot in parked:
            dead |= 1 << slot
        keep = ~dead
        all_info = self._info
        for cid in self._frontier_count:
            info = all_info[cid]
            if info.mask:
                info.mask &= keep
        free = self._free_slots
        free += parked
        free.sort(reverse=True)
        parked.clear()

    def _retire(self, cid: int) -> None:
        if cid in self._done_marks:
            self._retired_ready.append(cid)
        else:
            self._retired.add(cid)

    def _filter_redundant(self, candidates: list) -> list:
        """Drop candidate A when another candidate transitively depends on A."""
        if len(candidates) < 2:
            return candidates
        # Every candidate's ancestors in one mask; no mask holds its own
        # node's bit, so a candidate set in it has another candidate as
        # a descendant.
        all_info = self._info
        redundant = 0
        for c in candidates:
            redundant |= all_info[c.ce_id].mask
        if not redundant:
            return candidates
        return [c for c in candidates
                if not redundant >> all_info[c.ce_id].slot & 1]

    # -- maintenance ------------------------------------------------------------

    def forget_buffer(self, buffer_id: int) -> None:
        """Drop a freed buffer's frontier (no-op for unknown buffers).

        Its last writer, sealed cohorts and readers leave their roles for
        the buffer and departures are settled: a node whose last role
        this was retires and becomes prunable once complete — even a last
        writer, which :meth:`prune_completed` never evicts.  A freed
        buffer takes no further accesses, so no future edge could attach
        through it.  This only shrinks the frontier, so membership stays
        an interval and the mask argument holds.
        """
        bf = self._buffers.pop(buffer_id, None)
        if bf is None:
            return
        departed: list[int] = []
        if bf.last_writer is not None:
            self._leave(bf.last_writer.ce_id, departed)
        for node in (*bf.cohorts, *bf.readers):
            self._leave(node.ce_id, departed)
        self._settle_departed(departed)
        self._frontier_dirty = True

    def mark_done(self, ce: ComputationalElement) -> None:
        """Record a CE's completion the moment it happens.

        Hot-path alternative to the ``is_done`` predicate: callers that
        observe completions anyway (the intra-node scheduler's completion
        hook) mark them here, and ``prune_completed()`` without a
        predicate then runs in O(newly prunable) — no retired-set rescan.
        """
        cid = ce.ce_id
        if cid not in self._nodes:
            return
        self._done_marks.add(cid)
        if cid in self._retired:
            self._retired.discard(cid)
            self._retired_ready.append(cid)

    def _node_done(self, node, pred) -> bool:
        """Doneness of a (possibly already pruned) cohort member."""
        return node.ce_id not in self._nodes or pred(node)

    def _cohort_done(self, join: _CohortJoin, pred) -> bool:
        """Advance the cohort's done-prefix pointer; True when complete."""
        members = join.members
        i = join.done_upto
        n = len(members)
        while i < n and self._node_done(members[i], pred):
            i += 1
        join.done_upto = i
        return i == n

    def prune_completed(self, is_done=None) -> int:
        """Drop finished CEs no longer reachable from the frontier.

        Long-running workloads (CG iterations) would otherwise grow the DAG
        without bound.  A completed CE can still matter only while it is a
        frontier member (future edges attach there); redundancy filtering
        consults the masks *of frontier candidates* and only ever tests
        candidates' bits in them, so a departed node's bit is inert
        until the slot sweep clears it — prune trims no mask.

        Completed *readers* are evicted from their buffer frontiers
        first: a WAR edge against a finished reader is vacuous, and a
        buffer that is never written again (a CG iteration's matrix)
        would otherwise anchor every reader it ever had — and a slot
        for each, set in every mask built while they linger — forever.
        Sealed cohorts are evicted wholesale, oldest first, once every
        member completed; eviction stops at the first incomplete cohort
        (completion is near-FIFO in practice, and a lingering complete
        cohort behind an incomplete one costs only a vacuous join
        candidate, never a missed dependency).  Last writers are never
        evicted: the per-buffer RAW chain is pinned semantics (a future
        reader still binds to its buffer's live writer, finished or
        not).  Eviction only shrinks the frontier, so membership stays
        an interval and the mask argument in the module docstring is
        untouched.

        With ``is_done=None`` the DAG uses completions recorded through
        :meth:`mark_done` (the exact, O(newly prunable) path).  Returns
        the number of *CEs* removed; evicted cohort joins are unwinding
        machinery and are not counted.
        """
        if is_done is None:
            marks = self._done_marks
            pred = lambda node: node.ce_id in marks  # noqa: E731
        else:
            pred = is_done
        fcount = self._frontier_count
        departed: list[int] = []
        for bf in self._buffers.values():
            while bf.cohorts and self._cohort_done(bf.cohorts[0], pred):
                join = bf.cohorts.popleft()
                self._leave(join.ce_id, departed)
                self._frontier_dirty = True
            readers = bf.readers
            if not readers:
                continue
            keep = []
            for r in readers:
                if pred(r):
                    self._leave(r.ce_id, departed)
                else:
                    keep.append(r)
            if len(keep) != len(readers):
                bf.readers = keep
                bf.reader_ids = {r.ce_id for r in keep}
                self._frontier_dirty = True
        self._settle_departed(departed)

        # Retired joins (superseded by a writer, or just evicted above)
        # unwind once their members completed.
        if self._retired_joins:
            still: list[_CohortJoin] = []
            for join in self._retired_joins:
                if self._cohort_done(join, pred):
                    self._remove_node(join.ce_id)
                else:
                    still.append(join)
            self._retired_joins = still

        if is_done is None:
            doomed = self._retired_ready
            self._retired_ready = []
        else:
            doomed = [cid for cid in self._retired
                      if pred(self._nodes[cid])]
            self._retired.difference_update(doomed)
        for cid in doomed:
            self._remove_node(cid)
        return len(doomed)

    def _remove_node(self, cid: int) -> None:
        info = self._info.pop(cid)
        info_map = self._info
        for child in info.children or ():
            cinfo = info_map.get(child.ce_id)
            if cinfo is not None:
                cinfo.parents = [p for p in cinfo.parents
                                 if p.ce_id != cid]
        self._nodes.pop(cid, None)
        self._joins.pop(cid, None)
        self._done_marks.discard(cid)
