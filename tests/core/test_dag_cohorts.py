"""The partitioned frontier: reader cohorts, join nodes, retired-set prune.

Cohorts relax the DAG's structure (a writer binds to a sealed cohort's
join instead of each member, and may keep vacuous edges to already-done
readers), so exact equality with :class:`NaiveDag` no longer holds once
they seal.  What must hold instead — and what these tests pin — is the
*scheduling-correctness* envelope:

* every dependency the naive model records is covered by the cohort
  DAG (directly or through a join), up to already-completed CEs;
* no dependency is invented on an unrelated CE;
* transitive closures agree up to completed CEs;
* the expanded frontier and pending-accessor sets agree the same way;
* ``mark_done`` + predicate-less prune is state-identical to the
  predicate prune it replaces.

Completion in these sessions is *topologically consistent* (a CE only
completes after its ancestors), matching real execution — the naive
model's random-completion sessions intentionally do not, and keep their
exact-equality guarantees in the cohort-free regime via
``test_dag_differential``.
"""

from __future__ import annotations

import random

import pytest

from repro.core import DependencyDag, ManagedArray
from repro.gpu import ArrayAccess, Direction
from repro.sim import Engine

from tests.core.test_dag_differential import (SWEEP_FLOOR, NaiveDag,
                                              SlotAudit, _ce, make_ce)

COHORT = 4


def expand(nodes):
    """Replace cohort joins by their member CEs, order preserved."""
    out = []
    for n in nodes:
        if n.ce_id < 0:
            out.extend(n.members)
        else:
            out.append(n)
    return out


def ids(nodes):
    return {n.ce_id for n in nodes}


class TestCohortSealing:
    def _reader(self, a):
        return _ce((ArrayAccess(a, Direction.IN),))

    def _writer(self, a):
        return _ce((ArrayAccess(a, Direction.OUT),))

    def test_seal_at_cohort_size(self):
        a = ManagedArray(4)
        dag = DependencyDag(cohort_size=COHORT)
        readers = [self._reader(a) for _ in range(COHORT - 1)]
        for r in readers:
            dag.add(r)
        assert all(n.ce_id > 0 for n in dag.frontier)
        last = self._reader(a)
        dag.add(last)
        readers.append(last)
        joins = [n for n in dag.frontier if n.ce_id < 0]
        assert len(joins) == 1
        assert joins[0].members == readers
        # Members left the frontier; the join stands in for them.
        assert ids(dag.frontier) == {joins[0].ce_id}
        assert ids(expand(dag.frontier)) == ids(readers)

    def test_writer_scans_cohort_representatives(self):
        a = ManagedArray(4)
        dag = DependencyDag(cohort_size=COHORT)
        readers = [self._reader(a) for _ in range(3 * COHORT + 2)]
        for r in readers:
            dag.add(r)
        joins = [n for n in dag.frontier if n.ce_id < 0]
        assert len(joins) == 3
        tail = [n for n in dag.frontier if n.ce_id > 0]
        assert len(tail) == 2
        w = self._writer(a)
        parents = dag.add(w)
        # O(N/K) candidates: 3 joins + 2 tail readers, never 14 readers.
        assert parents == joins + tail
        assert ids(expand(parents)) == ids(readers)
        # The writer supersedes everything; it is the frontier now.
        assert ids(dag.frontier) == {w.ce_id}

    def test_join_done_is_shared_allof_over_members(self):
        engine = Engine()
        a = ManagedArray(4)
        dag = DependencyDag(cohort_size=COHORT)
        readers = [self._reader(a) for _ in range(COHORT)]
        for r in readers:
            r.done = engine.event(name=f"done{r.ce_id}")
            dag.add(r)
        join = dag.frontier[0]
        assert join.ce_id < 0
        ev = join.done
        assert ev is join.done          # cached, shared by all dependents
        assert set(ev.events) == {r.done for r in readers}
        for r in readers:
            r.done.succeed()
        engine.run()
        assert ev.processed

    def test_join_done_none_once_members_processed(self):
        engine = Engine()
        a = ManagedArray(4)
        dag = DependencyDag(cohort_size=COHORT)
        readers = [self._reader(a) for _ in range(COHORT)]
        for r in readers:
            r.done = engine.event(name=f"done{r.ce_id}")
            dag.add(r)
            r.done.succeed()
        engine.run()
        join = dag.frontier[0]
        assert join.done is None        # same contract as a processed CE

    def test_ancestors_expand_through_joins(self):
        a = ManagedArray(4)
        dag = DependencyDag(cohort_size=COHORT)
        readers = [self._reader(a) for _ in range(COHORT)]
        for r in readers:
            dag.add(r)
        w = self._writer(a)
        dag.add(w)
        anc = dag.ancestors(w)
        assert anc == ids(readers)      # join ids never leak out
        assert all(i > 0 for i in anc)

    def test_pending_accessors_include_cohorts(self):
        a = ManagedArray(4)
        dag = DependencyDag(cohort_size=COHORT)
        readers = [self._reader(a) for _ in range(COHORT + 1)]
        for r in readers:
            dag.add(r)
        pending = dag.pending_accessors(a.buffer_id)
        assert pending[0].ce_id < 0
        assert ids(expand(pending)) == ids(readers)

    def test_cohort_eviction_frees_members(self):
        a = ManagedArray(4)
        dag = DependencyDag(cohort_size=COHORT)
        readers = [self._reader(a) for _ in range(2 * COHORT)]
        for r in readers:
            dag.add(r)
        done = {r.ce_id for r in readers[:COHORT]}
        removed = dag.prune_completed(lambda c: c.ce_id in done)
        # First cohort fully done: evicted wholesale, members dropped.
        assert removed == COHORT
        assert dag.size == COHORT
        assert ids(expand(dag.frontier)) == ids(readers[COHORT:])

    def test_partial_cohort_blocks_eviction(self):
        a = ManagedArray(4)
        dag = DependencyDag(cohort_size=COHORT)
        readers = [self._reader(a) for _ in range(COHORT)]
        for r in readers:
            dag.add(r)
        done = {r.ce_id for r in readers[1:]}   # first member still runs
        # Done members retire and free their nodes right away (the join
        # keeps the references its completion condition needs), but the
        # cohort itself stays in the frontier until *every* member is
        # done — a future writer must still bind to it.
        assert dag.prune_completed(lambda c: c.ce_id in done) == COHORT - 1
        assert dag.size == 1
        join = dag.frontier[0]
        assert join.ce_id < 0
        assert ids(expand(dag.frontier)) == ids(readers)

    def test_superseded_join_unwinds_after_members_complete(self):
        a = ManagedArray(4)
        dag = DependencyDag(cohort_size=COHORT)
        readers = [self._reader(a) for _ in range(COHORT)]
        for r in readers:
            dag.add(r)
        w = self._writer(a)
        dag.add(w)                       # join leaves the frontier
        assert len(dag._retired_joins) == 1
        done = {r.ce_id for r in readers}
        dag.prune_completed(lambda c: c.ce_id in done)
        assert not dag._retired_joins
        assert dag.size == 1             # only the writer survives
        assert dag.parents(w) == []      # join edge unwound with it

    def test_default_cohort_matches_allof_fanout(self):
        from repro.sim import AllOf
        assert DependencyDag().cohort_size == AllOf.FANOUT

    @pytest.mark.parametrize("size", [0, 1, -3])
    def test_cohort_size_below_two_refused(self, size):
        # 0 is a size like any other, not "use the default".
        with pytest.raises(ValueError, match="cohort_size must be >= 2"):
            DependencyDag(cohort_size=size)


def _topo_complete(rng, ref, done_ids, fraction=0.25):
    """Complete random CEs whose ancestors already completed (real
    execution never finishes a CE before its dependencies)."""
    for cid, closure in ref.full_anc.items():
        if cid in done_ids or cid not in ref.nodes_by_id:
            continue
        if closure <= done_ids and rng.random() < fraction:
            done_ids.add(cid)


class TestCohortModeDifferential:
    def _run_session(self, seed, n_ces=160):
        rng = random.Random(seed)
        shared = ManagedArray(4)
        outs = [ManagedArray(4) for _ in range(3)]
        dag = DependencyDag(cohort_size=COHORT)
        ref = NaiveDag()
        audit = SlotAudit(dag)
        done_ids: set[int] = set()
        live = []
        sealed_ever = False
        for step in range(n_ces):
            if rng.random() < 0.7:
                # Wide-shaped: read the shared buffer, write one out.
                ce = _ce((ArrayAccess(shared, Direction.IN),
                          ArrayAccess(outs[rng.randrange(3)],
                                      Direction.OUT)))
            else:
                ce = make_ce(rng, [shared, *outs])
            got = dag.add(ce)
            expected = ref.add(ce)
            live.append(ce)
            got_ids = ids(expand(got))
            # Coverage: every naive dependency is honoured, up to CEs
            # that already completed (their edges are vacuous).
            assert ids(expected) <= got_ids | done_ids
            # No invention: cohort parents were all genuine candidates
            # (conflicting frontier CEs), completed or not.
            assert got_ids <= set(ref.last_candidates) | done_ids
            sealed_ever = sealed_ever or any(
                n.ce_id < 0 for n in dag.frontier)

            _topo_complete(rng, ref, done_ids)
            if step % 13 == 12:
                dag.prune_completed(lambda c: c.ce_id in done_ids)
                ref.prune_completed(lambda c: c.ce_id in done_ids)
                live = [c for c in live
                        if c.ce_id in ref.nodes_by_id
                        or c.ce_id in dag._nodes]

            # Node sets agree up to completed CEs (each side may prune
            # or retain a *done* CE the other doesn't).
            node_diff = set(dag._nodes) ^ set(ref.nodes_by_id)
            assert node_diff <= done_ids
            front_naive = {c.ce_id for c in ref.frontier}
            front_cohort = ids(expand(dag.frontier))
            assert front_naive <= front_cohort
            assert front_cohort - front_naive <= done_ids
            for buf in (shared, *outs):
                pa_naive = {c.ce_id
                            for c in ref.pending_accessors(buf.buffer_id)}
                pa_cohort = ids(expand(
                    dag.pending_accessors(buf.buffer_id)))
                assert pa_naive <= pa_cohort
                assert pa_cohort - pa_naive <= done_ids
            for ce in live:
                if ce.ce_id not in dag._nodes or \
                        ce.ce_id not in ref.nodes_by_id:
                    continue
                assert dag.ancestors(ce) ^ ref.ancestors(ce) <= done_ids
            audit.check()
        assert sealed_ever, "session never sealed a cohort"
        return audit

    def test_relaxed_equivalence_across_seeds(self):
        for seed in range(6):
            self._run_session(seed)

    def test_relaxed_equivalence_with_slot_reuse(self, monkeypatch):
        """The same sessions with the slot sweep at its floor: cohort
        joins hold slots and masks too, and a sweep must clear parked
        bits from theirs as well."""
        monkeypatch.setattr(DependencyDag, "SLOT_SWEEP_MIN", SWEEP_FLOOR)
        for seed in range(6):
            audit = self._run_session(seed)
            assert audit.reuses >= 5 * audit.dag._slot_end


class TestMarkDoneEquivalence:
    """mark_done + prune_completed() must be state-identical to the
    predicate prune over the same completion history."""

    def _state(self, dag, live):
        return (
            dag.size,
            ids(dag.frontier),
            # Retired nodes may sit in either bucket between prunes
            # (mark mode routes done ones straight to the ready queue).
            sorted(set(dag._retired) | set(dag._retired_ready)),
            {ce.ce_id: [p.ce_id for p in dag.parents(ce)]
             for ce in live if ce.ce_id in dag._nodes},
        )

    def test_modes_agree(self):
        for seed in (5, 21):
            rng = random.Random(seed)
            arrays = [ManagedArray(4) for _ in range(4)]
            pred_dag = DependencyDag(cohort_size=COHORT)
            mark_dag = DependencyDag(cohort_size=COHORT)
            ref = NaiveDag()  # drives topologically consistent completion
            done_ids: set[int] = set()
            live = []
            for step in range(140):
                maker = make_ce if rng.random() < 0.7 else (
                    lambda r, a: _ce((ArrayAccess(a[0], Direction.IN),)))
                ce = maker(rng, arrays)
                assert [c.ce_id for c in pred_dag.add(ce)] == \
                    [c.ce_id for c in mark_dag.add(ce)]
                ref.add(ce)
                live.append(ce)
                before = set(done_ids)
                _topo_complete(rng, ref, done_ids)
                for ce2 in live:
                    if ce2.ce_id in done_ids and ce2.ce_id not in before:
                        mark_dag.mark_done(ce2)
                if step % 9 == 8:
                    removed_pred = pred_dag.prune_completed(
                        lambda c: c.ce_id in done_ids)
                    removed_mark = mark_dag.prune_completed()
                    assert removed_pred == removed_mark
                    live = [c for c in live if c.ce_id in pred_dag._nodes]
                assert self._state(pred_dag, live) == \
                    self._state(mark_dag, live)
