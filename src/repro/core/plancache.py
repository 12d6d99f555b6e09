"""Hot-tenant plan cache — memoized Algorithm 1 decisions for repeated
programs.

A persistent runtime (``grout serve``) sees the same programs again and
again: every session a tenant submits under one workload spec runs the
same CE stream over freshly allocated arrays.  The full pipeline pays
for that repetition every time — frontier scans, policy evaluation,
transfer planning — even though it reaches the same decisions.  The
plan cache records those decisions once and replays them.

**Recording.**  A cold session (cache miss) runs the full pipeline
unchanged; a :class:`_PlanRecorder` rides along and, per CE, captures a
*normalized token* (kind, kernel, launch dims, accesses over
session-local buffer indices), the redundancy-filtered parent set (as
program-order positions), the placed node, and each parameter's
movement action (source node, or ``None`` when already up to date).
``Session.close`` commits the plan.  Recording aborts — silently, the
session just stays uncached — whenever a decision cannot be replayed
structurally: cross-session parents, cohort joins, or buffers that
arrive with history.

**Replay.**  A warm session (cache hit) gets a :class:`_PlanReplayer`;
the controller routes each CE through :meth:`_PlanReplayer.replay`
instead of the pipeline.  Every recorded decision is re-validated
against *live* state before anything mutates — token equality,
virgin-buffer binding, node liveness, per-array movement preconditions
— and on any mismatch the replayer deactivates and the CE (and the
rest of the program) falls back to the full pipeline, mid-program
included.  The DAG, Directory, fair-share gate, policy notifications,
coherence and dispatch stages all stay live during replay, so a
fallback resumes from a correct state and concurrent cold sessions see
the truth.

**Invalidation.**  Structural events — worker added, worker crash,
faults armed — bump the cache epoch and drop every plan; replayers
notice the stale epoch on their next CE and fall back.  An armed fault
plan also stops recording for the rest of the run.  The store is a
bounded LRU; everything is observable under the
``grout_plancache_*`` metrics.

The cache is a pure fast path: with the knob off nothing here is
constructed and the event schedule stays byte-identical to the golden
trace; with it on, replayed programs are decision-identical to what
the pipeline would have produced (placements, movement legs, coherence
transitions), which the plan-cache tests pin by trace diff.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.pipeline import Move
from repro.core.pipeline.base import SchedulingState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.arrays import ManagedArray
    from repro.core.ce import ComputationalElement
    from repro.core.controller import Controller
    from repro.core.session import Session

__all__ = ["PlanCache", "SchedulePlan", "PlanStep"]

#: Bounded LRU size: plans beyond this many distinct keys evict the
#: least recently used (counted under reason="evicted").
DEFAULT_CAPACITY = 128

#: Sentinel the movement stage records when a fresh replication's source
#: cannot be read back; never a valid node name, so it poisons the step
#: and aborts the recording.
UNKNOWN_SOURCE = ""


@dataclass(frozen=True, slots=True)
class PlanStep:
    """One CE's recorded scheduling decision."""

    #: Normalized identity of the CE (see :func:`_normalize`); replay
    #: requires exact equality against the incoming CE's token.
    token: tuple
    #: Direct ancestors, as 0-based positions in the session's program
    #: order (``session_seq - 1``).
    parents: tuple[int, ...]
    #: Node the placement stage chose.
    node: str
    #: Per ``ce.arrays`` entry: the replication's source node, or
    #: ``None`` when the array was already up to date on ``node``.
    moves: tuple[str | None, ...]


@dataclass(slots=True)
class SchedulePlan:
    """A whole program's recorded decisions, one step per CE."""

    steps: tuple[PlanStep, ...]
    #: Cache epoch the plan was recorded under; a bump strands it.
    epoch: int
    #: Rough retained-size estimate (the ``grout_plancache_bytes`` gauge).
    nbytes: int


def _normalize(ce: "ComputationalElement", index_of: dict,
               requested: str | None,
               new_buffer_ok: "Callable[[ManagedArray], bool] | None" = None
               ) -> tuple | None:
    """The CE's schedule-relevant identity over session-local buffer ids.

    ``index_of`` maps ``buffer_id`` to a dense per-session index (grown
    in first-appearance order), so two runs of the same program over
    different array instances normalize identically.  ``requested``
    pins pre-placement user assignment (directed prefetch).
    ``new_buffer_ok`` vets each first-seen buffer (the virgin check);
    returning ``False`` makes the whole token ``None``.
    """
    acc = []
    for access in ce.accesses:
        arr = access.buffer
        bid = arr.buffer_id
        idx = index_of.get(bid)
        if idx is None:
            if new_buffer_ok is not None and not new_buffer_ok(arr):
                return None
            idx = len(index_of)
            index_of[bid] = idx
        acc.append((idx, access.direction.name, access.pattern.name,
                    access.passes, arr.nbytes))
    kernel = ce.kernel
    config = ce.config
    return (
        ce.kind.value,
        requested,
        kernel.name if kernel is not None else None,
        (config.grid, config.block) if config is not None else None,
        tuple(acc),
    )


def _estimate_nbytes(steps: tuple[PlanStep, ...]) -> int:
    """Coarse retained-size estimate of one plan (gauge feed, not an
    allocator; constants approximate CPython tuple/str overheads)."""
    total = 0
    for step in steps:
        total += 120 + 16 * len(step.parents) + 56 * len(step.moves)
        total += 72 * len(step.token[-1])
    return total


class PlanCache:
    """Per-runtime store of recorded schedule plans, LRU-bounded.

    Owned by the controller when the ``plan_cache`` knob is on; sessions
    opened with a ``plan_key`` attach here (:meth:`attach`) and either
    replay a stored plan or record a new one.  Structural invalidation
    goes through :meth:`invalidate_all`; an armed fault plan goes through
    :meth:`disarm`.
    """

    def __init__(self, controller: "Controller",
                 capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.controller = controller
        self.capacity = capacity
        #: Topology/fault generation; bumped on every structural change.
        #: Plans and replayers from older epochs are dead on arrival.
        self.epoch = 0
        #: Whether cache misses record new plans (off once a fault plan
        #: is armed, see :meth:`disarm`).
        self.recording = True
        self._plans: "OrderedDict[str, SchedulePlan]" = OrderedDict()
        self._nbytes = 0
        registry = controller.metrics
        self._hits = registry.family(
            "grout_plancache_hits_total").labels()
        self._misses = registry.family(
            "grout_plancache_misses_total").labels()
        self._invalidations = registry.family(
            "grout_plancache_invalidations_total")
        self._bytes = registry.family("grout_plancache_bytes").labels()

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: str) -> bool:
        return key in self._plans

    @property
    def nbytes(self) -> int:
        """Estimated bytes retained by stored plans."""
        return self._nbytes

    # -- session attachment ------------------------------------------------------

    def attach(self, session: "Session") -> None:
        """Route one keyed session: replay on a hit, record on a miss."""
        key = session.plan_key
        plan = self._plans.get(key)
        if plan is not None and plan.epoch == self.epoch:
            self._plans.move_to_end(key)
            self._hits.inc()
            session._plan_replayer = _PlanReplayer(self, session, plan)
            return
        if plan is not None:  # pragma: no cover - epoch bumps clear
            self.discard(key)
        self._misses.inc()
        if self.recording:
            session._plan_recorder = _PlanRecorder(self, session)

    # -- store maintenance -------------------------------------------------------

    def count_invalidation(self, reason: str) -> None:
        """Count one invalidation/fallback under its reason label."""
        self._invalidations.labels(reason=reason).inc()

    def invalidate_all(self, reason: str) -> None:
        """Structural change: bump the epoch and drop every plan."""
        self.epoch += 1
        self._plans.clear()
        self._nbytes = 0
        self._bytes.set(0)
        self.count_invalidation(reason)

    def disarm(self, reason: str) -> None:
        """A fault plan was armed: drop every plan and record none for
        the rest of the run, so a chaos run always exercises the full
        pipeline."""
        self.invalidate_all(reason)
        self.recording = False

    def discard(self, key: str, reason: str | None = None) -> None:
        """Drop one plan (no-op when absent); optionally counted."""
        plan = self._plans.pop(key, None)
        if plan is not None:
            self._nbytes -= plan.nbytes
            self._bytes.set(self._nbytes)
            if reason is not None:
                self.count_invalidation(reason)

    def store(self, key: str, plan: SchedulePlan) -> None:
        """Insert (or refresh) one plan, evicting LRU past capacity."""
        self.discard(key)
        self._plans[key] = plan
        self._nbytes += plan.nbytes
        while len(self._plans) > self.capacity:
            _, evicted = self._plans.popitem(last=False)
            self._nbytes -= evicted.nbytes
            self.count_invalidation("evicted")
        self._bytes.set(self._nbytes)


class _PlanRecorder:
    """Rides along a cold session's full-pipeline run and builds its plan.

    The controller calls :meth:`begin` before and :meth:`record` after
    each CE's pipeline run; the movement stage feeds per-array actions
    through :meth:`note_move` in between.  Any unreplayable structure
    aborts the recording (the session simply stays uncached).
    ``Session._finalize`` commits.
    """

    def __init__(self, cache: PlanCache, session: "Session"):
        self.cache = cache
        self.session = session
        self.key = session.plan_key
        self._epoch = cache.epoch
        self._index_of: dict[int, int] = {}
        self._steps: list[PlanStep] = []
        self._moves: list[str | None] = []
        self._token: tuple | None = None

    def begin(self, ce: "ComputationalElement") -> None:
        """Normalize the CE before the pipeline mutates it."""
        controller = self.cache.controller
        directory = controller.directory
        dag = controller.dag

        def fresh_ok(arr: "ManagedArray") -> bool:
            # First appearance must be a fresh allocation: replay binds
            # buffers by program position and assumes no prior history.
            return (directory.is_virgin(arr)
                    and dag.buffer_untouched(arr.buffer_id))

        token = _normalize(ce, self._index_of, ce.assigned_node, fresh_ok)
        if token is None:
            self._abort()
            return
        self._token = token

    def note_move(self, src: str | None) -> None:
        """Movement-stage hook: one array's action, declaration order."""
        self._moves.append(src)

    def record(self, ce: "ComputationalElement",
               state: SchedulingState) -> None:
        """Capture one CE's decisions after its pipeline run."""
        moves, self._moves = self._moves, []
        token, self._token = self._token, None
        session = self.session
        parents = []
        for parent in state.ancestors:
            seq = parent.session_seq
            if (parent.ce_id < 0 or seq is None
                    or parent.session != session.name):
                # Cohort joins and cross-session ancestors have no
                # stable program-order identity to replay against.
                self._abort()
                return
            parents.append(seq - 1)
        if (token is None or state.node is None
                or len(moves) != len(ce.arrays)
                or UNKNOWN_SOURCE in moves):
            self._abort()
            return
        self._steps.append(PlanStep(token, tuple(parents),
                                    state.node, tuple(moves)))

    def _abort(self) -> None:
        self.session._plan_recorder = None
        self._steps.clear()

    def commit(self) -> None:
        """Store the finished plan (session close hook)."""
        cache = self.cache
        if not self._steps or self._epoch != cache.epoch:
            return
        steps = tuple(self._steps)
        cache.store(self.key, SchedulePlan(steps, cache.epoch,
                                           _estimate_nbytes(steps)))


class _PlanReplayer:
    """Replays a recorded plan CE-by-CE, guard-first.

    Per CE, every recorded decision is validated against live state
    before anything is mutated; the first mismatch deactivates the
    replayer (``replay`` returns ``None``) and the controller falls
    back to the full pipeline for the rest of the program.  The apply
    phase reproduces exactly what admission, placement and data
    movement would have done, then runs the *live* coherence and
    dispatch stages, so directory transitions, replica drops, worker
    submission and all bookkeeping stay authoritative.
    """

    def __init__(self, cache: PlanCache, session: "Session",
                 plan: SchedulePlan):
        self.cache = cache
        self.session = session
        self.plan = plan
        self.key = session.plan_key
        self.epoch = plan.epoch
        self.pos = 0
        self._index_of: dict[int, int] = {}
        controller = cache.controller
        self._controller = controller
        self._gate = controller.fair_share_gate
        self._mover = controller.pipeline.stage("data-movement")
        self._coherence = controller.pipeline.stage("coherence")
        self._dispatch = controller.pipeline.stage("dispatch")

    def _fallback(self, reason: str, *, divergence: bool = False):
        """Deactivate; divergences also evict the (wrong-for-this-
        program) plan so the next session re-records."""
        self.session._plan_replayer = None
        if divergence:
            self.cache.discard(self.key)
        self.cache.count_invalidation(reason)
        return None

    def finish(self) -> None:
        """Session-close hook (still-attached replayers only): an
        under-consumed plan means the key maps to programs of
        different lengths — evict it."""
        if self.pos != len(self.plan.steps):
            self.cache.discard(self.key)
            self.cache.count_invalidation("divergence")

    def replay(self, ce: "ComputationalElement"
               ) -> SchedulingState | None:
        """Schedule one CE from the plan; ``None`` means fall back."""
        cache = self.cache
        controller = self._controller
        if cache.epoch != self.epoch:
            return self._fallback("stale-epoch")
        steps = self.plan.steps
        pos = self.pos
        if pos >= len(steps):
            return self._fallback("divergence", divergence=True)
        step = steps[pos]
        directory = controller.directory
        dag = controller.dag

        shared = False

        def fresh_ok(arr: "ManagedArray") -> bool:
            nonlocal shared
            if (directory.is_virgin(arr)
                    and dag.buffer_untouched(arr.buffer_id)):
                return True
            shared = True
            return False

        token = _normalize(ce, self._index_of, ce.assigned_node,
                           fresh_ok)
        if token is None:
            # The plan itself may be fine for private reruns; only this
            # session's arrays carry history.
            return self._fallback("shared-buffer")
        if token != step.token:
            return self._fallback("divergence", divergence=True)
        node = step.node
        home = controller.cluster.controller.name
        if node != home and node not in controller.workers:
            return self._fallback("stale-node")
        ces = self.session._ces
        parents = []
        for idx in step.parents:
            if idx >= len(ces):  # pragma: no cover - token order pins this
                return self._fallback("divergence", divergence=True)
            parents.append(ces[idx])
        arrays = ce.arrays
        moves = step.moves
        if len(moves) != len(arrays):
            return self._fallback("divergence", divergence=True)
        for array, src in zip(arrays, moves):
            holders = directory.state(array).up_to_date
            if src is None:
                if node not in holders:
                    return self._fallback("divergence", divergence=True)
            elif (node in holders or src not in holders
                    or (src != home and src not in controller.workers)):
                return self._fallback("divergence", divergence=True)

        # -- every guard passed; apply the recorded decisions ----------------
        # Admission (recorded parents replace the frontier scan).
        session = self.session
        state = SchedulingState(ce=ce, session=session)
        state.started = time.perf_counter()
        session.tag(ce)
        state.ancestors = dag.add_with_parents(ce, parents)
        waits = state.waits
        for ancestor in state.ancestors:
            done = ancestor.done
            if done is not None and not done.processed:
                waits.append(done)
        self._gate.admit(ce, state)
        # Placement (recorded node; decision cost measured like Fig. 9).
        state.decision_seconds = time.perf_counter() - state.started
        controller.stats.observe_decision(state.decision_seconds)
        if controller.profiler is not None:
            controller.profiler.record_sched(
                ce, state.decision_seconds, node=node)
        ce.assigned_node = node
        state.node = node
        # Data movement (recorded sources; same events ensure_on_node
        # would have issued — the guards above pinned its branch).
        stats = controller.stats
        mover = self._mover
        for array, src in zip(arrays, moves):
            if src is None:
                ev = directory.replication_event(array, node)
            else:
                last = directory.state(array).last_writer
                producer = last.done if last is not None else None
                if src != home:
                    stats.count_p2p()
                ev = Move(mover, array, src, node, producer, ce)
                directory.record_replication(
                    array, node, ev, src=src,
                    producer_id=last.ce_id if producer is not None
                    else None)
                stats.count_transfer(array.nbytes)
            if ev is not None:
                waits.append(ev)
        # Coherence + dispatch stay fully live.
        state = self._coherence.process(ce, state)
        state = self._dispatch.process(ce, state)
        self.pos = pos + 1
        return state
