"""The GrOUT Controller — Algorithm 1 as a staged scheduling pipeline.

For every incoming CE the controller threads one
:class:`~repro.core.pipeline.SchedulingState` through five explicit
stages (:mod:`repro.core.pipeline`):

1. **admission** — Global-DAG insert, frontier waits, and (with
   multi-program sessions) the fair-share gate;
2. **placement** — the selected inter-node policy picks a node;
3. **data movement** — the replications that make every parameter
   up-to-date there: controller→worker sends when the data only lives
   here, worker↔worker P2P otherwise;
4. **coherence** — directory read/write transitions, replica drops;
5. **dispatch** — the CE is forwarded to the worker, whose intra-node
   scheduler (Algorithm 2) picks the GPU stream.

Scheduling decisions are timed with ``perf_counter`` — the per-CE overhead
Fig. 9 reports — and the decision itself costs nothing in simulated time
(the paper finds these microseconds "do not significantly impact the
overall execution time since they can be interleaved").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.cluster import Cluster
from repro.obs import CeProfiler, MetricsRegistry, RunningAggregate
from repro.obs import install as install_metrics
from repro.sim import Event, SimError
from repro.core.arrays import Directory
from repro.core.ce import ComputationalElement
from repro.core.dag import DependencyDag
from repro.core.intranode import IntraNodeScheduler, _ce_completed
from repro.core.pipeline import (AdmissionStage, CoherenceStage,
                                 DataMovementStage, DispatchStage,
                                 FairShareGate, HOST_MEM_BANDWIDTH,
                                 NODE_CRASH, PlacementStage,
                                 SchedulingPipeline, SchedulingState)
from repro.core.planner import TransferPlanner
from repro.core.policies import Policy, SchedulingContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import RuntimeConfig
    from repro.core.session import Session

__all__ = ["Controller", "ControllerStats", "RecoveryReport",
           "RunningAggregate", "HOST_MEM_BANDWIDTH", "NODE_CRASH"]

#: CEs scheduled between two sweeps of the Global DAG's finished nodes.
PRUNE_EVERY = 256


class ControllerStats:
    """The single owner of the controller's metric handles.

    Historically a plain dataclass of counters (and, for a while, a shim
    that duplicated every registry handle the controller also built for
    itself).  The tallies live in the cluster's
    :class:`~repro.obs.registry.MetricsRegistry` (names in
    ``docs/OBSERVABILITY.md``); this object is now the one place they
    are resolved — the pipeline stages increment through the ``count_*``
    / ``observe_decision`` methods, and the old read surface —
    ``stats.ces_scheduled``, ``stats.decision_seconds.mean``, ... —
    keeps working unchanged for tests, reports and downstream users.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        if registry is None:
            registry = install_metrics(MetricsRegistry())
        self.registry = registry
        self._ces = registry.family("grout_ces_scheduled_total")
        self._transfers = registry.family(
            "grout_transfers_issued_total").labels()
        self._p2p = registry.family("grout_p2p_transfers_total").labels()
        self._bytes = registry.family(
            "grout_bytes_requested_total").labels()
        self._crashes = registry.family(
            "grout_worker_crashes_total").labels()
        self._reexecuted = registry.family(
            "grout_ces_reexecuted_total").labels()
        self._rerouted = registry.family(
            "grout_transfers_rerouted_total").labels()
        self._rolled_back = registry.family(
            "grout_arrays_rolled_back_total").labels()
        #: Bounded histogram of per-CE decision wall-clock costs (Fig. 9)
        #: — API-compatible with the RunningAggregate it replaced.
        self.decision_seconds = registry.family(
            "grout_decision_seconds").labels()
        # Per-kind bound counters, cached on first use (``labels()`` per
        # admitted CE is measurable at million-CE scale).
        self._ces_by_kind: dict[str, object] = {}

    # -- write surface (the pipeline stages increment through these) -----------

    def observe_decision(self, seconds: float) -> None:
        """Record one scheduling decision's wall-clock cost."""
        self.decision_seconds.append(seconds)

    def count_ce(self, kind: str) -> None:
        """Count one admitted CE, by kind."""
        handle = self._ces_by_kind.get(kind)
        if handle is None:
            handle = self._ces_by_kind[kind] = self._ces.labels(kind=kind)
        handle.inc()

    def count_transfer(self, nbytes: int) -> None:
        """Count one issued replication and the bytes it requested."""
        self._transfers.inc()
        self._bytes.inc(nbytes)

    def count_p2p(self) -> None:
        """Count one replication sourced worker-to-worker."""
        self._p2p.inc()

    def count_crash(self) -> None:
        """Count one recovered worker crash."""
        self._crashes.inc()

    def count_reexecuted(self, n: int = 1) -> None:
        """Count CEs re-run on survivors after a crash."""
        self._reexecuted.inc(n)

    def count_rerouted(self) -> None:
        """Count one in-flight move re-sourced after a failure."""
        self._rerouted.inc()

    def count_rolled_back(self, n: int = 1) -> None:
        """Count sole-copy arrays rolled back to the controller."""
        self._rolled_back.inc(n)

    # -- read surface -----------------------------------------------------------

    @property
    def ces_scheduled(self) -> int:
        """CEs admitted by Algorithm 1 (every kind)."""
        return int(self._ces.value_sum())

    @property
    def transfers_issued(self) -> int:
        """Inter-node replications issued by the data-movement phase."""
        return int(self._transfers.value)

    @property
    def p2p_transfers(self) -> int:
        """Replications sourced worker-to-worker."""
        return int(self._p2p.value)

    @property
    def bytes_requested(self) -> int:
        """Bytes the data-movement phase asked the fabric to move."""
        return int(self._bytes.value)

    @property
    def worker_crashes(self) -> int:
        """Worker crashes recovered from."""
        return int(self._crashes.value)

    @property
    def ces_reexecuted(self) -> int:
        """CEs re-run on survivors after crashes."""
        return int(self._reexecuted.value)

    @property
    def transfers_rerouted(self) -> int:
        """In-flight moves re-sourced after a crash or failure."""
        return int(self._rerouted.value)

    @property
    def arrays_rolled_back(self) -> int:
        """Sole-copy arrays rolled back to the controller."""
        return int(self._rolled_back.value)

    @property
    def mean_decision_seconds(self) -> float:
        """Average wall-clock cost of one scheduling decision (exact)."""
        return self.decision_seconds.mean

    def __repr__(self) -> str:
        return (f"<ControllerStats ces={self.ces_scheduled} "
                f"transfers={self.transfers_issued}>")


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What one worker-crash recovery did."""

    node: str
    ces_reexecuted: int
    ops_aborted: int
    moves_cancelled: int
    moves_rerouted: int
    arrays_rolled_back: int
    replacement: str | None = None


class Controller:
    """Node-level scheduler and coherence authority of a GrOUT cluster."""

    def __init__(self, cluster: Cluster, policy: Policy,
                 config: "RuntimeConfig"):
        """Schedule onto ``cluster`` with ``policy``, as ``config``'s
        runtime knobs (:data:`~repro.core.config.RUNTIME_KNOBS`) say;
        the config refused every unsupported combination when built."""
        self.cluster = cluster
        self.engine = cluster.engine
        self.policy = policy
        self.directory = Directory(home=cluster.controller.name)
        self.metrics: MetricsRegistry = install_metrics(
            getattr(cluster, "metrics", None) or MetricsRegistry())
        self.profiler: CeProfiler | None = getattr(
            cluster, "profiler", None)
        #: Shard coordinator (conservative-window parallel simulation);
        #: ``None`` in the default single-process mode, which keeps the
        #: event schedule byte-identical to the golden trace.
        self.coordinator = None
        if config.shards is not None:
            from repro.core import shard as shard_mod
            window = config.shard_window
            self.coordinator = shard_mod.ShardCoordinator(
                self, config.shards,
                window=shard_mod.DEFAULT_WINDOW if window is None
                else window)
            self.workers = self.coordinator.proxies()
        else:
            self.workers: dict[str, IntraNodeScheduler] = {
                w.name: IntraNodeScheduler(
                    w, metrics=self.metrics, profiler=self.profiler)
                for w in cluster.workers
            }
        self.dag = DependencyDag()
        self.stats = ControllerStats(self.metrics)
        #: Collective data movement (broadcast relays); a no-op unless
        #: ``collectives`` is on, so the default schedule is untouched.
        self.planner = TransferPlanner(self, enabled=config.collectives,
                                       chunk_bytes=config.chunk_bytes)
        self.context = SchedulingContext(
            workers=[w.name for w in cluster.workers],
            directory=self.directory,
            topology=cluster.topology,
            controller=cluster.controller.name,
        )
        #: Cross-program fairness for multi-session runs; inert with a
        #: single (or no) session.
        self.fair_share_gate = FairShareGate(window=config.fair_share_window,
                                             metrics=self.metrics)
        #: Algorithm 1 as explicit, individually swappable stages.
        self.pipeline = SchedulingPipeline([
            AdmissionStage(self, self.fair_share_gate),
            PlacementStage(self),
            DataMovementStage(self),
            CoherenceStage(self),
            DispatchStage(self, self.fair_share_gate),
        ])
        #: Memoized scheduling decisions for repeated keyed programs
        #: (:mod:`repro.core.plancache`); ``None`` with the knob off, in
        #: which case every path below stays byte-identical to the
        #: golden trace.
        self.plan_cache = None
        if config.plan_cache:
            from repro.core.plancache import PlanCache
            self.plan_cache = PlanCache(self)
        self._pending: list[Event] = []
        self._scheduled = 0           # prune cadence, cheap local count
        self._prune_seen_events = -1  # engine progress at the last prune
        self._closed = False

    def add_worker(self) -> str:
        """Attach a freshly provisioned worker (autoscaling, §V-F).

        Already-scheduled CEs keep their placement; the policies see the
        new node from the next decision on (and are notified through
        :meth:`~repro.core.policies.Policy.notify_topology_changed`).
        """
        if self.coordinator is not None:
            raise SimError("autoscaling is not supported in shard mode "
                           "(the worker partition is fixed at start)")
        node = self.cluster.add_worker()
        self.workers[node.name] = IntraNodeScheduler(
            node, metrics=self.metrics, profiler=self.profiler)
        self.context.workers = [w.name for w in self.cluster.workers]
        self.policy.notify_topology_changed(self.context,
                                            added=[node.name])
        if self.plan_cache is not None:
            self.plan_cache.invalidate_all("topology")
        return node.name

    # -- public entry point ------------------------------------------------------

    def schedule(self, ce: ComputationalElement, *,
                 session: "Session | None" = None) -> Event:
        """Run Algorithm 1 on one CE; returns (and attaches) its done event.

        ``session`` tags the CE with the submitting program's
        multi-program :class:`~repro.core.session.Session`; ``None``
        keeps the legacy single-program path (schedule-identical to the
        pre-session build).
        """
        if self._closed:
            raise SimError("controller is shut down; no further CEs")
        if session is not None and session._plan_replayer is not None:
            # Cache hit: replay the recorded decisions; a failed guard
            # deactivates the replayer and this (and every later) CE
            # takes the full pipeline below.
            state = session._plan_replayer.replay(ce)
            if state is None:
                state = self.pipeline.run(ce, session=session)
        else:
            recorder = session._plan_recorder \
                if session is not None else None
            if recorder is not None:
                recorder.begin(ce)
                state = self.pipeline.run(ce, session=session)
                if session._plan_recorder is recorder:
                    recorder.record(ce, state)
            else:
                state = self.pipeline.run(ce, session=session)
        self._scheduled += 1
        if self._scheduled % PRUNE_EVERY == 0:
            # A CE only becomes prunable when its done event is delivered,
            # which happens exclusively inside the engine's step loop — if
            # no event was processed since the last prune (the eager
            # build-up phase, where the engine never runs), every sweep
            # below is a guaranteed no-op over an ever-growing DAG.
            # Deferring GC is schedule-neutral: prune never alters edges
            # among live nodes.
            processed = self.engine.events_processed
            if processed != self._prune_seen_events:
                self._prune_seen_events = processed
                self.dag.prune_completed(_ce_completed)
                self._pending = [e for e in self._pending
                                 if not e.processed]
                self.directory.prune_readers()
        assert state.done is not None
        if self.coordinator is not None:
            # Backpressure: an eager build loop never runs the engine on
            # its own, so past the in-flight cap the coordinator pumps
            # exchange windows here — draining completions, letting the
            # periodic prune above actually collect, and bounding the
            # live CE graph at million-CE scale.
            self.coordinator.maybe_pump()
        return state.done

    # -- failure recovery --------------------------------------------------------

    def handle_worker_crash(self, name: str, *,
                            request_replacement: bool = False
                            ) -> RecoveryReport:
        """Recover from a worker dying mid-run.

        Algorithm: (1) abort the node's in-flight stream ops so they can
        never complete; (2) repair the Directory — the dead node leaves
        every ``up_to_date`` set, sole-copy arrays roll back to the
        controller, replications into the node are cancelled and
        replications out of it re-sourced; (3) shrink the scheduling
        context so every policy stops considering the node; (4) re-run
        Algorithm 1 for the node's unfinished CEs on survivors, forwarding
        each re-execution's completion to the original ``done`` event so
        downstream waiters (and the user program) never notice.
        """
        if self.coordinator is not None:
            raise SimError("crash recovery is not supported in shard "
                           "mode (fault injection is guarded off)")
        scheduler = self.workers.pop(name, None)
        if scheduler is None:
            raise KeyError(f"no live worker named {name!r}")
        started = self.engine.now
        ops_aborted = scheduler.abort_inflight((NODE_CRASH, name))
        unfinished = sorted(
            (ce for ce in self.dag.nodes()
             if ce.assigned_node == name
             and ce.done is not None and not ce.done.triggered),
            key=lambda ce: ce.ce_id)

        # In-flight replications are Moves (relay legs included): an
        # interrupt detaches one at once and hands it the cause a hop
        # later.  A move *into* the dead node is cancelled and fails; a
        # move *out of* it gets a NODE_CRASH cause and re-sources.
        repair = self.directory.drop_node(name)
        for ev in repair.cancelled:
            ev.cancel(("move-cancelled", name))
        for ev in repair.rerouted:
            if not ev.triggered:
                ev.interrupt((NODE_CRASH, name))

        self.context.workers = [w for w in self.context.workers
                                if w != name]
        self.cluster.remove_worker(name)
        self.policy.notify_topology_changed(self.context, removed=[name])
        if self.plan_cache is not None:
            self.plan_cache.invalidate_all("crash")
        replacement = self.add_worker() if request_replacement else None
        if not self.context.workers:
            raise SimError(
                f"worker {name!r} crashed and no workers survive; "
                "recovery needs at least one node (or a replacement)")

        for ce in unfinished:
            self._reexecute(ce)

        self.stats.count_crash()
        self.stats.count_reexecuted(len(unfinished))
        self.stats.count_rolled_back(repair.rolled_back)
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.record(name, "fault", f"recover:{name}",
                          started, self.engine.now,
                          ces_reexecuted=len(unfinished),
                          rolled_back=repair.rolled_back)
        return RecoveryReport(
            node=name,
            ces_reexecuted=len(unfinished),
            ops_aborted=ops_aborted,
            moves_cancelled=len(repair.cancelled),
            moves_rerouted=len(repair.rerouted),
            arrays_rolled_back=repair.rolled_back,
            replacement=replacement,
        )

    def _reexecute(self, ce: ComputationalElement) -> None:
        """Re-run Algorithm 1 for one orphaned CE on a surviving node.

        The CE keeps its identity (DAG membership, ``done`` event): the
        re-execution's completion is forwarded to the original event, so
        ancestors-of-others wiring stays intact.  The executor cannot
        have run for an unfinished CE — kernels execute atomically at
        completion time — so re-execution is numerically safe.  Data
        movement goes through the same staged mover as first executions
        (:meth:`DataMovementStage.ensure_on_node` with ``reexec_of``),
        and the directory transitions through the same coherence stage.
        """
        old_done = ce.done
        node_name = self.policy.assign(ce, self.context)
        ce.assigned_node = node_name
        mover: DataMovementStage = self.pipeline.stage("data-movement")

        waits: list[Event] = [
            p.done for p in self.dag.parents(ce)
            if p.done is not None and not p.done.processed
        ]
        for array in ce.arrays:
            ev = mover.ensure_on_node(array, node_name, reexec_of=ce,
                                      for_ce=ce)
            if ev is not None:
                # A pre-crash move into this node may itself be waiting
                # on *this* CE (its producer); waiting on it back would
                # cycle.  The DAG parent waits already order the data.
                state = self.directory.state(array)
                pid = state.inflight_producer.get(node_name)
                if pid is None or pid < ce.ce_id:
                    waits.append(ev)
        self.pipeline.stage("coherence").process(
            ce, SchedulingState(ce=ce, node=node_name))

        latency = self.cluster.topology.latency(
            self.cluster.controller.name, node_name)
        if latency > 0:
            waits.append(self.engine.timeout(
                latency, name=f"ctl->{node_name}"))
        new_done = self.workers[node_name].submit(ce, waits,
                                                  fresh_stream=True)
        if old_done is not None and not old_done.triggered:
            def forward(ev: Event, old: Event = old_done) -> None:
                if not old.triggered:
                    old.succeed(ev.value)
            new_done.callbacks.append(forward)
        # The re-assignment charged the survivor; credit it on the same
        # (forwarded) done event the original schedule used.
        self.policy.notify_scheduled(ce)

    # -- draining ------------------------------------------------------------------

    def pending_events(self) -> list[Event]:
        """Completion events of CEs still in flight."""
        self._pending = [e for e in self._pending if not e.processed]
        return list(self._pending)

    def run_until(self, event: Event) -> None:
        """Advance simulation until ``event`` fires.

        The one entry point the runtime and sessions block through: in
        the default mode it is exactly ``engine.run(until=event)``; in
        shard mode it drives conservative exchange windows until the
        event resolves, so cross-process completions keep flowing while
        the controller waits.
        """
        if self.coordinator is not None:
            self.coordinator.run_until(event)
        else:
            self.engine.run(until=event)

    def run_for(self, horizon: float) -> None:
        """Advance simulation until simulated time reaches ``horizon``."""
        if self.coordinator is not None:
            self.coordinator.run_for(horizon)
        else:
            self.engine.run(until=horizon)

    def shutdown(self) -> None:
        """Release resources and refuse further scheduling; idempotent.

        Shuts the shard coordinator's worker processes down (when
        present), clears the pending list and the Global DAG, and cuts
        the back-references this controller's parts hold to it: the
        pipeline stages, the transfer planner, the plan cache and the
        shard coordinator.  Those are the only cycles through the
        controller (in-flight ``Move`` chains that the directory
        keeps reach it through their stage), so once they are cut a
        dropped runtime is freed by reference counting.  Read surfaces
        (stats, directory, workers) stay intact for post-run reporting.
        """
        if self._closed:
            return
        self._closed = True
        if self.coordinator is not None:
            self.coordinator.shutdown()
        self._pending.clear()
        self.dag = DependencyDag()
        for part in (*self.pipeline.stages, self.planner, self.plan_cache,
                     self.coordinator):
            if part is not None:
                part.controller = None
