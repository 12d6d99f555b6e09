"""The canonical metric catalogue — every name the registry can emit.

One :class:`~repro.obs.registry.MetricSpec` per metric, grouped by the
layer that publishes it.  ``install(registry)`` declares the whole
catalogue up front so exporters list every metric (with HELP/TYPE
metadata) even before the first sample lands, and so a test can diff
``docs/OBSERVABILITY.md`` against this module — the docs and the code
cannot drift apart silently.

Adding a metric means adding a spec here *and* a row to the table in
``docs/OBSERVABILITY.md``; ``tests/test_docs_check.py`` enforces the
pairing.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry, MetricSpec

#: Controller (Algorithm 1) — admission, placement, coherence traffic.
CONTROLLER_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("grout_ces_scheduled_total", "counter",
               "CEs admitted by the controller, by CE kind.",
               labels=("kind",)),
    MetricSpec("grout_transfers_issued_total", "counter",
               "Inter-node replications issued by the data-movement "
               "phase."),
    MetricSpec("grout_p2p_transfers_total", "counter",
               "Replications sourced worker-to-worker instead of from "
               "the controller."),
    MetricSpec("grout_bytes_requested_total", "counter",
               "Bytes the data-movement phase asked the fabric to move.",
               unit="bytes"),
    MetricSpec("grout_decision_seconds", "histogram",
               "Wall-clock cost of one scheduling decision (Fig. 9).",
               unit="seconds"),
    MetricSpec("grout_worker_crashes_total", "counter",
               "Worker crashes the controller recovered from."),
    MetricSpec("grout_ces_reexecuted_total", "counter",
               "CEs re-run on survivors after a worker crash."),
    MetricSpec("grout_transfers_rerouted_total", "counter",
               "In-flight moves re-sourced after a crash or transfer "
               "failure."),
    MetricSpec("grout_arrays_rolled_back_total", "counter",
               "Sole-copy arrays rolled back to the controller during "
               "crash recovery."),
)

#: Collective data movement (repro.core.planner) — broadcast relays.
COLLECTIVE_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("grout_collective_broadcasts_total", "counter",
               "Relay plans launched by the transfer planner (one per "
               "coalesced multi-destination replication window)."),
    MetricSpec("grout_collective_destinations_total", "counter",
               "Destinations served through relay chains instead of "
               "serial controller sends."),
    MetricSpec("grout_collective_resourced_total", "counter",
               "Relay legs that switched to a surviving source after a "
               "crash or exhausted chunk retries."),
)

#: Fabric — the contended interconnect.
FABRIC_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("grout_fabric_bytes_total", "counter",
               "Bytes successfully moved per directed link.",
               unit="bytes", labels=("src", "dst")),
    MetricSpec("grout_fabric_transfers_total", "counter",
               "Completed transfers per directed link.",
               labels=("src", "dst")),
    MetricSpec("grout_fabric_wire_seconds_total", "counter",
               "Wire-occupancy seconds per directed link (excludes NIC "
               "queueing).", unit="seconds", labels=("src", "dst")),
    MetricSpec("grout_fabric_retries_total", "counter",
               "Transfer attempts that failed and were retried."),
    MetricSpec("grout_fabric_timeouts_total", "counter",
               "Transfer attempts killed by the per-attempt watchdog."),
    MetricSpec("grout_fabric_failures_total", "counter",
               "Transfers that exhausted every retry and gave up."),
    MetricSpec("grout_chunks_total", "counter",
               "Pipelined chunks successfully moved per directed link.",
               labels=("src", "dst")),
    MetricSpec("grout_chunks_retried_total", "counter",
               "Chunk attempts that failed and were re-sent "
               "individually (the whole-array re-send they avoided)."),
)

#: Intra-node scheduler (Algorithm 2) and the GPU streams under it.
INTRANODE_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("grout_kernel_launches_total", "counter",
               "Kernel CEs placed on a stream, per node and GPU.",
               labels=("node", "gpu")),
    MetricSpec("grout_prefetches_total", "counter",
               "Prefetch CEs placed on a stream, per node and GPU.",
               labels=("node", "gpu")),
    MetricSpec("grout_kernel_seconds", "histogram",
               "Simulated duration of executed kernel bodies, per node.",
               unit="seconds", labels=("node",)),
    MetricSpec("grout_gpu_pending_bytes", "gauge",
               "Touched bytes of kernels submitted but not yet complete "
               "(the load-balancing signal), per GPU.",
               unit="bytes", labels=("node", "gpu")),
    MetricSpec("grout_streams_open", "gauge",
               "Streams created on a GPU so far.",
               labels=("node", "gpu")),
    MetricSpec("grout_node_oversubscription", "gauge",
               "Node-level OSF (managed bytes / GPU memory) observed at "
               "the latest kernel submission.", labels=("node",)),
)

#: UVM paging (repro.uvm) — fault traffic priced by the active backend.
#: The ``backend`` label keys every sample by paging design
#: (``cpu-pme``, ``gpuvm``, ...), so backend comparisons fall out of the
#: same scrape.
UVM_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("grout_uvm_cold_bytes_total", "counter",
               "First-touch bytes migrated H2D by kernel launches, per "
               "node and paging backend.",
               unit="bytes", labels=("node", "backend")),
    MetricSpec("grout_uvm_refault_bytes_total", "counter",
               "Bytes re-migrated after eviction (the thrashing "
               "traffic), per node and paging backend.",
               unit="bytes", labels=("node", "backend")),
    MetricSpec("grout_uvm_writeback_bytes_total", "counter",
               "Dirty bytes written back D2H during kernel-driven "
               "eviction, per node and paging backend.",
               unit="bytes", labels=("node", "backend")),
    MetricSpec("grout_uvm_thrashing_launches_total", "counter",
               "Kernel launches priced on the thrashing path (working "
               "set exceeded device memory), per node and paging "
               "backend.", labels=("node", "backend")),
    MetricSpec("grout_uvm_memo_hits_total", "counter",
               "Kernel launches the pricing memo served from a recorded "
               "transition instead of the live pricer, per node and "
               "paging backend.", labels=("node", "backend")),
)

#: Per-CE profiling (repro.obs.ceprofile) — cross-layer attribution.
PROFILER_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("grout_ce_phase_seconds_total", "counter",
               "Per-CE time attributed to one pipeline phase (sched is "
               "wall-clock; transfer/stall/compute are simulated).",
               unit="seconds", labels=("phase", "node")),
)

#: Fault injection.
FAULT_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("grout_faults_injected_total", "counter",
               "Faults the injector delivered to a handler, by kind.",
               labels=("kind",)),
)

#: Multi-program sessions (repro.core.session) — per-program accounting.
SESSION_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("grout_session_ces_scheduled_total", "counter",
               "CEs admitted on behalf of one session.",
               labels=("session",)),
    MetricSpec("grout_session_sync_seconds_total", "counter",
               "Simulated seconds one session spent inside sync().",
               unit="seconds", labels=("session",)),
    MetricSpec("grout_session_throttled_total", "counter",
               "CEs the fair-share admission gate deferred behind the "
               "session's own oldest outstanding completion.",
               labels=("session",)),
    # Lifecycle finalization metrics are deliberately label-less:
    # under churn (hundreds of arriving/departing sessions) a
    # per-session label would grow the registry without bound.
    MetricSpec("grout_sessions_closed_total", "counter",
               "Sessions that completed their open/run/close "
               "lifecycle on this runtime."),
    MetricSpec("grout_session_lifetime_seconds", "histogram",
               "Simulated open-to-close lifetime of finished sessions.",
               unit="seconds"),
)

#: Schedule plan cache (repro.core.plancache) — memoized decisions.
PLANCACHE_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("grout_plancache_hits_total", "counter",
               "Keyed sessions that attached to a stored schedule plan "
               "and started in replay mode."),
    MetricSpec("grout_plancache_misses_total", "counter",
               "Keyed sessions with no (current-epoch) stored plan; "
               "they run the full pipeline and record."),
    MetricSpec("grout_plancache_invalidations_total", "counter",
               "Plans dropped or replays abandoned, by reason "
               "(topology, crash, faults, evicted, divergence, "
               "shared-buffer, stale-epoch, stale-node).",
               labels=("reason",)),
    MetricSpec("grout_plancache_bytes", "gauge",
               "Estimated bytes retained by stored schedule plans.",
               unit="bytes"),
)

#: The `grout serve` daemon (repro.serve) — request accounting.
SERVE_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("grout_serve_sessions_accepted_total", "counter",
               "Workload submissions admitted by the serve layer, per "
               "tenant.", labels=("tenant",)),
    MetricSpec("grout_serve_sessions_rejected_total", "counter",
               "Workload submissions refused by the serve layer, per "
               "tenant and reason (quota, bad-spec, shutting-down).",
               labels=("tenant", "reason")),
    MetricSpec("grout_serve_sessions_inflight", "gauge",
               "Sessions currently open on the served runtime."),
    MetricSpec("grout_serve_request_latency_seconds", "histogram",
               "Simulated submit-to-completion latency of served "
               "workloads.", unit="seconds"),
)

#: Sharded simulation (repro.core.shard) — conservative-window exchange.
SHARD_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("grout_shard_rounds_total", "counter",
               "Conservative exchange windows driven by the shard "
               "coordinator."),
    MetricSpec("grout_shard_ops_shipped_total", "counter",
               "CEs shipped to a shard process after their "
               "controller-side waits resolved.", labels=("shard",)),
    MetricSpec("grout_shard_completions_total", "counter",
               "CE completions reported back by a shard process.",
               labels=("shard",)),
    MetricSpec("grout_shard_invalidates_total", "counter",
               "Coherence invalidations forwarded to shard processes at "
               "window barriers."),
    MetricSpec("grout_shard_outstanding", "gauge",
               "In-flight CEs (shipped or waiting) tracked by the shard "
               "coordinator at the latest barrier."),
    MetricSpec("grout_shard_horizon_seconds", "gauge",
               "Simulated time of the latest exchange barrier.",
               unit="seconds"),
)

#: Every metric any instrumented layer can emit, sorted by name.
CATALOG: tuple[MetricSpec, ...] = tuple(sorted(
    CONTROLLER_METRICS + COLLECTIVE_METRICS + FABRIC_METRICS
    + INTRANODE_METRICS + UVM_METRICS + PROFILER_METRICS + FAULT_METRICS
    + SESSION_METRICS + PLANCACHE_METRICS + SERVE_METRICS
    + SHARD_METRICS,
    key=lambda spec: spec.name))


def install(registry: MetricsRegistry) -> MetricsRegistry:
    """Declare the full catalogue on ``registry`` (idempotent)."""
    registry.register_many(CATALOG)
    return registry
