"""Scheduling-scale benchmark: synthetic DAGs at 10k–1M CEs.

GrOUT's pitch (and GrCUDA's before it) is that scheduling overhead stays
negligible as workloads scale out — Fig. 9 reports microseconds per
decision.  This module measures the *whole* reproduction stack at scale:
how fast the controller pipeline, the dependency DAG, the intra-node
schedulers and the event engine chew through synthetic workloads of
10k–1M computational elements, in host wall-clock.

Three DAG shapes cover the regimes long-horizon runtimes meet:

``wide``
    Epochs of fan-out: one host write of a shared input followed by a
    wide wave of reader kernels — stresses per-buffer reader sets and
    the WAR frontier scan.
``deep``
    A single read-modify-write chain — stresses ancestor-mask
    maintenance, prune cadence and the P2P data-movement path.
``iterative``
    A CG-shaped loop over a fixed buffer set with periodic host reads —
    the long-horizon session profile (bounded live DAG, millions of
    events).

Each run becomes one ``scale`` row of the ``grout-bench/1`` record
(:mod:`repro.bench.gate`): the events/s of its ``workload@size`` cell,
``/shardsN`` appended in shard mode.  ``benchmarks/bench_scale.py
--check BENCH_baseline.json`` gates the rows against the committed
baseline, so CI fails on a wall-clock regression.

Tracing is disabled for these runs (a million spans is a memory
benchmark, not a scheduling one); metrics and the per-CE profiler stay
on — they are part of the hot path being measured.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass

from repro.bench import gate
from repro.cluster.cluster import paper_cluster
from repro.gpu.kernel import ArrayAccess, Direction, KernelSpec
from repro.gpu.specs import KIB, MIB, TEST_GPU_1GB

__all__ = ["ScaleRunResult", "WORKLOADS", "run_scale_once", "run_scale",
           "run_engine_microbench", "ENGINE_MICROBENCH_EVENTS",
           "ENGINE_FLOOR", "FOOTPRINT_CLUSTERS", "QueuedFootprint",
           "queued_ce_footprint"]

#: Benchmark cluster: the paper's three-worker setup with small GPUs so
#: the footprint stays comfortably resident (scheduling, not eviction,
#: is what this benchmark measures).
N_WORKERS = 3


@dataclass(frozen=True, slots=True)
class ScaleRunResult:
    """One (workload, size) measurement."""

    workload: str
    size: int                # CEs asked for
    ces: int                 # CEs actually scheduled
    wall_seconds: float      # host wall-clock, build + drain
    sim_seconds: float       # simulated makespan
    events: int              # controller-engine events processed
    events_per_sec: float
    ces_per_sec: float
    peak_rss_mib: float      # process peak RSS after the run
    shards: int = 0          # shard processes (0 = single-process mode)

    def row(self) -> dict:
        """This run's gate row: the events/s of its
        ``workload@size[/shardsN]`` cell.  A sharded cell only ever
        meets a sharded baseline, since its event count covers the
        controller engine only; the engine row carries
        :data:`ENGINE_FLOOR`."""
        cell = f"{self.workload}@{self.size}" + (
            f"/shards{self.shards}" if self.shards else "")
        return gate.row("scale", cell, "events_per_sec",
                        self.events_per_sec, "higher",
                        floor=ENGINE_FLOOR if self.workload == "engine"
                        else None)


# -- synthetic workloads -------------------------------------------------------

def _kernel(name: str, directions: tuple[Direction, ...],
            flops_per_byte: float = 0.5) -> KernelSpec:
    """A kernel whose parameter directions are fixed per position."""
    def access_fn(args):
        return [ArrayAccess(a, d) for a, d in zip(args, directions)]
    return KernelSpec(name, flops_per_byte=flops_per_byte,
                      access_fn=access_fn)


def build_wide(rt, n: int, width: int = 256) -> int:
    """Epochs of one shared write fanning out to ``width`` readers.

    Every epoch's host write WARs against the previous epoch's full
    reader wave — the widest frontier scan the DAG ever faces.
    """
    shared = rt.device_array(8, virtual_nbytes=4 * MIB, name="w.shared")
    outs = [rt.device_array(8, virtual_nbytes=256 * KIB, name=f"w.out{i}")
            for i in range(width)]
    fan = _kernel("fan", (Direction.IN, Direction.OUT))
    scheduled = 0
    while scheduled < n:
        rt.host_write(shared, label="w.init")
        scheduled += 1
        wave = min(width, n - scheduled)
        for i in range(wave):
            rt.launch(fan, 8, 128, (shared, outs[i]))
        scheduled += wave
    return scheduled


def build_deep(rt, n: int) -> int:
    """One read-modify-write chain of ``n`` kernels on a single buffer.

    Round-robin placement ping-pongs the accumulator between workers, so
    every link exercises the P2P mover and the coherence directory.
    """
    accum = rt.device_array(8, virtual_nbytes=1 * MIB, name="d.accum")
    step = _kernel("step", (Direction.INOUT,))
    rt.host_write(accum, label="d.init")
    for _ in range(n - 1):
        rt.launch(step, 8, 128, (accum,))
    return n


def build_iterative(rt, n: int, sync_every: int = 256) -> int:
    """A CG-shaped loop: four kernels per iteration over a fixed buffer
    set, with a periodic host read as the convergence check."""
    mat = rt.device_array(8, virtual_nbytes=8 * MIB, name="i.A")
    vecs = {name: rt.device_array(8, virtual_nbytes=1 * MIB,
                                  name=f"i.{name}")
            for name in ("p", "q", "r", "x")}
    spmv = _kernel("spmv", (Direction.IN, Direction.IN, Direction.OUT))
    axpy = _kernel("axpy", (Direction.IN, Direction.INOUT))
    resid = _kernel("resid", (Direction.IN, Direction.INOUT))
    update = _kernel("update", (Direction.IN, Direction.INOUT))
    rt.host_write(list(vecs.values()) + [mat], label="i.init")
    scheduled, iteration = 1, 0
    while scheduled + 4 <= n:
        rt.launch(spmv, 8, 128, (mat, vecs["p"], vecs["q"]))
        rt.launch(axpy, 8, 128, (vecs["q"], vecs["x"]))
        rt.launch(resid, 8, 128, (vecs["q"], vecs["r"]))
        rt.launch(update, 8, 128, (vecs["r"], vecs["p"]))
        scheduled += 4
        iteration += 1
        if iteration % sync_every == 0 and scheduled < n:
            rt.host_read(vecs["r"], label="i.check")
            scheduled += 1
    return scheduled


WORKLOADS = {
    "wide": build_wide,
    "deep": build_deep,
    "iterative": build_iterative,
}


# -- measurement ---------------------------------------------------------------

def _peak_rss_mib() -> float:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    if sys.platform == "darwin":  # pragma: no cover
        return rss / (1024 * 1024)
    return rss / 1024


def run_scale_once(workload: str, ces: int, *,
                   n_workers: int = N_WORKERS,
                   shards: int | None = None,
                   shard_window: float | None = None) -> ScaleRunResult:
    """Run one synthetic workload end to end and measure throughput.

    The clock covers scheduling *and* draining: ``launch`` runs
    Algorithm 1 eagerly, ``sync`` runs the event engine until every CE
    completed — wall-clock per CE is the full-stack cost.  ``shards``
    runs the worker nodes in that many shard processes (conservative-
    window parallel simulation); the reported event count then covers
    the controller engine only — compare sharded rows against sharded
    baselines.
    """
    from repro.core.policies import RoundRobinPolicy
    from repro.core.runtime import GroutRuntime

    build = WORKLOADS[workload]
    cluster = paper_cluster(n_workers, gpu_spec=TEST_GPU_1GB)
    cluster.tracer.enabled = False
    rt = GroutRuntime(cluster, policy=RoundRobinPolicy(), shards=shards,
                      shard_window=shard_window)
    start = time.perf_counter()
    scheduled = build(rt, ces)
    rt.sync()
    wall = time.perf_counter() - start
    events = rt.engine.events_processed
    rt.shutdown()
    return ScaleRunResult(
        workload=workload,
        size=ces,
        ces=scheduled,
        wall_seconds=wall,
        sim_seconds=rt.engine.now,
        events=events,
        events_per_sec=events / wall if wall > 0 else 0.0,
        ces_per_sec=scheduled / wall if wall > 0 else 0.0,
        peak_rss_mib=_peak_rss_mib(),
        shards=shards or 0,
    )


def _run_in_subprocess(workload: str, ces: int, n_workers: int,
                       shards: int | None = None,
                       shard_window: float | None = None
                       ) -> ScaleRunResult:
    """Fork one measurement so peak RSS is per-run, not cumulative."""
    import multiprocessing as mp
    ctx = mp.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)

    def body(conn):
        # The measurement child is a dedicated process, so tune the
        # cyclic collector the way a long-lived scheduler deployment
        # would: the object graph is overwhelmingly refcount-managed
        # (events, CEs and DAG nodes form no cycles on the hot path),
        # and the default gen0 threshold of 700 allocations makes the
        # collector rescan a million-node graph thousands of times per
        # run — ~25% of sharded wall-clock, with no measured RSS cost.
        import gc
        gc.set_threshold(1_000_000, 100, 100)
        result = run_scale_once(workload, ces, n_workers=n_workers,
                                shards=shards, shard_window=shard_window)
        conn.send(dataclasses.asdict(result))
        conn.close()

    proc = ctx.Process(target=body, args=(child,))
    proc.start()
    child.close()
    payload = parent.recv()
    proc.join()
    if proc.exitcode != 0:  # pragma: no cover - child crashed
        raise RuntimeError(f"bench child for {workload}@{ces} exited "
                           f"with {proc.exitcode}")
    return ScaleRunResult(**payload)


def run_scale(sizes: tuple[int, ...],
              workloads: tuple[str, ...] | None = None, *,
              isolate: bool = True,
              n_workers: int = N_WORKERS,
              shards: int | None = None,
              shard_window: float | None = None,
              repeats: int = 1,
              log=None) -> list[ScaleRunResult]:
    """Measure every (workload, size) pair, sizes outermost.

    ``isolate`` forks each run (POSIX) so per-run peak RSS is accurate;
    in-process fallback keeps the harness usable everywhere.
    ``repeats`` measures each pair several times and records the run
    with the *median* events/sec — what the CI gate compares — so a
    single noisy-neighbour run can't fail (or mask) a regression.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    names = tuple(workloads) if workloads else tuple(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            raise KeyError(f"unknown workload {name!r}; "
                           f"have {sorted(WORKLOADS)}")
    can_fork = isolate and sys.platform != "win32"
    results = []
    for ces in sizes:
        for name in names:
            if log is not None:
                log(f"running {name} @ {ces:,} CEs ..." +
                    (f" (x{repeats})" if repeats > 1 else ""))
            runs = []
            for _ in range(repeats):
                if can_fork:
                    runs.append(_run_in_subprocess(
                        name, ces, n_workers, shards, shard_window))
                else:  # pragma: no cover - exercised on win32 only
                    runs.append(run_scale_once(
                        name, ces, n_workers=n_workers, shards=shards,
                        shard_window=shard_window))
            runs.sort(key=lambda r: r.events_per_sec)
            result = runs[len(runs) // 2]
            results.append(result)
            if log is not None:
                log(f"  {result.wall_seconds:8.2f}s wall   "
                    f"{result.ces_per_sec:10,.0f} CEs/s   "
                    f"{result.events_per_sec:12,.0f} events/s   "
                    f"{result.peak_rss_mib:7.1f} MiB peak")
    return results


# -- engine microbenchmark -----------------------------------------------------

#: Deliveries churned by :func:`run_engine_microbench` — half through
#: Timeout callbacks, half through ``schedule_call`` chains.
ENGINE_MICROBENCH_EVENTS = 400_000
#: The engine row's absolute events/s floor: about 40 % of the rate on
#: the host that recorded the baseline, far below noise and far above
#: any real engine regression.
ENGINE_FLOOR = 250_000


def run_engine_microbench(events: int = ENGINE_MICROBENCH_EVENTS,
                          fanout: int = 64) -> ScaleRunResult:
    """Pure event-core churn: no controller, no DAG, no GPU models.

    Isolates the engine's own queue machinery so the perf gate can tell
    an engine regression apart from a scheduler one.  ``fanout`` rollers
    churn timeouts two ways — Timeout events with a callback (the Event
    lane) for the first half of the deliveries, ``schedule_call`` chains
    for the second half — so a slowdown in either lane moves the number.
    Reported as a pseudo-workload run (``workload="engine"``,
    ``size=events``), so its row meets the baseline's ``engine@400000``
    row and :data:`ENGINE_FLOOR`.
    """
    from repro.sim import Engine

    engine = Engine()
    half = events // 2

    def roll(ev):
        if engine.events_processed < half:
            engine.timeout(ev.delay).callbacks.append(roll)

    for i in range(fanout):
        engine.timeout(0.001 * (1 + i % 7)).callbacks.append(roll)

    def hop(_arg):
        if engine.events_processed < events:
            engine.schedule_call(0.001, hop)

    start = time.perf_counter()
    engine.run()
    for i in range(fanout):
        engine.schedule_call(0.001 * (1 + i % 7), hop)
    engine.run()
    wall = time.perf_counter() - start
    churned = engine.events_processed
    return ScaleRunResult(
        workload="engine",
        size=events,
        ces=events,
        wall_seconds=wall,
        sim_seconds=engine.now,
        events=churned,
        events_per_sec=churned / wall if wall > 0 else 0.0,
        ces_per_sec=0.0,
        peak_rss_mib=_peak_rss_mib(),
    )


# -- queued-CE footprint -------------------------------------------------------

#: The footprint probe's cluster per shape, (workers, policy): the
#: perf benchmark's settings for the same shapes.
FOOTPRINT_CLUSTERS = {
    "wide": (8, "min-transfer-time"),
    "deep": (3, "round-robin"),
    "iterative": (3, "round-robin"),
}
#: CEs queued by the footprint probe's measured build.
FOOTPRINT_CES = 1000
#: CEs built first, to allocate the shape's arrays and first-use caches.
FOOTPRINT_WARMUP = 16
#: Owning source lines a traced probe reports.
FOOTPRINT_OWNERS = 8


@dataclass(frozen=True, slots=True)
class QueuedFootprint:
    """What one queued CE of a shape keeps alive."""

    workload: str
    ces: int                  # CEs queued by the measured build
    objects_per_ce: float     # growth of the collector's tracked objects
    #: tracemalloc growth (traced probes only).
    bytes_per_ce: float | None = None
    #: ``("file:line", bytes per CE)`` of the largest owners, largest
    #: first (traced probes only).
    owners: tuple[tuple[str, float], ...] = ()


def queued_ce_footprint(workload: str, *,
                        trace: bool = False) -> QueuedFootprint:
    """Queue :data:`FOOTPRINT_CES` CEs of ``workload`` on an idle engine
    and measure what they keep alive.

    A :data:`FOOTPRINT_WARMUP`-CE build first allocates the shape's
    arrays and first-use caches; the measured build then queues the
    rest with the collector off.  No CE runs meanwhile (a run would
    raise), so the growth of ``gc.get_objects()`` per CE built is what
    one queued CE keeps alive.  ``trace`` adds tracemalloc snapshots
    around the measured build: bytes per CE and the
    :data:`FOOTPRINT_OWNERS` largest owning source lines.  A trace the
    caller already started is left running.
    """
    import gc
    import tracemalloc

    from repro.core.config import RuntimeConfig

    n_workers, policy = FOOTPRINT_CLUSTERS[workload]
    rt = RuntimeConfig(policy=policy, n_workers=n_workers,
                       gpu_spec="TEST_GPU_1GB").build_runtime()
    build = WORKLOADS[workload]
    enabled = gc.isenabled()
    started = trace and not tracemalloc.is_tracing()
    gc.disable()
    try:
        build(rt, FOOTPRINT_WARMUP)
        events = rt.engine.events_processed
        if started:
            tracemalloc.start()
        if trace:
            first = tracemalloc.take_snapshot()
        before = len(gc.get_objects())
        built = build(rt, FOOTPRINT_CES)
        grown = len(gc.get_objects()) - before
        if trace:
            last = tracemalloc.take_snapshot()
        if rt.engine.events_processed != events:
            raise RuntimeError(f"{workload}: the engine ran while CEs "
                               "were queued")
    finally:
        if started:
            tracemalloc.stop()
        if enabled:
            gc.enable()
        rt.shutdown()
    if not trace:
        return QueuedFootprint(workload, built, grown / built)
    diffs = last.compare_to(first, "lineno")
    owners = tuple((_source_line(d.traceback[0]), d.size_diff / built)
                   for d in diffs[:FOOTPRINT_OWNERS] if d.size_diff > 0)
    return QueuedFootprint(workload, built, grown / built,
                           sum(d.size_diff for d in diffs) / built, owners)


def _source_line(frame) -> str:
    """``repro/...py:line`` for the package's own frames."""
    name = frame.filename.replace("\\", "/")
    cut = name.rfind("/repro/")
    return f"{name[cut + 1:] if cut >= 0 else name}:{frame.lineno}"
