"""Framework microbenchmarks — wall-clock costs of the hot code paths.

Unlike the figure benches (simulated time), these time the *framework
code itself* with pytest-benchmark: DAG insertion, page-table operations,
kernel pricing, the simulation engine's event loop.  They are the
regression harness for the scheduler-overhead claims of Fig. 9.
"""

import gc
import os

import numpy as np

from repro.bench.scale import (FOOTPRINT_CLUSTERS, build_iterative,
                               queued_ce_footprint)
from repro.cluster import paper_cluster
from repro.core import (DependencyDag, GroutRuntime, ManagedArray,
                        RoundRobinPolicy)
from repro.core.ce import CeKind, ComputationalElement
from repro.gpu import (
    ArrayAccess,
    Direction,
    Gpu,
    KernelLaunch,
    KernelSpec,
    LaunchConfig,
    TEST_GPU_1GB,
)
from repro.gpu.specs import MIB
from repro.gpu.stream import StreamOp
from repro.sim import Engine
from repro.uvm import DevicePageTable, UvmSpace

SPEC = TEST_GPU_1GB.with_page_size(1 * MIB)

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))


def _ce(*accesses):
    return ComputationalElement(
        kind=CeKind.KERNEL, accesses=accesses,
        kernel=KernelSpec("k"), config=LaunchConfig((1,), (32,)))


def _chain_ce(array):
    return _ce(ArrayAccess(array, Direction.INOUT))


def test_micro_dag_insertion_chain(benchmark):
    """Per-CE cost of Algorithm 1's DAG phase on a serial chain.

    Pruned every 256 inserts, exactly like the Controller does in
    production — unbounded chains would otherwise grow the transitive
    ancestor sets quadratically.
    """
    array = ManagedArray(4)
    dag = DependencyDag()
    counter = iter(range(10**9))

    def insert():
        dag.add(_chain_ce(array))
        if next(counter) % 256 == 0:
            dag.prune_completed(lambda ce: True)

    benchmark(insert)
    assert benchmark.stats.stats.mean < 300e-6   # well under Fig. 9 scale


def test_micro_dag_insertion_wide(benchmark):
    """Per-CE cost with a wide frontier (64 independent buffers)."""
    arrays = [ManagedArray(4) for _ in range(64)]
    dag = DependencyDag()
    for a in arrays:
        dag.add(_chain_ce(a))
    counter = iter(range(10**9))

    def insert():
        i = next(counter)
        dag.add(_chain_ce(arrays[i % 64]))
        if i % 256 == 0:
            dag.prune_completed(lambda ce: True)

    benchmark(insert)


def _cg_stream(chunks: int = 32, iterations: int = 20) -> list:
    """The CE stream of ``cg``'s build and run (``repro.workloads.cg``),
    accesses only: per iteration a matvec and a partial dot per chunk,
    then alpha, the x/r update, beta and the p update."""
    IN, OUT, INOUT = Direction.IN, Direction.OUT, Direction.INOUT
    a = [ManagedArray(4) for _ in range(chunks)]
    ap = [ManagedArray(4) for _ in range(chunks)]
    pap = [ManagedArray(4) for _ in range(chunks)]
    x, r, p, alpha, rs_old, rs_new, beta = (ManagedArray(4)
                                            for _ in range(7))
    ces = [_ce(ArrayAccess(a_c, OUT)) for a_c in a]
    ces.append(_ce(*(ArrayAccess(v, OUT) for v in (x, r, p, rs_old))))
    for _ in range(iterations):
        ces += [_ce(ArrayAccess(a[c], IN), ArrayAccess(p, IN),
                    ArrayAccess(ap[c], OUT)) for c in range(chunks)]
        ces += [_ce(ArrayAccess(p, IN), ArrayAccess(ap[c], IN),
                    ArrayAccess(pap[c], OUT)) for c in range(chunks)]
        ces.append(_ce(ArrayAccess(alpha, OUT), ArrayAccess(rs_old, IN),
                       *(ArrayAccess(v, IN) for v in pap)))
        ces.append(_ce(ArrayAccess(x, INOUT), ArrayAccess(r, INOUT),
                       ArrayAccess(p, IN), ArrayAccess(alpha, IN),
                       *(ArrayAccess(v, IN) for v in ap)))
        ces.append(_ce(ArrayAccess(r, IN), ArrayAccess(rs_old, INOUT),
                       ArrayAccess(rs_new, OUT), ArrayAccess(beta, OUT)))
        ces.append(_ce(ArrayAccess(p, INOUT), ArrayAccess(r, IN),
                       ArrayAccess(beta, IN)))
    return ces


def test_micro_dag_insertion_cg_frontier(benchmark):
    """Per-CE cost of the DAG phase with a wide frontier that no prune
    trims: ``cg`` at Fig. 7's sizes queues its whole stream before any
    CE completes, and each chunk's matrix is read once per iteration
    and never written again, so about 700 readers stay in the frontier.
    Every round inserts the whole stream into a fresh DAG; the CEs are
    built once, outside the rounds."""
    ces = _cg_stream()
    widths = []

    def insert_stream():
        dag = DependencyDag()
        for ce in ces:
            dag.add(ce)
        widths.append(len(dag.frontier))

    benchmark.pedantic(insert_stream, rounds=3 if QUICK else 20,
                       iterations=1, warmup_rounds=1)
    print(f"\ncg-shaped frontier ({widths[-1]} members after "
          f"{len(ces):,} inserts): "
          f"{benchmark.stats.stats.mean / len(ces) * 1e6:.1f} us per add")
    assert widths[-1] >= 650


def test_micro_pagetable_admit_evict_cycle(benchmark):
    """Steady-state page cycling: admit a window, evicting LRU victims."""
    table = DevicePageTable(SPEC.total_pages, SPEC.page_size)
    table.register(1, 4 * SPEC.total_pages)
    window = np.arange(128, dtype=np.int64)
    state = {"offset": 0}

    def cycle():
        pages = (window + state["offset"]) % (4 * SPEC.total_pages)
        state["offset"] += 128
        table.ensure_free(len(pages), order="lru")
        table.admit(1, np.sort(pages), write=False)

    benchmark(cycle)


def test_micro_pagetable_many_buffer_evict(benchmark):
    """LRU partial eviction on a device holding many buffers.

    The shape of an oversubscribed Fig. 7 run: ~50 registered buffers,
    half of them resident, each stamped with one clock, and each
    eviction taking part of the oldest one.  Eviction cost must not
    grow with the number of buffers, which a single-buffer table hides.
    """
    n_buffers, buf_pages, victims = 50, 32, 24
    table = DevicePageTable(n_buffers // 2 * buf_pages, SPEC.page_size)
    for b in range(n_buffers):
        table.register(b, buf_pages)
    for b in range(0, n_buffers, 2):
        table.fill_uniform(b, resident=True, clock=table.tick(), touches=1)
    oldest, reload = 0, np.arange(buf_pages, dtype=np.int64)

    def cycle():
        table.evict(victims, order="lru")
        # Re-admit at the oldest clock so every round evicts the same way.
        table.admit(oldest, reload, write=False, clock=1)

    benchmark(cycle)
    assert table.free_pages == 0
    assert table.buffer(oldest).resident_count == buf_pages


def _repeated_launch():
    """A one-GPU space and a 64 MiB read-write launch to repeat."""
    engine = Engine()
    gpu = Gpu(engine, SPEC, node_name="n", index=0)
    space = UvmSpace([gpu])

    class Buf:
        nbytes = 64 * MIB
        buffer_id = 424242

    buf = Buf()
    space.register(buf)
    launch = KernelLaunch(
        KernelSpec("k", flops_per_byte=1.0),
        LaunchConfig((16,), (256,)), (buf,),
        (ArrayAccess(buf, Direction.INOUT),))
    return space, gpu, launch


def test_micro_kernel_pricing(benchmark):
    """price_kernel on a repeated launch: a pricing-memo hit."""
    space, gpu, launch = _repeated_launch()
    benchmark(lambda: space.price_kernel(gpu, launch))
    assert space.memo_hits > 0


def test_micro_kernel_pricing_live(benchmark):
    """The live pricer's round trip (page sets, faults, admission)."""
    space, gpu, launch = _repeated_launch()
    benchmark(lambda: space._price_live(gpu, launch))
    assert space.memo_hits == 0


def test_micro_kernel_pricing_evicting(benchmark):
    """price_kernel on launches that must evict: the Fig. 7 shape.

    Three read-write buffers of 3/4 of the device each, launched
    round-robin.  No two fit together, so from the third launch on
    every launch faults its whole buffer and evicts the buffers
    launched before it; the pricing memo never serves such a launch.
    """
    engine = Engine()
    gpu = Gpu(engine, SPEC, node_name="n", index=0)
    space = UvmSpace([gpu])

    class Buf:
        def __init__(self, buffer_id):
            self.buffer_id = buffer_id
            self.nbytes = SPEC.memory_bytes * 3 // 4

    launches = []
    for buffer_id in (515151, 515152, 515153):
        buf = Buf(buffer_id)
        space.register(buf)
        launches.append(KernelLaunch(
            KernelSpec("k", flops_per_byte=1.0),
            LaunchConfig((16,), (256,)), (buf,),
            (ArrayAccess(buf, Direction.INOUT),)))
    counter = iter(range(10**9))

    def launch():
        space.price_kernel(gpu, launches[next(counter) % len(launches)])

    benchmark(launch)
    print(f"\nevicting launch: {benchmark.stats.stats.mean * 1e6:.1f} us "
          f"per launch")
    assert space.stats.writeback_bytes > 0


def test_micro_engine_event_throughput(benchmark):
    """Raw engine throughput: schedule + process one timeout event."""
    engine = Engine()

    def tick():
        engine.timeout(0.0)
        engine.step()

    benchmark(tick)
    assert benchmark.stats.stats.mean < 50e-6


class _NopOp(StreamOp):
    """A stream op whose body completes at once."""

    __slots__ = ()

    def begin(self):
        self.sleep(0.0, _NopOp.fin)

    def fin(self):
        self.finish(None)


def test_micro_stream_enqueue(benchmark):
    """Stream FIFO wiring cost per enqueued op."""
    engine = Engine()
    gpu = Gpu(engine, SPEC, node_name="n", index=0)
    stream = gpu.new_stream()

    def enqueue_and_drain():
        stream.push(_NopOp(stream, "op", "kernel"))
        engine.run()

    benchmark(enqueue_and_drain)


def test_micro_back_to_back_runtimes(benchmark):
    """Build a 2-worker runtime, run ~200 CEs, shut it down; repeat.

    Rounds run back to back with the cyclic collector on, so the
    teardown path is timed with them: a shut-down runtime is freed by
    reference counting when the round drops it, not by a full
    collection inside a later round.
    """
    def round_trip():
        cluster = paper_cluster(2, gpu_spec=TEST_GPU_1GB)
        rt = GroutRuntime(cluster, policy=RoundRobinPolicy())
        scheduled = build_iterative(rt, 200)
        rt.sync()
        rt.shutdown()
        return scheduled

    assert gc.isenabled()
    assert benchmark(round_trip) == 197


def test_micro_queued_ce_footprint():
    """What one queued CE keeps alive, per scale shape: tracked objects
    and tracemalloc bytes, plus the largest owners by source line.

    Bytes are reported, not asserted: object sizes differ across
    interpreters.  The tier-1 gate ``tests/core/test_ce_footprint.py``
    checks the object counts.
    """
    for shape in FOOTPRINT_CLUSTERS:
        footprint = queued_ce_footprint(shape, trace=True)
        print(f"\nqueued-CE footprint {shape}: "
              f"{footprint.objects_per_ce:.2f} objects, "
              f"{footprint.bytes_per_ce:,.0f} B per CE "
              f"({footprint.ces:,} CEs)")
        for line, nbytes in footprint.owners:
            print(f"  {nbytes:8.1f} B  {line}")
        assert footprint.ces > 0
