"""Collective broadcast distribution vs serial controller sends.

The acceptance benchmark of the transfer planner: distributing one shared
read-only input to N workers through a coalesced relay chain (with chunk
pipelining) must beat N serial controller→worker sends — the grCUDA-style
baseline where every replication is its own transfer out of the
controller's NIC — by at least 20 % of simulated distribution time.
"""

import os


from conftest import emit

from repro.bench import format_table
from repro.cluster import paper_cluster
from repro.core import GroutRuntime, RoundRobinPolicy
from repro.gpu import ArrayAccess, Direction, KernelSpec, TEST_GPU_1GB
from repro.gpu.specs import MIB

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))

NBYTES = (64 if QUICK else 256) * MIB
# Keep ~16 chunks in flight whatever the payload: fewer and pipeline
# fill eats the saving, the regime the full-size run never enters.
CHUNK_BYTES = NBYTES // 16
WORKER_COUNTS = (4,) if QUICK else (4, 8)


def serial_send_seconds(n_workers: int, nbytes: int) -> float:
    """N independent controller→worker transfers of the same payload.

    They all leave through the controller's egress NIC, so the fabric
    serialises them — the distribution cost the planner exists to avoid.
    """
    cluster = paper_cluster(n_workers, gpu_spec=TEST_GPU_1GB)
    engine, fabric = cluster.engine, cluster.fabric
    home = cluster.controller.name
    for worker in cluster.workers:
        fabric.transfer(home, worker.name, nbytes, label="serial")
    engine.run()
    return engine.now


def collective_seconds(n_workers: int, nbytes: int,
                       chunk_bytes: int | None = CHUNK_BYTES) -> float:
    """Distribution time of the same payload through the relay chain.

    Measured end to end through the runtime: N round-robin read kernels
    on one shared array coalesce into a single broadcast; the relay
    spans bracket the full chain including pipeline fill.
    """
    def access_fn(args):
        return [ArrayAccess(args[0], Direction.IN)]

    rt = GroutRuntime(paper_cluster(n_workers, gpu_spec=TEST_GPU_1GB),
                      policy=RoundRobinPolicy(),
                      collectives=True, chunk_bytes=chunk_bytes)
    shared = rt.device_array(4, virtual_nbytes=nbytes)
    kernel = KernelSpec("reader", access_fn=access_fn)
    for _ in range(n_workers):
        rt.launch(kernel, 4, 128, (shared,))
    assert rt.sync()
    broadcasts = rt.metrics.family(
        "grout_collective_broadcasts_total").labels().value
    assert broadcasts == 1, "launch window failed to coalesce"
    relays = rt.tracer.by_category("relay")
    assert len(relays) == n_workers
    return max(s.end for s in relays) - min(s.start for s in relays)


def test_broadcast_beats_serial_sends(benchmark):
    def sweep():
        return {n: (serial_send_seconds(n, NBYTES),
                    collective_seconds(n, NBYTES))
                for n in WORKER_COUNTS}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for n, (serial, collective) in times.items():
        saved = 1.0 - collective / serial
        rows.append((f"{n} workers", serial, collective,
                     f"{saved:.0%} lower"))
    emit(format_table(
        ["destinations", "serial sends (s)", "relay chain (s)", "saving"],
        rows,
        title=f"Shared-input distribution — {NBYTES // MIB} MiB, "
              f"{CHUNK_BYTES // MIB} MiB chunks"))

    for n, (serial, collective) in times.items():
        assert collective < 0.8 * serial, (
            f"{n} workers: relay {collective:.3f}s not >=20% below "
            f"serial {serial:.3f}s")


def test_pipelining_beats_store_and_forward(benchmark):
    """Within the collective path itself, chunking is what pays: the
    store-and-forward chain (no chunk_bytes) costs ~hops x wire time,
    the pipelined chain ~one wire time plus fill."""
    n = WORKER_COUNTS[0]

    pipelined = benchmark.pedantic(
        lambda: collective_seconds(n, NBYTES), rounds=1, iterations=1)
    store_forward = collective_seconds(n, NBYTES, chunk_bytes=None)
    emit(format_table(
        ["chain mode", "distribution (s)"],
        [("store-and-forward", store_forward),
         (f"pipelined ({CHUNK_BYTES // MIB} MiB chunks)", pipelined)],
        title=f"Relay chain pipelining — {n} workers"))
    assert pipelined < store_forward
