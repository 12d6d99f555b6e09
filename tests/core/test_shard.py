"""Unit tests of the sharded simulation (conservative-window mode).

Shard mode forks worker processes, so every test that actually starts
them keeps the programs small and shuts the runtime down (the fixture
uses the context manager).  Determinism matters as much as correctness:
a repeated run must produce the identical simulated schedule, because
the CI golden gate pins the ``shards=2`` trace.
"""

import numpy as np
import pytest

from repro.cluster import paper_cluster
from repro.core import GroutRuntime, RoundRobinPolicy
from repro.core.shard import ShardCoordinator, _decode_ce, _encode_ce
from repro.gpu import ArrayAccess, Direction, KernelSpec, TEST_GPU_1GB
from repro.gpu.specs import MIB
from repro.sim import FaultPlan, SimError
from repro.uvm import Advise


def fan_kernel():
    def access_fn(args):
        return [ArrayAccess(args[0], Direction.IN),
                ArrayAccess(args[1], Direction.OUT)]
    return KernelSpec("fan", flops_per_byte=2.0, access_fn=access_fn)


def inout_kernel(**kw):
    def access_fn(args):
        return [ArrayAccess(args[0], Direction.INOUT)]
    return KernelSpec("k", access_fn=access_fn, **kw)


def make_runtime(shards=2, workers=3, **kw):
    return GroutRuntime(paper_cluster(workers, gpu_spec=TEST_GPU_1GB),
                        policy=RoundRobinPolicy(), shards=shards, **kw)


def drive_fan(rt, n=8):
    """Shared input, fan of kernels, RAW chain — returns CE list."""
    shared = rt.device_array(8, np.float32, virtual_nbytes=16 * MIB,
                             name="t.shared")
    rt.host_write(shared, lambda: shared.data.fill(1.0), label="t.init")
    outs = [rt.device_array(8, np.float32, virtual_nbytes=8 * MIB,
                            name=f"t.out{i}") for i in range(n)]
    ces = [rt.launch(fan_kernel(), 8, 128, (shared, out),
                     label=f"t.fan{i}") for i, out in enumerate(outs)]
    chain = rt.device_array(8, np.float32, virtual_nbytes=8 * MIB,
                            name="t.chain")
    for i in range(3):
        ces.append(rt.launch(inout_kernel(flops_per_byte=1.0), 8, 128,
                             (chain,), label=f"t.chain{i}"))
    return ces


class TestCompletion:
    def test_every_ce_completes(self):
        with make_runtime() as rt:
            ces = drive_fan(rt)
            rt.sync()
            assert all(ce.done.processed for ce in ces)
            assert rt.controller.coordinator.outstanding == 0
            assert rt.elapsed > 0.0

    def test_prefetch_ships_to_shard(self):
        with make_runtime() as rt:
            a = rt.device_array(8, np.float32, virtual_nbytes=8 * MIB)
            ce = rt.prefetch(a, worker="worker1", label="t.pf")
            rt.sync()
            assert ce.done.processed

    def test_host_read_drains_producers(self):
        with make_runtime() as rt:
            a = rt.device_array(8, np.float32, virtual_nbytes=8 * MIB)
            rt.host_write(a, lambda: a.data.fill(3.0))
            rt.launch(inout_kernel(flops_per_byte=1.0), 8, 128, (a,))
            out = rt.host_read(a)
            assert out.shape == (8,)

    def test_makespan_is_quantised_upper_bound(self):
        """Sharded elapsed >= default elapsed (barrier quantisation)."""
        with GroutRuntime(paper_cluster(3, gpu_spec=TEST_GPU_1GB),
                          policy=RoundRobinPolicy()) as rt:
            drive_fan(rt)
            rt.sync()
            default = rt.elapsed
        with make_runtime() as rt:
            drive_fan(rt)
            rt.sync()
            sharded = rt.elapsed
        assert sharded >= default

    def test_shard_metrics_populated(self):
        with make_runtime() as rt:
            drive_fan(rt)
            rt.sync()
            m = rt.metrics
            assert m.family("grout_shard_rounds_total").labels() \
                    .value > 0
            shipped = sum(
                m.family("grout_shard_ops_shipped_total")
                 .labels(shard=str(s)).value for s in range(2))
            assert shipped > 0
            assert m.family("grout_shard_outstanding").labels() \
                    .value == 0


class TestDeterminism:
    def _capture(self, shards):
        with make_runtime(shards=shards) as rt:
            drive_fan(rt)
            rt.sync()
            spans = [[s.lane, s.category, s.name, s.start, s.end]
                     for s in rt.tracer.spans]
            return rt.elapsed, spans

    def test_repeat_runs_identical(self):
        first = self._capture(2)
        second = self._capture(2)
        assert first == second

    def test_shard_count_does_not_change_schedule(self):
        """The partition is a wall-clock knob, not a timing knob."""
        one = self._capture(1)
        three = self._capture(3)
        assert one == three


class TestBackpressure:
    def test_outstanding_stays_bounded(self):
        with make_runtime() as rt:
            coord = rt.controller.coordinator
            coord.max_outstanding = 8
            a = rt.device_array(8, np.float32, virtual_nbytes=4 * MIB)
            rt.host_write(a, lambda: a.data.fill(0.0))
            high_water = 0
            for i in range(64):
                rt.launch(fan_kernel(), 8, 128, (
                    a, rt.device_array(8, np.float32,
                                       virtual_nbytes=4 * MIB)))
                high_water = max(high_water, coord.outstanding)
            assert high_water <= 8
            rt.sync()
            assert coord.outstanding == 0


class TestGuards:
    def test_collectives_rejected(self):
        with pytest.raises(ValueError, match="collectives"):
            make_runtime(collectives=True, chunk_bytes=8 * MIB)

    def test_fault_injection_rejected(self):
        with make_runtime() as rt:
            with pytest.raises(SimError, match="fault injection"):
                rt.install_faults(FaultPlan())

    def test_advise_rejected(self):
        with make_runtime() as rt:
            a = rt.device_array(8, np.float32, virtual_nbytes=4 * MIB)
            with pytest.raises(SimError, match="advise"):
                rt.advise(a, Advise.READ_MOSTLY)

    def test_autoscale_rejected(self):
        with make_runtime() as rt:
            with pytest.raises(SimError, match="autoscaling"):
                rt.controller.add_worker()

    def test_executor_kernel_rejected(self):
        with make_runtime() as rt:
            a = rt.device_array(8, np.float32, virtual_nbytes=4 * MIB)
            with pytest.raises(SimError, match="host callables"):
                rt.launch(inout_kernel(executor=lambda *_: None),
                          8, 128, (a,))
                rt.sync()

    def test_fresh_stream_rejected(self):
        with make_runtime() as rt:
            proxy = next(iter(rt.controller.workers.values()))
            a = rt.device_array(8, np.float32, virtual_nbytes=4 * MIB)
            ce = rt.launch(inout_kernel(flops_per_byte=1.0), 8, 128, (a,))
            with pytest.raises(SimError, match="crash re-execution"):
                proxy.submit(ce, fresh_stream=True)

    def test_bad_parameters_rejected(self):
        # The knob values are refused by the config, before the cluster
        # is touched; only the split depends on the built cluster.
        cluster = paper_cluster(2, gpu_spec=TEST_GPU_1GB)
        with pytest.raises(ValueError, match="shards must be"):
            GroutRuntime(cluster, shards=0)
        with pytest.raises(ValueError, match="shard_window must be"):
            GroutRuntime(cluster, shards=2, shard_window=0.0)
        rt = GroutRuntime(cluster, policy=RoundRobinPolicy())
        with pytest.raises(ValueError, match="cannot split"):
            ShardCoordinator(rt.controller, 3)


class TestWireEncoding:
    def test_ce_round_trips(self):
        with GroutRuntime(paper_cluster(2, gpu_spec=TEST_GPU_1GB),
                          policy=RoundRobinPolicy()) as rt:
            a = rt.device_array(8, np.float32, virtual_nbytes=4 * MIB,
                                name="t.a")
            b = rt.device_array(8, np.float32, virtual_nbytes=4 * MIB,
                                name="t.b")
            ce = rt.launch(fan_kernel(), 8, 128, (a, b, 7, 2.5, "tag"),
                           label="t.rt")
            enc = _encode_ce(ce)
            arrays = {a.buffer_id: a, b.buffer_id: b}
            back = _decode_ce(enc, arrays)
            assert back.ce_id == ce.ce_id
            assert back.kind == ce.kind
            assert back.label == ce.label
            assert back.kernel.name == "fan"
            assert back.kernel.flops_per_byte == 2.0
            assert back.config.grid == ce.config.grid
            assert back.args[0] is a and back.args[1] is b
            assert back.args[2:] == (7, 2.5, "tag")
            got = [(x.buffer.buffer_id, x.direction) for x in back.accesses]
            want = [(x.buffer.buffer_id, x.direction) for x in ce.accesses]
            assert got == want

    def test_unshippable_argument_rejected(self):
        from repro.core.shard import _encode_arg
        with pytest.raises(SimError, match="cannot ship"):
            _encode_arg(object())


class TestCoherenceStream:
    def test_issue_order_preserved(self):
        """Registrations and invalidations interleave in issue order —
        the shard replays the exact schedule-time UVM sequence."""
        cluster = paper_cluster(2, gpu_spec=TEST_GPU_1GB)
        rt = GroutRuntime(cluster, policy=RoundRobinPolicy())
        coord = ShardCoordinator(rt.controller, 1)
        proxy = coord.proxies()["worker0"]
        a = rt.device_array(8, np.float32, virtual_nbytes=4 * MIB)
        b = rt.device_array(8, np.float32, virtual_nbytes=4 * MIB)
        ce_a = _ce_for(rt, a)
        ce_b = _ce_for(rt, b)
        proxy.submit(ce_a)
        proxy.drop_replica(a)
        proxy.submit(ce_b)
        shard = coord._shards[0]
        kinds = [(kind, payload) for kind, _node, payload
                 in shard.coherence]
        assert kinds == [("reg", (a.buffer_id,)),
                         ("inv", a.buffer_id),
                         ("reg", (b.buffer_id,))]

    def test_unknown_buffer_invalidation_dropped(self):
        cluster = paper_cluster(2, gpu_spec=TEST_GPU_1GB)
        rt = GroutRuntime(cluster, policy=RoundRobinPolicy())
        coord = ShardCoordinator(rt.controller, 1)
        proxy = coord.proxies()["worker0"]
        a = rt.device_array(8, np.float32, virtual_nbytes=4 * MIB)
        proxy.drop_replica(a)           # never shipped -> filtered
        assert coord._shards[0].coherence == []

    def test_array_spec_ships_once(self):
        cluster = paper_cluster(2, gpu_spec=TEST_GPU_1GB)
        rt = GroutRuntime(cluster, policy=RoundRobinPolicy())
        coord = ShardCoordinator(rt.controller, 1)
        proxy = coord.proxies()["worker0"]
        a = rt.device_array(8, np.float32, virtual_nbytes=4 * MIB)
        proxy.submit(_ce_for(rt, a))
        proxy.submit(_ce_for(rt, a))
        specs = coord._shards[0].new_arrays
        assert [s[0] for s in specs] == [a.buffer_id]

    def test_writeback_priced_at_zero(self):
        cluster = paper_cluster(2, gpu_spec=TEST_GPU_1GB)
        rt = GroutRuntime(cluster, policy=RoundRobinPolicy())
        coord = ShardCoordinator(rt.controller, 1)
        proxy = coord.proxies()["worker0"]
        a = rt.device_array(8, np.float32, virtual_nbytes=4 * MIB)
        assert proxy.writeback_seconds(a) == 0.0


def _ce_for(rt, array):
    """A kernel CE touching one array, built without scheduling it."""
    from repro.core.ce import CeKind, ComputationalElement
    from repro.gpu.kernel import LaunchConfig
    return ComputationalElement(
        kind=CeKind.KERNEL,
        accesses=(ArrayAccess(array, Direction.INOUT),),
        kernel=KernelSpec("k", flops_per_byte=1.0),
        config=LaunchConfig((8,), (128,)),
        args=(array,))
