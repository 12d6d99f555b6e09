"""Unit tests of the Controller (Algorithm 1, full procedure)."""

import numpy as np
import pytest

from repro.cluster import paper_cluster
from repro.core import controller as controller_mod
from repro.core import GroutRuntime, RoundRobinPolicy, VectorStepPolicy
from repro.gpu import ArrayAccess, Direction, KernelSpec, TEST_GPU_1GB
from repro.gpu.specs import MIB
from repro.obs import RunningAggregate


def make_runtime(n_workers=2, policy=None):
    cluster = paper_cluster(n_workers, gpu_spec=TEST_GPU_1GB)
    return GroutRuntime(cluster, policy=policy or RoundRobinPolicy())


def simple_kernel(name="k", flops_per_byte=1.0):
    def access_fn(args):
        out = [ArrayAccess(args[0], Direction.INOUT)]
        out += [ArrayAccess(a, Direction.IN) for a in args[1:]
                if hasattr(a, "buffer_id")]
        return out

    return KernelSpec(name, flops_per_byte=flops_per_byte,
                      access_fn=access_fn)


class TestScheduling:
    def test_kernels_round_robin_across_workers(self):
        rt = make_runtime()
        k = simple_kernel()
        ces = [rt.launch(k, 4, 128, (rt.device_array(
            4, virtual_nbytes=MIB),)) for _ in range(4)]
        assert [ce.assigned_node for ce in ces] == [
            "worker0", "worker1", "worker0", "worker1"]

    def test_host_ces_stay_on_controller(self):
        rt = make_runtime()
        a = rt.device_array(4)
        ce = rt.host_write(a)
        assert ce.assigned_node == "controller"

    def test_stats_count_ces_and_decisions(self):
        rt = make_runtime()
        k = simple_kernel()
        for _ in range(3):
            rt.launch(k, 4, 128, (rt.device_array(4, virtual_nbytes=MIB),))
        stats = rt.controller.stats
        assert stats.ces_scheduled == 3
        assert len(stats.decision_seconds) == 3
        assert stats.mean_decision_seconds > 0


class TestDataMovement:
    def test_controller_to_worker_transfer_issued(self):
        rt = make_runtime()
        a = rt.device_array(4, virtual_nbytes=50 * MIB)
        rt.launch(simple_kernel(), 4, 128, (a,))
        assert rt.controller.stats.transfers_issued == 1
        assert rt.controller.stats.bytes_requested == 50 * MIB
        rt.sync()
        assert rt.cluster.fabric.bytes_moved == 50 * MIB

    def test_no_transfer_when_already_resident(self):
        rt = make_runtime(policy=VectorStepPolicy([10]))
        a = rt.device_array(4, virtual_nbytes=50 * MIB)
        k = simple_kernel()
        rt.launch(k, 4, 128, (a,))
        rt.launch(k, 4, 128, (a,))     # same node, data already valid
        assert rt.controller.stats.transfers_issued == 1
        rt.sync()

    def test_p2p_transfer_between_workers(self):
        rt = make_runtime(policy=RoundRobinPolicy())
        a = rt.device_array(4, virtual_nbytes=50 * MIB)
        k = simple_kernel()
        rt.launch(k, 4, 128, (a,))   # worker0 writes a
        rt.launch(k, 4, 128, (a,))   # worker1 must pull from worker0
        rt.sync()
        assert rt.controller.stats.p2p_transfers >= 1
        p2p = [s for s in rt.tracer.by_category("transfer")
               if s.lane == "net:worker0->worker1"]
        assert len(p2p) == 1

    def test_write_invalidates_remote_replicas(self):
        rt = make_runtime()
        a = rt.device_array(4, virtual_nbytes=50 * MIB)
        k = simple_kernel()
        rt.launch(k, 4, 128, (a,))   # worker0
        rt.launch(k, 4, 128, (a,))   # worker1 writes -> worker0 invalid
        directory = rt.controller.directory
        assert directory.holders(a) == {"worker1"}

    def test_reader_reuses_inflight_transfer(self):
        rt = make_runtime(policy=VectorStepPolicy([10]))
        a = rt.device_array(4, virtual_nbytes=50 * MIB)

        def read_only(args):
            return [ArrayAccess(args[0], Direction.IN)]

        k = KernelSpec("r", access_fn=read_only)
        rt.launch(k, 4, 128, (a,))
        rt.launch(k, 4, 128, (a,))
        # Only one replication of `a` to worker0 despite two readers.
        assert rt.controller.stats.transfers_issued == 1
        rt.sync()


class TestOrdering:
    def test_dependent_kernels_execute_in_order(self):
        rt = make_runtime()
        a = rt.device_array(8, np.float32, virtual_nbytes=MIB)
        log = []

        def make(tag):
            def executor(array):
                log.append(tag)

            def access_fn(args):
                return [ArrayAccess(args[0], Direction.INOUT)]

            return KernelSpec(tag, executor=executor, access_fn=access_fn)

        for tag in ("first", "second", "third"):
            rt.launch(make(tag), 1, 32, (a,))
        rt.sync()
        assert log == ["first", "second", "third"]

    def test_host_read_sees_kernel_result(self):
        rt = make_runtime()
        a = rt.device_array(8, np.float32, virtual_nbytes=MIB)

        def bump(array):
            array.data += 1.0

        def access_fn(args):
            return [ArrayAccess(args[0], Direction.INOUT)]

        k = KernelSpec("bump", executor=bump, access_fn=access_fn)
        rt.host_write(a, lambda: a.data.fill(1.0))
        rt.launch(k, 1, 32, (a,))
        out = rt.host_read(a)
        assert (out == 2.0).all()

    def test_host_read_pulls_data_back(self):
        rt = make_runtime()
        a = rt.device_array(4, virtual_nbytes=50 * MIB)
        rt.launch(simple_kernel(), 4, 128, (a,))
        rt.host_read(a)
        # transfer out + transfer back
        to_ctl = [s for s in rt.tracer.by_category("transfer")
                  if s.lane.endswith("->controller")]
        assert len(to_ctl) == 1

    def test_transfer_waits_for_producer(self):
        """A P2P transfer must not leave before the writer finished."""
        rt = make_runtime()
        a = rt.device_array(4, virtual_nbytes=100 * MIB)
        k = simple_kernel()
        rt.launch(k, 4, 128, (a,))
        rt.launch(k, 4, 128, (a,))
        rt.sync()
        kernels = rt.tracer.by_category("kernel")
        transfers = [s for s in rt.tracer.by_category("transfer")
                     if s.lane == "net:worker0->worker1"]
        assert transfers[0].start >= kernels[0].end


class TestDagMaintenance:
    def test_prune_keeps_dag_bounded(self, monkeypatch):
        monkeypatch.setattr(controller_mod, "PRUNE_EVERY", 8)
        rt = make_runtime()
        a = rt.device_array(4, virtual_nbytes=MIB)
        k = simple_kernel()
        for i in range(64):
            rt.launch(k, 4, 128, (a,))
            rt.sync()
        assert rt.controller.dag.size < 16


class TestRunningAggregate:
    def test_mean_is_exact(self):
        agg = RunningAggregate(capacity=4)       # smaller than the data
        samples = [float(i) for i in range(100)]
        for s in samples:
            agg.add(s)
        assert agg.mean == pytest.approx(sum(samples) / len(samples))
        assert agg.count == len(agg) == 100
        assert agg.minimum == 0.0 and agg.maximum == 99.0

    def test_memory_is_bounded(self):
        agg = RunningAggregate(capacity=16)
        for i in range(10_000):
            agg.add(float(i))
        assert len(agg._reservoir) == 16

    def test_reservoir_is_deterministic(self):
        def fill():
            agg = RunningAggregate(capacity=8, seed=3)
            for i in range(1000):
                agg.add(float(i))
            return agg._reservoir
        assert fill() == fill()

    def test_percentiles(self):
        agg = RunningAggregate(capacity=256)
        for i in range(101):
            agg.add(float(i))
        assert agg.percentile(0) == 0.0
        assert agg.percentile(50) == pytest.approx(50.0)
        assert agg.percentile(100) == 100.0
        with pytest.raises(ValueError):
            agg.percentile(101)

    def test_empty_aggregate(self):
        agg = RunningAggregate()
        assert agg.mean == 0.0
        assert agg.percentile(50) == 0.0
        assert len(agg) == 0

    def test_append_alias_keeps_call_sites_working(self):
        agg = RunningAggregate()
        agg.append(2.0)
        assert agg.count == 1 and agg.mean == 2.0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RunningAggregate(capacity=0)
