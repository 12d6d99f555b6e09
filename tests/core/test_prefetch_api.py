"""Unit tests of the hand-tuning primitives: prefetch + advise (§I)."""

import pytest

from repro.core import GrCudaRuntime, GroutRuntime
from repro.gpu import ArrayAccess, Direction, KernelSpec
from repro.gpu.specs import MIB
from repro.uvm import Advise


def read_kernel():
    def access_fn(args):
        return [ArrayAccess(args[0], Direction.IN)]

    return KernelSpec("reader", flops_per_byte=0.5, access_fn=access_fn)


class TestGrCudaPrefetch:
    def test_prefetch_makes_data_resident(self, small_spec):
        rt = GrCudaRuntime(gpu_spec=small_spec)
        a = rt.device_array(64, virtual_nbytes=100 * MIB)
        rt.prefetch(a, gpu_index=1)
        rt.sync()
        gpu = rt.node.gpus[1]
        assert rt.node.uvm.resident_bytes(a.buffer_id, gpu) == 100 * MIB

    def test_prefetched_kernel_launches_warm(self, small_spec):
        def run(with_prefetch):
            rt = GrCudaRuntime(gpu_spec=small_spec)
            a = rt.device_array(64, virtual_nbytes=200 * MIB)
            if with_prefetch:
                rt.prefetch(a, gpu_index=0)
                rt.sync()
                start = rt.elapsed
            else:
                start = 0.0
            rt.launch(read_kernel(), 4, 128, (a,))
            rt.sync()
            return rt.elapsed - start

        # post-prefetch kernel time excludes the migration entirely
        assert run(True) < run(False) / 3

    def test_prefetch_is_ordered_after_writer(self, small_spec):
        rt = GrCudaRuntime(gpu_spec=small_spec)
        a = rt.device_array(64, virtual_nbytes=50 * MIB)

        def access_fn(args):
            return [ArrayAccess(args[0], Direction.OUT)]

        writer = KernelSpec("writer", access_fn=access_fn)
        w = rt.launch(writer, 4, 128, (a,))
        p = rt.prefetch(a)
        rt.sync()
        assert p.done.processed and w.done.processed
        spans = {s.name: s for s in rt.tracer.spans
                 if s.category in ("kernel", "prefetch")}
        assert spans["prefetch:" + a.name].start >= \
            spans[w.display_name].end

    def test_prefetch_cheaper_than_faulting(self, small_spec):
        """Prefetch moves the same bytes without fault-batch latencies."""
        rt = GrCudaRuntime(gpu_spec=small_spec)
        a = rt.device_array(64, virtual_nbytes=200 * MIB)
        rt.prefetch(a)
        rt.sync()
        prefetch_time = rt.elapsed

        rt2 = GrCudaRuntime(gpu_spec=small_spec)
        b = rt2.device_array(64, virtual_nbytes=200 * MIB)
        rt2.launch(read_kernel(), 4, 128, (b,))
        rt2.sync()
        assert prefetch_time < rt2.elapsed


class TestGroutPrefetch:
    def test_explicit_worker_placement(self, small_spec):
        from repro.cluster import paper_cluster
        rt = GroutRuntime(paper_cluster(2, gpu_spec=small_spec))
        a = rt.device_array(64, virtual_nbytes=50 * MIB)
        ce = rt.prefetch(a, worker="worker1")
        rt.sync()
        assert ce.assigned_node == "worker1"
        assert rt.controller.directory.up_to_date_on(a, "worker1")

    def test_queued_prefetch_survives_a_later_remote_write(self):
        """Coherence drops worker1's replica when the later kernel is
        scheduled on worker0; the still-queued prefetch re-registers it
        when it starts instead of failing the run."""
        import numpy as np

        from repro.cluster import paper_cluster
        from repro.core import RoundRobinPolicy
        from repro.gpu import TEST_GPU_1GB

        rt = GroutRuntime(paper_cluster(2, gpu_spec=TEST_GPU_1GB),
                          policy=RoundRobinPolicy())
        a = rt.device_array(8, np.float32, virtual_nbytes=8 * MIB,
                            name="a")
        rt.host_write(a, lambda: a.data.fill(2.0))
        prefetch = rt.prefetch(a, worker="worker1")

        def access_fn(args):
            return [ArrayAccess(args[0], Direction.INOUT)]

        double = KernelSpec(
            "double", access_fn=access_fn,
            executor=lambda x: np.multiply(x.data, 2, out=x.data))
        ce = rt.launch(double, 8, 128, (a,))
        assert (prefetch.assigned_node, ce.assigned_node) == \
            ("worker1", "worker0")
        assert rt.host_read(a)[0] == 4.0
        assert rt.sync()
        assert prefetch.done.processed

    def test_unknown_worker_rejected(self, grout):
        a = grout.device_array(64, virtual_nbytes=MIB)
        with pytest.raises(KeyError):
            grout.prefetch(a, worker="ghost")

    def test_policy_picks_worker_when_unnamed(self, grout):
        a = grout.device_array(64, virtual_nbytes=MIB)
        ce = grout.prefetch(a)
        grout.sync()
        assert ce.assigned_node in ("worker0", "worker1")


class TestAdvise:
    def test_grcuda_read_mostly_suppresses_writeback(self, small_spec):
        rt = GrCudaRuntime(gpu_spec=small_spec)
        a = rt.device_array(64, virtual_nbytes=50 * MIB)
        rt.advise(a, Advise.READ_MOSTLY)

        def access_fn(args):
            return [ArrayAccess(args[0], Direction.OUT)]

        rt.launch(KernelSpec("w", access_fn=access_fn), 4, 128, (a,))
        rt.sync()
        host = rt.node.uvm.host_access(a.buffer_id, write=False)
        assert host.writeback_bytes == 0

    def test_grout_advise_reaches_all_workers(self, grout):
        a = grout.device_array(64, virtual_nbytes=MIB)
        grout.advise(a, Advise.READ_MOSTLY)
        for scheduler in grout.controller.workers.values():
            advises = scheduler.node.uvm.advises
            assert advises.for_buffer(a.buffer_id).read_mostly
