"""Unit tests of the GrCUDA single-node baseline runtime."""

import numpy as np
import pytest

from repro.cluster import paper_cluster
from repro.core import GrCudaRuntime, GroutRuntime
from repro.gpu import ArrayAccess, Direction, KernelSpec, TEST_GPU_1GB
from repro.gpu.specs import GIB, MIB


@pytest.fixture
def rt(small_spec):
    return GrCudaRuntime(gpu_spec=small_spec)


def inout_kernel(executor=None, name="k"):
    def access_fn(args):
        return [ArrayAccess(args[0], Direction.INOUT)]

    return KernelSpec(name, executor=executor, access_fn=access_fn)


class TestConstruction:
    def test_default_node_is_paper_worker(self):
        rt = GrCudaRuntime()
        assert len(rt.node.gpus) == 2
        assert rt.node.gpus[0].spec.name == "V100-16GB"

    def test_page_size_override(self):
        rt = GrCudaRuntime(page_size=16 * MIB)
        assert rt.node.gpus[0].spec.page_size == 16 * MIB

    def test_node_is_built_like_a_paper_cluster_worker(self):
        """The one node takes the keywords a paper_cluster worker takes."""
        kwargs = dict(gpus_per_worker=3, gpu_spec=TEST_GPU_1GB,
                      page_size=4 * MIB, seed=5)
        rt = GrCudaRuntime(**kwargs)
        worker = paper_cluster(1, **kwargs).workers[0]
        assert rt.node.spec == worker.spec
        assert len(rt.node.gpus) == 3
        assert [rt.node.name] == [n.name for n in rt.nodes] == \
            list(rt.workers)


def test_both_runtimes_share_one_host_api():
    """Listing 2: each host-API method has one body over both runtimes."""
    for name in ("device_array", "launch", "prefetch", "host_write",
                 "host_read", "host_barrier", "free", "sync", "shutdown",
                 "closed", "elapsed", "__enter__", "__exit__"):
        assert getattr(GrCudaRuntime, name) is getattr(GroutRuntime, name), \
            name


class TestAllocation:
    def test_alloc_counts_toward_oversubscription(self, rt):
        rt.device_array(4, virtual_nbytes=1 * GIB)
        # 1 GiB on 2x 1 GiB test GPUs
        assert rt.oversubscription() == pytest.approx(0.5)

    def test_free_lowers_oversubscription(self, rt):
        a = rt.device_array(4, virtual_nbytes=1 * GIB)
        rt.free(a)
        assert rt.oversubscription() == 0.0


class TestExecution:
    def test_kernel_runs_and_orders(self, rt):
        a = rt.device_array(8, np.float32, virtual_nbytes=MIB)
        log = []

        def make(tag):
            def ex(array):
                log.append(tag)

            return inout_kernel(ex, name=tag)

        for tag in ("a", "b"):
            rt.launch(make(tag), 1, 32, (a,))
        rt.sync()
        assert log == ["a", "b"]

    def test_host_read_writes_back_dirty_pages(self, rt):
        a = rt.device_array(8, np.float32, virtual_nbytes=50 * MIB)

        def bump(array):
            array.data += 1.0

        rt.launch(inout_kernel(bump), 1, 32, (a,))
        before = rt.elapsed
        rt.host_read(a)
        # the read had to wait for the kernel and pay the write-back
        assert rt.elapsed > before
        assert (a.data == 1.0).all()

    def test_host_write_invalidates_device_copy(self, rt):
        a = rt.device_array(8, np.float32, virtual_nbytes=50 * MIB)
        rt.launch(inout_kernel(), 1, 32, (a,))
        rt.sync()
        assert rt.node.uvm.resident_bytes(a.buffer_id) > 0
        rt.host_write(a, lambda: a.data.fill(2.0))
        rt.sync()
        assert rt.node.uvm.resident_bytes(a.buffer_id) == 0

    def test_independent_kernels_overlap_on_gpus(self, rt):
        a = rt.device_array(4, virtual_nbytes=100 * MIB)
        b = rt.device_array(4, virtual_nbytes=100 * MIB)
        rt.launch(inout_kernel(name="ka"), 4, 128, (a,))
        rt.launch(inout_kernel(name="kb"), 4, 128, (b,))
        rt.sync()
        spans = rt.tracer.by_category("kernel")
        assert len(spans) == 2
        assert spans[0].overlaps(spans[1])

    def test_sync_timeout(self, rt):
        a = rt.device_array(4, virtual_nbytes=500 * MIB)
        rt.launch(inout_kernel(), 4, 128, (a,))
        assert rt.sync(timeout=1e-9) is False
        assert rt.sync() is True


class TestWarmVsCold:
    def test_resident_data_is_fast(self, rt):
        a = rt.device_array(4, virtual_nbytes=200 * MIB)
        k = inout_kernel()
        rt.launch(k, 4, 128, (a,))
        rt.sync()
        cold_elapsed = rt.elapsed
        rt.launch(k, 4, 128, (a,))
        rt.sync()
        warm = rt.elapsed - cold_elapsed
        assert warm < cold_elapsed / 5

    def test_oversubscription_degrades(self, small_spec):
        def run(virtual_gb):
            rt = GrCudaRuntime(gpu_spec=small_spec)
            arrays = [rt.device_array(
                4, virtual_nbytes=int(virtual_gb * GIB / 4))
                for _ in range(4)]
            k = inout_kernel()
            for a in arrays:
                for _ in range(2):
                    rt.launch(k, 4, 128, (a,))
            rt.sync()
            return rt.elapsed

        fits = run(1.0)       # 1 GiB over 2x1 GiB devices
        spills = run(6.0)     # 3x oversubscription
        assert spills > 20 * fits
