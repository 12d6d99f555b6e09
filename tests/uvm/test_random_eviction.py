"""Random eviction on every path that frees device pages.

Demand faults, explicit prefetch and NVLink peer pulls all evict under
pressure; each must hand the device's generator to the page table, or
``eviction_order="random"`` fails the first time memory runs out.
"""

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
from repro.sim import Engine
from repro.uvm import UvmSpace

SPEC = TEST_GPU_1GB.with_page_size(1 * MIB)   # 1024 device pages


class Buf:
    _next = iter(range(1, 100000))

    def __init__(self, nbytes):
        self.nbytes = nbytes
        self.buffer_id = next(self._next)


def make_space(n_gpus, seed=0):
    engine = Engine()
    gpus = [Gpu(engine, SPEC, node_name="n", index=i)
            for i in range(n_gpus)]
    return UvmSpace(gpus, eviction_order="random", seed=seed), gpus


def launch_for(buf):
    return KernelLaunch(KernelSpec("k", flops_per_byte=1.0),
                        LaunchConfig((16,), (256,)), (buf,),
                        (ArrayAccess(buf, Direction.IN),))


def resident_pages(space, gpu):
    return space._device(gpu).table.resident_pages


class TestRandomEviction:
    def test_prefetch_under_pressure(self):
        space, gpus = make_space(1)
        first, second = Buf(800 * MIB), Buf(400 * MIB)
        for buf in (first, second):
            space.register(buf)
        space.prefetch(gpus[0], first)
        space.prefetch(gpus[0], second)
        assert space.resident_bytes(second.buffer_id, gpus[0]) == 400 * MIB
        assert space.resident_bytes(first.buffer_id, gpus[0]) == 624 * MIB
        assert resident_pages(space, gpus[0]) == SPEC.total_pages

    def test_peer_pull_under_pressure(self):
        space, gpus = make_space(2)
        moved, local = Buf(600 * MIB), Buf(700 * MIB)
        for buf in (moved, local):
            space.register(buf)
        space.price_kernel(gpus[0], launch_for(moved))
        space.price_kernel(gpus[1], launch_for(local))
        cost = space.price_kernel(gpus[1], launch_for(moved))
        assert cost.peer_bytes == 600 * MIB
        assert space.resident_bytes(moved.buffer_id, gpus[1]) == 600 * MIB
        assert space.resident_bytes(local.buffer_id, gpus[1]) == 424 * MIB

    def test_victims_follow_the_seed(self):
        def victims(seed):
            space, gpus = make_space(1, seed=seed)
            first, second = Buf(800 * MIB), Buf(400 * MIB)
            for buf in (first, second):
                space.register(buf)
            space.prefetch(gpus[0], first)
            space.prefetch(gpus[0], second)
            table = space._device(gpus[0]).table
            return table.buffer(first.buffer_id).resident.copy()

        assert (victims(3) == victims(3)).all()
        assert (victims(3) != victims(4)).any()
