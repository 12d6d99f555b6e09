"""Unit tests of the intra-node scheduler (Algorithm 2)."""

import numpy as np
import pytest

from repro.core import IntraNodeScheduler, ManagedArray
from repro.core import intranode
from repro.core.ce import CeKind, ComputationalElement
from repro.gpu import ArrayAccess, Direction, KernelSpec, LaunchConfig
from repro.gpu.specs import MIB


def make_kernel(tag, log=None):
    def executor(*args):
        if log is not None:
            log.append(tag)

    return KernelSpec(f"k_{tag}", flops_per_byte=1.0, executor=executor)


def kernel_ce(kernel, *accesses, label=None):
    return ComputationalElement(
        kind=CeKind.KERNEL, accesses=tuple(accesses), kernel=kernel,
        config=LaunchConfig((4,), (128,)), label=label)


@pytest.fixture
def sched(test_node, monkeypatch):
    monkeypatch.setattr(intranode, "MAX_STREAMS_PER_GPU", 2)
    return IntraNodeScheduler(test_node)


class TestValidation:
    def test_rejects_gpuless_node(self, engine):
        from repro.cluster import Node, PAPER_CONTROLLER
        node = Node(engine, "cpu", PAPER_CONTROLLER)
        with pytest.raises(ValueError):
            IntraNodeScheduler(node)

    def test_rejects_host_ces(self, sched):
        a = ManagedArray(4)
        host = ComputationalElement(
            kind=CeKind.HOST_READ, accesses=(ArrayAccess(a),))
        with pytest.raises(ValueError):
            sched.submit(host)


class TestPlacement:
    def test_independent_ces_spread_over_gpus(self, sched, engine):
        a = ManagedArray(4, virtual_nbytes=10 * MIB)
        b = ManagedArray(4, virtual_nbytes=10 * MIB)
        ce1 = kernel_ce(make_kernel("a"), ArrayAccess(a, Direction.INOUT))
        ce2 = kernel_ce(make_kernel("b"), ArrayAccess(b, Direction.INOUT))
        ce1.done = sched.submit(ce1)
        ce2.done = sched.submit(ce2)
        engine.run()
        assert ce1.assigned_lane != ce2.assigned_lane
        gpus = {lane.rsplit("/", 1)[0]
                for lane in (ce1.assigned_lane, ce2.assigned_lane)}
        assert len(gpus) == 2

    def test_buffer_affinity_pins_gpu(self, sched, engine):
        """Repeated kernels on the same big chunk stay on one device."""
        chunk = ManagedArray(4, virtual_nbytes=100 * MIB)
        lanes = set()
        prev = None
        for i in range(4):
            ce = kernel_ce(make_kernel(f"it{i}"),
                           ArrayAccess(chunk, Direction.INOUT))
            ce.done = sched.submit(ce)
            lanes.add(ce.assigned_lane.rsplit("/", 1)[0])
            prev = ce
        engine.run()
        assert len(lanes) == 1

    def test_small_shared_array_does_not_pin(self, sched, engine):
        """A broadcast vector must not drag the big chunks onto one GPU."""
        shared = ManagedArray(4, virtual_nbytes=1 * MIB)
        lanes = set()
        for i in range(4):
            chunk = ManagedArray(4, virtual_nbytes=200 * MIB)
            ce = kernel_ce(make_kernel(f"c{i}"),
                           ArrayAccess(chunk, Direction.IN),
                           ArrayAccess(shared, Direction.IN))
            ce.done = sched.submit(ce)
            lanes.add(ce.assigned_lane.rsplit("/", 1)[0])
        engine.run()
        assert len(lanes) == 2

    def test_dependent_chain_serialises(self, sched, engine):
        a = ManagedArray(4, virtual_nbytes=10 * MIB)
        log = []
        for i in range(3):
            ce = kernel_ce(make_kernel(i, log),
                           ArrayAccess(a, Direction.INOUT))
            ce.done = sched.submit(ce)
        engine.run()
        assert log == [0, 1, 2]

    def test_executor_runs_with_args(self, sched, engine):
        a = ManagedArray(8, np.float32)

        def fill(array):
            array.data[:] = 5.0

        kernel = KernelSpec("fill", executor=fill)
        ce = ComputationalElement(
            kind=CeKind.KERNEL,
            accesses=(ArrayAccess(a, Direction.OUT),),
            kernel=kernel, config=LaunchConfig((1,), (32,)),
            args=(a,))
        ce.done = sched.submit(ce)
        engine.run()
        assert (a.data == 5.0).all()

    def test_kernel_costs_recorded(self, sched, engine):
        a = ManagedArray(4, virtual_nbytes=10 * MIB)
        ce = kernel_ce(make_kernel("x"), ArrayAccess(a, Direction.IN))
        ce.done = sched.submit(ce)
        engine.run()
        cost = ce.done.value
        assert cost.duration > 0
        assert sched.kernel_totals["k_x"] == [1, cost.duration]


class TestWaits:
    def test_external_waits_respected(self, sched, engine):
        gate = engine.timeout(5.0)
        a = ManagedArray(4, virtual_nbytes=MIB)
        ce = kernel_ce(make_kernel("gated"), ArrayAccess(a, Direction.IN))
        ce.done = sched.submit(ce, waits=[gate])
        engine.run()
        assert engine.now >= 5.0


class TestReplicas:
    def test_drop_replica_clears_uvm(self, sched, engine):
        a = ManagedArray(4, virtual_nbytes=10 * MIB)
        ce = kernel_ce(make_kernel("w"), ArrayAccess(a, Direction.INOUT))
        ce.done = sched.submit(ce)
        engine.run()
        uvm = sched.node.uvm
        assert uvm.resident_bytes(a.buffer_id) > 0
        sched.drop_replica(a)
        assert not uvm.is_registered(a.buffer_id)

    def test_writeback_seconds_for_dirty(self, sched, engine):
        a = ManagedArray(4, virtual_nbytes=10 * MIB)
        ce = kernel_ce(make_kernel("w"), ArrayAccess(a, Direction.OUT))
        ce.done = sched.submit(ce)
        engine.run()
        assert sched.writeback_seconds(a) > 0
        assert sched.writeback_seconds(a) == 0.0   # now clean

    def test_writeback_unknown_array_free(self, sched):
        assert sched.writeback_seconds(ManagedArray(4)) == 0.0


class TestDagPruneThrottle:
    def _chain(self, sched, engine, n):
        a = ManagedArray(4, virtual_nbytes=MIB)
        for i in range(n):
            ce = kernel_ce(make_kernel(f"s{i}"),
                           ArrayAccess(a, Direction.INOUT))
            ce.done = sched.submit(ce)
        engine.run()

    def test_completed_ces_pruned_periodically(self, test_node, engine,
                                               monkeypatch):
        """Regression: the local DAG must not grow for the whole run."""
        monkeypatch.setattr(intranode, "PRUNE_EVERY", 4)
        sched = IntraNodeScheduler(test_node)
        self._chain(sched, engine, 8)
        # Two prunes fired (at 4 and 8); only the frontier CE survives.
        assert len(sched.local_dag.nodes()) == 1

    def test_prune_respects_throttle(self, test_node, engine):
        sched = IntraNodeScheduler(test_node)
        self._chain(sched, engine, 8)
        assert len(sched.local_dag.nodes()) == 8   # no prune yet


class TestRecoveryHooks:
    def test_abort_inflight_kills_pending_ops(self, sched, engine):
        log = []
        a = ManagedArray(4, virtual_nbytes=MIB)
        for i in range(3):
            ce = kernel_ce(make_kernel(f"a{i}", log),
                           ArrayAccess(a, Direction.INOUT))
            ce.done = sched.submit(ce)
        assert sched.abort_inflight(("node-crash", "test")) == 3
        engine.run()
        assert log == []                    # nothing executed

    def test_abort_inflight_idempotent(self, sched):
        assert sched.abort_inflight() == 0

    def test_fresh_stream_submit_avoids_busy_tails(self, sched, engine):
        """A fresh-stream submit must not queue behind pending work —
        recovery relies on this to break stream-FIFO entanglement."""
        a = ManagedArray(4, virtual_nbytes=MIB)
        gate = engine.timeout(5.0)
        blocked = kernel_ce(make_kernel("blocked"),
                            ArrayAccess(a, Direction.IN))
        blocked.done = sched.submit(blocked, waits=[gate])
        b = ManagedArray(4, virtual_nbytes=MIB)
        free = kernel_ce(make_kernel("free"),
                         ArrayAccess(b, Direction.IN))
        free.done = sched.submit(free, fresh_stream=True)
        engine.run(until=free.done)
        assert engine.now < 5.0             # did not wait for the gate
