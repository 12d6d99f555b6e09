"""Unit tests of the collective TransferPlanner (broadcast relay chains)."""


from repro.cluster import paper_cluster
from repro.core import (
    GroutRuntime,
    LeastLoadedPolicy,
    RelayPlan,
    RoundRobinPolicy,
)
from repro.gpu import ArrayAccess, Direction, KernelSpec, TEST_GPU_1GB
from repro.gpu.specs import MIB


def make_runtime(n_workers=4, *, policy=None, collectives=True,
                 chunk_bytes=None):
    cluster = paper_cluster(n_workers, gpu_spec=TEST_GPU_1GB)
    return GroutRuntime(cluster, policy=policy or RoundRobinPolicy(),
                        collectives=collectives, chunk_bytes=chunk_bytes)


def read_kernel(name="k"):
    def access_fn(args):
        return [ArrayAccess(args[0], Direction.IN)]
    return KernelSpec(name, access_fn=access_fn)


def write_kernel(name="w"):
    def access_fn(args):
        return [ArrayAccess(args[0], Direction.INOUT)]
    return KernelSpec(name, access_fn=access_fn)


def counter(rt, name):
    return rt.metrics.family(name).labels().value


class TestCoalescing:
    def test_window_coalesces_into_one_broadcast(self):
        rt = make_runtime()
        shared = rt.device_array(4, virtual_nbytes=64 * MIB)
        k = read_kernel()
        for _ in range(4):
            rt.launch(k, 4, 128, (shared,))
        assert rt.sync()
        assert counter(rt, "grout_collective_broadcasts_total") == 1
        assert counter(rt, "grout_collective_destinations_total") == 4
        holders = rt.controller.directory.holders(shared)
        assert holders == {"controller", "worker0", "worker1",
                           "worker2", "worker3"}

    def test_disabled_planner_never_fires(self):
        rt = make_runtime(collectives=False)
        shared = rt.device_array(4, virtual_nbytes=64 * MIB)
        k = read_kernel()
        for _ in range(4):
            rt.launch(k, 4, 128, (shared,))
        assert rt.sync()
        assert counter(rt, "grout_collective_broadcasts_total") == 0
        assert not rt.controller.planner.enabled

    def test_separate_windows_get_separate_plans(self):
        rt = make_runtime(n_workers=2)
        shared = rt.device_array(4, virtual_nbytes=64 * MIB)
        k = read_kernel()
        rt.launch(k, 4, 128, (shared,))
        assert rt.sync()                    # closes the first window
        second = rt.device_array(4, virtual_nbytes=64 * MIB)
        rt.launch(k, 4, 128, (second,))
        assert rt.sync()
        assert counter(rt, "grout_collective_broadcasts_total") == 2

    def test_relay_spans_recorded(self):
        rt = make_runtime(chunk_bytes=16 * MIB)
        shared = rt.device_array(4, virtual_nbytes=64 * MIB)
        k = read_kernel()
        for _ in range(4):
            rt.launch(k, 4, 128, (shared,))
        assert rt.sync()
        relays = rt.tracer.by_category("relay")
        assert len(relays) == 4             # one span per leg
        assert all(s.meta["chunks"] == 4 for s in relays)
        assert rt.tracer.by_category("chunk")

    def test_chunked_relay_pipelines(self):
        # The pipelined chain beats the store-and-forward chain: chunk c
        # crosses hop i+1 while chunk c+1 crosses hop i.
        def distribution_time(chunk_bytes):
            rt = make_runtime(chunk_bytes=chunk_bytes)
            shared = rt.device_array(4, virtual_nbytes=64 * MIB)
            k = read_kernel()
            for _ in range(4):
                rt.launch(k, 4, 128, (shared,))
            assert rt.sync()
            relays = rt.tracer.by_category("relay")
            return max(s.end for s in relays)

        assert distribution_time(8 * MIB) < distribution_time(None)

    def test_write_in_window_does_not_resurrect_readers(self):
        rt = make_runtime(n_workers=3)
        shared = rt.device_array(4, virtual_nbytes=64 * MIB)
        rt.launch(read_kernel(), 4, 128, (shared,))      # -> worker0
        rt.launch(read_kernel(), 4, 128, (shared,))      # -> worker1
        rt.launch(write_kernel(), 4, 128, (shared,))     # -> worker2
        assert rt.sync()
        # The write invalidated every other copy; the relay driver must
        # not re-add the read destinations afterwards.
        assert rt.controller.directory.holders(shared) == {"worker2"}

    def test_zero_byte_plan_completes(self, engine):
        rt = make_runtime(n_workers=2)
        tiny = rt.device_array(1, virtual_nbytes=16)
        k = read_kernel()
        rt.launch(k, 1, 32, (tiny,))
        rt.launch(k, 1, 32, (tiny,))
        assert rt.sync()


class TestRelayLegInterrupts:
    def test_interrupt_before_launch_fails_the_leg(self):
        """Before the window closes a leg has no chain position to
        re-source from: even a crash cause fails it."""
        from repro.core.pipeline.movement import NODE_CRASH
        from repro.sim import Interrupt
        rt = make_runtime()
        shared = rt.device_array(4, virtual_nbytes=64 * MIB)
        leg = rt.controller.planner.request(shared, "worker0", None)
        other = rt.controller.planner.request(shared, "worker1", None)
        leg.interrupt((NODE_CRASH, "worker1"))
        leg._defused = True
        rt.engine.run()
        assert not leg.ok and isinstance(leg.value, Interrupt)
        # The dead leg left the chain; its sibling shipped from home.
        assert other.ok and other.value == shared.nbytes
        relays = [s.name for s in rt.tracer.spans if s.category == "relay"]
        assert relays == ["controller->worker1"]


class TestChainOrdering:
    def test_greedy_chain_follows_topology(self):
        rt = make_runtime()
        topo = rt.cluster.topology
        # Make controller->worker2 and worker2->worker0 the fast path.
        topo.set_link("controller", "worker2", bandwidth=100e9)
        topo.set_link("worker2", "worker0", bandwidth=100e9)
        shared = rt.device_array(4, virtual_nbytes=64 * MIB)
        planner = rt.controller.planner
        plan = RelayPlan(shared, "controller", None, [shared.nbytes],
                         rt.engine.event())
        chain = planner._order_chain(
            plan, ["worker0", "worker1", "worker2", "worker3"])
        assert chain[:3] == ["controller", "worker2", "worker0"]

    def test_ties_break_by_name(self):
        rt = make_runtime()
        shared = rt.device_array(4, virtual_nbytes=64 * MIB)
        planner = rt.controller.planner
        plan = RelayPlan(shared, "controller", None, [shared.nbytes],
                         rt.engine.event())
        chain = planner._order_chain(
            plan, ["worker3", "worker1", "worker0", "worker2"])
        assert chain == ["controller", "worker0", "worker1", "worker2",
                         "worker3"]


class TestLeastLoadedRegression:
    def test_load_drains_under_the_controller(self):
        # Regression: assign() used to try attaching the completion
        # credit before the controller created ce.done, so the load
        # never drained and one worker gravity-welled everything.
        policy = LeastLoadedPolicy()
        rt = make_runtime(n_workers=2, policy=policy, collectives=False)
        k = write_kernel()
        ces = []
        for _ in range(4):
            ces.append(rt.launch(
                k, 4, 128, (rt.device_array(4, virtual_nbytes=MIB),)))
        assert policy._outstanding  # charged while in flight
        assert rt.sync()
        assert all(ce.done.processed for ce in ces)
        assert all(v == 0.0 for v in policy._outstanding.values())
        assert not policy._pending

    def test_balanced_placement_across_stream(self):
        policy = LeastLoadedPolicy()
        rt = make_runtime(n_workers=2, policy=policy, collectives=False)
        k = write_kernel()
        ces = [rt.launch(k, 4, 128,
                         (rt.device_array(4, virtual_nbytes=MIB),))
               for _ in range(6)]
        assert rt.sync()
        nodes = [ce.assigned_node for ce in ces]
        assert set(nodes) == {"worker0", "worker1"}
        assert nodes.count("worker0") == nodes.count("worker1")
