"""Integration tests of crash recovery: fault injection against real runs.

The headline acceptance test of the failure-resilience work: a seeded run
with one injected mid-run worker crash completes with results bit-identical
to the fault-free run.
"""

import numpy as np
import pytest

from repro.cluster import paper_cluster
from repro.core import GroutRuntime, RoundRobinPolicy
from repro.gpu import ArrayAccess, Direction, KernelSpec, TEST_GPU_1GB
from repro.gpu.specs import MIB
from repro.sim import FaultPlan, SimError
from repro.workloads import make_workload

from tests.core.test_controller import make_runtime, simple_kernel

FOOTPRINT = 64 * MIB


def run_bs(faults=None, *, n_workers=2, request_replacement=False):
    """One Black–Scholes run on a fresh cluster; returns (rt, wl, result)."""
    cluster = paper_cluster(n_workers, gpu_spec=TEST_GPU_1GB)
    rt = GroutRuntime(cluster, policy=RoundRobinPolicy())
    if faults is not None:
        rt.install_faults(faults, request_replacement=request_replacement)
    wl = make_workload("bs", FOOTPRINT)
    result = wl.execute(rt)
    return rt, wl, result


@pytest.fixture(scope="module")
def baseline():
    """Fault-free reference: elapsed time and the priced option books."""
    _, wl, result = run_bs()
    assert result.verified
    prices = [(c["call"].data.copy(), c["put"].data.copy())
              for c in wl.chunks]
    return result.elapsed_seconds, prices


class TestCrashRecovery:
    def test_midrun_crash_completes_and_verifies(self, baseline):
        elapsed, _ = baseline
        rt, _, result = run_bs(
            FaultPlan.single_crash("worker0", elapsed / 2))
        assert result.completed and result.verified
        assert rt.controller.stats.worker_crashes == 1
        assert rt.controller.stats.ces_reexecuted >= 1
        assert "worker0" not in rt.controller.workers
        assert list(rt.controller.workers) == ["worker1"]

    def test_crash_results_bit_identical(self, baseline):
        elapsed, prices = baseline
        _, wl, result = run_bs(
            FaultPlan.single_crash("worker0", elapsed / 2))
        assert result.verified
        for chunk, (call, put) in zip(wl.chunks, prices):
            np.testing.assert_array_equal(chunk["call"].data, call)
            np.testing.assert_array_equal(chunk["put"].data, put)

    def test_crash_recovery_is_deterministic(self, baseline):
        elapsed, _ = baseline
        plan = FaultPlan.single_crash("worker0", elapsed / 2)
        first = run_bs(plan)[2]
        second = run_bs(plan)[2]
        assert first.elapsed_seconds == second.elapsed_seconds

    def test_replacement_worker_joins(self, baseline):
        elapsed, _ = baseline
        rt, _, result = run_bs(
            FaultPlan.single_crash("worker0", elapsed / 2),
            request_replacement=True)
        assert result.verified
        assert "worker0" not in rt.controller.workers
        assert len(rt.controller.workers) == 2   # replacement arrived

    def test_direct_crash_schedules_like_a_fault_plan_crash(self):
        """A direct ``handle_worker_crash`` call repairs in-flight moves
        exactly like the same crash armed from a ``FaultPlan``: same
        clock, same engine deliveries, same re-sourced moves."""
        from tests.core.pipeline.test_schedule_regression import drive

        def run(direct):
            cluster = paper_cluster(3, gpu_spec=TEST_GPU_1GB)
            rt = GroutRuntime(cluster, policy=RoundRobinPolicy())
            if direct:
                # The strike's hops: a start hop, the sleep, the crash,
                # then one terminal zero-delay delivery.
                engine = rt.engine

                def crash(_arg):
                    rt.controller.handle_worker_crash("worker0")
                    engine.schedule_call(0.0, lambda _a: None)

                engine.schedule_call(0.0, lambda _a: engine.schedule_call(
                    0.113119, crash))
            else:
                rt.install_faults(FaultPlan.parse("crash:worker0@0.113119"))
            drive(rt)
            return (rt.engine.now, rt.engine.events_processed,
                    rt.controller.stats.transfers_rerouted)

        direct = run(direct=True)
        assert direct[2] > 0              # moves from worker0 re-sourced
        assert direct == run(direct=False)

    def test_queued_prefetch_reexecutes_on_a_fresh_stream(self):
        """A user-directed prefetch still queued on the crashed worker
        re-runs on a survivor's fresh stream, and the kernel reading its
        array still sees the host-written values."""
        rt = make_runtime(n_workers=3)
        rt.install_faults(FaultPlan.parse("crash:worker0@0.00005"))
        a = rt.device_array(8, np.float32, virtual_nbytes=64 * MIB,
                            name="a")
        b = rt.device_array(8, np.float32, virtual_nbytes=8 * MIB,
                            name="b")
        rt.host_write(a, lambda: a.data.fill(2.0))
        prefetch = rt.prefetch(a, worker="worker0")

        def access_fn(args):
            return [ArrayAccess(args[0], Direction.IN),
                    ArrayAccess(args[1], Direction.OUT)]

        double = KernelSpec(
            "double", flops_per_byte=0.5, access_fn=access_fn,
            executor=lambda x, y: np.multiply(x.data, 2, out=y.data))
        rt.launch(double, 8, 128, (a, b))
        assert rt.host_read(b)[0] == 4.0
        assert rt.sync()
        assert rt.controller.stats.ces_reexecuted >= 1
        assert prefetch.assigned_lane == "worker2/gpu0/stream0"
        # Clock and deliveries are pinned: the re-executed prefetch
        # must take the same hops on its fresh stream.
        assert rt.engine.now == 0.17993583776
        assert rt.engine.events_processed == 60

    def test_crash_of_unknown_worker_raises(self):
        rt = make_runtime()
        with pytest.raises(KeyError):
            rt.controller.handle_worker_crash("nope")

    def test_crash_of_sole_worker_raises(self):
        rt = make_runtime(n_workers=1)
        rt.launch(simple_kernel(), 4, 128,
                  (rt.device_array(4, virtual_nbytes=MIB),))
        with pytest.raises(SimError):
            rt.controller.handle_worker_crash("worker0")

    def test_recovery_report_fields(self):
        rt = make_runtime()
        k = simple_kernel()
        ces = [rt.launch(k, 4, 128, (rt.device_array(
            4, virtual_nbytes=MIB),)) for _ in range(4)]
        report = rt.controller.handle_worker_crash("worker0")
        assert report.node == "worker0"
        assert report.ces_reexecuted == 2      # round-robin gave it 2 of 4
        assert report.replacement is None
        assert rt.sync()
        assert all(ce.done.processed for ce in ces)

    def test_reexecuted_ces_land_on_survivors(self):
        rt = make_runtime(n_workers=3)
        k = simple_kernel()
        ces = [rt.launch(k, 4, 128, (rt.device_array(
            4, virtual_nbytes=MIB),)) for _ in range(6)]
        rt.controller.handle_worker_crash("worker1")
        assert rt.sync()
        assert all(ce.assigned_node in ("worker0", "worker2")
                   for ce in ces)


class TestOtherFaults:
    def test_link_degrade_slows_the_run(self, baseline):
        elapsed, _ = baseline
        _, _, result = run_bs(FaultPlan.parse(
            "degrade:controller-worker0@0.0x0.1,"
            "degrade:controller-worker1@0.0x0.1"))
        assert result.verified
        assert result.elapsed_seconds > elapsed

    def test_flake_retries_and_still_verifies(self, baseline):
        elapsed, _ = baseline
        rt, _, result = run_bs(FaultPlan.parse(f"flake@{elapsed / 4}*2"))
        assert result.verified
        assert rt.cluster.fabric.retry_count >= 1

    def test_flake_injected_after_launches_is_retried(self):
        """Regression: a flake armed on the fabric once launches were
        issued (their moves already queued) is retried like one armed
        before the first launch — same retry, same finish time."""
        def run(arm_first):
            rt = make_runtime()
            a = rt.device_array(8, np.float32, virtual_nbytes=256 * MIB,
                                name="a")
            if arm_first:
                rt.cluster.fabric.inject_flake()
            rt.host_write(a, lambda: a.data.fill(1.0))
            k = simple_kernel()
            for _ in range(4):
                rt.launch(k, 8, 128, (a,))
            if not arm_first:
                rt.cluster.fabric.inject_flake()
            rt.host_read(a)
            assert rt.sync()
            assert np.all(a.data == 1.0)
            return rt.engine.now, rt.cluster.fabric.retry_count

        late_elapsed, late_retries = run(arm_first=False)
        assert late_retries == 1
        assert (late_elapsed, late_retries) == run(arm_first=True)

    def test_injector_stats_surface(self, baseline):
        elapsed, _ = baseline
        cluster = paper_cluster(2, gpu_spec=TEST_GPU_1GB)
        rt = GroutRuntime(cluster, policy=RoundRobinPolicy())
        injector = rt.install_faults(
            FaultPlan.single_crash("worker1", elapsed / 2))
        wl = make_workload("bs", FOOTPRINT)
        assert wl.execute(rt).verified
        assert injector.stats.injected == 1
        assert injector.stats.by_kind == {"worker-crash": 1}


class TestFaultFreeEquivalence:
    def test_armed_empty_plan_changes_nothing(self, baseline):
        elapsed, prices = baseline
        _, wl, result = run_bs(FaultPlan())
        assert result.elapsed_seconds == elapsed
        for chunk, (call, put) in zip(wl.chunks, prices):
            np.testing.assert_array_equal(chunk["call"].data, call)
            np.testing.assert_array_equal(chunk["put"].data, put)
