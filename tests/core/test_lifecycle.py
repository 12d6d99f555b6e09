"""Runtime/session lifecycle: shutdown, context managers, teardown leaks."""

import collections
import gc

import numpy as np
import pytest

# Imported up front: a module's first import (dataclass(slots=True)
# rebuilds its classes) leaves cyclic garbage of its own, which the
# teardown checks below must not mistake for a leaked runtime.
import repro.core.plancache  # noqa: F401
import repro.core.shard  # noqa: F401
from repro.bench.scale import WORKLOADS as SCALE_WORKLOADS
from repro.cluster import paper_cluster
from repro.core import (GrCudaRuntime, GroutRuntime, RoundRobinPolicy,
                        RuntimeConfig, SessionClosedError)
from repro.gpu import TEST_GPU_1GB
from repro.gpu.specs import MIB
from repro.serve import GroutService, WorkloadSpec
from repro.sim import FaultPlan, SimError
from repro.workloads import make_workload

FOOTPRINT = 8 * MIB


def _runtime(**kwargs):
    cluster = paper_cluster(2, gpu_spec=TEST_GPU_1GB)
    return GroutRuntime(cluster, policy=RoundRobinPolicy(), **kwargs)


def _run_workload(rt):
    wl = make_workload("mv", FOOTPRINT, seed=3)
    res = wl.execute(rt, timeout=9000, check=True)
    assert res.completed and res.verified


def _assert_no_cyclic_garbage(when: str) -> None:
    """A full collection must find nothing unreachable: everything
    dropped so far was freed by reference counting alone."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = collections.Counter(type(o).__qualname__
                                    for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not found, (f"{when}: {sum(found.values())} objects left to "
                       f"the cyclic collector, {found.most_common(8)}")


# Teardown cases: each runs a small program, shuts down and drops every
# reference on return; ``check`` runs the garbage check mid-case.

def _grout_case(check, **knobs):
    rt = _runtime(**knobs)
    _run_workload(rt)
    rt.shutdown()
    assert rt.engine.peek() == float("inf")


def _plan_cache_case(check):
    rt = _runtime(plan_cache=True)
    for name in ("first", "replay"):
        with rt.session(name, plan_key="mv") as session:
            wl = make_workload("mv", FOOTPRINT, seed=3)
            wl.build(session)
            wl.run(session)
        assert wl.verify()
    hits = rt.metrics.family("grout_plancache_hits_total")
    assert hits.value_sum() == 1
    rt.shutdown()


def _fault_case(check):
    rt = _runtime()
    rt.install_faults(FaultPlan.parse("crash:worker1@0.0005"))
    _run_workload(rt)
    assert rt.controller.stats.worker_crashes == 1
    rt.shutdown()


def _shard_case(check):
    # Shard workers run in their own processes, so the program carries
    # no host callables.
    rt = _runtime(shards=2)
    SCALE_WORKLOADS["deep"](rt, 64)
    assert rt.sync()
    rt.shutdown()


def _grcuda_case(check):
    rt = GrCudaRuntime(gpu_spec=TEST_GPU_1GB)
    _run_workload(rt)
    rt.shutdown()


def _service_case(check):
    service = GroutService(RuntimeConfig(policy="round-robin"))
    for seed in range(3):
        service.submit(WorkloadSpec(workload="mv",
                                    footprint_bytes=FOOTPRINT, seed=seed))
    reports = service.settle_all()
    assert all(r["completed"] and r["verified"] for r in reports)
    # Settled sessions were reclaimed and dropped while the service
    # lives on.
    check("after settling and reclaiming sessions")
    service.close()


TEARDOWN_CASES = {
    "grout": _grout_case,
    "plan-cache": _plan_cache_case,
    "collectives": lambda check: _grout_case(check, collectives=True),
    "chunk-bytes": lambda check: _grout_case(check, chunk_bytes=MIB),
    "faults": _fault_case,
    "shards": _shard_case,
    "grcuda": _grcuda_case,
    "service": _service_case,
}


class TestGroutShutdown:
    def test_idempotent(self):
        rt = _runtime()
        _run_workload(rt)
        rt.shutdown()
        rt.shutdown()          # second call is a no-op
        assert rt.closed

    def test_drains_engine_and_seals_metrics(self):
        rt = _runtime()
        _run_workload(rt)
        rt.engine.timeout(1e9, name="straggler")
        rt.shutdown()
        assert rt.engine.peek() == float("inf")
        # Accumulated metrics stay readable after the registry is sealed.
        family = rt.metrics.family("grout_ces_scheduled_total")
        assert family.value_sum() > 0

    def test_rejects_work_after_shutdown(self):
        rt = _runtime()
        rt.shutdown()
        with pytest.raises(SimError, match="shut down"):
            rt.session("late")
        with pytest.raises(SimError, match="shut down"):
            rt.controller.schedule(object())

    def test_context_manager(self):
        with _runtime() as rt:
            _run_workload(rt)
        assert rt.closed

    def test_post_shutdown_surfaces(self):
        rt = _runtime()
        _run_workload(rt)
        rt.shutdown()
        assert rt.engine.now > 0 and rt.engine.events_processed > 0
        assert rt.controller.stats.ces_scheduled > 0
        assert rt.controller.directory is not None
        assert sorted(rt.controller.workers) == ["worker0", "worker1"]
        assert any(span.category == "kernel" for span in rt.tracer.spans)
        gpu = rt.cluster.workers[0].gpus[0]
        assert gpu.streams
        assert gpu.streams[0].gpu is gpu
        assert gpu.streams[0].lane == "worker0/gpu0/stream0"
        # A sealed registry still takes writes, without series points.
        counter = rt.metrics.counter("late_writes_total").labels()
        counter.inc()
        assert counter.value == 1 and counter.series == []

    def test_finalizes_open_sessions(self):
        rt = _runtime()
        session = rt.session("p0")
        rt.shutdown()
        assert session.closed
        closed = rt.metrics.family("grout_sessions_closed_total")
        assert closed.value_sum() == 1

    @pytest.mark.parametrize("case", list(TEARDOWN_CASES))
    def test_back_to_back_constructions_do_not_leak(self, case):
        # Runtime N must not bleed into runtime N+1 built right after:
        # a shut-down runtime is freed when its last reference drops,
        # leaving nothing for a full collection inside the next run.
        gc.collect()
        gc.disable()
        try:
            TEARDOWN_CASES[case](_assert_no_cyclic_garbage)
            _assert_no_cyclic_garbage("after shutdown")
        finally:
            gc.enable()


class TestGrCudaShutdown:
    def test_idempotent_and_context_manager(self):
        with GrCudaRuntime(gpu_spec=TEST_GPU_1GB) as rt:
            wl = make_workload("mv", FOOTPRINT, seed=3)
            res = wl.execute(rt, timeout=9000, check=True)
            assert res.completed and res.verified
        assert rt.closed
        rt.shutdown()          # still a no-op
        assert rt.engine.peek() == float("inf")


class TestSessionLifecycle:
    def test_state_machine(self):
        rt = _runtime()
        session = rt.session("p0")
        assert session.state == "open"
        assert session.close()
        assert session.state == "closed"
        assert session.close()             # idempotent
        rt.shutdown()

    def test_close_drains_outstanding_work(self):
        rt = _runtime()
        session = rt.session("p0")
        wl = make_workload("mv", FOOTPRINT, seed=5)
        wl.build(session)
        wl.run(session)
        assert session.pending_events()
        assert session.close()
        assert not session.pending_events()
        assert wl.verify()
        rt.shutdown()

    def test_closed_session_rejects_submissions(self):
        rt = _runtime()
        session = rt.session("p0")
        session.close()
        with pytest.raises(SessionClosedError, match="closed"):
            session.device_array(16, np.float32)
        rt.shutdown()

    def test_close_releases_the_name(self):
        rt = _runtime()
        first = rt.session("p0")
        first.close()
        second = rt.session("p0")          # name is free again
        assert second is not first
        assert [s.name for s in rt.sessions()] == ["p0"]
        rt.shutdown()

    def test_context_manager_and_lifetime_metric(self):
        rt = _runtime()
        with rt.session("p0") as session:
            wl = make_workload("mv", FOOTPRINT, seed=5)
            wl.build(session)
            wl.run(session)
        assert session.closed
        assert session.closed_at is not None
        assert session.closed_at >= session.created_at
        lifetime = rt.metrics.family("grout_session_lifetime_seconds")
        assert lifetime.labels().count == 1
        rt.shutdown()
