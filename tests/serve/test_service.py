"""GroutService — admission, quotas, progress, reports, teardown."""

import weakref

import pytest

from repro.core import RuntimeConfig
from repro.gpu.specs import MIB
from repro.serve import (GroutService, QuotaError, ServiceClosed,
                         SpecError, WorkloadSpec)

FOOTPRINT = 16 * MIB

SQUARE_SRC = ("__global__ void square(float* x, int n) {"
              " int i = blockIdx.x * blockDim.x + threadIdx.x;"
              " if (i < n) x[i] = x[i] * x[i]; }")

MANIFEST = {
    "arrays": [{"name": "x", "type": "float[64]"}],
    "kernels": [{"name": "square", "source": SQUARE_SRC,
                 "signature":
                 "square(x: inout pointer float, n: sint32)"}],
    "program": [
        {"op": "write", "array": "x", "fill": "arange"},
        {"op": "launch", "kernel": "square", "grid": 2, "block": 32,
         "args": ["x", 64]},
        {"op": "read", "array": "x", "as": "squares"},
    ],
}


def _service(**kwargs):
    return GroutService(RuntimeConfig(policy="round-robin"), **kwargs)


def _spec(**kwargs):
    kwargs.setdefault("workload", "mv")
    kwargs.setdefault("footprint_bytes", FOOTPRINT)
    return WorkloadSpec(**kwargs)


class TestConstruction:
    def test_rejects_vector_step(self):
        with pytest.raises(ValueError, match="online policy"):
            GroutService(RuntimeConfig())       # default is vector-step

    def test_rejects_shard_mode(self):
        with pytest.raises(ValueError, match="shard"):
            GroutService(RuntimeConfig(policy="round-robin", shards=2))

    def test_rejects_grcuda_mode(self):
        """The single-node runtime has no sessions to host requests on,
        so the service refuses it up front rather than on every submit."""
        with pytest.raises(ValueError, match="mode='grcuda'"):
            GroutService(RuntimeConfig(mode="grcuda", policy="round-robin"))

    def test_rejects_silly_quotas(self):
        with pytest.raises(ValueError, match="quotas"):
            _service(tenant_quota=0)


class TestSubmission:
    def test_registry_workload_end_to_end(self):
        with _service() as service:
            report = service.settle(service.submit(_spec(seed=7)))
        assert report["schema"] == "grout-serve/1"
        assert report["workload"] == "mv"
        assert report["completed"] and report["verified"]
        assert report["ce_count"] > 0
        assert report["latency_seconds"] == pytest.approx(
            report["finished_at"] - report["submitted_at"])

    def test_manifest_completes_inline(self):
        with _service() as service:
            ticket = service.submit({"manifest": MANIFEST})
            assert ticket.done                 # reads drain at submit
            report = service.settle(ticket)
        assert report["workload"] == "manifest"
        assert report["completed"]
        assert report["verified"] is None      # manifests self-describe

    def test_latency_is_completion_not_collection_time(self):
        """The run-report's latency is the session's true finish time,
        not whenever the owner got around to collecting it."""
        with _service() as service:
            ticket = service.submit(_spec(check=False))
            engine = service.runtime.engine
            idle = engine.timeout(50.0, name="late-collect")
            engine.run(until=idle)             # sim idles long after
            report = service.settle(ticket)
        assert report["latency_seconds"] < 10.0

    def test_bad_spec_is_counted_and_raises(self):
        with _service() as service:
            with pytest.raises(SpecError):
                service.submit({"workload": "nope", "tenant": "alice"})
            rejected = service.runtime.metrics.family(
                "grout_serve_sessions_rejected_total")
            assert rejected.labels(tenant="alice",
                                   reason="bad-spec").value == 1

    def test_session_name_collision_rejected(self):
        with _service() as service:
            service.submit(_spec(session="pinned"))
            with pytest.raises(SpecError):
                service.submit(_spec(session="pinned"))
            service.settle_all()


class TestQuotas:
    def test_tenant_quota(self):
        with _service(tenant_quota=2) as service:
            service.submit(_spec(tenant="alice", seed=1))
            service.submit(_spec(tenant="alice", seed=2))
            with pytest.raises(QuotaError, match="alice"):
                service.submit(_spec(tenant="alice", seed=3))
            # Another tenant is unaffected.
            service.submit(_spec(tenant="bob", seed=4))
            service.settle_all()
            # Capacity freed: alice may submit again.
            service.submit(_spec(tenant="alice", seed=5))
            service.settle_all()

    def test_global_session_cap(self):
        with _service(max_sessions=2) as service:
            service.submit(_spec(tenant="a", seed=1))
            service.submit(_spec(tenant="b", seed=2))
            with pytest.raises(QuotaError, match="session cap"):
                service.submit(_spec(tenant="c", seed=3))
            service.settle_all()


class TestProgress:
    def test_pump_is_bounded_and_collects(self):
        with _service() as service:
            tickets = [service.submit(_spec(seed=i, check=False))
                       for i in range(3)]
            assert service.inflight() == 3
            rounds = 0
            while service.inflight() and rounds < 10_000:
                service.pump(max_events=64)
                rounds += 1
            assert rounds > 1                  # genuinely quantised
            assert all(t.finalized for t in tickets)

    def test_peak_inflight_high_water_mark(self):
        with _service() as service:
            for i in range(5):
                service.submit(_spec(seed=i, check=False))
            service.settle_all()
            assert service.inflight() == 0
            assert service.peak_inflight == 5

    def test_status_snapshot(self):
        with _service() as service:
            service.submit(_spec(tenant="alice"))
            status = service.status()
            assert status["inflight"] == 1
            assert status["tenants"] == {"alice": 1}
            assert status["accepted_total"] == 1
            service.settle_all()


class TestTeardown:
    def test_close_settles_and_shuts_the_runtime_down(self):
        service = _service()
        ticket = service.submit(_spec())
        service.close()
        assert ticket.finalized
        assert service.runtime.closed

    def test_submission_after_close_is_503(self):
        service = _service()
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(_spec())


class TestLongLivedRuntime:
    def test_worker_maps_stay_bounded_across_requests(self):
        """A worker's scheduler maps track its streams and its live
        buffers, not every CE and buffer the shared runtime ever saw."""
        with _service() as service:
            for seed in range(8):
                service.submit(_spec(seed=seed))
            reports = service.settle_all()
            assert all(r["completed"] and r["verified"] for r in reports)
            controller = service.runtime.controller
            # Settled sessions freed every array they allocated.
            assert controller.directory.total_bytes == 0
            for sched in controller.workers.values():
                streams = sum(len(gpu.streams) for gpu in sched.node.gpus)
                assert 0 < len(sched._streams) <= streams
                assert sched._planned_gpu == {}
                for dev in sched.node.uvm._devices.values():
                    assert dev.pricer._ordinals == {}

    def test_reclaimed_session_frees_its_arrays(self):
        """Once a settled ticket's session reclaimed and both DAGs are
        pruned, nothing in the runtime keeps its arrays alive."""
        with _service() as service:
            ticket = service.submit(_spec(seed=3))
            refs = [weakref.ref(array) for ce in ticket.session.ces()
                    for array in ce.arrays]
            assert refs
            report = service.settle(ticket)
            assert report["completed"] and report["verified"]
            del ticket
            controller = service.runtime.controller
            controller.dag.prune_completed(
                lambda ce: ce.done is not None and ce.done.processed)
            for sched in controller.workers.values():
                sched.local_dag.prune_completed()
            alive = [ref() for ref in refs if ref() is not None]
            assert alive == []

    def test_drain_capped_ticket_reclaims_once_its_tail_drains(self):
        """A ticket settled past its drain cap reports as it stands; once
        its remaining CEs finish, its memory goes back like any other's
        (otherwise every later tenant is priced at a higher node OSF)."""
        with _service() as service:
            report = service.settle(service.submit(
                _spec(workload="cg", footprint_bytes=256 * MIB, seed=1,
                      timeout=1e-4)))
            assert not report["completed"]
            runtime = service.runtime
            controller = runtime.controller
            workers = controller.workers.values()
            assert len(controller.directory) > 0
            assert sum(w.node.uvm.managed_bytes for w in workers) > 0
            while runtime.engine.queued:
                service.pump()
            assert len(controller.directory) == 0
            assert [w.node.uvm.managed_bytes for w in workers] == \
                [0] * len(workers)
            assert len(runtime.profiler) == 0
