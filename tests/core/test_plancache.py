"""Plan cache — memoized scheduling decisions for repeated programs.

The acceptance bars from the plan-cache work: replayed programs are
*decision-identical* to what the full pipeline produces (placements,
movement counts, simulated finish times), every invalidation path —
topology change, worker crash, fault arming, divergence, shared
buffers, LRU pressure — falls back to the full pipeline without
corrupting the Directory, and the serve layer hits the cache for hot
tenants automatically.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import paper_cluster
from repro.core import GroutRuntime, RoundRobinPolicy, RuntimeConfig
from repro.gpu import ArrayAccess, Direction, KernelSpec, TEST_GPU_1GB
from repro.gpu.specs import MIB
from repro.serve.service import GroutService
from repro.sim import FaultPlan
from repro.uvm import Advise


def _runtime(n_workers=3, **kwargs):
    cluster = paper_cluster(n_workers, gpu_spec=TEST_GPU_1GB)
    return GroutRuntime(cluster, policy=RoundRobinPolicy(), **kwargs)


def _axpy():
    def executor(y, x, a):
        y.data[:] = y.data + a * x.data

    def access_fn(args):
        y, x, _a = args
        return [ArrayAccess(y, Direction.INOUT),
                ArrayAccess(x, Direction.IN)]

    return KernelSpec("axpy", flops_per_byte=0.25, executor=executor,
                      access_fn=access_fn)


def _program(session, *, steps=4, mib=8, alpha=2.0, x=None):
    """The repeated program: init two arrays, chain ``steps`` axpys."""
    if x is None:
        x = session.device_array(16, np.float32,
                                 virtual_nbytes=mib * MIB,
                                 name=f"{session.name}.x")
    y = session.device_array(16, np.float32, virtual_nbytes=mib * MIB,
                             name=f"{session.name}.y")
    session.host_write(x, lambda: x.data.fill(1.0))
    session.host_write(y, lambda: y.data.fill(0.0))
    kernel = _axpy()
    for i in range(steps):
        session.launch(kernel, 16, 128, (y, x, alpha))
    return y, steps * alpha


def _trace(session):
    return [(ce.session_seq, ce.kind.value, ce.assigned_node)
            for ce in session.ces()]


def _counter(rt, name, **labels):
    return rt.metrics.family(name).labels(**labels).value


def _memo_hits(rt):
    """Launches the workers' pricing memos served, summed over nodes."""
    return rt.metrics.family("grout_uvm_memo_hits_total").value_sum()


def _price_live(rt):
    """Route every worker's kernel pricing around the memo."""
    for scheduler in rt.controller.workers.values():
        uvm = scheduler.node.uvm
        uvm.price_kernel = uvm._price_live


class TestReplayIdentity:
    def _burst(self, plan_cache, repeats=3):
        rt = _runtime(plan_cache=plan_cache)
        traces, finish = [], []
        for i in range(repeats):
            session = rt.session(
                f"p{i}", plan_key="axpy" if plan_cache else None)
            y, expected = _program(session)
            session.close()
            assert np.allclose(y.data, expected), f"run {i} wrong"
            traces.append(_trace(session))
            finish.append(rt.engine.now)
        stats = rt.controller.stats
        summary = (traces, finish, stats.transfers_issued,
                   stats.p2p_transfers, stats.bytes_requested,
                   stats.ces_scheduled)
        hits = _counter(rt, "grout_plancache_hits_total") \
            if plan_cache else None
        misses = _counter(rt, "grout_plancache_misses_total") \
            if plan_cache else None
        rt.shutdown()
        return summary, hits, misses

    def test_repeated_program_is_decision_identical(self):
        """Replays reproduce the recorded decisions exactly, and cost
        the same simulated time / movement as the full pipeline.

        Placement note: cache-off bursts rotate the round-robin phase
        across sessions (the policy pointer keeps advancing), so the
        cross-run comparison pins the *recording* run against cache-off
        and every *replay* against the recording — identical traces,
        per-CE — while simulated finish times, transfer counts and
        bytes must match the cache-off burst run-for-run.
        """
        off, _, _ = self._burst(plan_cache=False)
        on, hits, misses = self._burst(plan_cache=True)
        off_traces, on_traces = off[0], on[0]
        # The recording run is the full pipeline, byte-identical.
        assert on_traces[0] == off_traces[0]
        # Every replay reproduces the recorded decisions exactly.
        for replay in on_traces[1:]:
            assert replay == on_traces[0]
        # Timing and movement are identical burst-for-burst.
        assert on[1:] == off[1:]
        assert (hits, misses) == (2, 1)

    def test_cache_object_only_exists_with_the_knob(self):
        rt = _runtime()
        assert rt.controller.plan_cache is None
        rt.shutdown()
        rt = _runtime(plan_cache=True)
        assert rt.controller.plan_cache is not None
        rt.shutdown()

    def test_unkeyed_sessions_bypass_the_cache(self):
        rt = _runtime(plan_cache=True)
        session = rt.session("anon")          # no plan_key
        y, expected = _program(session)
        session.close()
        assert np.allclose(y.data, expected)
        assert _counter(rt, "grout_plancache_hits_total") == 0
        assert _counter(rt, "grout_plancache_misses_total") == 0
        assert len(rt.controller.plan_cache) == 0
        rt.shutdown()


class TestGuards:
    def test_incompatible_knobs_raise(self):
        for kwargs in ({"collectives": True}, {"chunk_bytes": MIB},
                       {"shards": 2}):
            with pytest.raises(ValueError, match="plan_cache"):
                _runtime(plan_cache=True, **kwargs)

    def test_grcuda_mode_rejects_the_knob(self):
        with pytest.raises(ValueError, match="grout"):
            RuntimeConfig(mode="grcuda", plan_cache=True).build_runtime()

    def test_shared_buffer_first_use_falls_back(self):
        """A keyed session whose array arrives with cross-session
        history cannot replay a private-program plan; it falls back and
        still computes correctly."""
        rt = _runtime(plan_cache=True)
        warm = rt.session("warm", plan_key="axpy")
        y, expected = _program(warm)
        warm.close()
        assert np.allclose(y.data, expected)

        other = rt.session("other")
        shared = other.device_array(16, np.float32,
                                    virtual_nbytes=8 * MIB, name="shared")
        other.host_write(shared, lambda: shared.data.fill(5.0))
        other.sync()
        other.close()

        replay = rt.session("replay", plan_key="axpy")
        y2, _ = _program(replay, x=shared)
        replay.close()
        # x was pre-filled with 5s by the other session, then re-inited
        # to 1s by this program: the result must reflect this program.
        assert np.allclose(y2.data, 8.0)
        assert _counter(rt, "grout_plancache_invalidations_total",
                        reason="shared-buffer") == 1
        # The plan itself stays stored: it is fine for private reruns.
        assert "axpy" in rt.controller.plan_cache
        rt.shutdown()


class TestInvalidation:
    def test_topology_change_mid_program_falls_back(self):
        rt = _runtime(plan_cache=True)
        warm = rt.session("warm", plan_key="axpy")
        _program(warm, steps=6)
        warm.close()

        replay = rt.session("replay", plan_key="axpy")
        x = replay.device_array(16, np.float32, virtual_nbytes=8 * MIB)
        y = replay.device_array(16, np.float32, virtual_nbytes=8 * MIB)
        replay.host_write(x, lambda: x.data.fill(1.0))
        replay.host_write(y, lambda: y.data.fill(0.0))
        kernel = _axpy()
        for _ in range(3):
            replay.launch(kernel, 16, 128, (y, x, 2.0))
        rt.controller.add_worker()            # mid-program scale-out
        for _ in range(3):
            replay.launch(kernel, 16, 128, (y, x, 2.0))
        replay.close()
        assert np.allclose(y.data, 12.0)
        assert _counter(rt, "grout_plancache_invalidations_total",
                        reason="topology") == 1
        assert _counter(rt, "grout_plancache_invalidations_total",
                        reason="stale-epoch") == 1
        assert len(rt.controller.plan_cache) == 0
        rt.shutdown()

    def test_worker_crash_invalidates_everything(self):
        rt = _runtime(plan_cache=True)
        warm = rt.session("warm", plan_key="axpy")
        y, expected = _program(warm)
        warm.close()
        assert len(rt.controller.plan_cache) == 1
        rt.controller.handle_worker_crash("worker0")
        assert len(rt.controller.plan_cache) == 0
        assert _counter(rt, "grout_plancache_invalidations_total",
                        reason="crash") == 1
        # A crash only drops plans: the next keyed session records on
        # the survivors, and a later one replays it with correct values.
        cold = rt.session("cold", plan_key="axpy")
        assert cold._plan_recorder is not None
        y2, expected2 = _program(cold)
        cold.close()
        assert np.allclose(y2.data, expected2)
        assert len(rt.controller.plan_cache) == 1
        hot = rt.session("hot", plan_key="axpy")
        replayer = hot._plan_replayer
        assert replayer is not None
        y3, expected3 = _program(hot)
        # Every CE came from the plan (no fallback detached it).
        assert hot._plan_replayer is replayer
        assert replayer.pos == len(replayer.plan.steps)
        hot.close()
        assert np.allclose(y3.data, expected3)
        assert _counter(rt, "grout_plancache_hits_total") == 1
        rt.shutdown()

    def test_fault_arming_flips_sessions_back_to_full_pipeline(self):
        rt = _runtime(plan_cache=True)
        warm = rt.session("warm", plan_key="axpy")
        _program(warm)
        warm.close()
        rt.install_faults(FaultPlan.parse("flake@0.5"))
        assert _counter(rt, "grout_plancache_invalidations_total",
                        reason="faults") == 1
        assert len(rt.controller.plan_cache) == 0
        cold = rt.session("cold", plan_key="axpy")
        assert cold._plan_replayer is None
        assert cold._plan_recorder is None
        y, expected = _program(cold)
        cold.close()
        assert np.allclose(y.data, expected)
        rt.shutdown()

    def test_divergent_program_evicts_without_corruption(self):
        """Same key, different program: replay falls back at the first
        mismatching CE; the Directory stays coherent (the divergent
        program completes and verifies) and the wrong-for-this-key plan
        is evicted so the next session re-records."""
        rt = _runtime(plan_cache=True)
        warm = rt.session("warm", plan_key="k")
        _program(warm, steps=2)
        warm.close()

        diverge = rt.session("diverge", plan_key="k")
        # Different launch grid from the first CE on: token mismatch.
        x = diverge.device_array(16, np.float32, virtual_nbytes=8 * MIB)
        y = diverge.device_array(16, np.float32, virtual_nbytes=8 * MIB)
        diverge.host_write(x, lambda: x.data.fill(1.0))
        diverge.host_write(y, lambda: y.data.fill(0.0))
        kernel = _axpy()
        for _ in range(3):
            diverge.launch(kernel, 32, 64, (y, x, 3.0))
        diverge.close()
        assert np.allclose(y.data, 9.0)
        assert _counter(rt, "grout_plancache_invalidations_total",
                        reason="divergence") == 1
        assert "k" not in rt.controller.plan_cache

        # Next session under the key records the new program fresh.
        recool = rt.session("recool", plan_key="k")
        y2, expected2 = _program(recool, steps=2)
        recool.close()
        assert np.allclose(y2.data, expected2)
        assert "k" in rt.controller.plan_cache
        rt.shutdown()

    def test_shorter_program_evicts_on_close(self):
        """A replay that closes before consuming the whole plan means
        the key maps to programs of different lengths — evict it."""
        rt = _runtime(plan_cache=True)
        warm = rt.session("warm", plan_key="k")
        _program(warm, steps=4)
        warm.close()
        short = rt.session("short", plan_key="k")
        y, expected = _program(short, steps=2)   # a strict prefix
        short.close()
        assert np.allclose(y.data, expected)
        assert "k" not in rt.controller.plan_cache
        assert _counter(rt, "grout_plancache_invalidations_total",
                        reason="divergence") == 1
        rt.shutdown()


class TestCostReplay:
    """Kernel costs under schedule replay: the pricing memo serves
    launches with or without the plan cache, and either way leaves every
    worker's UVM space in *exactly* the state live pricing would have —
    same page tables, same clocks, same cumulative stats, same
    simulated finish times.  (The launch-by-launch memo-vs-live
    differential is ``tests/properties/test_pricing_memo_properties``.)"""

    @staticmethod
    def _uvm_state(rt):
        """Structural snapshot of every worker's UVM space."""
        out = {}
        for name, scheduler in rt.controller.workers.items():
            uvm = scheduler.node.uvm
            devices = []
            for gpu_id in sorted(uvm._devices):
                table = uvm._devices[gpu_id].table
                # Buffer ids come from a process-global counter, so
                # the snapshot is structural: per-buffer page counts,
                # not identities.
                devices.append((table.clock, table.resident_pages, sorted(
                    (p.n_pages, p.resident_count, p.dirty_count,
                     int(p.access_count.min()),
                     int(p.access_count.max()))
                    for p in table.buffers())))
            out[name] = (dataclasses.asdict(uvm.stats), devices)
        return out

    def _burst(self, plan_cache, repeats=3, live=False):
        """Run the repeated program ``repeats`` times on one worker,
        reclaiming each session's arrays on close (the serve layer's
        lifecycle, which keeps the node OSF identical across repeats).
        One worker pins the round-robin phase, so cache-off runs place
        every session identically and per-device page-table state is
        comparable run-for-run; the state snapshot lands *before* the
        final reclaim so the last program's tables are still live.
        ``live`` prices every launch around the memo.
        """
        rt = _runtime(n_workers=1, plan_cache=plan_cache)
        if live:
            _price_live(rt)
        finish, state = [], None
        for i in range(repeats):
            session = rt.session(
                f"p{i}", plan_key="axpy" if plan_cache else None)
            y, expected = _program(session)
            session.close()
            assert np.allclose(y.data, expected), f"run {i} wrong"
            finish.append(rt.engine.now)
            if i == repeats - 1:
                state = self._uvm_state(rt)
            session.reclaim()
        hits = _memo_hits(rt)
        rt.shutdown()
        return finish, state, hits

    def test_replayed_costs_match_live_pricing_exactly(self):
        live_finish, live_state, live_hits = self._burst(plan_cache=False,
                                                         live=True)
        off_finish, off_state, off_hits = self._burst(plan_cache=False)
        on_finish, on_state, on_hits = self._burst(plan_cache=True)
        assert live_hits == 0
        # The memo needs no plan key: both modes serve the same
        # launches from it — all 12 but the first session's first two
        # (cold buffers, then resident ones), whose keys later sessions
        # repeat over fresh buffers.
        assert off_hits == on_hits == 10
        # ... and the simulation cannot tell: identical finish times,
        # identical stats, clocks and page-table state on the worker.
        assert on_finish == off_finish == live_finish
        assert on_state == off_state == live_state

    def test_advise_guard_falls_back_to_live_pricing(self):
        """A replay session whose buffers carry a non-default advise
        cannot reuse recorded transitions (the recording priced default
        paging); the schedule still replays but every launch re-prices
        live, and the stored plan survives for default-advise reruns."""
        rt = _runtime(plan_cache=True)
        warm = rt.session("warm", plan_key="axpy")
        y, expected = _program(warm)
        warm.close()
        assert np.allclose(y.data, expected)
        warm.reclaim()
        hits = _memo_hits(rt)

        replay = rt.session("replay", plan_key="axpy")
        x = replay.device_array(16, np.float32, virtual_nbytes=8 * MIB,
                                name="replay.x")
        replay.advise(x, Advise.READ_MOSTLY)
        y2, expected2 = _program(replay, x=x)
        replay.close()
        assert np.allclose(y2.data, expected2)
        # The schedule plan itself hit and replayed...
        assert _counter(rt, "grout_plancache_hits_total") == 1
        # ... but no launch was served by the pricing memo, and the
        # plan is not evicted (it stays valid for default-advise
        # sessions).
        assert _memo_hits(rt) == hits
        assert "axpy" in rt.controller.plan_cache
        rt.shutdown()


class TestLruBound:
    def test_eviction_under_tenant_churn(self):
        rt = _runtime(plan_cache=True)
        cache = rt.controller.plan_cache
        cache.capacity = 2
        for i in range(3):
            session = rt.session(f"t{i}", plan_key=f"key{i}")
            _program(session)
            session.close()
        assert len(cache) == 2
        assert "key0" not in cache            # least recently used
        assert "key1" in cache and "key2" in cache
        assert _counter(rt, "grout_plancache_invalidations_total",
                        reason="evicted") == 1
        gauge = _counter(rt, "grout_plancache_bytes")
        assert gauge == cache.nbytes > 0
        cache.invalidate_all("topology")
        assert _counter(rt, "grout_plancache_bytes") == 0
        rt.shutdown()


class TestServeIntegration:
    def test_hot_tenant_spec_hits_automatically(self):
        config = RuntimeConfig(policy="round-robin", plan_cache=True)
        spec = {"workload": "mv", "footprint_bytes": 16 * MIB,
                "n_chunks": 4, "tenant": "hot"}
        with GroutService(config) as service:
            for i in range(3):
                ticket = service.submit(dict(spec, session=f"r{i}"))
                report = service.settle(ticket)
                assert report["completed"] and report["verified"]
            rt = service.runtime
            assert _counter(rt, "grout_plancache_hits_total") == 2
            assert _counter(rt, "grout_plancache_misses_total") == 1
            # Kernel pricing was served by the pricing memo (reclaim
            # keeps the OSF, part of its key, steady between repeats).
            assert _memo_hits(rt) > 0

    def test_finished_sessions_return_managed_memory(self):
        """Settled submissions reclaim their arrays: a persistent
        service must not let departed programs' managed bytes climb the
        node OSF (which would also change every pricing-memo key)."""
        config = RuntimeConfig(policy="round-robin", plan_cache=True)
        spec = {"workload": "mv", "footprint_bytes": 16 * MIB,
                "n_chunks": 4, "tenant": "hot"}
        with GroutService(config) as service:
            for i in range(2):
                ticket = service.submit(dict(spec, session=f"r{i}"))
                report = service.settle(ticket)
                assert report["completed"]
                for sched in service.runtime.controller.workers.values():
                    uvm = sched.node.uvm
                    assert uvm.managed_bytes == 0
                    assert uvm.oversubscription == 0.0

    def test_cache_off_derives_no_plan_key(self):
        with GroutService(RuntimeConfig(policy="round-robin")) as service:
            ticket = service.submit({"workload": "mv",
                                     "footprint_bytes": 16 * MIB})
            assert ticket.session.plan_key is None
            service.settle(ticket)
