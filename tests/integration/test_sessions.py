"""Multi-program sessions: N programs sharing one GrOUT cluster.

The acceptance bar from the session work: three or more concurrent
programs complete with correct (verified) results, their metrics and
trace spans are distinguishable per session, the fair-share gate
actually interleaves, and crash recovery composes with sessions
unchanged.
"""

import numpy as np
import pytest

from repro.cluster import paper_cluster
from repro.core import GroutRuntime, RoundRobinPolicy
from repro.gpu import ArrayAccess, Direction, KernelSpec, TEST_GPU_1GB
from repro.gpu.specs import GIB, MIB
from repro.sim import FaultPlan
from repro.workloads import make_workload


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


def _axpy_program(session, *, steps=4, mib=8, alpha=2.0):
    """A small program run entirely through one session handle."""
    x = session.device_array(16, np.float32, virtual_nbytes=mib * MIB,
                             name=f"{session.name}.x")
    y = session.device_array(16, np.float32, virtual_nbytes=mib * MIB,
                             name=f"{session.name}.y")
    session.host_write(x, lambda: x.data.fill(1.0),
                       label=f"{session.name}.init_x")
    session.host_write(y, lambda: y.data.fill(0.0),
                       label=f"{session.name}.init_y")
    kernel = _axpy()
    for i in range(steps):
        session.launch(kernel, 16, 128, (y, x, alpha),
                       label=f"{session.name}.axpy{i}")
    return y, steps * alpha


class TestConcurrentSessions:
    def test_three_concurrent_programs_compute_correctly(self):
        rt = _runtime()
        sessions = [rt.session(f"prog{i}") for i in range(3)]
        expected = {}
        outputs = {}
        # Submit all three programs before any sync: their CEs interleave
        # on the shared cluster.
        for i, session in enumerate(sessions):
            y, value = _axpy_program(session, steps=3 + i,
                                     alpha=float(i + 1))
            outputs[session.name], expected[session.name] = y, value
        for session in sessions:
            assert session.sync()
        for name, y in outputs.items():
            assert np.allclose(y.data, expected[name]), name

    def test_sessions_namespace_ces(self):
        rt = _runtime()
        s1, s2 = rt.session("alpha"), rt.session("beta")
        _axpy_program(s1, steps=2)
        _axpy_program(s2, steps=2)
        for session in (s1, s2):
            ces = session.ces()
            assert len(ces) == 4           # 2 writes + 2 kernels
            assert [ce.session for ce in ces] == [session.name] * 4
            # Namespaced ids restart per session.
            assert [ce.session_seq for ce in ces] == [1, 2, 3, 4]
            # display_name namespaces under "<session>/".
            assert all(ce.display_name.startswith(f"{session.name}/")
                       for ce in ces)
        s1.sync(), s2.sync()

    def test_session_metrics_are_distinguishable(self):
        rt = _runtime()
        sessions = [rt.session(f"m{i}") for i in range(3)]
        for i, session in enumerate(sessions):
            _axpy_program(session, steps=2 + i)
        for session in sessions:
            session.sync()
        family = rt.metrics.family("grout_session_ces_scheduled_total")
        for i, session in enumerate(sessions):
            scheduled = family.labels(session=session.name).value
            assert scheduled == 2 + (2 + i)   # writes + kernels
        sync_family = rt.metrics.family("grout_session_sync_seconds_total")
        assert sum(sync_family.labels(session=s.name).value
                   for s in sessions) > 0

    def test_session_spans_are_distinguishable(self):
        rt = _runtime()
        s1, s2 = rt.session("left"), rt.session("right")
        _axpy_program(s1), _axpy_program(s2)
        s1.sync(), s2.sync()
        left = rt.tracer.spans_for_session("left")
        right = rt.tracer.spans_for_session("right")
        assert left and right
        assert all(s.name.startswith("left/") for s in left)
        assert all(s.name.startswith("right/") for s in right)
        assert not (set(id(s) for s in left)
                    & set(id(s) for s in right))

    def test_fair_share_gate_throttles_a_hog(self):
        rt = _runtime(fair_share_window=4)
        hog, meek = rt.session("hog"), rt.session("meek")
        _axpy_program(meek, steps=1)
        _axpy_program(hog, steps=24)
        hog.sync(), meek.sync()
        throttled = rt.metrics.family("grout_session_throttled_total")
        assert throttled.labels(session="hog").value > 0

    def test_single_session_path_stays_untagged(self):
        rt = _runtime()
        y, value = _axpy_program_plain(rt)
        rt.sync()
        assert np.allclose(y.data, value)
        family = rt.metrics.family("grout_session_ces_scheduled_total")
        assert family.value_sum() == 0
        assert all(s.meta.get("session") is None
                   for s in rt.tracer.spans)

    def test_session_sync_waits_only_its_own_work(self):
        rt = _runtime()
        slow, fast = rt.session("slow"), rt.session("fast")
        _axpy_program(slow, steps=20, mib=64)
        _axpy_program(fast, steps=1, mib=4)
        assert fast.sync()
        # The fast program is done; the slow one may legitimately still
        # have work in flight (it must not have been forced to finish).
        assert not fast.pending_events()
        slow.sync()
        assert not slow.pending_events()

    def test_sessions_run_real_workloads_concurrently(self):
        rt = _runtime()
        programs = [(rt.session(f"wl-{name}"),
                     make_workload(name, GIB, n_chunks=4, seed=11))
                    for name in ("mv", "bs", "cg")]
        for session, wl in programs:
            wl.build(session)
            wl.run(session)
        for session, wl in programs:
            assert session.sync()
            assert wl.verify(), session.name

    def test_duplicate_session_names_rejected(self):
        rt = _runtime()
        rt.session("dup")
        with pytest.raises(ValueError):
            rt.session("dup")
        with pytest.raises(ValueError):
            rt.session("bad name")        # whitespace

    def test_autonamed_sessions(self):
        rt = _runtime()
        assert rt.session().name == "s0"
        assert rt.session().name == "s1"
        assert [s.name for s in rt.sessions()] == ["s0", "s1"]


class TestSessionsWithFaults:
    def test_worker_crash_recovery_composes_with_sessions(self):
        # Calibrate: how long does the two-program run take fault-free?
        rt = _runtime()
        s1, s2 = rt.session("a"), rt.session("b")
        _axpy_program(s1, steps=6, mib=32)
        _axpy_program(s2, steps=6, mib=32)
        s1.sync(), s2.sync()
        horizon = rt.engine.now

        rt = _runtime()
        rt.install_faults(FaultPlan.single_crash("worker1", horizon / 3))
        s1, s2 = rt.session("a"), rt.session("b")
        y1, v1 = _axpy_program(s1, steps=6, mib=32)
        y2, v2 = _axpy_program(s2, steps=6, mib=32)
        assert s1.sync() and s2.sync()
        assert rt.controller.stats.worker_crashes == 1
        assert np.allclose(y1.data, v1)
        assert np.allclose(y2.data, v2)
        # Both sessions' accounting survived the recovery path.
        family = rt.metrics.family("grout_session_ces_scheduled_total")
        assert family.labels(session="a").value == 8
        assert family.labels(session="b").value == 8


def _processed(ce):
    return ce.done is not None and ce.done.processed


class TestReclaimChurn:
    """Reclaimed sessions leave nothing anchored in the dependency
    DAGs: freeing an array drops its frontier, so the last writers a
    departed program left behind (and their arrays) become prunable."""

    @staticmethod
    def _dag_sizes(rt):
        """(buffers, nodes) of the controller DAG and every worker's
        local DAG, each right after a full prune (local DAGs learn
        completions through ``mark_done``)."""
        rt.controller.dag.prune_completed(_processed)
        dags = [rt.controller.dag]
        for worker in rt.controller.workers.values():
            worker.local_dag.prune_completed()
            dags.append(worker.local_dag)
        return [(len(dag._buffers), dag.size) for dag in dags]

    def _churn(self, rt, sessions, start):
        for i in range(start, start + sessions):
            session = rt.session(f"s{i}")
            y, expected = _axpy_program(session)
            session.close()
            assert np.allclose(y.data, expected)
            session.reclaim()
        return self._dag_sizes(rt)

    def test_dag_sizes_do_not_grow_with_reclaimed_sessions(self):
        rt = _runtime()
        few = self._churn(rt, 3, 0)
        many = self._churn(rt, 12, 3)
        assert many == few
        assert all(buffers == 0 for buffers, _ in many)
        rt.shutdown()

    def test_grcuda_free_forgets_both_dags(self):
        from repro.core import GrCudaRuntime
        rt = GrCudaRuntime(gpu_spec=TEST_GPU_1GB)
        kernel = _axpy()
        for _ in range(5):
            x = rt.device_array(16, np.float32, virtual_nbytes=MIB)
            y = rt.device_array(16, np.float32, virtual_nbytes=MIB)
            rt.host_write([x, y], lambda: None)
            rt.launch(kernel, 16, 128, (y, x, 1.0))
            rt.sync()
            rt.free(x)
            rt.free(y)
        rt.dag.prune_completed(_processed)
        rt.scheduler.local_dag.prune_completed()
        for dag in (rt.dag, rt.scheduler.local_dag):
            assert len(dag._buffers) == 0
            assert dag.size == 0
        rt.shutdown()


def _axpy_program_plain(rt, *, steps=3, alpha=2.0):
    """The same program submitted without any session (legacy path)."""
    x = rt.device_array(16, np.float32, virtual_nbytes=8 * MIB,
                        name="plain.x")
    y = rt.device_array(16, np.float32, virtual_nbytes=8 * MIB,
                        name="plain.y")
    rt.host_write(x, lambda: x.data.fill(1.0), label="plain.init_x")
    rt.host_write(y, lambda: y.data.fill(0.0), label="plain.init_y")
    kernel = _axpy()
    for i in range(steps):
        rt.launch(kernel, 16, 128, (y, x, alpha), label=f"plain.axpy{i}")
    return y, steps * alpha
