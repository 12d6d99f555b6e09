"""Unit tests of the deterministic fault-injection layer."""

import pytest

from repro.sim import Engine, Fault, FaultInjector, FaultPlan, Tracer
from repro.sim.faults import (
    KNOWN_KINDS,
    LINK_DEGRADE,
    TRANSFER_FLAKE,
    WORKER_CRASH,
    plan_from,
)


class TestFaultValidation:
    def test_crash_needs_node(self):
        with pytest.raises(ValueError):
            Fault(WORKER_CRASH, 1.0)

    def test_degrade_needs_link(self):
        with pytest.raises(ValueError):
            Fault(LINK_DEGRADE, 1.0)

    def test_degrade_factor_bounds(self):
        with pytest.raises(ValueError):
            Fault(LINK_DEGRADE, 1.0, link=("a", "b"), factor=0.0)
        with pytest.raises(ValueError):
            Fault(LINK_DEGRADE, 1.0, link=("a", "b"), factor=1.5)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Fault(WORKER_CRASH, -0.1, node="w0")

    def test_flake_count_positive(self):
        with pytest.raises(ValueError):
            Fault(TRANSFER_FLAKE, 1.0, count=0)

    def test_describe(self):
        assert Fault(WORKER_CRASH, 1.0, node="w0").describe() \
            == "worker-crash:w0"
        assert "a-b" in Fault(LINK_DEGRADE, 1.0, link=("a", "b"),
                              factor=0.5).describe()
        assert Fault(TRANSFER_FLAKE, 1.0).describe() == "transfer-flake"


class TestFaultPlan:
    def test_time_ordered(self):
        plan = plan_from([Fault(WORKER_CRASH, 2.0, node="b"),
                          Fault(WORKER_CRASH, 1.0, node="a")])
        assert [f.at for f in plan] == [1.0, 2.0]
        assert len(plan) == 2

    def test_single_crash(self):
        plan = FaultPlan.single_crash("worker1", 0.5)
        (fault,) = plan
        assert fault.kind == WORKER_CRASH
        assert fault.node == "worker1" and fault.at == 0.5

    def test_parse_crash(self):
        (fault,) = FaultPlan.parse("crash:worker0@1.5")
        assert fault.kind == WORKER_CRASH
        assert fault.node == "worker0" and fault.at == 1.5

    def test_parse_degrade(self):
        (fault,) = FaultPlan.parse("degrade:controller-worker1@0.5x0.25")
        assert fault.kind == LINK_DEGRADE
        assert fault.link == ("controller", "worker1")
        assert fault.at == 0.5 and fault.factor == 0.25

    def test_parse_degrade_default_factor(self):
        (fault,) = FaultPlan.parse("degrade:a-b@1.0")
        assert fault.factor == 0.5

    def test_parse_flake_with_count(self):
        (fault,) = FaultPlan.parse("flake:worker0-worker1@2.0*3")
        assert fault.kind == TRANSFER_FLAKE
        assert fault.link == ("worker0", "worker1")
        assert fault.count == 3

    def test_parse_wildcard_flake(self):
        (fault,) = FaultPlan.parse("flake@2.0")
        assert fault.link is None and fault.count == 1

    def test_parse_multiple_entries(self):
        plan = FaultPlan.parse("crash:w0@2.0, flake@1.0")
        assert [f.kind for f in plan] == [TRANSFER_FLAKE, WORKER_CRASH]

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("crash:w0")          # missing @time
        with pytest.raises(ValueError):
            FaultPlan.parse("explode:w0@1.0")    # unknown kind
        with pytest.raises(ValueError):
            FaultPlan.parse("degrade:solo@1.0")  # malformed link

    def test_random_is_deterministic(self):
        kwargs = dict(horizon=10.0, workers=["w0", "w1", "w2"], n_faults=5)
        assert FaultPlan.random(7, **kwargs) == FaultPlan.random(7, **kwargs)
        assert FaultPlan.random(7, **kwargs) != FaultPlan.random(8, **kwargs)

    def test_random_respects_horizon_and_kinds(self):
        plan = FaultPlan.random(3, horizon=5.0, workers=["w0"], n_faults=8)
        assert all(0 <= f.at <= 5.0 for f in plan)
        assert all(f.kind in KNOWN_KINDS for f in plan)

    def test_random_needs_workers(self):
        with pytest.raises(ValueError):
            FaultPlan.random(0, horizon=1.0, workers=[])


class TestFaultInjector:
    def test_fires_at_exact_time(self):
        engine = Engine()
        seen = []
        injector = FaultInjector(
            engine, FaultPlan.single_crash("w0", 1.25))
        injector.on(WORKER_CRASH, lambda f: seen.append(
            (engine.now, f.node)))
        injector.arm()
        engine.run()
        assert seen == [(1.25, "w0")]
        assert injector.stats.injected == 1
        assert injector.stats.by_kind == {WORKER_CRASH: 1}

    def test_raising_handler_aborts_the_run(self):
        """A handler's error fails the strike's terminal delivery, which
        nobody waits on: ``run()`` raises it after the start hop, the
        sleep and that delivery (plus the bystander timeout at 0.5)."""
        engine = Engine()
        injector = FaultInjector(engine, FaultPlan.single_crash("w0", 1.5))

        def boom(_fault):
            raise RuntimeError("handler died")

        injector.on(WORKER_CRASH, boom).arm()
        engine.timeout(0.5)
        engine.timeout(3.0)
        with pytest.raises(RuntimeError, match="handler died"):
            engine.run()
        assert engine.events_processed == 4 and engine.now == 1.5
        assert injector.stats.injected == 0

    def test_unhandled_faults_counted(self):
        engine = Engine()
        injector = FaultInjector(
            engine, FaultPlan.single_crash("w0", 1.0)).arm()
        engine.run()
        assert injector.stats.injected == 0
        assert injector.stats.unhandled == 1

    def test_arm_is_idempotent(self):
        engine = Engine()
        seen = []
        injector = FaultInjector(engine, FaultPlan.single_crash("w0", 1.0))
        injector.on(WORKER_CRASH, lambda f: seen.append(f))
        injector.arm().arm()
        engine.run()
        assert len(seen) == 1

    def test_spans_recorded(self):
        engine = Engine()
        tracer = Tracer()
        injector = FaultInjector(
            engine,
            plan_from([Fault(WORKER_CRASH, 1.0, node="w0"),
                       Fault(LINK_DEGRADE, 2.0, link=("a", "b"),
                             factor=0.5)]),
            tracer=tracer)
        injector.on(WORKER_CRASH, lambda f: None)
        injector.arm()
        engine.run()
        spans = tracer.by_category("fault")
        assert [s.lane for s in spans] == ["w0", "net:a->b"]
        assert spans[0].meta["handled"] is True
        assert spans[1].meta["handled"] is False

    def test_same_plan_same_schedule(self):
        def run_once():
            engine = Engine()
            times = []
            injector = FaultInjector(
                engine, FaultPlan.random(5, horizon=3.0,
                                         workers=["w0", "w1"]))
            for kind in KNOWN_KINDS:
                injector.on(kind, lambda f: times.append(engine.now))
            injector.arm()
            engine.run()
            return times

        assert run_once() == run_once()
