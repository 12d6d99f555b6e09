"""Differential test: ``Engine.run()`` vs ``step()`` vs ``run_steps()``.

All three enter the engine's one delivery loop and differ only in how
they bound it: ``run()`` by a stop event or a horizon, ``step()`` by one
delivery, ``run_steps()`` by a delivery count.  This test drives
*identical* randomized workloads through every entry point and asserts
the observable outcome is bit-for-bit the same: the sequence of (time,
label, ok) deliveries, the final clock, and ``events_processed`` — which
the counts ``run_steps()`` returns must add up to, so a skipped cancelled
entry never counts.  Failure and defuse handling are exercised
explicitly, including the unhandled-failure abort.

Workloads are written as generators, driven by the small reference
driver in :mod:`tests.sim.genproc`.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import Condition, Engine, Interrupt, SimError
from repro.sim.engine import _FREE_LIST_CAP

from tests.sim.genproc import spawn


def _build_workload(engine: Engine, seed: int, trace: list) -> None:
    """Construct a random but fully deterministic workload on ``engine``.

    Every created event gets a tracing callback appended *first*, so the
    trace records the exact delivery order the engine chose.  The same
    (engine-independent) random stream drives construction on every
    engine, whichever entry point then drives it.
    """
    rng = random.Random(seed)

    def normalize(value):
        # Condition payloads are keyed by Event *objects*; translate keys
        # to (type, name) so traces from two engines compare equal.
        if isinstance(value, dict):
            return tuple((type(k).__name__, k.name, normalize(v))
                         for k, v in value.items())
        return value

    def tap(ev, label):
        def record(event):
            outcome = (normalize(event._value) if event._ok
                       else type(event._value).__name__)
            trace.append((engine.now, label, event._ok, outcome))
        ev.callbacks.append(record)
        return ev

    # A pool of plain events some processes trigger and others wait on.
    # A pool event may fail before anyone waits on it; that is part of the
    # workload, not an unhandled-failure bug, so pre-defuse them.
    pool = [tap(engine.event(name=f"pool{i}"), f"pool{i}") for i in range(6)]
    for ev in pool:
        ev._defused = True
    fired: set[int] = set()

    def worker(wid: int):
        try:
            yield from _worker_body(wid)
        except Interrupt as intr:
            trace.append((engine.now, f"w{wid}.interrupted", True,
                          str(intr.cause)))
            return f"w{wid}-interrupted"
        return f"w{wid}-done"

    def _worker_body(wid: int):
        for step in range(rng.randint(1, 5)):
            roll = rng.random()
            if roll < 0.45:
                yield tap(engine.timeout(rng.uniform(0.0, 3.0)),
                          f"w{wid}.t{step}")
            elif roll < 0.60:
                # Trigger a pool event (at most once) after a delay.
                idx = rng.randrange(len(pool))
                yield tap(engine.timeout(rng.uniform(0.0, 1.0)),
                          f"w{wid}.pre{step}")
                if idx not in fired:
                    fired.add(idx)
                    if rng.random() < 0.3:
                        pool[idx].fail(RuntimeError(f"pool{idx} failed"))
                    else:
                        pool[idx].succeed(f"pool{idx}-value")
            elif roll < 0.80:
                # Wait on a composite of pool events and fresh timeouts.
                kids = [pool[rng.randrange(len(pool))],
                        tap(engine.timeout(rng.uniform(0.0, 2.0)),
                            f"w{wid}.k{step}")]
                combo = (Condition(engine, kids, need=1)
                         if rng.random() < 0.5 else engine.all_of(kids))
                try:
                    yield tap(combo, f"w{wid}.c{step}")
                except RuntimeError:
                    trace.append((engine.now, f"w{wid}.caught{step}",
                                  False, "RuntimeError"))
            else:
                # Wait directly on a pool event; it may fail on us.
                try:
                    yield pool[rng.randrange(len(pool))]
                except RuntimeError:
                    trace.append((engine.now, f"w{wid}.caught{step}",
                                  False, "RuntimeError"))

    procs = [tap(spawn(engine, worker(i), name=f"w{i}"), f"proc{i}")
             for i in range(5)]

    def reaper():
        # Interrupt one process mid-flight, cancel (defuse) another.
        yield engine.timeout(1.5)
        victim = procs[rng.randrange(len(procs))]
        if victim.is_alive:
            victim.cancel("reaped")
        other = procs[rng.randrange(len(procs))]
        if other.is_alive:
            try:
                other.interrupt("poked")
            except SimError:
                pass
        return "reaper-done"

    tap(spawn(engine, reaper(), name="reaper"), "reaper")

    def interrupt_handler():
        try:
            yield engine.timeout(10.0)
        except Interrupt as intr:
            trace.append((engine.now, "handler.interrupted", True,
                          str(intr.cause)))
        return "handler-done"

    handler = tap(spawn(engine, interrupt_handler(), name="handler"),
                  "handler")

    def late_poker():
        yield engine.timeout(2.0)
        if handler.is_alive:
            handler.interrupt("late-poke")

    spawn(engine, late_poker(), name="poker")

    # Pool events that never fire must not deadlock the drain: defuse and
    # succeed the stragglers at a late time so both engines drain fully.
    def sweeper():
        yield engine.timeout(20.0)
        for i, ev in enumerate(pool):
            if not ev.triggered:
                fired.add(i)
                ev.succeed("swept")

    spawn(engine, sweeper(), name="sweeper")


def _drive_with_run(seed: int):
    engine, trace = Engine(), []
    _build_workload(engine, seed, trace)
    engine.run()
    return engine, trace


def _drive_with_step(seed: int):
    engine, trace = Engine(), []
    _build_workload(engine, seed, trace)
    while engine.peek() != float("inf"):
        engine.step()
    return engine, trace


def _run_in_chunks(engine: Engine, seed: int) -> list[int]:
    """Call ``run_steps`` with random limits until it returns 0; return
    every count it returned."""
    rng = random.Random(seed)
    counts = []
    while True:
        counts.append(engine.run_steps(rng.randint(1, 7)))
        if not counts[-1]:
            return counts


def _drive_with_run_steps(seed: int):
    engine, trace = Engine(), []
    _build_workload(engine, seed, trace)
    counts = _run_in_chunks(engine, seed)
    return engine, trace, counts


class TestRunStepDifferential:
    def test_identical_timelines(self):
        for seed in range(20):
            run_eng, run_trace = _drive_with_run(seed)
            step_eng, step_trace = _drive_with_step(seed)
            chunk_eng, chunk_trace, counts = _drive_with_run_steps(seed)
            assert run_trace == step_trace == chunk_trace, \
                f"seed {seed} diverged"
            assert run_eng.now == step_eng.now == chunk_eng.now
            assert (run_eng.events_processed == step_eng.events_processed
                    == chunk_eng.events_processed == sum(counts))

    def test_run_steps_rejects_negative_limit(self):
        engine = Engine()
        engine.timeout(1.0)
        with pytest.raises(ValueError, match="negative"):
            engine.run_steps(-1)
        assert engine.run_steps(0) == 0
        assert (engine.now, engine.events_processed, engine.queued) \
            == (0.0, 0, 1)

    def test_run_until_event_matches_stepping(self):
        for seed in (3, 7, 11):
            eng1, trace1 = Engine(), []
            _build_workload(eng1, seed, trace1)
            marker1 = eng1.timeout(1.25, name="marker")
            eng1.run(until=marker1)

            eng2, trace2 = Engine(), []
            _build_workload(eng2, seed, trace2)
            marker2 = eng2.timeout(1.25, name="marker")
            while not marker2.processed:
                eng2.step()
            assert trace1 == trace2
            assert eng1.now == eng2.now == 1.25
            assert eng1.events_processed == eng2.events_processed

    def test_unhandled_failure_aborts_identically(self):
        def build(engine, trace):
            def boomer():
                yield engine.timeout(1.0)
                raise ValueError("boom")
            spawn(engine, boomer(), name="boomer")
            for i, delay in enumerate((0.25, 0.5, 2.0)):
                t = engine.timeout(delay)
                t.callbacks.append(
                    lambda ev, i=i: trace.append((engine.now, i)))

        eng1, trace1 = Engine(), []
        build(eng1, trace1)
        with pytest.raises(ValueError, match="boom"):
            eng1.run()

        eng2, trace2 = Engine(), []
        build(eng2, trace2)
        with pytest.raises(ValueError, match="boom"):
            while eng2.peek() != float("inf"):
                eng2.step()

        eng3, trace3 = Engine(), []
        build(eng3, trace3)
        with pytest.raises(ValueError, match="boom"):
            _run_in_chunks(eng3, 0)

        assert trace1 == trace2 == trace3
        assert eng1.now == eng2.now == eng3.now == 1.0
        assert (eng1.events_processed == eng2.events_processed
                == eng3.events_processed)

    def test_defused_failure_continues_identically(self):
        def build(engine, trace):
            bad = engine.event(name="bad")
            bad._defused = True
            engine.timeout(0.5).callbacks.append(
                lambda _: bad.fail(RuntimeError("defused")))
            t = engine.timeout(1.0)
            t.callbacks.append(lambda ev: trace.append(engine.now))

        eng1, trace1 = Engine(), []
        build(eng1, trace1)
        eng1.run()

        eng2, trace2 = Engine(), []
        build(eng2, trace2)
        while eng2.peek() != float("inf"):
            eng2.step()

        assert trace1 == trace2 == [1.0]
        assert eng1.events_processed == eng2.events_processed


def _chain_plan(seed: int) -> list[list[float]]:
    """Deterministic random straight-line wait chains (delays per chain)."""
    rng = random.Random(seed)
    return [[rng.uniform(0.0, 3.0) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(2, 5))]


def _drive_chains_generator(seed: int):
    """Straight-line waits expressed the classic way: one generator process
    per chain, one Timeout per hop."""
    engine, trace = Engine(), []
    plan = _chain_plan(seed)

    def runner(cid: int, delays: list[float]):
        for i, d in enumerate(delays):
            yield engine.timeout(d)
            trace.append((engine.now, f"c{cid}.h{i}"))

    for cid, delays in enumerate(plan):
        spawn(engine, runner(cid, delays), name=f"c{cid}")
    engine.run()
    return engine, trace


def _drive_chains_succeed_at(seed: int):
    """Same chains, but each hop waits on a bare Event armed with
    ``succeed_at`` — Timeout-like semantics without the Timeout object."""
    engine, trace = Engine(), []
    plan = _chain_plan(seed)

    def runner(cid: int, delays: list[float]):
        for i, d in enumerate(delays):
            yield engine.event(name=f"c{cid}.h{i}").succeed_at(d)
            trace.append((engine.now, f"c{cid}.h{i}"))

    for cid, delays in enumerate(plan):
        spawn(engine, runner(cid, delays), name=f"c{cid}")
    engine.run()
    return engine, trace


def _drive_chains_calls(seed: int):
    """Same chains as direct ``schedule_call`` chains: no generator, no
    Timeout.  Hop parity is kept explicitly — one zero-delay start call
    mirroring the generator's start delivery, and one zero-delay terminal
    call mirroring its completion delivery — so even
    ``events_processed`` must match the generator formulation exactly."""
    engine, trace = Engine(), []
    plan = _chain_plan(seed)

    def make_hop(cid: int, delays: list[float], i: int):
        def fire(_arg):
            trace.append((engine.now, f"c{cid}.h{i}"))
            if i + 1 < len(delays):
                engine.schedule_call(delays[i + 1],
                                     make_hop(cid, delays, i + 1))
            else:
                engine.schedule_call(0.0, lambda _a: None)  # ~completion
        return fire

    def make_start(cid: int, delays: list[float]):
        def start(_arg):
            engine.schedule_call(delays[0], make_hop(cid, delays, 0))
        return start

    for cid, delays in enumerate(plan):
        engine.schedule_call(0.0, make_start(cid, delays))
    engine.run()
    return engine, trace


class TestFastVsGeneratorDifferential:
    """The fast-path primitives replay generator timelines bit-for-bit.

    This is the load-bearing guarantee behind the event-core fast path:
    ``schedule_call`` chains and ``succeed_at`` waits consume the same
    sequence numbers and the same number of queue deliveries as the
    generator constructs they replace, so schedules — and therefore golden
    traces — cannot shift when a site is migrated."""

    def test_call_chains_match_generator_timelines(self):
        for seed in range(12):
            gen_eng, gen_trace = _drive_chains_generator(seed)
            call_eng, call_trace = _drive_chains_calls(seed)
            assert gen_trace == call_trace, f"seed {seed} diverged"
            assert gen_eng.now == call_eng.now
            assert gen_eng.events_processed == call_eng.events_processed

    def test_succeed_at_matches_timeout_timelines(self):
        for seed in range(12):
            gen_eng, gen_trace = _drive_chains_generator(seed)
            sa_eng, sa_trace = _drive_chains_succeed_at(seed)
            assert gen_trace == sa_trace, f"seed {seed} diverged"
            assert gen_eng.now == sa_eng.now
            assert gen_eng.events_processed == sa_eng.events_processed

    def _build_mixed_workload(self, engine: Engine, seed: int, trace: list):
        """Fast-path constructs and generators sharing one engine: call
        chains gate generator waiters, ``succeed_at`` events have wide
        fan-in, and timeouts get cancelled mid-flight."""
        rng = random.Random(seed)

        gates = [engine.event(name=f"gate{i}") for i in range(4)]
        for g in gates:
            g._defused = True

        def make_chain(cid: int, delays: list[float]):
            def hop(i: int):
                def fire(arg):
                    trace.append((engine.now, f"chain{cid}.{i}", arg))
                    if i + 1 < len(delays):
                        engine.schedule_call(delays[i + 1], hop(i + 1),
                                             arg + 1)
                    else:
                        gates[cid].succeed(f"gate{cid}")
                return fire
            engine.schedule_call(delays[0], hop(0), 0)

        for cid in range(len(gates)):
            make_chain(cid, [rng.uniform(0.0, 2.0)
                             for _ in range(rng.randint(1, 4))])

        timers = [engine.timeout(rng.uniform(1.0, 3.0), name=f"tm{i}")
                  for i in range(3)]
        for i, t in enumerate(timers):
            t.callbacks.append(
                lambda _ev, i=i: trace.append((engine.now, f"tm{i}")))

        def canceller(_arg):
            for t in timers[:2]:
                t.cancel()
            trace.append((engine.now, "cancelled"))

        engine.schedule_call(0.5, canceller)

        late = engine.event(name="late")
        late.succeed_at(rng.uniform(2.0, 4.0), value="late")

        def waiter(wid: int):
            got = yield gates[wid % len(gates)]
            trace.append((engine.now, f"w{wid}.gate", got))
            v = yield late
            trace.append((engine.now, f"w{wid}.late", v))

        for wid in range(6):
            spawn(engine, waiter(wid), name=f"w{wid}")

    def test_mixed_fastpath_workload_run_vs_step(self):
        for seed in range(10):
            eng1, trace1 = Engine(), []
            self._build_mixed_workload(eng1, seed, trace1)
            eng1.run()

            eng2, trace2 = Engine(), []
            self._build_mixed_workload(eng2, seed, trace2)
            while eng2.peek() != float("inf"):
                eng2.step()

            eng3, trace3 = Engine(), []
            self._build_mixed_workload(eng3, seed, trace3)
            counts = _run_in_chunks(eng3, seed)

            assert trace1 == trace2 == trace3, f"seed {seed} diverged"
            assert eng1.now == eng2.now == eng3.now
            assert (eng1.events_processed == eng2.events_processed
                    == eng3.events_processed == sum(counts))


class TestCallFreeList:
    """Lifecycle of the engine-owned ``_Call`` records behind
    ``schedule_call``: recycled after delivery, cleared before pooling,
    bounded by the cap, and safe to reuse re-entrantly."""

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.schedule_call(-0.1, lambda _a: None)

    def test_delivered_call_is_recycled_and_cleared(self):
        engine = Engine()
        hits = []
        engine.schedule_call(1.0, hits.append, "x")
        engine.run()
        assert hits == ["x"]
        assert len(engine._free) == 1
        call = engine._free[0]
        # fn/arg are dropped before pooling so the free-list never pins
        # user objects (closures, arrays) alive.
        assert call.fn is None and call.arg is None

    def test_recycled_object_is_reused(self):
        engine = Engine()
        engine.schedule_call(1.0, lambda _a: None)
        engine.run()
        recycled = engine._free[0]
        engine.schedule_call(1.0, lambda _a: None, "y")
        assert not engine._free          # popped for reuse, not reallocated
        assert engine._queue[0][2] is recycled
        assert recycled.arg == "y"

    def test_step_also_recycles(self):
        engine = Engine()
        engine.schedule_call(0.5, lambda _a: None)
        engine.step()
        assert len(engine._free) == 1
        assert engine.now == 0.5
        assert engine.events_processed == 1

    def test_free_list_bounded_by_cap(self, monkeypatch):
        monkeypatch.setattr("repro.sim.engine._FREE_LIST_CAP", 4)
        engine = Engine()
        for _ in range(32):
            engine.schedule_call(0.0, lambda _a: None)
        engine.run()
        assert len(engine._free) == 4    # excess _Calls are dropped, not kept

    def test_real_cap_holds_under_burst(self):
        engine = Engine()
        n = _FREE_LIST_CAP + 500
        for _ in range(n):
            engine.schedule_call(0.0, lambda _a: None)
        engine.run()
        assert len(engine._free) == _FREE_LIST_CAP
        assert engine.events_processed == n

    def test_reentrant_scheduling_reuses_inflight_call(self):
        # The delivered _Call is recycled *before* fn runs, so a call
        # scheduled from inside the delivery may get the very object whose
        # delivery is still on the stack — safe because fn/arg were read
        # out first.  This pins that ordering.
        engine = Engine()
        order = []

        def second(arg):
            order.append(("second", arg, engine.now))

        def first(arg):
            order.append(("first", arg, engine.now))
            engine.schedule_call(0.5, second, arg + 1)

        engine.schedule_call(1.0, first, 1)
        carrier = engine._queue[0][2]
        engine.run()
        assert order == [("first", 1, 1.0), ("second", 2, 1.5)]
        assert engine.events_processed == 2
        assert engine._free == [carrier]   # one object served both hops
