"""Unit tests of the discrete-event engine core loop."""

import pytest

from repro.sim import Engine, SimError


class TestClock:
    def test_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_custom_start_time(self):
        assert Engine(start_time=5.0).now == 5.0

    def test_timeout_advances_clock(self, engine):
        engine.timeout(2.5)
        engine.run()
        assert engine.now == 2.5

    def test_clock_monotonic_across_events(self, engine):
        seen = []
        for delay in (3.0, 1.0, 2.0):
            engine.timeout(delay).callbacks.append(
                lambda ev, d=delay: seen.append((engine.now, d)))
        engine.run()
        assert seen == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_run_until_time_stops_clock_exactly(self, engine):
        engine.timeout(10.0)
        engine.run(until=4.0)
        assert engine.now == 4.0

    def test_run_until_time_leaves_future_events(self, engine):
        ev = engine.timeout(10.0)
        engine.run(until=4.0)
        assert not ev.processed
        engine.run()
        assert ev.processed and engine.now == 10.0

    def test_run_until_past_raises(self, engine):
        engine.timeout(5.0)
        engine.run()
        with pytest.raises(ValueError):
            engine.run(until=1.0)

    def test_drained_queue_does_not_advance_to_horizon(self, engine):
        engine.timeout(1.0)
        engine.run(until=100.0)
        assert engine.now == 1.0


class TestTieBreaking:
    def test_same_time_fifo_by_creation(self, engine):
        order = []
        for i in range(5):
            engine.timeout(1.0).callbacks.append(
                lambda ev, i=i: order.append(i))
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_due_heap_entry_precedes_later_zero_delay_entry(self, engine):
        # Both lanes hold work at t=1: the heap's timeout was scheduled
        # first (lower seq), so it runs before the zero-delay call the
        # first delivery queued — deliveries follow (when, seq).
        order = []
        first = engine.timeout(1.0)
        engine.timeout(1.0).callbacks.append(lambda ev: order.append("heap"))
        first.callbacks.append(
            lambda ev: engine.schedule_call(0.0, order.append, "ready"))
        engine.run()
        assert order == ["heap", "ready"]

    def test_determinism_across_runs(self):
        def run_once():
            engine = Engine()
            order = []
            for i in range(10):
                engine.timeout(float(i % 3)).callbacks.append(
                    lambda ev, i=i: order.append(i))
            engine.run()
            return order

        assert run_once() == run_once()


class TestStep:
    def test_step_empty_queue_raises(self, engine):
        with pytest.raises(SimError):
            engine.step()

    def test_peek_empty_is_inf(self, engine):
        assert engine.peek() == float("inf")

    def test_peek_returns_next_time(self, engine):
        engine.timeout(7.0)
        engine.timeout(3.0)
        assert engine.peek() == 3.0

    def test_step_processes_one_event(self, engine):
        a = engine.timeout(1.0)
        b = engine.timeout(2.0)
        engine.step()
        assert a.processed and not b.processed


class TestRunUntilEvent:
    def test_returns_event_value(self, engine):
        ev = engine.event()
        engine.timeout(1.0).callbacks.append(lambda _: ev.succeed("payload"))
        assert engine.run(until=ev) == "payload"

    def test_stops_at_event_not_later(self, engine):
        ev = engine.event()
        engine.timeout(1.0).callbacks.append(lambda _: ev.succeed())
        later = engine.timeout(100.0)
        engine.run(until=ev)
        assert engine.now == 1.0 and not later.processed

    def test_already_processed_event_returns_immediately(self, engine):
        ev = engine.event()
        ev.succeed(13)
        engine.run()
        assert engine.run(until=ev) == 13

    def test_never_fired_event_raises_deadlock(self, engine):
        ev = engine.event()
        engine.timeout(1.0)
        with pytest.raises(SimError, match="drained"):
            engine.run(until=ev)

    def test_remaining_callbacks_run_when_stop_event_fires(self, engine):
        """Regression: stopping on an event must not drop callbacks that
        were attached after the one that stops the run."""
        ev = engine.timeout(1.0)
        seen = []
        ev.callbacks.append(lambda _: seen.append("first"))
        engine.run(until=ev)
        ev2 = engine.timeout(1.0)
        seen2 = []
        ev2.callbacks.append(lambda _: seen2.append("a"))
        ev2.callbacks.append(lambda _: seen2.append("b"))
        engine.run(until=ev2)
        assert seen == ["first"]
        assert seen2 == ["a", "b"]


class TestFailurePropagation:
    def test_unwaited_failure_aborts_run(self, engine):
        ev = engine.event()
        engine.timeout(1.0).callbacks.append(
            lambda _: ev.fail(RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="boom"):
            engine.run()

    def test_defused_failure_does_not_abort(self, engine):
        ev = engine.event()
        ev._defused = True
        engine.timeout(1.0).callbacks.append(
            lambda _: ev.fail(RuntimeError("boom")))
        engine.run()
        assert not ev.ok


def test_repr_mentions_time_and_queue(engine):
    engine.timeout(1.0)
    text = repr(engine)
    assert "t=" in text and "queued=1" in text
