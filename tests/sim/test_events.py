"""Unit tests of Event, Timeout and the composite conditions."""

import pytest

from repro.sim import Condition, Event, EventState, EventStateError, Timeout


class TestEventLifecycle:
    def test_starts_pending(self, engine):
        ev = engine.event()
        assert ev.state is EventState.PENDING
        assert not ev.triggered and not ev.processed

    def test_succeed_triggers(self, engine):
        ev = engine.event()
        ev.succeed(42)
        assert ev.triggered and not ev.processed
        engine.run()
        assert ev.processed and ev.ok and ev.value == 42

    def test_value_before_trigger_raises(self, engine):
        with pytest.raises(EventStateError):
            _ = engine.event().value

    def test_double_succeed_raises(self, engine):
        ev = engine.event()
        ev.succeed()
        with pytest.raises(EventStateError):
            ev.succeed()

    def test_fail_then_succeed_raises(self, engine):
        ev = engine.event()
        ev._defused = True
        ev.fail(ValueError("x"))
        with pytest.raises(EventStateError):
            ev.succeed()

    def test_fail_requires_exception_instance(self, engine):
        with pytest.raises(TypeError):
            engine.event().fail("not an exception")

    def test_fail_value_is_exception(self, engine):
        ev = engine.event()
        ev._defused = True
        exc = ValueError("x")
        ev.fail(exc)
        engine.run()
        assert not ev.ok and ev.value is exc

    def test_callbacks_receive_event(self, engine):
        ev = engine.event()
        got = []
        ev.callbacks.append(got.append)
        ev.succeed()
        engine.run()
        assert got == [ev]

    def test_name_in_repr(self, engine):
        assert "myevent" in repr(engine.event(name="myevent"))


class TestTimeout:
    def test_negative_delay_rejected(self, engine):
        with pytest.raises(ValueError):
            Timeout(engine, -1.0)

    def test_zero_delay_fires_immediately(self, engine):
        ev = engine.timeout(0.0)
        engine.run()
        assert ev.processed and engine.now == 0.0

    def test_carries_value(self, engine):
        ev = engine.timeout(1.0, value="tick")
        engine.run()
        assert ev.value == "tick"

    def test_is_born_triggered(self, engine):
        assert engine.timeout(1.0).triggered


class TestAllOf:
    def test_fires_after_all_children(self, engine):
        children = [engine.timeout(t) for t in (1.0, 3.0, 2.0)]
        combo = engine.all_of(children)
        engine.run(until=combo)
        assert engine.now == 3.0

    def test_value_maps_children(self, engine):
        a = engine.timeout(1.0, value="a")
        b = engine.timeout(2.0, value="b")
        combo = engine.all_of([a, b])
        engine.run()
        assert combo.value == {a: "a", b: "b"}

    def test_empty_fires_immediately(self, engine):
        combo = engine.all_of([])
        assert combo.triggered
        engine.run()
        assert combo.value == {}

    def test_already_processed_children_accepted(self, engine):
        a = engine.timeout(1.0)
        engine.run()
        combo = engine.all_of([a])
        engine.run()
        assert combo.processed

    def test_child_failure_fails_condition(self, engine):
        good = engine.timeout(1.0)
        bad = engine.event()
        engine.timeout(0.5).callbacks.append(
            lambda _: bad.fail(RuntimeError("child died")))
        combo = engine.all_of([good, bad])
        combo._defused = True
        engine.run()
        assert not combo.ok
        assert isinstance(combo.value, RuntimeError)

    def test_cross_engine_child_rejected(self, engine):
        from repro.sim import Engine
        other = Engine()
        foreign = other.timeout(1.0)
        with pytest.raises(ValueError):
            engine.all_of([foreign])


class TestDuplicateChildren:
    """Regression: duplicate children used to set ``need`` above the
    unique-child count and double-count the single firing, while the
    dict payload silently collapsed the duplicate key."""

    def test_duplicates_deduplicated_at_construction(self, engine):
        a = engine.timeout(1.0, value="a")
        combo = engine.all_of([a, a, a])
        assert combo.events == [a]
        assert combo._need == 1
        engine.run()
        assert combo.processed
        assert combo.value == {a: "a"}
        # The single firing is counted exactly once.
        assert len(combo._fired) == 1

    def test_duplicates_mixed_with_distinct_children(self, engine):
        a = engine.timeout(1.0, value="a")
        b = engine.timeout(2.0, value="b")
        combo = engine.all_of([a, b, a])
        assert combo.events == [a, b]
        engine.run(until=combo)
        assert engine.now == 2.0
        assert combo.value == {a: "a", b: "b"}

    def test_already_processed_duplicate_children(self, engine):
        a = engine.timeout(1.0, value="a")
        engine.run()
        assert a.processed
        combo = engine.all_of([a, a])
        engine.run()
        assert combo.processed and combo.value == {a: "a"}

    def test_need_counts_distinct_firings(self, engine):
        a = engine.timeout(1.0)
        b = engine.timeout(2.0)
        combo = Condition(engine, [a, a, b], need=2)
        engine.run(until=combo)
        # One count per distinct firing: a then b, never a twice.
        assert combo._fired == [a, b]
        assert engine.now == 2.0

    def test_explicit_need_clamped_to_unique_children(self, engine):
        a = engine.timeout(1.0)
        combo = Condition(engine, [a, a], need=2)
        engine.run()
        assert combo.processed  # clamped to 1, not deadlocked at 2

    def test_anyof_duplicates(self, engine):
        a = engine.timeout(1.0, value="a")
        combo = Condition(engine, [a, a], need=1)
        engine.run(until=combo)
        assert combo.value == {a: "a"}


class TestGroupedAllOf:
    """The two-level tree built above ``AllOf.FANOUT`` children."""

    def test_wide_allof_groups_children(self, engine):
        from repro.sim import AllOf
        n = AllOf.FANOUT * 3 + 5
        children = [engine.timeout(float(i % 7), value=i)
                    for i in range(n)]
        combo = engine.all_of(children)
        # Direct children are the internal groups, not the leaves.
        assert len(combo.events) == (n + AllOf.FANOUT - 1) // AllOf.FANOUT
        assert combo._leaves == children
        engine.run(until=combo)
        assert engine.now == 6.0
        assert combo.value == {ev: i for i, ev in enumerate(children)}

    def test_wide_allof_fires_at_last_child(self, engine):
        from repro.sim import AllOf
        children = [engine.timeout(1.0) for _ in range(AllOf.FANOUT + 1)]
        children.append(engine.timeout(9.0))
        combo = engine.all_of(children)
        engine.run(until=combo)
        assert engine.now == 9.0

    def test_wide_allof_child_failure_propagates(self, engine):
        from repro.sim import AllOf
        children = [engine.timeout(1.0) for _ in range(AllOf.FANOUT + 2)]
        bad = engine.event()
        children.append(bad)
        engine.timeout(0.5).callbacks.append(
            lambda _: bad.fail(RuntimeError("leaf died")))
        combo = engine.all_of(children)
        combo._defused = True
        engine.run()
        assert not combo.ok
        assert isinstance(combo.value, RuntimeError)

    def test_at_fanout_stays_flat(self, engine):
        from repro.sim import AllOf
        children = [engine.timeout(1.0) for _ in range(AllOf.FANOUT)]
        combo = engine.all_of(children)
        assert combo._leaves is None
        assert combo.events == children


class TestAnyOf:
    """An any-of is a ``Condition`` with ``need=1``."""

    def test_fires_on_first_child(self, engine):
        slow = engine.timeout(5.0)
        fast = engine.timeout(1.0)
        combo = Condition(engine, [slow, fast], need=1)
        engine.run(until=combo)
        assert engine.now == 1.0
        assert fast in combo.value and slow not in combo.value

    def test_empty_fires_immediately(self, engine):
        combo = Condition(engine, [], need=1)
        engine.run()
        assert combo.processed

    def test_late_children_still_processed(self, engine):
        slow = engine.timeout(5.0)
        fast = engine.timeout(1.0)
        Condition(engine, [slow, fast], need=1)
        engine.run()
        assert slow.processed


def test_children_of_condition_are_defused(engine):
    """A failing child with a condition attached must not abort the run."""
    bad = engine.event()
    combo = Condition(engine, [bad, engine.timeout(1.0)], need=1)
    engine.timeout(2.0).callbacks.append(
        lambda _: None)
    assert bad._defused
    del combo
