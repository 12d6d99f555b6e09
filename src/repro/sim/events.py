"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot occurrence (SimPy lineage) that callback
chains wait on by appending a callback; the engine calls each callback
with the event when it delivers it.  Events move through three states:

``PENDING``
    Created, not yet triggered.  Waiters stay attached.
``TRIGGERED``
    ``succeed``/``fail`` was called; the event sits in the engine queue.
``PROCESSED``
    The engine popped the event and ran all its callbacks.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Iterable

from repro.sim.errors import EventStateError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

Callback = Callable[["Event"], None]


class EventState(enum.Enum):
    """Lifecycle of an event: pending, triggered (queued), processed."""

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    engine:
        Owning engine; the event can only be scheduled on its queue.
    name:
        Optional label used in traces and ``repr``.
    """

    __slots__ = ("engine", "name", "callbacks", "_state", "_value", "_ok",
                 "_defused")

    def __init__(self, engine: "Engine", name: str | None = None):
        self.engine = engine
        self.name = name
        self.callbacks: list[Callback] = []
        self._state = EventState.PENDING
        self._value: object = None
        self._ok = True
        # A failed event with no waiter aborts the run (see Engine.step);
        # attaching a waiter "defuses" it because the failure is delivered.
        self._defused = False

    # -- state inspection --------------------------------------------------

    @property
    def state(self) -> EventState:
        """Current lifecycle state."""
        return self._state

    @property
    def triggered(self) -> bool:
        """True once succeed/fail was called."""
        return self._state is not EventState.PENDING

    @property
    def processed(self) -> bool:
        """True once the engine delivered the event."""
        return self._state is EventState.PROCESSED

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> object:
        """The payload passed to :meth:`succeed` or the failure exception."""
        if self._state is EventState.PENDING:
            raise EventStateError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self._state is not EventState.PENDING:
            raise EventStateError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = EventState.TRIGGERED
        self.engine._schedule(self, delay=0.0)
        return self

    def succeed_at(self, delay: float, value: object = None) -> "Event":
        """Trigger the event successfully, delivered ``delay`` from now.

        Timeout-like semantics without the intermediate object: where the
        classic pattern was ``timeout(d).callbacks.append(lambda _:
        ev.succeed(v))`` — two queue hops and a Timeout allocation — this
        schedules the event itself at ``now + delay``.  Note the waiters
        therefore resume one hop *earlier* than with the classic pattern;
        use it for new wiring, not as a drop-in where the schedule is
        golden-pinned.
        """
        if self._state is not EventState.PENDING:
            raise EventStateError(f"{self!r} has already been triggered")
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._ok = True
        self._value = value
        self._state = EventState.TRIGGERED
        self.engine._schedule(self, delay=float(delay))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters get the exception thrown."""
        return self.fail_at(0.0, exception)

    def fail_at(self, delay: float, exception: BaseException) -> "Event":
        """Trigger the event as failed, delivered ``delay`` from now (the
        failing twin of :meth:`succeed_at`)."""
        if self._state is not EventState.PENDING:
            raise EventStateError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._ok = False
        self._value = exception
        self._state = EventState.TRIGGERED
        self.engine._schedule(self, delay=float(delay))
        return self

    # -- engine hooks --------------------------------------------------------

    def _mark_processed(self) -> None:
        self._state = EventState.PROCESSED

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {self._state.value}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units in the future."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: object = None,
                 name: str | None = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(engine, name=name)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        self._state = EventState.TRIGGERED
        engine._schedule(self, delay=self.delay)

    def cancel(self) -> bool:
        """Neutralize a queued timeout: it will never be delivered.

        The engine skips the queued entry without advancing the clock or
        counting a delivery, so a cancelled watchdog no longer pads the
        queue or drags drain-mode ``run()`` out to its horizon.  Pending
        callbacks are dropped — only cancel a timeout nobody waits on (or
        whose waiters already resolved another way).  Returns whether the
        timeout was still undelivered.
        """
        if self._state is not EventState.TRIGGERED:
            return False
        self._state = EventState.PROCESSED
        self._defused = True
        self.callbacks = []
        return True


class Condition(Event):
    """Composite event that triggers once ``need`` children succeeded.

    ``need=1`` is an any-of; :class:`AllOf` needs every child.  The
    payload is a dict mapping each fired child event to its value, in
    trigger order.  If any child fails before the condition is met, the
    condition fails with that exception.

    Children are deduplicated at construction (first occurrence wins, order
    preserved): an event listed twice still fires only once, so counting it
    twice would deadlock the count past the unique child count — while the
    dict payload collapses the duplicate key anyway.  A ``need`` larger
    than the deduplicated child count is clamped to it.
    """

    __slots__ = ("events", "_fired", "_need")

    def __init__(self, engine: "Engine", events: Iterable[Event],
                 name: str | None = None, *, need: int):
        super().__init__(engine, name=name)
        # Events hash by identity, so dict.fromkeys is an order-preserving
        # dedup of the exact objects.
        self.events: list[Event] = list(dict.fromkeys(events))
        self._need = min(need, len(self.events))
        self._fired: list[Event] = []
        for ev in self.events:
            if ev.engine is not engine:
                raise ValueError("all events of a condition must share an engine")
        if not self.events:
            self.succeed({})
            return
        processed = EventState.PROCESSED
        for ev in self.events:
            ev._defused = True
            if ev._state is processed:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._state is not EventState.PENDING:
            return
        if not child._ok:
            self.fail(child.value)  # type: ignore[arg-type]
            return
        fired = self._fired
        fired.append(child)
        if len(fired) >= self._need:
            self.succeed(self._payload(fired))

    def _payload(self, fired: list[Event]) -> dict:
        """Build the success payload from the fired children."""
        return {ev: ev._value for ev in fired}


class AllOf(Condition):
    """Condition met when *all* child events have succeeded.

    Above :attr:`FANOUT` children the condition is built as a two-level
    tree: children are grouped into internal sub-conditions of at most
    ``FANOUT`` each, and the AllOf waits on the groups.  A wide fan-in
    (a writer after a million readers) then costs one short callback
    chain per group instead of a single million-child condition whose
    counter sits on the engine's hottest path.  The payload is unchanged
    — a dict over the original children — but its order is per-group
    trigger order rather than global trigger order.
    """

    __slots__ = ("_leaves",)

    #: Maximum direct children before the condition becomes a two-level
    #: tree.  Matches the dependency DAG's reader-cohort width, so a
    #: cohort join's AllOf always stays flat.
    FANOUT = 64

    def __init__(self, engine: "Engine", events: Iterable[Event],
                 name: str | None = None):
        events = list(dict.fromkeys(events))
        if len(events) > self.FANOUT:
            self._leaves = events
            fanout = self.FANOUT
            label = name or "all_of"
            groups = [
                Condition(engine, events[i:i + fanout],
                          need=min(fanout, len(events) - i),
                          name=f"{label}[{i // fanout}]")
                for i in range(0, len(events), fanout)
            ]
            super().__init__(engine, groups, name=name, need=len(groups))
        else:
            self._leaves = None
            super().__init__(engine, events, name=name, need=len(events))

    def _payload(self, fired: list[Event]) -> dict:
        if self._leaves is None:
            return super()._payload(fired)
        out: dict = {}
        for group in fired:
            out.update(group._value)  # each group's payload is a dict
        return out
