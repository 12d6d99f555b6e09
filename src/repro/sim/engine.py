"""The discrete-event simulation core loop.

The :class:`Engine` owns simulated time and a two-lane queue of triggered
work.  Determinism matters more than raw speed here — every run of a GrOUT
schedule must produce the identical timeline — so ties in time are broken by
a monotonically increasing sequence number rather than object identity.

Queue structure
---------------
Most deliveries in a GrOUT schedule are *zero-delay*: an event succeeds
"now" and is delivered on the next engine iteration.  Pushing those through
the heap costs two O(log n) sifts for what is really FIFO behaviour, so the
engine keeps two lanes:

``_ready``
    A plain deque of ``(seq, item)`` pairs scheduled at exactly the current
    time.  Append and pop are O(1).
``_queue``
    The classic heap of ``(when, seq, item)`` triples for future work.

The merge rule preserves the global ordering contract — deliver strictly by
``(when, seq)`` — by comparing the heap head's sequence number against the
ready lane's head whenever both hold work at the current timestamp.

Items are either :class:`~repro.sim.events.Event` instances or engine-owned
:class:`_Call` records: a bare ``(fn, arg)`` pair delivered with no state
machine, no callback list and no Event allocation.  ``_Call`` objects are
recycled through a bounded free-list, so steady-state fast-path scheduling
allocates nothing but the queue tuple.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import Callable, Iterable

from repro.sim.errors import SimError
from repro.sim.events import AllOf, Event, EventState, Timeout

_PROCESSED = EventState.PROCESSED
_INF = float("inf")

#: The delivery loop's bounds when a run has none: no delivery limit, and
#: a stop event nobody triggers, so it is never processed (no engine owns
#: it).
_UNLIMITED = sys.maxsize
_NO_STOP = Event(None, name="no-stop")  # type: ignore[arg-type]

#: Upper bound on the ``_Call`` free-list — enough to absorb the burstiest
#: same-timestamp fan-out seen in practice while keeping the pool O(1).
_FREE_LIST_CAP = 4096


class _Call:
    """An engine-owned callback delivery: ``fn(arg)`` at a point in time.

    Deliberately not an :class:`Event` — no state, no waiters, no payload.
    The engine recycles these through a bounded free-list; user code never
    holds one (``schedule_call`` returns ``None``), so reuse is safe.
    """

    __slots__ = ("fn", "arg")

    def __init__(self, fn: Callable[[object], None], arg: object):
        self.fn = fn
        self.arg = arg


class Engine:
    """Deterministic discrete-event simulation engine.

    Time is a float in *seconds* by convention throughout the repository.
    Waiting means appending a callback to an event, or scheduling one
    with :meth:`schedule_call`; a multi-step activity is a chain of them.

    Examples
    --------
    >>> eng = Engine()
    >>> log = []
    >>> eng.timeout(2.5).callbacks.append(
    ...     lambda ev: eng.schedule_call(1.0, log.append, eng.now))
    >>> eng.run()
    >>> eng.now, log
    (3.5, [2.5])
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list[tuple[float, int, object]] = []
        self._ready: deque[tuple[int, object]] = deque()
        self._seq = 0
        self._processed = 0
        self._free: list[_Call] = []

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Deliveries since the engine started (throughput metric).

        Counts both Event deliveries and ``schedule_call`` deliveries —
        one per logical wait either way, so two formulations of a chain
        that wait the same way deliver the same count.
        """
        return self._processed

    @property
    def queued(self) -> int:
        """Deliveries still queued, cancelled entries included."""
        return len(self._ready) + len(self._queue)

    # -- event factories -----------------------------------------------------

    def event(self, name: str | None = None) -> Event:
        """Create an untriggered :class:`Event` owned by this engine."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: object = None,
                name: str | None = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value=value, name=name)

    def all_of(self, events: Iterable[Event], name: str | None = None) -> AllOf:
        """Condition firing when all ``events`` succeeded."""
        return AllOf(self, events, name=name)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        """Insert a triggered event into the queue (engine internal)."""
        if delay == 0.0:
            self._ready.append((self._seq, event))
        else:
            heapq.heappush(self._queue,
                           (self._now + delay, self._seq, event))
        self._seq += 1

    def schedule_call(self, delay: float, fn: Callable[[object], None],
                      arg: object = None) -> None:
        """Deliver ``fn(arg)`` after ``delay`` — the fast-path primitive.

        A straight-line "wait t, then continue" step costs one recycled
        ``_Call`` and one queue slot: no Event, no callback list, no
        Timeout object.  The delivery counts toward
        :attr:`events_processed` exactly like an event would, so a
        ``schedule_call`` hop and a Timeout hop are one delivery each.
        Returns ``None`` — the call cannot be cancelled; guard staleness
        inside ``fn`` instead (a chain that was interrupted meanwhile
        bumps a generation or marks itself dead, and the stale call
        returns without acting).
        """
        if delay < 0:
            raise ValueError(f"negative call delay: {delay}")
        free = self._free
        if free:
            call = free.pop()
            call.fn = fn
            call.arg = arg
        else:
            call = _Call(fn, arg)
        if delay == 0.0:
            self._ready.append((self._seq, call))
        else:
            heapq.heappush(self._queue, (self._now + delay, self._seq, call))
        self._seq += 1

    # -- main loop -----------------------------------------------------------

    def _clean_head(self) -> None:
        """Drop cancelled entries from both lane heads (engine internal)."""
        ready = self._ready
        while ready:
            item = ready[0][1]
            if type(item) is _Call or item._state is not _PROCESSED:
                break
            ready.popleft()
        queue = self._queue
        while queue:
            item = queue[0][2]
            if type(item) is _Call or item._state is not _PROCESSED:
                break
            heapq.heappop(queue)

    def peek(self) -> float:
        """Time of the next scheduled delivery, or ``inf`` if none remain."""
        self._clean_head()
        if self._ready:
            return self._now
        return self._queue[0][0] if self._queue else _INF

    def drain(self) -> int:
        """Discard every queued delivery without running it (teardown).

        Pending events, timeouts and fast-path calls are dropped on the
        floor — their callbacks never fire — and the recycled-call free
        list is released.  This breaks the reference cycles a mid-flight
        simulation keeps alive (queued callbacks are bound methods of
        chains that reach the whole cluster graph), so back-to-back
        runtimes in one process stop accreting memory.  The clock and
        ``events_processed`` are left untouched; returns the number of
        deliveries dropped.
        """
        dropped = self.queued
        self._ready.clear()
        self._queue.clear()
        self._free.clear()
        return dropped

    def _deliver(self, limit: int, stop: Event, horizon: float) -> int:
        """Deliver in ``(when, seq)`` order; return how many deliveries ran.

        The engine's one delivery loop.  It stops once ``limit``
        deliveries ran, ``stop`` is processed, the queue drains, or the
        next delivery lies past ``horizon``; the clock then parks at
        ``horizon`` — even when the head is a cancelled entry, so a
        horizon-bounded run always ends there while work remains.
        Cancelled entries (a neutralized watchdog :class:`Timeout`) are
        skipped without advancing the clock and count as no delivery.
        Callers enter the loop once per call, never once per delivery:
        at millions of deliveries the call overhead alone dominates.
        """
        ready = self._ready
        queue = self._queue
        pop = heapq.heappop
        free = self._free
        steps = 0
        now = self._now
        while steps < limit and stop._state is not _PROCESSED:
            if ready:
                if (queue and queue[0][0] <= now
                        and queue[0][1] < ready[0][0]):
                    when, _seq, item = pop(queue)
                else:
                    when = now
                    item = ready.popleft()[1]
            elif queue:
                if queue[0][0] > horizon:
                    self._now = horizon
                    break
                when, _seq, item = pop(queue)
                if when < now:  # pragma: no cover - _schedule guard
                    raise SimError("event scheduled in the past")
            else:
                break
            if type(item) is _Call:
                self._now = now = when
                self._processed += 1
                steps += 1
                fn, arg = item.fn, item.arg
                item.fn = item.arg = None
                if len(free) < _FREE_LIST_CAP:
                    free.append(item)
                fn(arg)
                continue
            if item._state is _PROCESSED:
                continue  # cancelled while queued: skip, clock untouched
            self._now = now = when
            self._processed += 1
            steps += 1
            callbacks, item.callbacks = item.callbacks, []
            item._mark_processed()
            for callback in callbacks:
                if callback is not None:
                    callback(item)
            # Unhandled failures abort the simulation loudly rather than
            # being silently dropped: a failed event nobody waited on is a
            # logic bug.
            if not item._ok and not item._defused:
                raise item.value  # type: ignore[misc]
        return steps

    def step(self) -> None:
        """Process exactly one delivery; raise :class:`SimError` when empty.

        Cancelled entries on the way are skipped without advancing the
        clock, exactly like in :meth:`run`.
        """
        if not self._deliver(1, _NO_STOP, _INF):
            raise SimError("step() on an empty event queue")

    def run_steps(self, limit: int) -> int:
        """Process up to ``limit`` deliveries; return how many ran.

        The serve pump's quantum primitive: one bounded call replaces a
        per-delivery ``peek()``/``step()`` pair.  Cancelled entries are
        skipped without counting toward the limit, matching
        :attr:`events_processed`; stops early when the queue drains.
        """
        if limit < 0:
            raise ValueError(f"negative step limit: {limit}")
        return self._deliver(limit, _NO_STOP, _INF)

    def run(self, until: float | Event | None = None) -> object:
        """Run until the queue drains, a time is reached, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — drain the queue; a float — stop when time would pass
            it; an :class:`Event` — stop once it is processed and return its
            value.
        """
        if isinstance(until, Event):
            # The loop polls the stop event between deliveries rather than
            # stopping from a callback: raising out of the callback loop
            # would silently drop the event's remaining callbacks.
            self._deliver(_UNLIMITED, until, _INF)
            if not until.processed:
                raise SimError(
                    f"run(until={until!r}) drained the queue before "
                    "the event fired — deadlock or missing trigger")
            return until.value
        horizon = _INF
        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon} lies in the past (now={self._now})")
        # NB: when the queue drains *before* the horizon the clock is left
        # at the last delivered event — callers measuring elapsed time rely
        # on that, and it is exactly why cancelled entries must not advance
        # the clock (a stale watchdog used to drag the drain end-time out
        # to its timeout horizon).
        self._deliver(_UNLIMITED, _NO_STOP, horizon)
        return None

    def __repr__(self) -> str:
        return f"<Engine t={self._now:.6g} queued={self.queued}>"
