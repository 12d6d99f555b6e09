"""CUDA-stream semantics on the simulation engine.

A :class:`Stream` is a FIFO queue of device operations: each enqueued
operation starts only after (a) the previous operation on the same stream
completed and (b) all explicitly awaited events fired — exactly the CUDA
ordering rules GrCUDA's intra-node scheduler relies on (Algorithm 2 inserts
async wait-events on ancestor computations).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Sequence

from repro.sim import Engine, Event, Tracer
from repro.sim.events import EventState

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import Gpu
    from repro.sim import Resource

_PROCESSED = EventState.PROCESSED


class StreamOp:
    """One stream operation as an explicit callback chain.

    An op is straight-line — wait for prereqs, price, maybe hold the host
    link, sleep the kernel duration, complete — so it runs as engine
    ``schedule_call`` hops: one delivery per logical wait (a start hop,
    the prereq join, the link grant, each sleep).

    The op is also the per-launch record: a subclass adds the slots its
    body needs and overrides :meth:`begin` (and :meth:`span_args`), so a
    queued launch keeps one object instead of a closure family.

    Cancellation (node crash) marks the op dead: pending scheduled calls
    and prereq callbacks still deliver, but as no-ops, and a held or
    queued resource request is released.  The completion
    event then never fires, which is what crash re-execution relies on.
    """

    __slots__ = ("stream", "engine", "name", "category", "done",
                 "enqueued_at", "started_at", "_key", "_dead", "_held",
                 "_hold_seconds", "_sleep_seconds", "_next",
                 "_pending_joins", "_prereqs")

    def __init__(self, stream: "Stream", name: str, category: str):
        engine = stream.engine
        self.stream = stream
        self.engine = engine
        self.name = name
        self.category = category
        self.done = engine.event(name=f"{stream.lane}:{name}:done")
        self.enqueued_at = engine.now
        self.started_at = 0.0
        self._key = 0
        self._dead = False
        self._held = None
        self._hold_seconds = 0.0
        self._sleep_seconds = 0.0
        self._next: Callable[["StreamOp"], None] | None = None
        self._pending_joins = 0
        self._prereqs: list[Event] | None = None

    # -- the op body (overridden by per-launch records) ---------------------

    def begin(self) -> None:
        """First step of the body, run once the stream starts the op; it
        continues through the primitives below and ends in
        :meth:`finish`."""
        raise NotImplementedError

    def span_args(self) -> dict:
        """Attributes attached to the op's recorded span."""
        return {}

    # -- chain stages (engine-delivered) ------------------------------------

    def _start(self) -> None:
        prereqs, self._prereqs = self._prereqs, None
        if self._dead:
            return
        if prereqs:
            pending = 0
            for ev in prereqs:
                ev._defused = True
                if ev._state is not _PROCESSED:
                    pending += 1
            if pending:
                self._pending_joins = pending
                on_prereq = self._on_prereq
                for ev in prereqs:
                    if ev._state is not _PROCESSED:
                        ev.callbacks.append(on_prereq)
                return
            # Every prereq already fired: one hop, matching an AllOf that
            # succeeds at construction.
            self.engine.schedule_call(0.0, StreamOp._begin, self)
            return
        self._begin()

    def _on_prereq(self, child: Event) -> None:
        if self._dead:
            return
        if not child._ok:
            self._dead = True
            self.stream._runners.pop(self._key, None)
            self.done.fail(child.value)  # type: ignore[arg-type]
            return
        self._pending_joins -= 1
        if self._pending_joins == 0:
            self.engine.schedule_call(0.0, StreamOp._begin, self)

    def _begin(self) -> None:
        if self._dead:
            return
        self.started_at = self.engine.now
        self.begin()

    # -- continuation primitives (called from the op body) ------------------

    def hold_then_sleep(self, resource: "Resource", hold_seconds: float,
                        sleep_seconds: float,
                        then: Callable[["StreamOp"], None]) -> None:
        """Hold ``resource`` for ``hold_seconds``, sleep ``sleep_seconds``,
        then continue: one delivery for the grant, one at the end of the
        hold and one at the end of a non-zero sleep."""
        self._hold_seconds = hold_seconds
        self._sleep_seconds = sleep_seconds
        self._next = then
        req = resource.request()
        self._held = req
        req.callbacks.append(self._on_grant)

    def _on_grant(self, _ev: Event) -> None:
        if self._dead:
            return
        self.engine.schedule_call(self._hold_seconds, StreamOp._after_hold,
                                  self)

    def _after_hold(self) -> None:
        if self._dead:
            return  # cancel() already released the request
        req, self._held = self._held, None
        req.resource.release(req)
        if self._sleep_seconds > 0:
            self.engine.schedule_call(self._sleep_seconds,
                                      StreamOp._run_next, self)
        else:
            self._run_next()

    def sleep(self, seconds: float,
              then: Callable[["StreamOp"], None]) -> None:
        """Continue after ``seconds``; zero continues synchronously."""
        self._next = then
        if seconds > 0:
            self.engine.schedule_call(seconds, StreamOp._run_next, self)
        else:
            self._run_next()

    def _run_next(self) -> None:
        if self._dead:
            return
        nxt, self._next = self._next, None
        nxt(self)

    def finish(self, result: object) -> None:
        """Complete the op: record the span and fire the done event."""
        if self._dead:
            return
        stream = self.stream
        end = self.engine.now
        if stream._busy_until < end:
            stream._busy_until = end
        if stream.tracer is not None:
            extra = self.span_args()
            extra["queued_seconds"] = self.started_at - self.enqueued_at
            stream.tracer.record(stream.lane, self.category, self.name,
                                 self.started_at, end, **extra)
        stream._runners.pop(self._key, None)
        self.done.succeed(result)

    # -- crash recovery ------------------------------------------------------

    def cancel(self, cause: object = None) -> bool:
        """Kill the op at once; its completion event never fires.
        Returns whether it was still alive."""
        if self._dead or self.done.triggered:
            return False
        self._dead = True
        held, self._held = self._held, None
        if held is not None:
            held.resource.release(held)
        return True

    def __repr__(self) -> str:
        state = "dead" if self._dead else "live"
        return f"<StreamOp {self.stream.lane}:{self.name} {state}>"


class Stream:
    """One in-order execution queue on a simulated GPU.

    The owning :class:`~repro.gpu.device.Gpu` holds its streams; a stream
    refers back to it only weakly, so a dropped GPU (a shut-down
    runtime's, or a crashed worker's) is freed by reference counting.
    """

    def __init__(self, engine: Engine, gpu: "Gpu", index: int,
                 tracer: Tracer | None = None):
        self.engine = engine
        self._gpu = weakref.ref(gpu)
        self.index = index
        self.tracer = tracer
        #: Trace-lane name of this stream, e.g. ``worker0/gpu1/stream2``.
        self.lane = f"{gpu.lane}/stream{index}"
        self._tail: Event | None = None   # completion of last enqueued op
        self._ops_enqueued = 0
        self._busy_until = 0.0            # bookkeeping for policies
        #: Live ops, keyed by op index.  Each op removes its own entry
        #: on exit, so membership is O(1) per op instead of a liveness
        #: rescan of the whole history on every enqueue.
        self._runners: dict[int, StreamOp] = {}

    @property
    def gpu(self) -> "Gpu | None":
        """The GPU this stream runs on (``None`` once it was dropped)."""
        return self._gpu()

    @property
    def ops_enqueued(self) -> int:
        """Operations enqueued over the stream's lifetime."""
        return self._ops_enqueued

    @property
    def last_completion(self) -> Event | None:
        """Completion event of the most recently enqueued operation."""
        return self._tail

    def push(self, op: StreamOp, waits: Sequence[Event] = ()) -> Event:
        """Queue ``op`` (built for this stream); returns its completion
        event.

        ``waits`` are additional events (CUDA wait-events) that must fire
        before the operation may start, on top of stream FIFO order.  Once
        both allow, ``op.begin()`` runs and drives the rest of the op
        through :class:`StreamOp`'s continuation primitives, ending in
        ``op.finish(result)``.  The recorded span carries
        ``op.span_args()`` (e.g. the owning ``ce`` id) and the measured
        ``queued_seconds`` between enqueue and start.
        """
        self._ops_enqueued += 1
        key = op._key = self._ops_enqueued
        tail = self._tail
        prereqs = [e for e in ([tail] if tail is not None else [])
                   + list(waits) if e is not None]
        if prereqs:
            # Order-preserving identity dedup, matching Condition's.
            op._prereqs = list(dict.fromkeys(prereqs))
        self._runners[key] = op
        self._tail = op.done
        # One start hop before the join is built.
        self.engine.schedule_call(0.0, StreamOp._start, op)
        return op.done

    def abort_pending(self, cause: object = None) -> int:
        """Kill every op still in flight on this stream (node crash).

        Cancelled ops never fire their completion events — the recovery
        layer re-executes them elsewhere and forwards the results.
        Returns the number of ops aborted.
        """
        aborted = 0
        for op in list(self._runners.values()):
            if op.cancel(cause):
                aborted += 1
        self._runners.clear()
        return aborted

    def synchronize(self) -> Event:
        """Event firing once everything currently enqueued has completed."""
        if self._tail is None or self._tail.processed:
            ev = self.engine.event(name=f"{self.lane}:sync")
            ev.succeed()
            return ev
        return self._tail

    def __repr__(self) -> str:
        return f"<Stream {self.lane} ops={self._ops_enqueued}>"
