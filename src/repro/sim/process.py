"""Generator-based simulation processes.

A process drives a Python generator: every ``yield``-ed :class:`Event`
suspends the process until that event fires, at which point the generator is
resumed with the event's value (or has the failure exception thrown in).
A process is itself an event that fires when its generator returns, so
processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.sim.errors import Interrupt, SimError
from repro.sim.events import Event, EventState

_PENDING = EventState.PENDING
_PROCESSED = EventState.PROCESSED

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Process(Event):
    """An active entity executing a generator on an :class:`Engine`."""

    __slots__ = ("_generator", "_waiting_on", "_wait_index")

    def __init__(self, engine: "Engine", generator: Generator,
                 name: str | None = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
                " — did you forget to call the generator function?")
        super().__init__(engine, name=name or getattr(
            generator, "__name__", None))
        self._generator = generator
        self._waiting_on: Event | None = None
        self._wait_index = 0
        # Kick-start on a zero-delay event so creation order does not matter.
        start = Event(engine, name=f"{self.name}:start")
        start.callbacks.append(self._resume)
        start._defused = True
        start.succeed()

    # -- public API ----------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on remains pending; the process can
        re-wait on it after handling the interrupt.
        """
        if not self.is_alive:
            raise SimError(f"cannot interrupt finished process {self!r}")
        if self.engine.active_process is self:
            raise SimError("a process cannot interrupt itself")
        target = self._waiting_on
        if target is not None:
            # O(1) detach: tombstone the recorded slot instead of a linear
            # list.remove — a wide fan-in event (thousands of waiters) made
            # every interrupt O(n).  The engine skips None callbacks at
            # delivery; indices stay valid because nothing is ever removed.
            # NB: ``callbacks[index] is self._resume`` would never match —
            # each ``self._resume`` access builds a fresh bound method, so
            # identity is checked through ``__self__`` instead.
            callbacks = target.callbacks
            index = self._wait_index
            if (index < len(callbacks)
                    and getattr(callbacks[index], "__self__", None) is self):
                callbacks[index] = None
            self._waiting_on = None
        carrier = Event(self.engine, name=f"{self.name}:interrupt")
        carrier.callbacks.append(self._resume)
        carrier._defused = True
        carrier.fail(Interrupt(cause))

    def cancel(self, cause: object = None) -> bool:
        """Abandon the process: interrupt it and defuse its failure.

        Unlike a bare :meth:`interrupt`, nobody is expected to wait on a
        cancelled process — if the generator lets the :class:`Interrupt`
        escape (the common case), the resulting failed event must not
        abort the engine.  Returns whether the process was still alive.
        """
        self._defused = True
        if not self.is_alive:
            return False
        self.interrupt(cause)
        return True

    # -- engine plumbing -----------------------------------------------------

    def _resume(self, trigger: Event) -> None:
        if self._state is not _PENDING:
            # A stale wake-up (e.g. the start event of a process cancelled
            # before it ever ran) must not resume a finished generator.
            return
        self._waiting_on = None
        engine = self.engine
        prev_active, engine._active = engine._active, self
        try:
            while True:
                try:
                    if trigger._ok:
                        target = self._generator.send(trigger._value)
                    else:
                        target = self._generator.throw(trigger._value)
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except BaseException as exc:
                    # The process died: propagate through its own event so
                    # waiters see the failure (or the engine aborts).  The
                    # stored traceback starts at the generator: this
                    # frame's ``self`` would otherwise close a cycle
                    # (process -> exception -> traceback -> frame).
                    self.fail(exc.with_traceback(exc.__traceback__.tb_next))
                    return
                if not isinstance(target, Event):
                    self.fail(TypeError(
                        f"process {self.name!r} yielded {target!r}; "
                        "processes may only yield Event instances"))
                    return
                if target.engine is not engine:
                    self.fail(SimError(
                        f"process {self.name!r} yielded an event from a "
                        "different engine"))
                    return
                target._defused = True
                if target._state is _PROCESSED:
                    # Already fired: loop immediately with its outcome.
                    trigger = target
                    continue
                self._waiting_on = target
                self._wait_index = len(target.callbacks)
                target.callbacks.append(self._resume)
                return
        finally:
            engine._active = prev_active
