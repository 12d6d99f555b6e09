"""A minimal generator driver: the reference formulation the engine
differential tests hold callback chains against.

:func:`spawn` drives a generator the classic way: a zero-delay start
delivery, then one resume per yielded event (an already-processed event
resumes at once), and the returned :class:`GenProcess` fires with the
generator's return value, or fails with what it raised.
``interrupt(cause)`` detaches it from its event and throws
``Interrupt(cause)`` into the generator one hop later.
"""

from __future__ import annotations

from repro.sim import Engine, Event, Interrupt, SimError


class GenProcess(Event):
    """A generator driven on an engine (see the module docstring)."""

    def __init__(self, engine: Engine, generator, name: str | None = None):
        super().__init__(engine, name=name)
        self._gen = generator
        self._target: Event | None = None
        engine.schedule_call(0.0, self._step, (True, None))

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        if not self.is_alive:
            raise SimError(f"cannot interrupt finished process {self!r}")
        target, self._target = self._target, None
        if target is not None and self._on_target in target.callbacks:
            target.callbacks.remove(self._on_target)
        self.engine.schedule_call(0.0, self._step,
                                  (False, Interrupt(cause)))

    def cancel(self, cause: object = None) -> None:
        """Interrupt, with the resulting failure defused."""
        self._defused = True
        if self.is_alive:
            self.interrupt(cause)

    def _on_target(self, ev: Event) -> None:
        self._target = None
        self._step((ev._ok, ev._value))

    def _step(self, outcome: tuple) -> None:
        if self.triggered:
            return
        ok, value = outcome
        while True:
            try:
                target = (self._gen.send(value) if ok
                          else self._gen.throw(value))
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return
            target._defused = True
            if not target.processed:
                self._target = target
                target.callbacks.append(self._on_target)
                return
            ok, value = target._ok, target._value


def spawn(engine: Engine, generator, name: str | None = None) -> GenProcess:
    """Drive ``generator`` on ``engine``."""
    return GenProcess(engine, generator, name=name)
