"""Shared-resource primitive: a counted resource with a FIFO wait queue.

It models contention points in the simulated system — PCIe lanes, NIC
links, GPU copy engines — where at most ``capacity`` users may hold the
resource simultaneously and the rest queue in FIFO order (deterministic by
construction, matching the engine's tie-breaking).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.sim.errors import SimError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Request(Event):
    """Event that fires when the requested resource slot is granted."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.engine, name=f"req:{resource.name}")
        self.resource = resource


class Resource:
    """A counted resource with a FIFO wait queue.

    Examples
    --------
    Two users of one link, each holding it for 1 s once granted:

    >>> from repro.sim import Engine
    >>> eng = Engine()
    >>> link = Resource(eng, capacity=1, name="nic")
    >>> def hold(req):
    ...     eng.schedule_call(1.0, link.release, req)
    >>> for _ in range(2):
    ...     link.request().callbacks.append(hold)
    >>> eng.run()
    >>> eng.now
    2.0
    """

    def __init__(self, engine: "Engine", capacity: int = 1,
                 name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._holders: set[Request] = set()
        self._waiters: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of granted, unreleased requests."""
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        req = Request(self)
        if len(self._holders) < self.capacity:
            self._holders.add(req)
            req.succeed(self)
        else:
            self._waiters.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot; grants the next waiter."""
        if request in self._holders:
            self._holders.remove(request)
        elif request in self._waiters:
            # Cancelling a queued request is allowed (e.g. interrupted user).
            self._waiters.remove(request)
            return
        else:
            raise SimError(
                f"release() of a request not holding {self.name!r}")
        while self._waiters and len(self._holders) < self.capacity:
            nxt = self._waiters.popleft()
            self._holders.add(nxt)
            nxt.succeed(self)

    def __repr__(self) -> str:
        return (f"<Resource {self.name!r} {self.count}/{self.capacity} "
                f"queued={self.queue_length}>")

