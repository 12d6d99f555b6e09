"""Exception types used by the discrete-event simulation engine."""

from __future__ import annotations


class SimError(Exception):
    """Base class for all simulation-engine errors."""


class EventStateError(SimError):
    """An event was triggered or awaited in an illegal state."""


class Interrupt(SimError):
    """Hands an interrupted chain (a replication move or relay leg) the
    ``cause`` passed to its ``interrupt``, one hop after the chain was
    detached from the event it waited on."""

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interrupt(cause={self.cause!r})"
