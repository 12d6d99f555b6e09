"""Deterministic discrete-event simulation engine.

This package is the execution substrate for the whole reproduction: GPU
streams, UVM page migrations and network transfers are all callback
chains on events and ``schedule_call`` deliveries of one :class:`Engine`
clock.
"""

from repro.sim.engine import Engine
from repro.sim.errors import EventStateError, Interrupt, SimError
from repro.sim.events import AllOf, Condition, Event, EventState, Timeout
from repro.sim.faults import Fault, FaultInjector, FaultPlan, InjectorStats
from repro.sim.resources import Request, Resource
from repro.sim.trace import CATEGORIES, Span, Tracer

__all__ = [
    "AllOf",
    "CATEGORIES",
    "Condition",
    "Engine",
    "Event",
    "EventState",
    "EventStateError",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "InjectorStats",
    "Interrupt",
    "Request",
    "Resource",
    "SimError",
    "Span",
    "Timeout",
    "Tracer",
]
