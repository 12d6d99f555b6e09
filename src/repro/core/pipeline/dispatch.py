"""Dispatch — hand the CE to its executor and close the bookkeeping.

The last phase of Algorithm 1: kernels and prefetches are forwarded to
the chosen worker's intra-node scheduler (Algorithm 2) after charging
the controller→worker link latency; host-side CEs run on the controller
at host-memory streaming bandwidth.  The stage attaches the completion
event, credits the policy, and lands the per-kind / per-session
scheduling counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.ce import CeKind
from repro.core.pipeline.base import SchedulingState, Stage

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Engine, Event
    from repro.core.ce import ComputationalElement
    from repro.core.controller import Controller
    from repro.core.pipeline.admission import FairShareGate
    from repro.uvm import UvmSpace

__all__ = ["DispatchStage", "HOST_MEM_BANDWIDTH", "HostCe"]

#: Host memory streaming bandwidth charged for host-side CE bodies.
HOST_MEM_BANDWIDTH = 20e9


class HostCe:
    """A host-side CE as a callback chain; ``done`` is the CE's event.

    A start hop, the join over ``waits``, then the cost: priced after the
    join (host-memory streaming, plus ``uvm.host_access`` faults when the
    host shares a UVM space with the GPUs) and slept when non-zero.  Then
    the body runs and ``done`` fires with its result.  A failed wait, or
    an exception from the body, fails ``done`` instead.
    """

    __slots__ = ("ce", "done", "_uvm", "_write")

    def __init__(self, engine: "Engine", ce: "ComputationalElement",
                 waits: list["Event"], uvm: "UvmSpace | None" = None,
                 write: bool = False):
        self.ce = ce
        self.done = engine.event(name=ce.display_name)
        self._uvm = uvm
        self._write = write
        engine.schedule_call(0.0, self._start, waits)

    def _start(self, waits: list["Event"]) -> None:
        if not waits:
            self._joined(None)
            return
        join = self.done.engine.all_of(waits)
        join._defused = True
        join.callbacks.append(self._joined)

    def _joined(self, join: "Event | None") -> None:
        if join is not None and not join._ok:
            self.done.fail(join._value)  # type: ignore[arg-type]
            return
        ce = self.ce
        seconds = ce.param_bytes / HOST_MEM_BANDWIDTH
        uvm = self._uvm
        if uvm is not None:
            for array in ce.arrays:
                if uvm.is_registered(array.buffer_id):
                    seconds += uvm.host_access(
                        array.buffer_id, write=self._write).seconds
        if seconds:
            self.done.engine.schedule_call(seconds, self._run)
        else:
            self._run(None)

    def _run(self, _arg: object) -> None:
        body = self.ce.host_body
        try:
            result = body() if body is not None else None
        except Exception as exc:
            # Trim this frame: it holds ``self``, which reaches ``exc``.
            self.done.fail(exc.with_traceback(exc.__traceback__.tb_next))
            return
        self.done.succeed(result)


class DispatchStage(Stage):
    """Forward the CE to a worker (or run it host-side) and bookkeep."""

    name = "dispatch"

    def __init__(self, controller: "Controller",
                 gate: "FairShareGate | None" = None):
        super().__init__(controller)
        self.gate = gate
        self._session_ces = controller.metrics.family(
            "grout_session_ces_scheduled_total")
        #: node -> the ``ctl->{node}`` latency-wait name, built once.
        self._latency_names: dict[str, str] = {}

    def process(self, ce, state: SchedulingState) -> SchedulingState:
        """Run this phase for one CE (see the class docstring)."""
        controller = self.controller
        if ce.kind in (CeKind.KERNEL, CeKind.PREFETCH):
            latency = controller.cluster.topology.latency(
                controller.cluster.controller.name, state.node)
            if latency > 0:
                name = self._latency_names.get(state.node)
                if name is None:
                    name = self._latency_names[state.node] = \
                        f"ctl->{state.node}"
                state.waits.append(controller.engine.timeout(
                    latency, name=name))
            done = controller.workers[state.node].submit(ce, state.waits)
        else:
            done = HostCe(controller.engine, ce, state.waits).done
        ce.done = done
        state.done = done
        controller.policy.notify_scheduled(ce)
        controller._pending.append(done)
        controller.stats.count_ce(ce.kind.value)
        if state.session is not None:
            self._session_ces.labels(session=state.session.name).inc()
            state.session.note_scheduled(done)
            if self.gate is not None:
                self.gate.note_scheduled(state.session.name, done)
        return state
