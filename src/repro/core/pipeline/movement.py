"""Data movement — the replications that feed a placed CE.

The third phase of Algorithm 1: for every parameter of the CE, issue
whatever inter-node transfer makes it up-to-date on the chosen node —
controller→worker when the data only lives on the controller, worker↔
worker P2P otherwise — or coalesce broadcast-shaped replication into the
:class:`~repro.core.planner.TransferPlanner`'s relay chains when
collectives are enabled.  Every point-to-point replication is a
:class:`Move`: crash interrupts re-source it from a surviving holder,
exhausted fabric retries fall back toward the controller.

Crash recovery re-enters this stage directly (``ensure_on_node`` with
``reexec_of``), so re-executions flow through the exact same staged path
as first executions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.net.fabric import Transfer, TransferError
from repro.sim import Event, Interrupt, SimError
from repro.sim.events import EventState

from repro.core.pipeline.base import SchedulingState, Stage

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.arrays import ManagedArray
    from repro.core.ce import ComputationalElement

__all__ = ["DataMovementStage", "MAX_RESCUES", "Move", "NODE_CRASH"]

#: Interrupt-cause tag carried by crash-triggered interruptions.
NODE_CRASH = "node-crash"

#: Re-sources after exhausted fabric retries before a replication gives
#: up (crash re-sourcing is unbounded).
MAX_RESCUES = 3

_PROCESSED = EventState.PROCESSED


def is_crash(exc: BaseException) -> bool:
    """Whether ``exc`` is a node-crash :class:`Interrupt`."""
    cause = getattr(exc, "cause", None)
    return (isinstance(exc, Interrupt) and isinstance(cause, tuple)
            and bool(cause) and cause[0] == NODE_CRASH)


class Move(Event):
    """One replication as a callback chain: wait for the producer, charge
    the source GPUs' writeback, cross the fabric.

    It takes one delivery per wait: a zero-delay start call, the
    producer's delivery, a writeback call, the
    :class:`~repro.net.fabric.Transfer`'s own, then the move event.  A
    transfer that exhausted its retries is rescued from another holder
    (at most :data:`MAX_RESCUES` times, the controller last).

    :meth:`interrupt` detaches the move at once from whatever it waits
    on: the event's callback slot is tombstoned and pending calls go
    stale.  One hop later it frees the NIC ends of a cut transfer; then a
    ``(NODE_CRASH, node)`` cause re-sources the move, and any other
    cause fails it with the :class:`~repro.sim.Interrupt`, delivered one
    hop after that.  :meth:`cancel` is an interrupt whose failure nobody
    has to wait on.
    """

    __slots__ = ("stage", "array", "src", "dst", "producer", "for_ce",
                 "_gen", "_waiting", "_wait_index", "_cut",
                 "_measured_from", "_rescues")

    def __init__(self, stage: "DataMovementStage", array: "ManagedArray",
                 src: str, dst: str, producer: Event | None,
                 for_ce: "ComputationalElement | None"):
        engine = stage.controller.engine
        super().__init__(engine, name=f"move:{array.name}->{dst}")
        self.stage = stage
        self.array = array
        self.src = src
        self.dst = dst
        self.producer = producer
        self.for_ce = for_ce
        #: Bumped on every detach; start/writeback calls from an older
        #: generation are stale.
        self._gen = 0
        #: The event waited on, and its callback slot.
        self._waiting: Event | None = None
        self._wait_index = 0
        self._cut: Transfer | None = None
        self._measured_from: float | None = None
        self._rescues = 0
        # One start hop before anything runs.
        engine.schedule_call(0.0, Move._start, self)

    # -- chain stages --------------------------------------------------------

    def _start(self) -> None:
        self._run(0)    # stale if an interrupt came first

    def _wait(self, ev: Event, then: Callable[[Event], None]) -> None:
        """Continue with ``then(ev)`` once ``ev`` is delivered (defused:
        a failure reaches the move, not the engine)."""
        ev._defused = True
        self._waiting = ev
        self._wait_index = len(ev.callbacks)
        ev.callbacks.append(then)

    def _run(self, gen: int) -> None:
        if gen != self._gen:
            return
        producer = self.producer
        if producer is not None and producer._state is not _PROCESSED:
            self._wait(producer, self._after_producer)
            return
        self._after_producer(None)

    def _after_producer(self, ev: Event | None) -> None:
        self._waiting = None
        if ev is not None and not ev._ok:
            self._failed(ev._value)  # type: ignore[arg-type]
            return
        controller = self.stage.controller
        if self._measured_from is None:
            # Profile from after the producer wait: the wait is
            # dependency stall, not data movement.
            self._measured_from = controller.engine.now
        source_worker = controller.workers.get(self.src)
        if source_worker is not None:
            wb = source_worker.writeback_seconds(self.array)
            if wb > 0:
                controller.engine.schedule_call(wb, self._send, self._gen)
                return
        self._send(self._gen)

    def _transfer(self) -> Transfer:
        array = self.array
        return self.stage.controller.cluster.fabric.transfer(
            self.src, self.dst, array.nbytes, label=array.name)

    def _send(self, gen: int) -> None:
        if gen != self._gen:
            return
        leg = self._transfer()
        if leg._state is _PROCESSED:  # same node or zero bytes
            self._complete()
            return
        self._wait(leg, self._sent)

    def _sent(self, ev: Event) -> None:
        if ev is not self._waiting:
            return  # detached by an interrupt
        self._waiting = None
        if ev._ok:
            self._complete()
        else:
            self._failed(ev._value)  # type: ignore[arg-type]

    def _complete(self) -> None:
        controller = self.stage.controller
        if controller.profiler is not None and self.for_ce is not None:
            controller.profiler.record_transfer(
                self.for_ce, controller.engine.now - self._measured_from,
                nbytes=self.array.nbytes, node=self.dst)
        self.succeed(self.array.nbytes)

    def _failed(self, exc: BaseException) -> None:
        """An exception reached the move: re-source on a crash or a
        rescuable transfer failure, else fail."""
        if is_crash(exc):
            exclude = exc.cause[1]
        elif (isinstance(exc, TransferError)
                and self._rescues < MAX_RESCUES
                and self.src != self.stage.controller.cluster.controller.name):
            self._rescues += 1
            exclude = self.src
        else:
            self.fail(exc)
            return
        self._resource(exclude)

    def _resource(self, exclude: str) -> None:
        """Ship from the best live holder other than ``exclude``,
        starting over from the producer wait."""
        stage = self.stage
        self.src = stage.surviving_source(self.array, self.dst,
                                          exclude=exclude)
        stage.controller.stats.count_rerouted()
        self._run(self._gen)

    # -- crash repair --------------------------------------------------------

    def interrupt(self, cause: object = None) -> None:
        """Detach now and handle ``Interrupt(cause)`` one hop later (see
        the class docstring); a finished move cannot be interrupted."""
        if self.triggered:
            raise SimError(f"cannot interrupt finished move {self!r}")
        self._detach()
        self.engine.schedule_call(0.0, self._interrupted, cause)

    def cancel(self, cause: object = None) -> bool:
        """Abandon the move (its destination died): an interrupt whose
        failure is defused.  Returns whether it was still alive."""
        self._defused = True
        if self.triggered:
            return False
        self.interrupt(cause)
        return True

    def _detach(self) -> None:
        self._gen += 1
        ev, self._waiting = self._waiting, None
        if ev is None:
            return
        # Tombstone the recorded slot rather than ``list.remove``: O(1) on
        # a wide fan-in event, and every other waiter's index stays valid
        # (the engine skips ``None`` callbacks).  A bound method is built
        # afresh on each access, so identity goes through ``__self__``.
        callbacks = ev.callbacks
        index = self._wait_index
        if (index < len(callbacks)
                and getattr(callbacks[index], "__self__", None) is self):
            callbacks[index] = None
        if isinstance(ev, Transfer):
            self._cut = ev

    def _interrupted(self, cause: object) -> None:
        if self.triggered:
            return
        self._detach()
        cut, self._cut = self._cut, None
        if cut is not None:
            cut.cancel()
        self._failed(Interrupt(cause))


class DataMovementStage(Stage):
    """Issue the transfers that make every parameter up-to-date."""

    name = "data-movement"

    def process(self, ce, state: SchedulingState) -> SchedulingState:
        """Run this phase for one CE (see the class docstring).

        A session recording its plan also notes each array's movement
        action: the replication's source node, or ``None`` when the
        array was already up to date on the chosen node.
        """
        node = state.node
        assert node is not None, "placement must run before movement"
        session = state.session
        recorder = None if session is None else session._plan_recorder
        directory = self.controller.directory
        for array in ce.arrays:
            fresh = (recorder is not None
                     and not directory.up_to_date_on(array, node))
            ev = self.ensure_on_node(array, node, for_ce=ce)
            if ev is not None:
                state.waits.append(ev)
            if recorder is not None:
                # "" (never a node name) marks an unreadable source —
                # e.g. a planner relay — and poisons the recording.
                recorder.note_move(directory.state(array).inflight_src.get(
                    node, "") if fresh else None)
        return state

    # -- Algorithm 1, data-movement phase --------------------------------------

    def ensure_on_node(self, array: "ManagedArray", node_name: str,
                       reexec_of: "ComputationalElement | None" = None,
                       for_ce: "ComputationalElement | None" = None
                       ) -> "Event | None":
        """Return the event a consumer on ``node_name`` must wait for.

        ``reexec_of`` marks a crash re-execution: the directory's
        ``last_writer`` may then be the re-executed CE itself (or a
        program-order-later casualty), and waiting on it would deadlock —
        the DAG parent waits already order the re-execution correctly.
        ``for_ce`` attributes the resulting transfer time to the
        consuming CE in the profiler.
        """
        controller = self.controller
        directory = controller.directory
        if directory.up_to_date_on(array, node_name):
            # Possibly still in flight from an earlier replication.
            return directory.replication_event(array, node_name)

        state = directory.state(array)
        last = state.last_writer
        producer = None
        if last is not None and (reexec_of is None
                                 or last.ce_id < reexec_of.ce_id):
            producer = last.done

        if reexec_of is None and controller.planner.wants(array, producer):
            # Broadcast shape: coalesce same-window replications into one
            # pipelined relay chain (the driver re-records each
            # destination's real predecessor once the chain is fixed).
            src = controller.cluster.controller.name
            done = controller.planner.request(array, node_name, producer,
                                              for_ce=for_ce)
        else:
            if directory.only_on_controller(array):
                src = controller.cluster.controller.name
            else:
                # The P2P source: the up-to-date holder with the best
                # link to the destination (prefer workers over the
                # controller; names break cost ties so the choice never
                # depends on set-iteration order).
                src = min(
                    (h for h in state.up_to_date if h != node_name),
                    key=lambda h: (
                        h == controller.cluster.controller.name,
                        controller.cluster.topology.transfer_seconds(
                            h, node_name, array.nbytes), h))
                if src != controller.cluster.controller.name:
                    controller.stats.count_p2p()
            done = Move(self, array, src, node_name, producer, for_ce)
        directory.record_replication(
            array, node_name, done, src=src,
            producer_id=last.ce_id if producer is not None else None)
        controller.stats.count_transfer(array.nbytes)
        return done

    def surviving_source(self, array: "ManagedArray", dst: str,
                         exclude: str | None = None, *,
                         avoid: "Sequence[str]" = ()) -> str:
        """Best live holder to re-ship from, other than ``dst``,
        ``exclude`` and the nodes in ``avoid``; the controller is the
        guaranteed last resort (it regains validity if nobody else holds
        the array)."""
        controller = self.controller
        home = controller.cluster.controller.name
        state = controller.directory.state(array)
        candidates = [
            h for h in state.up_to_date
            if h not in (dst, exclude) and h not in avoid
            and (h == home or h in controller.workers)
        ]
        if not candidates:
            state.up_to_date.add(home)
            return home
        return min(candidates, key=lambda h: (
            h == home,
            controller.cluster.topology.transfer_seconds(
                h, dst, array.nbytes),
            h))
