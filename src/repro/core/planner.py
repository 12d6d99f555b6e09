"""Collective data-movement planning: broadcast/relay replication.

GrOUT's scale-out tax is the distribution phase (Algorithm 1, third
phase): with round-robin placement every worker needs the same read-only
inputs, and N serial controller sends pile up on the controller NIC —
the §V-E BlackScholes/MV pathology.  The :class:`TransferPlanner` fixes
the *shape* of that traffic: replication requests for the same array that
arrive inside one scheduling window are coalesced into a single **relay
chain** (controller → w0 → w1 → ...) built from the
:class:`~repro.net.topology.Topology` matrix, so every link carries the
payload once instead of the controller carrying it N times.  With the
fabric's ``chunk_bytes`` pipelining, chunk *c* crosses hop *i+1* while
chunk *c+1* crosses hop *i* — the last worker finishes one array time
plus a pipeline fill after the first, not N array times later.

The planner is failure-aware: every relay leg is a :class:`RelayLeg`, an
interruptible :class:`~repro.core.pipeline.movement.Move` registered as
the destination's in-flight replication (with its chain recorded via
``Directory.record_replication``), so when a relay node dies mid-chain
the standard crash repair re-sources the surviving remainder from a live
holder, and a leg that exhausts its chunk retries falls back toward the
controller exactly like a point-to-point move.

Disabled (the default) the planner never touches a transfer and the
event schedule stays byte-identical to the plain fabric.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.pipeline.movement import DataMovementStage, Move
from repro.net.fabric import Transfer
from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.arrays import ManagedArray
    from repro.core.ce import ComputationalElement
    from repro.core.controller import Controller

__all__ = ["RelayLeg", "RelayPlan", "TransferPlanner"]


class RelayPlan:
    """One coalesced multi-destination replication of a single array.

    Opens when the first destination asks for the array, keeps
    coalescing further destinations until the simulation processes its
    first event (the *scheduling window* — every request issued
    synchronously at the same timestamp joins), then fixes the relay
    chain and lets the legs flow.
    """

    __slots__ = ("array", "source", "producer", "sizes", "launched",
                 "open", "chain", "legs", "ready")

    def __init__(self, array: "ManagedArray", source: str,
                 producer: Event | None, sizes: list[int],
                 launched: Event):
        self.array = array
        self.source = source
        self.producer = producer
        #: pipeline granule sizes (one entry when chunking is off)
        self.sizes = sizes
        #: fires once the window closed and ``chain`` is fixed
        self.launched = launched
        self.open = True
        self.chain: list[str] = [source]
        #: destination -> its relay leg (the in-flight event); emptied
        #: when the window closes, so no leg is kept alive by its plan
        self.legs: dict[str, RelayLeg] = {}
        #: node -> per-chunk availability events (chain members only)
        self.ready: dict[str, list[Event]] = {}

    def predecessor(self, node: str) -> str:
        """The chain hop ``node`` ships from (only after launch)."""
        return self.chain[self.chain.index(node) - 1]

    def ready_event(self, node: str, index: int) -> Event | None:
        """Availability event of chunk ``index`` on ``node``.

        ``None`` means the node is outside the chain — a full up-to-date
        holder a leg re-sourced to, whose every chunk already exists.
        """
        events = self.ready.get(node)
        return events[index] if events is not None else None

    def mark(self, node: str, index: int) -> None:
        """Chunk ``index`` landed on ``node``: wake the successor leg."""
        events = self.ready.get(node)
        if events is not None and not events[index].triggered:
            events[index].succeed()

    def release(self, producer: Event | None) -> None:
        """The producer finished: publish the source's chunks.  Then the
        window driver's terminal delivery — a failure, undefused, if the
        producer failed, so the run aborts as on any lost error."""
        end = Event(self.launched.engine,
                    name=f"relay:{self.array.name}:driver")
        if producer is not None and not producer._ok:
            end.fail(producer._value)  # type: ignore[arg-type]
            return
        for ev in self.ready[self.source]:
            ev.succeed()
        end.succeed()


class RelayLeg(Move):
    """One relay leg as a :class:`Move` chain: wait for the window to
    close (``launched`` stands in for the producer), then per chunk wait
    until the predecessor holds it, ship it and republish it for the
    successor; one delivery per wait, then the leg event.  Interrupts
    are :class:`Move`'s, whatever the leg waits on.  A crash or a chunk
    out of retries re-sources the remainder as a move would, but an
    interrupt before launch fails the leg.
    """

    __slots__ = ("plan", "_chunk")

    def __init__(self, stage: DataMovementStage, plan: RelayPlan, dst: str,
                 for_ce: "ComputationalElement | None"):
        super().__init__(stage, plan.array, None, dst, plan.launched,
                         for_ce)
        self.name = f"relay:{plan.array.name}->{dst}"
        self.plan = plan
        #: index of the next chunk to pull
        self._chunk = 0

    def _after_producer(self, ev: Event | None) -> None:
        self._waiting = None
        self.src = self.plan.predecessor(self.dst)
        self._pull()

    def _pull(self) -> None:
        ready = self.plan.ready_event(self.src, self._chunk)
        if ready is not None and not ready.processed:
            self._wait(ready, self._on_ready)
        else:
            self._on_ready(None)

    def _on_ready(self, ev: Event | None) -> None:
        self._waiting = None
        if self._measured_from is None:
            # Transfer attribution starts when data first could flow —
            # producer/pipeline-fill excluded.
            self._measured_from = self.engine.now
        self._send(self._gen)

    def _transfer(self) -> Transfer:
        i = self._chunk
        return self.stage.controller.cluster.fabric.transfer(
            self.src, self.dst, self.plan.sizes[i], self.array.name, chunk=i)

    def _complete(self) -> None:
        plan = self.plan
        plan.mark(self.dst, self._chunk)
        self._chunk += 1
        if self._chunk < len(plan.sizes):
            self._pull()
            return
        tracer = self.stage.controller.cluster.tracer
        if tracer is not None:
            tracer.record(f"relay:{self.array.name}", "relay",
                          f"{self.src}->{self.dst}", self._measured_from,
                          self.engine.now, nbytes=self.array.nbytes,
                          chunks=len(plan.sizes))
        super()._complete()

    def _failed(self, exc: BaseException) -> None:
        if self.src is None:  # interrupted before launch
            self.fail(exc)
        else:
            super()._failed(exc)

    def _resource(self, exclude: str) -> None:
        """Pull the remainder from a surviving source, re-pointing the
        directory's in-flight bookkeeping at it.

        Chain members at or past ``dst`` are never candidates: their
        chunks derive (transitively) from this very leg, so sourcing
        from one would deadlock the pipeline.  Upstream members are
        fine — their chunks arrive regardless of ``dst``'s fate.
        """
        chain, dst = self.plan.chain, self.dst
        downstream = chain[chain.index(dst):] if dst in chain else ()
        controller = self.stage.controller
        self.src = self.stage.surviving_source(self.array, dst, exclude,
                                               avoid=downstream)
        state = controller.directory.state(self.array)
        if dst in state.inflight_src:
            state.inflight_src[dst] = self.src
        controller.planner._m_resourced.inc()
        self._pull()


class TransferPlanner:
    """Coalesces replication requests into pipelined relay chains."""

    def __init__(self, controller: "Controller", *,
                 enabled: bool = False,
                 chunk_bytes: int | None = None):
        self.controller = controller
        self.enabled = enabled
        #: pipeline granule of relay legs; ``None`` defers to the
        #: fabric's own ``chunk_bytes`` (store-and-forward when both off)
        self.chunk_bytes = chunk_bytes
        self._open: dict[int, RelayPlan] = {}
        m = controller.metrics
        self._m_broadcasts = m.family(
            "grout_collective_broadcasts_total").labels()
        self._m_destinations = m.family(
            "grout_collective_destinations_total").labels()
        self._m_resourced = m.family(
            "grout_collective_resourced_total").labels()

    # -- request intake ------------------------------------------------------

    def applies_to(self, array: "ManagedArray") -> bool:
        """Whether this array's next replication should be planned
        collectively (enabled, and the controller is the sole holder —
        the broadcast-of-shared-inputs shape)."""
        return (self.enabled
                and self.controller.directory.only_on_controller(array))

    def wants(self, array: "ManagedArray",
              producer: Event | None) -> bool:
        """Whether a replication of ``array`` should route through the
        planner: the broadcast shape opens a window, and every later
        same-window request joins it (the directory already lists the
        earlier destinations as holders, so ``applies_to`` alone would
        miss them)."""
        if self.applies_to(array):
            return True
        plan = self._open.get(array.buffer_id)
        return (plan is not None and plan.open
                and plan.producer is producer)

    def request(self, array: "ManagedArray", dst: str,
                producer: Event | None,
                for_ce: "ComputationalElement | None" = None) -> RelayLeg:
        """Add ``dst`` to the array's open relay window (opening one if
        needed); returns the leg to wait on."""
        engine = self.controller.engine
        plan = self._open.get(array.buffer_id)
        if plan is None or not plan.open or plan.producer is not producer:
            fabric = self.controller.cluster.fabric
            sizes = fabric.chunk_sizes(array.nbytes, self.chunk_bytes)
            if not sizes:          # zero-byte array: nothing to pipeline
                sizes = [0]
            plan = RelayPlan(array, self.controller.cluster.controller.name,
                             producer, sizes,
                             engine.event(name=f"relay:{array.name}:go"))
            self._open[array.buffer_id] = plan
            engine.schedule_call(0.0, self._open_window, plan)
        leg = RelayLeg(self.controller.pipeline.stage("data-movement"),
                       plan, dst, for_ce)
        plan.legs[dst] = leg
        return leg

    # -- the window driver ---------------------------------------------------
    # A chain: a start hop, a zero-delay hop that closes the window, the
    # producer wait, the chunk release, then a terminal delivery.

    def _open_window(self, plan: RelayPlan) -> None:
        self.controller.engine.schedule_call(0.0, self._close_window, plan)

    def _close_window(self, plan: RelayPlan) -> None:
        """Close the window at the first processed event, fix the chain,
        release the source's chunks once the producer finished."""
        engine = self.controller.engine
        plan.open = False
        if self._open.get(plan.array.buffer_id) is plan:
            del self._open[plan.array.buffer_id]
        # Destinations whose leg already died (a crash inside the window
        # cancelled it) must not become hops: nobody would publish their
        # chunks and the successors would wait forever.
        live = [d for d, leg in plan.legs.items()
                if not leg.triggered and d in self.controller.workers]
        plan.chain = self._order_chain(plan, live)
        for node in plan.chain:
            plan.ready[node] = [engine.event() for _ in plan.sizes]
        directory = self.controller.directory
        state = directory.state(plan.array)
        for i, dst in enumerate(plan.chain[1:]):
            # Re-record each destination with its real predecessor and
            # the full chain — unless a program-order write invalidated
            # the replication since the window opened.
            if state.inflight.get(dst) is plan.legs[dst]:
                directory.record_replication(
                    plan.array, dst, plan.legs[dst], src=plan.chain[i],
                    relay=tuple(plan.chain))
        plan.legs.clear()
        self._m_broadcasts.inc()
        self._m_destinations.inc(len(plan.chain) - 1)
        plan.launched.succeed()
        producer = plan.producer
        if producer is not None and not producer.processed:
            producer._defused = True
            producer.callbacks.append(plan.release)
        else:
            plan.release(None)

    def _order_chain(self, plan: RelayPlan,
                     destinations: list[str]) -> list[str]:
        """Greedy relay order: from the source, repeatedly append the
        destination with the fastest link from the current tail (the
        paper's interconnection matrix, §IV-D), names breaking ties."""
        topology = self.controller.cluster.topology
        nbytes = plan.array.nbytes
        remaining = sorted(destinations)
        chain = [plan.source]
        while remaining:
            tail = chain[-1]
            nxt = min(remaining,
                      key=lambda n: (topology.transfer_seconds(
                          tail, n, nbytes), n))
            chain.append(nxt)
            remaining.remove(nxt)
        return chain
