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

The planner is failure-aware: every relay leg is an interruptible
process registered as the destination's in-flight replication (with its
chain recorded via ``Directory.record_replication``), so when a relay
node dies mid-chain the standard crash repair re-sources the surviving
remainder from a live holder, and a leg that exhausts its chunk retries
falls back toward the controller exactly like a point-to-point move.

Disabled (the default) the planner never touches a transfer and the
event schedule stays byte-identical to the plain fabric.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.core.pipeline.movement import MAX_RESCUES, is_crash
from repro.net.fabric import TransferError
from repro.sim import Event, Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.arrays import ManagedArray
    from repro.core.ce import ComputationalElement
    from repro.core.controller import Controller

__all__ = ["RelayPlan", "TransferPlanner"]


class RelayPlan:
    """One coalesced multi-destination replication of a single array.

    Opens when the first destination asks for the array, keeps
    coalescing further destinations until the simulation processes its
    first event (the *scheduling window* — every request issued
    synchronously at the same timestamp joins), then fixes the relay
    chain and lets the legs flow.
    """

    __slots__ = ("array", "source", "producer", "sizes", "launched",
                 "open", "chain", "legs", "ready", "ces")

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
        #: destination -> its relay-leg process (the in-flight event)
        self.legs: dict[str, Process] = {}
        #: destination -> the CE whose placement requested the copy
        self.ces: dict[str, "ComputationalElement | None"] = {}
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
                for_ce: "ComputationalElement | None" = None) -> Process:
        """Add ``dst`` to the array's open relay window (opening one if
        needed); returns the leg process to wait on."""
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
            engine.process(self._driver(plan),
                           name=f"relay:{array.name}:driver")
        plan.ces[dst] = for_ce
        leg = engine.process(self._leg(plan, dst),
                             name=f"relay:{array.name}->{dst}")
        plan.legs[dst] = leg
        return leg

    # -- the window driver ---------------------------------------------------

    def _driver(self, plan: RelayPlan) -> Generator:
        """Close the window at the first processed event, fix the chain,
        release the source's chunks once the producer finished."""
        engine = self.controller.engine
        yield engine.timeout(0)
        plan.open = False
        if self._open.get(plan.array.buffer_id) is plan:
            del self._open[plan.array.buffer_id]
        # Destinations whose leg already died (a crash inside the window
        # cancelled it) must not become hops: nobody would publish their
        # chunks and the successors would wait forever.
        live = [d for d in plan.legs
                if plan.legs[d].is_alive and d in self.controller.workers]
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
        self._m_broadcasts.inc()
        self._m_destinations.inc(len(plan.chain) - 1)
        plan.launched.succeed()
        if plan.producer is not None and not plan.producer.processed:
            yield plan.producer
        for ev in plan.ready[plan.source]:
            ev.succeed()

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

    # -- one relay leg -------------------------------------------------------

    def _leg(self, plan: RelayPlan, dst: str) -> Generator:
        """Pull every chunk from the predecessor as it becomes available,
        republish each for the successor; survive crashes and exhausted
        retries by re-sourcing the remainder from a live holder."""
        controller = self.controller
        engine = controller.engine
        fabric = controller.cluster.fabric
        array = plan.array
        yield plan.launched
        src = plan.predecessor(dst)
        start: float | None = None
        done_chunks = 0
        rescues = 0
        xfer = None
        while done_chunks < len(plan.sizes):
            try:
                while done_chunks < len(plan.sizes):
                    i = done_chunks
                    ready = plan.ready_event(src, i)
                    if ready is not None and not ready.processed:
                        yield ready
                    if start is None:
                        # Transfer attribution starts when data first
                        # could flow — producer/pipeline-fill excluded.
                        start = engine.now
                    xfer = fabric.transfer(src, dst, plan.sizes[i],
                                           array.name, chunk=i)
                    yield xfer
                    done_chunks += 1
                    plan.mark(dst, i)
            except Interrupt as intr:
                if xfer is not None:
                    xfer.cancel()      # free its NIC ends now
                if not is_crash(intr):
                    raise
                src = self._resource(plan, dst, exclude=intr.cause[1])
            except TransferError:
                rescues += 1
                if rescues > MAX_RESCUES or src == plan.source:
                    raise
                src = self._resource(plan, dst, exclude=src)
        end = engine.now
        tracer = controller.cluster.tracer
        if tracer is not None and start is not None:
            tracer.record(f"relay:{array.name}", "relay", f"{src}->{dst}",
                          start, end,
                          nbytes=array.nbytes, chunks=len(plan.sizes))
        for_ce = plan.ces.get(dst)
        if (controller.profiler is not None and for_ce is not None
                and start is not None):
            controller.profiler.record_transfer(
                for_ce, end - start, nbytes=array.nbytes, node=dst)
        return array.nbytes

    def _resource(self, plan: RelayPlan, dst: str, exclude: str) -> str:
        """Pick a surviving source for a broken leg and re-point the
        directory's in-flight bookkeeping at it.

        Chain members at or past ``dst`` are never candidates: their
        chunks derive (transitively) from this very leg, so sourcing
        from one would deadlock the pipeline.  Upstream members are
        fine — their chunks arrive regardless of ``dst``'s fate.
        """
        controller = self.controller
        downstream = plan.chain[plan.chain.index(dst):] \
            if dst in plan.chain else ()
        src = controller.pipeline.stage("data-movement").surviving_source(
            plan.array, dst, exclude, avoid=downstream)
        state = controller.directory.state(plan.array)
        if dst in state.inflight_src:
            state.inflight_src[dst] = src
        self._m_resourced.inc()
        return src
