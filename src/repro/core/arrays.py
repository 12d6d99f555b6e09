"""Managed (UVM) arrays and the cluster-wide coherence directory.

A :class:`ManagedArray` is what ``polyglot.eval(GrOUT, "float[SIZE]")``
returns under the hood: a NumPy backing for *numerical* correctness plus a
**modeled** byte footprint for the performance model.  The two are decoupled
by a scale factor so a "160 GB" experiment carries megabytes of real data —
the substitution DESIGN.md documents for the unavailable hardware.

The :class:`Directory` tracks, per array, which nodes currently hold an
up-to-date copy (host+device combined, node granularity), the last writer
CE, and in-flight replication transfers.  It is the logical view Algorithm 1
consults ("param.upToDateOn(node)", "upToDateOnlyOnController").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ce import ComputationalElement

_buffer_ids = itertools.count(1)

#: Directory name of the controller node (arrays are born there).
CONTROLLER = "controller"


class ManagedArray:
    """One UVM-managed allocation, shared CPU↔GPU and across nodes.

    Parameters
    ----------
    shape:
        Shape of the *actual* NumPy backing.
    dtype:
        Element type.
    virtual_nbytes:
        Modeled footprint used by every cost model; defaults to the real
        backing size (scale factor 1).
    name:
        Optional label for traces and debugging.
    """

    def __init__(self, shape: tuple[int, ...] | int, dtype: object = np.float32,
                 *, virtual_nbytes: int | None = None,
                 name: str | None = None):
        self.data = np.zeros(shape, dtype=dtype)
        if virtual_nbytes is None:
            virtual_nbytes = self.data.nbytes
        if virtual_nbytes < self.data.nbytes:
            raise ValueError(
                f"virtual_nbytes {virtual_nbytes} smaller than the real "
                f"backing ({self.data.nbytes}); scale must be >= 1")
        self._virtual_nbytes = int(virtual_nbytes)
        self.buffer_id = next(_buffer_ids)
        self.name = name or f"array{self.buffer_id}"

    # -- SizedBuffer protocol ----------------------------------------------

    @property
    def nbytes(self) -> int:
        """Modeled bytes — what every cost model sees."""
        return self._virtual_nbytes

    @property
    def real_nbytes(self) -> int:
        """Bytes of the actual NumPy backing."""
        return self.data.nbytes

    @property
    def scale(self) -> float:
        """virtual bytes per real byte (1.0 = unscaled)."""
        return self._virtual_nbytes / self.data.nbytes

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the backing array."""
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the backing array."""
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return (f"<ManagedArray {self.name!r} shape={self.shape} "
                f"virtual={self._virtual_nbytes/2**30:.3g} GiB>")


def partition_rows(array: ManagedArray, parts: int,
                   name: str | None = None) -> list[ManagedArray]:
    """Split an array's leading axis into ``parts`` managed chunk views.

    Chunks share the parent's backing memory (NumPy views) so kernels write
    through to the parent, but each chunk is an independent coherence and
    costing unit — this is how the MV workload row-partitions its matrix.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    n = array.shape[0]
    if parts > n:
        raise ValueError(f"cannot split axis of {n} into {parts} parts")
    base = name or array.name
    bounds = np.linspace(0, n, parts + 1, dtype=int)
    chunks = []
    for i in range(parts):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        view = array.data[lo:hi]
        chunk = ManagedArray.__new__(ManagedArray)
        chunk.data = view
        chunk._virtual_nbytes = max(
            int(array.nbytes * (hi - lo) / n), view.nbytes)
        chunk.buffer_id = next(_buffer_ids)
        chunk.name = f"{base}[{lo}:{hi}]"
        chunks.append(chunk)
    return chunks


class ArrayState:
    """Directory entry of one managed array."""

    __slots__ = ("up_to_date", "last_writer", "readers_since_write",
                 "reader_ids", "inflight", "inflight_src",
                 "inflight_producer", "inflight_relay", "nbytes")

    def __init__(self, home: str, nbytes: int = 0):
        self.up_to_date: set[str] = {home}
        self.last_writer: "ComputationalElement | None" = None
        self.readers_since_write: list["ComputationalElement"] = []
        #: ce_ids of ``readers_since_write`` — O(1) dedup on the
        #: record_read hot path (a linear scan is O(width²) per epoch on
        #: wide fan-out workloads).
        self.reader_ids: set[int] = set()
        #: node -> completion event of a replication transfer headed there
        self.inflight: dict[str, Event] = {}
        #: node -> source the in-flight replication ships from (recovery
        #: needs to know which transfers a dead node was feeding)
        self.inflight_src: dict[str, str] = {}
        #: node -> ce_id of the producer the in-flight replication waits
        #: on (recovery must not let a re-executed CE wait on a move that
        #: in turn waits on that very CE)
        self.inflight_producer: dict[str, int] = {}
        #: node -> the full relay chain its replication rides on (multi-
        #: destination collective state; empty for point-to-point moves)
        self.inflight_relay: dict[str, tuple[str, ...]] = {}
        #: modeled footprint, recorded for demand accounting (autoscaler)
        self.nbytes = nbytes


@dataclass(slots=True)
class DirectoryRepair:
    """What :meth:`Directory.drop_node` found and fixed after a crash."""

    #: Arrays whose *only* valid copy died (rolled back to the home node).
    rolled_back: int = 0
    #: In-flight replication events headed *to* the dead node — the
    #: recovery layer cancels these (nobody alive consumes them).
    cancelled: list[Event] = field(default_factory=list)
    #: In-flight replication events sourced *from* the dead node — the
    #: recovery layer interrupts these so they re-source and complete.
    rerouted: list[Event] = field(default_factory=list)


class Directory:
    """Cluster-wide logical coherence state, keyed by buffer id.

    Updated synchronously in program order by the Controller; physical data
    movement is ordered separately through simulation events.
    """

    def __init__(self, home: str = CONTROLLER):
        self.home = home
        self._states: dict[int, ArrayState] = {}

    def register(self, array: ManagedArray) -> ArrayState:
        """Create (or return) the entry of an array, born on home."""
        state = self._states.get(array.buffer_id)
        if state is None:
            state = ArrayState(self.home, nbytes=array.nbytes)
            self._states[array.buffer_id] = state
        return state

    def __len__(self) -> int:
        """Number of registered arrays."""
        return len(self._states)

    @property
    def total_bytes(self) -> int:
        """Modeled bytes of every registered array (cluster demand)."""
        return sum(s.nbytes for s in self._states.values())

    def state(self, array: ManagedArray) -> ArrayState:
        """The entry of a registered array (raises otherwise)."""
        try:
            return self._states[array.buffer_id]
        except KeyError:
            raise KeyError(
                f"{array!r} was never registered with this runtime") from None

    def forget(self, array: ManagedArray) -> None:
        """Drop an array's entry (no-op when absent)."""
        self._states.pop(array.buffer_id, None)

    # -- queries used by Algorithm 1 and the policies -------------------------

    def up_to_date_on(self, array: ManagedArray, node: str) -> bool:
        """Whether a node holds a current copy."""
        return node in self.state(array).up_to_date

    def only_on_controller(self, array: ManagedArray) -> bool:
        """Whether the controller is the sole holder."""
        return self.state(array).up_to_date == {self.home}

    def is_virgin(self, array: ManagedArray) -> bool:
        """Whether the array is registered but completely untouched.

        Freshly allocated state: home-only copy, never written, no
        tracked readers, nothing in flight.  The plan cache requires
        this of every buffer at its first recorded appearance — a
        session whose arrays arrive with history (cross-session
        sharing) cannot replay a private-program plan safely.
        """
        state = self._states.get(array.buffer_id)
        if state is None:
            return False
        return (state.up_to_date == {self.home}
                and state.last_writer is None
                and not state.inflight
                and not state.readers_since_write)

    def holders(self, array: ManagedArray) -> set[str]:
        """The set of nodes holding current copies."""
        return set(self.state(array).up_to_date)

    def bytes_up_to_date(self, arrays: Iterable[ManagedArray],
                         node: str) -> int:
        """Policy helper: bytes of these params already valid on ``node``."""
        return sum(a.nbytes for a in arrays
                   if node in self.state(a).up_to_date)

    # -- transitions -----------------------------------------------------------

    def record_replication(self, array: ManagedArray, node: str,
                           done: Event, src: str | None = None,
                           producer_id: int | None = None,
                           relay: "tuple[str, ...] | None" = None) -> None:
        """A copy is being shipped to ``node``; logically valid already.

        ``producer_id`` is the ce_id of the writer the transfer waits on
        (if any) — crash recovery consults it to avoid wait cycles.
        ``relay`` records the full collective chain this replication
        rides on (``src`` is then the node's predecessor in the chain) —
        multi-destination in-flight state the crash repair uses to
        re-source the surviving remainder of a broken chain.
        """
        state = self.state(array)
        state.up_to_date.add(node)
        state.inflight[node] = done
        if src is not None:
            state.inflight_src[node] = src
        if producer_id is not None:
            state.inflight_producer[node] = producer_id
        if relay is not None:
            state.inflight_relay[node] = tuple(relay)

    def replication_event(self, array: ManagedArray,
                          node: str) -> Event | None:
        """The pending transfer a consumer on ``node`` must also wait for."""
        state = self.state(array)
        ev = state.inflight.get(node)
        if ev is not None and ev.processed:
            del state.inflight[node]
            state.inflight_src.pop(node, None)
            state.inflight_producer.pop(node, None)
            state.inflight_relay.pop(node, None)
            return None
        return ev

    def record_write(self, array: ManagedArray, node: str,
                     ce: "ComputationalElement") -> set[str]:
        """A CE on ``node`` writes the array: everyone else is invalidated.

        Returns the set of nodes that lost their copy (the runtime drops
        their UVM replicas and registrations).
        """
        state = self.state(array)
        invalidated = state.up_to_date - {node}
        state.up_to_date = {node}
        state.inflight = {n: ev for n, ev in state.inflight.items()
                          if n == node}
        state.inflight_src = {n: s for n, s in state.inflight_src.items()
                              if n == node}
        state.inflight_producer = {
            n: p for n, p in state.inflight_producer.items() if n == node}
        state.inflight_relay = {
            n: c for n, c in state.inflight_relay.items() if n == node}
        state.last_writer = ce
        state.readers_since_write = []
        state.reader_ids = set()
        return invalidated

    def record_read(self, array: ManagedArray,
                    ce: "ComputationalElement") -> None:
        """Track a reader for later WAR dependencies.

        Deduplicated by ``ce_id``: a CE reading the same array through
        several parameters (or re-scheduled after a crash) is tracked
        once, so read-heavy workloads do not grow the list per access.
        """
        state = self.state(array)
        if ce.ce_id not in state.reader_ids:
            state.reader_ids.add(ce.ce_id)
            state.readers_since_write.append(ce)

    def prune_readers(self) -> int:
        """Drop tracked readers whose CE has completed.

        ``readers_since_write`` is only cleared by a write; on read-heavy
        workloads it would otherwise grow for the lifetime of the run.
        Called from the controller's periodic prune; returns the number
        of entries dropped.
        """
        dropped = 0
        for state in self._states.values():
            before = len(state.readers_since_write)
            state.readers_since_write = [
                ce for ce in state.readers_since_write
                if ce.done is None or not ce.done.processed]
            if len(state.readers_since_write) != before:
                state.reader_ids = {
                    ce.ce_id for ce in state.readers_since_write}
            dropped += before - len(state.readers_since_write)
        return dropped

    # -- crash recovery ---------------------------------------------------------

    def drop_node(self, name: str) -> DirectoryRepair:
        """Erase a dead node from the coherence state (crash recovery).

        The node leaves every ``up_to_date`` set; an array whose *only*
        valid copy died rolls back to the home node (the controller keeps
        the logical master — the lost write itself is re-executed by the
        scheduler layer).  Replications headed *to* the node are reported
        for cancellation, replications sourced *from* it for re-routing.
        """
        repair = DirectoryRepair()
        for state in self._states.values():
            ev = state.inflight.pop(name, None)
            state.inflight_src.pop(name, None)
            state.inflight_producer.pop(name, None)
            state.inflight_relay.pop(name, None)
            if ev is not None and not ev.processed:
                repair.cancelled.append(ev)
            for dst, src in list(state.inflight_src.items()):
                if src != name:
                    continue
                rerouted = state.inflight.get(dst)
                if rerouted is not None and not rerouted.processed:
                    repair.rerouted.append(rerouted)
                # The surviving source is re-chosen by the mover itself;
                # the home node is the guaranteed fallback.  A relay leg
                # fed by the dead node leaves its (now stale) chain.
                state.inflight_src[dst] = self.home
                state.inflight_relay.pop(dst, None)
            if name in state.up_to_date:
                state.up_to_date.discard(name)
                if not state.up_to_date:
                    state.up_to_date.add(self.home)
                    repair.rolled_back += 1
        return repair
