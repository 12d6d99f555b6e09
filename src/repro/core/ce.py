"""Computational Elements — the unit GrOUT schedules.

"A CE is a lightweight wrapper around all the GPU kernel launches in the
host code and read/write operations on memory regions handled by the
framework" (§IV-B).  Dependencies between CEs are derived purely from their
parameter access sets (RAW/WAR/WAW), never from kernel internals — the
workload-agnostic constraint §V-E insists on.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.gpu.kernel import ArrayAccess, KernelSpec, LaunchConfig
from repro.core.arrays import ManagedArray

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Event

_ce_ids = itertools.count(1)


class CeKind(enum.Enum):
    """The operation categories GrOUT schedules."""

    KERNEL = "kernel"          # GPU kernel launch, runs on a worker
    HOST_READ = "host_read"    # host-side read, runs on the controller
    HOST_WRITE = "host_write"  # host-side write/initialisation
    PREFETCH = "prefetch"      # cudaMemPrefetchAsync-style bulk migration


@dataclass(eq=False, slots=True)
class ComputationalElement:
    """One schedulable operation plus its declared data accesses."""

    kind: CeKind
    accesses: tuple[ArrayAccess, ...]
    kernel: KernelSpec | None = None
    config: LaunchConfig | None = None
    args: tuple[object, ...] = ()
    #: Host-side body (HOST_READ/HOST_WRITE only), run at simulated
    #: execution time against the NumPy backings.
    host_body: Callable[[], object] | None = None
    label: str | None = None
    ce_id: int = field(default_factory=lambda: next(_ce_ids))
    #: Completion event, attached by the runtime when scheduled.
    done: "Event | None" = None
    #: Node the scheduler placed this CE on (for tests/inspection).
    assigned_node: str | None = None
    #: GPU/stream placement chosen by the intra-node scheduler.
    assigned_lane: str | None = None
    #: Multi-program session this CE was admitted under (None on the
    #: legacy single-program path).
    session: str | None = None
    #: Position in the owning session's program order — the namespaced
    #: CE id (``ce_id`` stays globally unique across sessions).
    session_seq: int | None = None
    #: Lazy cache of :attr:`arrays`, which the scheduler and the pricer
    #: read several times per CE (``accesses`` is immutable after
    #: construction).  ``reads`` and ``writes`` are read once each, so
    #: they are not cached.
    _arrays: "list[ManagedArray] | None" = field(
        default=None, repr=False, compare=False)
    #: Lazy cache of :attr:`display_name`; :meth:`tag` resets it.
    _name: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind is CeKind.KERNEL:
            if self.kernel is None or self.config is None:
                raise ValueError("KERNEL CEs need a kernel and a config")
        elif self.kernel is not None:
            raise ValueError(f"{self.kind} CEs must not carry a kernel")
        for access in self.accesses:
            if not isinstance(access.buffer, ManagedArray):
                raise TypeError(
                    "CE accesses must reference ManagedArray parameters, "
                    f"got {type(access.buffer).__name__}")

    # -- access-set views ----------------------------------------------------

    @property
    def arrays(self) -> list[ManagedArray]:
        """All managed parameters, deduplicated, declaration order."""
        if self._arrays is None:
            seen: dict[int, ManagedArray] = {}
            for access in self.accesses:
                seen.setdefault(access.buffer.buffer_id, access.buffer)  # type: ignore[arg-type]
            self._arrays = list(seen.values())
        return self._arrays

    @property
    def reads(self) -> list[ManagedArray]:
        """Parameters read, deduplicated, declaration order."""
        seen: dict[int, ManagedArray] = {}
        for access in self.accesses:
            if access.direction.reads:
                seen.setdefault(access.buffer.buffer_id, access.buffer)  # type: ignore[arg-type]
        return list(seen.values())

    @property
    def writes(self) -> list[ManagedArray]:
        """Parameters written, deduplicated, declaration order."""
        seen: dict[int, ManagedArray] = {}
        for access in self.accesses:
            if access.direction.writes:
                seen.setdefault(access.buffer.buffer_id, access.buffer)  # type: ignore[arg-type]
        return list(seen.values())

    def writes_buffer(self, buffer_id: int) -> bool:
        """Whether any access writes the given buffer."""
        return any(a.direction.writes and a.buffer.buffer_id == buffer_id
                   for a in self.accesses)

    def reads_buffer(self, buffer_id: int) -> bool:
        """Whether any access reads the given buffer."""
        return any(a.direction.reads and a.buffer.buffer_id == buffer_id
                   for a in self.accesses)

    @property
    def param_bytes(self) -> int:
        """Modeled bytes across unique parameters."""
        return sum(a.nbytes for a in self.arrays)

    def tag(self, session: str, seq: int) -> None:
        """Admit this CE under ``session`` at program position ``seq``."""
        self.session = session
        self.session_seq = seq
        self._name = None     # display_name now carries the session

    @property
    def display_name(self) -> str:
        """Label for traces and reports (session-prefixed when owned)."""
        name = self._name
        if name is not None:
            return name
        if self.label:
            name = self.label
        elif self.kind is CeKind.KERNEL:
            assert self.kernel is not None
            name = f"{self.kernel.name}#{self.session_seq or self.ce_id}"
        else:
            name = f"{self.kind.value}#{self.session_seq or self.ce_id}"
        if self.session is not None:
            name = f"{self.session}/{name}"
        self._name = name
        return name

    def __repr__(self) -> str:
        return f"<CE {self.display_name} {self.kind.value}>"


def depends_on(new: ComputationalElement,
               old: ComputationalElement) -> bool:
    """True when ``new`` must wait for ``old`` (RAW, WAR or WAW overlap).

    This is the ``computeDependencies`` predicate of Algorithm 1: two CEs
    conflict iff they share a parameter and at least one writes it.
    """
    for a in new.accesses:
        for b in old.accesses:
            if a.buffer.buffer_id != b.buffer.buffer_id:
                continue
            if a.direction.writes or b.direction.writes:
                return True
    return False
