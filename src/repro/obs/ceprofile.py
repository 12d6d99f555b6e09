"""Cross-layer per-CE profiling: where did each CE's time go?

A single ``ce_id`` is threaded from the controller's scheduling decision
through the data-movement phase into the stream execution on a worker, so
one run can be sliced into four phases per CE (and per node):

``sched``
    Wall-clock cost of the Algorithm-1 decision (the Fig. 9 overhead —
    the only phase measured in host time, not simulated time).
``transfer``
    Simulated seconds the CE's parameter replications spent after their
    producer finished: write-back, NIC queueing, wire time, retries.
``stall``
    Simulated seconds between stream submission and execution start —
    waiting on ancestors, stream FIFO order and controller→worker
    latency.
``compute``
    Simulated seconds of the execution body itself (UVM fault/migration
    phases included, exactly as priced).

Memory is bounded: per-phase totals stay exact forever, while the
per-CE table compacts itself to the slowest half once ``capacity`` is
exceeded — the summary's "top-N slowest CEs" view survives compaction by
construction.  A long-lived runtime drops a departed program's profiles
outright (:meth:`CeProfiler.forget`, called by ``Session.reclaim``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.registry import MetricsRegistry

#: The phase names, in pipeline order.
PHASES = ("sched", "transfer", "stall", "compute")


@dataclass(slots=True)
class CeProfile:
    """Accumulated phase times of one computational element."""

    ce_id: int
    name: str
    kind: str
    node: str | None = None
    lane: str | None = None
    sched_seconds: float = 0.0
    transfer_seconds: float = 0.0
    stall_seconds: float = 0.0
    compute_seconds: float = 0.0
    transfer_bytes: int = 0

    @property
    def total_seconds(self) -> float:
        """Sum of every phase (sched wall-clock included)."""
        return (self.sched_seconds + self.transfer_seconds
                + self.stall_seconds + self.compute_seconds)

    def as_dict(self) -> dict:
        """JSON-ready view of the profile."""
        return {
            "ce_id": self.ce_id,
            "name": self.name,
            "kind": self.kind,
            "node": self.node,
            "lane": self.lane,
            "sched_seconds": self.sched_seconds,
            "transfer_seconds": self.transfer_seconds,
            "stall_seconds": self.stall_seconds,
            "compute_seconds": self.compute_seconds,
            "transfer_bytes": self.transfer_bytes,
            "total_seconds": self.total_seconds,
        }


@dataclass(slots=True)
class PhaseTotals:
    """Exact per-phase aggregate across every CE ever profiled."""

    sched_seconds: float = 0.0
    transfer_seconds: float = 0.0
    stall_seconds: float = 0.0
    compute_seconds: float = 0.0
    ces_profiled: int = 0

    def as_dict(self) -> dict:
        """JSON-ready view of the totals."""
        return {
            "sched_seconds": self.sched_seconds,
            "transfer_seconds": self.transfer_seconds,
            "stall_seconds": self.stall_seconds,
            "compute_seconds": self.compute_seconds,
            "ces_profiled": self.ces_profiled,
        }


class CeProfiler:
    """Collects per-CE phase attributions from every layer.

    Publishing into a :class:`~repro.obs.registry.MetricsRegistry` is
    optional but standard: each recorded phase also increments
    ``grout_ce_phase_seconds_total{phase, node}``.
    """

    def __init__(self, registry: MetricsRegistry | None = None, *,
                 capacity: int = 65536):
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        self._profiles: dict[int, CeProfile] = {}
        self._capacity = capacity
        self.totals = PhaseTotals()
        self._phase_metric = None
        # (phase, node) -> bound counter; ``labels()`` per recorded phase
        # is too heavy for a hook that fires four times per CE.
        self._phase_handles: dict[tuple[str, str], object] = {}
        if registry is not None:
            from repro.obs.catalog import PROFILER_METRICS
            registry.register_many(PROFILER_METRICS)
            self._phase_metric = registry.family(
                "grout_ce_phase_seconds_total")

    # -- recording -----------------------------------------------------------

    def _profile(self, ce) -> CeProfile:
        profile = self._profiles.get(ce.ce_id)
        if profile is None:
            profile = CeProfile(ce_id=ce.ce_id, name=ce.display_name,
                                kind=ce.kind.value)
            self._profiles[ce.ce_id] = profile
            self.totals.ces_profiled += 1
            if len(self._profiles) > self._capacity:
                self._compact()
        return profile

    def _record(self, ce, phase: str, seconds: float,
                node: str | None) -> CeProfile:
        profile = self._profile(ce)
        totals = self.totals
        # Direct attribute bumps (not getattr/setattr on a derived name):
        # this is the hottest observability call in the stack.
        if phase == "sched":
            profile.sched_seconds += seconds
            totals.sched_seconds += seconds
        elif phase == "transfer":
            profile.transfer_seconds += seconds
            totals.transfer_seconds += seconds
        elif phase == "stall":
            profile.stall_seconds += seconds
            totals.stall_seconds += seconds
        else:
            profile.compute_seconds += seconds
            totals.compute_seconds += seconds
        if node is not None:
            profile.node = node
        metric = self._phase_metric
        if metric is not None:
            label_node = node or profile.node or "?"
            key = (phase, label_node)
            handle = self._phase_handles.get(key)
            if handle is None:
                handle = self._phase_handles[key] = metric.labels(
                    phase=phase, node=label_node)
            handle.inc(seconds)
        return profile

    def record_sched(self, ce, seconds: float,
                     node: str | None = None) -> None:
        """Attribute one scheduling decision's wall-clock cost."""
        self._record(ce, "sched", seconds, node)

    def record_transfer(self, ce, seconds: float, *,
                        nbytes: int = 0,
                        node: str | None = None) -> None:
        """Attribute one replication's simulated duration (and bytes)."""
        profile = self._record(ce, "transfer", seconds, node)
        profile.transfer_bytes += nbytes

    def record_stall(self, ce, seconds: float,
                     node: str | None = None) -> None:
        """Attribute submission-to-start queueing on the worker."""
        self._record(ce, "stall", seconds, node)

    def record_compute(self, ce, seconds: float, *,
                       node: str | None = None,
                       lane: str | None = None) -> None:
        """Attribute the execution body's simulated duration."""
        profile = self._record(ce, "compute", seconds, node)
        if lane is not None:
            profile.lane = lane

    # -- bounded memory -------------------------------------------------------

    def forget(self, ce_id: int) -> None:
        """Drop one CE's profile, if retained (totals stay exact)."""
        self._profiles.pop(ce_id, None)

    def _compact(self) -> None:
        """Drop the fastest half of the table (totals stay exact)."""
        keep = sorted(self._profiles.values(),
                      key=lambda p: -p.total_seconds)[:self._capacity // 2]
        self._profiles = {p.ce_id: p for p in keep}

    # -- queries --------------------------------------------------------------

    def profiles(self) -> list[CeProfile]:
        """Every retained profile, by ce_id."""
        return [self._profiles[k] for k in sorted(self._profiles)]

    def get(self, ce_id: int) -> CeProfile | None:
        """The retained profile of one CE, if any."""
        return self._profiles.get(ce_id)

    def slowest(self, n: int = 10) -> list[CeProfile]:
        """The ``n`` slowest retained CEs by total attributed seconds."""
        return sorted(self._profiles.values(),
                      key=lambda p: -p.total_seconds)[:max(0, n)]

    def by_node(self) -> dict[str, PhaseTotals]:
        """Per-node phase totals over the retained profiles."""
        out: dict[str, PhaseTotals] = {}
        for profile in self._profiles.values():
            totals = out.setdefault(profile.node or "?", PhaseTotals())
            totals.sched_seconds += profile.sched_seconds
            totals.transfer_seconds += profile.transfer_seconds
            totals.stall_seconds += profile.stall_seconds
            totals.compute_seconds += profile.compute_seconds
            totals.ces_profiled += 1
        return out

    def __len__(self) -> int:
        return len(self._profiles)

    def __repr__(self) -> str:
        return (f"<CeProfiler retained={len(self._profiles)} "
                f"profiled={self.totals.ces_profiled}>")
