"""Post-run summary tables: the observability layer's terminal surface.

``build_run_summary(runtime)`` distils a finished run into the three
questions §V of the paper keeps answering: which CEs were slow (and in
which phase), how hard each fabric link worked, and how oversubscribed
every GPU ended up.  The CLI prints it after ``run`` when observability
is on; ``RunSummary.as_dict()`` feeds the JSON run report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.ceprofile import CeProfile, CeProfiler, PhaseTotals

_GIB = 1024 ** 3


@dataclass(frozen=True, slots=True)
class LinkUsage:
    """One directed fabric link's aggregate traffic."""

    src: str
    dst: str
    nbytes: int
    wire_seconds: float
    transfers: int

    @property
    def name(self) -> str:
        """The link label used in lanes and tables."""
        return f"{self.src}->{self.dst}"

    def utilisation(self, makespan: float) -> float:
        """Wire-busy fraction of the run's makespan."""
        return self.wire_seconds / makespan if makespan > 0 else 0.0

    @property
    def achieved_gib_per_s(self) -> float:
        """Effective bandwidth while the wire was busy."""
        return (self.nbytes / _GIB / self.wire_seconds
                if self.wire_seconds > 0 else 0.0)


@dataclass(slots=True)
class RunSummary:
    """Aggregated per-CE / per-link / per-GPU view of one run."""

    makespan_seconds: float = 0.0
    ces_scheduled: int = 0
    phase_totals: PhaseTotals = field(default_factory=PhaseTotals)
    top_ces: list[CeProfile] = field(default_factory=list)
    links: list[LinkUsage] = field(default_factory=list)
    #: (node, gpu_id) -> footprint-based per-GPU oversubscription.
    gpu_oversubscription: dict[tuple[str, int], float] = field(
        default_factory=dict)
    #: node -> node-level OSF (the paper's operating point).
    node_oversubscription: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready view (schema-stable, used by the run report)."""
        return {
            "makespan_seconds": self.makespan_seconds,
            "ces_scheduled": self.ces_scheduled,
            "phase_totals": self.phase_totals.as_dict(),
            "top_ces": [p.as_dict() for p in self.top_ces],
            "links": [{
                "src": link.src,
                "dst": link.dst,
                "bytes": link.nbytes,
                "wire_seconds": link.wire_seconds,
                "transfers": link.transfers,
                "utilisation": link.utilisation(self.makespan_seconds),
            } for link in self.links],
            "gpu_oversubscription": {
                f"{node}/gpu{gpu}": value
                for (node, gpu), value in
                sorted(self.gpu_oversubscription.items())},
            "node_oversubscription": dict(sorted(
                self.node_oversubscription.items())),
        }

    def render(self) -> str:
        """The summary as stacked ASCII tables."""
        from repro.bench.report import format_table

        parts: list[str] = []
        totals = self.phase_totals
        parts.append(format_table(
            ["metric", "value"],
            [("makespan", f"{self.makespan_seconds:.4g} s"),
             ("CEs scheduled", self.ces_scheduled),
             ("sched time (wall)", f"{totals.sched_seconds:.4g} s"),
             ("transfer time", f"{totals.transfer_seconds:.4g} s"),
             ("stall time", f"{totals.stall_seconds:.4g} s"),
             ("compute time", f"{totals.compute_seconds:.4g} s")],
            title="Run summary"))
        if self.top_ces:
            parts.append(format_table(
                ["CE", "node", "transfer s", "stall s", "compute s",
                 "total s"],
                [(p.name, p.node or "?",
                  f"{p.transfer_seconds:.4g}", f"{p.stall_seconds:.4g}",
                  f"{p.compute_seconds:.4g}", f"{p.total_seconds:.4g}")
                 for p in self.top_ces],
                title=f"Top {len(self.top_ces)} slowest CEs"))
        if self.links:
            parts.append(format_table(
                ["link", "GiB", "wire s", "busy", "GiB/s"],
                [(link.name, f"{link.nbytes / _GIB:.3g}",
                  f"{link.wire_seconds:.4g}",
                  f"{link.utilisation(self.makespan_seconds):.1%}",
                  f"{link.achieved_gib_per_s:.3g}")
                 for link in self.links],
                title="Fabric link utilisation"))
        if self.node_oversubscription or self.gpu_oversubscription:
            rows: list[tuple[str, str]] = []
            for node, osf in sorted(self.node_oversubscription.items()):
                rows.append((node, f"{osf:.3g}x"))
            for (node, gpu), value in sorted(
                    self.gpu_oversubscription.items()):
                rows.append((f"{node}/gpu{gpu}", f"{value:.3g}x"))
            parts.append(format_table(["device", "oversubscription"],
                                      rows, title="Oversubscription"))
        return "\n\n".join(parts)


def _links_from_registry(metrics) -> list[LinkUsage]:
    if metrics is None or "grout_fabric_bytes_total" not in metrics:
        return []
    nbytes: dict[tuple[str, str], float] = {}
    for labels, child in metrics.family(
            "grout_fabric_bytes_total").children():
        nbytes[(labels["src"], labels["dst"])] = child.value
    wire: dict[tuple[str, str], float] = {}
    if "grout_fabric_wire_seconds_total" in metrics:
        for labels, child in metrics.family(
                "grout_fabric_wire_seconds_total").children():
            wire[(labels["src"], labels["dst"])] = child.value
    count: dict[tuple[str, str], float] = {}
    if "grout_fabric_transfers_total" in metrics:
        for labels, child in metrics.family(
                "grout_fabric_transfers_total").children():
            count[(labels["src"], labels["dst"])] = child.value
    return [LinkUsage(src=src, dst=dst, nbytes=int(total),
                      wire_seconds=wire.get((src, dst), 0.0),
                      transfers=int(count.get((src, dst), 0)))
            for (src, dst), total in sorted(nbytes.items())]


def build_run_summary(runtime, *, top: int = 10) -> RunSummary:
    """Build a :class:`RunSummary` from a GrOUT or GrCUDA runtime."""
    summary = RunSummary()
    tracer = getattr(runtime, "tracer", None)
    if tracer is not None:
        summary.makespan_seconds = tracer.makespan()
    profiler: CeProfiler | None = getattr(runtime, "profiler", None)
    if profiler is not None:
        summary.phase_totals = profiler.totals
        summary.top_ces = profiler.slowest(top)
    summary.ces_scheduled = getattr(runtime, "ces_submitted", 0)
    metrics = getattr(runtime, "metrics", None)
    summary.links = _links_from_registry(metrics)

    for node in getattr(runtime, "nodes", ()):
        uvm = node.uvm
        if uvm is None:
            continue
        summary.node_oversubscription[node.name] = uvm.oversubscription
        for gpu in node.gpus:
            summary.gpu_oversubscription[(node.name, gpu.gpu_id)] = \
                uvm.device_pressure(gpu)
    return summary
