"""The run report: where one finished run's simulated time went.

``build_run_report(runtime)`` distils a run into the questions §V of the
paper keeps answering: how long it took and where that time went (busy
seconds per span category, the per-CE phases, the slowest CEs and
kernels), how hard each fabric link worked, and how oversubscribed every
node and GPU ended up.  Each value has one source: the tracer, the CE
profiler, the metrics registry, the nodes' UVM spaces or the intra-node
schedulers.  ``RunReport.render()`` is what ``repro run`` prints, and
:func:`json_run_report` is the ``grout-run-report/2`` JSON.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import IO

from repro.obs.ceprofile import CeProfile, PhaseTotals
from repro.obs.export import registry_to_dict

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
class RunReport:
    """Accounting of one simulated run, each value from one source."""

    #: Tracer: the first span's start to the last span's end.
    makespan_seconds: float = 0.0
    #: The host API's count of submitted CEs, every kind.
    ces_scheduled: int = 0
    #: Tracer: span category -> the sum of its spans' durations.  Every
    #: span counts in full, overlapping spans on one lane included, so a
    #: value is aggregate work and can exceed the makespan; it is not
    #: the union of busy intervals (``Tracer.busy_time`` is, per lane).
    busy_by_category: dict[str, float] = field(default_factory=dict)
    #: Profiler: exact per-phase totals over every profiled CE.
    phase_totals: PhaseTotals = field(default_factory=PhaseTotals)
    #: Profiler: the slowest retained CEs by total attributed seconds.
    top_ces: list[CeProfile] = field(default_factory=list)
    #: Registry: every directed fabric link that moved bytes.
    links: list[LinkUsage] = field(default_factory=list)
    #: Registry: replications sourced worker to worker.
    p2p_transfers: int = 0
    #: Registry: mean wall-clock cost of one scheduling decision.
    mean_decision_micros: float = 0.0
    #: Nodes: node -> node-level OSF (the paper's operating point).
    node_oversubscription: dict[str, float] = field(default_factory=dict)
    #: Nodes: (node, GPU index in the node) -> footprint-based per-GPU
    #: oversubscription; JSON and tables name the GPU by its trace lane.
    gpu_oversubscription: dict[tuple[str, int], float] = field(
        default_factory=dict)
    #: Nodes: node -> host-link GiB (cold + refaults + writebacks +
    #: prefetches).
    uvm_link_gib: dict[str, float] = field(default_factory=dict)
    #: Nodes: kernel launches priced in the thrashing regime.
    thrashing_launches: int = 0
    #: Workers: (kernel, launches, total seconds), slowest first.
    top_kernels: list[tuple[str, int, float]] = field(default_factory=list)

    @property
    def network_bytes(self) -> int:
        """Bytes moved over every fabric link."""
        return sum(link.nbytes for link in self.links)

    @property
    def network_transfers(self) -> int:
        """Transfers completed over every fabric link."""
        return sum(link.transfers for link in self.links)

    def as_dict(self) -> dict:
        """JSON-ready view (schema-stable: the JSON run report's
        ``report`` section)."""
        return {
            "makespan_seconds": self.makespan_seconds,
            "ces_scheduled": self.ces_scheduled,
            "busy_by_category": dict(sorted(
                self.busy_by_category.items())),
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
            "network_bytes": self.network_bytes,
            "network_transfers": self.network_transfers,
            "p2p_transfers": self.p2p_transfers,
            "mean_decision_micros": self.mean_decision_micros,
            "node_oversubscription": dict(sorted(
                self.node_oversubscription.items())),
            "gpu_oversubscription": {
                f"{node}/gpu{gpu}": value
                for (node, gpu), value in
                sorted(self.gpu_oversubscription.items())},
            "uvm_link_gib": dict(sorted(self.uvm_link_gib.items())),
            "thrashing_launches": self.thrashing_launches,
            "top_kernels": [
                {"kernel": name, "launches": count, "seconds": seconds}
                for name, count, seconds in self.top_kernels],
        }

    def render(self) -> str:
        """The report as stacked text tables."""
        # Imported here: repro.bench costs tens of milliseconds, and
        # building a runtime or its report needs none of it.
        from repro.bench.report import format_table

        totals = self.phase_totals
        rows = [
            ("makespan", f"{self.makespan_seconds:.4g} s"),
            ("CEs scheduled", self.ces_scheduled),
            ("mean decision cost", f"{self.mean_decision_micros:.1f} us"),
            ("sched time (wall)", f"{totals.sched_seconds:.4g} s"),
            ("transfer time", f"{totals.transfer_seconds:.4g} s"),
            ("stall time", f"{totals.stall_seconds:.4g} s"),
            ("compute time", f"{totals.compute_seconds:.4g} s"),
            ("network volume",
             f"{self.network_bytes / _GIB:.2f} GiB over "
             f"{self.network_transfers} transfers "
             f"({self.p2p_transfers} P2P)"),
        ]
        for node, link in sorted(self.uvm_link_gib.items()):
            rows.append((f"UVM link traffic on {node}", f"{link:.2f} GiB"))
        if self.thrashing_launches:
            rows.append(("thrashing launches", self.thrashing_launches))
        parts = [format_table(["metric", "value"], rows,
                              title="Run report")]
        if self.busy_by_category:
            parts.append(format_table(
                ["category", "aggregate busy seconds"],
                sorted(self.busy_by_category.items(),
                       key=lambda kv: -kv[1]),
                title="Where the simulated time went"))
        if self.top_ces:
            parts.append(format_table(
                ["CE", "node", "transfer s", "stall s", "compute s",
                 "total s"],
                [(p.name, p.node or "?",
                  f"{p.transfer_seconds:.4g}", f"{p.stall_seconds:.4g}",
                  f"{p.compute_seconds:.4g}", f"{p.total_seconds:.4g}")
                 for p in self.top_ces],
                title=f"Top {len(self.top_ces)} slowest CEs"))
        if self.top_kernels:
            parts.append(format_table(
                ["kernel", "launches", "total seconds"],
                self.top_kernels,
                title="Top kernels by simulated time"))
        if self.links:
            parts.append(format_table(
                ["link", "GiB", "wire s", "busy", "GiB/s"],
                [(link.name, f"{link.nbytes / _GIB:.3g}",
                  f"{link.wire_seconds:.4g}",
                  f"{link.utilisation(self.makespan_seconds):.1%}",
                  f"{link.achieved_gib_per_s:.3g}")
                 for link in self.links],
                title="Fabric link utilisation"))
        if self.node_oversubscription:
            rows = [(node, f"{osf:.3g}x") for node, osf in
                    sorted(self.node_oversubscription.items())]
            rows += [(f"{node}/gpu{gpu}", f"{value:.3g}x")
                     for (node, gpu), value in
                     sorted(self.gpu_oversubscription.items())]
            parts.append(format_table(["device", "oversubscription"],
                                      rows, title="Oversubscription"))
        return "\n\n".join(parts)


def _links(metrics) -> list[LinkUsage]:
    """One row per link from the fabric's three per-link counters."""
    def per_link(name: str) -> dict[tuple[str, str], float]:
        return {(labels["src"], labels["dst"]): child.value
                for labels, child in metrics.family(name).children()}

    wire = per_link("grout_fabric_wire_seconds_total")
    count = per_link("grout_fabric_transfers_total")
    return [LinkUsage(src=src, dst=dst, nbytes=int(total),
                      wire_seconds=wire.get((src, dst), 0.0),
                      transfers=int(count.get((src, dst), 0)))
            for (src, dst), total in sorted(
                per_link("grout_fabric_bytes_total").items())]


def _top_kernels(workers, top: int) -> list[tuple[str, int, float]]:
    """Launch counts and simulated seconds per kernel over every worker."""
    totals: dict[str, tuple[int, float]] = {}
    for scheduler in workers.values():
        for name, (count, seconds) in scheduler.kernel_totals.items():
            have_count, have_seconds = totals.get(name, (0, 0.0))
            totals[name] = (have_count + count, have_seconds + seconds)
    return sorted(((name, count, seconds)
                   for name, (count, seconds) in totals.items()),
                  key=lambda row: -row[2])[:top]


def build_run_report(runtime, *, top: int = 10) -> RunReport:
    """The :class:`RunReport` of a GrOUT or GrCUDA runtime.

    Reads the runtime as it stands, running or shut down.  ``top``
    bounds the slowest-CE and top-kernel lists.
    """
    tracer, metrics = runtime.tracer, runtime.metrics
    decisions = [child for _, child in
                 metrics.family("grout_decision_seconds").children()]
    decided = sum(child.count for child in decisions)
    report = RunReport(
        makespan_seconds=tracer.makespan(),
        ces_scheduled=runtime.ces_submitted,
        busy_by_category={
            category: tracer.total_time(category)
            for category in sorted({span.category for span in tracer})},
        phase_totals=dataclasses.replace(runtime.profiler.totals),
        top_ces=runtime.profiler.slowest(top),
        links=_links(metrics),
        p2p_transfers=int(
            metrics.family("grout_p2p_transfers_total").value_sum()),
        mean_decision_micros=(
            sum(child.total for child in decisions) / decided * 1e6
            if decided else 0.0),
        top_kernels=_top_kernels(runtime.workers, top))
    for node in runtime.nodes:
        uvm = node.uvm
        report.node_oversubscription[node.name] = uvm.oversubscription
        report.uvm_link_gib[node.name] = uvm.stats.link_bytes / _GIB
        report.thrashing_launches += uvm.stats.thrashing_launches
        for gpu in node.gpus:
            report.gpu_oversubscription[(node.name, gpu.index)] = \
                uvm.device_pressure(gpu)
    return report


def json_run_report(runtime) -> dict:
    """One run's observability payload, JSON-ready.

    ``{"schema": "grout-run-report/2", "report": ..., "metrics": ...}``:
    :meth:`RunReport.as_dict` and the metrics registry's
    ``grout-metrics/1`` snapshot.  The layout is documented in
    ``docs/OBSERVABILITY.md`` and pinned by ``tests/obs/test_summary.py``.
    """
    return {
        "schema": "grout-run-report/2",
        "report": build_run_report(runtime).as_dict(),
        "metrics": registry_to_dict(runtime.metrics),
    }


def write_run_report(runtime, destination: "str | IO[str]") -> None:
    """Serialise :func:`json_run_report` to a file path or stream."""
    payload = json_run_report(runtime)
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    else:
        json.dump(payload, destination, indent=2)
