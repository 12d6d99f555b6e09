"""Post-run reports: where did the simulated time go?

Aggregates a runtime's tracer, controller stats and UVM state into one
structured record — the answer to "why was this run slow" without opening
a trace viewer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO

from repro.bench.chrometrace import time_breakdown
from repro.bench.report import format_table
from repro.obs import build_run_summary, registry_to_dict


@dataclass(slots=True)
class RunReport:
    """Aggregated accounting of one simulated run."""

    makespan_seconds: float = 0.0
    busy_by_category: dict[str, float] = field(default_factory=dict)
    network_bytes: int = 0
    network_transfers: int = 0
    p2p_transfers: int = 0
    ces_scheduled: int = 0
    mean_decision_micros: float = 0.0
    node_oversubscription: dict[str, float] = field(default_factory=dict)
    #: node -> host-link GiB (cold + refaults + writebacks + prefetches)
    uvm_link_gib: dict[str, float] = field(default_factory=dict)
    thrashing_launches: int = 0
    top_kernels: list[tuple[str, int, float]] = field(
        default_factory=list)      # (name, launches, total seconds)

    def as_dict(self) -> dict:
        """JSON-ready view (schema-stable, used by the JSON run report)."""
        return {
            "makespan_seconds": self.makespan_seconds,
            "busy_by_category": dict(sorted(
                self.busy_by_category.items())),
            "network_bytes": self.network_bytes,
            "network_transfers": self.network_transfers,
            "p2p_transfers": self.p2p_transfers,
            "ces_scheduled": self.ces_scheduled,
            "mean_decision_micros": self.mean_decision_micros,
            "node_oversubscription": dict(sorted(
                self.node_oversubscription.items())),
            "uvm_link_gib": dict(sorted(self.uvm_link_gib.items())),
            "thrashing_launches": self.thrashing_launches,
            "top_kernels": [
                {"kernel": name, "launches": count, "seconds": seconds}
                for name, count, seconds in self.top_kernels],
        }

    def render(self) -> str:
        """The report as stacked text tables."""
        gib = 1024 ** 3
        rows = [
            ("makespan", f"{self.makespan_seconds:.4g} s"),
            ("CEs scheduled", self.ces_scheduled),
            ("mean decision cost", f"{self.mean_decision_micros:.1f} us"),
            ("network volume",
             f"{self.network_bytes / gib:.2f} GiB over "
             f"{self.network_transfers} transfers "
             f"({self.p2p_transfers} P2P)"),
        ]
        for node, osf in sorted(self.node_oversubscription.items()):
            rows.append((f"OSF on {node}", f"{osf:.3g}x"))
        for node, link in sorted(self.uvm_link_gib.items()):
            rows.append((f"UVM link traffic on {node}",
                         f"{link:.2f} GiB"))
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
        if self.top_kernels:
            parts.append(format_table(
                ["kernel", "launches", "total seconds"],
                self.top_kernels,
                title="Top kernels by simulated time"))
        return "\n\n".join(parts)


def report_for(runtime) -> RunReport:
    """Build a :class:`RunReport` from a GrOUT or GrCUDA runtime."""
    report = RunReport()
    tracer = runtime.tracer
    if tracer is not None:
        report.makespan_seconds = tracer.makespan()
        report.busy_by_category = time_breakdown(tracer)

    report.ces_scheduled = runtime.ces_submitted
    gib = 1024 ** 3
    for node in runtime.nodes:
        report.node_oversubscription[node.name] = node.oversubscription()
        if node.uvm is not None:
            report.uvm_link_gib[node.name] = node.uvm.stats.link_bytes / gib
            report.thrashing_launches += node.uvm.stats.thrashing_launches
    controller = getattr(runtime, "controller", None)
    if controller is not None:     # GrOUT's network and decisions
        stats = controller.stats
        report.mean_decision_micros = stats.mean_decision_seconds * 1e6
        fabric = runtime.cluster.fabric
        report.network_bytes = fabric.bytes_moved
        report.network_transfers = fabric.transfer_count
        report.p2p_transfers = stats.p2p_transfers

    totals: dict[str, tuple[int, float]] = {}
    for scheduler in runtime.workers.values():
        for name, (count, seconds) in scheduler.kernel_totals.items():
            have_count, have_seconds = totals.get(name, (0, 0.0))
            totals[name] = (have_count + count, have_seconds + seconds)
    report.top_kernels = sorted(
        ((name, count, seconds)
         for name, (count, seconds) in totals.items()),
        key=lambda row: -row[2])[:10]
    return report


def json_run_report(runtime) -> dict:
    """The full observability payload of one run, JSON-ready.

    Merges the classic :class:`RunReport` accounting with the metrics
    registry snapshot and the per-CE/per-link :class:`~repro.obs.RunSummary`
    under one top-level schema tag (``grout-run-report/1``); the exact
    key layout is documented in ``docs/OBSERVABILITY.md`` and pinned by a
    schema test.
    """
    payload: dict = {
        "schema": "grout-run-report/1",
        "report": report_for(runtime).as_dict(),
        "summary": build_run_summary(runtime).as_dict(),
    }
    metrics = getattr(runtime, "metrics", None)
    if metrics is not None:
        payload["metrics"] = registry_to_dict(metrics)
    return payload


def write_run_report(runtime, destination: "str | IO[str]") -> None:
    """Serialise :func:`json_run_report` to a file path or stream."""
    payload = json_run_report(runtime)
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    else:
        json.dump(payload, destination, indent=2)
