"""Unified observability: metrics registry, per-CE profiling, exporters.

The one place every layer reports into and every surface reads from:

* :class:`MetricsRegistry` — counters, gauges and bounded-reservoir
  histograms, labelled by node/GPU/link/policy (catalogue in
  :mod:`repro.obs.catalog`, documented in ``docs/OBSERVABILITY.md``).
* :class:`CeProfiler` — threads each ``ce_id`` through scheduling
  decision → transfer → stream execution, slicing a run into
  sched/transfer/stall/compute time per CE and per node.
* Exporters — Prometheus text, a stable JSON schema and Chrome-trace
  counter tracks.
* :class:`RunReport` — the post-run account of one runtime
  (:func:`build_run_report`), as tables or the ``grout-run-report/2``
  JSON (:func:`json_run_report`).
"""

from repro.obs.catalog import CATALOG, install
from repro.obs.ceprofile import PHASES, CeProfile, CeProfiler, PhaseTotals
from repro.obs.export import (
    metric_counter_events,
    parse_prometheus_text,
    registry_to_dict,
    to_prometheus_text,
    write_metrics_json,
    write_prometheus,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricFamily,
    MetricSpec,
    MetricsRegistry,
    RunningAggregate,
)
from repro.obs.summary import (
    LinkUsage,
    RunReport,
    build_run_report,
    json_run_report,
    write_run_report,
)

__all__ = [
    "CATALOG",
    "CeProfile",
    "CeProfiler",
    "Counter",
    "Gauge",
    "Histogram",
    "LinkUsage",
    "MetricError",
    "MetricFamily",
    "MetricSpec",
    "MetricsRegistry",
    "PHASES",
    "PhaseTotals",
    "RunReport",
    "RunningAggregate",
    "build_run_report",
    "install",
    "json_run_report",
    "metric_counter_events",
    "parse_prometheus_text",
    "registry_to_dict",
    "to_prometheus_text",
    "write_metrics_json",
    "write_prometheus",
    "write_run_report",
]
