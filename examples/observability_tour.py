"""A guided tour of the observability layer on one small GrOUT run.

Runs Black–Scholes on a two-node cluster, then reads the same run four
ways: the live metrics registry (Prometheus text), the per-CE phase
profiles (sched / transfer / stall / compute), the post-run summary
tables the CLI prints, and the exported artefacts — a Chrome trace with
metric counter tracks and the `grout-run-report/1` JSON.  The full
metric catalogue and every format shown here are documented in
docs/OBSERVABILITY.md.

Run:  python examples/observability_tour.py
"""

import json
import tempfile
from pathlib import Path

from repro import GroutRuntime
from repro.bench import write_chrome_trace
from repro.bench.runreport import write_run_report
from repro.gpu.specs import GIB
from repro.obs import build_run_summary, to_prometheus_text
from repro.workloads import make_workload


def main() -> None:
    """Execute the workload and walk through each observability surface."""
    runtime = GroutRuntime(n_workers=2)
    workload = make_workload("bs", 2 * GIB)
    result = workload.execute(runtime)
    print(f"ran {workload.name}: {result.ce_count} CEs, "
          f"{result.elapsed_seconds:.3f} simulated seconds, "
          f"verified={result.verified}")

    # 1. The metrics registry: every layer published into it during the
    # run; scrape it like a Prometheus endpoint.
    text = to_prometheus_text(runtime.metrics)
    print("\n--- Prometheus text (first 15 lines) " + "-" * 20)
    print("\n".join(text.splitlines()[:15]))

    # 2. Per-CE profiling: where each computational element's time went.
    print("\n--- three slowest CEs " + "-" * 36)
    for profile in runtime.profiler.slowest(3):
        print(f"  {profile.name:12s} on {profile.node}: "
              f"transfer {profile.transfer_seconds:.3g}s, "
              f"stall {profile.stall_seconds:.3g}s, "
              f"compute {profile.compute_seconds:.3g}s")

    # 3. The run summary: the tables `--metrics` prints after a run.
    print("\n--- run summary " + "-" * 42)
    print(build_run_summary(runtime, top=5).render())

    # 4. Exported artefacts: Chrome trace (spans + metric counter
    # tracks) and the schema-stable JSON run report.
    outdir = Path(tempfile.mkdtemp(prefix="grout-obs-"))
    trace_path = outdir / "trace.json"
    report_path = outdir / "report.json"
    write_chrome_trace(runtime.tracer, str(trace_path),
                       metrics=runtime.metrics)
    write_run_report(runtime, str(report_path))
    report = json.loads(report_path.read_text())
    counters = sum(1 for e in
                   json.loads(trace_path.read_text())["traceEvents"]
                   if e.get("ph") == "C")
    print(f"\nwrote {trace_path} ({counters} counter-track events; "
          "open in chrome://tracing or Perfetto)")
    print(f"wrote {report_path} (schema {report['schema']}: "
          f"{len(report['metrics']['metrics'])} metric families, "
          f"{report['summary']['ces_scheduled']} CEs scheduled)")


if __name__ == "__main__":
    main()
