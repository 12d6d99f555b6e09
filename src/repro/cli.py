"""Command-line interface: ``python -m repro <command> ...``.

Subcommands:

``run``       one workload on GrCUDA or GrOUT at a modeled footprint
``serve``     long-lived daemon: JSON workload specs over HTTP
``figure``    regenerate one paper figure (1, 5, 6a, 6b, 7, 8, 9)
``manifest``  execute a JSON workload manifest
``plan``      static autoscaling recommendation for a footprint
``sweep``     parameter sweep with CSV output
``compare``   diff two figure JSON exports (calibration regression check)

Every runtime-building subcommand parses its knobs into one
:class:`~repro.core.config.RuntimeConfig` (``RuntimeConfig.from_args``),
so the CLI, the serve daemon and the benchmark harness construct
runtimes identically.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.bench import (
    fig1,
    fig5,
    fig6a,
    fig6b,
    fig7,
    fig8,
    fig9,
    format_table,
    run_experiment,
    write_chrome_trace,
)
from repro.bench.timeline import render_timeline, utilisation_report
from repro.core import KpiAutoscaler, RuntimeConfig
from repro.obs import (
    build_run_report,
    to_prometheus_text,
    write_prometheus,
    write_run_report,
)
from repro.gpu.specs import GIB
from repro.workloads import WORKLOADS

FIGURES = {
    "1": fig1, "5": fig5, "6a": fig6a, "6b": fig6b, "7": fig7,
    "8": fig8, "9": fig9,
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GrOUT reproduction: run workloads, regenerate the "
                    "paper's figures, execute manifests.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one suite workload")
    run_p.add_argument("workload", choices=sorted(WORKLOADS))
    run_p.add_argument("--gb", type=float, default=4.0,
                       help="modeled footprint in GiB (default 4)")
    run_p.add_argument("--mode", choices=("grcuda", "grout"),
                       default="grcuda")
    RuntimeConfig.add_cli_args(run_p)
    run_p.add_argument("--repeats", type=int, default=1,
                       help="repetitions averaged per the paper's "
                            "protocol (default 1; simulation is "
                            "deterministic); the observability outputs "
                            "describe the last repetition")
    run_p.add_argument("--faults", metavar="SPEC",
                       help="inject failures (grout only): comma-"
                            "separated 'crash:worker0@1.5', "
                            "'degrade:controller-worker1@0.5x0.25', "
                            "'flake:worker0-worker1@2.0*3'")
    run_p.add_argument("--replace-crashed", action="store_true",
                       dest="replace_crashed",
                       help="provision a replacement worker after "
                            "each injected crash")
    run_p.add_argument("--sessions", type=int, default=1, metavar="N",
                       help="run N concurrent copies of the workload as "
                            "multi-program sessions sharing one cluster "
                            "(grout only; default 1 = classic run)")
    run_p.add_argument("--no-verify", action="store_true",
                       help="skip the numerical check")
    run_p.add_argument("--timeline", action="store_true",
                       help="print the ASCII execution timeline")
    run_p.add_argument("--chrome-trace", metavar="FILE",
                       help="write a chrome://tracing JSON of the run "
                            "(includes metric counter tracks)")
    run_p.add_argument("--metrics", metavar="PATH", nargs="?",
                       const="-", default=None,
                       help="export Prometheus-format metrics to PATH "
                            "(or stdout without PATH) and print the "
                            "run report")
    run_p.add_argument("--report", metavar="FILE",
                       help="write the JSON run report (the report "
                            "and a metrics snapshot)")

    serve_p = sub.add_parser(
        "serve", help="serve workload specs over HTTP on a persistent "
                      "runtime")
    RuntimeConfig.add_cli_args(serve_p, default_policy="round-robin")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8781,
                         help="TCP port (default 8781; 0 = ephemeral)")
    serve_p.add_argument("--unix-socket", metavar="PATH", default=None,
                         dest="unix_socket",
                         help="listen on a unix socket instead of TCP")
    serve_p.add_argument("--tenant-quota", type=int, default=64,
                         metavar="N", dest="tenant_quota",
                         help="max in-flight sessions per tenant "
                              "(default 64)")
    serve_p.add_argument("--max-sessions", type=int, default=1024,
                         metavar="N", dest="max_sessions",
                         help="max in-flight sessions overall "
                              "(default 1024)")

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("figure", choices=sorted(FIGURES))
    fig_p.add_argument("--quick", action="store_true",
                       help="trimmed size sweep")
    fig_p.add_argument("--json", metavar="FILE",
                       help="also write the figure data as JSON")

    man_p = sub.add_parser("manifest", help="execute a JSON manifest")
    man_p.add_argument("path", help="manifest file, or - for stdin")
    man_p.add_argument("--mode", choices=("grcuda", "grout"),
                       default="grout")
    man_p.add_argument("--workers", type=int, default=2)

    plan_p = sub.add_parser("plan",
                            help="autoscaling recommendation for a "
                                 "footprint")
    plan_p.add_argument("--gb", type=float, required=True)
    plan_p.add_argument("--target-osf", type=float, default=1.0)
    plan_p.add_argument("--node-gb", type=float, default=32.0,
                        help="GPU memory per node in GiB (default 32)")
    plan_p.add_argument("--max-workers", type=int, default=16)

    sweep_p = sub.add_parser("sweep",
                             help="parameter sweep with CSV output")
    sweep_p.add_argument("workloads", nargs="+",
                         help=f"from {sorted(WORKLOADS)}")
    sweep_p.add_argument("--sizes", default="4,32,96",
                         help="comma-separated GiB footprints")
    sweep_p.add_argument("--modes", default="grcuda,grout")
    sweep_p.add_argument("--policies", default="vector-step")
    sweep_p.add_argument("--workers", default="2",
                         help="comma-separated worker counts")
    sweep_p.add_argument("--repeats", type=int, default=1,
                         help="repetitions averaged per configuration")
    sweep_p.add_argument("--out", default="-",
                         help="CSV file, or - for stdout")

    cmp_p = sub.add_parser("compare",
                           help="diff two `figure --json` exports")
    cmp_p.add_argument("baseline")
    cmp_p.add_argument("current")
    cmp_p.add_argument("--tolerance", type=float, default=1.5,
                       help="max allowed ratio per value (default 1.5)")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    footprint = int(args.gb * GIB)
    try:
        config = RuntimeConfig.from_args(args)
        config.fault_plan()          # surfaces --faults parse errors now
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    if args.sessions < 1:
        print("--sessions must be >= 1", file=sys.stderr)
        return 2
    if args.sessions > 1:
        if args.mode != "grout":
            print("--sessions requires --mode grout", file=sys.stderr)
            return 2
        return _cmd_run_sessions(args, footprint, config)
    result, rt = run_experiment(args.workload, footprint, config,
                                check=not args.no_verify,
                                repeats=args.repeats)
    rows = [
        ("workload", result.workload),
        ("mode", result.mode),
        ("footprint", f"{result.footprint_gb:g} GiB"),
        ("oversubscription", f"{result.oversubscription:.3g}x "
                             "(vs one 2xV100 node)"),
        ("policy", result.policy),
        ("uvm backend", args.uvm_backend),
        ("simulated time", f"{result.elapsed_seconds:.4g} s"),
        ("completed", "yes" if result.completed
         else "no (hit the 2.5h cap)"),
        ("verified", "skipped" if args.no_verify
         else ("yes" if result.verified else "NO")),
    ]
    print(format_table(["field", "value"], rows))
    if _wants_observability(args):
        print()
        _emit_observability(args, rt)
    return 0 if (result.verified or args.no_verify) else 1


def _wants_observability(args: argparse.Namespace) -> bool:
    """Whether any tracing/metrics/report output flag was given."""
    return bool(args.timeline or args.chrome_trace
                or args.metrics is not None or args.report is not None)


def _emit_observability(args: argparse.Namespace, rt) -> None:
    """Print/write the timeline, chrome trace, metrics and report of
    the runtime ``rt``."""
    if args.timeline:
        print(render_timeline(rt.tracer))
        print()
        print(utilisation_report(rt.tracer))
    if args.chrome_trace:
        write_chrome_trace(rt.tracer, args.chrome_trace,
                           metrics=rt.metrics)
        print(f"chrome trace written to {args.chrome_trace} "
              "(open in chrome://tracing or Perfetto)")
    if args.metrics is not None or args.report is not None:
        print()
        print(build_run_report(rt).render())
        if args.metrics is not None:
            if args.metrics == "-":
                print()
                print(to_prometheus_text(rt.metrics), end="")
            else:
                write_prometheus(rt.metrics, args.metrics)
                print(f"\nmetrics written to {args.metrics} "
                      "(Prometheus text format)")
        if args.report is not None:
            write_run_report(rt, args.report)
            print(f"run report written to {args.report}")


def _cmd_run_sessions(args: argparse.Namespace, footprint: int,
                      config: RuntimeConfig) -> int:
    """Run N concurrent copies of the workload as multi-program sessions.

    One cluster, one runtime; every copy builds and submits through its
    own session before any sync, so the fair-share gate interleaves them.
    """
    from repro.workloads import make_workload

    programs = [make_workload(args.workload, footprint, seed=11 + i)
                for i in range(args.sessions)]
    rt = config.build_runtime(workload=programs[0],
                              footprint_bytes=footprint)
    sessions = [rt.session(f"p{i}") for i in range(args.sessions)]
    for session, wl in zip(sessions, programs):
        wl.build(session)
        wl.run(session)
    synced = [session.sync(timeout=9000) for session in sessions]
    verified = [True if args.no_verify else wl.verify()
                for wl in programs]

    scheduled = rt.metrics.family("grout_session_ces_scheduled_total")
    throttled = rt.metrics.family("grout_session_throttled_total")
    print(format_table(
        ["field", "value"],
        [("workload", f"{args.workload} x{args.sessions} sessions"),
         ("mode", "grout"),
         ("footprint", f"{args.gb:g} GiB per session "
                       f"({args.gb * args.sessions:g} GiB total)"),
         ("policy", args.policy),
         ("simulated makespan", f"{rt.engine.now:.4g} s")]))
    print()
    print(format_table(
        ["session", "ces", "throttled", "completed", "verified"],
        [(s.name,
          int(scheduled.labels(session=s.name).value),
          int(throttled.labels(session=s.name).value),
          "yes" if ok else "no",
          "skipped" if args.no_verify else ("yes" if good else "NO"))
         for s, ok, good in zip(sessions, synced, verified)]))
    if _wants_observability(args):
        print()
        _emit_observability(args, rt)
    return 0 if (all(synced) and all(verified)) else 1


def _cmd_figure(args: argparse.Namespace) -> int:
    generator = FIGURES[args.figure]
    if args.figure in ("5", "9"):
        result = generator()
    elif args.figure == "8":
        result = generator(96 if not args.quick else 8)
    elif args.quick:
        result = generator((4, 32, 96))
    else:
        result = generator()
    print(result.render())
    if args.json:
        from repro.bench import write_figure_json
        write_figure_json(result, args.json)
        print(f"figure data written to {args.json}")
    return 0


def _cmd_manifest(args: argparse.Namespace) -> int:
    from repro.polyglot import run_manifest

    if args.path == "-":
        source = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as fh:
            source = fh.read()
    runtime = RuntimeConfig(mode=args.mode, n_workers=args.workers,
                            policy="round-robin").build_runtime()
    result = run_manifest(runtime, source)
    print(f"executed {result.ce_count} steps in "
          f"{result.elapsed_seconds:.4g} simulated seconds")
    for name, values in result.reads.items():
        preview = np.array2string(values.reshape(-1)[:8], precision=4)
        print(f"  {name}: shape={values.shape} {preview}"
              f"{' ...' if values.size > 8 else ''}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import GroutDaemon, GroutService

    try:
        config = RuntimeConfig.from_args(args)
        service = GroutService(config,
                               tenant_quota=args.tenant_quota,
                               max_sessions=args.max_sessions)
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    daemon = GroutDaemon(service, host=args.host, port=args.port,
                         path=args.unix_socket)

    async def _serve() -> None:
        address = await daemon.start()
        # Flushed marker line: smoke scripts poll stdout for readiness.
        print(f"grout serve listening on {address}", flush=True)
        await daemon.run()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    print("grout serve: shut down cleanly", flush=True)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    scaler = KpiAutoscaler(target_osf=args.target_osf,
                           max_workers=args.max_workers)
    decision = scaler.plan(int(args.gb * GIB), int(args.node_gb * GIB))
    print(format_table(
        ["field", "value"],
        [("footprint", f"{args.gb:g} GiB"),
         ("node GPU memory", f"{args.node_gb:g} GiB"),
         ("target per-node OSF", f"{args.target_osf:g}"),
         ("OSF on one node", f"{decision.observed_osf:.3g}x"),
         ("recommended workers", decision.recommended_workers)]))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.bench import sweep, write_csv

    results = sweep(
        args.workloads,
        [float(s) for s in args.sizes.split(",")],
        modes=tuple(args.modes.split(",")),
        policies=tuple(args.policies.split(",")),
        worker_counts=[int(w) for w in args.workers.split(",")],
        repeats=args.repeats,
    )
    if args.out == "-":
        rows = write_csv(results, sys.stdout)
    else:
        rows = write_csv(results, args.out)
        print(f"{rows} rows written to {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench import compare_figures

    comparison = compare_figures(args.baseline, args.current)
    for issue in comparison.structural:
        print(f"STRUCTURAL: {issue}")
    for drift in comparison.drifts:
        print(f"drift: {drift}")
    ok = comparison.within(args.tolerance)
    worst = comparison.worst()
    if worst is not None:
        print(f"worst drift: {worst}")
    print(f"within {args.tolerance:g}x tolerance: "
          f"{'yes' if ok else 'NO'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "serve": _cmd_serve,
        "figure": _cmd_figure,
        "manifest": _cmd_manifest,
        "plan": _cmd_plan,
        "sweep": _cmd_sweep,
        "compare": _cmd_compare,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
