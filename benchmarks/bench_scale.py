#!/usr/bin/env python
"""Scheduling-scale harness CLI — million-CE synthetic DAGs.

Measures how fast the whole stack (controller pipeline, dependency DAG,
intra-node schedulers, event engine) chews through synthetic workloads,
and emits one ``scale`` row per run into the ``grout-bench/1`` record
(``src/repro/bench/gate.py``).

Usage (see docs/PERFORMANCE.md for the full story)::

    PYTHONPATH=src python benchmarks/bench_scale.py               # full sweep
    PYTHONPATH=src python benchmarks/bench_scale.py --quick       # 10k only
    PYTHONPATH=src python benchmarks/bench_scale.py --quick \\
        --check BENCH_baseline.json                               # CI gate
    PYTHONPATH=src python benchmarks/bench_scale.py --out BENCH_baseline.json

``--check`` exits non-zero when a (workload, size, shards) cell the
baseline also holds dropped below 1/2 of its events/sec, or the engine
row fell under its 250,000 events/s floor; ``--repeats 3`` gates on the
median run.  ``--shards N`` measures the conservative-window sharded
mode (its ``/shardsN`` cells only ever meet sharded baseline rows).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

# Standalone convenience: make `repro` importable without PYTHONPATH.
_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

FULL_SIZES = (10_000, 100_000, 1_000_000)
QUICK_SIZES = (10_000,)


def main(argv: list[str] | None = None) -> int:
    from repro.bench import gate
    from repro.bench.report import format_table
    from repro.bench.scale import (WORKLOADS, run_engine_microbench,
                                   run_scale, run_scale_once)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes only (10k CEs)")
    parser.add_argument("--sizes", type=str, default=None,
                        help="comma-separated CE counts "
                             "(default 10000,100000,1000000)")
    parser.add_argument("--workloads", type=str, default=None,
                        help=f"comma-separated subset of "
                             f"{','.join(sorted(WORKLOADS))}")
    parser.add_argument("--shards", type=int, default=None,
                        help="run the workers in N shard processes "
                             "(conservative-window parallel simulation)")
    parser.add_argument("--shard-window", type=float, default=None,
                        help="exchange-window width in simulated seconds")
    parser.add_argument("--repeats", type=int, default=1,
                        help="measure each pair N times, record the "
                             "median-events/sec run (default 1)")
    parser.add_argument("--no-isolate", action="store_true",
                        help="run in-process instead of forking per run")
    parser.add_argument("--profile", type=int, default=None, metavar="N",
                        help="cProfile each (workload, size) pair "
                             "in-process and print its top-N functions "
                             "by tottime")
    parser.add_argument("--no-engine", action="store_true",
                        help="skip the engine-only timeout-churn "
                             "microbenchmark row")
    gate.add_cli_args(parser)
    args = parser.parse_args(argv)

    if args.sizes:
        sizes = tuple(int(s.replace("_", "")) for s in
                      args.sizes.split(","))
    else:
        sizes = QUICK_SIZES if args.quick else FULL_SIZES
    workloads = (tuple(args.workloads.split(","))
                 if args.workloads else None)

    results = run_scale(sizes, workloads, isolate=not args.no_isolate,
                        shards=args.shards,
                        shard_window=args.shard_window,
                        repeats=args.repeats, log=print)
    if not args.no_engine:
        print("running engine timeout-churn microbenchmark ...")
        engine_row = run_engine_microbench()
        results.append(engine_row)
        print(f"  {engine_row.wall_seconds:8.2f}s wall   "
              f"{engine_row.events_per_sec:12,.0f} events/s")
    if args.profile is not None:
        for ces in sizes:
            for name in (workloads or tuple(sorted(WORKLOADS))):
                print()
                print(gate.profile_top(
                    lambda: run_scale_once(
                        name, ces, shards=args.shards,
                        shard_window=args.shard_window),
                    args.profile, title=f"cProfile {name}@{ces}"))

    rows = [(r.workload, f"{r.ces:,}", str(r.shards or "-"),
             f"{r.wall_seconds:.2f}",
             f"{r.ces_per_sec:,.0f}", f"{r.events_per_sec:,.0f}",
             f"{r.peak_rss_mib:.1f}") for r in results]
    print()
    print(format_table(
        ["workload", "CEs", "shards", "wall (s)", "CEs/s", "events/s",
         "peak RSS (MiB)"], rows, title="Scheduling scale"))
    return gate.finish(args, [r.row() for r in results])


if __name__ == "__main__":
    raise SystemExit(main())
