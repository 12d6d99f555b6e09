#!/usr/bin/env python
"""Paging-backend comparison CLI — cpu-pme vs gpuvm slowdown curves.

Sweeps (workload × footprint × backend) on the single-node runtime and
prints per-(workload, backend) slowdown curves.  Its ``backends`` row in
the ``grout-bench/1`` record is the worst elapsed ratio over the
irregular workloads, floored at 2x: under ``--check`` the backends must
disagree that much on at least one irregular workload, or the two cost
models have collapsed into one.

Usage (see docs/WORKLOADS.md and docs/MODEL.md §9)::

    PYTHONPATH=src python benchmarks/bench_backends.py             # full sweep
    PYTHONPATH=src python benchmarks/bench_backends.py --quick
    PYTHONPATH=src python benchmarks/bench_backends.py --quick \\
        --check BENCH_baseline.json                                # CI gate
"""

from __future__ import annotations

import argparse
import pathlib
import sys

# Standalone convenience: make `repro` importable without PYTHONPATH.
_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def main(argv: list[str] | None = None) -> int:
    from repro.bench import gate
    from repro.bench.backends import (
        DEFAULT_SIZES_GB,
        DEFAULT_WORKLOADS,
        QUICK_SIZES_GB,
        divergence,
        gate_rows,
        run_backends,
    )
    from repro.bench.report import format_table
    from repro.uvm import PAGING_BACKENDS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="trimmed footprint sweep (16, 64 GB)")
    parser.add_argument("--sizes", type=str, default=None,
                        help="comma-separated GiB footprints "
                             f"(default {DEFAULT_SIZES_GB})")
    parser.add_argument("--workloads", type=str, default=None,
                        help="comma-separated subset "
                             f"(default {','.join(DEFAULT_WORKLOADS)})")
    parser.add_argument("--backends", type=str, default=None,
                        help="comma-separated subset of "
                             f"{','.join(sorted(PAGING_BACKENDS))}")
    parser.add_argument("--repeats", type=int, default=1,
                        help="repetitions averaged per configuration")
    parser.add_argument("--verify", action="store_true",
                        help="also run the numerical checks")
    gate.add_cli_args(parser)
    args = parser.parse_args(argv)

    if args.sizes:
        sizes = tuple(float(s) for s in args.sizes.split(","))
    else:
        sizes = QUICK_SIZES_GB if args.quick else DEFAULT_SIZES_GB
    workloads = (tuple(args.workloads.split(","))
                 if args.workloads else DEFAULT_WORKLOADS)
    backends = (tuple(args.backends.split(","))
                if args.backends else None)

    results = run_backends(workloads, sizes, backends,
                           repeats=args.repeats, check=args.verify,
                           log=print)

    rows = [(r["workload"], r["backend"], f"{r['gb']:g}",
             f"{r['elapsed_seconds']:.4g}", f"{r['slowdown']:.4g}",
             "yes" if r["completed"] else "NO")
            for r in results]
    print()
    print(format_table(
        ["workload", "backend", "GB", "elapsed (s)", "slowdown",
         "completed"], rows, title="Paging backends"))

    worst = divergence(results)
    if worst:
        print()
        print(format_table(
            ["workload", "worst cpu-pme vs gpuvm ratio"],
            [(w, f"{r:.4g}x") for w, r in sorted(worst.items())],
            title="Backend divergence"))
    return gate.finish(args, gate_rows(results, sizes))


if __name__ == "__main__":
    raise SystemExit(main())
