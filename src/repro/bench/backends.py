"""Paging-backend comparison harness (the GrOUT-vs-paging-design axis).

Sweeps (workload × footprint × paging backend) on the single-node
baseline runtime — oversubscription cliffs are a single-node phenomenon;
the backend decides how hard they bite — and reports per-(workload,
backend) slowdown curves.

The point of the exercise: the CPU-driven PME and a GPUVM-style
GPU-driven design *disagree* about which workloads hurt.  Streaming
loses its prefetcher runway under GPU-driven paging; random access
stops collapsing.  :func:`gate_rows` turns that disagreement into a
``backends`` row of the ``grout-bench/1`` record (:mod:`repro.bench.gate`)
with a floor: at least one irregular workload must separate the backends
by :data:`DIVERGENCE_FLOOR`, or the backends have degenerated into one
model.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.bench import gate
from repro.bench.harness import RUN_CAP_SECONDS, run_single_node
from repro.gpu.specs import GIB
from repro.uvm.backends import PAGING_BACKENDS

#: Default sweep: fits (0.5× OSF) through the paper's first two cliffs.
DEFAULT_SIZES_GB: tuple[float, ...] = (16.0, 32.0, 64.0, 96.0)

#: Trimmed sweep for CI smoke runs.
QUICK_SIZES_GB: tuple[float, ...] = (16.0, 64.0)

#: Default workload set: one regular streamer as the control, plus the
#: irregular suite the backends disagree about.
DEFAULT_WORKLOADS: tuple[str, ...] = ("mv", "spmv", "bfs", "join")

#: The workloads whose access patterns are data-dependent — the ones
#: :func:`gate_rows` inspects.
IRREGULAR_WORKLOADS: frozenset[str] = frozenset({"spmv", "bfs", "join"})

#: The worst cpu-pme-vs-gpuvm elapsed ratio some irregular workload
#: must reach.
DIVERGENCE_FLOOR = 2.0


def run_backends(workloads: Sequence[str] = DEFAULT_WORKLOADS,
                 sizes_gb: Sequence[float] = DEFAULT_SIZES_GB,
                 backends: Sequence[str] | None = None, *,
                 cap: float | None = RUN_CAP_SECONDS,
                 repeats: int = 1,
                 check: bool = False,
                 log: Callable[[str], None] | None = None) -> list[dict]:
    """Run the sweep; one result dict per configuration, in sweep order.

    Each result records the simulated elapsed time plus its
    *slowdown* — elapsed over the same (workload, backend) pair's
    smallest-footprint elapsed, the paper's Fig. 6 y-axis.
    """
    backends = tuple(backends) if backends else tuple(sorted(PAGING_BACKENDS))
    results: list[dict] = []
    for workload in workloads:
        for backend in backends:
            base: float | None = None
            for gb in sizes_gb:
                res = run_single_node(
                    workload, int(gb * GIB), cap=cap, check=check,
                    repeats=repeats, uvm_backend=backend)
                if base is None:
                    base = res.elapsed_seconds or 1e-12
                row = {
                    "workload": workload,
                    "backend": backend,
                    "gb": gb,
                    "elapsed_seconds": res.elapsed_seconds,
                    "slowdown": res.elapsed_seconds / base,
                    "completed": res.completed,
                    "oversubscription": res.oversubscription,
                }
                results.append(row)
                if log is not None:
                    log(f"  {workload:>5s} {backend:>8s} {gb:6.4g} GB  "
                        f"{res.elapsed_seconds:10.4g} s  "
                        f"x{row['slowdown']:.4g}")
    return results


def divergence(results: list[dict],
               baseline: str = "cpu-pme",
               other: str = "gpuvm") -> dict[str, float]:
    """Per-workload worst-case elapsed ratio between two backends.

    The ratio is symmetric (always >= 1): 4.0 means one backend ran the
    same configuration four times longer than the other, whichever way
    around.
    """
    elapsed: dict[tuple[str, str, float], float] = {
        (r["workload"], r["backend"], r["gb"]): r["elapsed_seconds"]
        for r in results}
    worst: dict[str, float] = {}
    for (workload, backend, gb), seconds in elapsed.items():
        if backend != baseline:
            continue
        peer = elapsed.get((workload, other, gb))
        if peer is None or seconds <= 0 or peer <= 0:
            continue
        ratio = max(seconds / peer, peer / seconds)
        worst[workload] = max(worst.get(workload, 1.0), ratio)
    return worst


def gate_rows(results: list[dict],
              sizes_gb: Sequence[float]) -> list[dict]:
    """The sweep's gate row: the worst ratio over the irregular
    workloads, floored at :data:`DIVERGENCE_FLOOR`, in the
    ``irregular@<sizes>`` cell (none without an irregular workload)."""
    worst = [r for w, r in divergence(results).items()
             if w in IRREGULAR_WORKLOADS]
    if not worst:
        return []
    cell = "irregular@" + ",".join(f"{gb:g}" for gb in sizes_gb)
    return [gate.row("backends", cell, "divergence", max(worst), "higher",
                     floor=DIVERGENCE_FLOOR)]
