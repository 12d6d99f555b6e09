#!/usr/bin/env python
"""Serving-layer load story: open-loop arrivals on one shared runtime.

Two experiments against :class:`repro.serve.GroutService` (the core the
``grout serve`` daemon wraps), both in *simulated* time:

* **Burst** — 220 sessions submitted back to back before any simulated
  time advances, proving the persistent runtime sustains hundreds of
  concurrent sessions (``peak_inflight``) and reporting the latency
  spread of the drained burst.
* **Rate sweep** — open-loop Poisson arrivals at increasing offered
  load (arrival rate x service time).  Latency percentiles stay flat
  while the cluster keeps up and blow past the knee once the queue
  grows without bound; the first rate whose median latency exceeds
  ``SATURATION_FACTOR`` x the idle service time is the saturation
  point.
* **Repeated hot tenant** — one tenant resubmits the *same*
  oversubscribed program back to back on a reference service (no plan
  cache, every launch priced live) and on the default build with
  ``RuntimeConfig(plan_cache=True)`` (schedule replay plus the UVM
  pricing memo).  This cell is wall-clock: the two fast paths together
  must deliver at least ``SPEEDUP_FLOOR``x session throughput on the
  hot tenant, with reference/on trials interleaved and medians reported
  so machine noise cannot fake (or hide) the win.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py --quick
    PYTHONPATH=src python benchmarks/bench_serve.py --out serve.json
    PYTHONPATH=src python benchmarks/bench_serve.py --quick \\
        --check BENCH_baseline.json                        # CI gate
    PYTHONPATH=src python benchmarks/bench_serve.py --profile 25

Emits ``serve`` rows of the ``grout-bench/1`` record
(``src/repro/bench/gate.py``): the idle service time, the burst's
makespan and ``peak_inflight`` (floor 200), each rate cell's p50 and
the hot tenant's speedup (floor ``SPEEDUP_FLOOR``).  ``--check`` exits
non-zero when a cell the baseline also holds regressed by more than 2x
or a row fell under its floor.  Every row is a simulated quantity, a
count or a throughput *ratio*, never absolute wall-clock, so the gate
is machine-height independent.  Also collectable by pytest
(``pytest benchmarks/bench_serve.py``).
"""

from __future__ import annotations

import argparse
import itertools
import os
import pathlib
import sys
import time

# Standalone convenience: make `repro` importable without PYTHONPATH.
_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.bench import gate
from repro.core.config import RuntimeConfig
from repro.gpu.specs import MIB
from repro.serve import GroutService, WorkloadSpec

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))

WORKLOAD = "mv"
FOOTPRINT = 16 * MIB        # tiny per-session footprint: load, not paging
N_CHUNKS = 2
BURST_SESSIONS = 220        # the ">= 200 concurrent sessions" headline
PEAK_INFLIGHT_FLOOR = 200
N_TENANTS = 8
SATURATION_FACTOR = 2.0     # p50 > 2x idle service time = saturated

#: Offered loads (arrival rate x idle service time) for the sweep.
LOADS_QUICK = (0.25, 1.0, 4.0)
LOADS_FULL = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
REQUESTS_QUICK = 30
REQUESTS_FULL = 100

#: The repeated hot-tenant cell: one oversubscribed program (the
#: footprint exceeds device memory, so live pricing pays the full
#: frontier-scan + page-set arithmetic every launch) resubmitted
#: back to back under one plan key.
HOT_FOOTPRINT = 1024 * MIB
HOT_CHUNKS = 4
REPEAT_SESSIONS_QUICK = 12
REPEAT_SESSIONS_FULL = 30
REPEAT_TRIALS_QUICK = 3
REPEAT_TRIALS_FULL = 5
SPEEDUP_FLOOR = 2.0         # cache-on must at least double the reference


def _service() -> GroutService:
    return GroutService(RuntimeConfig(policy="round-robin"),
                        tenant_quota=64, max_sessions=1024)


def _spec(i: int) -> WorkloadSpec:
    return WorkloadSpec(workload=WORKLOAD, footprint_bytes=FOOTPRINT,
                        n_chunks=N_CHUNKS, seed=11 + i,
                        tenant=f"tenant{i % N_TENANTS}", check=False)


def _advance_to(engine, t: float) -> None:
    """Park the simulated clock exactly at ``t`` (an arrival instant)."""
    if t <= engine.now:
        return
    engine.run(until=engine.timeout(t - engine.now, name="arrival"))


def _percentiles(latencies: list[float]) -> dict:
    arr = np.asarray(latencies)
    return {"p50": float(np.percentile(arr, 50)),
            "p99": float(np.percentile(arr, 99)),
            "mean": float(arr.mean()),
            "max": float(arr.max())}


def idle_service_seconds() -> float:
    """Latency of one submission on an otherwise idle runtime."""
    with _service() as service:
        report = service.settle(service.submit(_spec(0)))
    return report["latency_seconds"]


def run_burst(n_sessions: int = BURST_SESSIONS) -> dict:
    """Submit ``n_sessions`` before any simulated time passes, then drain."""
    with _service() as service:
        tickets = [service.submit(_spec(i)) for i in range(n_sessions)]
        peak = service.peak_inflight
        reports = [service.settle(t) for t in tickets]
        makespan = service.runtime.engine.now
    latencies = [r["latency_seconds"] for r in reports]
    return {"sessions": n_sessions,
            "peak_inflight": peak,
            "completed": sum(r["completed"] for r in reports),
            "makespan_seconds": makespan,
            "latency": _percentiles(latencies)}


def run_open_loop(rate: float, n_requests: int, seed: int = 7) -> dict:
    """Poisson arrivals at ``rate``/simulated-second; open loop (arrivals
    never wait for earlier submissions), drained at the end."""
    rng = np.random.default_rng(seed)
    with _service() as service:
        engine = service.runtime.engine
        t = engine.now
        tickets = []
        for i, gap in enumerate(rng.exponential(1.0 / rate, n_requests)):
            t += gap
            _advance_to(engine, t)
            tickets.append(service.submit(_spec(i)))
        reports = [service.settle(tk) for tk in tickets]
    latencies = [r["latency_seconds"] for r in reports]
    return {"rate_per_second": rate,
            "requests": n_requests,
            "completed": sum(r["completed"] for r in reports),
            "latency": _percentiles(latencies)}


def _hot_service(plan_cache: bool) -> GroutService:
    """The on side (``plan_cache=True``, default pricing) or the
    reference side: no plan cache and every worker's kernel pricing
    pointed at the live pricer, around the pricing memo."""
    service = GroutService(
        RuntimeConfig(policy="round-robin", plan_cache=plan_cache),
        tenant_quota=64, max_sessions=1024)
    if not plan_cache:
        for scheduler in service.runtime.controller.workers.values():
            uvm = scheduler.node.uvm
            uvm.price_kernel = uvm._price_live
    return service


def _hot_spec(session: str) -> WorkloadSpec:
    """The hot tenant's program: identical spec (seed included) every
    resubmission — exactly the repeated-program case the plan cache
    memoizes."""
    return WorkloadSpec(workload=WORKLOAD, footprint_bytes=HOT_FOOTPRINT,
                        n_chunks=HOT_CHUNKS, seed=11, tenant="hot",
                        check=False, session=session)


def _time_hot_sessions(service: GroutService, n_sessions: int,
                       names: "itertools.count") -> float:
    """Wall-clock seconds to submit+settle ``n_sessions`` sequentially."""
    start = time.perf_counter()
    for _ in range(n_sessions):
        service.settle(service.submit(_hot_spec(f"hot{next(names)}")))
    return time.perf_counter() - start


def run_repeated(n_sessions: int, trials: int) -> dict:
    """The hot-tenant cell: reference vs cache-on session throughput.

    The ``off`` fields are the reference side (no plan cache, live
    pricing); ``on`` is the default build with the plan cache.  One
    persistent service per side; each runs one warm-up session (the
    cache-on service records its plan and fills its pricing memo
    there), then ``trials`` timed batches of ``n_sessions``, interleaved
    so drift in machine load hits both sides equally.  Throughput is
    computed from the *median* batch wall time.
    """
    names = itertools.count()
    with _hot_service(False) as off_service, \
            _hot_service(True) as on_service:
        _time_hot_sessions(off_service, 1, names)
        _time_hot_sessions(on_service, 1, names)
        off_walls, on_walls = [], []
        for _ in range(trials):
            off_walls.append(
                _time_hot_sessions(off_service, n_sessions, names))
            on_walls.append(
                _time_hot_sessions(on_service, n_sessions, names))
        metrics = on_service.runtime.metrics
        hits = metrics.family("grout_plancache_hits_total").labels().value
        misses = metrics.family(
            "grout_plancache_misses_total").labels().value
        memo_hits = metrics.family(
            "grout_uvm_memo_hits_total").value_sum()
    off_med = float(np.median(off_walls))
    on_med = float(np.median(on_walls))
    return {
        "workload": WORKLOAD,
        "footprint_bytes": HOT_FOOTPRINT,
        "n_chunks": HOT_CHUNKS,
        "sessions": n_sessions,
        "trials": trials,
        "off_wall_seconds": round(off_med, 4),
        "on_wall_seconds": round(on_med, 4),
        "off_sessions_per_sec": round(n_sessions / off_med, 2),
        "on_sessions_per_sec": round(n_sessions / on_med, 2),
        "speedup": round(off_med / on_med, 3),
        "plancache": {"hits": hits, "misses": misses,
                      "memo_hits": memo_hits},
    }


def run_suite(quick: bool = QUICK, *,
              burst_sessions: int = BURST_SESSIONS) -> list[dict]:
    """The full load story as ``serve`` gate rows, one line printed per
    cell."""
    def row(cell, metric, value, better, floor=None):
        return gate.row("serve", cell, metric, value, better, floor)

    service_time = idle_service_seconds()
    print(f"idle: {service_time:.4g}s service time (simulated)")
    rows = [row("idle", "service_seconds", service_time, "lower")]

    n_requests = REQUESTS_QUICK if quick else REQUESTS_FULL
    for load in LOADS_QUICK if quick else LOADS_FULL:
        latency = run_open_loop(load / service_time, n_requests)["latency"]
        cell = f"rate@{load}x{n_requests}"
        saturated = latency["p50"] > SATURATION_FACTOR * service_time
        print(f"{cell}: p50 {latency['p50']:.4g}s, p99 "
              f"{latency['p99']:.4g}s (simulated)"
              + (", saturated" if saturated else ""))
        rows.append(row(cell, "p50_seconds", latency["p50"], "lower"))

    burst = run_burst(burst_sessions)
    cell = f"burst@{burst_sessions}"
    print(f"{cell}: {burst['peak_inflight']} concurrent sessions, makespan "
          f"{burst['makespan_seconds']:.4g}s, p50 "
          f"{burst['latency']['p50']:.4g}s, p99 "
          f"{burst['latency']['p99']:.4g}s (simulated)")
    rows += [row(cell, "makespan_seconds", burst["makespan_seconds"],
                 "lower"),
             row(cell, "peak_inflight", burst["peak_inflight"], "higher",
                 PEAK_INFLIGHT_FLOOR)]

    n = REPEAT_SESSIONS_QUICK if quick else REPEAT_SESSIONS_FULL
    trials = REPEAT_TRIALS_QUICK if quick else REPEAT_TRIALS_FULL
    repeated = run_repeated(n, trials)
    cell = f"repeated@{n}x{trials}"
    print(f"{cell}: hot tenant {repeated['speedup']:g}x with the plan "
          f"cache ({repeated['off_sessions_per_sec']:g} -> "
          f"{repeated['on_sessions_per_sec']:g} sessions/s, "
          f"{repeated['plancache']['memo_hits']:g} memo hits)")
    rows.append(row(cell, "speedup", repeated["speedup"], "higher",
                    SPEEDUP_FLOOR))
    return rows


# -- pytest entry points ----------------------------------------------------


def test_burst_sustains_200_concurrent_sessions():
    burst = run_burst()
    assert burst["peak_inflight"] >= 200, burst
    assert burst["completed"] == burst["sessions"]
    # Every latency is positive simulated time and the drain terminated.
    assert burst["latency"]["p99"] > 0
    assert burst["makespan_seconds"] > 0


def test_open_loop_latency_grows_past_saturation():
    service_time = idle_service_seconds()
    n = 20 if QUICK else 40
    light = run_open_loop(0.25 / service_time, n)
    heavy = run_open_loop(4.0 / service_time, n)
    assert light["completed"] == heavy["completed"] == n
    # Under-saturation arrivals mostly see an idle cluster; 4x offered
    # load is open-loop overload, so the queue (and p50) must grow.
    assert heavy["latency"]["p50"] > light["latency"]["p50"]
    assert heavy["latency"]["p99"] > SATURATION_FACTOR * service_time


def test_repeated_hot_tenant_speeds_up_with_the_plan_cache():
    cell = run_repeated(REPEAT_SESSIONS_QUICK, REPEAT_TRIALS_QUICK)
    # Every repeat after the warm-up hit the cache, and the kernel
    # launches were served by the pricing memo.
    assert cell["plancache"]["misses"] == 1
    assert cell["plancache"]["hits"] >= REPEAT_SESSIONS_QUICK
    assert cell["plancache"]["memo_hits"] > 0
    # The CLI gate enforces SPEEDUP_FLOOR against interleaved medians;
    # under pytest (possibly parallel, loaded machines) assert a
    # looser floor so scheduler noise cannot flake the suite.
    assert cell["speedup"] > 1.5, cell


# -- CLI --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="trimmed sweep (CI smoke)")
    parser.add_argument("--burst", type=int, default=BURST_SESSIONS,
                        metavar="N",
                        help=f"burst size (default {BURST_SESSIONS})")
    parser.add_argument("--profile", type=int, default=None, metavar="N",
                        help="print the cProfile top-N of the repeated "
                             "hot-tenant cell")
    gate.add_cli_args(parser)
    args = parser.parse_args(argv)

    quick = args.quick or QUICK
    rows = run_suite(quick, burst_sessions=args.burst)
    if args.profile is not None:
        n = REPEAT_SESSIONS_QUICK if quick else REPEAT_SESSIONS_FULL
        print()
        print(gate.profile_top(lambda: run_repeated(n, trials=1),
                               args.profile,
                               title=f"cProfile repeated@{n}x1"))
    return gate.finish(args, rows)


if __name__ == "__main__":
    sys.exit(main())
