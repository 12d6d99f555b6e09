"""One measurement child of the benchmark; ``run.py`` starts it.

``--setup-probe`` imports the program, builds the workload's runtime
and prints ``ready``: the parent times that as set-up.  Otherwise the
child runs passes of one workload until ``--seconds`` have elapsed and
prints one JSON line with its results; host times are adjusted per pass
by ``hostspeed.HostSpeed`` (raw values come alongside).  With
``--trace`` it spends the first half of its time on passes without the
layer wrappers and the second half with them installed, so the tracing
overhead is measured within the run.

Run from the repository root with ``PYTHONHASHSEED=0`` and
``PYTHONPATH=src`` (``run.py`` sets both).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import serve_mix  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import LAYER_NAMES, LayerTracer  # noqa: E402

#: Layers every workload enters; only these report times per layer
#: (``self_s``, ``us_per_call``), so no reported time is zero by
#: construction.  Every layer reports ``share`` and ``calls``.
TIMED_LAYERS = ("sim.engine", "core.controller", "core.pipeline.admission",
                "core.pipeline.placement", "core.pipeline.movement",
                "core.pipeline.coherence", "core.pipeline.dispatch",
                "core.policies", "core.dag.add", "core.dag.prune",
                "core.intranode", "uvm.price", "gc")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.share"] = "fraction"
        if layer != "other":
            units[f"{layer}.calls"] = "count"
        if layer in TIMED_LAYERS or layer == "other":
            units[f"{layer}.self_s"] = "s"
        if layer in TIMED_LAYERS:
            units[f"{layer}.us_per_call"] = "us"
    units.update({
        "sim.engine.events": "count",
        "sim.engine.events_per_ce": "ratio",
        "core.decision.us_p50": "us",
        "core.decision.us_p99": "us",
        "net.fabric.transfers": "count",
        "net.fabric.retries": "count",
        "net.fabric.bytes": "bytes",
        "uvm.cold_bytes": "bytes",
        "uvm.writeback_bytes": "bytes",
        "uvm.thrashing_launches": "count",
        "uvm.refault_bytes": "bytes",
        "core.plancache.hits": "count",
        "core.plancache.misses": "count",
        "core.plancache.cost_replays": "count",
        "core.plancache.invalidations": "count",
        "core.plancache.hit_ratio": "ratio",
        "uvm.replay.hit_ratio": "ratio",
        "paper.capped_runs": "count",
        "paper.speedup_3x": "x",
        "paper.err_log2": "log2",
        "sim.digest_match": "bool",
        "trace.overhead": "fraction",
    })
    return units


def digest(sim: dict) -> str:
    """SHA-256 over the simulated outputs (exact float reprs)."""
    blob = json.dumps(sim, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, 100 cuts)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


# -- set-up probe -------------------------------------------------------------

def setup_probe(workload: str) -> None:
    """Import the program and build the workload's runtime."""
    if workload == "paper-fig7":
        import repro.core.config  # noqa: F401
        import repro.workloads  # noqa: F401
    else:
        workloads.scale_config(workload).build_runtime().shutdown()
    print("ready", flush=True)


# -- in-process workloads -----------------------------------------------------

def _passes(run_pass, budget: float, tracer=None) -> list[dict]:
    """Passes until ``budget`` seconds have elapsed (at least one)."""
    out = []
    speed = HostSpeed()
    start = perf_counter()
    while not out or perf_counter() - start < budget:
        out.append(run_pass(speed, tracer))
    return out


def measure_inprocess(workload: str, seed: int, seconds: float,
                      trace: bool, quick: bool,
                      trace_out: str | None) -> dict:
    if workload == "paper-fig7":
        def run_pass(speed, tracer):
            return workloads.fig7_pass(seed, quick, speed, tracer)
    else:
        def run_pass(speed, tracer):
            return workloads.scale_pass(workload, seed, quick, speed,
                                        tracer)
    budget = seconds / 2 if trace else seconds
    passes = _passes(run_pass, budget)
    result = _summarise(passes)
    result["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if not trace:
        return result
    tracer = LayerTracer(record_spans=trace_out is not None)
    tracer.install()
    try:
        traced = _passes(run_pass, budget, tracer)
    finally:
        tracer.uninstall()
    if trace_out:
        tracer.write_chrome_trace(trace_out)
    last = passes[-1]
    wall = sum(p["wall_s"] for p in traced)
    layers = tracer.breakdown(wall)
    result["correct"] &= all(p["failed"] == 0 for p in traced) and all(
        digest(p["sim"]) == result["sim_digest"] for p in traced)
    result["layers"] = _layer_metrics(
        layers, events=last["events"], ces=last["ops"],
        counts=last["counts"], decision=last["decision"],
        replay=(layers["uvm.replay"]["calls"], tracer.replay_fallbacks),
        overhead=_per_op(traced) / _per_op(passes) - 1)
    if workload == "paper-fig7":
        result["layers"].update({
            "paper.capped_runs": last["capped"],
            "paper.speedup_3x": last["paper"]["speedup_3x"],
            "paper.err_log2": last["paper"]["err_log2"]})
    result["trace_wall_s"] = wall
    return result


def _per_op(passes: list[dict]) -> float:
    """Median host-speed adjusted seconds per operation."""
    return statistics.median(p["adj_wall_s"] / p["ops"] for p in passes)


def _summarise(passes: list[dict]) -> dict:
    """``latency_p50_ms`` is the median over passes of a pass's mean
    request time: the program itself, or one paper-fig7 run.  The
    eighteen paper runs take from tens of milliseconds to seconds, so a
    median over the runs themselves would jump between neighbouring
    run kinds from one run of the benchmark to the next."""
    sims = [digest(p["sim"]) for p in passes]
    failed = sum(p["failed"] for p in passes)
    out = {
        "passes": len(passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "correct": failed == 0 and len(set(sims)) == 1,
        "ops_per_s": 1 / _per_op(passes),
        "latency_p50_ms": statistics.median(
            statistics.mean(p["adj_latencies_s"]) for p in passes) * 1e3,
        "raw_ops_per_s": statistics.median(p["ops"] / p["wall_s"]
                                           for p in passes),
        "sim_digest": sims[0],
        "sim": passes[0]["sim"],
        "pass_walls_s": [p["wall_s"] for p in passes],
    }
    if "paper" in passes[0]:
        out["paper"] = passes[0]["paper"]
        out["capped_runs"] = passes[0]["capped"]
    return out


# -- serve-mix ----------------------------------------------------------------

def measure_serve(seed: int, seconds: float, trace: bool,
                  trace_out: str | None) -> dict:
    env = dict(os.environ)
    budget = seconds / 2 if trace else seconds
    timed = serve_mix.serve_pass(ROOT, env, seed, budget, traced=False)
    # How the daemon interleaves the tenants follows host timing, so
    # only the hot program's structure is deterministic.
    sim = {"hot_ces": timed["hot_ces"]}
    tenants = timed["tenants"]
    result = {
        "passes": 1,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "correct": timed["failed"] == 0 and all(tenants.values()),
        "ops_per_s": timed["ops_per_s"],
        "latency_p50_ms": timed["latency_p50_ms"],
        "raw_ops_per_s": timed["raw_ops_per_s"],
        "windows": timed["windows"],
        "peak_rss_mib": timed["peak_rss_mib"],
        "sim_digest": digest(sim),
        "sim": sim,
        "tenants": {name: {"count": len(lat),
                           "p50_ms": percentile(lat, 50) * 1e3,
                           "p90_ms": percentile(lat, 90) * 1e3}
                    for name, lat in tenants.items()},
    }
    if not trace:
        return result
    traced = serve_mix.serve_pass(ROOT, env, seed, budget, traced=True,
                                  trace_out=trace_out)
    report = traced["trace"]
    m = timed["metrics"]
    counts = {name: m.get(family, 0.0)
              for name, family in workloads.COUNTERS.items()}
    result["correct"] &= traced["failed"] == 0
    result["layers"] = _layer_metrics(
        report["layers"], events=report["events"], ces=traced["ces"],
        counts=counts,
        decision={"us_p50": m["grout_decision_seconds{quantile=0.5}"] * 1e6,
                  "us_p99": m["grout_decision_seconds{quantile=0.99}"]
                  * 1e6},
        replay=(report["layers"]["uvm.replay"]["calls"],
                report["replay_fallbacks"]),
        # Two daemons back to back: raw rates compare better than rates
        # scaled by two-sample factors.
        overhead=timed["raw_ops_per_s"] / traced["raw_ops_per_s"] - 1)
    result["trace_wall_s"] = report["wall_s"]
    return result


# -- per-layer report ---------------------------------------------------------

def _layer_metrics(layers: dict, *, events: float, ces: float,
                   counts: dict, decision: dict, replay: tuple,
                   overhead: float) -> dict:
    units = per_layer_units()
    out = {}
    for layer, row in layers.items():
        for field in ("share", "calls", "self_s", "us_per_call"):
            name = f"{layer}.{field}"
            if name in units:
                out[name] = row[field]
    hits = counts["core.plancache.hits"]
    lookups = hits + counts["core.plancache.misses"]
    calls, fallbacks = replay
    out.update(counts)
    out.update({
        "sim.engine.events": events,
        "sim.engine.events_per_ce": events / ces if ces else 0.0,
        "core.decision.us_p50": decision["us_p50"],
        "core.decision.us_p99": decision["us_p99"],
        "core.plancache.hit_ratio": hits / lookups if lookups else 0.0,
        "uvm.replay.hit_ratio": (calls - fallbacks) / calls if calls
        else 0.0,
        "paper.capped_runs": 0,
        "paper.speedup_3x": 0.0,
        "paper.err_log2": 0.0,
        "trace.overhead": overhead,
    })
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.workload == "serve-mix":
        result = measure_serve(args.seed, args.seconds, args.trace,
                               args.trace_out)
    else:
        result = measure_inprocess(args.workload, args.seed, args.seconds,
                                   args.trace, args.quick, args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
