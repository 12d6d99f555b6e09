"""The repository's performance benchmark: one command, five workloads.

One run of one workload (what ``BENCHMARK.json``'s ``command`` starts)::

    python3 benchmarks/perf/run.py --workload iterative --seed 3 \\
        --seconds 12 --trace 0

times the set-up (five fresh processes, median), measures
the workload for ``--seconds`` in a fresh child with
``PYTHONHASHSEED=0``, checks its outputs and prints, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` names.  End-to-end host times
are scaled to a nominal host speed (``hostspeed.py``); the ``detail``
line before the result carries the raw values too.

A whole set, interleaving the workloads repeat by repeat, then one
traced run per workload::

    python3 benchmarks/perf/run.py [--repeats 3] [--seed 0] \\
        [--workloads iterative,wide] [--quick] [--no-trace] [--out FILE]

prints the median and quartiles of every end-to-end metric per
workload and writes every run to ``--out`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import serve_mix  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCHEMA = "grout-perfbench/1"
SETUP_PROBES = 5
QUICK_SECONDS = 3
#: A measurement child runs ``--seconds`` plus at most one pass (a
#: paper-fig7 pass is the longest, ~9 s); past this it is stuck.
CHILD_SLACK_S = 120


class BenchError(RuntimeError):
    """A child failed or the program is missing: no result is printed."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_baseline() -> dict:
    with open(os.path.join(HERE, "baseline.json")) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def pin_to_one_cpu() -> None:
    """Keep this process and every child on one CPU, so a host-speed
    sample (``hostspeed.py``) times the CPU the workload runs on — the
    serve daemon included, which the client then shares."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# -- set-up -------------------------------------------------------------------

def setup_once(workload: str, env: dict) -> float:
    """Seconds from spawning a fresh process to a ready runtime (for
    serve-mix: to the daemon's ``listening on`` line)."""
    start = perf_counter()
    if workload == "serve-mix":
        proc = serve_mix.spawn_daemon(ROOT, env, traced=False)
        host = port = None
        try:
            host, port = serve_mix.wait_ready(proc)
            elapsed = perf_counter() - start
        except RuntimeError as exc:
            raise BenchError(f"serve daemon did not start: {exc}") from None
        finally:
            serve_mix.stop_daemon(proc, host, port)
        return elapsed
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
         workload, "--setup-probe"], cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        _out, err = proc.communicate(timeout=CHILD_SLACK_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("set-up probe timed out") from None
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe failed:\n{err.strip()}")
    return elapsed


# -- one run ------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, env: dict, *,
            trace: bool, quick: bool, trace_out: str | None) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if trace:
        argv.append("--trace")
    if quick:
        argv.append("--quick")
    if trace_out:
        argv += ["--trace-out", os.path.abspath(trace_out)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, text=True,
                              capture_output=True,
                              timeout=seconds + CHILD_SLACK_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: measurement timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: measurement failed:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: float, *, trace: bool,
            quick: bool = False, trace_out: str | None = None,
            probes: int = SETUP_PROBES) -> dict:
    """One run: set-up probes (untraced runs only), then the child.

    Returns the result record: ``correct``/``attempted``/``failed``,
    the ``metrics`` of the requested kind, and ``detail``.
    """
    spec = load_spec()
    env = child_env()
    pin_to_one_cpu()
    # Discarded warm-up: fills the disk cache and byte-code so set-up
    # times the steady state; it also fails fast on a missing program.
    setup_once(workload, env)
    setup, raw_setup = [], []
    if not trace:
        speed = HostSpeed()
        for _ in range(probes):
            raw_setup.append(setup_once(workload, env))
            setup.append(raw_setup[-1] * speed.factor())
    raw = measure(workload, seed, seconds, env, trace=trace, quick=quick,
                  trace_out=trace_out)
    expected = load_baseline()["digests"].get(workload, {}).get(
        "quick" if quick else "full")
    if trace:
        values = dict(raw["layers"])
        values["sim.digest_match"] = int(raw["sim_digest"] == expected)
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup),
                  "ops_per_s": raw["ops_per_s"],
                  "latency_p50_ms": raw["latency_p50_ms"],
                  "peak_rss_mib": raw["peak_rss_mib"]}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    detail = {k: v for k, v in raw.items() if k != "layers"}
    detail.update(workload=workload, seed=seed, seconds=seconds,
                  quick=quick, setup_samples_s=setup,
                  raw_setup_samples_s=raw_setup,
                  digest_match=raw["sim_digest"] == expected)
    return {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
        "detail": detail,
    }


# -- a whole set --------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(runs: list[dict], names: list[str]) -> dict:
    """Per workload and metric: median, quartiles and relative spread."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        rows = [r for r in runs if r["workload"] == workload]
        out[workload] = {
            "runs": len(rows),
            "error_rate": sum(r["failed"] for r in rows)
            / sum(r["attempted"] for r in rows),
            "correct": all(r["correct"] for r in rows)}
        for name in names:
            q1, med, q3 = quartiles([r["metrics"][name]["value"]
                                     for r in rows])
            out[workload][name] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / abs(med) if med else 0.0}
    return out


def run_set(workloads: list[str], repeats: int, seed: int, seconds: float,
            *, quick: bool, trace: bool, trace_out: str | None,
            log) -> dict:
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"]]
    probes = 2 if quick else SETUP_PROBES
    runs = []
    for r in range(repeats):
        for workload in workloads:
            res = run_one(workload, seed + r, seconds, trace=False,
                          quick=quick, probes=probes)
            runs.append({"workload": workload, "seed": seed + r,
                         "correct": res["correct"],
                         "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": res["metrics"],
                         "detail": res["detail"]})
            log(f"{workload:12s} seed {seed + r}: " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                + ("" if res["correct"] else "  INCORRECT"))
    traced = {}
    if trace:
        for workload in workloads:
            out = None
            if trace_out:
                out = f"{trace_out}.{workload}.json"
            res = run_one(workload, seed, seconds, trace=True, quick=quick,
                          trace_out=out)
            traced[workload] = {k: v["value"]
                                for k, v in res["metrics"].items()}
            traced[workload]["correct"] = res["correct"]
            traced[workload]["sim_digest"] = res["detail"]["sim_digest"]
            log(f"{workload:12s} traced: overhead "
                f"{traced[workload]['trace.overhead']:+.1%}")
    return {"schema": SCHEMA, "seed": seed, "repeats": repeats,
            "seconds": seconds, "quick": quick, "runs": runs,
            "summary": summarise(runs, names), "traced": traced}


def render(report: dict) -> str:
    spec = load_spec()
    lines = []
    for workload, row in report["summary"].items():
        lines.append(f"{workload}  (runs {row['runs']}, error rate "
                     f"{row['error_rate']:g}, correct {row['correct']})")
        for m in spec["end_to_end"]:
            s = row[m["name"]]
            lines.append(f"  {m['name']:16s} {s['median']:12.5g} "
                         f"{m['unit']:6s} q1 {s['q1']:.5g}  q3 "
                         f"{s['q3']:.5g}  spread {s['spread']:.1%} "
                         f"(bound {m['bound']:.0%})")
        traced = report["traced"].get(workload)
        if traced:
            top = sorted(((k[:-6], v) for k, v in traced.items()
                          if k.endswith(".share")), key=lambda kv: -kv[1])
            lines.append("  traced split: " + ", ".join(
                f"{k} {v:.1%}" for k, v in top[:6]))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload once (the form "
                             "BENCHMARK.json's command takes)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="one-run form: 1 prints per-layer metrics")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced run's raw spans as "
                             "Chrome-trace JSON (per workload in a set)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="CE counts / 10, short runs, 1 repeat")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=None,
                        help="write the set's report JSON here")
    args = parser.parse_args(argv)

    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else load_spec()["run_seconds"]
    try:
        if args.workload:
            res = run_one(args.workload, args.seed, seconds,
                          trace=bool(args.trace), quick=args.quick,
                          trace_out=args.trace_out)
            print("detail " + json.dumps(res.pop("detail")))
            print(json.dumps(res))
            return 0
        workloads = [w for w in args.workloads.split(",") if w]
        unknown = sorted(set(workloads) - set(WORKLOADS))
        if unknown:
            parser.error(f"unknown workload(s) {unknown}")
        report = run_set(workloads, 1 if args.quick else args.repeats,
                         args.seed, seconds, quick=args.quick,
                         trace=not args.no_trace,
                         trace_out=args.trace_out,
                         log=lambda msg: print(msg, flush=True))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    print(render(report))
    return 0 if all(row["correct"] and not row["error_rate"]
                    for row in report["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
