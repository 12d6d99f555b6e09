"""The benchmark's in-process workloads: inputs, one pass, and its checks.

The synthetic programs are the benchmark's own copies, so a change to
the program cannot silently change what the benchmark feeds it.  Each
pass builds a fresh runtime through ``RuntimeConfig.build_runtime``,
submits the whole program (``launch``/``host_write``/``host_read``),
drains it with ``sync`` and returns what the caller times and checks.
The simulation is deterministic, so every pass of one run must produce
the same simulated outputs.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: Every workload of the benchmark (``BENCHMARK.json`` order); the last
#: one is served over HTTP by ``serve_mix.py``.
WORKLOADS = ("iterative", "wide", "deep-faults", "paper-fig7", "serve-mix")

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: The synthetic cluster: small GPUs keep the footprint resident, so
#: scheduling, not eviction, is what these workloads load.
SCALE_GPU = "TEST_GPU_1GB"

#: CEs per pass (``quick`` divides by ten), policy and worker count.
#: Passes are short (~0.4 s here) so that one run holds ~25 of them and
#: their median shrugs off bursts of host noise.
SCALE = {
    "iterative": {"ces": 1500, "n_workers": 3, "policy": "round-robin"},
    "wide": {"ces": 2000, "n_workers": 8, "policy": "min-transfer-time"},
    "deep-faults": {"ces": 1500, "n_workers": 3, "policy": "round-robin"},
}

#: Fault-free simulated seconds per CE of the deep chain; fault times
#: are shares of the fault-free makespan, so the plan scales with size.
#: Flakes come in pairs: three in a row can land on one transfer and
#: exhaust the fabric's default three attempts, failing the program.
DEEP_SECONDS_PER_CE = 2.444e-3
DEEP_FAULTS = (("flake@{:.6f}*2", 0.10),
               ("degrade:worker0-worker1@{:.6f}x0.5", 0.30),
               ("flake@{:.6f}*2", 0.50),
               ("crash:worker2@{:.6f}", 0.60))

#: Paper Fig. 7: GrCUDA (one 2xV100 node) vs GrOUT (two nodes,
#: vector-step) at 2x, 3x and 4x oversubscription, 2.5 h cap.
FIG7_WORKLOADS = ("mv", "cg", "mle")
FIG7_SIZES_GB = (64, 96, 128)
FIG7_QUICK_SIZES_GB = (96,)
FIG7_CAP_S = 9000.0
#: The paper's peak speedups; MV's is a lower bound (its single node
#: ran out of time).
PAPER_PEAK = {"mle": (1.64, False), "cg": (7.45, False), "mv": (24.42, True)}

#: The registry counters each pass reports, summed over its runtimes.
COUNTERS = {
    "net.fabric.transfers": "grout_fabric_transfers_total",
    "net.fabric.retries": "grout_fabric_retries_total",
    "net.fabric.bytes": "grout_fabric_bytes_total",
    "uvm.cold_bytes": "grout_uvm_cold_bytes_total",
    "uvm.writeback_bytes": "grout_uvm_writeback_bytes_total",
    "uvm.thrashing_launches": "grout_uvm_thrashing_launches_total",
    "uvm.refault_bytes": "grout_uvm_refault_bytes_total",
    "core.plancache.hits": "grout_plancache_hits_total",
    "core.plancache.misses": "grout_plancache_misses_total",
    "core.plancache.cost_replays": "grout_plancache_cost_replays_total",
    "core.plancache.invalidations": "grout_plancache_invalidations_total",
}


# -- synthetic programs -------------------------------------------------------

class Program:
    """What a synthetic program submitted: every CE plus the host
    reads' verdicts."""

    def __init__(self):
        self.ces: list = []
        self.reads_ok: list[bool] = []

    def submit(self, ce):
        self.ces.append(ce)
        return ce

    def read(self, rt, array, expected: np.ndarray, label: str) -> None:
        self.reads_ok.append(bool(np.array_equal(
            rt.host_read(array, label=label), expected)))

    def failed(self) -> int:
        undone = sum(1 for ce in self.ces
                     if ce.done is None or not ce.done.processed)
        return undone + self.reads_ok.count(False)

    @property
    def attempted(self) -> int:
        return len(self.ces) + len(self.reads_ok)


def _kernel(name: str, directions: tuple):
    """A cost-only kernel whose parameter directions are fixed."""
    from repro.gpu.kernel import ArrayAccess, KernelSpec

    def access_fn(args):
        return [ArrayAccess(a, d) for a, d in zip(args, directions)]
    return KernelSpec(name, flops_per_byte=0.5, access_fn=access_fn)


def _fill(array, values: np.ndarray):
    def body():
        array.data[:] = values
    return body


def build_iterative(rt, n: int, rng: np.random.Generator,
                    check_every: int = 256) -> Program:
    """A CG-shaped loop: four kernels per iteration over an 8 MiB matrix
    and four 1 MiB vectors, with a host read of the residual every
    ``check_every`` iterations as the convergence check."""
    from repro.gpu.kernel import Direction as D
    prog = Program()
    mat = rt.device_array(8, virtual_nbytes=8 * MIB, name="i.A")
    vecs = {v: rt.device_array(8, virtual_nbytes=MIB, name=f"i.{v}")
            for v in ("p", "q", "r", "x")}
    init = {v: rng.random(8, dtype=np.float32) for v in vecs}
    spmv = _kernel("spmv", (D.IN, D.IN, D.OUT))
    axpy = _kernel("axpy", (D.IN, D.INOUT))
    resid = _kernel("resid", (D.IN, D.INOUT))
    update = _kernel("update", (D.IN, D.INOUT))
    arrays = list(vecs.values()) + [mat]

    def body():
        for v, array in vecs.items():
            array.data[:] = init[v]
    prog.submit(rt.host_write(arrays, body=body, label="i.init"))
    p, q, r, x = (vecs[v] for v in ("p", "q", "r", "x"))
    iteration = 0
    while prog.attempted + 4 <= n:
        prog.submit(rt.launch(spmv, 8, 128, (mat, p, q)))
        prog.submit(rt.launch(axpy, 8, 128, (q, x)))
        prog.submit(rt.launch(resid, 8, 128, (q, r)))
        prog.submit(rt.launch(update, 8, 128, (r, p)))
        iteration += 1
        if iteration % check_every == 0 and prog.attempted < n:
            prog.read(rt, r, init["r"], "i.check")
    return prog


def build_wide(rt, n: int, rng: np.random.Generator,
               width: int = 256) -> Program:
    """Epochs of one host write fanning out to ``width`` reader kernels;
    every write is a WAR against the previous epoch's whole wave."""
    from repro.gpu.kernel import Direction as D
    prog = Program()
    shared = rt.device_array(8, virtual_nbytes=4 * MIB, name="w.shared")
    outs = [rt.device_array(8, virtual_nbytes=256 * KIB, name=f"w.out{i}")
            for i in range(width)]
    fan = _kernel("fan", (D.IN, D.OUT))
    values = None
    while prog.attempted < n - 1:
        values = rng.random(8, dtype=np.float32)
        prog.submit(rt.host_write(shared, body=_fill(shared, values),
                                  label="w.init"))
        for i in range(min(width, n - 1 - prog.attempted)):
            prog.submit(rt.launch(fan, 8, 128, (shared, outs[i])))
    prog.read(rt, shared, values, "w.check")
    return prog


def build_deep(rt, n: int, rng: np.random.Generator) -> Program:
    """One read-modify-write chain: round-robin placement moves the
    accumulator point to point on every link."""
    from repro.gpu.kernel import Direction as D
    prog = Program()
    accum = rt.device_array(8, virtual_nbytes=MIB, name="d.accum")
    step = _kernel("step", (D.INOUT,))
    values = rng.random(8, dtype=np.float32)
    prog.submit(rt.host_write(accum, body=_fill(accum, values),
                              label="d.init"))
    for _ in range(n - 2):
        prog.submit(rt.launch(step, 8, 128, (accum,)))
    prog.read(rt, accum, values, "d.check")
    return prog


PROGRAMS = {"iterative": build_iterative, "wide": build_wide,
            "deep-faults": build_deep}


def deep_fault_spec(ces: int) -> str:
    """The deep-faults plan, each time a share of the fault-free
    makespan of a ``ces``-long chain."""
    makespan = ces * DEEP_SECONDS_PER_CE
    return ",".join(fmt.format(share * makespan)
                    for fmt, share in DEEP_FAULTS)


def scale_config(name: str):
    from repro.core.config import RuntimeConfig
    spec = SCALE[name]
    return RuntimeConfig(policy=spec["policy"], n_workers=spec["n_workers"],
                         gpu_spec=SCALE_GPU)


# -- one pass -----------------------------------------------------------------

def scale_pass(name: str, seed: int, quick: bool, speed,
               tracer=None) -> dict:
    """Build, drain and check one synthetic program; timed: build+drain,
    scaled by the :class:`~hostspeed.HostSpeed` factor around it."""
    from repro.sim import FaultPlan
    ces = SCALE[name]["ces"] // (10 if quick else 1)
    rt = scale_config(name).build_runtime()
    if name == "deep-faults":
        rt.install_faults(FaultPlan.parse(deep_fault_spec(ces)))
    rng = np.random.default_rng(seed)
    if tracer is not None:
        tracer.on = True
    start = perf_counter()
    prog = PROGRAMS[name](rt, ces, rng)
    rt.sync()
    wall = perf_counter() - start
    if tracer is not None:
        tracer.on = False
    factor = speed.factor()
    totals = RegistryTotals()
    totals.add(rt.metrics)
    events = rt.engine.events_processed
    rt.shutdown()
    return {
        "wall_s": wall,
        "adj_wall_s": wall * factor,
        "ops": prog.attempted,
        "attempted": prog.attempted,
        "failed": prog.failed(),
        "adj_latencies_s": [wall * factor],
        "events": events,
        "counts": totals.counts,
        "decision": totals.decision(),
        "sim": {"makespan_s": rt.engine.now, "events": events,
                **totals.counts},
    }


def fig7_pass(seed: int, quick: bool, speed, tracer=None) -> dict:
    """The paper's Fig. 7 sweep, every run oracle-verified; timed per
    run: build+drain (``Workload.execute``), scaled by the host-speed
    factor around that run.  The long runs, whose factors are the
    steadiest, carry most of a pass's time."""
    from repro.core.config import RuntimeConfig
    from repro.workloads import make_workload
    sizes = FIG7_QUICK_SIZES_GB if quick else FIG7_SIZES_GB
    walls, adjusted, elapsed, totals = [], [], {}, RegistryTotals()
    ces = failed = capped = events = 0
    for wl in FIG7_WORKLOADS:
        for gb in sizes:
            for mode in ("grcuda", "grout"):
                workload = make_workload(wl, gb * GIB, seed=seed)
                rt = RuntimeConfig(mode=mode, policy="vector-step") \
                    .build_runtime(workload=workload,
                                   footprint_bytes=gb * GIB)
                if tracer is not None:
                    tracer.on = True
                start = perf_counter()
                res = workload.execute(rt, timeout=FIG7_CAP_S, check=True)
                walls.append(perf_counter() - start)
                if tracer is not None:
                    tracer.on = False
                adjusted.append(walls[-1] * speed.factor())
                rt.shutdown()
                ces += res.ce_count
                events += rt.engine.events_processed
                totals.add(rt.metrics, decisions=mode == "grout")
                if not res.completed:
                    capped += 1
                elif not res.verified:
                    failed += 1
                elapsed[f"{wl}@{gb}:{mode}"] = (res.elapsed_seconds,
                                                res.completed)
    return {
        "wall_s": sum(walls),
        "adj_wall_s": sum(adjusted),
        "ops": ces,
        "attempted": len(walls),
        "failed": failed,
        "adj_latencies_s": adjusted,
        "events": events,
        "counts": totals.counts,
        "decision": totals.decision(),
        "capped": capped,
        "paper": paper_scores(elapsed, sizes),
        "sim": {"elapsed": {k: v[0] for k, v in elapsed.items()},
                "events": events, **totals.counts},
    }


def paper_scores(elapsed: dict, sizes: tuple) -> dict:
    """``speedup_3x`` (geomean GrCUDA/GrOUT at 96 GiB) and ``err_log2``
    (mean |log2(peak / paper)|, lower bounds scored one-sided)."""
    speedups = {}
    for wl in FIG7_WORKLOADS:
        speedups[wl] = []
        for gb in sizes:
            single, single_done = elapsed[f"{wl}@{gb}:grcuda"]
            grout, _ = elapsed[f"{wl}@{gb}:grout"]
            speedups[wl].append((single / grout, not single_done))
    at_3x = [speedups[wl][sizes.index(96)][0] for wl in FIG7_WORKLOADS]
    errors = []
    for wl, (paper, paper_is_bound) in PAPER_PEAK.items():
        peak, measured_is_bound = max(speedups[wl])
        err = math.log2(peak / paper)
        if paper_is_bound and measured_is_bound:
            err = 0.0
        elif paper_is_bound:
            err = max(0.0, -err)
        elif measured_is_bound:
            err = max(0.0, err)
        errors.append(abs(err))
    return {"speedup_3x": math.prod(at_3x) ** (1 / len(at_3x)),
            "err_log2": sum(errors) / len(errors),
            "speedups": {wl: [s for s, _ in v] for wl, v in
                         speedups.items()}}


# -- registry reads -----------------------------------------------------------

class RegistryTotals:
    """The :data:`COUNTERS` families and ``grout_decision_seconds``
    quantiles, accumulated over the runtimes of one pass."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS, 0.0)
        self._samples = self._p50 = self._p99 = 0.0

    def add(self, registry, *, decisions: bool = True) -> None:
        for name, family in COUNTERS.items():
            if family in registry:
                self.counts[name] += registry.family(family).value_sum()
        if not decisions or "grout_decision_seconds" not in registry:
            return
        for _labels, child in registry.family(
                "grout_decision_seconds").children():
            if child.count:
                self._samples += child.count
                self._p50 += child.count * child.percentile(50)
                self._p99 += child.count * child.percentile(99)

    def decision(self) -> dict[str, float]:
        """p50/p99 in microseconds; over several runtimes, each run's
        quantile weighted by its sample count."""
        if not self._samples:
            return {"us_p50": 0.0, "us_p99": 0.0}
        return {"us_p50": self._p50 / self._samples * 1e6,
                "us_p99": self._p99 / self._samples * 1e6}
