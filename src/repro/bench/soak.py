"""Serve soak: what settled requests leave behind on one runtime.

``grout serve`` multiplexes every request onto one persistent runtime,
so whatever a settled request leaves behind accumulates for the life of
the daemon.  :func:`serve_soak` settles requests shaped like the
``serve-mix`` benchmark's on one in-process
:class:`~repro.serve.GroutService`, built as the service builds by
default (round-robin placement, no plan cache).  Requests come in
pairs, one per tenant, both in flight at once and settled by the pump:

``hot``
    resubmits one fixed spec, :data:`SOAK_HOT` (``mv``, 1 GiB, 4
    chunks);
``cold``
    submits specs whose (workload, footprint) pair never repeats:
    blocks of the six :data:`SOAK_COLD_WORKLOADS` in seeded order, one
    footprint per block, alternating around :data:`SOAK_COLD_MIB` (300,
    301, 299, 302, 298, ... MiB).  A request's pricing work grows with
    its footprint, so a walk in one direction would change every
    window's work with the request count; alternating keeps the mean
    footprint of every ten blocks at 300 MiB.

Every ``every`` requests, with nothing in flight, the probe yields a
:class:`SoakSample` of what the runtime still holds; the caller may
time the host between samples.  :func:`soak_problems` states the
bar: what a settled request owned is gone, what swings with the prune
cadence stays under a ceiling that does not grow with the request
count, and the pricers' page-plan caches stay under a fixed ceiling.
"""

from __future__ import annotations

import gc
import itertools
import random
import time
from dataclasses import dataclass, fields
from typing import Iterator

from repro.uvm.perfmodel import PLAN_CACHE_CAP

__all__ = ["SOAK_HOT", "SOAK_COLD_WORKLOADS", "SOAK_COLD_MIB",
           "SOAK_EMPTY", "SOAK_BOUNDED", "SOAK_PLAN_ENTRIES", "SoakSample",
           "cold_specs", "settle_pair", "serve_soak", "soak_problems",
           "format_samples"]

SOAK_HOT = {"workload": "mv", "gb": 1, "n_chunks": 4, "seed": 11,
            "tenant": "hot"}
SOAK_COLD_WORKLOADS = ("cg", "mle", "bs", "spmv", "img", "bfs")
#: The cold footprints' centre, MiB.
SOAK_COLD_MIB = 300

#: Sample fields that must read exactly zero with nothing in flight.
SOAK_EMPTY = ("spans", "profiles", "tickets", "directory",
              "engine_queue", "managed_bytes")
#: Sample fields that must not grow with the request count, each with
#: the factor by which its largest second-half reading may exceed its
#: largest first-half reading.  DAG nodes, and the arrays their CEs
#: still reference, swing with the prune cadence from a few dozen to
#: hundreds; gc-tracked objects swing with them, by a smaller share.
SOAK_BOUNDED = {"controller_dag": 1.5, "worker_dag": 1.5, "arrays": 1.5,
                "shared_series": 1.0, "gc_objects": 1.25}
#: Ceiling on ``plan_entries``: the service's four pricers (two workers
#: of two GPUs) at their cap each.  Every cold request brings new
#: buffer sizes, so without the cap the soak holds 268 plans after 120
#: requests and more after every request.
SOAK_PLAN_ENTRIES = 4 * PLAN_CACHE_CAP


@dataclass(frozen=True, slots=True)
class SoakSample:
    """What the service's runtime holds after ``requests`` settled."""

    requests: int
    #: Wall-clock seconds spent settling so far (sampling excluded).
    seconds: float
    spans: int
    profiles: int             # retained CE profiles
    controller_dag: int       # Global-DAG nodes
    worker_dag: int           # local-DAG nodes, summed over workers
    directory: int            # Directory entries
    tickets: int              # open tickets
    engine_queue: int         # queued engine deliveries
    managed_bytes: int        # UVM-managed bytes, summed over workers
    arrays: int               # live ManagedArray objects
    shared_series: int        # registry children without a session label
    session_series: int       # registry children with one
    plan_entries: int         # page plans cached, summed over pricers
    gc_objects: int           # the collector's tracked objects


def cold_specs():
    """Cold specs, one block of :data:`SOAK_COLD_WORKLOADS` per footprint,
    no (workload, footprint) pair twice."""
    rng = random.Random(1)
    for block in itertools.count():
        step = (block + 1) // 2
        mib = SOAK_COLD_MIB + (step if block % 2 else -step)
        order = list(SOAK_COLD_WORKLOADS)
        rng.shuffle(order)
        for workload in order:
            yield {"workload": workload, "footprint_bytes": mib << 20,
                   "seed": rng.randrange(1 << 16), "tenant": "cold"}


def settle_pair(service, cold_spec: dict) -> None:
    """One hot and one cold request, in flight together, settled by the
    pump as the daemon settles them."""
    tickets = [service.submit(SOAK_HOT), service.submit(cold_spec)]
    while not all(t.finalized for t in tickets):
        service.pump()
    for ticket in tickets:
        report = ticket.report
        if not (report["completed"] and report["verified"]):
            raise RuntimeError(f"soak request failed: {report}")


def serve_soak(requests: int, *, every: int) -> Iterator[SoakSample]:
    """Settle ``requests`` requests, in hot/cold pairs, on one service,
    yielding a sample whenever the settled count is a multiple of
    ``every``; raises if a request does not complete and verify."""
    from repro.core.arrays import ManagedArray
    from repro.serve import GroutService

    service = GroutService()
    runtime = service.runtime
    controller = runtime.controller
    workers = controller.workers.values()
    cold = cold_specs()
    settled = 0
    busy = 0.0
    try:
        while settled < requests:
            start = time.perf_counter()
            settle_pair(service, next(cold))
            busy += time.perf_counter() - start
            settled += 2
            if settled % every:
                continue
            series = [0, 0]
            for family in runtime.metrics.families():
                series["session" in family.spec.labels] += \
                    sum(1 for _ in family.children())
            gc.collect()
            objects = gc.get_objects()
            sample = SoakSample(
                requests=settled,
                seconds=busy,
                spans=len(runtime.tracer),
                profiles=len(runtime.profiler),
                controller_dag=controller.dag.size,
                worker_dag=sum(w.local_dag.size for w in workers),
                directory=len(controller.directory),
                tickets=service.inflight(),
                engine_queue=runtime.engine.queued,
                managed_bytes=sum(w.node.uvm.managed_bytes
                                  for w in workers),
                arrays=sum(1 for o in objects if type(o) is ManagedArray),
                shared_series=series[0],
                session_series=series[1],
                plan_entries=sum(len(dev.pricer._plan_cache)
                                 for w in workers
                                 for dev in w.node.uvm._devices.values()),
                gc_objects=len(objects),
            )
            del objects
            yield sample
    finally:
        service.close(settle=False)


def soak_problems(samples: list[SoakSample]) -> list[str]:
    """Every way ``samples`` miss the bar (empty when they meet it).

    Each :data:`SOAK_EMPTY` field reads zero at every sample.  Each
    :data:`SOAK_BOUNDED` field's second-half maximum is at most its
    factor times its first-half maximum.  ``plan_entries`` stays at or
    under :data:`SOAK_PLAN_ENTRIES`.  Session-labelled series are
    pinned at what a settled session keeps: one
    ``grout_session_ces_scheduled_total`` and one
    ``grout_session_sync_seconds_total`` child, plus a
    ``grout_session_throttled_total`` child if the fair-share gate ever
    held it back.
    """
    problems = []
    for s in samples:
        for name in SOAK_EMPTY:
            if getattr(s, name):
                problems.append(f"{name} = {getattr(s, name)} after "
                                f"{s.requests} requests, expected 0")
        if s.plan_entries > SOAK_PLAN_ENTRIES:
            problems.append(f"{s.plan_entries} page plans cached after "
                            f"{s.requests} requests, ceiling "
                            f"{SOAK_PLAN_ENTRIES}")
        if not 2 * s.requests <= s.session_series <= 3 * s.requests:
            problems.append(f"{s.session_series} session series after "
                            f"{s.requests} requests, expected 2-3 per "
                            "request")
    half = len(samples) // 2
    for name, slack in SOAK_BOUNDED.items():
        first = max(getattr(s, name) for s in samples[:half])
        second = max(getattr(s, name) for s in samples[half:])
        if second > slack * first:
            problems.append(f"{name} grew: second-half max {second} > "
                            f"{slack} x first-half max {first}")
    return problems


def format_samples(samples: list[SoakSample]) -> str:
    """One aligned row per sample, a header first."""
    names = [f.name for f in fields(SoakSample)]
    rows = [names] + [[f"{getattr(s, n):.2f}" if n == "seconds"
                       else str(getattr(s, n)) for n in names]
                      for s in samples]
    widths = [max(len(r[i]) for r in rows) for i in range(len(names))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths))
                     for r in rows)
